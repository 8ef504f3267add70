(** Always-on engine counters, phase timers, and GC tuning.

    The counters are global [Atomic]s bumped from the hot paths — one
    atomic add per antichain event — so they are on unconditionally and
    [rlcheck --stats] is purely a reporting flag. GC behavior is read as
    deltas of {!gc_sample} between two {!snapshot}s; sampling never
    forces a collection.
    Counters are monotonic for the process lifetime: callers wanting a
    per-run figure take a snapshot before and after and {!diff} them. *)

(** {1 Hot-path counters} *)

(** One antichain node accepted (inserted into the antichain). *)
val incr_nodes : unit -> unit

(** One candidate discarded because a stored node subsumes it. *)
val incr_antichain_hits : unit -> unit

(** One stored node evicted by a newly accepted subsuming node. *)
val incr_evictions : unit -> unit

(** [note_arena_words w] raises the recorded arena high-water mark to
    [w] if larger (max-merge across engines and calls). *)
val note_arena_words : int -> unit

(** [gc_sample ()] is [Gc.quick_stat] with
    [minor_words] taken from [Gc.minor_words ()], which, unlike
    [quick_stat]'s field, also counts words allocated since the last
    minor collection. *)
val gc_sample : unit -> Gc.stat

(** {1 Phase timers} *)

(** [record_phase name seconds] adds one timed run of phase [name].
    Called by [Budget.with_phase]; thread-safe. *)
val record_phase : string -> float -> unit

(** [phases ()] is [(name, total_seconds, runs)] per phase, most
    expensive first. *)
val phases : unit -> (string * float * int) list

(** {1 Snapshots} *)

type snapshot = {
  wall : float;  (** [Unix.gettimeofday] at capture; elapsed in a diff *)
  nodes : int;
  antichain_hits : int;
  evictions : int;
  arena_high_water_words : int;
  sim_hits : int;  (** {!Simcache} hits *)
  sim_misses : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

val snapshot : unit -> snapshot

(** [diff ~before ~after] subtracts fieldwise; [arena_high_water_words]
    is a peak, not a rate, and keeps [after]'s value. *)
val diff : before:snapshot -> after:snapshot -> snapshot

(** Minor-heap words allocated per explored node — the zero-allocation
    evidence figure ([0.] when no nodes were explored). *)
val minor_words_per_node : snapshot -> float

(** {1 Reporting} *)

(** Human-readable table (includes the phase timings). *)
val pp_human : Format.formatter -> snapshot -> unit

(** [to_json ?extra s] is a single-line JSON object, tagged
    ["rlcheck_stats":1], with the phase table inlined. [extra] prepends
    literal key/value pairs — values must already be valid JSON. *)
val to_json : ?extra:(string * string) list -> snapshot -> string

(** {1 GC tuning} *)

(** [gc_tune ()] applies the measured engine defaults (4M-word minor
    heap, space_overhead 200) unless the [RLCHECK_GC] environment
    variable overrides them: ["off"] leaves the runtime untouched;
    ["minor=<words>,space_overhead=<percent>"] overrides field-wise.
    Call once at start-up. *)
val gc_tune : unit -> unit
