(** Deterministic fault injection for the checking engine.

    The robustness layer (the service supervisor's deadlines, the bounded
    caches, the typed input errors) exists to survive partial
    failure — but partial failure is rare in tests unless it is
    manufactured. This module names the failure modes the engine claims to
    survive and lets a chaos harness fire them on demand, {e
    deterministically}: a fixed seed and per-point rate reproduce the
    exact same fault schedule on every run, so CI can assert that the
    daemon stays up and verdicts match the fault-free run.

    {2 Injection points}

    - {!Cache_miss_storm} — a {!Simcache} lookup pretends the entry is
      absent and recomputes, simulating an evicted / cold cache under a
      hostile workload (probed in [Simcache.find_or_compute]).
    - {!Malformed_input} — the service request layer corrupts the model
      source just before parsing, simulating a client that sends garbage
      mid-stream (probed in [Rl_service.Request]).
    - {!Deadline_expiry} — the service supervisor treats the request's
      deadline as already expired, exercising the watchdog reply path
      (probed in [Rl_service.Supervisor]).

    {2 Arming}

    Faults are disarmed by default and cost one mutable-bool read on the
    probe fast path. They arm either from the [RLCHECK_FAULT] environment
    variable — a comma-separated list like
    ["seed=42,malformed_input=0.2,cache_miss_storm=1.0"], each point
    given its firing probability in [0,1] — or programmatically with
    {!configure} (used by the chaos test suites). The schedule is a pure
    function of the seed and the per-point probe count; probes on
    different points draw from independent split streams, so adding a
    probe site for one point does not shift another's schedule. *)

type point =
  | Cache_miss_storm
  | Malformed_input
  | Deadline_expiry

(** Raised by {!fire} when the point's schedule says the fault happens
    now. Probe sites translate it into the real failure they simulate
    (e.g. the request layer treats it as a corrupted model source). *)
exception Injected of point

val all : point list

(** The wire/env name of a point, e.g. ["cache_miss_storm"]. *)
val name : point -> string

val of_name : string -> point option

(** [armed ()] — some fault schedule is active. Probe sites check this
    first; when it is [false] (the default) a probe is a single read. *)
val armed : unit -> bool

(** [configure ?seed rates] arms the given points, each with a firing
    probability in [[0,1]]; points not listed never fire. [seed]
    (default [0]) fixes the schedule. Replaces any previous
    configuration and zeroes the counters. *)
val configure : ?seed:int -> (point * float) list -> unit

(** [configure_from_env ()] arms from [RLCHECK_FAULT] if set (see the
    module preamble for the syntax); does nothing when unset. Malformed
    specifications raise [Invalid_argument] — a chaos run with a typo
    must fail loudly, not silently run fault-free. *)
val configure_from_env : unit -> unit

(** [reset ()] disarms everything and zeroes the counters. *)
val reset : unit -> unit

(** [should_fire p] advances [p]'s schedule by one probe and reports
    whether the fault fires now. Deterministic per configuration; safe to
    call from any thread. Always [false] when disarmed. *)
val should_fire : point -> bool

(** [fire p] is [should_fire p] turned into control flow:
    @raise Injected when the schedule fires. *)
val fire : point -> unit

(** [fired p] — how many times [p] has fired since configuration. *)
val fired : point -> int

(** [probes p] — how many times [p] has been probed since configuration. *)
val probes : point -> int
