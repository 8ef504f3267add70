(** A fixed-size pool of worker domains for the parallel checking engine.

    Its one kind of parallel region, {!parfan}, runs independent
    sub-checks side by side: the three Theorem 4.7 legs of a full
    verdict, or the classification checks of [rlcheck decompose]. Every
    {e observable} result stays deterministic.

    {2 Shape}

    A pool of size [n] owns [n - 1] long-lived worker domains (size 1 owns
    none and runs everything inline). A parallel region hands every member
    — the calling domain included — one job closure; inside a {!parfan}
    region, members claim thunks from a shared atomic cursor, so fast
    members take work from slow ones. Between regions the workers sleep
    on a condition variable.

    {2 Determinism contract}

    {!parfan} returns results positionally: [parfan p thunks] is
    extensionally [List.map (fun th -> th ()) thunks] whenever the thunks
    are deterministic, so verdicts, witnesses and exit codes are
    byte-identical for every [--jobs] value. Nested parallel regions — a
    task that calls back into its own pool — run inline serially, which
    both preserves that contract and makes deadlock impossible.

    {2 Worker death and healing}

    A worker whose job closure raises — a defect, or the injected
    {!Fault.Pool_domain_death} — retires: it decrements the region's
    barrier {e first} (the joining caller never deadlocks), marks its
    slot dead, and lets its domain exit. A {!parfan} region's results stay
    byte-identical to the fault-free run: thunks the dead worker claimed
    but never ran are re-run serially by the caller. Later
    regions fan out across the survivors; with zero survivors every
    region runs serially on the caller — the floor of the service's
    degradation ladder. {!heal} respawns dead workers between regions,
    and {!degraded} reports whether any slots are currently dead. *)

type t

(** [create ?jobs ()] is a pool of [jobs] members ([jobs - 1] spawned
    domains plus the caller), whatever the host's core count. [jobs <= 0]
    means [Domain.recommended_domain_count ()]; the default is [1], a
    serial pool with no spawned domains. *)
val create : ?jobs:int -> unit -> t

(** The number of members, caller included; [1] means serial. *)
val size : t -> int

(** [Domain.recommended_domain_count ()] — the meaning of [--jobs 0]. *)
val recommended : unit -> int

(** Spawned workers currently serving (excludes the caller); a fresh
    pool of size [n] has [n - 1]. *)
val alive : t -> int

(** [degraded p] — some worker slots are dead; regions still complete
    (and stay correct), just with less parallelism. *)
val degraded : t -> bool

(** Workers lost since creation (cumulative, survives healing). *)
val deaths : t -> int

(** Workers respawned by {!heal} since creation. *)
val heals : t -> int

(** [heal p] respawns every dead worker. Call between regions only;
    concurrent regions on other domains are not supported during a
    heal. *)
val heal : t -> unit

(** [shutdown p] wakes the workers, asks them to exit, and joins them.
    Idempotent. A pool must not be used after shutdown. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exceptions. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a

(** [parfan p thunks] runs independent sub-checks concurrently and
    returns their results in order. If any thunk raises, the region stops
    handing out further thunks, waits for the in-flight ones, runs any
    skipped thunk below the least failing index, and re-raises the
    exception a serial left-to-right run would have surfaced first
    whenever the thunks are deterministic. Thunks that must not be
    abandoned on a sibling's failure should return a [result] instead of
    raising. Safe to call from inside a pool task (runs inline
    serially). *)
val parfan : t -> (unit -> 'a) list -> 'a list
