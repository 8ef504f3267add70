(** A fixed-size pool of worker domains for the parallel checking engine.

    The PSPACE deciders run two kinds of parallel region on it: the
    work-stealing antichain inclusion search ({!run_members}), and the
    independent legs of a full verdict ({!parfan}) — for instance the
    three Theorem 4.7 checks. Every {e observable} result stays
    deterministic.

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
    are deterministic. The work-stealing search answers directly only
    when its verdict is schedule-independent and otherwise replays the
    serial search, so verdicts, witnesses and exit codes are
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

(** [heal p] respawns every dead worker. Call between regions only (the
    daemon heals between requests); concurrent regions on other domains
    are not supported during a heal. *)
val heal : t -> unit

(** [try_heal p] is {!heal} made safe for a pool shared across handler
    threads: it claims the pool's region slot first (so the respawn
    cannot overlap a parallel region on another thread — concurrent
    regions run inline serially meanwhile) and returns [false] without
    healing when a region currently holds the slot. The daemon calls it
    after each batch; a skipped heal is retried after the next one. *)
val try_heal : t -> bool

(** [shutdown p] wakes the workers, asks them to exit, and joins them.
    Idempotent. A pool must not be used after shutdown. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exceptions. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a

(** [run_members p body] claims the pool's region slot and runs
    [body member] once on every live member — the caller as member [0],
    each live worker under its own member index in [1 .. size-1] —
    returning [true] after all of them finish. Returns [false] without
    running anything when the pool is serial ([size p = 1]) or another
    region holds the slot (nested call); the caller then falls back to
    its serial path. This is the primitive beneath the work-stealing
    engine: there is no index space, no positional result and no repair
    pass, so the body must coordinate through its own shared structures,
    tolerate members that die mid-job (the join barrier still
    completes), and catch its own exceptions — an escaping worker-side
    exception retires that worker, and a caller-side one is swallowed by
    the barrier discipline. *)
val run_members : t -> (int -> unit) -> bool

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
