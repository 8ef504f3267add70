(** Fingerprint-keyed memo table for simulation preorders.

    Stores one computed preorder per structural fingerprint of an
    automaton. The payload is representation-neutral — one
    {!Rl_prelude.Bitset.t} row per state, [rows.(q)] holding the states
    related to [q] — so the kernel stays below the automata libraries;
    fingerprinting and the translation to concrete automata live in
    [Rl_automata.Preorder].

    The table is global and mutex-guarded (the daemon's threads may race
    on lookups), and it is {e bounded}: entries beyond the
    capacity — default 512, overridable with the [RLCHECK_SIMCACHE_CAP]
    environment variable or {!set_capacity} ([<= 0] = unbounded) — are
    evicted least-recently-used, so a long-running daemon fed a hostile
    stream of distinct models pays recomputation, never unbounded
    memory. Nothing is removed eagerly: keys are content-addressed, so
    the entries of a model a client has edited away can never be hit
    again and fall to LRU pressure like any other. Entries are immutable
    after insertion: treat returned rows as read-only. *)

type key = string
(** A structural fingerprint, e.g. [Digest.string] of a canonical
    serialization. A key must determine the cached relation: two
    computations under one key must give equal rows. *)

type entry = Rl_prelude.Bitset.t array

(** [find_or_compute key compute] returns the cached entry for [key], or
    runs [compute] (outside the table lock), stores and returns its
    result. [compute] must be deterministic for the key. *)
val find_or_compute : key -> (unit -> entry) -> entry

(** [stats ()] is [(hits, misses, entries)] since the last {!clear}. *)
val stats : unit -> int * int * int

(** [evictions ()] — entries dropped by the LRU bound since the last
    {!clear}. *)
val evictions : unit -> int

(** The current capacity in entries ([<= 0] = unbounded). *)
val capacity : unit -> int

(** [set_capacity n] rebounds the table immediately, evicting down to
    [n] if needed. *)
val set_capacity : int -> unit

(** [clear ()] empties the table and resets the counters. *)
val clear : unit -> unit
