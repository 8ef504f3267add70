(* Fingerprint-keyed memo table for simulation preorders.

   Computing a simulation preorder is polynomial but not free, and the
   deciders ask for the preorder of the *same* automaton repeatedly: the
   pre-language NFA of a system appears once per Theorem 4.7 leg, the
   property automaton once per transfer check, and a long-running daemon
   sees the same models resubmitted across requests. The cache keys on a
   structural fingerprint (a digest of the automaton's full transition
   structure, computed by the caller), so two structurally identical
   automata — even rebuilt from scratch — share one computation.

   The payload is the representation-neutral form of a preorder: one
   bitset row per state, [row.(q)] holding the states related to [q].
   This layer deliberately knows nothing about NFAs or Büchi automata —
   the kernel sits below the automata libraries — so the translation to
   and from concrete automata lives in [Rl_automata.Preorder].

   The table is bounded: a checking service that memoizes every distinct
   model a client ever sent would let one hostile batch OOM the daemon,
   so entries beyond the capacity (default 512, env
   RLCHECK_SIMCACHE_CAP) are evicted least-recently-used. Eviction costs
   only recomputation — correctness never depends on a hit, and the
   cache-miss-storm injection point exercises exactly that. An entry is
   never removed early: keys are content-addressed, so the fingerprints
   of an edited-away model simply stop being hit and age out.

   A mutex guards the table: the daemon's threads may race on lookups. Entries are immutable once inserted, so readers outside the
   critical section can use a returned row array freely. *)

type key = string

type entry = Rl_prelude.Bitset.t array

let default_capacity = 512

let capacity_from_env () =
  match Sys.getenv_opt "RLCHECK_SIMCACHE_CAP" with
  | None -> default_capacity
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> v
      | None ->
          invalid_arg
            "RLCHECK_SIMCACHE_CAP must be an integer number of entries \
             (<= 0 = unbounded)")

let table : (key, entry) Lru.t = Lru.create ~capacity:(capacity_from_env ()) ()

let mutex = Mutex.create ()

let hits = ref 0

let misses = ref 0

let find_or_compute key compute =
  (* the cache-miss-storm injection point: pretend the entry was evicted
     and recompute — the slow path must stay correct under a cold cache *)
  let storm =
    Fault.armed () && Fault.should_fire Fault.Cache_miss_storm
  in
  Mutex.lock mutex;
  match if storm then None else Lru.find table key with
  | Some rows ->
      incr hits;
      Mutex.unlock mutex;
      rows
  | None ->
      incr misses;
      Mutex.unlock mutex;
      (* Compute outside the lock: preorder refinement can be expensive
         and must not serialize unrelated deciders. A racing duplicate
         computation is deterministic, so last-write-wins is harmless. *)
      let rows = compute () in
      Mutex.lock mutex;
      Lru.put table key rows;
      Mutex.unlock mutex;
      rows

let stats () =
  Mutex.lock mutex;
  let s = (!hits, !misses, Lru.length table) in
  Mutex.unlock mutex;
  s

let evictions () =
  Mutex.lock mutex;
  let e = Lru.evictions table in
  Mutex.unlock mutex;
  e

let capacity () =
  Mutex.lock mutex;
  let c = Lru.capacity table in
  Mutex.unlock mutex;
  c

let set_capacity n =
  Mutex.lock mutex;
  Lru.set_capacity table n;
  Mutex.unlock mutex

let clear () =
  Mutex.lock mutex;
  Lru.clear table;
  hits := 0;
  misses := 0;
  Mutex.unlock mutex
