(** A bounded least-recently-used map for the engine's cross-request
    caches.

    A long-running checking service cannot let its memo tables grow with
    the lifetime of the process: a hostile batch of thousands of distinct
    models would otherwise OOM the daemon through the very caches that
    make it fast. This is the eviction layer those caches share —
    {!Simcache} bounds its preorder table with it, and the service's
    request cache sits on it directly.

    Operations are O(1) (hash table + intrusive doubly-linked recency
    list). The structure is {e not} synchronized: callers that share an
    instance across threads must guard it with their own lock, as
    {!Simcache} does. *)

type ('k, 'v) t

(** [create ~capacity ()] is an empty cache holding at most [capacity]
    bindings; inserting beyond that evicts the least recently used.
    [capacity <= 0] means unbounded (no eviction ever). *)
val create : capacity:int -> unit -> ('k, 'v) t

(** [find t k] returns the binding and marks it most recently used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [put t k v] binds [k] (replacing any previous binding, which counts
    as a use), evicting the least recently used binding if the cache is
    over capacity afterwards. *)
val put : ('k, 'v) t -> 'k -> 'v -> unit

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

(** [set_capacity t n] rebounds the cache, evicting down to [n] at once
    if it currently holds more ([n <= 0] = unbounded). *)
val set_capacity : ('k, 'v) t -> int -> unit

(** [evictions t] — bindings dropped by eviction since creation (or the
    last {!clear}); replacement of an existing key is not an eviction. *)
val evictions : ('k, 'v) t -> int

val clear : ('k, 'v) t -> unit

(** Most-recent-first snapshot of the keys, for tests and health
    reports. *)
val keys : ('k, 'v) t -> 'k list
