(** Process-wide symbol interning.

    One global, thread-safe bijection between symbol names and small
    dense ints, shared by every {!Alphabet} in the process. Interning
    moves string hashing to alphabet construction time: once two
    alphabets are built, deciding whether their symbols denote the same
    action — alphabet equality, union-alphabet deduplication in
    [compose], symbol remapping between alphabets — is integer work.

    Ids are allocated in first-intern order, never freed, and stable for
    the process lifetime; the table only grows. Model alphabets are tiny
    next to the state spaces the engine explores, so unbounded growth is
    the right trade for lock-free reads of [t -> string]. *)

(** [id name] is the unique id of [name], interning it on first use.
    Thread-safe. *)
val id : string -> int

(** [name id] is the string [id] was interned from.
    @raise Invalid_argument if [id] was never returned by {!id}. *)
val name : int -> string

(** [find name] is [Some (id name)] without interning, [None] when
    [name] has never been interned. Thread-safe. *)
val find : string -> int option

(** Number of distinct names interned so far. *)
val count : unit -> int
