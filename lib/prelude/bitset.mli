(** Fixed-capacity mutable bit sets over [0 .. capacity-1].

    Used throughout the automata libraries as the canonical representation of
    state sets (subset construction, SCC membership, reachability frontiers).
    All operations raise [Invalid_argument] when an element is outside the
    capacity fixed at creation. *)

type t

(** [create n] is the empty set with capacity [n] (elements [0 .. n-1]). *)
val create : int -> t

(** [capacity s] is the capacity [s] was created with. *)
val capacity : t -> int

(** [copy s] is an independent copy of [s]. *)
val copy : t -> t

(** [unsafe_words s] is the set's own backing storage: one int per
    [Sys.int_size] elements, bit [i mod Sys.int_size] of word
    [i / Sys.int_size] set iff [i ∈ s]. Exposed for the allocation-free
    hot loops that blend bitsets with arena slices; treat the array as
    read-only unless you own the set. *)
val unsafe_words : t -> int array

(** [lowest_bit word] is the position, from [0] to [Sys.int_size - 1], of
    the lowest set bit of the nonzero [word] (for [min_int], the sign
    bit, it is [Sys.int_size - 1]); an [unsafe_words] word holds element
    [w * Sys.int_size + lowest_bit word] at index [w]. With
    [word land (word - 1)], which clears that bit, a loop visits the set
    bits of a word in increasing order and no others: [iter], [fold],
    [elements] and [choose] run on it. The result for [0] is
    unspecified. *)
val lowest_bit : int -> int

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

(** [is_empty s] is [true] iff [s] contains no element. *)
val is_empty : t -> bool

(** [cardinal s] is the number of elements of [s]. *)
val cardinal : t -> int

(** [union_into ~into src] adds every element of [src] to [into].
    Both must have the same capacity. *)
val union_into : into:t -> t -> unit

(** [inter_into ~into src] removes from [into] every element not in [src]. *)
val inter_into : into:t -> t -> unit

(** [diff_into ~into src] removes from [into] every element of [src]. *)
val diff_into : into:t -> t -> unit

(** [equal a b] is set equality (capacities must match). *)
val equal : t -> t -> bool

(** [subset a b] is [true] iff every element of [a] is in [b]. *)
val subset : t -> t -> bool

(** [disjoint a b] is [true] iff [a] and [b] share no element. *)
val disjoint : t -> t -> bool

(** [iter f s] applies [f] to the elements of [s] in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s acc] folds over elements in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [elements s] lists the elements of [s] in increasing order. *)
val elements : t -> int list

(** [of_list n xs] is the set with capacity [n] holding the elements of
    [xs]. *)
val of_list : int -> int list -> t

(** [choose s] is the smallest element of [s].
    @raise Not_found if [s] is empty. *)
val choose : t -> int

(** [hash s] is a hash compatible with [equal]. *)
val hash : t -> int

(** [compare a b] is a total order compatible with [equal]. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
