(** Nondeterministic finite automata over finite words, with ε-moves.

    NFAs are the working representation of the regular languages in the
    paper: the prefix-closed language [L] of a system's finite behaviors,
    its image [h(L)] under an abstracting homomorphism (ε-moves arise from
    letters erased by [h]), the prefix languages [pre(·)], and the left
    quotients [cont(w, L)]. States are integers [0 .. states-1]. *)

open Rl_sigma

type t

(** {1 Construction} *)

(** [create ~alphabet ~states ~initial ~finals ~transitions ()] builds an
    NFA. [transitions] are [(source, symbol, target)] triples;
    [eps] are ε-transitions [(source, target)].
    @raise Invalid_argument on out-of-range states or symbols. *)
val create :
  alphabet:Alphabet.t ->
  states:int ->
  initial:int list ->
  finals:int list ->
  transitions:(int * Alphabet.symbol * int) list ->
  ?eps:(int * int) list ->
  unit ->
  t

(** [of_dfa_parts ~alphabet ~states ~initial ~finals ~delta] wraps explicit
    transition arrays [delta.(q).(a) = successor list]. The arrays are used
    directly (not copied). *)
val of_dfa_parts :
  alphabet:Alphabet.t ->
  states:int ->
  initial:int list ->
  finals:Rl_prelude.Bitset.t ->
  delta:int list array array ->
  t

(** {1 Accessors} *)

val alphabet : t -> Alphabet.t
val states : t -> int
val initial : t -> int list
val finals : t -> Rl_prelude.Bitset.t
val is_final : t -> int -> bool

(** [successors n q a] is the list of [a]-successors of [q]
    (ε-moves excluded). *)
val successors : t -> int -> Alphabet.symbol -> int list

(** [csr n] is the flat CSR view of the labelled transitions (ε-moves
    excluded), built once at construction. Slice order equals the list
    order of {!successors}, so the two views agree successor-for-
    successor; the hot loops step this table and never re-walk lists. *)
val csr : t -> Rl_prelude.Csr.t

(** [rcsr n] is the transposed CSR table ([Csr.transpose (csr n)]),
    built on first use and cached on the automaton: simulation
    refinement ({!Preorder.forward}) reads its predecessor slices, and
    repeated refinements of one automaton share it. Concurrent first
    calls from two threads race benignly on a keep-first CAS over the
    same deterministic table. *)
val rcsr : t -> Rl_prelude.Csr.t

(** [iter_succ n q a f] applies [f] to every [a]-successor of [q], in
    {!successors} order, through the CSR table (no list allocation). *)
val iter_succ : t -> int -> Alphabet.symbol -> (int -> unit) -> unit

(** [eps_successors n q] is the list of ε-successors of [q]. *)
val eps_successors : t -> int -> int list

(** [has_eps n] is [true] iff [n] has at least one ε-transition. *)
val has_eps : t -> bool

(** [transitions n] lists all labelled transitions. *)
val transitions : t -> (int * Alphabet.symbol * int) list

(** {1 Language operations} *)

(** [accepts n w] decides [w ∈ L(n)] by subset simulation. *)
val accepts : t -> Word.t -> bool

(** [remove_eps n] is an equivalent NFA without ε-transitions. *)
val remove_eps : t -> t

(** [reachable n] is the set of states reachable from the initial states. *)
val reachable : t -> Rl_prelude.Bitset.t

(** [productive n] is the set of states from which a final state is
    reachable. *)
val productive : t -> Rl_prelude.Bitset.t

(** [trim n] restricts [n] to reachable-and-productive states (preserving
    the language). The result may have zero states when [L(n) = ∅]. *)
val trim : t -> t

(** [is_empty n] decides [L(n) = ∅]. *)
val is_empty : t -> bool

(** [shortest_word n] is a shortest accepted word, if any. *)
val shortest_word : t -> Word.t option

(** [inter a b] recognizes [L(a) ∩ L(b)] (product construction; ε-moves are
    removed first). Alphabets must be equal. *)
val inter : t -> t -> t

(** [union a b] recognizes [L(a) ∪ L(b)] (disjoint sum). *)
val union : t -> t -> t

(** [reverse n] recognizes the mirror language. *)
val reverse : t -> t

(** [prefix_language n] recognizes [pre(L(n))]: the set of all prefixes of
    accepted words. Implemented by trimming and making every state final. *)
val prefix_language : t -> t

(** [all_states_final n] is [true] iff every state of [n] is final —
    together with [trim] this witnesses a prefix-closed representation. *)
val all_states_final : t -> bool

(** [map_symbols ~alphabet f n] relabels every transition symbol by [f];
    [f a = None] turns the transition into an ε-move. This is the direct
    image of [L(n)] under an abstracting homomorphism. *)
val map_symbols :
  alphabet:Alphabet.t -> (Alphabet.symbol -> Alphabet.symbol option) -> t -> t

(** [residual n w] recognizes [cont(w, L(n))] (the left quotient):
    same automaton, initial states moved to the states reached on [w]. *)
val residual : t -> Word.t -> t

(** {1 Output} *)

val pp : Format.formatter -> t -> unit

(** [to_dot ?name n] is a GraphViz rendering. *)
val to_dot : ?name:string -> t -> string
