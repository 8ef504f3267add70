(** Nondeterministic Büchi automata over ω-words.

    Büchi automata represent the ω-regular data of the paper: the behavior
    set [Lω] of a system, the property [P], their intersection [Lω ∩ P], and
    the limits [lim(L)] of prefix-closed regular languages. States are
    integers [0 .. states-1]; acceptance is the standard Büchi condition
    (some accepting state visited infinitely often). *)

open Rl_sigma
open Rl_automata

type t

(** {1 Construction} *)

(** [create ~alphabet ~states ~initial ~accepting ~transitions ()] builds a
    Büchi automaton from [(source, symbol, target)] triples. *)
val create :
  alphabet:Alphabet.t ->
  states:int ->
  initial:int list ->
  accepting:int list ->
  transitions:(int * Alphabet.symbol * int) list ->
  unit ->
  t

(** [of_transition_system n] reads a {e trim, all-states-final} NFA — the
    representation of a prefix-closed behavior language [L] — as the Büchi
    automaton for [lim(L)] (every state accepting). This matches the paper's
    "finite-state system without acceptance conditions". The result
    shares [n]'s transition table ({!Nfa.csr}); nothing is copied.
    @raise Invalid_argument if [n] has ε-moves or non-final states. *)
val of_transition_system : Nfa.t -> t

(** [limit_of_dfa d] accepts [lim(L(d))]: the DFA read as a Büchi automaton
    (correct because DFA runs are unique). *)
val limit_of_dfa : Dfa.t -> t

(** [limit ?budget n] accepts [lim(L(n))] for an arbitrary NFA [n].

    When [n] is ε-free and every state is final, [L(n)] is prefix-closed,
    and by König's lemma an ω-word all of whose prefixes have runs of [n]
    has an infinite run: [lim(L(n))] is then [n] itself with every state
    accepting ({!of_transition_system}), read in linear time and charged
    [Nfa.states n] once. Dead-end and unreachable states carry no infinite
    run, so they need no trimming, and a 0-state [n] gives the 0-state
    automaton. Otherwise [n] is determinized ({!limit_of_dfa}), which is
    where [budget] is spent. Only the determinized closure is
    deterministic: a caller that complements the closure calls
    [limit_of_dfa (Dfa.determinize n)] itself. *)
val limit : ?budget:Rl_engine_kernel.Budget.t -> Nfa.t -> t

(** [of_lasso alphabet x] accepts exactly the singleton ω-language [{x}]. *)
val of_lasso : Alphabet.t -> Lasso.t -> t

(** {1 Accessors} *)

val alphabet : t -> Alphabet.t
val states : t -> int
val initial : t -> int list
val accepting : t -> Rl_prelude.Bitset.t
val is_accepting : t -> int -> bool

(** [successors b q a] lists the [a]-successors of [q] in {!csr} slice
    order. The lists of every state are read back from the table on the
    first call and kept. *)
val successors : t -> int -> Alphabet.symbol -> int list

(** [transitions b] lists the [(q, a, q')] triples by increasing [q],
    then [a]; within one [(q, a)] the order is the reverse of
    {!successors}. *)
val transitions : t -> (int * Alphabet.symbol * int) list

(** [csr b] is the automaton's one transition table, written once at
    construction; every other view is read from it. *)
val csr : t -> Rl_prelude.Csr.t

(** [rcsr b] is the transposed CSR table ([Csr.transpose (csr b)]),
    built on first use and cached on the automaton: simulation
    refinement reads its predecessor slices, and repeated refinements
    of one automaton share it. *)
val rcsr : t -> Rl_prelude.Csr.t

(** [iter_succ b q a f] applies [f] to every [a]-successor of [q], in
    {!successors} order, through the CSR table (no list allocation). *)
val iter_succ : t -> int -> Alphabet.symbol -> (int -> unit) -> unit

(** [has_edge b q a q'] decides whether [q --a--> q'] is a transition
    (linear scan of the CSR slice; no allocation). *)
val has_edge : t -> int -> Alphabet.symbol -> int -> bool

(** {1 Structural operations} *)

(** [reachable b] is the set of states reachable from the initial states. *)
val reachable : t -> Rl_prelude.Bitset.t

(** [live b] is the set of states from which some accepting run exists
    (states that reach a non-trivial SCC containing an accepting state). *)
val live : t -> Rl_prelude.Bitset.t

(** [sccs b] is Tarjan's strongly-connected-component decomposition:
    [(component_of_state, component_count)]. Components are numbered in
    reverse topological order (every edge goes from a higher-numbered
    component to a lower or equal one). *)
val sccs : t -> int array * int

(** [trim b] is the "reduced" automaton of the paper's Theorem 5.1 proof:
    restricted to reachable states from which an ω-word can be accepted,
    renumbered in increasing order. Preserves the language; may have zero
    states if the language is empty. It is {!Gba.to_buchi} with the one
    set [accepting b], so an automaton whose every state is accepting
    keeps every kept state accepting. The results of [trim], {!inter}
    and {!Gba.to_buchi} are marked trimmed, and [trim] returns them as
    they are. *)
val trim : t -> t

(** {1 Decision procedures} *)

(** [is_empty b] decides [L(b) = ∅] via SCC analysis (Tarjan). *)
val is_empty : t -> bool

(** [accepting_lasso ?budget b] is a witness [u·v^ω ∈ L(b)], if the
    language is non-empty. The cycle passes through an accepting state.
    [budget] is charged for the (linear) witness search. *)
val accepting_lasso : ?budget:Rl_engine_kernel.Budget.t -> t -> Lasso.t option

(** [member b x] decides [x ∈ L(b)] for an ultimately periodic [x]. *)
val member : t -> Lasso.t -> bool

(** {1 Boolean operations} *)

(** [inter ?budget a b] accepts [L(a) ∩ L(b)]: the generalized-Büchi
    product of the reachable pairs, numbered breadth first, with one set
    per operand, read through {!Gba.to_buchi}, so the result is trimmed.
    When one operand has every state accepting (a system, a limit
    closure), its set holds every pair and is dropped: the result has
    one copy of each live pair, all accepting where the other operand
    is. [budget] is ticked once per pair. *)
val inter : ?budget:Rl_engine_kernel.Budget.t -> t -> t -> t

(** [union a b] accepts [L(a) ∪ L(b)] (disjoint sum). *)
val union : t -> t -> t

(** {1 Prefixes and limits} *)

(** [pre_language ?budget b] is an NFA recognizing [pre(L(b))], the set of
    finite prefixes of accepted ω-words. *)
val pre_language : ?budget:Rl_engine_kernel.Budget.t -> t -> Nfa.t

(** {1 Generalized acceptance} *)

module Gba : sig
  (** Büchi automata with multiple acceptance sets, as produced by the
      LTL translation and the product; a run is accepting iff it visits
      {e every} set infinitely often. An empty list of sets means "all
      runs accepting". *)

  type gba

  val create :
    alphabet:Alphabet.t ->
    states:int ->
    initial:int list ->
    accepting_sets:int list list ->
    transitions:(int * Alphabet.symbol * int) list ->
    unit ->
    gba

  (** [to_buchi g] is the trimmed counter construction: [trim] of the
      equivalent plain Büchi automaton whose state [q·m + i] is state [q]
      waiting for set [i] of [m]. A set that holds every state is met at
      every step, so it is dropped first; [m] counts the sets left, and
      when none is left one full set stands for them ([m = 1], every
      kept state accepting). Liveness is decided on [g] itself, and only
      the reachable copies of live states are built. *)
  val to_buchi : gba -> t
end

(** {1 Output} *)

val pp : Format.formatter -> t -> unit
val to_dot : ?name:string -> t -> string
