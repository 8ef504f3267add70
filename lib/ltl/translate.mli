(** Translation of PLTL formulas to Büchi automata (the tableau
    construction of Gerth–Peled–Vardi–Wolper, "Simple on-the-fly automatic
    verification of linear temporal logic").

    This provides the automaton for [L_η = {x | x, λ ⊨ η}] used by all the
    decision procedures of the paper: relative liveness (Lemma 4.3),
    relative safety (Lemma 4.4, via the automaton of [¬η]) and classical
    satisfaction. The construction goes formula → negation normal form →
    generalized Büchi (one acceptance set per until subformula) →
    degeneralized Büchi, interpreted over an alphabet [Σ] through a
    labeling [λ : Σ → 2^AP].

    {b Closure numbering.} The closure of the NNF formula (its
    subformulas) is numbered once, in {!Formula.compare} order, and every
    connective is rewritten over those indices. A tableau node's
    [new]/[old]/[next] obligation sets are immutable arrays of machine
    words over the closure, copied on write, so the expansion never
    compares formula trees: membership is a word test, and choosing the
    smallest index, which is choosing the smallest formula, is taking
    the lowest set bit ({!Rl_prelude.Bitset.lowest_bit}).

    {b Node key.} A finished node is identified, through a hash table
    keyed on word arrays, by three things: the literals of its [old] set,
    its whole [next] set, and one acceptance bit per until [u = g U h],
    equal to [u ∉ old ∨ h ∈ old].
    Two finished nodes that agree on these are the same state, so the
    second is merged into the first (its predecessor is added to the
    first's incoming set) and its [next] is not expanded again. The merge
    keeps the language: the successors of both nodes are the expansion of
    the same [next]; the edges into both carry the same letters, which only
    the literals decide; and both lie in the same generalized acceptance
    sets. This is the node-equivalence reduction of Daniele–Giunchiglia–
    Vardi ("Improved automata generation for linear temporal logic",
    CAV 1999), also used by LTL2BA (Gastin–Oddoux, CAV 2001). Incoming
    predecessors are a set, so the automaton carries no repeated
    transition.

    {b Budget.} The optional [budget] is ticked once per state kept and
    polled once per expansion step. [Relative] passes its check's budget,
    so [--max-states] and [--timeout] of [sat]/[rl]/[rs] (and the daemon
    watchdog) stop a translation that blows up; [rlcheck decompose] caps
    its translation at [--max-states]. [rlcheck fair] has no budget. *)

open Rl_sigma

(** [to_buchi ?budget ~alphabet ~labeling f] accepts exactly
    [{x ∈ Σ^ω | x, λ ⊨ f}].
    @raise Rl_engine_kernel.Budget.Exhausted when [budget] runs out. *)
val to_buchi :
  ?budget:Rl_engine_kernel.Budget.t ->
  alphabet:Alphabet.t ->
  labeling:Semantics.labeling ->
  Formula.t ->
  Rl_buchi.Buchi.t

(** [to_buchi_neg ?budget ~alphabet ~labeling f] accepts the complement
    [{x | x, λ ⊭ f}] — by translating [¬f], which is exponentially cheaper
    than complementing the automaton of [f]. *)
val to_buchi_neg :
  ?budget:Rl_engine_kernel.Budget.t ->
  alphabet:Alphabet.t ->
  labeling:Semantics.labeling ->
  Formula.t ->
  Rl_buchi.Buchi.t
