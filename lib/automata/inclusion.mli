(** On-the-fly antichain language inclusion for NFAs.

    Decides [L(A) ⊆ L(B)] without determinizing either side. The search
    explores pairs [(q, S)] of an A-state and the B-subset reached on the
    same word, lazily, with antichain subsumption pruning: a pair
    [(q, S)] is discarded when a stored [(q, S')] has [S' ⊆ S]. That is
    the one rule; it is the identity instance of the simulation-aware
    rule of "When Simulation Meets Antichains" (TACAS 2010), and the
    callers get the rest of what simulation buys by quotienting their
    operands first ({!Preorder.reduce}). This is the workhorse behind the
    Lemma 4.3 prefix-language inclusion test — the eager subset
    construction of {!Dfa.determinize} is kept only where a concrete DFA
    is genuinely needed (limits, minimization, residual classes).

    B-subsets are {!Rl_prelude.Bitset} values and both automata are
    consumed through flat CSR transition tables ({!Rl_prelude.Csr}), so
    {!Buchi.pre_language} results are stepped as contiguous array slices
    rather than re-walked transition lists.

    The search is level-synchronous breadth-first on the calling domain,
    so verdict, witness and budget-exhaustion point are deterministic. *)

open Rl_sigma

(** [included ?budget a b] decides [L(a) ⊆ L(b)]. On failure it returns
    a witness of [L(a) \ L(b)]: among the shortest words the pruned
    search uncovers, the lexicographically least (in symbol-index order)
    of the surviving frontier nodes — subsumption never discards a
    counterexample without keeping an equally short one. ε-moves are
    removed first; alphabets must be equal. The budget is ticked once per
    explored (non-subsumed) pair.

    [subsumption] is accepted and ignored: every value runs the ⊆ rule
    above. It remains so that callers written when [`Simulation] chose a
    second, simulation-based rule still compile unchanged.
    @raise Rl_engine_kernel.Budget.Exhausted when the budget runs out.
    @raise Invalid_argument on an alphabet mismatch. *)
val included :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?subsumption:[ `Subset | `Simulation ] ->
  Nfa.t ->
  Nfa.t ->
  (unit, Word.t) result

(** [equivalent ?budget a b] decides [L(a) = L(b)] by two inclusion
    runs; the returned word lies in the symmetric difference. *)
val equivalent :
  ?budget:Rl_engine_kernel.Budget.t -> Nfa.t -> Nfa.t -> (unit, Word.t) result
