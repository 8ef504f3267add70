(** On-the-fly antichain language inclusion for NFAs.

    Decides [L(A) ⊆ L(B)] without determinizing either side. The search
    explores pairs [(q, S)] of an A-state and the B-subset reached on the
    same word, lazily, with antichain subsumption pruning. Under the
    default [`Simulation] subsumption, a pair [(q, S)] is discarded when a
    stored [(q', S')] exists with [q'] simulating [q] in A and every state
    of [S'] simulated by some state of [S] in B — the simulation-aware
    strengthening of the classic antichain rule ("When Simulation Meets
    Antichains", TACAS 2010); [`Subset] keeps the plain rule ([q' = q] and
    [S' ⊆ S]). The simulation preorders come from {!Preorder} and are
    memoized across calls, so repeated checks over the same automata pay
    for them once. This is the workhorse behind the Lemma 4.3/4.4
    prefix-language inclusion tests — the eager subset construction of
    {!Dfa.determinize} is kept only where a concrete DFA is genuinely
    needed (limits, minimization, residual classes).

    B-subsets are {!Rl_prelude.Bitset} values and both automata are
    consumed through flat CSR transition tables ({!Rl_prelude.Csr}), so
    {!Buchi.pre_language} results are stepped as contiguous array slices
    rather than re-walked transition lists.

    The search is level-synchronous breadth-first on the calling domain,
    so verdict, witness and budget-exhaustion point are deterministic (at
    a fixed subsumption mode; the two modes explore different node
    sets). *)

open Rl_sigma

type subsumption = [ `Subset | `Simulation ]

(** [included ?budget ?subsumption a b] decides [L(a) ⊆ L(b)]. On
    failure it returns a witness of [L(a) \ L(b)]: among the shortest
    words the pruned search uncovers, the lexicographically least (in
    symbol-index order) of the surviving frontier nodes — subsumption
    never discards a counterexample without keeping an equally short one.
    ε-moves are removed first; alphabets must be equal. The budget is
    ticked once per explored (non-subsumed) pair.
    @raise Rl_engine_kernel.Budget.Exhausted when the budget runs out.
    @raise Invalid_argument on an alphabet mismatch. *)
val included :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?subsumption:subsumption ->
  Nfa.t ->
  Nfa.t ->
  (unit, Word.t) result

(** [equivalent ?budget ?subsumption a b] decides [L(a) = L(b)] by
    two inclusion runs; the returned word lies in the symmetric
    difference. *)
val equivalent :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?subsumption:subsumption ->
  Nfa.t ->
  Nfa.t ->
  (unit, Word.t) result
