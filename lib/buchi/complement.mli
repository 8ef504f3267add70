(** Complementation of Büchi automata (Kupferman–Vardi rank-based
    construction).

    The relative-safety check of Lemma 4.4 is an ω-language inclusion, which
    needs a complement when the property is handed over as an automaton
    rather than a formula. The construction tracks {e level rankings}: a
    function bounding, for every state a run of the input could be in, how
    many more visits to accepting states that run can make. The state space
    is [O((2n)^n)], so this is for small automata — which is exactly how the
    PSPACE-completeness of Theorem 4.5 manifests operationally.

    The construction is level-synchronous and interns new states in FIFO
    frontier order, so the output automaton is deterministic. *)

exception Too_large of int
(** Raised when [~max_states] is exceeded; carries the limit. *)

(** [complement ?budget ?max_states b] accepts [Σ^ω \ L(b)].
    @param budget ticked once per constructed ranking state; {!Rl_engine_kernel.Budget.Exhausted} is raised
    when it runs out.
    @param max_states abort with {!Too_large} when the construction
    exceeds this many states (default: unbounded). Useful for callers
    that can fall back or skip — the state space is exponential by
    nature. *)
val complement :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?max_states:int ->
  Buchi.t ->
  Buchi.t
