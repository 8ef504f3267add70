(** Absolute safety and liveness of ω-regular properties
    (Alpern–Schneider, the paper's reference [3]).

    Relative liveness/safety relativize these notions to a behavior set
    [Lω]; Remark 1 of the paper says the two coincide when [Lω = Σ^ω].
    This module provides the absolute side of that remark — used by the
    test suite to cross-validate the relative deciders — together with the
    classical decomposition of an arbitrary property into a safety and a
    liveness part. [rlcheck decompose] decides safety of an LTL property
    as relative safety over {!universal_buchi}, which needs no
    complementation; {!is_safety} is its test reference. *)

open Rl_sigma

(** [is_safety b] — [L(b)] is a safety property: it equals its
    topological closure [lim(pre(L))] (equivalently: every violation has
    an irrecoverable finite prefix). Decided by
    {!Omega_lang.is_limit_closed}, through a Kupferman–Vardi
    complementation of [b], so it is meant for small automata. *)
val is_safety : Buchi.t -> bool

(** [is_liveness ?budget b] — [L(b)] is a liveness property:
    [pre(L(b)) = Σ*] (every finite word can be extended into [L(b)]).
    [budget] is ticked by the antichain inclusion. [reduce] (default
    [true]) shrinks [b] and its prefix NFA by their cached simulation
    quotients before the search — the verdict is reduction-invariant. *)
val is_liveness :
  ?budget:Rl_engine_kernel.Budget.t -> ?reduce:bool -> Buchi.t -> bool

(** [universal_buchi alphabet] accepts [Σ^ω]. *)
val universal_buchi : Alphabet.t -> Buchi.t

(** [liveness_part ?budget ?max_states b] is
    [L(b) ∪ (Σ^ω \ closure(L(b)))] — a liveness property
    (Alpern–Schneider). The optional limits govern the embedded
    Kupferman–Vardi complementation; [max_states] aborts it with
    {!Complement.Too_large}. *)
val liveness_part :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?max_states:int ->
  Buchi.t ->
  Buchi.t

(** [decompose ?budget ?max_states b] is [(safety, liveness)] with
    [L(b) = L(safety) ∩ L(liveness)], [safety = lim(pre(L(b)))] the safety
    closure and [liveness = liveness_part b]. *)
val decompose :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?max_states:int ->
  Buchi.t ->
  Buchi.t * Buchi.t
