(** Decision procedures on ω-regular languages given by Büchi automata.

    These are the primitives to which the paper's Theorem 4.5 reduces
    relative liveness and relative safety: prefix-language equality,
    ω-language inclusion, and limit-closedness. Inclusion and equivalence
    complement the right-hand automaton (Kupferman–Vardi), so they are
    intended for small automata; the formula-based paths in [Rl_core] avoid
    complementation by negating the formula instead. *)

open Rl_sigma

(** [included a b] decides [L(a) ⊆ L(b)]; on failure returns an
    ultimately periodic witness in [L(a) \ L(b)]. *)
val included : Buchi.t -> Buchi.t -> (unit, Lasso.t) result

(** [equivalent a b] decides [L(a) = L(b)]; on failure returns a witness in
    the symmetric difference. *)
val equivalent : Buchi.t -> Buchi.t -> (unit, Lasso.t) result

(** [is_limit_closed b] decides whether
    [L(b) = lim(pre(L(b)))] — the paper's "limit closed" condition of
    Theorem 5.1 (satisfied by behavior sets of finite-state systems without
    acceptance conditions). It is the inclusion [lim(pre(L(b))) ⊆ L(b)],
    which complements [b]. *)
val is_limit_closed : Buchi.t -> bool

(** [safety_closure b] is a Büchi automaton for [lim(pre(L(b)))], the
    smallest limit-closed (topologically closed within [Σ^ω]) superset of
    [L(b)]. It is deterministic (the limit of the determinized prefix
    NFA), so complementing it stays cheap. *)
val safety_closure : Buchi.t -> Buchi.t
