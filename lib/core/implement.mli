(** The fair-implementation construction of Theorem 5.1.

    If [P] is a relative liveness property of a limit-closed finite-state
    behavior set [Lω], there is a finite-state system [A] with the {e same}
    behaviors whose strongly fair runs all satisfy [P]: take a reduced
    Büchi automaton for [Lω ∩ P] and erase its acceptance condition. The
    added product-state information is exactly the "extra bookkeeping" a
    fair scheduler needs (cf. the [{a,b}^ω] vs [◇(a ∧ ◯a)] example of
    Section 5: fairness over the 1-state automaton is not enough). *)

open Rl_buchi

type t = {
  product : Buchi.t;
      (** the reduced ("trim") Büchi automaton for [Lω ∩ P], acceptance
          kept — its accepting states are what fair runs hit infinitely *)
  implementation : Buchi.t;
      (** the same automaton with acceptance erased (every state
          accepting): the Theorem 5.1 system [A], with [L(A) = Lω] *)
}

(** [construct ~system p] builds the Theorem 5.1 implementation.
    Meaningful when [p] is a relative liveness property of the system and
    the system is limit closed; [validate] checks the conclusion. *)
val construct :
  ?budget:Rl_engine_kernel.Budget.t -> system:Buchi.t -> Relative.property -> t

(** [language_preserved ~system impl] decides [L(implementation) = Lω]
    (the "noninterfering" claim of Theorem 5.1), {e assuming the system is
    limit closed} — which is Theorem 5.1's own hypothesis, and always true
    of transition systems. Both languages are then limit closed (the
    implementation has no acceptance condition), so equality reduces to
    equality of prefix languages; [Error w] is a finite behavior prefix in
    the symmetric difference. Use {!Rl_buchi.Omega_lang.is_limit_closed}
    first if the hypothesis is in doubt. *)
val language_preserved :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?reduce:bool ->
  system:Buchi.t ->
  t ->
  (unit, Rl_sigma.Word.t) result

(** [fair_run_satisfies impl run_labels p] — whether the ω-word read by a
    run satisfies [P]; used with {!Rl_fair.Fair.generate_strongly_fair} to
    validate the theorem empirically. *)
val fair_run_satisfies :
  t -> Rl_sigma.Lasso.t -> Relative.property -> bool

(** [sample_fair_check rng ~samples impl p] generates [samples] strongly
    fair runs of the implementation and checks each satisfies [P]; returns
    the number that do (all of them, per Theorem 5.1) and the number
    generated. *)
val sample_fair_check :
  Rl_prelude.Prng.t -> samples:int -> t -> Relative.property -> int * int

(** [verify_fair_exact impl p] decides — exactly, through the Streett
    fair-emptiness check of {!Rl_fair.Streett} — whether {e every}
    strongly fair run of the implementation satisfies [P], which is the
    precise conclusion of Theorem 5.1. [Error run] is a strongly fair run
    violating [P]. *)
val verify_fair_exact :
  t -> Relative.property -> (unit, Rl_fair.Fair.run) result
