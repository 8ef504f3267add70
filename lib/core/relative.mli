(** Relative liveness and relative safety (Section 4 of the paper).

    A property [P ⊆ Σ^ω] is a {e relative liveness} property of a behavior
    set [Lω] iff every finite prefix of a behavior can be extended to a
    behavior satisfying [P] (Definition 4.1) — the formalization of "true,
    given the help of some fairness". It is a {e relative safety} property
    iff every violating behavior is irredeemable from some finite prefix on
    (Definition 4.2).

    The deciders below implement the automata-theoretic characterizations:
    - Lemma 4.3: [P] relative liveness of [Lω]  ⟺  [pre(Lω) = pre(Lω ∩ P)];
    - Lemma 4.4: [P] relative safety of [Lω]  ⟺
      [Lω ∩ lim(pre(Lω ∩ P)) ⊆ P];
    and both are PSPACE-complete for ω-regular data (Theorem 4.5) — the
    exponential here lives in the determinization / complementation steps.

    Properties can be given as Büchi automata or PLTL formulas; formulas
    are preferable because their complement is another translation rather
    than a Kupferman–Vardi complementation.

    Every decider takes an optional [?budget]
    ({!Rl_engine_kernel.Budget.t}): the budget is ticked in the underlying
    determinization / product / emptiness constructions and annotated with
    a phase label, so that resource exhaustion surfaces as
    [Budget.Exhausted] naming the phase that ran out. *)

open Rl_sigma
open Rl_buchi
open Rl_ltl

(** An ω-regular property over the system's alphabet. *)
type property =
  | Auto of Buchi.t
  | Ltl of { formula : Formula.t; labeling : Semantics.labeling }

(** [ltl ?labeling alphabet f] is a formula property; the labeling defaults
    to the canonical [λ_Σ] (symbol names as propositions). *)
val ltl : ?labeling:Semantics.labeling -> Alphabet.t -> Formula.t -> property

(** [property_buchi alphabet p] is an automaton for [P]. *)
val property_buchi :
  ?budget:Rl_engine_kernel.Budget.t -> Alphabet.t -> property -> Buchi.t

(** [property_neg_buchi alphabet p] is an automaton for [Σ^ω \ P]
    (formula negation, or rank-based complementation for [Auto]).
    [reduce] (default [true]) shrinks an [Auto] input by its
    simulation quotient before complementing. *)
val property_neg_buchi :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?reduce:bool ->
  Alphabet.t ->
  property ->
  Buchi.t

(** {1 Satisfaction relations} *)

(** [satisfies ~system p] — classical satisfaction [Lω ⊆ P]
    (Definition 3.2). [Error x] is a counterexample behavior. *)
val satisfies :
  ?budget:Rl_engine_kernel.Budget.t ->
  system:Buchi.t ->
  property ->
  (unit, Lasso.t) result

(** [is_relative_liveness ~system p] — Definition 4.1 via Lemma 4.3.
    [Error w] is a prefix [w ∈ pre(Lω)] that no continuation within the
    system can extend to a [P]-satisfying behavior. [reduce] (default
    [true]) quotients the system, the property and [pre(Lω)] by their
    cached simulation preorders before exploring; the product
    [pre(Lω ∩ P)] is searched as built. Verdicts are reduction-invariant
    and witnesses remain valid on the original automata. *)
val is_relative_liveness :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?reduce:bool ->
  system:Buchi.t ->
  property ->
  (unit, Word.t) result

(** [is_relative_safety ~system p] — Definition 4.2 via Lemma 4.4.
    [Error x] is a violating behavior every prefix of which is extendable
    towards [P] — the failure of relative safety. *)
val is_relative_safety :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?reduce:bool ->
  system:Buchi.t ->
  property ->
  (unit, Lasso.t) result

(** {1 Machine closure (Definition 4.6)} *)

(** [is_machine_closed ~system ~live_part ()] — [(Lω, Λ)] is a machine-closed
    live structure: [pre(Lω) ⊆ pre(Λ)]. With [Λ = Lω ∩ P] this is exactly
    relative liveness of [P] (the remark after Theorem 4.5). *)
val is_machine_closed :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?reduce:bool ->
  system:Buchi.t ->
  live_part:Buchi.t ->
  unit ->
  bool

(** {1 Witnesses (Lemma 4.9 made constructive)} *)

(** [witness_extension ~system p w] extends the prefix [w ∈ pre(Lω)] to a
    full behavior [wx ∈ Lω ∩ P], if one exists — the "density" of
    [Lω ∩ P] in [Lω] at the point [w]. *)
val witness_extension :
  ?budget:Rl_engine_kernel.Budget.t ->
  system:Buchi.t ->
  property ->
  Word.t ->
  Lasso.t option

(** {1 Vacuity hints}

    [vacuity_hints ~system p] runs the cheap lint passes relevant to a
    relative-liveness / relative-safety query and returns the resulting
    diagnostics: [RL103] when the system has no infinite behavior (every
    property is then vacuously relatively live, by Lemma 4.3), [RL104] on a
    system/property alphabet mismatch, and the formula lints
    ([RL301]/[RL302]) for [Ltl] properties. Callers attach these to their
    verdicts; the function never raises. *)
val vacuity_hints :
  system:Buchi.t -> property -> Rl_analysis.Diagnostic.t list
