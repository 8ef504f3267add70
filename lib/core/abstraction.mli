(** Verification by behavior abstraction (Sections 6–8).

    The workflow of the paper: instead of checking a relative liveness
    property on the (large) concrete system [lim(L)], hide and rename
    actions with a homomorphism [h], check the property [η] on the (small)
    abstract system [lim(h(L))], and transfer the verdict:

    - Theorem 8.2: if [h] is {e simple} on [L] and [h(L)] has no maximal
      words, an abstract "yes" implies that [R̄(η)] is a relative liveness
      property of [lim(L)];
    - Theorem 8.3: without simplicity, an abstract "no" still refutes the
      concrete property (the implication concrete ⟹ abstract always
      holds);
    - Corollary 8.4: with simplicity, the two verdicts coincide.

    The Figure 2 / Figure 3 pair of the paper shows both outcomes: the
    same abstract system is reached from a correct system through a simple
    homomorphism and from a faulty one through a non-simple homomorphism —
    only the first abstract verdict may be trusted. *)

open Rl_sigma
open Rl_automata
open Rl_ltl

type conclusion =
  [ `Concrete_holds  (** Theorem 8.2 applies: [R̄(η)] is RL of [lim(L)] *)
  | `Concrete_fails  (** Theorem 8.3 contrapositive: it is not *)
  | `Unknown  (** abstract "yes" but [h] not simple: no transfer *) ]

type report = {
  abstract_states : int;  (** size of the abstract transition system *)
  concrete_states : int;
  maximal_words : bool;  (** [h(L)] has maximal words (precondition fails) *)
  simple : bool;
  simplicity_witness : Word.t option;
      (** word of [L] at which Definition 6.3 fails, when not simple *)
  abstract_verdict : (unit, Word.t) result;
      (** relative liveness of [η] on [lim(h(L))] *)
  rbar : Formula.t;  (** the transported formula [R̄(η)] *)
  conclusion : conclusion;
  hints : Rl_analysis.Diagnostic.t list;
      (** theorem hypotheses found violated during this run, as lint
          diagnostics ([RL403] not simple, [RL404] maximal words) — same
          codes and wording as the deep passes of [rlcheck lint], but
          computed from the facts the pipeline established anyway *)
}

(** [verify ~ts ~hom ~formula] runs the full pipeline on a transition
    system [ts] (trim, all-states-final NFA over the concrete alphabet)
    and a Σ'-normal-form [formula] over the abstract alphabet. When [h(L)]
    has maximal words, the abstract verdict is still computed on the
    [#]-extended abstract system (the Section 8 remark keeps dead behaviors
    visible in the limit), but the conclusion is reported as [`Unknown]:
    Theorems 8.2/8.3 assume the precondition, and the paper only points to
    [20] for the extended setting.
    [budget] is spent in the abstract determinizations and the simplicity
    analysis.
    @raise Invalid_argument if [formula] is not Σ'-normal or [ts] is not a
    transition system. *)
val verify :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?reduce:bool ->
  ts:Nfa.t ->
  hom:Rl_hom.Hom.t ->
  formula:Formula.t ->
  unit ->
  report

(** [check_concrete ~ts ~hom ~formula] decides directly — on the concrete
    system, against the [ε]-labeling of Definition 7.3 — whether [R̄(η)] is
    a relative liveness property of [lim(L)]. This is the expensive path
    the abstraction avoids; exposed to cross-validate [verify] and to
    measure the speedup. *)
val check_concrete :
  ?budget:Rl_engine_kernel.Budget.t ->
  ?reduce:bool ->
  ts:Nfa.t ->
  hom:Rl_hom.Hom.t ->
  formula:Formula.t ->
  unit ->
  (unit, Word.t) result

val pp_report : Format.formatter -> report -> unit
