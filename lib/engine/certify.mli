(** Independent replay of every witness the checkers produce.

    The decision procedures of {!Rl_core.Relative} run through translated,
    complemented and determinized automata — exactly the constructions
    where an implementation bug would silently flip a verdict. Before a
    witness is reported to a user it is replayed here through a {e
    different} code path: LTL properties are evaluated by the direct lasso
    semantics ({!Rl_ltl.Semantics.satisfies}, no Büchi translation),
    automaton properties by lasso membership ({!Rl_buchi.Buchi.member}, no
    complementation), and system membership by simulating the lasso on the
    system automaton. A certification failure means the toolchain itself
    is wrong, never the input.

    Three oracles cover the three witness shapes:
    - {!counterexample} — a lasso violating classical satisfaction
      ([x ∈ Lω], [x ∉ P]), also the witness shape of relative-safety
      failures;
    - {!doomed_prefix} — a prefix refuting relative liveness ([w ∈
      pre(Lω)] with no extension into [Lω ∩ P], re-checked constructively
      via {!Rl_core.Relative.witness_extension});
    - {!extension} — a Lemma 4.9 witness extension ([x] extends [w] inside
      [Lω ∩ P]).

    {!verdict_triple} additionally cross-checks full verdicts against
    Theorem 4.7: [P] is satisfied iff it is both a relative liveness and a
    relative safety property of the system. *)

open Rl_sigma
open Rl_buchi
open Rl_core

type failure =
  | Not_in_system of Lasso.t
      (** the claimed witness is not a behavior of the system *)
  | Satisfies_property of Lasso.t
      (** the claimed counterexample satisfies the property after all *)
  | Violates_property of Lasso.t
      (** the claimed witness extension does not satisfy the property *)
  | Prefix_not_in_system of Word.t
      (** the claimed doomed prefix is not in [pre(Lω)] *)
  | Extension_exists of { prefix : Word.t; extension : Lasso.t }
      (** the claimed doomed prefix is not doomed; [extension] proves it *)
  | Not_an_extension of { prefix : Word.t; extension : Lasso.t }
      (** the claimed extension does not start with the prefix *)
  | Inconsistent_triple of { sat : bool; rl : bool; rs : bool }
      (** Theorem 4.7 fails: [sat ≠ (rl ∧ rs)] *)

val pp_failure : Format.formatter -> failure -> unit

(** [property_holds p x] — membership of the behavior [x] in [P], decided
    independently of the checking pipeline (see the module preamble). *)
val property_holds : Relative.property -> Lasso.t -> bool

(** [prefix_in_system ~system w] — [w ∈ pre(Lω)], by direct simulation. *)
val prefix_in_system : system:Buchi.t -> Word.t -> bool

(** [counterexample ~system p x] certifies a classical-satisfaction (or
    relative-safety) counterexample: [x] must be a behavior of the system
    that violates [P]. *)
val counterexample :
  system:Buchi.t -> Relative.property -> Lasso.t -> (unit, failure) result

(** [doomed_prefix ?budget ~system p w] certifies a relative-liveness
    refutation: [w] must be a system prefix with no extension to a
    behavior satisfying [P]. The re-check runs
    {!Rl_core.Relative.witness_extension} under [budget]. *)
val doomed_prefix :
  ?budget:Rl_engine_kernel.Budget.t ->
  system:Buchi.t ->
  Relative.property ->
  Word.t ->
  (unit, failure) result

(** [extension ~system p ~prefix x] certifies a Lemma 4.9 witness: [x]
    starts with [prefix], is a behavior of the system, and satisfies
    [P]. *)
val extension :
  system:Buchi.t ->
  Relative.property ->
  prefix:Word.t ->
  Lasso.t ->
  (unit, failure) result

(** {1 Theorem 4.7 consistency} *)

type triple = { sat : bool; rl : bool; rs : bool }

(** [verdict_triple ?budget ~system p] runs all three deciders in turn:
    [sat], then [rl], then [rs]. *)
val verdict_triple :
  ?budget:Rl_engine_kernel.Budget.t ->
  system:Buchi.t ->
  Relative.property ->
  triple

(** [consistent t] — Theorem 4.7: [t.sat = (t.rl && t.rs)]. *)
val consistent : triple -> bool

val check_triple : triple -> (unit, failure) result
