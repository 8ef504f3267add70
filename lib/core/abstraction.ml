open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_ltl
open Rl_hom

type conclusion = [ `Concrete_holds | `Concrete_fails | `Unknown ]

type report = {
  abstract_states : int;
  concrete_states : int;
  maximal_words : bool;
  simple : bool;
  simplicity_witness : Word.t option;
  abstract_verdict : (unit, Word.t) result;
  rbar : Formula.t;
  conclusion : conclusion;
  hints : Rl_analysis.Diagnostic.t list;
}

let abstract_system ~hom ~ts = Hom.image_ts hom ts

let verify ?(budget = Rl_engine_kernel.Budget.unlimited) ?reduce ~ts
    ~hom ~formula () =
  let abstract_alpha = Hom.abstract hom in
  if not (Rl_ltl.Transform.is_sigma_normal ~alphabet:abstract_alpha (Formula.expand formula))
  then
    invalid_arg
      (Printf.sprintf "Abstraction.verify: %s is not Σ'-normal"
         (Formula.to_string formula));
  let abstract_ts = abstract_system ~hom ~ts in
  let maximal_words =
    Rl_engine_kernel.Budget.with_phase budget "maximal-word check" (fun () ->
        Hom.has_maximal_words ~budget abstract_ts)
  in
  let checked_ts =
    if maximal_words then Hom.hash_extend abstract_ts else abstract_ts
  in
  let verdict_system = Buchi.of_transition_system checked_ts in
  let abstract_verdict =
    Rl_engine_kernel.Budget.with_phase budget
      "abstract transfer check (Thm 8.2/8.3)" (fun () ->
        Relative.is_relative_liveness ~budget ?reduce
          ~system:verdict_system
          (Relative.ltl (Nfa.alphabet checked_ts) formula))
  in
  let analysis =
    Rl_engine_kernel.Budget.with_phase budget "simplicity analysis" (fun () ->
        Hom.analyze ~budget hom ts)
  in
  let rbar = Transform.rbar ~abstract:abstract_alpha ~eps_tail:`Strong formula in
  let conclusion =
    if maximal_words then `Unknown
    else
      match abstract_verdict with
      | Error _ -> `Concrete_fails (* Theorem 8.3, contrapositive *)
      | Ok () -> if analysis.Hom.simple then `Concrete_holds else `Unknown
  in
  (* the theorem hypotheses this run found violated, as lint diagnostics
     (same codes and wording as [rlcheck lint]'s deep passes) *)
  let hints =
    (if maximal_words then [ Rl_analysis.Lint.maximal_words_hint () ] else [])
    @
    if analysis.Hom.simple then []
    else
      let witness =
        Option.map
          (Format.asprintf "%a" (Word.pp (Nfa.alphabet ts)))
          analysis.Hom.witness
      in
      [ Rl_analysis.Lint.not_simple_hint ?witness () ]
  in
  {
    abstract_states = Nfa.states abstract_ts;
    concrete_states = Nfa.states ts;
    maximal_words;
    simple = analysis.Hom.simple;
    simplicity_witness = analysis.Hom.witness;
    abstract_verdict;
    rbar;
    conclusion;
    hints;
  }

(* The strong reading of R̄ is the one under which Theorems 8.2 and 8.3
   both hold. The weak (vacuously-true-on-silent-divergence) reading that
   the proof sketch of Theorem 8.3 suggests actually refutes that theorem:
   see DESIGN.md §4 and the enumeration test in the suite. *)
let check_concrete ?budget ?reduce ~ts ~hom ~formula () =
  let abstract_alpha = Hom.abstract hom in
  let rbar = Transform.rbar ~abstract:abstract_alpha ~eps_tail:`Strong formula in
  let labeling = Transform.epsilon_labeling ~abstract:abstract_alpha (Hom.apply_symbol hom) in
  let system = Buchi.of_transition_system (Nfa.trim ts) in
  let budget =
    match budget with Some b -> b | None -> Rl_engine_kernel.Budget.unlimited
  in
  Rl_engine_kernel.Budget.with_phase budget "concrete R̄(η) check (Thm 8.2)"
    (fun () ->
      Relative.is_relative_liveness ~budget ?reduce ~system
        (Relative.Ltl { formula = rbar; labeling }))

let pp_report ppf r =
  let concl =
    match r.conclusion with
    | `Concrete_holds -> "R̄(η) is a relative liveness property of lim(L) (Thm 8.2)"
    | `Concrete_fails -> "R̄(η) is NOT a relative liveness property of lim(L) (Thm 8.3)"
    | `Unknown -> "no conclusion transfers"
  in
  Format.fprintf ppf
    "@[<v>abstraction: %d states → %d states@,h(L) maximal words: %b@,\
     h simple on L: %b%a@,abstract verdict: %s%a@,R̄(η) = %a@,conclusion: %s@]"
    r.concrete_states r.abstract_states r.maximal_words r.simple
    (fun ppf -> function
      | Some w -> Format.fprintf ppf " (fails at a word of length %d)" (Word.length w)
      | None -> ())
    r.simplicity_witness
    (match r.abstract_verdict with
    | Ok () -> "relative liveness holds"
    | Error _ -> "relative liveness fails")
    (fun ppf -> function
      | Error w when Word.length w > 0 ->
          Format.fprintf ppf " (bad prefix of length %d)" (Word.length w)
      | _ -> ())
    r.abstract_verdict Formula.pp r.rbar concl
