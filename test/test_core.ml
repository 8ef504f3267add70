(* Tests for the core library: the paper's definitions, lemmas and theorems
   as executable checks.

   - Section 2 / Figures 1-4: the client/server system, its faulty variant
     and their abstraction, with the exact verdicts the paper states.
   - Section 4: relative liveness/safety deciders, Theorem 4.7, machine
     closure, Remark 1.
   - Section 5: Theorem 5.1 and the {a,b}^ω example.
   - Section 8: Theorems 8.2/8.3 as a randomized transfer property. *)

open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_ltl
open Rl_core

let parse = Parser.parse
let server = Buchi.of_transition_system Paper.server_ts
let faulty = Buchi.of_transition_system Paper.faulty_ts
let server_alpha = Nfa.alphabet Paper.server_ts
let faulty_alpha = Nfa.alphabet Paper.faulty_ts
let progress_prop alpha = Relative.ltl alpha Paper.progress

(* --- Figures 1 and 2: the correct server --- *)

let test_fig1_reachability () =
  (* the reachability graph is finite and small; the net is bounded *)
  Alcotest.(check bool) "bounded" true (Rl_petri.Petri.is_bounded Paper.server_net);
  Alcotest.(check int) "8 reachable markings" 8 (Nfa.states Paper.server_ts);
  Alcotest.(check bool) "prefix-closed shape" true
    (Nfa.all_states_final Paper.server_ts)

let test_fig2_not_satisfied () =
  (* lock·(request·no·reject)^ω is a behavior and violates □◇result *)
  let x = Paper.starvation server_alpha in
  Alcotest.(check bool) "starvation is a behavior" true (Buchi.member server x);
  Alcotest.(check bool) "starvation violates progress" false
    (Semantics.satisfies ~labeling:(Semantics.canonical server_alpha) x
       Paper.progress);
  match Relative.satisfies ~system:server (progress_prop server_alpha) with
  | Ok () -> Alcotest.fail "□◇result should not hold classically"
  | Error cex ->
      Alcotest.(check bool) "counterexample is a behavior" true
        (Buchi.member server cex)

let test_fig2_relative_liveness () =
  (match Relative.is_relative_liveness ~system:server (progress_prop server_alpha) with
  | Ok () -> ()
  | Error w ->
      Alcotest.failf "□◇result should be RL of the server; bad prefix %a"
        (Word.pp server_alpha) w);
  (* by Theorem 4.7, since satisfaction fails, relative safety must fail *)
  match Relative.is_relative_safety ~system:server (progress_prop server_alpha) with
  | Ok () -> Alcotest.fail "relative safety should fail (Thm 4.7)"
  | Error x -> Alcotest.(check bool) "violator in Lω" true (Buchi.member server x)

let test_fig2_witness_extension () =
  (* density (Lemma 4.9): even after lock·request·no, progress is
     recoverable *)
  let w = Word.of_names server_alpha [ "lock"; "request"; "no" ] in
  match Relative.witness_extension ~system:server (progress_prop server_alpha) w with
  | None -> Alcotest.fail "expected an extension"
  | Some x ->
      Alcotest.(check bool) "extension is a behavior" true (Buchi.member server x);
      Alcotest.(check bool) "extension satisfies progress" true
        (Semantics.satisfies ~labeling:(Semantics.canonical server_alpha) x
           Paper.progress);
      Alcotest.(check bool) "w is a prefix of it" true
        (Word.equal w (Lasso.prefix x (Word.length w)))

(* --- Figure 3: the faulty server --- *)

let test_fig3_not_relative_liveness () =
  match Relative.is_relative_liveness ~system:faulty (progress_prop faulty_alpha) with
  | Ok () -> Alcotest.fail "□◇result should NOT be RL of the faulty server"
  | Error w ->
      (* the bad prefix must involve locking; after it no extension
         satisfies progress *)
      Alcotest.(check bool) "no recovery after bad prefix" true
        (Relative.witness_extension ~system:faulty (progress_prop faulty_alpha) w
        = None)

let test_fig3_starvation_unavoidable () =
  (* after lock, result is disabled forever *)
  let w = Word.of_names faulty_alpha [ "lock" ] in
  Alcotest.(check bool) "lock is a prefix" true
    (Nfa.accepts (Buchi.pre_language faulty) w);
  Alcotest.(check bool) "no progress extension" true
    (Relative.witness_extension ~system:faulty (progress_prop faulty_alpha) w = None)

(* --- Figure 4: abstraction --- *)

let test_fig4_abstract_system () =
  let abs = Paper.abstract_server_ts in
  (* behaviors: request then result-or-reject, repeated *)
  let al = Nfa.alphabet abs in
  Alcotest.(check int) "observable alphabet" 3 (Alphabet.size al);
  let b = Buchi.of_transition_system abs in
  let l names cyc = Lasso.of_names al ~stem:names ~cycle:cyc in
  Alcotest.(check bool) "(request·result)^ω" true
    (Buchi.member b (l [] [ "request"; "result" ]));
  Alcotest.(check bool) "(request·reject)^ω" true
    (Buchi.member b (l [] [ "request"; "reject" ]));
  Alcotest.(check bool) "no double request" false
    (Buchi.member b (l [] [ "request"; "request"; "result" ]));
  (* the faulty system abstracts to the same Figure 4 language *)
  let habs = Paper.observable_hom Paper.faulty_ts in
  let abs' = Rl_hom.Hom.image_ts habs Paper.faulty_ts in
  match
    Dfa.equivalent
      (Dfa.determinize (Nfa.prefix_language abs))
      (Dfa.determinize (Nfa.prefix_language abs'))
  with
  | Ok () -> ()
  | Error w ->
      Alcotest.failf "abstractions differ on %a" (Word.pp al) w

let test_fig4_simplicity () =
  let h_good = Paper.observable_hom Paper.server_ts in
  let h_bad = Paper.observable_hom Paper.faulty_ts in
  Alcotest.(check bool) "simple on Figure 2" true
    (Rl_hom.Hom.analyze h_good Paper.server_ts).Rl_hom.Hom.simple;
  let verdict = Rl_hom.Hom.analyze h_bad Paper.faulty_ts in
  Alcotest.(check bool) "not simple on Figure 3" false verdict.Rl_hom.Hom.simple;
  match verdict.Rl_hom.Hom.witness with
  | None -> Alcotest.fail "expected a simplicity counterexample"
  | Some w ->
      (* cross-check with the single-word decision procedure *)
      Alcotest.(check bool) "witness confirmed" false
        (Hom_oracle.simple_at h_bad Paper.faulty_ts w)

let test_fig4_pipeline () =
  let report_good =
    Abstraction.verify ~ts:Paper.server_ts
      ~hom:(Paper.observable_hom Paper.server_ts)
      ~formula:Paper.progress ()
  in
  Alcotest.(check bool) "abstract verdict holds" true
    (report_good.Abstraction.abstract_verdict = Ok ());
  Alcotest.(check bool) "conclusion: concrete holds" true
    (report_good.Abstraction.conclusion = `Concrete_holds);
  (* direct check at the concrete level agrees *)
  (match
     Abstraction.check_concrete ~ts:Paper.server_ts
       ~hom:(Paper.observable_hom Paper.server_ts)
       ~formula:Paper.progress ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "R̄(□◇result) should be RL of lim(L)");
  let report_bad =
    Abstraction.verify ~ts:Paper.faulty_ts
      ~hom:(Paper.observable_hom Paper.faulty_ts)
      ~formula:Paper.progress ()
  in
  (* same abstract verdict, but no transfer: exactly the paper's warning *)
  Alcotest.(check bool) "abstract verdict still holds" true
    (report_bad.Abstraction.abstract_verdict = Ok ());
  Alcotest.(check bool) "but conclusion unknown" true
    (report_bad.Abstraction.conclusion = `Unknown);
  match
    Abstraction.check_concrete ~ts:Paper.faulty_ts
      ~hom:(Paper.observable_hom Paper.faulty_ts)
      ~formula:Paper.progress ()
  with
  | Ok () -> Alcotest.fail "R̄(□◇result) should fail on the faulty system"
  | Error _ -> ()

(* --- the ε-tail reading of R̄ (DESIGN.md §4) --- *)

let test_weak_reading_refutes_thm83 () =
  (* L = {a,b}* with h(a) = u, h(b) = ε, and η = v (never produced by h).
     Abstractly η is not relative live (v never occurs in lim(h(L)) = u^ω),
     yet under the WEAK reading R̄(η) is relative live concretely: every
     prefix extends by the silently diverging b^ω. Under the STRONG
     reading the implication of Theorem 8.3 is restored. *)
  let ab2 = Alphabet.make [ "a"; "b" ] in
  let uv = Alphabet.make [ "u"; "v" ] in
  let ts =
    Nfa.create ~alphabet:ab2 ~states:1 ~initial:[ 0 ] ~finals:[ 0 ]
      ~transitions:[ (0, 0, 0); (0, 1, 0) ]
      ()
  in
  let hom =
    Rl_hom.Hom.create ~concrete:ab2 ~abstract:uv
      [ ("a", Some "u"); ("b", None) ]
  in
  let eta = Formula.Atom "v" in
  (* abstract side: not relative live *)
  let abstract_ts = Rl_hom.Hom.image_ts hom ts in
  Alcotest.(check bool) "no maximal words" false
    (Rl_hom.Hom.has_maximal_words abstract_ts);
  let abstract_sys = Buchi.of_transition_system abstract_ts in
  Alcotest.(check bool) "abstract RL fails" false
    (Relative.is_relative_liveness ~system:abstract_sys
       (Relative.ltl (Nfa.alphabet abstract_ts) eta)
    = Ok ());
  (* concrete side, both readings *)
  let labeling =
    Transform.epsilon_labeling ~abstract:uv (Rl_hom.Hom.apply_symbol hom)
  in
  let system = Buchi.of_transition_system ts in
  let rl_of reading =
    let rbar = Transform.rbar ~abstract:uv ~eps_tail:reading eta in
    Relative.is_relative_liveness ~system
      (Relative.Ltl { formula = rbar; labeling })
    = Ok ()
  in
  Alcotest.(check bool) "weak reading: concrete RL holds (refuting Thm 8.3)"
    true (rl_of `Weak);
  Alcotest.(check bool) "strong reading: concrete RL fails (Thm 8.3 restored)"
    false (rl_of `Strong)

(* --- Remark 1: over Σ^ω the relative notions are the absolute ones --- *)

let test_remark1 () =
  let sigma_omega = Paper.sec5_universe in
  let prop s = Relative.ltl Paper.ab (parse s) in
  let rl s =
    Relative.is_relative_liveness ~system:sigma_omega (prop s) = Ok ()
  in
  let rs s = Relative.is_relative_safety ~system:sigma_omega (prop s) = Ok () in
  (* liveness properties *)
  Alcotest.(check bool) "◇a live" true (rl "<> a");
  Alcotest.(check bool) "□◇a live" true (rl "[]<> a");
  Alcotest.(check bool) "◇a not safety" false (rs "<> a");
  (* safety properties *)
  Alcotest.(check bool) "□a safe" true (rs "[] a");
  Alcotest.(check bool) "□a not live" false (rl "[] a");
  (* neither (a ∧ ◇b is not liveness — prefix b... is doomed — and not
     safety — a·a·a... never commits to satisfying ◇b) *)
  Alcotest.(check bool) "a∧◇b not live" false (rl "a & <> b");
  Alcotest.(check bool) "a∧◇b not safe" false (rs "a & <> b");
  (* and both: true *)
  Alcotest.(check bool) "true live" true (rl "true");
  Alcotest.(check bool) "true safe" true (rs "true")

(* --- Section 5: fairness needs added state --- *)

let test_sec5_example () =
  let p = Relative.ltl Paper.ab Paper.sec5_formula in
  Alcotest.(check bool) "◇(a∧◯a) is RL of {a,b}^ω" true
    (Relative.is_relative_liveness ~system:Paper.sec5_universe p = Ok ());
  (* strong fairness over the 1-state system does not deliver it: the
     edge-covering fair cycles alternate a and b and never do aa *)
  let rng = Helpers.mk_rng 42 in
  let some_fair_violation = ref false in
  for _ = 1 to 20 do
    match Rl_fair.Fair.generate_strongly_fair rng Paper.sec5_universe with
    | None -> ()
    | Some run ->
        assert (Rl_fair.Fair.is_strongly_fair Paper.sec5_universe run);
        let x = Rl_fair.Fair.label_lasso Paper.sec5_universe run in
        if
          not
            (Semantics.satisfies ~labeling:(Semantics.canonical Paper.ab) x
               Paper.sec5_formula)
        then some_fair_violation := true
  done;
  Alcotest.(check bool) "a fair run of the 1-state system violates ◇(a∧◯a)"
    true !some_fair_violation;
  (* the Theorem 5.1 implementation fixes this *)
  let impl = Implement.construct ~system:Paper.sec5_universe p in
  (match Implement.language_preserved ~system:Paper.sec5_universe impl with
  | Ok () -> ()
  | Error w ->
      Alcotest.failf "language changed, witness %a" (Word.pp Paper.ab) w);
  let ok, generated =
    Implement.sample_fair_check (Helpers.mk_rng 7) ~samples:25 impl p
  in
  Alcotest.(check bool) "some fair runs generated" true (generated > 0);
  Alcotest.(check int) "all fair runs satisfy ◇(a∧◯a)" generated ok

let test_thm51_server () =
  let p = progress_prop server_alpha in
  let impl = Implement.construct ~system:server p in
  (match Implement.language_preserved ~system:server impl with
  | Ok () -> ()
  | Error w ->
      Alcotest.failf "language changed, witness %a" (Word.pp server_alpha) w);
  let ok, generated =
    Implement.sample_fair_check (Helpers.mk_rng 11) ~samples:25 impl p
  in
  Alcotest.(check bool) "fair runs exist" true (generated > 0);
  Alcotest.(check int) "all fair runs make progress" generated ok

(* --- edge cases --- *)

let test_edge_cases () =
  let ab2 = Alphabet.make [ "a"; "b" ] in
  (* trivial properties *)
  let universe =
    Buchi.create ~alphabet:ab2 ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
      ~transitions:[ (0, 0, 0); (0, 1, 0) ]
      ()
  in
  Alcotest.(check bool) "true is RL" true
    (Relative.is_relative_liveness ~system:universe
       (Relative.ltl ab2 Formula.True)
    = Ok ());
  Alcotest.(check bool) "false is not RL" false
    (Relative.is_relative_liveness ~system:universe
       (Relative.ltl ab2 Formula.False)
    = Ok ());
  Alcotest.(check bool) "false is relatively safe" true
    (Relative.is_relative_safety ~system:universe
       (Relative.ltl ab2 Formula.False)
    = Ok ());
  (* empty system: both relations hold vacuously *)
  let empty =
    Buchi.create ~alphabet:ab2 ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
      ~transitions:[] ()
  in
  Alcotest.(check bool) "RL over ∅" true
    (Relative.is_relative_liveness ~system:empty (Relative.ltl ab2 Formula.False)
    = Ok ());
  Alcotest.(check bool) "RS over ∅" true
    (Relative.is_relative_safety ~system:empty (Relative.ltl ab2 Formula.False)
    = Ok ());
  (* witness_extension on a word outside pre(Lω) *)
  Alcotest.(check bool) "no extension outside pre(Lω)" true
    (Relative.witness_extension ~system:empty
       (Relative.ltl ab2 Formula.True)
       (Word.of_list [ 0 ])
    = None);
  (* Auto-shaped properties go through KV complementation *)
  let p_auto = Relative.Auto universe in
  Alcotest.(check bool) "Σ^ω as automaton property is RL" true
    (Relative.is_relative_liveness ~system:universe p_auto = Ok ());
  Alcotest.(check bool) "and relatively safe" true
    (Relative.is_relative_safety ~system:universe p_auto = Ok ())

(* --- randomized properties --- *)

let abc3 = Alphabet.make [ "a"; "b"; "c" ]

let gen_system =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 5 in
    let rng = Helpers.mk_rng seed in
    return
      (Buchi.of_transition_system
         (Gen.transition_system rng ~alphabet:abc3 ~states ~branching:1.6)))

(* size-capped: these properties translate both f and ¬f, and the
   transfer properties additionally translate R̄(f) — GPVW is exponential
   in formula size *)
let gen_formula3 = Helpers.gen_formula_over ~max_size:4 [ "a"; "b"; "c" ] ~negations:true

let prop_theorem_4_7 =
  QCheck2.Test.make ~name:"Thm 4.7: sat ⟺ relative liveness ∧ relative safety"
    ~count:150
    QCheck2.Gen.(pair gen_system gen_formula3)
    (fun (system, f) ->
      let p = Relative.ltl abc3 f in
      let sat = Relative.satisfies ~system p = Ok () in
      let rl = Relative.is_relative_liveness ~system p = Ok () in
      let rs = Relative.is_relative_safety ~system p = Ok () in
      sat = (rl && rs))

let prop_machine_closure =
  QCheck2.Test.make
    ~name:"machine closure of (Lω, Lω ∩ P) ⟺ relative liveness" ~count:100
    QCheck2.Gen.(pair gen_system gen_formula3)
    (fun (system, f) ->
      let p = Relative.ltl abc3 f in
      let rl = Relative.is_relative_liveness ~system p = Ok () in
      let live_part =
        Buchi.inter system (Relative.property_buchi abc3 p)
      in
      rl = Relative.is_machine_closed ~system ~live_part ())

let prop_rl_witness_sound =
  QCheck2.Test.make ~name:"RL failure witness admits no extension" ~count:150
    QCheck2.Gen.(pair gen_system gen_formula3)
    (fun (system, f) ->
      let p = Relative.ltl abc3 f in
      match Relative.is_relative_liveness ~system p with
      | Ok () -> true
      | Error w ->
          Nfa.accepts (Buchi.pre_language system) w
          && Relative.witness_extension ~system p w = None)

let prop_rl_antichain_vs_eager =
  (* the antichain engine must agree with the eager
     determinize-both-sides check it replaced, and every doomed prefix it
     reports must replay through Certify unchanged *)
  QCheck2.Test.make
    ~name:"RL: antichain decision = eager determinization, witnesses certify"
    ~count:150
    QCheck2.Gen.(pair gen_system gen_formula3)
    (fun (system, f) ->
      let p = Relative.ltl abc3 f in
      let eager =
        let pb = Relative.property_buchi abc3 p in
        Dfa.included
          (Dfa.determinize (Buchi.pre_language system))
          (Dfa.determinize (Buchi.pre_language (Buchi.inter system pb)))
      in
      match Relative.is_relative_liveness ~system p with
      | Ok () -> eager = Ok ()
      | Error w ->
          Result.is_error eager
          && Rl_engine.Certify.doomed_prefix ~system p w = Ok ())

let prop_rl_definition_pointwise =
  (* Definition 4.1 on sampled prefixes: when RL holds, every prefix
     extends to a satisfying behavior. *)
  QCheck2.Test.make ~name:"Def 4.1 pointwise on sampled prefixes" ~count:100
    QCheck2.Gen.(
      let* s = gen_system in
      let* f = gen_formula3 in
      let* seed = 0 -- 1_000_000 in
      let* len = 0 -- 5 in
      return (s, f, seed, len))
    (fun (system, f, seed, len) ->
      let p = Relative.ltl abc3 f in
      if Relative.is_relative_liveness ~system p <> Ok () then true
      else begin
        (* random walk of length len through the system *)
        let rng = Helpers.mk_rng seed in
        let k = Alphabet.size abc3 in
        let rec walk states acc n =
          if n = 0 then List.rev acc
          else
            let moves =
              List.concat_map
                (fun q ->
                  List.concat_map
                    (fun a ->
                      List.map (fun q' -> (a, q')) (Buchi.successors system q a))
                    (List.init k Fun.id))
                states
            in
            match moves with
            | [] -> List.rev acc
            | _ ->
                let a, q = Rl_prelude.Prng.choose rng moves in
                walk [ q ] (a :: acc) (n - 1)
        in
        let w = Word.of_list (walk (Buchi.initial system) [] len) in
        Relative.witness_extension ~system p w <> None
      end)

(* Theorems 8.2/8.3 as a transfer property: whenever the pipeline reaches a
   conclusion, the direct concrete check agrees. *)
let abstract2 = Alphabet.make [ "u"; "v" ]

let gen_hom_ts =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 4 in
    let rng = Helpers.mk_rng seed in
    let ts = Gen.transition_system rng ~alphabet:abc3 ~states ~branching:1.5 in
    let* targets = array_size (return 3) (0 -- 2) in
    let mapping =
      List.mapi
        (fun i name ->
          (name, match targets.(i) with 0 -> Some "u" | 1 -> Some "v" | _ -> None))
        (Alphabet.names abc3)
    in
    let hom = Rl_hom.Hom.create ~concrete:abc3 ~abstract:abstract2 mapping in
    return (ts, hom))

let gen_formula_abs = Helpers.gen_formula_over ~max_size:3 [ "u"; "v" ] ~negations:false

let prop_transfer_8_2_8_3 =
  QCheck2.Test.make ~name:"Thms 8.2/8.3: pipeline conclusions match direct check"
    ~count:120
    QCheck2.Gen.(pair gen_hom_ts gen_formula_abs)
    (fun ((ts, hom), f) ->
      let report = Abstraction.verify ~ts ~hom ~formula:f () in
      match report.Abstraction.conclusion with
      | `Unknown -> true
      | `Concrete_holds -> Abstraction.check_concrete ~ts ~hom ~formula:f () = Ok ()
      | `Concrete_fails -> Abstraction.check_concrete ~ts ~hom ~formula:f () <> Ok ())

let prop_concrete_implies_abstract =
  (* Theorem 8.3 forward: concrete RL of R̄(η) implies abstract RL of η —
     no simplicity needed, but h(L) must lack maximal words. *)
  QCheck2.Test.make ~name:"Thm 8.3: concrete RL implies abstract RL" ~count:120
    QCheck2.Gen.(pair gen_hom_ts gen_formula_abs)
    (fun ((ts, hom), f) ->
      let report = Abstraction.verify ~ts ~hom ~formula:f () in
      if report.Abstraction.maximal_words then true
      else
        match Abstraction.check_concrete ~ts ~hom ~formula:f () with
        | Error _ -> true
        | Ok () -> report.Abstraction.abstract_verdict = Ok ())

let prop_thm51_random =
  QCheck2.Test.make ~name:"Thm 5.1 on random systems: fair runs satisfy RL properties"
    ~count:40
    QCheck2.Gen.(pair gen_system gen_formula3)
    (fun (system, f) ->
      let p = Relative.ltl abc3 f in
      if Relative.is_relative_liveness ~system p <> Ok () then true
      else begin
        let impl = Implement.construct ~system p in
        let lang_ok = Implement.language_preserved ~system impl = Ok () in
        let ok, generated =
          Implement.sample_fair_check (Helpers.mk_rng 3) ~samples:5 impl p
        in
        lang_ok && ok = generated
      end)

let prop_thm51_exact =
  (* the Streett-based decision: NO strongly fair run of the Theorem 5.1
     implementation violates the property — not just the sampled ones *)
  QCheck2.Test.make
    ~name:"Thm 5.1 exactly: no strongly fair run of the implementation violates P"
    ~count:30
    QCheck2.Gen.(pair gen_system gen_formula3)
    (fun (system, f) ->
      let p = Relative.ltl abc3 f in
      if Relative.is_relative_liveness ~system p <> Ok () then true
      else
        Implement.verify_fair_exact (Implement.construct ~system p) p = Ok ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_theorem_4_7;
      prop_machine_closure;
      prop_rl_witness_sound;
      prop_rl_antichain_vs_eager;
      prop_rl_definition_pointwise;
      prop_transfer_8_2_8_3;
      prop_concrete_implies_abstract;
      prop_thm51_random;
      prop_thm51_exact;
    ]

let () =
  Alcotest.run "core"
    [
      ( "figure-1-2",
        [
          Alcotest.test_case "fig1 reachability graph" `Quick test_fig1_reachability;
          Alcotest.test_case "fig2 classical satisfaction fails" `Quick
            test_fig2_not_satisfied;
          Alcotest.test_case "fig2 relative liveness holds" `Quick
            test_fig2_relative_liveness;
          Alcotest.test_case "fig2 density witness" `Quick test_fig2_witness_extension;
        ] );
      ( "figure-3",
        [
          Alcotest.test_case "fig3 relative liveness fails" `Quick
            test_fig3_not_relative_liveness;
          Alcotest.test_case "fig3 starvation unavoidable" `Quick
            test_fig3_starvation_unavoidable;
        ] );
      ( "figure-4",
        [
          Alcotest.test_case "abstract system" `Quick test_fig4_abstract_system;
          Alcotest.test_case "simplicity verdicts" `Quick test_fig4_simplicity;
          Alcotest.test_case "full pipeline" `Quick test_fig4_pipeline;
        ] );
      ( "section-4",
        [
          Alcotest.test_case "remark 1" `Quick test_remark1;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
        ] );
      ( "section-8",
        [
          Alcotest.test_case "ε-tail readings of R̄ (DESIGN.md §4)" `Quick
            test_weak_reading_refutes_thm83;
        ] );
      ( "section-5",
        [
          Alcotest.test_case "the {a,b}^ω example" `Quick test_sec5_example;
          Alcotest.test_case "theorem 5.1 on the server" `Quick test_thm51_server;
        ] );
      ("properties", qsuite);
    ]
