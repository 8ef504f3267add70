(* Tests for absolute safety/liveness classification and the
   Alpern–Schneider decomposition — and the cross-check of the paper's
   Remark 1: over Σ^ω, relative liveness/safety coincide with absolute
   liveness/safety. *)

open Rl_sigma
open Rl_buchi
open Rl_ltl
open Rl_core

let ab = Alphabet.make [ "a"; "b" ]
let lam = Semantics.canonical ab
let buchi_of s = Translate.to_buchi ~alphabet:ab ~labeling:lam (Parser.parse s)

let test_safety_units () =
  Alcotest.(check bool) "□a safe" true (Classify.is_safety (buchi_of "[] a"));
  Alcotest.(check bool) "◇a not safe" false (Classify.is_safety (buchi_of "<> a"));
  Alcotest.(check bool) "true safe" true (Classify.is_safety (buchi_of "true"));
  Alcotest.(check bool) "a∧◇b not safe" false
    (Classify.is_safety (buchi_of "a & <> b"))

let test_liveness_units () =
  Alcotest.(check bool) "◇a live" true (Classify.is_liveness (buchi_of "<> a"));
  Alcotest.(check bool) "□◇a live" true (Classify.is_liveness (buchi_of "[]<> a"));
  Alcotest.(check bool) "□a not live" false (Classify.is_liveness (buchi_of "[] a"));
  Alcotest.(check bool) "true live" true (Classify.is_liveness (buchi_of "true"));
  Alcotest.(check bool) "a∧◇b not live" false
    (Classify.is_liveness (buchi_of "a & <> b"))

let test_universal () =
  let u = Classify.universal_buchi ab in
  Alcotest.(check bool) "safety" true (Classify.is_safety u);
  Alcotest.(check bool) "liveness" true (Classify.is_liveness u);
  Alcotest.(check bool) "member" true
    (Buchi.member u (Lasso.of_names ab ~stem:[] ~cycle:[ "a"; "b" ]))

(* small formulas only: the safety checks go through Kupferman-Vardi
   complementation, which is exponential by design *)
let gen_formula2 = Helpers.gen_formula_over ~max_size:2 [ "a"; "b" ] ~negations:true
let gen_lasso2 = Helpers.gen_lasso ~letters:2 ~stem_max:3 ~cycle_max:3
let print_formula = Formula.to_string

let print_lasso x =
  Format.asprintf "%a·(%a)^ω" (Word.pp ab) (Lasso.stem x) (Word.pp ab)
    (Lasso.cycle x)

let prop_decompose_intersection =
  (* P = safety_part ∩ liveness_part, checked on sample lassos *)
  QCheck2.Test.make ~name:"decomposition: P = safety ∩ liveness (on lassos)"
    ~count:200 ~print:(QCheck2.Print.pair print_formula print_lasso)
    QCheck2.Gen.(pair gen_formula2 gen_lasso2)
    (fun (f, x) ->
      let b = buchi_of (Formula.to_string f) in
      (* complementation inside [liveness_part] is exponential: skip the
         rare large translations *)
      Buchi.states b > 6
      ||
      let s, l = Classify.decompose b in
      Buchi.member b x = (Buchi.member s x && Buchi.member l x))

let prop_decompose_parts_classified =
  QCheck2.Test.make ~name:"decomposition parts are safety resp. liveness"
    ~count:60 ~print:print_formula gen_formula2
    (fun f ->
      let b = buchi_of (Formula.to_string f) in
      Buchi.states b > 4
      ||
      let s, l = Classify.decompose b in
      (Buchi.states s > 5 || Classify.is_safety s)
      && Classify.is_liveness l)

let prop_remark1_liveness =
  (* Remark 1: over Σ^ω, relative liveness = absolute liveness *)
  QCheck2.Test.make ~name:"Remark 1: RL over Σ^ω = absolute liveness" ~count:80
    ~print:print_formula gen_formula2
    (fun f ->
      let b = buchi_of (Formula.to_string f) in
      let universe = Classify.universal_buchi ab in
      let rl =
        Relative.is_relative_liveness ~system:universe (Relative.ltl ab f)
        = Ok ()
      in
      rl = Classify.is_liveness b)

let prop_remark1_safety =
  QCheck2.Test.make ~name:"Remark 1: RS over Σ^ω = absolute safety" ~count:40
    ~print:print_formula gen_formula2
    (fun f ->
      let b = buchi_of (Formula.to_string f) in
      Buchi.states b > 5
      ||
      let universe = Classify.universal_buchi ab in
      let rs =
        Relative.is_relative_safety ~system:universe (Relative.ltl ab f) = Ok ()
      in
      rs = Classify.is_safety b)

(* [rlcheck decompose]'s safety leg, as the command runs it: relative
   safety over Σ^ω with the canonical labeling, under a state budget, on
   the property translated over the system's alphabet *)
let abc = Alphabet.make [ "a"; "b"; "c" ]

let decompose_safety_leg f =
  let budget = Rl_engine_kernel.Budget.create ~max_states:100_000 () in
  Result.is_ok
    (Relative.is_relative_safety ~budget
       ~system:(Classify.universal_buchi abc)
       (Relative.ltl abc f))

let prop_decompose_safety_leg =
  QCheck2.Test.make ~name:"decompose's safety leg = Classify.is_safety"
    ~count:400 ~print:print_formula
    (Helpers.gen_formula_over ~max_size:3 [ "a"; "b"; "c" ] ~negations:true)
    (fun f ->
      let b =
        Translate.to_buchi ~alphabet:abc ~labeling:(Semantics.canonical abc) f
      in
      (* the reference complements [b]: skip the rare large translations *)
      Buchi.states b > 6 || decompose_safety_leg f = Classify.is_safety b)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_decompose_intersection;
      prop_decompose_parts_classified;
      prop_remark1_liveness;
      prop_remark1_safety;
      prop_decompose_safety_leg;
    ]

let () =
  Alcotest.run "classify"
    [
      ( "units",
        [
          Alcotest.test_case "safety" `Quick test_safety_units;
          Alcotest.test_case "liveness" `Quick test_liveness_units;
          Alcotest.test_case "universal" `Quick test_universal;
        ] );
      ("properties", qsuite);
    ]
