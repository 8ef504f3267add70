(* Benchmark and reproduction harness.

   The paper has no measured evaluation: its "results" are the worked
   examples of Figures 1-5 and the theorems. Running this executable
   therefore produces two parts:

   1. FIGURE & CLAIM REGENERATION — recomputes every figure's object and
      prints the verdict the paper states about it (F1-F5 in DESIGN.md),
      plus the checkable claims (Theorem 4.7 decomposition, Theorem 5.1
      construction, Section 5 example, complementation blow-up).

   2. MICROBENCHMARKS (Bechamel) — scaling measurements for every
      decision procedure: relative-liveness decision vs. system size and
      formula size (the PSPACE upper bound of Theorem 4.5 at work),
      LTL→Büchi translation, Kupferman-Vardi complementation, simplicity
      checking, and the abstract-vs-concrete verification speedup that
      motivates Sections 6-8.

   3. RESOURCE PROFILE — every decision procedure re-run under a fresh
      counting budget (Rl_engine.Budget), reporting states explored per
      case plus one deliberately capped run, as a table and as JSON
      (add [--json FILE] to also write the JSON to a file).

   Run with:  dune exec bench/main.exe *)

open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_ltl
open Rl_core

let line () = print_endline (String.make 72 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Part 1: figure & claim regeneration                                  *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header "F1  Figure 1: the server Petri net";
  Printf.printf "places: %d   transitions: %d   bounded: %b\n"
    (Rl_petri.Petri.num_places Paper.server_net)
    (Rl_petri.Petri.num_transitions Paper.server_net)
    (Rl_petri.Petri.is_bounded Paper.server_net)

let fig2 () =
  header "F2  Figure 2: reachability graph of the server";
  let ts = Paper.server_ts in
  let alpha = Nfa.alphabet ts in
  let system = Buchi.of_transition_system ts in
  let p = Relative.ltl alpha Paper.progress in
  Printf.printf "states: %d\n" (Nfa.states ts);
  Printf.printf "paper: □◇(result) is NOT classically satisfied\n";
  (match Relative.satisfies ~system p with
  | Ok () -> print_endline "  measured: SATISFIED  ✗ MISMATCH"
  | Error cex ->
      Format.printf "  measured: violated, counterexample %a  ✓@."
        (Lasso.pp alpha) cex);
  Printf.printf "paper: lock·(request·no·reject)^ω is a behavior violating it\n";
  let starve = Paper.starvation alpha in
  Printf.printf "  measured: behavior=%b violates=%b  %s\n"
    (Buchi.member system starve)
    (not
       (Semantics.satisfies ~labeling:(Semantics.canonical alpha) starve
          Paper.progress))
    (if Buchi.member system starve then "✓" else "✗ MISMATCH");
  Printf.printf "paper: □◇(result) IS a relative liveness property\n";
  match Relative.is_relative_liveness ~system p with
  | Ok () -> print_endline "  measured: relative liveness holds  ✓"
  | Error _ -> print_endline "  measured: fails  ✗ MISMATCH"

let fig3 () =
  header "F3  Figure 3: the faulty server";
  let ts = Paper.faulty_ts in
  let alpha = Nfa.alphabet ts in
  let system = Buchi.of_transition_system ts in
  let p = Relative.ltl alpha Paper.progress in
  Printf.printf
    "paper: no fairness notion can make □◇(result) true — not relative live\n";
  match Relative.is_relative_liveness ~system p with
  | Error w ->
      Format.printf "  measured: not relative live, doomed prefix %a  ✓@."
        (Word.pp alpha) w
  | Ok () -> print_endline "  measured: relative live  ✗ MISMATCH"

let fig4 () =
  header "F4  Figure 4: abstraction to {request, result, reject}";
  let check name ts expected_simple =
    let hom = Paper.observable_hom ts in
    let report = Abstraction.verify ~ts ~hom ~formula:Paper.progress () in
    Printf.printf "%s: %d -> %d states, abstract RL verdict: %s\n" name
      report.Abstraction.concrete_states report.Abstraction.abstract_states
      (match report.Abstraction.abstract_verdict with
      | Ok () -> "holds"
      | Error _ -> "fails");
    Printf.printf "  h simple: %b (paper: %b)  %s\n" report.Abstraction.simple
      expected_simple
      (if report.Abstraction.simple = expected_simple then "✓" else "✗ MISMATCH");
    Printf.printf "  conclusion: %s\n"
      (match report.Abstraction.conclusion with
      | `Concrete_holds -> "concrete property certified (Thm 8.2)"
      | `Concrete_fails -> "concrete property refuted (Thm 8.3)"
      | `Unknown -> "no transfer — abstract verdict untrusted");
    let direct = Abstraction.check_concrete ~ts ~hom ~formula:Paper.progress () in
    Printf.printf "  direct concrete check of R̄(η): %s\n"
      (match direct with Ok () -> "holds" | Error _ -> "fails")
  in
  check "Figure 2 system" Paper.server_ts true;
  check "Figure 3 system" Paper.faulty_ts false

let fig5 () =
  header "F5  Figure 5: the T / R̄ transformation";
  let abs = Alphabet.make [ "p"; "q" ] in
  let show s =
    let f = Parser.parse s in
    let t = Transform.t_transform ~abstract:abs f in
    let r = Transform.rbar ~abstract:abs ~eps_tail:`Strong f in
    Format.printf "  η = %-14s T(η) = %-40s R̄(η) = %a@." s
      (Formula.to_string t) Formula.pp r
  in
  List.iter show [ "p"; "X p"; "p U q"; "p R q"; "p & X q"; "[]<> p" ];
  Printf.printf
    "(Lemma 7.5 — x ⊨ R̄(η) iff h(x) ⊨ η — is property-tested in the suite)\n"

let claim_thm_4_7 () =
  header "C3  Theorem 4.7: Lω ⊆ P iff P is relative liveness AND safety";
  let ts = Paper.server_ts in
  let alpha = Nfa.alphabet ts in
  let system = Buchi.of_transition_system ts in
  Printf.printf "%-28s %6s %6s %6s %8s\n" "property" "sat" "RL" "RS" "4.7 ok";
  let all_ok = ref true in
  List.iter
    (fun s ->
      let p = Relative.ltl alpha (Parser.parse s) in
      let sat = Relative.satisfies ~system p = Ok () in
      let rl = Relative.is_relative_liveness ~system p = Ok () in
      let rs = Relative.is_relative_safety ~system p = Ok () in
      let ok = sat = (rl && rs) in
      if not ok then all_ok := false;
      Printf.printf "%-28s %6b %6b %6b %8s\n" s sat rl rs
        (if ok then "✓" else "✗"))
    [
      "[]<> result";
      "[]<> request";
      "<> result";
      "[] !result";
      "[] (request -> X (ok | no))";
      "<>[] (reject -> false)";
      "true";
      "false";
    ];
  Printf.printf "Theorem 4.7 holds on all rows: %b\n" !all_ok

let claim_thm_5_1 () =
  header "C4/C5  Theorem 5.1 and the Section 5 example";
  (* Section 5: {a,b}^ω and ◇(a ∧ ◯a) *)
  let p = Relative.ltl Paper.ab Paper.sec5_formula in
  Printf.printf "◇(a ∧ ◯a) relative live in {a,b}^ω: %b (paper: true)\n"
    (Relative.is_relative_liveness ~system:Paper.sec5_universe p = Ok ());
  let rng = Rl_prelude.Prng.create 17 in
  let violations = ref 0 and runs = ref 0 in
  for _ = 1 to 20 do
    match Rl_fair.Fair.generate_strongly_fair rng Paper.sec5_universe with
    | None -> ()
    | Some run ->
        incr runs;
        let x = Rl_fair.Fair.label_lasso Paper.sec5_universe run in
        if
          not
            (Semantics.satisfies ~labeling:(Semantics.canonical Paper.ab) x
               Paper.sec5_formula)
        then incr violations
  done;
  Printf.printf
    "fair runs of the 1-state system violating it: %d/%d (paper: fairness \
     alone is not enough)\n"
    !violations !runs;
  let impl = Implement.construct ~system:Paper.sec5_universe p in
  Printf.printf "Theorem 5.1 implementation: %d states, language preserved: %b\n"
    (Buchi.states impl.Implement.implementation)
    (Implement.language_preserved ~system:Paper.sec5_universe impl = Ok ());
  let ok, gen =
    Implement.sample_fair_check (Rl_prelude.Prng.create 23) ~samples:20 impl p
  in
  Printf.printf "fair runs of the implementation satisfying it: %d/%d\n" ok gen;
  Printf.printf
    "exact (Streett) check — every strongly fair run satisfies it: %b\n"
    (Implement.verify_fair_exact impl p = Ok ());
  (* the server too *)
  let alpha = Nfa.alphabet Paper.server_ts in
  let server = Buchi.of_transition_system Paper.server_ts in
  let sp = Relative.ltl alpha Paper.progress in
  let simpl = Implement.construct ~system:server sp in
  let sok, sgen =
    Implement.sample_fair_check (Rl_prelude.Prng.create 29) ~samples:20 simpl sp
  in
  Printf.printf
    "server: implementation %d states (system %d), language preserved: %b, \
     fair runs satisfying □◇result: %d/%d\n"
    (Buchi.states simpl.Implement.implementation)
    (Buchi.states server)
    (Implement.language_preserved ~system:server simpl = Ok ())
    sok sgen

let claim_complement_blowup () =
  header "C8  Kupferman-Vardi complementation blow-up";
  Printf.printf "%8s %12s %16s\n" "n" "comp states" "(2n+2)^n bound";
  let rng = Rl_prelude.Prng.create 5 in
  List.iter
    (fun n ->
      let transitions = ref [] in
      for q = 0 to n - 1 do
        for a = 0 to 1 do
          for q' = 0 to n - 1 do
            if Rl_prelude.Prng.float rng < 0.4 then
              transitions := (q, a, q') :: !transitions
          done
        done
      done;
      let b =
        Buchi.create ~alphabet:Paper.ab ~states:n ~initial:[ 0 ]
          ~accepting:[ n - 1 ] ~transitions:!transitions ()
      in
      let c = Complement.complement b in
      Printf.printf "%8d %12d %16.0f\n" n
        (Buchi.states c)
        (float_of_int ((2 * n) + 2) ** float_of_int n))
    [ 1; 2; 3; 4 ]

let claim_necessity () =
  header "C10  Necessity of simplicity (the conclusion's ref [20])";
  (* [20] (Nitsche–Ochsenschläger) shows simplicity is also NECESSARY for
     the preservation of relative liveness properties. We probe this
     empirically: for random systems with a NON-simple homomorphism (and
     no maximal abstract words), search a small pool of Σ'-normal
     properties for one whose abstract verdict would transfer wrongly —
     i.e. abstract relative liveness holds but the concrete R̄(η) check
     fails. *)
  let abc = Alphabet.make [ "a"; "b"; "c" ] in
  let uv = Alphabet.make [ "u"; "v" ] in
  let pool =
    List.map Parser.parse
      [
        "[]<> u"; "[]<> v"; "<> u"; "<> v"; "u"; "v"; "X u"; "X v"; "u U v";
        "v U u"; "[] u"; "[] v"; "<>[] u"; "<>[] v"; "[]<> (u & X v)";
      ]
  in
  let rng = Rl_prelude.Prng.create 71 in
  let non_simple = ref 0 in
  let witnessed = ref 0 in
  let tried = ref 0 in
  while !non_simple < 25 && !tried < 3000 do
    incr tried;
    let states = 1 + Rl_prelude.Prng.int rng 4 in
    let ts = Gen.transition_system rng ~alphabet:abc ~states ~branching:1.5 in
    let mapping =
      List.map
        (fun name ->
          ( name,
            match Rl_prelude.Prng.int rng 3 with
            | 0 -> Some "u"
            | 1 -> Some "v"
            | _ -> None ))
        (Alphabet.names abc)
    in
    let hom = Rl_hom.Hom.create ~concrete:abc ~abstract:uv mapping in
    let abstract_ts = Rl_hom.Hom.image_ts hom ts in
    if
      Nfa.states abstract_ts > 0
      && (not (Rl_hom.Hom.has_maximal_words abstract_ts))
      && not (Rl_hom.Hom.is_simple hom ts)
    then begin
      incr non_simple;
      let abstract_sys = Buchi.of_transition_system abstract_ts in
      let broken =
        List.exists
          (fun eta ->
            Relative.is_relative_liveness ~system:abstract_sys
              (Relative.ltl (Nfa.alphabet abstract_ts) eta)
            = Ok ()
            && Abstraction.check_concrete ~ts ~hom ~formula:eta () <> Ok ())
          pool
      in
      if broken then incr witnessed
    end
  done;
  Printf.printf
    "non-simple abstractions sampled: %d (from %d draws)\n\
     ... for which some property in a 15-formula pool transfers wrongly: %d\n\
     (the paper's [20] proves a witness property always exists; the pool\n\
     only contains small ones, so this is a lower bound)\n"
    !non_simple !tried !witnessed

let claim_compositional () =
  header "C9  Compositional abstraction (the conclusion's ref [22])";
  (* dining philosophers, composed from components; only eat0 observable *)
  let n_phil = 3 in
  let grab_left i = Printf.sprintf "grabL%d" i in
  let grab_right i = Printf.sprintf "grabR%d" i in
  let eat i = Printf.sprintf "eat%d" i in
  let rel_left i = Printf.sprintf "relL%d" i in
  let rel_right i = Printf.sprintf "relR%d" i in
  let philosopher i =
    let al =
      Alphabet.make [ grab_left i; grab_right i; eat i; rel_left i; rel_right i ]
    in
    let s = Alphabet.symbol al in
    Nfa.create ~alphabet:al ~states:5 ~initial:[ 0 ] ~finals:[ 0; 1; 2; 3; 4 ]
      ~transitions:
        [
          (0, s (grab_left i), 1);
          (1, s (grab_right i), 2);
          (2, s (eat i), 3);
          (3, s (rel_left i), 4);
          (4, s (rel_right i), 0);
        ]
      ()
  in
  let fork j =
    let left = j and right = (j + n_phil - 1) mod n_phil in
    let al =
      Alphabet.make
        [ grab_left left; rel_left left; grab_right right; rel_right right ]
    in
    let s = Alphabet.symbol al in
    Nfa.create ~alphabet:al ~states:3 ~initial:[ 0 ] ~finals:[ 0; 1; 2 ]
      ~transitions:
        [
          (0, s (grab_left left), 1);
          (1, s (rel_left left), 0);
          (0, s (grab_right right), 2);
          (2, s (rel_right right), 0);
        ]
      ()
  in
  let left = Rl_compose.Compose.parallel_many (List.init n_phil philosopher) in
  let right = Rl_compose.Compose.parallel_many (List.init n_phil fork) in
  let hom =
    Rl_hom.Hom.hiding
      ~concrete:(Rl_compose.Compose.union_alphabet left right)
      ~keep:[ eat 0 ]
  in
  let _, stats = Rl_compose.Compose.abstracted_parallel hom left right in
  Printf.printf
    "dining philosophers (3+3 components): abstract system %d states,\n\
     product pairs touched %d of %d (%.1f%%)\n"
    stats.Rl_compose.Compose.abstract_states
    stats.Rl_compose.Compose.product_pairs_touched
    stats.Rl_compose.Compose.product_pairs_total
    (100.
    *. float_of_int stats.Rl_compose.Compose.product_pairs_touched
    /. float_of_int stats.Rl_compose.Compose.product_pairs_total)

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks                                              *)
(* ------------------------------------------------------------------ *)

(* Mostly-deterministic random transition systems scale predictably
   through determinization, matching realistic models. *)
let semidet_ts rng ~alphabet ~states =
  let k = Alphabet.size alphabet in
  let transitions = ref [] in
  for q = 0 to states - 1 do
    let degree = 1 + Rl_prelude.Prng.int rng (min 2 k) in
    let symbols = Array.init k Fun.id in
    Rl_prelude.Prng.shuffle rng symbols;
    for i = 0 to degree - 1 do
      transitions := (q, symbols.(i), Rl_prelude.Prng.int rng states) :: !transitions
    done
  done;
  Nfa.trim
    (Nfa.create ~alphabet ~states ~initial:[ 0 ]
       ~finals:(List.init states Fun.id)
       ~transitions:!transitions ())

let abc = Alphabet.make [ "a"; "b"; "c" ]

let bench_tests () =
  let open Bechamel in
  let rng = Rl_prelude.Prng.create 113 in
  let progress = Parser.parse "[]<> a" in
  (* C2: relative-liveness decision vs system size *)
  let rl_decision =
    List.map
      (fun n ->
        let ts = semidet_ts rng ~alphabet:abc ~states:n in
        let system = Buchi.of_transition_system ts in
        let p = Relative.ltl abc progress in
        Test.make
          ~name:(Printf.sprintf "rl-decision/states=%03d" n)
          (Staged.stage (fun () ->
               ignore (Relative.is_relative_liveness ~system p))))
      [ 4; 8; 16; 32; 64 ]
  in
  (* C2: relative-liveness decision vs formula size *)
  let deep_formula depth =
    let rec go d =
      if d = 0 then "a" else Printf.sprintf "[]<> (a & X (b | %s))" (go (d - 1))
    in
    Parser.parse (go depth)
  in
  let ts8 = semidet_ts rng ~alphabet:abc ~states:8 in
  let sys8 = Buchi.of_transition_system ts8 in
  let rl_formula =
    List.map
      (fun d ->
        let p = Relative.ltl abc (deep_formula d) in
        Test.make
          ~name:(Printf.sprintf "rl-decision/formula-depth=%d" d)
          (Staged.stage (fun () ->
               ignore (Relative.is_relative_liveness ~system:sys8 p))))
      [ 0; 1; 2; 3 ]
  in
  (* LTL translation; the row name carries the automaton's size *)
  let translate =
    List.map
      (fun d ->
        let f = deep_formula d in
        let run () =
          Translate.to_buchi ~alphabet:abc ~labeling:(Semantics.canonical abc) f
        in
        let b = run () in
        let distinct = List.length (List.sort_uniq compare (Buchi.transitions b)) in
        Test.make
          ~name:
            (Printf.sprintf "ltl-to-buchi/depth=%d [%d states, %d transitions]" d
               (Buchi.states b) distinct)
          (Staged.stage (fun () -> ignore (run ()))))
      [ 0; 1; 2; 3 ]
  in
  (* C8: complementation *)
  let complement =
    List.map
      (fun n ->
        let transitions = ref [] in
        for q = 0 to n - 1 do
          for a = 0 to 1 do
            for q' = 0 to n - 1 do
              if Rl_prelude.Prng.float rng < 0.4 then
                transitions := (q, a, q') :: !transitions
            done
          done
        done;
        let b =
          Buchi.create ~alphabet:Paper.ab ~states:n ~initial:[ 0 ]
            ~accepting:[ n - 1 ] ~transitions:!transitions ()
        in
        Test.make
          ~name:(Printf.sprintf "kv-complement/states=%d" n)
          (Staged.stage (fun () -> ignore (Complement.complement b))))
      [ 1; 2; 3 ]
  in
  (* C6: simplicity decision *)
  let simplicity =
    List.map
      (fun n ->
        let ts = semidet_ts rng ~alphabet:abc ~states:n in
        let hom =
          Rl_hom.Hom.create ~concrete:abc ~abstract:(Alphabet.make [ "u" ])
            [ ("a", Some "u"); ("b", None); ("c", None) ]
        in
        Test.make
          ~name:(Printf.sprintf "simplicity/states=%03d" n)
          (Staged.stage (fun () -> ignore (Rl_hom.Hom.is_simple hom ts))))
      [ 4; 8; 16; 32 ]
  in
  (* C7: abstraction speedup: verify on the abstract system vs the direct
     concrete check of R̄(η) *)
  let pipeline stages =
    (* a chain of hidden steps ending in an observable ok/fail loop *)
    let names = [ "step"; "ok"; "fail" ] in
    let alpha = Alphabet.make names in
    let s = Alphabet.symbol alpha in
    let t = ref [] in
    for i = 0 to stages - 1 do
      t := (i, s "step", i + 1) :: !t
    done;
    t := (stages, s "ok", stages) :: (stages, s "fail", stages) :: !t;
    ( Nfa.trim
        (Nfa.create ~alphabet:alpha ~states:(stages + 1) ~initial:[ 0 ]
           ~finals:(List.init (stages + 1) Fun.id)
           ~transitions:!t ()),
      alpha )
  in
  let abstraction =
    List.concat_map
      (fun stages ->
        let ts, alpha = pipeline stages in
        let hom = Rl_hom.Hom.hiding ~concrete:alpha ~keep:[ "ok"; "fail" ] in
        let goal = Parser.parse "[]<> ok" in
        [
          (* the full pipeline: abstract system + abstract verdict +
             simplicity analysis *)
          Test.make
            ~name:(Printf.sprintf "abstraction/verify/stages=%03d" stages)
            (Staged.stage (fun () ->
                 ignore (Abstraction.verify ~ts ~hom ~formula:goal ())));
          (* only the abstract check: the work that remains once
             simplicity is known (e.g. established compositionally) *)
          Test.make
            ~name:(Printf.sprintf "abstraction/abstract-only/stages=%03d" stages)
            (Staged.stage (fun () ->
                 let abstract_ts = Rl_hom.Hom.image_ts hom ts in
                 let system = Buchi.of_transition_system abstract_ts in
                 ignore
                   (Relative.is_relative_liveness ~system
                      (Relative.ltl (Nfa.alphabet abstract_ts) goal))));
          (* the simplicity analysis alone *)
          Test.make
            ~name:(Printf.sprintf "abstraction/simplicity/stages=%03d" stages)
            (Staged.stage (fun () -> ignore (Rl_hom.Hom.analyze hom ts)));
          (* the direct concrete check the abstraction replaces *)
          Test.make
            ~name:(Printf.sprintf "abstraction/concrete/stages=%03d" stages)
            (Staged.stage (fun () ->
                 ignore (Abstraction.check_concrete ~ts ~hom ~formula:goal ())));
        ])
      [ 4; 16; 64 ]
  in
  (* Theorem 5.1 construction *)
  let thm51 =
    List.map
      (fun n ->
        let ts = semidet_ts rng ~alphabet:abc ~states:n in
        let system = Buchi.of_transition_system ts in
        let p = Relative.ltl abc progress in
        Test.make
          ~name:(Printf.sprintf "thm51-construct/states=%03d" n)
          (Staged.stage (fun () -> ignore (Implement.construct ~system p))))
      [ 4; 16; 64 ]
  in
  (* Petri net reachability *)
  let petri =
    [
      Test.make ~name:"petri-reachability/server"
        (Staged.stage (fun () ->
             ignore (Rl_petri.Petri.reachability_graph Paper.server_net)));
    ]
  in
  (* reductions *)
  let reductions =
    List.concat_map
      (fun n ->
        let ts = semidet_ts rng ~alphabet:abc ~states:n in
        let b = Buchi.of_transition_system ts in
        [
          Test.make
            ~name:(Printf.sprintf "bisim-quotient/states=%03d" n)
            (Staged.stage (fun () -> ignore (Bisim.quotient ts)));
          Test.make
            ~name:(Printf.sprintf "simulation-quotient/states=%03d" n)
            (Staged.stage (fun () -> ignore (Rl_buchi.Reduce.quotient b)));
        ])
      [ 8; 32; 128 ]
  in
  (* exact fair verification (Theorem 5.1 via Streett) *)
  let streett =
    List.map
      (fun n ->
        let ts = semidet_ts rng ~alphabet:abc ~states:n in
        let system = Buchi.of_transition_system ts in
        let p = Relative.ltl abc progress in
        let impl = Implement.construct ~system p in
        Test.make
          ~name:(Printf.sprintf "thm51-exact-streett/states=%03d" n)
          (Staged.stage (fun () -> ignore (Implement.verify_fair_exact impl p))))
      [ 4; 8; 16 ]
  in
  (* parallel composition *)
  let compose =
    List.map
      (fun n ->
        let mk i =
          let al = Alphabet.make [ Printf.sprintf "t%d" i; "sync" ] in
          Nfa.create ~alphabet:al ~states:2 ~initial:[ 0 ] ~finals:[ 0; 1 ]
            ~transitions:[ (0, 0, 0); (0, 1, 1); (1, 0, 1) ]
            ()
        in
        let components = List.init n mk in
        Test.make
          ~name:(Printf.sprintf "parallel-compose/components=%d" n)
          (Staged.stage (fun () ->
               ignore (Rl_compose.Compose.parallel_many components))))
      [ 2; 4; 6 ]
  in
  rl_decision @ rl_formula @ translate @ complement @ simplicity @ abstraction
  @ thm51 @ petri @ reductions @ streett @ compose

let run_benchmarks () =
  let open Bechamel in
  header "MICROBENCHMARKS (Bechamel; time per run)";
  let tests = bench_tests () in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.2) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"bench" tests in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with Some [ e ] -> e | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-44s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f µs" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-44s %16s\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)
(* Part 3: resource profile                                             *)
(* ------------------------------------------------------------------ *)

(* Every case below runs under a fresh counting budget
   (Rl_engine.Budget), so the table and the JSON report how many states
   each decision procedure actually explores — the observable cost behind
   the time/run numbers above. One case runs with a deliberately small
   state cap to record what a budget exhaustion looks like. *)

module Budget = Rl_engine.Budget

type profile = {
  case : string;
  verdict : string;
  states_explored : int;
  max_states : int option;
  exhausted_in : string option; (* phase, when the budget ran out *)
}

let profile_case ?max_states case run =
  let budget = Budget.create ?max_states () in
  match Rl_engine.Error.protect (fun () -> run budget) with
  | Ok verdict ->
      {
        case;
        verdict;
        states_explored = Budget.states_explored budget;
        max_states;
        exhausted_in = None;
      }
  | Error (Rl_engine.Error.Budget_exhausted e) ->
      {
        case;
        verdict = "budget_exhausted";
        states_explored = e.Budget.states_explored;
        max_states;
        exhausted_in = Some e.Budget.phase;
      }
  | Error err ->
      {
        case;
        verdict = Format.asprintf "error: %a" Rl_engine.Error.pp err;
        states_explored = Budget.states_explored budget;
        max_states;
        exhausted_in = None;
      }

(* the subset-construction blow-up family (a|b)*a(a|b)^n, 2^n DFA states *)
let blowup_ts n =
  let ab2 = Alphabet.make [ "a"; "b" ] in
  let transitions =
    (0, 0, 0) :: (0, 1, 0) :: (0, 0, 1)
    :: (n + 1, 0, n + 1)
    :: (n + 1, 1, n + 1)
    :: List.concat_map (fun i -> [ (i, 0, i + 1); (i, 1, i + 1) ])
         (List.init n (fun i -> i + 1))
  in
  Nfa.create ~alphabet:ab2 ~states:(n + 2) ~initial:[ 0 ]
    ~finals:(List.init (n + 2) Fun.id)
    ~transitions ()

(* --- the antichain-vs-eager inclusion families ---

   Two shapes where determinizing pre(Lω) eagerly costs an exponential (or
   lcm-sized) subset construction, while the on-the-fly antichain search
   either finds a shallow doomed prefix or keeps only a small frontier of
   ⊆-minimal subsets. Each family is profiled twice: through the shipping
   Relative.is_relative_liveness (antichain) and through the eager
   determinize-then-include pipeline it replaced. *)

(* ladder-doomed(n): the (a|b)*a(a|b)^n ladder with a poisoned branch —
   reading c forces a c-only sink, so []<>a is doomed after one letter,
   but the ladder still makes the eager subset construction walk 2^n
   subsets before it can compare the two prefix languages. *)
let ladder_doomed_ts n =
  let abc3 = Alphabet.make [ "a"; "b"; "c" ] in
  let d = n + 2 in
  let transitions =
    (0, 0, 0) :: (0, 1, 0) :: (0, 0, 1)
    :: (n + 1, 0, n + 1)
    :: (n + 1, 1, n + 1)
    :: (0, 2, d) :: (d, 2, d)
    :: List.concat_map (fun i -> [ (i, 0, i + 1); (i, 1, i + 1) ])
         (List.init n (fun i -> i + 1))
  in
  Nfa.create ~alphabet:abc3 ~states:(n + 3) ~initial:[ 0 ]
    ~finals:(List.init (n + 3) Fun.id)
    ~transitions ()

(* counter(ps): parallel modular counters — one t-cycle per length in ps —
   whose subset construction walks the full lcm(ps) cycle of position
   vectors; a c-edge from the counter heads to a c-only sink dooms []<>t
   immediately. *)
let counter_ts ps =
  let tc = Alphabet.make [ "t"; "c" ] in
  let total = List.fold_left ( + ) 0 ps in
  let d = total in
  let transitions = ref [ (d, 1, d) ] in
  let heads = ref [] in
  let base = ref 0 in
  List.iter
    (fun p ->
      let b = !base in
      heads := b :: !heads;
      for i = 0 to p - 1 do
        transitions := (b + i, 0, b + ((i + 1) mod p)) :: !transitions
      done;
      transitions := (b, 1, d) :: !transitions;
      base := b + p)
    ps;
  Nfa.create ~alphabet:tc ~states:(total + 1) ~initial:(List.rev !heads)
    ~finals:(List.init (total + 1) Fun.id)
    ~transitions:!transitions ()

(* the eager pipeline the antichain engine replaced, kept here as the
   baseline: determinize both prefix languages, then compare the DFAs *)
let eager_rl budget system p =
  let pb = Relative.property_buchi ~budget (Buchi.alphabet system) p in
  let pre_l =
    Budget.with_phase budget "determinize pre(Lω)" (fun () ->
        Dfa.determinize ~budget (Buchi.pre_language ~budget system))
  in
  let pre_lp =
    Budget.with_phase budget "determinize pre(Lω ∩ P)" (fun () ->
        Dfa.determinize ~budget
          (Buchi.pre_language ~budget (Buchi.inter ~budget system pb)))
  in
  Budget.with_phase budget "prefix-language inclusion" (fun () ->
      Dfa.included ~budget pre_l pre_lp)

(* verdicts double as certification evidence: every counterexample prefix
   is replayed through Certify before it is reported *)
let certified_verdict ~system p = function
  | Ok () -> "holds"
  | Error w -> (
      match Rl_engine.Certify.doomed_prefix ~system p w with
      | Ok () -> "fails+certified"
      | Error _ -> "fails+UNCERTIFIED")

let inclusion_families =
  [
    ("ladder-doomed-14", `Ladder_doomed 14, "[]<> a");
    ("ladder-equal-12", `Ladder_equal 12, "true");
    ("counter-30030", `Counter [ 2; 3; 5; 7; 11; 13 ], "[]<> t");
  ]

let family_ts = function
  | `Ladder_doomed n -> ladder_doomed_ts n
  | `Ladder_equal n -> blowup_ts n
  | `Counter ps -> counter_ts ps

let inclusion_family_cases () =
  List.concat_map
    (fun (name, shape, formula) ->
      let ts = family_ts shape in
      let p = Relative.ltl (Nfa.alphabet ts) (Parser.parse formula) in
      let system = Buchi.of_transition_system ts in
      [
        profile_case ~max_states:500_000
          ("rl-antichain/" ^ name)
          (fun budget ->
            certified_verdict ~system p
              (Relative.is_relative_liveness ~budget ~system p));
        profile_case ~max_states:500_000 ("rl-eager/" ^ name) (fun budget ->
            certified_verdict ~system p (eager_rl budget system p));
      ])
    inclusion_families

(* smaller members of the same families, cross-checked against
   Theorem 4.7: sat ⟺ relative liveness ∧ relative safety *)
let crosscheck_cases () =
  List.map
    (fun (name, shape, formula) ->
      let ts = family_ts shape in
      let p = Relative.ltl (Nfa.alphabet ts) (Parser.parse formula) in
      let system = Buchi.of_transition_system ts in
      profile_case ("crosscheck-4.7/" ^ name) (fun budget ->
          let t = Rl_engine.Certify.verdict_triple ~budget ~system p in
          match Rl_engine.Certify.check_triple t with
          | Ok () ->
              Printf.sprintf "consistent sat=%b rl=%b rs=%b"
                t.Rl_engine.Certify.sat t.Rl_engine.Certify.rl
                t.Rl_engine.Certify.rs
          | Error _ -> "INCONSISTENT"))
    [
      ("ladder-doomed-8", `Ladder_doomed 8, "[]<> a");
      ("ladder-equal-8", `Ladder_equal 8, "true");
      ("counter-30", `Counter [ 2; 3; 5 ], "[]<> t");
    ]

(* the ≥10× acceptance bar is deterministic (states explored, not time),
   so enforce it: a regression that drags the antichain path back toward
   eager determinization fails the bench run *)
let check_speedups profiles =
  let find c = List.find (fun p -> p.case = c) profiles in
  List.iter
    (fun (fam, _, _) ->
      let anti = find ("rl-antichain/" ^ fam) in
      let eager = find ("rl-eager/" ^ fam) in
      let ratio =
        float_of_int eager.states_explored
        /. float_of_int (max 1 anti.states_explored)
      in
      Printf.printf
        "%-20s antichain %6d vs eager %6d states explored — %5.1fx fewer\n"
        fam anti.states_explored eager.states_explored ratio;
      if anti.verdict <> eager.verdict then begin
        Printf.eprintf "bench: verdict mismatch on %s: %s vs %s\n" fam
          anti.verdict eager.verdict;
        exit 1
      end;
      if ratio < 10. then begin
        Printf.eprintf "bench: antichain speedup below 10x on %s\n" fam;
        exit 1
      end)
    inclusion_families

let profile_cases () =
  let verdict_of = function Ok () -> "holds" | Error _ -> "fails" in
  let alpha = Nfa.alphabet Paper.server_ts in
  let server = Buchi.of_transition_system Paper.server_ts in
  let progress = Relative.ltl alpha Paper.progress in
  let rng = Rl_prelude.Prng.create 113 in
  let semidet32 =
    Buchi.of_transition_system (semidet_ts rng ~alphabet:abc ~states:32)
  in
  let p32 = Relative.ltl abc (Parser.parse "[]<> a") in
  [
    profile_case "sat/server-progress" (fun budget ->
        verdict_of (Relative.satisfies ~budget ~system:server progress));
    profile_case "rl/server-progress" (fun budget ->
        verdict_of
          (Relative.is_relative_liveness ~budget ~system:server progress));
    profile_case "rs/server-progress" (fun budget ->
        verdict_of (Relative.is_relative_safety ~budget ~system:server progress));
    profile_case "rl/semidet-32" (fun budget ->
        verdict_of (Relative.is_relative_liveness ~budget ~system:semidet32 p32));
    profile_case "abstraction/server" (fun budget ->
        let report =
          Abstraction.verify ~budget ~ts:Paper.server_ts
            ~hom:(Paper.observable_hom Paper.server_ts)
            ~formula:Paper.progress ()
        in
        match report.Abstraction.conclusion with
        | `Concrete_holds -> "concrete_holds"
        | `Concrete_fails -> "concrete_fails"
        | `Unknown -> "unknown");
    profile_case "petri/server-reachability" (fun budget ->
        let graph, _ = Rl_petri.Petri.reachability_graph ~budget Paper.server_net in
        Printf.sprintf "completed (%d markings)" (Nfa.states graph));
    profile_case ~max_states:1000 "rl/blowup-14-capped" (fun budget ->
        let system = Buchi.of_transition_system (blowup_ts 14) in
        verdict_of
          (Relative.is_relative_liveness ~budget ~system
             (Relative.ltl (Alphabet.make [ "a"; "b" ]) (Parser.parse "[]<> a"))));
  ]
  @ inclusion_family_cases ()
  @ crosscheck_cases ()

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every report carries the same host block: wall-clock and speedup
   figures are meaningless without knowing how many cores produced them. *)
let host_cores = Domain.recommended_domain_count ()

let host_json () =
  Printf.sprintf
    "{\"cores\": %d, \"os\": \"%s\", \"ocaml\": \"%s\", \"single_core\": %b}"
    host_cores (json_escape Sys.os_type)
    (json_escape Sys.ocaml_version)
    (host_cores < 2)

let host_caveat () =
  if host_cores < 2 then
    Printf.printf
      "NOTE: single-core host — worker domains only time-slice one core, so \
       the work-stealing scaling campaign measures overhead, not speedup.\n"

let profile_json profiles =
  let record p =
    Printf.sprintf
      "  {\"case\": \"%s\", \"verdict\": \"%s\", \"states_explored\": %d, \
       \"max_states\": %s, \"exhausted_in\": %s}"
      (json_escape p.case) (json_escape p.verdict) p.states_explored
      (match p.max_states with Some n -> string_of_int n | None -> "null")
      (match p.exhausted_in with
      | Some ph -> Printf.sprintf "\"%s\"" (json_escape ph)
      | None -> "null")
  in
  Printf.sprintf "{\n  \"host\": %s,\n  \"cases\": [\n%s\n  ]\n}\n"
    (host_json ())
    (String.concat ",\n" (List.map record profiles))

let resource_profile () =
  header "RESOURCE PROFILE (states explored per check, Rl_engine.Budget)";
  let profiles = profile_cases () in
  Printf.printf "%-28s %-20s %10s %10s\n" "case" "verdict" "explored" "cap";
  List.iter
    (fun p ->
      Printf.printf "%-28s %-20s %10d %10s%s\n" p.case p.verdict
        p.states_explored
        (match p.max_states with Some n -> string_of_int n | None -> "-")
        (match p.exhausted_in with
        | Some ph -> Printf.sprintf "  (ran out in %s)" ph
        | None -> ""))
    profiles;
  print_newline ();
  check_speedups profiles;
  let json = profile_json profiles in
  print_newline ();
  print_string json;
  (* `bench/main.exe --json FILE` also writes the report to FILE *)
  let rec find_json_arg = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> find_json_arg rest
    | [] -> None
  in
  match find_json_arg (Array.to_list Sys.argv) with
  | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc json);
      Printf.printf "(written to %s)\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Part 4: reduction on/off profile                                     *)
(* ------------------------------------------------------------------ *)

(* The preorder engine (Rl_automata.Preorder) quotients every decider
   operand by mutual direct simulation and upgrades the antichain to
   simulation-based subsumption. This profile measures what that buys on
   families with deliberate simulation redundancy: each family runs the
   same check with [~reduce:true] (the shipping default) and
   [~reduce:false] (the PR-3 engine: no quotients, plain ⊆-subsumption)
   under counting budgets. The headline metric is the deterministic
   states-explored ratio — wall clock is recorded too, but the ratio is
   what the ≥2x bar checks, so the bar arms on any machine. Verdicts must
   be identical between the two runs; a mismatch is a soundness bug and
   fails the bench. Written to BENCH_reduction.json at the repo root. *)

(* wall clock of [f], best of three; the last run's result *)
let best_wall f =
  let best = ref infinity and result = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* [dup_ts k ts]: replace every state by [k] interchangeable copies (each
   copy keeps edges to every copy of each successor). The result is
   mutually simulation-equivalent to [ts] copy-wise — the quotient
   collapses it right back — but the unreduced decider must drag the
   k-fold state space and its k-fold antichain sets through every
   product. *)
let dup_ts k ts =
  let n = Nfa.states ts in
  let transitions =
    List.concat_map
      (fun (q, a, q') ->
        List.concat_map
          (fun i -> List.map (fun j -> ((q * k) + i, a, (q' * k) + j)) (List.init k Fun.id))
          (List.init k Fun.id))
      (Nfa.transitions ts)
  in
  Nfa.create ~alphabet:(Nfa.alphabet ts) ~states:(n * k)
    ~initial:(List.concat_map (fun q -> List.init k (fun i -> (q * k) + i)) (Nfa.initial ts))
    ~finals:(List.init (n * k) Fun.id)
    ~transitions ()

type red_row = {
  red_family : string;
  on_states : int; (* states explored, reduce:true *)
  off_states : int; (* states explored, reduce:false *)
  on_s : float;
  off_s : float;
  red_speedup : float; (* off_states / on_states *)
  red_verdicts_equal : bool;
}

(* each family is (name, run): [run ~reduce ()] returns the verdict
   string and the states the budget counted; the verdict must not depend
   on [reduce] *)
let reduction_families () =
  (* witness words are canonical only per engine (lex-least among that
     engine's surviving frontier nodes), so the cross-engine contract is
     verdict + witness length; witness validity is property-tested in
     test_preorder *)
  let mk_family ~translate check name ts formula =
    let p = Relative.ltl (Nfa.alphabet ts) (Parser.parse formula) in
    let system = Buchi.of_transition_system ts in
    (* the property's translation does not depend on [reduce]: its ticks
       are left out, so the ratio counts what the reduction changes *)
    let tableau =
      let budget = Rl_engine.Budget.create () in
      translate ~budget (Buchi.alphabet system) p;
      Rl_engine.Budget.states_explored budget
    in
    let run ~reduce () =
      let budget = Rl_engine.Budget.create () in
      let v = check ~budget ~reduce ~system p in
      (v, Rl_engine.Budget.states_explored budget - tableau)
    in
    (name, run)
  in
  let rl_family name ts formula =
    mk_family
      ~translate:(fun ~budget a p -> ignore (Relative.property_buchi ~budget a p))
      (fun ~budget ~reduce ~system p ->
        match Relative.is_relative_liveness ~budget ~reduce ~system p with
        | Ok () -> "holds"
        | Error w ->
            Printf.sprintf "fails, doomed prefix of length %d" (Word.length w))
      name ts formula
  in
  let rs_family name ts formula =
    mk_family
      ~translate:(fun ~budget a p ->
        ignore (Relative.property_buchi ~budget a p);
        ignore (Relative.property_neg_buchi ~budget a p))
      (fun ~budget ~reduce ~system p ->
        match Relative.is_relative_safety ~budget ~reduce ~system p with
        | Ok () -> "holds"
        | Error l ->
            Printf.sprintf "fails, redeemable violation (spoke %d, period %d)"
              (Lasso.spoke l) (Lasso.period l))
      name ts formula
  in
  [
    (* modular counters with every state tripled: the quotient collapses
       the copies before the lcm-cycle walk *)
    rl_family "antichain/counter-dup3"
      (dup_ts 3 (counter_ts [ 2; 3; 5 ]))
      "[]<>t";
    (* the subset-construction ladder with doubled states *)
    rl_family "antichain/ladder-dup2"
      (dup_ts 2 (blowup_ts 8))
      "[]<> (a & X (b & X a))";
    (* relative safety runs the property negation through Kupferman–Vardi
       complementation: the quotient shrinks the complementation input *)
    rs_family "complement/rs-dup2" (dup_ts 2 (counter_ts [ 2; 3 ])) "[]t";
  ]

let reduction_json ~best rows =
  let record r =
    Printf.sprintf
      "    {\"family\": \"%s\", \"states_on\": %d, \"states_off\": %d, \
       \"speedup\": %.3f, \"on_s\": %.6f, \"off_s\": %.6f, \
       \"verdicts_equal\": %b}"
      (json_escape r.red_family) r.on_states r.off_states r.red_speedup r.on_s
      r.off_s r.red_verdicts_equal
  in
  Printf.sprintf
    "{\n\
    \  \"host\": %s,\n\
    \  \"metric\": \"states explored, reduce:false / reduce:true\",\n\
    \  \"best_speedup\": %.3f,\n\
    \  \"families\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (host_json ())
    best
    (String.concat ",\n" (List.map record rows))

let reduction_profile () =
  header "REDUCTION PROFILE (preorder quotients on vs off, states explored)";
  let rows =
    List.map
      (fun (family, run) ->
        Printf.printf "profiling %s ...\n%!" family;
        let (on_verdict, on_states), on_s = best_wall (run ~reduce:true) in
        let (off_verdict, off_states), off_s = best_wall (run ~reduce:false) in
        if not (String.equal on_verdict off_verdict) then begin
          Printf.eprintf
            "bench: reduction verdict mismatch on %s:\n\
            \  reduce on : %s\n\
            \  reduce off: %s\n"
            family on_verdict off_verdict;
          exit 1
        end;
        {
          red_family = family;
          on_states;
          off_states;
          on_s;
          off_s;
          red_speedup = float_of_int off_states /. float_of_int (max 1 on_states);
          red_verdicts_equal = true;
        })
      (reduction_families ())
  in
  Printf.printf "%-28s %12s %12s %9s\n" "family" "states(on)" "states(off)"
    "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-28s %12d %12d %8.2fx   (%.4f s vs %.4f s)\n"
        r.red_family r.on_states r.off_states r.red_speedup r.on_s r.off_s)
    rows;
  let best = List.fold_left (fun acc r -> max acc r.red_speedup) 0. rows in
  Printf.printf "≥2x states-explored bar: best %.2fx\n" best;
  if best < 2. then begin
    Printf.eprintf
      "bench: no reduction family reached the 2x states-explored bar (best \
       %.2fx)\n"
      best;
    exit 1
  end;
  let json = reduction_json ~best rows in
  Out_channel.with_open_text "BENCH_reduction.json" (fun oc ->
      output_string oc json);
  Printf.printf "(written to BENCH_reduction.json)\n"

(* ------------------------------------------------------------------ *)
(* Part 5: lint pre-flight overhead profile                             *)
(* ------------------------------------------------------------------ *)

(* Every rlcheck decider now runs the shallow Rl_analysis.Lint passes as
   a pre-flight phase. This profile measures what that costs relative to
   the end-to-end `rlcheck rl` wall time on the antichain families: the
   <5% bar arms per family only when the check itself takes ≥ 0.05 s
   (below that the ratio is timer noise); faster families are still
   measured and recorded honestly. Written to BENCH_lint.json at the
   repo root. *)

type lint_row = {
  lint_family : string;
  lint_s : float;
  lint_check_s : float;
  lint_overhead_pct : float;
  lint_bar_armed : bool;
  lint_diags : int;
  (* the opt-in RL5xx fixpoint passes, timed on the same family. They
     never run in the pre-flight (the <5% bar above is shallow-only);
     this records what `rlcheck lint` pays for the full semantic report,
     so a regression in the dataflow engine shows up in review. *)
  deep_s : float;
  deep_diags : int;
}

let lint_check_floor = 0.05

(* the deep passes are polynomial fixpoints while the checks they inform
   are exponential searches, so on any family slow enough to measure the
   full `rlcheck lint` report must cost at most twice the check itself *)
let deep_bar_ratio = 2.0

let lint_families () =
  [
    ("lint/ladder-12", blowup_ts 12, "[]<> (a & X (b & X a))");
    ("lint/ladder-doomed-12", ladder_doomed_ts 12, "[]<> (a & X (b & X a))");
    ("lint/counter-4290", counter_ts [ 2; 3; 5; 11; 13 ], "true");
  ]

let lint_json ~worst ~deep_worst_ratio rows =
  let record r =
    Printf.sprintf
      "    {\"family\": \"%s\", \"lint_s\": %.6f, \"check_s\": %.6f, \
       \"overhead_pct\": %.3f, \"bar_armed\": %b, \"diagnostics\": %d}"
      (json_escape r.lint_family) r.lint_s r.lint_check_s
      r.lint_overhead_pct r.lint_bar_armed r.lint_diags
  in
  let deep_record r =
    Printf.sprintf
      "    {\"family\": \"%s\", \"deep_s\": %.6f, \"diagnostics\": %d, \
       \"vs_check_ratio\": %.3f}"
      (json_escape r.lint_family) r.deep_s r.deep_diags
      (r.deep_s /. r.lint_check_s)
  in
  Printf.sprintf
    "{\n\
    \  \"host\": %s,\n\
    \  \"overhead_bar_pct\": 5.0,\n\
    \  \"check_floor_s\": %.3f,\n\
    \  \"worst_armed_overhead_pct\": %.3f,\n\
    \  \"families\": [\n\
     %s\n\
    \  ],\n\
    \  \"deep\": {\n\
    \    \"bar_vs_check_ratio\": %.1f,\n\
    \    \"worst_armed_ratio\": %.3f,\n\
    \    \"families\": [\n\
     %s\n\
    \    ]\n\
    \  }\n\
     }\n"
    (host_json ()) lint_check_floor worst
    (String.concat ",\n" (List.map record rows))
    deep_bar_ratio deep_worst_ratio
    (String.concat ",\n" (List.map deep_record rows))

let lint_profile () =
  header "LINT PROFILE (pre-flight overhead vs end-to-end rl check)";
  let rows =
    List.map
      (fun (name, ts, formula) ->
        Printf.printf "timing %s ...\n%!" name;
        let f = Parser.parse formula in
        let input =
          {
            Rl_analysis.Lint.empty with
            system = Some ts;
            formula = Some f;
          }
        in
        let diags, lint_s =
          best_wall (fun () -> Rl_analysis.Lint.run ~deep:false input)
        in
        let deep_diags, deep_s =
          best_wall (fun () -> Rl_analysis.Lint.run ~deep:true input)
        in
        let system = Buchi.of_transition_system ts in
        let p = Relative.ltl (Nfa.alphabet ts) f in
        let _, check_s =
          best_wall (fun () ->
              ignore (Relative.is_relative_liveness ~system p))
        in
        let overhead = 100. *. lint_s /. check_s in
        let armed = check_s >= lint_check_floor in
        Printf.printf
          "  lint %.6f s, deep %.6f s, check %.6f s → %.3f%% (%s)\n%!" lint_s
          deep_s check_s overhead
          (if armed then "bar armed" else "recorded only");
        {
          lint_family = name;
          lint_s;
          lint_check_s = check_s;
          lint_overhead_pct = overhead;
          lint_bar_armed = armed;
          lint_diags = List.length diags;
          deep_s;
          deep_diags = List.length deep_diags;
        })
      (lint_families ())
  in
  let worst =
    List.fold_left
      (fun acc r -> if r.lint_bar_armed then max acc r.lint_overhead_pct else acc)
      0. rows
  in
  Printf.printf "<5%% pre-flight overhead bar: worst armed %.3f%%\n" worst;
  if worst >= 5. then begin
    Printf.eprintf
      "bench: lint pre-flight exceeded the 5%% overhead bar (worst %.3f%%)\n"
      worst;
    exit 1
  end;
  let deep_worst_ratio =
    List.fold_left
      (fun acc r ->
        if r.lint_bar_armed then max acc (r.deep_s /. r.lint_check_s) else acc)
      0. rows
  in
  Printf.printf "deep-pass %.1fx-of-check bar: worst armed %.3fx\n"
    deep_bar_ratio deep_worst_ratio;
  if deep_worst_ratio >= deep_bar_ratio then begin
    Printf.eprintf
      "bench: deep lint passes exceeded %.1fx of the check itself (worst \
       %.3fx)\n"
      deep_bar_ratio deep_worst_ratio;
    exit 1
  end;
  let json = lint_json ~worst ~deep_worst_ratio rows in
  Out_channel.with_open_text "BENCH_lint.json" (fun oc -> output_string oc json);
  Printf.printf "(written to BENCH_lint.json)\n"

(* ------------------------------------------------------------------ *)
(* Part 6: incremental re-check profile                                 *)
(* ------------------------------------------------------------------ *)

(* The daemon's incremental re-check, measured end to end through the
   Request layer: the first check of a model pays the full decide; a
   byte-identical resubmission and an edit confined to the unreachable
   region replay the memoized outcome; a reachable edit re-decides from
   scratch. Two bars are enforced, both deterministic: every reply a
   warm cache produces must equal the from-scratch reply for the same
   source (verdict soundness), and the memo must actually have engaged
   on the two no-op resubmissions (counter check). The timings are
   recorded honestly but carry no bar — the replay legs are too fast
   for a stable ratio on small hosts. Written to BENCH_recheck.json at
   the repo root. *)

module Request = Rl_service.Request

type recheck_row = {
  rc_family : string;
  rc_cold_s : float;
  rc_resubmit_s : float;
  rc_equivalent_s : float;
  rc_edited_s : float;
  rc_memo_hits : int;
  rc_decides : int;
  rc_verdicts_equal : bool;
}

let recheck_families () =
  [
    ("recheck/ladder-10", blowup_ts 10, "[]<> (a & X (b & X a))");
    ("recheck/ladder-doomed-10", ladder_doomed_ts 10, "[]<> (a & X (b & X a))");
    ("recheck/counter-30", counter_ts [ 2; 3; 5 ], "[]<> a");
  ]

let recheck_json rows =
  let record r =
    Printf.sprintf
      "    {\"family\": \"%s\", \"cold_s\": %.6f, \"resubmit_s\": %.6f, \
       \"equivalent_edit_s\": %.6f, \"reachable_edit_s\": %.6f, \
       \"memo_hits\": %d, \"decides\": %d, \"verdicts_equal\": %b}"
      (json_escape r.rc_family) r.rc_cold_s r.rc_resubmit_s r.rc_equivalent_s
      r.rc_edited_s r.rc_memo_hits r.rc_decides r.rc_verdicts_equal
  in
  Printf.sprintf
    "{\n\
    \  \"host\": %s,\n\
    \  \"families\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (host_json ())
    (String.concat ",\n" (List.map record rows))

let recheck_profile () =
  header "INCREMENTAL RE-CHECK PROFILE (warm cache vs from-scratch)";
  let reply_key (r : Request.reply) =
    (r.Request.message, r.Request.witness, Request.exit_code r)
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows =
    List.map
      (fun (name, ts, formula) ->
        Printf.printf "timing %s ...\n%!" name;
        let text = Ts_format.print_ts ts in
        let lbl = List.hd (Alphabet.names (Nfa.alphabet ts)) in
        (* an edit the trim discards entirely, and one it cannot *)
        let equivalent_text =
          Printf.sprintf "%s900 %s 901\n901 %s 900\n" text lbl lbl
        in
        let edited_text =
          Printf.sprintf "%s0 %s 900\n900 %s 0\n" text lbl lbl
        in
        let job t =
          Request.job ~no_lint:true Request.Rl
            (Request.Inline { name; text = t })
            formula
        in
        let cache = Request.cache ~capacity:16 () in
        let cold, cold_s = timed (fun () -> Request.run ~cache (job text)) in
        let resub, resub_s =
          timed (fun () -> Request.run ~cache (job text))
        in
        let equiv, equiv_s =
          timed (fun () -> Request.run ~cache (job equivalent_text))
        in
        let edited, edited_s =
          timed (fun () -> Request.run ~cache (job edited_text))
        in
        let scratch t = Request.run (job t) in
        let verdicts_equal =
          reply_key cold = reply_key (scratch text)
          && reply_key resub = reply_key cold
          && reply_key equiv = reply_key (scratch equivalent_text)
          && reply_key edited = reply_key (scratch edited_text)
        in
        let s = Request.stats cache in
        Printf.printf
          "  cold %.6f s, resubmit %.6f s, equivalent edit %.6f s, \
           reachable edit %.6f s (%d memo hits, %d decides)\n%!"
          cold_s resub_s equiv_s edited_s s.Request.decide.hits
          s.Request.decides;
        {
          rc_family = name;
          rc_cold_s = cold_s;
          rc_resubmit_s = resub_s;
          rc_equivalent_s = equiv_s;
          rc_edited_s = edited_s;
          rc_memo_hits = s.Request.decide.hits;
          rc_decides = s.Request.decides;
          rc_verdicts_equal = verdicts_equal;
        })
      (recheck_families ())
  in
  let bad_verdict = List.exists (fun r -> not r.rc_verdicts_equal) rows in
  let memo_idle = List.exists (fun r -> r.rc_memo_hits < 2) rows in
  if bad_verdict then begin
    Printf.eprintf
      "bench: incremental re-check verdicts diverged from from-scratch runs\n";
    exit 1
  end;
  if memo_idle then begin
    Printf.eprintf
      "bench: the outcome memo never engaged on a no-op resubmission\n";
    exit 1
  end;
  print_endline
    "verdict equality incremental = from-scratch: all families; memo engaged";
  let json = recheck_json rows in
  Out_channel.with_open_text "BENCH_recheck.json" (fun oc ->
      output_string oc json);
  Printf.printf "(written to BENCH_recheck.json)\n"

let () =
  print_endline
    "Relative Liveness and Behavior Abstraction — reproduction harness";
  host_caveat ();
  (* `--only-profile` skips the figures and the timed microbenchmarks and
     runs just the deterministic resource profile — what CI smoke-checks *)
  let only_profile =
    Array.exists (String.equal "--only-profile") Sys.argv
  in
  (* `--only-reduction` runs just the preorder-quotient on/off profile *)
  let only_reduction =
    Array.exists (String.equal "--only-reduction") Sys.argv
  in
  if only_reduction then begin
    reduction_profile ();
    line ();
    print_endline "done.";
    exit 0
  end;
  (* `--only-lint` runs just the lint pre-flight overhead profile *)
  let only_lint = Array.exists (String.equal "--only-lint") Sys.argv in
  if only_lint then begin
    lint_profile ();
    line ();
    print_endline "done.";
    exit 0
  end;
  (* `--only-recheck` runs just the incremental re-check profile *)
  let only_recheck = Array.exists (String.equal "--only-recheck") Sys.argv in
  if only_recheck then begin
    recheck_profile ();
    line ();
    print_endline "done.";
    exit 0
  end;
  if not only_profile then begin
    fig1 ();
    fig2 ();
    fig3 ();
    fig4 ();
    fig5 ();
    claim_thm_4_7 ();
    claim_thm_5_1 ();
    claim_complement_blowup ();
    claim_necessity ();
    claim_compositional ();
    run_benchmarks ()
  end;
  resource_profile ();
  reduction_profile ();
  lint_profile ();
  recheck_profile ();
  line ();
  print_endline "done."
