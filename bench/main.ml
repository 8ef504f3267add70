(* Benchmark and reproduction harness.

   The paper has no measured evaluation: its "results" are the worked
   examples of Figures 1-5 and the theorems. This executable regenerates
   them and holds the bench bars that protect the engine, in sections:

   - figures: recomputes every figure's object and prints the verdict the
     paper states about it (F1-F5 in DESIGN.md), plus the checkable
     claims (Theorem 4.7 decomposition, Theorem 5.1 construction,
     Section 5 example, complementation blow-up).
   - micro: Bechamel scaling measurements for every decision procedure:
     relative-liveness decision vs. system size and formula size (the
     PSPACE upper bound of Theorem 4.5 at work), LTL→Büchi translation,
     Kupferman-Vardi complementation, simplicity checking, and the
     abstract-vs-concrete verification speedup that motivates
     Sections 6-8.
   - profile, reduction, lint, hotpath: the gated profiles
     below. Each writes BENCH_<section>.json with one host block and
     exits non-zero when one of its bars breaks.

   Run with:  dune exec bench/main.exe -- [SECTION...]   (none: all) *)

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
      && not (Rl_hom.Hom.analyze hom ts).Rl_hom.Hom.simple
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
          (Staged.stage (fun () -> ignore (Rl_hom.Hom.analyze hom ts))))
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
(* Reports, timers and failure                                          *)
(* ------------------------------------------------------------------ *)

module Budget = Rl_engine.Budget
module J = Rl_service.Jsonx
module Stats = Rl_engine_kernel.Stats

let count n = J.Num (float_of_int n)

(* an unmeasured figure (nan, or a ratio over a zero time) is null *)
let num f = if Float.is_finite f then J.Num f else J.Null

(* Every report carries the same host block; every check runs on one
   domain, so the host's core count explains no figure and is not
   recorded. *)
let write_report section fields =
  let host =
    J.Obj
      [
        ("os", J.Str Sys.os_type);
        ("ocaml", J.Str Sys.ocaml_version);
        ("word_size", count Sys.word_size);
      ]
  in
  let path = Printf.sprintf "BENCH_%s.json" section in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string (J.Obj (("host", host) :: fields)));
      output_char oc '\n');
  Printf.printf "(written to %s)\n" path

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      flush stdout;
      prerr_endline ("bench: " ^ msg);
      exit 1)
    fmt

(* [f ()] and its wall clock *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* the last of [n] runs of [f] and the best of their wall clocks *)
let best_of n f =
  let best = ref infinity and result = ref None in
  for _ = 1 to n do
    let r, dt = timed f in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* ------------------------------------------------------------------ *)
(* Part 3: resource profile                                             *)
(* ------------------------------------------------------------------ *)

(* Every case below runs under a fresh counting budget
   (Rl_engine.Budget), so the table and BENCH_profile.json report how
   many states each decision procedure actually explores — the
   observable cost behind the time/run numbers above. One case runs with
   a deliberately small state cap to record what a budget exhaustion
   looks like. *)

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
      if anti.verdict <> eager.verdict then
        fail "verdict mismatch on %s: %s vs %s" fam anti.verdict eager.verdict;
      if ratio < 10. then fail "antichain speedup below 10x on %s" fam)
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

let profile_json p =
  let opt f = function Some x -> f x | None -> J.Null in
  J.Obj
    [
      ("case", J.Str p.case);
      ("verdict", J.Str p.verdict);
      ("states_explored", count p.states_explored);
      ("max_states", opt count p.max_states);
      ("exhausted_in", opt (fun ph -> J.Str ph) p.exhausted_in);
    ]

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
  write_report "profile" [ ("cases", J.Arr (List.map profile_json profiles)) ]

(* ------------------------------------------------------------------ *)
(* Part 4: reduction on/off profile                                     *)
(* ------------------------------------------------------------------ *)

(* The preorder engine (Rl_automata.Preorder) quotients the decider
   operands by mutual direct simulation before the products and the
   antichain search, which keeps its one ⊆ subsumption rule either way.
   This profile measures what the quotients buy on families with
   deliberate simulation redundancy: each family runs the same check
   with [~reduce:true] (the shipping default) and [~reduce:false] (no
   quotients) under counting budgets. The headline metric is the deterministic
   states-explored ratio — wall clock is recorded too, but the ratio is
   what the ≥2x bar checks, so the bar arms on any machine. Verdicts must
   be identical between the two runs; a mismatch is a soundness bug and
   fails the bench. Written to BENCH_reduction.json at the repo root. *)

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
}

(* each family is (name, run): [run ~reduce ()] returns the verdict
   string and the states the budget counted; the verdict must not depend
   on [reduce] *)
let reduction_families () =
  (* witness words are canonical only per search (lex-least among its
     surviving frontier nodes, which the quotients change), so the
     on/off contract is verdict + witness length; witness validity is
     property-tested in test_preorder *)
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

let reduction_profile () =
  header "REDUCTION PROFILE (preorder quotients on vs off, states explored)";
  let rows =
    List.map
      (fun (family, run) ->
        Printf.printf "profiling %s ...\n%!" family;
        let (on_verdict, on_states), on_s = best_of 3 (run ~reduce:true) in
        let (off_verdict, off_states), off_s = best_of 3 (run ~reduce:false) in
        if not (String.equal on_verdict off_verdict) then
          fail
            "reduction verdict mismatch on %s:\n\
            \  reduce on : %s\n\
            \  reduce off: %s"
            family on_verdict off_verdict;
        {
          red_family = family;
          on_states;
          off_states;
          on_s;
          off_s;
          red_speedup = float_of_int off_states /. float_of_int (max 1 on_states);
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
  if best < 2. then
    fail "no reduction family reached the 2x states-explored bar (best %.2fx)"
      best;
  let family r =
    J.Obj
      [
        ("family", J.Str r.red_family);
        ("states_on", count r.on_states);
        ("states_off", count r.off_states);
        ("speedup", num r.red_speedup);
        ("on_s", num r.on_s);
        ("off_s", num r.off_s);
        (* a verdict mismatch failed the run above *)
        ("verdicts_equal", J.Bool true);
      ]
  in
  write_report "reduction"
    [
      ("metric", J.Str "states explored, reduce:false / reduce:true");
      ("best_speedup", num best);
      ("families", J.Arr (List.map family rows));
    ]

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
          best_of 3 (fun () -> Rl_analysis.Lint.run ~deep:false input)
        in
        let deep_diags, deep_s =
          best_of 3 (fun () -> Rl_analysis.Lint.run ~deep:true input)
        in
        let system = Buchi.of_transition_system ts in
        let p = Relative.ltl (Nfa.alphabet ts) f in
        let _, check_s =
          best_of 3 (fun () ->
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
  if worst >= 5. then
    fail "lint pre-flight exceeded the 5%% overhead bar (worst %.3f%%)" worst;
  let deep_worst_ratio =
    List.fold_left
      (fun acc r ->
        if r.lint_bar_armed then max acc (r.deep_s /. r.lint_check_s) else acc)
      0. rows
  in
  Printf.printf "deep-pass %.1fx-of-check bar: worst armed %.3fx\n"
    deep_bar_ratio deep_worst_ratio;
  if deep_worst_ratio >= deep_bar_ratio then
    fail "deep lint passes exceeded %.1fx of the check itself (worst %.3fx)"
      deep_bar_ratio deep_worst_ratio;
  let family r =
    J.Obj
      [
        ("family", J.Str r.lint_family);
        ("lint_s", num r.lint_s);
        ("check_s", num r.lint_check_s);
        ("overhead_pct", num r.lint_overhead_pct);
        ("bar_armed", J.Bool r.lint_bar_armed);
        ("diagnostics", count r.lint_diags);
      ]
  in
  let deep_family r =
    J.Obj
      [
        ("family", J.Str r.lint_family);
        ("deep_s", num r.deep_s);
        ("diagnostics", count r.deep_diags);
        ("vs_check_ratio", num (r.deep_s /. r.lint_check_s));
      ]
  in
  write_report "lint"
    [
      ("overhead_bar_pct", J.Num 5.0);
      ("check_floor_s", J.Num lint_check_floor);
      ("worst_armed_overhead_pct", num worst);
      ("families", J.Arr (List.map family rows));
      ( "deep",
        J.Obj
          [
            ("bar_vs_check_ratio", J.Num deep_bar_ratio);
            ("worst_armed_ratio", num deep_worst_ratio);
            ("families", J.Arr (List.map deep_family rows));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Part 6: antichain hot path                                           *)
(* ------------------------------------------------------------------ *)

(* Inclusion.included, serial, on a seeded corpus: the corpus is
   generated from fixed PRNG seeds, so two runs explore identical
   searches node for node. Each family's verdict (witness word included)
   and node count are pinned next to it, the way the cram suites pin
   output, and any difference fails the run: a change that explores a
   different node set or returns a different witness updates the pin on
   purpose. The allocation bar: some subset-mode family explores at
   < 1.0 steady-state minor-heap words per node, read from the
   [Rl_engine_kernel.Stats] GC deltas. The best-of-3 wall clock is
   recorded only. Written to BENCH_hotpath.json. *)

module Prng = Rl_prelude.Prng

let alphabet2 = Alphabet.make [ "a"; "b" ]

(* A random NFA over 2 symbols: every (state, symbol) cell gets 1 +
   geometric-ish extra successors, a [finals] fraction of states is
   final, state 0 is initial. Fully determined by the PRNG state. *)
let random_nfa rng ~states ~extra ~finals_every =
  let transitions = ref [] in
  for q = 0 to states - 1 do
    for a = 0 to 1 do
      transitions := (q, a, Prng.int rng states) :: !transitions;
      for _ = 1 to extra do
        if Prng.int rng 100 < 35 then
          transitions := (q, a, Prng.int rng states) :: !transitions
      done
    done
  done;
  let finals =
    List.filter (fun q -> q mod finals_every = 0) (List.init states Fun.id)
  in
  Nfa.create ~alphabet:alphabet2 ~states ~initial:[ 0 ] ~finals
    ~transitions:!transitions ()

(* B extends A with [extra_edges] additional random transitions and the
   same finals plus every state ≡ 1 (mod 5): L(A) ⊆ L(B) by
   construction, so the search must exhaust the whole antichain — the
   worst case, and the one the engine lives in when a property holds. *)
let superset_of rng a ~extra_edges =
  let states = Nfa.states a in
  let extra = ref [] in
  for _ = 1 to extra_edges do
    extra :=
      (Prng.int rng states, Prng.int rng 2, Prng.int rng states) :: !extra
  done;
  let finals =
    List.sort_uniq compare
      (Rl_prelude.Bitset.elements (Nfa.finals a)
      @ List.filter (fun q -> q mod 5 = 1) (List.init states Fun.id))
  in
  Nfa.create ~alphabet:alphabet2 ~states ~initial:(Nfa.initial a) ~finals
    ~transitions:(Nfa.transitions a @ !extra)
    ()

type family = { name : string; a : Nfa.t; b : Nfa.t }

let corpus () =
  let f1 =
    (* inclusion holds — the pure flat/arena path *)
    let rng = Prng.create 1101 in
    let a = random_nfa rng ~states:110 ~extra:2 ~finals_every:3 in
    let b = superset_of rng a ~extra_edges:55 in
    { name = "subset-holds"; a; b }
  in
  let f2 =
    (* inclusion holds; a smaller A with sparser finals *)
    let rng = Prng.create 2202 in
    let a = random_nfa rng ~states:90 ~extra:2 ~finals_every:4 in
    let b = superset_of rng a ~extra_edges:45 in
    { name = "subset-holds-90"; a; b }
  in
  let f3 =
    (* inclusion fails: B misses a final; the witness is the shortest,
       lexicographically least word of L(A) \ L(B) *)
    let rng = Prng.create 3303 in
    let a = random_nfa rng ~states:36 ~extra:2 ~finals_every:3 in
    let b = random_nfa rng ~states:24 ~extra:1 ~finals_every:7 in
    { name = "subset-witness"; a; b }
  in
  let f4 =
    (* a second ⊆ family at a different density *)
    let rng = Prng.create 4404 in
    let a = random_nfa rng ~states:150 ~extra:3 ~finals_every:3 in
    let b = superset_of rng a ~extra_edges:80 in
    { name = "subset-dense"; a; b }
  in
  [ f1; f2; f3; f4 ]

(* the pins: each family's verdict and the nodes its serial search
   explores *)
let pins =
  [
    ("subset-holds", ("included", 13818));
    ("subset-holds-90", ("included", 6279));
    ("subset-witness", ("witness:1", 4));
    ("subset-dense", ("included", 17081));
  ]

let verdict_string = function
  | Ok () -> "included"
  | Error w ->
      "witness:"
      ^ String.concat "," (List.map string_of_int (Word.to_list w))

(* An instrumented run with its minor-word delta. *)
let alloc_profile f =
  let before = Stats.snapshot () in
  f ();
  Stats.diff ~before ~after:(Stats.snapshot ())

(* the marginal minor words per node from one instrumented run to a
   larger one; nan, not 0, when the larger never outgrew the smaller: a
   family too small to measure a slope must not satisfy an allocation
   bar *)
let steady_slope ~small ~big =
  if big.Stats.nodes > small.Stats.nodes then
    (big.Stats.minor_words -. small.Stats.minor_words)
    /. float_of_int (big.Stats.nodes - small.Stats.nodes)
  else Float.nan

type row = {
  family : family;
  pin : string * int;
  nodes : int;
  verdict : string;
  wall_s : float;
  minor_words_per_node : float; (* whole run, setup included *)
  steady : float; (* marginal: setup subtracted; nan = unmeasured *)
}

let pinned r = r.pin = (r.verdict, r.nodes)

let run_family f =
  let run () = Inclusion.included f.a f.b in
  (* warmup, so the wall clock times a warm search *)
  let verdict = verdict_string (run ()) in
  let full = alloc_profile (fun () -> ignore (run ())) in
  (* the steady-state figure is the marginal allocation: a second run
     capped at a handful of nodes pays the same per-call setup
     (ε-removal, CSR and scratch construction), so the difference over
     the extra nodes is what each node costs once the engine is warm —
     the number the arena is supposed to hold at zero *)
  let capped =
    alloc_profile (fun () ->
        let budget = Budget.create ~max_states:64 () in
        try
          ignore (Inclusion.included ~budget f.a f.b)
        with Budget.Exhausted _ -> ())
  in
  let steady = steady_slope ~small:capped ~big:full in
  let _, wall_s = best_of 3 run in
  {
    family = f;
    pin = List.assoc f.name pins;
    nodes = full.Stats.nodes;
    verdict;
    wall_s;
    minor_words_per_node = Stats.minor_words_per_node full;
    steady;
  }

let hotpath () =
  header "HOT PATH (antichain inclusion, seeded corpus, serial)";
  let rows = List.map run_family (corpus ()) in
  Printf.printf "%-18s %9s %11s %8s %9s %s\n" "family" "nodes" "wall(s)"
    "mw/node" "steady" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-18s %9d %11.4f %8.3f %9.3f %s%s\n" r.family.name
        r.nodes r.wall_s r.minor_words_per_node r.steady r.verdict
        (if pinned r then ""
         else
           Printf.sprintf "  PIN MISMATCH (pinned %d nodes, %s)" (snd r.pin)
             (fst r.pin)))
    rows;
  let pins_ok = List.for_all pinned rows in
  (* the allocation bar is on the marginal (steady-state) figure: the
     whole-run average also counts the per-call setup, which is constant
     in the node count and not what the arena is meant to eliminate *)
  let alloc_ok = List.exists (fun r -> r.steady < 1.0) rows in
  let family r =
    J.Obj
      [
        ("family", J.Str r.family.name);
        ("nodes", count r.nodes);
        ("pinned_nodes", count (snd r.pin));
        ("verdict", J.Str r.verdict);
        ("pinned_verdict", J.Str (fst r.pin));
        ("wall_s", num r.wall_s);
        ("minor_words_per_node", num r.minor_words_per_node);
        ("steady_minor_words_per_node", num r.steady);
      ]
  in
  write_report "hotpath"
    [
      ( "bar",
        J.Obj
          [
            ("max_steady_minor_words_per_node", J.Num 1.0);
            ("passed", J.Bool (pins_ok && alloc_ok));
          ] );
      ("families", J.Arr (List.map family rows));
    ];
  if not pins_ok then
    fail "hot-path verdicts or node counts differ from the pins";
  if not alloc_ok then
    fail "no family ran under 1.0 steady-state minor words per node";
  print_endline
    "PASS: verdicts and node counts as pinned, steady-state allocation bar met"

(* ------------------------------------------------------------------ *)
(* Section selector                                                     *)
(* ------------------------------------------------------------------ *)

let figures () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  claim_thm_4_7 ();
  claim_thm_5_1 ();
  claim_complement_blowup ();
  claim_necessity ();
  claim_compositional ()

let sections =
  [
    ("figures", figures);
    ("micro", run_benchmarks);
    ("profile", resource_profile);
    ("reduction", reduction_profile);
    ("lint", lint_profile);
    ("hotpath", hotpath);
  ]

let () =
  let selected =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections
    | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "usage: main.exe [%s]...\n"
          (String.concat "|" (List.map fst sections));
        exit 2
      end)
    selected;
  Stats.gc_tune ();
  print_endline
    "Relative Liveness and Behavior Abstraction — reproduction harness";
  List.iter (fun name -> (List.assoc name sections) ()) selected;
  line ();
  print_endline "done."
