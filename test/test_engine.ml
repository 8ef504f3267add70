(* The resource-governed engine: budgets, typed errors and certified
   witnesses (Rl_engine / Rl_engine_kernel). *)

open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_core
module Budget = Rl_engine.Budget
module Error = Rl_engine.Error
module Certify = Rl_engine.Certify

(* --- Budget --- *)

let test_budget_states () =
  let b = Budget.create ~max_states:10 () in
  Alcotest.(check bool) "limited" true (Budget.is_limited b);
  Alcotest.(check bool) "unlimited is not" false (Budget.is_limited Budget.unlimited);
  for _ = 1 to 10 do
    Budget.tick b
  done;
  Alcotest.(check int) "10 states explored" 10 (Budget.states_explored b);
  Budget.set_phase b "the hot loop";
  match Budget.tick b with
  | () -> Alcotest.fail "11th tick should exhaust"
  | exception Budget.Exhausted e ->
      Alcotest.(check string) "phase recorded" "the hot loop" e.Budget.phase;
      Alcotest.(check int) "work recorded" 11 e.Budget.states_explored;
      Alcotest.(check bool) "states resource" true (e.Budget.resource = `States);
      Alcotest.(check (option int)) "limit recorded" (Some 10) e.Budget.max_states

let test_budget_charge () =
  let b = Budget.create ~max_states:100 () in
  Budget.charge b 60;
  Budget.charge b 0;
  Alcotest.(check int) "bulk work counted" 60 (Budget.states_explored b);
  match Budget.charge b 50 with
  | () -> Alcotest.fail "charge past the limit should exhaust"
  | exception Budget.Exhausted e ->
      Alcotest.(check int) "overshoot recorded" 110 e.Budget.states_explored

(* The counter starts at 0, so a negative limit is crossed by the first
   call, which must publish (and raise) rather than wait for a crossing
   that never comes. *)
let test_budget_negative_limit () =
  let b = Budget.create ~max_states:(-1) () in
  (match Budget.tick b with
  | () -> Alcotest.fail "first tick past a negative limit should exhaust"
  | exception Budget.Exhausted e ->
      Alcotest.(check int) "first tick recorded" 1 e.Budget.states_explored);
  (match Budget.tick b with
  | () -> Alcotest.fail "later ticks re-raise"
  | exception Budget.Exhausted e ->
      Alcotest.(check int) "same record" 1 e.Budget.states_explored);
  let b = Budget.create ~max_states:(-5) () in
  match Budget.charge b 3 with
  | () -> Alcotest.fail "first charge past a negative limit should exhaust"
  | exception Budget.Exhausted e ->
      Alcotest.(check int) "first charge recorded" 3 e.Budget.states_explored

let test_budget_phase () =
  let b = Budget.create ~max_states:5 () in
  Budget.set_phase b "outer";
  let r = Budget.with_phase b "inner" (fun () -> Budget.current_phase b) in
  Alcotest.(check string) "label applies inside" "inner" r;
  Alcotest.(check string) "label restored" "outer" (Budget.current_phase b);
  (match
     Budget.with_phase b "failing" (fun () -> raise (Failure "boom"))
   with
  | _ -> Alcotest.fail "exception should escape"
  | exception Failure _ -> ());
  Alcotest.(check string) "label restored on exception" "outer"
    (Budget.current_phase b)

(* A nondeterministic NFA for (a|b)* a (a|b)^n: its subset construction has
   ~2^n states, so a small state budget must trip during determinization. *)
let blowup_nfa n =
  let ab = Alphabet.make [ "a"; "b" ] in
  let s = Alphabet.symbol ab in
  let transitions =
    [ (0, s "a", 0); (0, s "b", 0); (0, s "a", 1) ]
    @ List.concat_map
        (fun i -> [ (i, s "a", i + 1); (i, s "b", i + 1) ])
        (List.init (n - 1) (fun i -> i + 1))
  in
  Nfa.create ~alphabet:ab ~states:(n + 1) ~initial:[ 0 ] ~finals:[ n ]
    ~transitions ()

let test_budget_trips_determinization () =
  let b = Budget.create ~max_states:100 () in
  Budget.set_phase b "determinize";
  match Error.protect (fun () -> Dfa.determinize ~budget:b (blowup_nfa 16)) with
  | Ok _ -> Alcotest.fail "2^16 subsets under a 100-state budget"
  | Error (Error.Budget_exhausted e) ->
      Alcotest.(check string) "phase" "determinize" e.Budget.phase;
      Alcotest.(check int) "typed error exits 4" 4
        (Error.exit_code (Error.Budget_exhausted e))
  | Error _ -> Alcotest.fail "expected Budget_exhausted"

let test_budget_timeout () =
  let b = Budget.create ~timeout:0.02 () in
  match
    (* spin well past the deadline; the clock is polled every 256 ticks *)
    for _ = 1 to 10_000_000 do
      Budget.tick b
    done
  with
  | () -> Alcotest.fail "deadline should trip"
  | exception Budget.Exhausted e ->
      Alcotest.(check bool) "time resource" true (e.Budget.resource = `Time)

let test_budget_poll_cancels () =
  let budget = Budget.create ~max_states:1 () in
  (match Budget.tick budget with
  | () -> ()
  | exception Budget.Exhausted _ -> ());
  (match Budget.tick budget with
  | () -> Alcotest.fail "second tick must exhaust"
  | exception Budget.Exhausted _ -> ());
  match Budget.poll budget with
  | () -> Alcotest.fail "poll on an exhausted budget must re-raise"
  | exception Budget.Exhausted e ->
      Alcotest.(check int) "the original record is re-raised" 2
        e.Budget.states_explored

(* the service watchdog's lever: a [cancel] made on another thread is
   raised by the checking thread's next [tick] and [poll] *)
let test_budget_cancel_from_thread () =
  let b = Budget.create ~max_states:100 () in
  Budget.set_phase b "the hot loop";
  for _ = 1 to 7 do
    Budget.tick b
  done;
  Thread.join (Thread.create (fun () -> Budget.cancel b `Time) ());
  Alcotest.(check bool) "cancelled" true (Budget.cancelled b);
  let watchdog_record =
    {
      Budget.resource = `Time;
      phase = "the hot loop";
      states_explored = 7;
      max_states = Some 100;
    }
  in
  (match Budget.tick b with
  | () -> Alcotest.fail "tick after cancel must raise"
  | exception Budget.Exhausted e ->
      Alcotest.(check bool) "tick raises the watchdog's record" true
        (e = watchdog_record));
  match Budget.poll b with
  | () -> Alcotest.fail "poll after cancel must raise"
  | exception Budget.Exhausted e ->
      Alcotest.(check bool) "poll raises the same record" true
        (e = watchdog_record)

let test_budget_cancel_after_trip () =
  let b = Budget.create ~max_states:3 () in
  let tripped =
    match
      for _ = 1 to 10 do
        Budget.tick b
      done
    with
    | () -> Alcotest.fail "the limit must trip"
    | exception Budget.Exhausted e -> e
  in
  Alcotest.(check int) "limit + 1" 4 tripped.Budget.states_explored;
  Budget.cancel ~phase:"watchdog" b `Time;
  match Budget.tick b with
  | () -> Alcotest.fail "a tripped budget keeps raising"
  | exception Budget.Exhausted e ->
      Alcotest.(check bool) "the self-tripped record is unchanged" true
        (e = tripped)

(* --- Error --- *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_error_exit_codes () =
  let exhaustion =
    { Budget.resource = `States; phase = "x"; states_explored = 1; max_states = None }
  in
  List.iter
    (fun (err, code) -> Alcotest.(check int) (Error.to_string err) code (Error.exit_code err))
    [
      (Error.Parse_error { file = None; line = 1; msg = "m" }, 2);
      (Error.Unbounded_net { place = "p"; bound = 64 }, 2);
      (Error.Internal "m", 2);
      (Error.Budget_exhausted exhaustion, 4);
    ]

let test_error_protect () =
  (match Error.protect (fun () -> Ts_format.parse_ts "zig") with
  | Error (Error.Parse_error { line = 1; _ }) -> ()
  | _ -> Alcotest.fail "syntax error should map to Parse_error");
  (match
     Error.protect (fun () ->
         Ts_format.load "/nonexistent/definitely/missing.ts")
   with
  | Error (Error.Internal _) -> ()
  | _ -> Alcotest.fail "Sys_error should map to Internal");
  (match Error.protect (fun () -> Rl_ltl.Parser.parse "[]<>") with
  | Error (Error.Parse_error _) -> ()
  | _ -> Alcotest.fail "formula error should map to Parse_error");
  match
    Error.protect (fun () ->
        Ts_format.parse_petri "place p 1\ntrans grow : p -> p:2"
        |> Rl_petri.Petri.reachability_graph ~bound:8)
  with
  | Error (Error.Unbounded_net { place = "p"; _ }) -> ()
  | _ -> Alcotest.fail "Unbounded should map to Unbounded_net"

let test_ts_validation () =
  (* initial states must exist *)
  (match
     Error.protect (fun () ->
         Ts_format.parse_ts "initial 7\n0 a 1\n")
   with
  | Error (Error.Parse_error { line = 1; msg; _ }) ->
      Alcotest.(check bool) "mentions the state" true
        (contains_sub msg "initial state 7")
  | _ -> Alcotest.fail "out-of-range initial state should be an error");
  (* typed diagnostics: defaulted initial, no-outgoing initial *)
  let module D = Rl_analysis.Diagnostic in
  let diags = ref [] in
  let on_diagnostic d = diags := d :: !diags in
  ignore (Ts_format.parse_ts ~on_diagnostic "0 a 1\n");
  (match List.find_opt (fun d -> d.D.code = "RL001") !diags with
  | Some d ->
      Alcotest.(check bool) "RL001 is a warning" true (d.D.severity = D.Warning);
      Alcotest.(check (option int))
        "RL001 spans the first state declaration" (Some 1)
        (Option.map (fun s -> s.D.start_line) d.D.span)
  | None -> Alcotest.fail "defaulted initial should emit RL001");
  diags := [];
  ignore (Ts_format.parse_ts ~on_diagnostic "initial 0 1\n0 a 1\n");
  (match List.find_opt (fun d -> d.D.code = "RL003") !diags with
  | Some d ->
      Alcotest.(check bool) "RL003 mentions the state" true
        (contains_sub d.D.message "initial state 1");
      Alcotest.(check (option int))
        "RL003 points at the declaring line" (Some 1)
        (Option.map (fun s -> s.D.start_line) d.D.span)
  | None -> Alcotest.fail "dead-end initial should emit RL003")

(* --- Certify on a concrete system --- *)

let server_alpha = Alphabet.make [ "request"; "result"; "reject" ]

let server_system =
  let s = Alphabet.symbol server_alpha in
  Buchi.of_transition_system
    (Nfa.create ~alphabet:server_alpha ~states:2 ~initial:[ 0 ] ~finals:[ 0; 1 ]
       ~transitions:
         [ (0, s "request", 1); (1, s "result", 0); (1, s "reject", 0) ]
       ())

let progress =
  Relative.ltl server_alpha (Rl_ltl.Parser.parse "[]<> result")

let lasso_of names_stem names_cycle =
  Lasso.of_names server_alpha ~stem:names_stem ~cycle:names_cycle

let test_certify_counterexample () =
  (* the real counterexample: request·reject forever *)
  let bad = lasso_of [] [ "request"; "reject" ] in
  Alcotest.(check bool) "true counterexample certifies" true
    (Certify.counterexample ~system:server_system progress bad = Ok ());
  (* a behavior that satisfies the property is rejected *)
  let good = lasso_of [] [ "request"; "result" ] in
  (match Certify.counterexample ~system:server_system progress good with
  | Error (Certify.Satisfies_property _) -> ()
  | _ -> Alcotest.fail "satisfying lasso must not certify");
  (* a word that is not a system behavior is rejected *)
  let outside = lasso_of [] [ "result" ] in
  match Certify.counterexample ~system:server_system progress outside with
  | Error (Certify.Not_in_system _) -> ()
  | _ -> Alcotest.fail "non-behavior must not certify"

let test_certify_doomed_prefix () =
  (* the server is relative live for progress: no prefix is doomed *)
  let w = Word.of_names server_alpha [ "request"; "reject" ] in
  (match Certify.doomed_prefix ~system:server_system progress w with
  | Error (Certify.Extension_exists { extension; _ }) ->
      Alcotest.(check bool) "refuting extension certifies" true
        (Certify.extension ~system:server_system progress ~prefix:w extension
        = Ok ())
  | _ -> Alcotest.fail "extendable prefix must not certify as doomed");
  (* a word outside pre(Lω) is rejected for the other reason *)
  let outside = Word.of_names server_alpha [ "result" ] in
  match Certify.doomed_prefix ~system:server_system progress outside with
  | Error (Certify.Prefix_not_in_system _) -> ()
  | _ -> Alcotest.fail "non-prefix must not certify"

let test_certify_extension_mismatch () =
  let w = Word.of_names server_alpha [ "request" ] in
  let x = lasso_of [ "request"; "reject" ] [ "request"; "result" ] in
  (* x does extend "request"; a lasso starting elsewhere does not *)
  Alcotest.(check bool) "matching extension certifies" true
    (Certify.extension ~system:server_system progress ~prefix:w x = Ok ());
  let y = lasso_of [] [ "request"; "result" ] in
  let w2 = Word.of_names server_alpha [ "request"; "reject" ] in
  match Certify.extension ~system:server_system progress ~prefix:w2 y with
  | Error (Certify.Not_an_extension _) -> ()
  | _ -> Alcotest.fail "prefix mismatch must not certify"

let test_certify_triple () =
  let t = Certify.verdict_triple ~system:server_system progress in
  Alcotest.(check bool) "server: sat fails" false t.Certify.sat;
  Alcotest.(check bool) "server: rl holds" true t.Certify.rl;
  Alcotest.(check bool) "Theorem 4.7" true (Certify.consistent t);
  Alcotest.(check bool) "check_triple agrees" true
    (Certify.check_triple t = Ok ());
  match
    Certify.check_triple { Certify.sat = true; rl = false; rs = true }
  with
  | Error (Certify.Inconsistent_triple _) -> ()
  | _ -> Alcotest.fail "inconsistent triple must be flagged"

(* --- property tests --- *)

let abc3 = Alphabet.make [ "a"; "b"; "c" ]

let gen_ts =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 5 in
    return
      (Rl_automata.Gen.transition_system (Helpers.mk_rng seed) ~alphabet:abc3
         ~states ~branching:1.6))

let gen_system = QCheck2.Gen.map Buchi.of_transition_system gen_ts

let gen_formula3 =
  Helpers.gen_formula_over ~max_size:4 [ "a"; "b"; "c" ] ~negations:true

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"print_ts / parse_ts roundtrip preserves the language"
    ~count:200 gen_ts (fun ts ->
      let reparsed = Ts_format.parse_ts (Ts_format.print_ts ts) in
      Alphabet.names (Nfa.alphabet reparsed) = Alphabet.names (Nfa.alphabet ts)
      && Dfa.equivalent (Dfa.determinize ts) (Dfa.determinize reparsed) = Ok ())

let prop_thm47_certified =
  QCheck2.Test.make
    ~name:"Certify.verdict_triple: Theorem 4.7 holds on random system × formula"
    ~count:60
    QCheck2.Gen.(pair gen_system gen_formula3)
    (fun (system, f) ->
      Certify.consistent
        (Certify.verdict_triple ~system (Relative.ltl abc3 f)))

let prop_budget_never_wrong =
  (* a tiny budget either exhausts or returns exactly the unbudgeted
     verdict — exhaustion must never be reported as a (wrong) verdict *)
  QCheck2.Test.make
    ~name:"tiny budget: Budget_exhausted or the correct verdict, never a wrong one"
    ~count:60
    QCheck2.Gen.(triple gen_system gen_formula3 (5 -- 60))
    (fun (system, f, limit) ->
      let p = Relative.ltl abc3 f in
      let full = Result.is_ok (Relative.is_relative_liveness ~system p) in
      let budget = Budget.create ~max_states:limit () in
      match
        Error.protect (fun () ->
            Relative.is_relative_liveness ~budget ~system p)
      with
      | Error (Error.Budget_exhausted _) -> true
      | Error _ -> false
      | Ok verdict -> Result.is_ok verdict = full)

let prop_witnesses_certified =
  (* every witness the deciders emit passes its independent replay — the
     invariant the CLI enforces before printing *)
  QCheck2.Test.make ~name:"all emitted witnesses pass certification" ~count:60
    QCheck2.Gen.(pair gen_system gen_formula3)
    (fun (system, f) ->
      let p = Relative.ltl abc3 f in
      let sat_ok =
        match Relative.satisfies ~system p with
        | Ok () -> true
        | Error cex -> Certify.counterexample ~system p cex = Ok ()
      in
      let rl_ok =
        match Relative.is_relative_liveness ~system p with
        | Ok () -> true
        | Error w -> Certify.doomed_prefix ~system p w = Ok ()
      in
      let ext_ok =
        (* Lemma 4.9 constructively: wherever an extension exists it
           certifies as one *)
        match Relative.witness_extension ~system p Word.empty with
        | None -> true
        | Some x ->
            Certify.extension ~system p ~prefix:Word.empty x = Ok ()
      in
      sat_ok && rl_ok && ext_ok)

(* --- Stats --- *)

(* Minor words must count allocation that no minor collection has
   flushed yet: a short check fits inside the minor heap, and a counter
   that advanced only at collections would read it as free. *)
let test_stats_minor_words_exact () =
  let module Stats = Rl_engine.Stats in
  let n = 10_000 in
  Gc.minor ();
  let before = Stats.snapshot () in
  let l = Sys.opaque_identity (List.init n Fun.id) in
  let after = Stats.snapshot () in
  ignore (Sys.opaque_identity l);
  let d = Stats.diff ~before ~after in
  Alcotest.(check int) "no minor collection in between" 0
    d.Stats.minor_collections;
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 words per cons (got %.0f for %d)"
       d.Stats.minor_words n)
    true
    (d.Stats.minor_words >= float_of_int (3 * n))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_print_parse_roundtrip;
      prop_thm47_certified;
      prop_budget_never_wrong;
      prop_witnesses_certified;
    ]

let () =
  Alcotest.run "engine"
    [
      ( "budget",
        [
          Alcotest.test_case "state limit" `Quick test_budget_states;
          Alcotest.test_case "bulk charge" `Quick test_budget_charge;
          Alcotest.test_case "negative limit" `Quick test_budget_negative_limit;
          Alcotest.test_case "phase labels" `Quick test_budget_phase;
          Alcotest.test_case "trips determinization" `Quick
            test_budget_trips_determinization;
          Alcotest.test_case "wall-clock deadline" `Quick test_budget_timeout;
          Alcotest.test_case "poll re-raises the published record" `Quick
            test_budget_poll_cancels;
          Alcotest.test_case "cancel from another thread" `Quick
            test_budget_cancel_from_thread;
          Alcotest.test_case "cancel leaves a tripped record" `Quick
            test_budget_cancel_after_trip;
        ] );
      ( "error",
        [
          Alcotest.test_case "exit codes" `Quick test_error_exit_codes;
          Alcotest.test_case "protect maps exceptions" `Quick test_error_protect;
          Alcotest.test_case "ts validation and warnings" `Quick
            test_ts_validation;
        ] );
      ( "certify",
        [
          Alcotest.test_case "counterexample oracle" `Quick
            test_certify_counterexample;
          Alcotest.test_case "doomed-prefix oracle" `Quick
            test_certify_doomed_prefix;
          Alcotest.test_case "extension oracle" `Quick
            test_certify_extension_mismatch;
          Alcotest.test_case "Theorem 4.7 triple" `Quick test_certify_triple;
        ] );
      ( "stats",
        [
          Alcotest.test_case "minor words without a collection" `Quick
            test_stats_minor_words_exact;
        ] );
      ("properties", qsuite);
    ]
