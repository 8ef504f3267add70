(* The preorder engine: simulation preorders, quotient reductions, and
   the reduction-invariance of every decider built on them.

   Three contracts are under test:
   (a) the preorder is the greatest direct simulation — row for row
       against the HHK oracle in [Preorder_oracle];
   (b) quotient-everywhere is sound — every decider returns the same
       verdict with [~reduce:true] (the default) and [~reduce:false]
       (no quotients);
   (c) witnesses surfaced by the reduced engines replay on the ORIGINAL
       automata (the de-quotienting contract) — checked through the
       Certify module, which decides membership independently of the
       checking pipeline. *)

open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_core
module Budget = Rl_engine.Budget
module Certify = Rl_engine.Certify
module Simcache = Rl_engine_kernel.Simcache
module Bitset = Rl_prelude.Bitset

let ab = Alphabet.make [ "a"; "b" ]
let a_sym = Alphabet.symbol ab "a"
let b_sym = Alphabet.symbol ab "b"

(* --- unit tests: the preorder itself --- *)

(* 0 --a--> 1 --b--> 2(final); 3 --a--> 4 (4 non-final, dead end):
   1 simulates 4 (more behavior, acceptance-compatible), not vice
   versa once acceptance differs downstream. *)
let ladder =
  Nfa.create ~alphabet:ab ~states:5 ~initial:[ 0; 3 ] ~finals:[ 2 ]
    ~transitions:[ (0, a_sym, 1); (1, b_sym, 2); (3, a_sym, 4) ]
    ()

let test_forward_facts () =
  let sim = Preorder.forward ladder in
  Alcotest.(check int) "size" 5 (Preorder.size sim);
  for q = 0 to 4 do
    Alcotest.(check bool) (Printf.sprintf "reflexive at %d" q) true
      (Preorder.simulates sim q q)
  done;
  Alcotest.(check bool) "1 simulates 4" true (Preorder.simulates sim 1 4);
  Alcotest.(check bool) "4 does not simulate 1" false
    (Preorder.simulates sim 4 1);
  Alcotest.(check bool) "0 simulates 3" true (Preorder.simulates sim 0 3);
  Alcotest.(check bool) "non-final 4 cannot simulate final 2" false
    (Preorder.simulates sim 4 2);
  Alcotest.(check bool) "3 does not simulate 0" false
    (Preorder.simulates sim 3 0)

let dup_nfa =
  (* two interchangeable copies of an a-loop with a final b-successor *)
  Nfa.create ~alphabet:ab ~states:4 ~initial:[ 0; 1 ] ~finals:[ 2; 3 ]
    ~transitions:
      [ (0, a_sym, 0); (0, a_sym, 1); (1, a_sym, 0); (1, a_sym, 1);
        (0, b_sym, 2); (1, b_sym, 3) ]
    ()

let test_reduce_collapses () =
  let r = Preorder.reduce dup_nfa in
  Alcotest.(check int) "duplicates merged" 2 (Nfa.states r);
  List.iter
    (fun (names, expect) ->
      let w = Word.of_names ab names in
      Alcotest.(check bool)
        (String.concat "" names ^ " preserved")
        expect (Nfa.accepts r w);
      Alcotest.(check bool)
        (String.concat "" names ^ " matches original")
        (Nfa.accepts dup_nfa w) (Nfa.accepts r w))
    [ ([ "b" ], true); ([ "a"; "a"; "b" ], true); ([ "a" ], false); ([], false) ]

let test_simcache_hits () =
  Simcache.clear ();
  let _, misses0, _ = Simcache.stats () in
  (* two structurally identical automata built from scratch: one compute *)
  let mk () =
    Nfa.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~finals:[ 1 ]
      ~transitions:[ (0, a_sym, 1); (1, b_sym, 0) ]
      ()
  in
  let s1 = Preorder.forward (mk ()) in
  let hits1, misses1, entries1 = Simcache.stats () in
  let s2 = Preorder.forward (mk ()) in
  let hits2, misses2, _ = Simcache.stats () in
  Alcotest.(check bool) "first call misses" true (misses1 > misses0);
  (* under an armed cache_miss_storm the second lookup is forced to
     recompute by design — only the statistics change, never the relation,
     so the hit-count assertions are meaningless in a chaos run *)
  let storming = Rl_engine_kernel.Fault.fired Rl_engine_kernel.Fault.Cache_miss_storm > 0 in
  if not storming then begin
    Alcotest.(check int) "second call hits" (hits1 + 1) hits2;
    Alcotest.(check int) "no second computation" misses1 misses2
  end;
  Alcotest.(check bool) "at least one entry" true (entries1 >= 1);
  Alcotest.(check bool) "same relation" true
    (Preorder.simulates s1 1 1 = Preorder.simulates s2 1 1)

(* Lemma 4.3's left side quotients the system's Büchi automaton and then
   reduces its pre-language NFA. When the quotient merges nothing, the
   all-final NFA is the same structure as the all-accepting automaton —
   cell (0, a) even lists its two successors in the opposite order — so
   the second refinement is a cache hit. *)
let test_pre_language_reuses_quotient () =
  Simcache.clear ();
  let ts =
    Nfa.create ~alphabet:ab ~states:3 ~initial:[ 0 ] ~finals:[ 0; 1; 2 ]
      ~transitions:
        [ (0, a_sym, 1); (0, a_sym, 2); (1, b_sym, 0); (2, a_sym, 0) ]
      ()
  in
  let q = Reduce.quotient (Buchi.trim (Buchi.of_transition_system ts)) in
  Alcotest.(check int) "the quotient merges nothing" 3 (Buchi.states q);
  let r = Preorder.reduce (Buchi.pre_language q) in
  Alcotest.(check int) "the pre-language reduce merges nothing" 3
    (Nfa.states r);
  let hits, misses, _ = Simcache.stats () in
  let storming = Rl_engine_kernel.Fault.fired Rl_engine_kernel.Fault.Cache_miss_storm > 0 in
  if not storming then begin
    Alcotest.(check int) "one refinement" 1 misses;
    Alcotest.(check int) "the pre-language view hits" 1 hits
  end

(* --- generators --- *)

let mk_rng = Helpers.mk_rng

let gen_nfa =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 6 in
    let rng = mk_rng seed in
    return (Gen.nfa rng ~alphabet:ab ~states ~density:0.25 ~final_prob:0.4))

let gen_word = QCheck2.Gen.(list_size (0 -- 7) (0 -- 1) >|= Word.of_list)

let gen_ts =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 4 in
    return
      (Gen.transition_system (mk_rng seed) ~alphabet:ab ~states
         ~branching:1.5))

let random_buchi rng ~states =
  let transitions = ref [] in
  for q = 0 to states - 1 do
    for s = 0 to 1 do
      for q' = 0 to states - 1 do
        if Rl_prelude.Prng.float rng < 0.3 then
          transitions := (q, s, q') :: !transitions
      done
    done
  done;
  let accepting =
    List.filter (fun _ -> Rl_prelude.Prng.float rng < 0.4)
      (List.init states Fun.id)
  in
  Buchi.create ~alphabet:ab ~states ~initial:[ 0 ] ~accepting
    ~transitions:!transitions ()

let gen_buchi =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 5 in
    return (random_buchi (mk_rng seed) ~states))

let gen_formula = Helpers.gen_formula_over ~max_size:4 [ "a"; "b" ] ~negations:true

(* --- properties of the preorder itself --- *)

(* [forward] returns a direct simulation: acceptance-compatible and
   stepwise-matching. (Greatestness is exercised indirectly by the
   oracle-agreement and reduction-invariance properties below.) *)
let prop_forward_is_simulation =
  QCheck2.Test.make ~name:"forward preorder is a direct simulation" ~count:300
    gen_nfa (fun n ->
      let n = Nfa.remove_eps n in
      let sim = Preorder.forward n in
      let ok = ref true in
      for q = 0 to Nfa.states n - 1 do
        Bitset.iter
          (fun p ->
            if Nfa.is_final n q && not (Nfa.is_final n p) then ok := false;
            for s = 0 to 1 do
              List.iter
                (fun q' ->
                  if
                    not
                      (List.exists
                         (fun p' -> Preorder.simulates sim p' q')
                         (Nfa.successors n p s))
                  then ok := false)
                (Nfa.successors n q s)
            done)
          (Preorder.simulators sim q)
      done;
      !ok)

let prop_reduce_preserves_language =
  QCheck2.Test.make ~name:"mutual-similarity quotient preserves acceptance"
    ~count:500
    QCheck2.Gen.(pair gen_nfa gen_word)
    (fun (n, w) ->
      let r = Preorder.reduce n in
      Nfa.states r <= Nfa.states (Nfa.remove_eps n)
      && Nfa.accepts r w = Nfa.accepts n w)

(* Random views for the oracle comparison: mostly 1–12 states, some up
   to 64 (more than one bitset word), 1–3 letters, 0–2 memberships, and
   an expected out-degree per letter from sparse (0.5) to dense (4). *)
let gen_view =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = frequency [ (4, 1 -- 12); (1, 13 -- 64) ] in
    let* symbols = 1 -- 3 in
    let* nmem = 0 -- 2 in
    let* degree = oneofl [ 0.5; 1.; 2.; 4. ] in
    let rng = mk_rng seed in
    let density = degree /. Stdlib.float_of_int states in
    let succ =
      Array.init states (fun _ ->
          Array.init symbols (fun _ ->
              List.filter
                (fun _ -> Rl_prelude.Prng.float rng < density)
                (List.init states Fun.id)))
    in
    let memberships =
      List.init nmem (fun _ ->
          Bitset.of_list states
            (List.filter
               (fun _ -> Rl_prelude.Prng.float rng < 0.5)
               (List.init states Fun.id)))
    in
    return (states, symbols, memberships, succ))

let print_view (states, symbols, memberships, succ) =
  Printf.sprintf "%d states, %d symbols, memberships [%s], succ [%s]" states
    symbols
    (String.concat "; " (List.map (Format.asprintf "%a" Bitset.pp) memberships))
    (String.concat "; "
       (Array.to_list
          (Array.mapi
             (fun q row ->
               String.concat " "
                 (Array.to_list
                    (Array.mapi
                       (fun a l ->
                         Printf.sprintf "%d-%d->{%s}" q a
                           (String.concat "," (List.map string_of_int l)))
                       row)))
             succ)))

let prop_of_view_matches_oracle =
  QCheck2.Test.make ~name:"of_view = the HHK oracle, row for row" ~count:1500
    ~print:print_view gen_view (fun (states, symbols, memberships, succ) ->
      let succ q a = succ.(q).(a) in
      let po =
        Preorder.of_view ~cache:false ~memberships
          (Rl_prelude.Csr.of_fn ~states ~symbols succ)
      in
      let oracle =
        Preorder_oracle.refine ~delta:None ~rdelta:None ~states ~symbols
          ~memberships ~succ
      in
      Preorder.size po = Array.length oracle
      && Array.for_all Fun.id
           (Array.mapi
              (fun q row -> Bitset.equal (Preorder.simulators po q) row)
              oracle))

(* The Simcache key is read off the CSR table; the list fingerprint it
   replaced must give the same digest, whatever order the table lists a
   cell's successors in. *)
let prop_fingerprint_matches_list_key =
  QCheck2.Test.make ~name:"CSR fingerprint = the list fingerprint" ~count:500
    ~print:print_view gen_view (fun (states, symbols, memberships, succ) ->
      let key =
        Preorder_oracle.fingerprint ~states ~symbols ~memberships
          ~succ:(fun q a -> succ.(q).(a))
      in
      let csr succ = Rl_prelude.Csr.of_fn ~states ~symbols succ in
      Preorder.fingerprint ~memberships (csr (fun q a -> succ.(q).(a))) = key
      && Preorder.fingerprint ~memberships
           (csr (fun q a -> List.rev succ.(q).(a)))
         = key)

(* --- (b)/(c) reduction-invariant verdicts, witnesses replay --- *)

let prop_rl_reduce_invariant =
  QCheck2.Test.make
    ~name:"relative liveness: reduce on/off verdicts agree, witnesses certify"
    ~count:150
    QCheck2.Gen.(pair gen_ts gen_formula)
    (fun (ts, f) ->
      let system = Buchi.of_transition_system ts in
      let p = Relative.ltl ab f in
      let on = Relative.is_relative_liveness ~reduce:true ~system p in
      let off = Relative.is_relative_liveness ~reduce:false ~system p in
      match (on, off) with
      | Ok (), Ok () -> true
      | Error w, Error w' ->
          (* same refutation depth, and both doomed prefixes replay on the
             ORIGINAL system — the de-quotienting contract *)
          Word.length w = Word.length w'
          && Certify.doomed_prefix ~system p w = Ok ()
          && Certify.doomed_prefix ~system p w' = Ok ()
      | _ -> false)

let prop_rs_reduce_invariant =
  QCheck2.Test.make
    ~name:"relative safety: reduce on/off verdicts agree, witnesses certify"
    ~count:60
    QCheck2.Gen.(pair gen_ts gen_formula)
    (fun (ts, f) ->
      let system = Buchi.of_transition_system ts in
      let p = Relative.ltl ab f in
      let on = Relative.is_relative_safety ~reduce:true ~system p in
      let off = Relative.is_relative_safety ~reduce:false ~system p in
      match (on, off) with
      | Ok (), Ok () -> true
      | Error x, Error x' ->
          (* a relative-safety refutation is a system behavior violating P:
             exactly what Certify.counterexample replays *)
          Certify.counterexample ~system p x = Ok ()
          && Certify.counterexample ~system p x' = Ok ()
      | _ -> false)

let prop_machine_closed_reduce_invariant =
  QCheck2.Test.make ~name:"machine closure: reduce on/off verdicts agree"
    ~count:100
    QCheck2.Gen.(pair gen_ts gen_formula)
    (fun (ts, f) ->
      let system = Buchi.of_transition_system ts in
      let pb = Relative.property_buchi ab (Relative.ltl ab f) in
      let live_part = Buchi.inter system pb in
      Relative.is_machine_closed ~reduce:true ~system ~live_part ()
      = Relative.is_machine_closed ~reduce:false ~system ~live_part ())

let prop_classify_reduce_invariant =
  QCheck2.Test.make ~name:"Classify.is_liveness: reduce on/off agree"
    ~count:200 gen_buchi (fun b ->
      Classify.is_liveness ~reduce:true b
      = Classify.is_liveness ~reduce:false b)

let prop_implement_reduce_invariant =
  QCheck2.Test.make
    ~name:"Implement.language_preserved: reduce on/off verdicts agree"
    ~count:60
    QCheck2.Gen.(pair gen_ts gen_formula)
    (fun (ts, f) ->
      let system = Buchi.of_transition_system ts in
      let p = Relative.ltl ab f in
      let impl = Implement.construct ~system p in
      let status = function Ok () -> `Ok | Error _ -> `Diff in
      status (Implement.language_preserved ~reduce:true ~system impl)
      = status (Implement.language_preserved ~reduce:false ~system impl))

let prop_compose_reduce_invariant =
  QCheck2.Test.make
    ~name:"Compose.parallel: reduced product has the reference language"
    ~count:150
    QCheck2.Gen.(pair gen_ts (pair gen_ts gen_word))
    (fun (a, (b, w)) ->
      let reduced = Rl_compose.Compose.parallel a b in
      let reference = Rl_compose.Compose.parallel ~reduce:false a b in
      Nfa.accepts reduced w = Nfa.accepts reference w)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "preorder"
    [
      ( "preorder",
        [
          Alcotest.test_case "forward simulation facts" `Quick
            test_forward_facts;
          Alcotest.test_case "reduce collapses duplicates" `Quick
            test_reduce_collapses;
          Alcotest.test_case "fingerprint cache hits" `Quick
            test_simcache_hits;
          Alcotest.test_case "pre-language view reuses the quotient's" `Quick
            test_pre_language_reuses_quotient;
        ] );
      ( "properties",
        [
          qcheck prop_forward_is_simulation;
          qcheck prop_of_view_matches_oracle;
          qcheck prop_fingerprint_matches_list_key;
          qcheck prop_reduce_preserves_language;
        ] );
      ( "reduction-invariance",
        [
          qcheck prop_rl_reduce_invariant;
          qcheck prop_rs_reduce_invariant;
          qcheck prop_machine_closed_reduce_invariant;
          qcheck prop_classify_reduce_invariant;
          qcheck prop_implement_reduce_invariant;
          qcheck prop_compose_reduce_invariant;
        ] );
    ]
