(* Tests for the automata library: NFA/DFA constructions and decision
   procedures. Randomized properties cross-check every construction against
   direct word-membership semantics. *)

open Rl_sigma
open Rl_automata

let ab = Alphabet.make [ "a"; "b" ]
let a_sym = Alphabet.symbol ab "a"
let b_sym = Alphabet.symbol ab "b"

(* L = (ab)* over {a,b}. *)
let ab_star =
  Nfa.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~finals:[ 0 ]
    ~transitions:[ (0, a_sym, 1); (1, b_sym, 0) ]
    ()

(* L = words containing at least one a. *)
let contains_a =
  Nfa.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~finals:[ 1 ]
    ~transitions:
      [ (0, a_sym, 1); (0, b_sym, 0); (1, a_sym, 1); (1, b_sym, 1) ]
    ()

let word_ab names = Word.of_names ab names

(* --- NFA unit tests --- *)

let test_accepts () =
  Alcotest.(check bool) "ε ∈ (ab)*" true (Nfa.accepts ab_star Word.empty);
  Alcotest.(check bool) "ab ∈" true (Nfa.accepts ab_star (word_ab [ "a"; "b" ]));
  Alcotest.(check bool) "abab ∈" true
    (Nfa.accepts ab_star (word_ab [ "a"; "b"; "a"; "b" ]));
  Alcotest.(check bool) "a ∉" false (Nfa.accepts ab_star (word_ab [ "a" ]));
  Alcotest.(check bool) "ba ∉" false (Nfa.accepts ab_star (word_ab [ "b"; "a" ]))

let test_eps_removal () =
  (* a*·b* via an ε-move between two loops. *)
  let n =
    Nfa.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~finals:[ 1 ]
      ~transitions:[ (0, a_sym, 0); (1, b_sym, 1) ]
      ~eps:[ (0, 1) ] ()
  in
  let n' = Nfa.remove_eps n in
  Alcotest.(check bool) "no eps left" false (Nfa.has_eps n');
  List.iter
    (fun (names, expect) ->
      Alcotest.(check bool)
        (String.concat "" names) expect
        (Nfa.accepts n' (word_ab names)))
    [
      ([], true);
      ([ "a" ], true);
      ([ "b" ], true);
      ([ "a"; "a"; "b"; "b" ], true);
      ([ "b"; "a" ], false);
    ]

let test_emptiness () =
  let empty =
    Nfa.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~finals:[ 1 ] ~transitions:[] ()
  in
  Alcotest.(check bool) "unreachable final" true (Nfa.is_empty empty);
  Alcotest.(check bool) "(ab)* non-empty" false (Nfa.is_empty ab_star);
  Alcotest.(check (option (list int)))
    "shortest of (ab)*" (Some [])
    (Option.map Word.to_list (Nfa.shortest_word ab_star));
  Alcotest.(check (option (list int)))
    "shortest of contains_a" (Some [ a_sym ])
    (Option.map Word.to_list (Nfa.shortest_word contains_a))

let test_trim () =
  let n =
    Nfa.create ~alphabet:ab ~states:4 ~initial:[ 0 ] ~finals:[ 1 ]
      ~transitions:[ (0, a_sym, 1); (2, a_sym, 1); (0, b_sym, 3) ]
      ()
  in
  (* state 2 unreachable, state 3 unproductive *)
  let t = Nfa.trim n in
  Alcotest.(check int) "trim states" 2 (Nfa.states t);
  Alcotest.(check bool) "language kept" true (Nfa.accepts t (word_ab [ "a" ]))

let test_inter_union () =
  let i = Nfa.inter ab_star contains_a in
  Alcotest.(check bool) "ab ∈ ∩" true (Nfa.accepts i (word_ab [ "a"; "b" ]));
  Alcotest.(check bool) "ε ∉ ∩" false (Nfa.accepts i Word.empty);
  let u = Nfa.union ab_star contains_a in
  Alcotest.(check bool) "ε ∈ ∪" true (Nfa.accepts u Word.empty);
  Alcotest.(check bool) "a ∈ ∪" true (Nfa.accepts u (word_ab [ "a" ]));
  Alcotest.(check bool) "b ∉ ∪" false (Nfa.accepts u (word_ab [ "b" ]))

let test_reverse () =
  (* reverse of contains_a is itself semantically; reverse of ab-star is (ba)* *)
  let r = Nfa.reverse ab_star in
  Alcotest.(check bool) "ba ∈ rev" true (Nfa.accepts r (word_ab [ "b"; "a" ]));
  Alcotest.(check bool) "ab ∉ rev" false (Nfa.accepts r (word_ab [ "a"; "b" ]))

let test_prefix_language () =
  let p = Nfa.prefix_language ab_star in
  List.iter
    (fun (names, expect) ->
      Alcotest.(check bool)
        ("pre: " ^ String.concat "" names)
        expect
        (Nfa.accepts p (word_ab names)))
    [ ([], true); ([ "a" ], true); ([ "a"; "b"; "a" ], true); ([ "b" ], false) ]

let test_residual () =
  let r = Nfa.residual ab_star (word_ab [ "a" ]) in
  Alcotest.(check bool) "b ∈ cont(a, L)" true (Nfa.accepts r (word_ab [ "b" ]));
  Alcotest.(check bool) "ε ∉ cont(a, L)" false (Nfa.accepts r Word.empty)

let test_map_symbols () =
  (* Rename a↦b, erase b: (ab)* ↦ b* *)
  let target = Alphabet.make [ "b" ] in
  let f s = if s = a_sym then Some 0 else None in
  let m = Nfa.map_symbols ~alphabet:target f ab_star in
  Alcotest.(check bool) "ε" true (Nfa.accepts m Word.empty);
  Alcotest.(check bool) "b" true (Nfa.accepts m (Word.of_list [ 0 ]));
  Alcotest.(check bool) "bb" true (Nfa.accepts m (Word.of_list [ 0; 0 ]))

(* --- DFA unit tests --- *)

let test_determinize () =
  let d = Dfa.determinize ab_star in
  Alcotest.(check bool) "ab" true (Dfa.accepts d (word_ab [ "a"; "b" ]));
  Alcotest.(check bool) "a" false (Dfa.accepts d (word_ab [ "a" ]));
  Alcotest.(check bool) "ε" true (Dfa.accepts d Word.empty)

let test_minimize_size () =
  let d = Dfa.minimize (Dfa.determinize ab_star) in
  (* minimal complete DFA of (ab)*: accept, middle, sink *)
  Alcotest.(check int) "3 states" 3 (Dfa.states d);
  let dm = Dfa_oracle.minimize_moore (Dfa.determinize ab_star) in
  Alcotest.(check int) "moore agrees" 3 (Dfa.states dm)

(* Minimization is the quotient by language equivalence: two states with
   the same residual language merge, and finality alone keeps two states
   apart. Both algorithms must agree on the count. *)
let minimal_sizes n =
  let d = Dfa.determinize n in
  (Dfa.states (Dfa.minimize d), Dfa.states (Dfa_oracle.minimize_moore d))

let test_minimize_merges_clones () =
  (* states 1 and 2 are b-loops, both final: one class, plus 0 and the
     sink *)
  let n =
    Nfa.create ~alphabet:ab ~states:3 ~initial:[ 0 ] ~finals:[ 0; 1; 2 ]
      ~transitions:
        [ (0, a_sym, 1); (0, b_sym, 2); (1, b_sym, 1); (2, b_sym, 2) ]
      ()
  in
  Alcotest.(check (pair int int)) "4 -> 3 states" (3, 3) (minimal_sizes n)

let test_minimize_respects_finality () =
  (* states 1 and 2 step alike (b to 1), but only 1 is final *)
  let n =
    Nfa.create ~alphabet:ab ~states:3 ~initial:[ 0 ] ~finals:[ 0; 1 ]
      ~transitions:
        [ (0, a_sym, 1); (0, b_sym, 2); (1, b_sym, 1); (2, b_sym, 1) ]
      ()
  in
  Alcotest.(check (pair int int)) "no merge" (4, 4) (minimal_sizes n)

let test_complement () =
  let d = Dfa.determinize ab_star in
  let c = Dfa.complement d in
  Alcotest.(check bool) "a ∈ comp" true (Dfa.accepts c (word_ab [ "a" ]));
  Alcotest.(check bool) "ab ∉ comp" false (Dfa.accepts c (word_ab [ "a"; "b" ]))

let test_equivalent () =
  let d1 = Dfa.determinize ab_star in
  let d2 = Dfa.minimize d1 in
  (match Dfa.equivalent d1 d2 with
  | Ok () -> ()
  | Error w ->
      Alcotest.failf "expected equivalent, witness %a" (Word.pp ab) w);
  let d3 = Dfa.determinize contains_a in
  match Dfa.equivalent d1 d3 with
  | Ok () -> Alcotest.fail "expected inequivalent"
  | Error w ->
      Alcotest.(check bool)
        "witness separates" true
        (Dfa.accepts d1 w <> Dfa.accepts d3 w)

let test_included () =
  let inter = Dfa.determinize (Nfa.inter ab_star contains_a) in
  let whole = Dfa.determinize ab_star in
  (match Dfa.included inter whole with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "∩ ⊆ L");
  match Dfa.included whole inter with
  | Ok () -> Alcotest.fail "L ⊄ ∩"
  | Error w ->
      Alcotest.(check bool) "witness in difference" true
        (Dfa.accepts whole w && not (Dfa.accepts inter w))

let test_states_equivalent () =
  let d = Dfa.determinize ab_star in
  Alcotest.(check bool) "self" true (Dfa.states_equivalent d (Dfa.initial d) d (Dfa.initial d));
  let d2 = Dfa.minimize d in
  Alcotest.(check bool) "across automata" true
    (Dfa.states_equivalent d (Dfa.initial d) d2 (Dfa.initial d2))

(* --- randomized properties --- *)

let mk_rng seed = Rl_prelude.Prng.create seed

let gen_nfa =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 6 in
    let rng = mk_rng seed in
    return (Gen.nfa rng ~alphabet:ab ~states ~density:0.25 ~final_prob:0.4))

let gen_word_ab = QCheck2.Gen.(list_size (0 -- 7) (0 -- 1) >|= Word.of_list)

let prop_determinize_preserves =
  QCheck2.Test.make ~name:"determinize preserves membership" ~count:500
    QCheck2.Gen.(pair gen_nfa gen_word_ab)
    (fun (n, w) -> Nfa.accepts n w = Dfa.accepts (Dfa.determinize n) w)

let prop_minimize_preserves =
  QCheck2.Test.make ~name:"minimize preserves membership" ~count:500
    QCheck2.Gen.(pair gen_nfa gen_word_ab)
    (fun (n, w) ->
      let d = Dfa.determinize n in
      Dfa.accepts d w = Dfa.accepts (Dfa.minimize d) w)

let prop_minimize_agrees_with_moore =
  QCheck2.Test.make ~name:"hopcroft and moore give same state count" ~count:300
    gen_nfa
    (fun n ->
      let d = Dfa.determinize n in
      Dfa.states (Dfa.minimize d) = Dfa.states (Dfa_oracle.minimize_moore d))

let prop_minimize_idempotent =
  QCheck2.Test.make ~name:"minimize idempotent" ~count:200 gen_nfa (fun n ->
      let m = Dfa.minimize (Dfa.determinize n) in
      Dfa.states (Dfa.minimize m) = Dfa.states m)

let prop_trim_preserves =
  QCheck2.Test.make ~name:"trim preserves membership" ~count:500
    QCheck2.Gen.(pair gen_nfa gen_word_ab)
    (fun (n, w) -> Nfa.accepts n w = Nfa.accepts (Nfa.trim n) w)

let prop_remove_eps_preserves =
  QCheck2.Test.make ~name:"remove_eps preserves membership" ~count:500
    QCheck2.Gen.(
      let* seed = 0 -- 1_000_000 in
      let* states = 1 -- 5 in
      let rng = mk_rng seed in
      let n = Gen.nfa rng ~alphabet:ab ~states ~density:0.2 ~final_prob:0.4 in
      (* graft random ε-moves *)
      let eps =
        List.concat_map
          (fun q ->
            if Rl_prelude.Prng.float rng < 0.3 then
              [ (q, Rl_prelude.Prng.int rng states) ]
            else [])
          (List.init states Fun.id)
      in
      let n2 =
        Nfa.create ~alphabet:ab ~states ~initial:(Nfa.initial n)
          ~finals:(Rl_prelude.Bitset.elements (Nfa.finals n))
          ~transitions:(Nfa.transitions n) ~eps ()
      in
      let* w = gen_word_ab in
      return (n2, w))
    (fun (n, w) -> Nfa.accepts n w = Nfa.accepts (Nfa.remove_eps n) w)

let prop_inter_union_semantics =
  QCheck2.Test.make ~name:"inter/union match boolean semantics" ~count:500
    QCheck2.Gen.(triple gen_nfa gen_nfa gen_word_ab)
    (fun (n1, n2, w) ->
      let i = Nfa.accepts (Nfa.inter n1 n2) w in
      let u = Nfa.accepts (Nfa.union n1 n2) w in
      i = (Nfa.accepts n1 w && Nfa.accepts n2 w)
      && u = (Nfa.accepts n1 w || Nfa.accepts n2 w))

let prop_complement_product =
  QCheck2.Test.make ~name:"dfa complement and product semantics" ~count:500
    QCheck2.Gen.(triple gen_nfa gen_nfa gen_word_ab)
    (fun (n1, n2, w) ->
      let d1 = Dfa.determinize n1 and d2 = Dfa.determinize n2 in
      Dfa.accepts (Dfa.complement d1) w = not (Dfa.accepts d1 w)
      && Dfa.accepts (Dfa.product ( && ) d1 d2) w
         = (Dfa.accepts d1 w && Dfa.accepts d2 w)
      && Dfa.accepts (Dfa.product (fun x y -> x && not y) d1 d2) w
         = (Dfa.accepts d1 w && not (Dfa.accepts d2 w)))

let prop_prefix_language =
  QCheck2.Test.make ~name:"pre(L) = {w | cont(w,L) ≠ ∅}" ~count:500
    QCheck2.Gen.(pair gen_nfa gen_word_ab)
    (fun (n, w) ->
      let in_pre = Nfa.accepts (Nfa.prefix_language n) w in
      let has_cont = not (Nfa.is_empty (Nfa.residual n w)) in
      in_pre = has_cont)

let prop_residual_semantics =
  QCheck2.Test.make ~name:"residual: v ∈ cont(w,L) iff wv ∈ L" ~count:500
    QCheck2.Gen.(triple gen_nfa gen_word_ab gen_word_ab)
    (fun (n, w, v) ->
      Nfa.accepts (Nfa.residual n w) v = Nfa.accepts n (Word.append w v))

let prop_equivalent_hk_vs_product =
  QCheck2.Test.make ~name:"hopcroft-karp equivalence matches product check" ~count:300
    QCheck2.Gen.(pair gen_nfa gen_nfa)
    (fun (n1, n2) ->
      let d1 = Dfa.determinize n1 and d2 = Dfa.determinize n2 in
      let hk = match Dfa.equivalent d1 d2 with Ok () -> true | Error _ -> false in
      let diff = Dfa.product (fun x y -> x <> y) d1 d2 in
      hk = Dfa.is_empty diff)

let prop_equivalent_witness_valid =
  QCheck2.Test.make ~name:"inequivalence witness is in symmetric difference"
    ~count:300
    QCheck2.Gen.(pair gen_nfa gen_nfa)
    (fun (n1, n2) ->
      let d1 = Dfa.determinize n1 and d2 = Dfa.determinize n2 in
      match Dfa.equivalent d1 d2 with
      | Ok () -> true
      | Error w -> Dfa.accepts d1 w <> Dfa.accepts d2 w)

let prop_equivalence_classes =
  QCheck2.Test.make ~name:"equivalence_classes agree with states_equivalent"
    ~count:60
    QCheck2.Gen.(pair gen_nfa gen_nfa)
    (fun (n1, n2) ->
      let d1 = Dfa.determinize n1 and d2 = Dfa.determinize n2 in
      let c1, c2 = Helpers.union_classes d1 d2 in
      let ok = ref true in
      for q1 = 0 to Dfa.states d1 - 1 do
        for q2 = 0 to Dfa.states d2 - 1 do
          let same_class = c1.(q1) = c2.(q2) in
          let equiv = Dfa.states_equivalent d1 q1 d2 q2 in
          if same_class <> equiv then ok := false
        done
      done;
      !ok)

let prop_reverse_reverse =
  QCheck2.Test.make ~name:"reverse ∘ reverse preserves language" ~count:300
    QCheck2.Gen.(pair gen_nfa gen_word_ab)
    (fun (n, w) -> Nfa.accepts n w = Nfa.accepts (Nfa.reverse (Nfa.reverse n)) w)

let prop_transition_system_shape =
  QCheck2.Test.make ~name:"generated transition systems are prefix-closed and extension-free"
    ~count:200
    QCheck2.Gen.(pair (0 -- 1_000_000) (1 -- 8))
    (fun (seed, states) ->
      let rng = mk_rng seed in
      let ts = Gen.transition_system rng ~alphabet:ab ~states ~branching:1.5 in
      Nfa.all_states_final ts
      && Nfa.states ts > 0
      &&
      (* every state has an outgoing edge *)
      List.for_all
        (fun q ->
          List.exists (fun a -> Nfa.successors ts q a <> []) [ a_sym; b_sym ])
        (List.init (Nfa.states ts) Fun.id))

(* --- antichain inclusion engine --- *)

let test_inclusion_basic () =
  let inter = Nfa.inter ab_star contains_a in
  (match Inclusion.included inter ab_star with
  | Ok () -> ()
  | Error w -> Alcotest.failf "expected inclusion, witness %a" (Word.pp ab) w);
  match Inclusion.included ab_star inter with
  | Ok () -> Alcotest.fail "expected non-inclusion"
  | Error w ->
      Alcotest.(check bool) "witness in L(a)" true (Nfa.accepts ab_star w);
      Alcotest.(check bool) "witness not in L(b)" false (Nfa.accepts inter w)

let test_inclusion_degenerate () =
  (* no initial state on the left: L(A) = ∅ ⊆ anything *)
  let empty_initial =
    Nfa.create ~alphabet:ab ~states:2 ~initial:[] ~finals:[ 0; 1 ]
      ~transitions:[ (0, a_sym, 1) ] ()
  in
  (match Inclusion.included empty_initial ab_star with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "∅ ⊆ L(B) must hold");
  (* empty right side: the witness is a shortest word of L(A) *)
  let empty_lang =
    Nfa.create ~alphabet:ab ~states:1 ~initial:[ 0 ] ~finals:[]
      ~transitions:[] ()
  in
  match Inclusion.included contains_a empty_lang with
  | Ok () -> Alcotest.fail "nonempty ⊆ ∅ must fail"
  | Error w -> Alcotest.(check int) "shortest witness" 1 (Word.length w)

let test_inclusion_budget () =
  let budget = Rl_engine_kernel.Budget.create ~max_states:1 () in
  match Inclusion.included ~budget contains_a ab_star with
  | exception Rl_engine_kernel.Budget.Exhausted e ->
      Alcotest.(check int) "explored" 2 e.Rl_engine_kernel.Budget.states_explored
  | _ -> Alcotest.fail "expected exhaustion under a 1-state budget"

let check_against_dfa n1 n2 =
  let eager =
    Dfa.included (Dfa.determinize n1) (Dfa.determinize n2)
  in
  match (Inclusion.included n1 n2, eager) with
  | Ok (), Ok () -> true
  | Error w, Error _ -> Nfa.accepts n1 w && not (Nfa.accepts n2 w)
  | _ -> false

let prop_inclusion_agrees_with_determinize =
  QCheck2.Test.make
    ~name:"antichain inclusion agrees with determinize + Dfa.included"
    ~count:500
    QCheck2.Gen.(pair gen_nfa gen_nfa)
    (fun (n1, n2) -> check_against_dfa n1 n2)

let prop_inclusion_single_letter =
  (* unary alphabets: subset structure degenerates to counting *)
  QCheck2.Test.make ~name:"antichain inclusion on a 1-letter alphabet"
    ~count:300
    QCheck2.Gen.(
      let* s1 = 0 -- 1_000_000 in
      let* s2 = 0 -- 1_000_000 in
      let* k1 = 1 -- 5 in
      let* k2 = 1 -- 5 in
      let one = Alphabet.make [ "a" ] in
      let mk seed states =
        Gen.nfa (mk_rng seed) ~alphabet:one ~states ~density:0.35
          ~final_prob:0.4
      in
      return (mk s1 k1, mk s2 k2))
    (fun (n1, n2) -> check_against_dfa n1 n2)

let prop_inclusion_empty_initial =
  QCheck2.Test.make ~name:"antichain inclusion with an empty initial set"
    ~count:200
    QCheck2.Gen.(pair gen_nfa gen_nfa)
    (fun (n1, n2) ->
      let gutted =
        Nfa.create ~alphabet:ab ~states:(Nfa.states n1) ~initial:[]
          ~finals:(Rl_prelude.Bitset.elements (Nfa.finals n1))
          ~transitions:(Nfa.transitions n1) ()
      in
      Inclusion.included gutted n2 = Ok () && check_against_dfa n2 gutted)

let prop_inclusion_equivalent =
  QCheck2.Test.make
    ~name:"Inclusion.equivalent matches Dfa.equivalent, witness in sym.diff."
    ~count:300
    QCheck2.Gen.(pair gen_nfa gen_nfa)
    (fun (n1, n2) ->
      let eager =
        Dfa.equivalent (Dfa.determinize n1) (Dfa.determinize n2)
      in
      match (Inclusion.equivalent n1 n2, eager) with
      | Ok (), Ok () -> true
      | Error w, Error _ -> Nfa.accepts n1 w <> Nfa.accepts n2 w
      | _ -> false)

(* the length of a shortest word in L(a) \ L(b), by breadth-first search
   over the product of the two subset automata; [None] when L(a) ⊆ L(b) *)
let shortest_difference a b =
  let da = Dfa.determinize a and db = Dfa.determinize b in
  let k = Alphabet.size (Dfa.alphabet da) in
  let seen = Hashtbl.create 64 and queue = Queue.create () in
  let visit pq d =
    if not (Hashtbl.mem seen pq) then begin
      Hashtbl.add seen pq ();
      Queue.add (pq, d) queue
    end
  in
  visit (Dfa.initial da, Dfa.initial db) 0;
  let rec bfs () =
    match Queue.take_opt queue with
    | None -> None
    | Some ((p, q), d) ->
        if Dfa.is_final da p && not (Dfa.is_final db q) then Some d
        else begin
          for s = 0 to k - 1 do
            visit (Dfa.step da p s, Dfa.step db q s) (d + 1)
          done;
          bfs ()
        end
  in
  bfs ()

let prop_inclusion_witness_shortest =
  QCheck2.Test.make
    ~name:"inclusion witness is a shortest word of L(a) \\ L(b)"
    ~count:500
    QCheck2.Gen.(pair gen_nfa gen_nfa)
    (fun (n1, n2) ->
      match (Inclusion.included n1 n2, shortest_difference n1 n2) with
      | Ok (), None -> true
      | Error w, Some d ->
          Word.length w = d && Nfa.accepts n1 w && not (Nfa.accepts n2 w)
      | _ -> false)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_inclusion_agrees_with_determinize;
      prop_inclusion_single_letter;
      prop_inclusion_empty_initial;
      prop_inclusion_equivalent;
      prop_inclusion_witness_shortest;
      prop_determinize_preserves;
      prop_minimize_preserves;
      prop_minimize_agrees_with_moore;
      prop_minimize_idempotent;
      prop_trim_preserves;
      prop_remove_eps_preserves;
      prop_inter_union_semantics;
      prop_complement_product;
      prop_prefix_language;
      prop_residual_semantics;
      prop_equivalent_hk_vs_product;
      prop_equivalent_witness_valid;
      prop_equivalence_classes;
      prop_reverse_reverse;
      prop_transition_system_shape;
    ]

let () =
  Alcotest.run "automata"
    [
      ( "nfa",
        [
          Alcotest.test_case "accepts" `Quick test_accepts;
          Alcotest.test_case "eps removal" `Quick test_eps_removal;
          Alcotest.test_case "emptiness + shortest word" `Quick test_emptiness;
          Alcotest.test_case "trim" `Quick test_trim;
          Alcotest.test_case "inter/union" `Quick test_inter_union;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "prefix language" `Quick test_prefix_language;
          Alcotest.test_case "residual" `Quick test_residual;
          Alcotest.test_case "map symbols" `Quick test_map_symbols;
        ] );
      ( "dfa",
        [
          Alcotest.test_case "determinize" `Quick test_determinize;
          Alcotest.test_case "minimize size" `Quick test_minimize_size;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "equivalent" `Quick test_equivalent;
          Alcotest.test_case "included" `Quick test_included;
          Alcotest.test_case "states equivalent" `Quick test_states_equivalent;
        ] );
      (* the longest group label sets the column where Alcotest cuts long
         test names; "minimization" keeps it at 12 characters *)
      ( "minimization",
        [
          Alcotest.test_case "clone states merge" `Quick
            test_minimize_merges_clones;
          Alcotest.test_case "finality respected" `Quick
            test_minimize_respects_finality;
        ] );
      ( "inclusion",
        [
          Alcotest.test_case "basic" `Quick test_inclusion_basic;
          Alcotest.test_case "degenerate automata" `Quick test_inclusion_degenerate;
          Alcotest.test_case "budget ticks per pair" `Quick test_inclusion_budget;
        ] );
      ("properties", qsuite);
    ]
