(* Tests for the Büchi library: emptiness (two algorithms), witnesses,
   products, limits, prefix languages and rank-based complementation. *)

open Rl_sigma
open Rl_automata
open Rl_buchi

let ab = Alphabet.make [ "a"; "b" ]
let a_sym = Alphabet.symbol ab "a"
let b_sym = Alphabet.symbol ab "b"
let lasso stem cycle = Lasso.of_names ab ~stem ~cycle

(* Infinitely many a's (□◇a). *)
let inf_a =
  Buchi.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~accepting:[ 1 ]
    ~transitions:
      [ (0, b_sym, 0); (0, a_sym, 1); (1, a_sym, 1); (1, b_sym, 0) ]
    ()

(* Finitely many a's (◇□b): guess the point after which only b occurs. *)
let fin_a =
  Buchi.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~accepting:[ 1 ]
    ~transitions:
      [ (0, a_sym, 0); (0, b_sym, 0); (0, b_sym, 1); (1, b_sym, 1) ]
    ()

let test_member () =
  List.iter
    (fun (x, expect, label) ->
      Alcotest.(check bool) label expect (Buchi.member inf_a x))
    [
      (lasso [] [ "a" ], true, "a^ω");
      (lasso [] [ "a"; "b" ], true, "(ab)^ω");
      (lasso [] [ "b" ], false, "b^ω");
      (lasso [ "a"; "b" ] [ "b" ], false, "ab·b^ω");
      (lasso [ "b"; "b"; "b" ] [ "a"; "b"; "b" ], true, "bbb·(abb)^ω");
    ]

let test_emptiness () =
  Alcotest.(check bool) "inf_a nonempty" false (Buchi.is_empty inf_a);
  Alcotest.(check bool) "ndfs agrees" false (Buchi_oracle.is_empty_ndfs inf_a);
  (* accepting state unreachable from a cycle *)
  let dead =
    Buchi.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~accepting:[ 1 ]
      ~transitions:[ (0, a_sym, 0); (0, b_sym, 1) ]
      ()
  in
  Alcotest.(check bool) "no accepting cycle" true (Buchi.is_empty dead);
  Alcotest.(check bool) "ndfs agrees (empty)" true (Buchi_oracle.is_empty_ndfs dead)

let test_accepting_lasso () =
  match Buchi.accepting_lasso inf_a with
  | None -> Alcotest.fail "expected witness"
  | Some x -> Alcotest.(check bool) "witness accepted" true (Buchi.member inf_a x)

let test_of_lasso () =
  let x = lasso [ "b" ] [ "a"; "b" ] in
  let bx = Buchi.of_lasso ab x in
  Alcotest.(check bool) "x ∈ {x}" true (Buchi.member bx x);
  Alcotest.(check bool) "y ∉ {x}" false (Buchi.member bx (lasso [] [ "a" ]));
  Alcotest.(check bool) "b·(ab)^ω has inf a" true (Buchi.member inf_a x)

let test_trim () =
  let t = Buchi.trim fin_a in
  Alcotest.(check bool) "language kept" true
    (Buchi.member t (lasso [ "a"; "a" ] [ "b" ]));
  Alcotest.(check bool) "still rejects" false (Buchi.member t (lasso [] [ "a"; "b" ]))

let test_inter_unit () =
  let both = Buchi.inter inf_a fin_a in
  (* □◇a ∧ ◇□b is unsatisfiable over {a,b} since ◇□b = ¬□◇a here. *)
  Alcotest.(check bool) "inf_a ∩ fin_a empty" true (Buchi.is_empty both)

let test_union_unit () =
  let either = Buchi.union inf_a fin_a in
  List.iter
    (fun (x, label) ->
      Alcotest.(check bool) label true (Buchi.member either x))
    [ (lasso [] [ "a" ], "a^ω"); (lasso [] [ "b" ], "b^ω"); (lasso [] [ "a"; "b" ], "(ab)^ω") ]

let test_pre_language () =
  let pre = Buchi.pre_language inf_a in
  (* every finite word extends to a word with infinitely many a's *)
  List.iter
    (fun names ->
      Alcotest.(check bool)
        (String.concat "" ("pre:" :: names))
        true
        (Nfa.accepts pre (Word.of_names ab names)))
    [ []; [ "a" ]; [ "b"; "b" ]; [ "a"; "b"; "a" ] ]

let test_pre_language_strict () =
  (* L = a^ω only: pre(L) = a* *)
  let only_a =
    Buchi.create ~alphabet:ab ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
      ~transitions:[ (0, a_sym, 0) ] ()
  in
  let pre = Buchi.pre_language only_a in
  Alcotest.(check bool) "aa ∈" true (Nfa.accepts pre (Word.of_names ab [ "a"; "a" ]));
  Alcotest.(check bool) "ab ∉" false (Nfa.accepts pre (Word.of_names ab [ "a"; "b" ]))

let test_limit_of_dfa () =
  (* L = words ending in a; lim(L) = words with infinitely many ... no:
     lim(L) = ω-words with infinitely many prefixes ending in a
            = ω-words containing infinitely many a's. *)
  let ends_in_a =
    Nfa.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~finals:[ 1 ]
      ~transitions:
        [ (0, a_sym, 1); (0, b_sym, 0); (1, a_sym, 1); (1, b_sym, 0) ]
      ()
  in
  let l = Buchi.limit (Nfa.trim ends_in_a) in
  Alcotest.(check bool) "a^ω ∈ lim" true (Buchi.member l (lasso [] [ "a" ]));
  Alcotest.(check bool) "(ab)^ω ∈ lim" true (Buchi.member l (lasso [] [ "a"; "b" ]));
  Alcotest.(check bool) "b^ω ∉ lim" false (Buchi.member l (lasso [] [ "b" ]));
  Alcotest.(check bool) "a·b^ω ∉ lim" false (Buchi.member l (lasso [ "a" ] [ "b" ]))

let test_complement_unit () =
  let c = Complement.complement inf_a in
  Alcotest.(check bool) "b^ω ∈ comp" true (Buchi.member c (lasso [] [ "b" ]));
  Alcotest.(check bool) "ab·b^ω ∈ comp" true (Buchi.member c (lasso [ "a"; "b" ] [ "b" ]));
  Alcotest.(check bool) "a^ω ∉ comp" false (Buchi.member c (lasso [] [ "a" ]));
  Alcotest.(check bool) "disjoint" true (Buchi.is_empty (Buchi.inter inf_a c))

let test_included () =
  (* {a^ω} ⊆ □◇a *)
  let only_a =
    Buchi.create ~alphabet:ab ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
      ~transitions:[ (0, a_sym, 0) ] ()
  in
  (match Omega_lang.included only_a inf_a with
  | Ok () -> ()
  | Error x -> Alcotest.failf "unexpected witness %a" (Lasso.pp ab) x);
  match Omega_lang.included inf_a only_a with
  | Ok () -> Alcotest.fail "□◇a ⊄ {a^ω}"
  | Error x ->
      Alcotest.(check bool) "witness valid" true
        (Buchi.member inf_a x && not (Buchi.member only_a x))

let test_limit_closed () =
  (* Transition systems are limit closed; ◇□b is not. *)
  let ts =
    Nfa.create ~alphabet:ab ~states:1 ~initial:[ 0 ] ~finals:[ 0 ]
      ~transitions:[ (0, a_sym, 0); (0, b_sym, 0) ]
      ()
  in
  Alcotest.(check bool) "Σ^ω limit closed" true
    (Omega_lang.is_limit_closed (Buchi.of_transition_system ts));
  Alcotest.(check bool) "◇□b not limit closed" false
    (Omega_lang.is_limit_closed fin_a)

let test_safety_closure () =
  let sc = Omega_lang.safety_closure fin_a in
  (* pre(◇□b) = Σ*, so the closure is Σ^ω. *)
  Alcotest.(check bool) "a^ω ∈ closure" true (Buchi.member sc (lasso [] [ "a" ]));
  match Omega_lang.included fin_a sc with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "L ⊆ closure must hold"

(* --- randomized properties --- *)

let mk_rng seed = Rl_prelude.Prng.create seed

let random_buchi ?(all_accepting = false) rng ~states =
  let k = Alphabet.size ab in
  let transitions = ref [] in
  for q = 0 to states - 1 do
    for a = 0 to k - 1 do
      for q' = 0 to states - 1 do
        if Rl_prelude.Prng.float rng < 0.3 then
          transitions := (q, a, q') :: !transitions
      done
    done
  done;
  let accepting =
    List.filter
      (fun _ -> all_accepting || Rl_prelude.Prng.float rng < 0.4)
      (List.init states Fun.id)
  in
  Buchi.create ~alphabet:ab ~states ~initial:[ 0 ] ~accepting
    ~transitions:!transitions ()

let gen_buchi max_states =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- max_states in
    return (random_buchi (mk_rng seed) ~states))

(* Every state accepting half the time, as a system or a closure is: the
   product drops such an operand's set. *)
let gen_buchi_full max_states =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- max_states in
    let* all_accepting = bool in
    return (random_buchi ~all_accepting (mk_rng seed) ~states))

let gen_lasso =
  QCheck2.Gen.(
    pair (list_size (0 -- 3) (0 -- 1)) (list_size (1 -- 3) (0 -- 1))
    >|= fun (s, c) -> Lasso.make (Word.of_list s) (Word.of_list c))

let prop_emptiness_algorithms_agree =
  QCheck2.Test.make ~name:"scc and ndfs emptiness agree" ~count:500 (gen_buchi 7)
    (fun b -> Buchi.is_empty b = Buchi_oracle.is_empty_ndfs b)

let prop_witness_sound =
  QCheck2.Test.make ~name:"accepting_lasso witness is a member" ~count:500
    (gen_buchi 7) (fun b ->
      match Buchi.accepting_lasso b with
      | None -> Buchi.is_empty b
      | Some x -> Buchi.member b x)

let prop_trim_preserves =
  QCheck2.Test.make ~name:"trim preserves membership" ~count:300
    QCheck2.Gen.(pair (gen_buchi 6) gen_lasso)
    (fun (b, x) -> Buchi.member b x = Buchi.member (Buchi.trim b) x)

let prop_inter_semantics =
  QCheck2.Test.make ~name:"inter matches conjunction" ~count:300
    QCheck2.Gen.(triple (gen_buchi 4) (gen_buchi 4) gen_lasso)
    (fun (b1, b2, x) ->
      Buchi.member (Buchi.inter b1 b2) x = (Buchi.member b1 x && Buchi.member b2 x))

(* A generalized automaton with 0-3 acceptance sets, a quarter of them
   holding every state, and up to two initial states, as the triples and
   sets [Gba.create] takes. *)
let gen_gba =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 6 in
    let* m = 0 -- 3 in
    let rng = mk_rng seed in
    let pick p = List.filter (fun _ -> Rl_prelude.Prng.float rng < p) (List.init states Fun.id) in
    let transitions =
      List.concat_map
        (fun q ->
          List.concat_map (fun a -> List.map (fun q' -> (q, a, q')) (pick 0.3)) [ 0; 1 ])
        (List.init states Fun.id)
    in
    let initial = List.init (1 + Rl_prelude.Prng.int rng 2) (fun _ -> Rl_prelude.Prng.int rng states) in
    let set () = if Rl_prelude.Prng.int rng 4 = 0 then pick 1.0 else pick 0.5 in
    return (states, initial, List.init m (fun _ -> set ()), transitions))

let prop_gba_to_buchi_is_trimmed_degeneralization =
  QCheck2.Test.make ~name:"Gba.to_buchi = trim (degeneralize g), structurally" ~count:1000
    gen_gba (fun (states, initial, sets, transitions) ->
      let g =
        Buchi.Gba.create ~alphabet:ab ~states ~initial ~accepting_sets:sets ~transitions ()
      in
      Buchi_oracle.same_structure (Buchi.Gba.to_buchi g)
        (Buchi_oracle.trim
           (Buchi_oracle.degeneralize ~alphabet:ab ~states ~initial ~sets ~transitions)))

let prop_inter_is_five_pass_product =
  QCheck2.Test.make ~name:"inter = the five-pass product, structurally" ~count:1000
    QCheck2.Gen.(pair (gen_buchi_full 5) (gen_buchi_full 5))
    (fun (b1, b2) -> Buchi_oracle.same_structure (Buchi.inter b1 b2) (Buchi_oracle.inter b1 b2))

(* Dropping the sets that hold every state keeps the language: against
   the counter construction over every set, emptiness agrees and so does
   membership of sampled lassos. *)
let same_language x y lassos =
  Buchi.is_empty x = Buchi.is_empty y
  && List.for_all (fun w -> Buchi.member x w = Buchi.member y w) lassos

let prop_gba_full_sets_language =
  QCheck2.Test.make ~name:"Gba.to_buchi accepts what the all-sets counter construction does"
    ~count:500
    QCheck2.Gen.(pair gen_gba (list_size (1 -- 6) gen_lasso))
    (fun ((states, initial, sets, transitions), lassos) ->
      let g =
        Buchi.Gba.create ~alphabet:ab ~states ~initial ~accepting_sets:sets ~transitions ()
      in
      same_language (Buchi.Gba.to_buchi g)
        (Buchi_oracle.counter ~alphabet:ab ~states ~initial ~sets ~transitions)
        lassos)

let prop_inter_full_sets_language =
  QCheck2.Test.make ~name:"inter accepts what the all-sets product does" ~count:500
    QCheck2.Gen.(triple (gen_buchi_full 5) (gen_buchi_full 5) (list_size (1 -- 6) gen_lasso))
    (fun (b1, b2, lassos) ->
      same_language (Buchi.inter b1 b2) (Buchi_oracle.inter_all_sets b1 b2) lassos)

let prop_union_semantics =
  QCheck2.Test.make ~name:"union matches disjunction" ~count:300
    QCheck2.Gen.(triple (gen_buchi 4) (gen_buchi 4) gen_lasso)
    (fun (b1, b2, x) ->
      Buchi.member (Buchi.union b1 b2) x = (Buchi.member b1 x || Buchi.member b2 x))

let prop_complement_partition =
  (* the KV construction is doubly exponential in practice on dense inputs:
     keep the automata small (production paths pre-reduce, cf. Omega_lang) *)
  QCheck2.Test.make ~name:"complement partitions Σ^ω (on lassos)" ~count:150
    QCheck2.Gen.(pair (gen_buchi 3) gen_lasso)
    (fun (b, x) ->
      let c = Complement.complement b in
      Buchi.member b x <> Buchi.member c x)

let prop_complement_disjoint =
  QCheck2.Test.make ~name:"L ∩ comp(L) = ∅" ~count:100 (gen_buchi 3) (fun b ->
      Buchi.is_empty (Buchi.inter b (Complement.complement b)))

(* universality of b ∪ comp(b) is emptiness of a second complement, which
   is exponential: keep the inputs tiny, cap both complementations and skip
   the occasional blow-up — but count the decided cases, so the property
   cannot pass vacuously *)
let covers_decided = ref 0

let prop_complement_covers =
  QCheck2.Test.make ~name:"L ∪ comp(L) = Σ^ω (small cases)" ~count:60
    (gen_buchi 2) (fun b ->
      match
        Rl_buchi.Reduce.quotient
          (Buchi.trim
             (Buchi.union b (Complement.complement ~max_states:20_000 b)))
      with
      | exception Complement.Too_large _ -> true (* skip the blow-up *)
      | u -> (
          Buchi.states u > 6
          ||
          (* u is universal iff its complement is empty *)
          match Complement.complement ~max_states:20_000 u with
          | exception Complement.Too_large _ -> true
          | cu ->
              incr covers_decided;
              Buchi.is_empty cu))

(* the qcheck case for [prop_complement_covers], failing when fewer than
   half of its 60 inputs were decided *)
let complement_covers_case =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_complement_covers in
  ( name,
    speed,
    fun () ->
      covers_decided := 0;
      run ();
      if !covers_decided < 30 then
        Alcotest.failf "L ∪ comp(L) = Σ^ω decided only %d of 60 cases"
          !covers_decided )

(* Oracle for limits: run the DFA along the lasso; the state sequence is
   ultimately periodic, and x ∈ lim(L) iff the periodic part visits a final
   state. *)
let limit_oracle d x =
  let spoke = Lasso.spoke x and p = Lasso.period x in
  let q = ref (Dfa.initial d) in
  for i = 0 to spoke - 1 do
    q := Dfa.step d !q (Lasso.at x i)
  done;
  (* Find the cycle of (offset in cycle, dfa state) pairs. *)
  let seen = Hashtbl.create 16 in
  let pos = ref spoke in
  let result = ref None in
  while !result = None do
    let key = ((!pos - spoke) mod p, !q) in
    match Hashtbl.find_opt seen key with
    | Some start ->
        (* cycle from [start] to [!pos]: accepting iff some final inside *)
        let hit = ref false in
        let qq = ref !q in
        for i = !pos to !pos + (!pos - start) - 1 do
          if Dfa.is_final d !qq then hit := true;
          qq := Dfa.step d !qq (Lasso.at x i)
        done;
        result := Some !hit
    | None ->
        Hashtbl.add seen key !pos;
        q := Dfa.step d !q (Lasso.at x !pos);
        incr pos
  done;
  Option.get !result

let prop_limit_matches_oracle =
  QCheck2.Test.make ~name:"limit_of_dfa matches infinitely-many-prefixes oracle"
    ~count:400
    QCheck2.Gen.(
      let* seed = 0 -- 1_000_000 in
      let* states = 1 -- 5 in
      let rng = mk_rng seed in
      let d = Gen.dfa rng ~alphabet:ab ~states ~final_prob:0.5 in
      let* x = gen_lasso in
      return (d, x))
    (fun (d, x) -> Buchi.member (Buchi.limit_of_dfa d) x = limit_oracle d x)

(* A random ε-free NFA whose states are all final, as [Buchi.limit] reads
   directly: 0-6 states, at most two edges per state on average, so dead
   ends and unreachable states are common; 0 states gives the empty
   NFA. *)
let gen_all_final_nfa =
  QCheck2.Gen.(
    let* states = 0 -- 6 in
    if states = 0 then
      return
        (Nfa.create ~alphabet:ab ~states:0 ~initial:[] ~finals:[]
           ~transitions:[] ())
    else
      let q = 0 -- (states - 1) in
      let* initial = list_size (1 -- 2) q in
      let+ transitions = list_size (0 -- (2 * states)) (triple q (0 -- 1) q) in
      Nfa.create ~alphabet:ab ~states ~initial:(List.sort_uniq compare initial)
        ~finals:(List.init states Fun.id)
        ~transitions ())

(* every lasso over {a, b} with a stem of at most 2 letters and a cycle
   of 1 to 3 *)
let small_lassos =
  let rec words n =
    if n = 0 then [ [] ]
    else List.concat_map (fun w -> [ 0 :: w; 1 :: w ]) (words (n - 1))
  in
  let upto lo hi = List.concat_map words (List.init (hi - lo + 1) (( + ) lo)) in
  List.concat_map
    (fun s ->
      List.map
        (fun c -> Lasso.make (Word.of_list s) (Word.of_list c))
        (upto 1 3))
    (upto 0 2)

let prop_limit_direct_reading =
  QCheck2.Test.make
    ~name:"limit of an all-final NFA = limit_of_dfa of its determinization"
    ~count:500 ~long_factor:20 ~print:(Format.asprintf "%a" Nfa.pp)
    gen_all_final_nfa
    (fun n ->
      let direct = Buchi.limit n in
      let via_dfa = Buchi.limit_of_dfa (Dfa.determinize n) in
      Buchi.states direct = Nfa.states n
      && List.for_all
           (fun x -> Buchi.member direct x = Buchi.member via_dfa x)
           small_lassos)

let prop_transition_system_limit_closed =
  QCheck2.Test.make ~name:"transition systems are limit closed" ~count:40
    QCheck2.Gen.(pair (0 -- 1_000_000) (1 -- 4))
    (fun (seed, states) ->
      let rng = mk_rng seed in
      let ts = Gen.transition_system rng ~alphabet:ab ~states ~branching:1.4 in
      Omega_lang.is_limit_closed (Buchi.of_transition_system ts))

let prop_pre_language_correct =
  QCheck2.Test.make ~name:"pre(Lω) membership: w ∈ pre iff live continuation"
    ~count:300
    QCheck2.Gen.(
      let* b = gen_buchi 5 in
      let* w = list_size (0 -- 5) (0 -- 1) in
      return (b, Word.of_list w))
    (fun (b, w) ->
      let in_pre = Nfa.accepts (Buchi.pre_language b) w in
      (* oracle: does some accepting run read w as a prefix? Decide by
         moving the initial states along w and checking emptiness. *)
      let rec reach_sets states i =
        if i >= Word.length w then states
        else
          let next =
            List.sort_uniq compare
              (List.concat_map (fun q -> Buchi.successors b q (Word.get w i)) states)
          in
          reach_sets next (i + 1)
      in
      let reached = reach_sets (Buchi.initial b) 0 in
      let shifted =
        Buchi.create ~alphabet:ab ~states:(Buchi.states b) ~initial:reached
          ~accepting:(Rl_prelude.Bitset.elements (Buchi.accepting b))
          ~transitions:(Buchi.transitions b) ()
      in
      in_pre = not (Buchi.is_empty shifted))

let prop_simulation_quotient_preserves =
  QCheck2.Test.make ~name:"simulation quotient preserves membership" ~count:300
    QCheck2.Gen.(pair (gen_buchi 6) gen_lasso)
    (fun (b, x) -> Buchi.member b x = Buchi.member (Reduce.quotient b) x)

let prop_simulation_quotient_shrinks =
  QCheck2.Test.make ~name:"simulation quotient never grows" ~count:300
    (gen_buchi 6)
    (fun b -> Buchi.states (Reduce.quotient b) <= Buchi.states b)

let test_simulation_quotient_merges () =
  (* two identical accepting sink components must merge *)
  let b =
    Buchi.create ~alphabet:ab ~states:3 ~initial:[ 0 ] ~accepting:[ 1; 2 ]
      ~transitions:
        [ (0, a_sym, 1); (0, a_sym, 2); (1, a_sym, 1); (2, a_sym, 2) ]
      ()
  in
  Alcotest.(check int) "duplicates merged" 2 (Buchi.states (Reduce.quotient b))

let test_simulation_preorder () =
  (* in inf_a, the accepting state simulates... check reflexivity and the
     acceptance constraint *)
  let sim = Reduce.direct_simulation inf_a in
  Alcotest.(check bool) "reflexive 0" true sim.(0).(0);
  Alcotest.(check bool) "reflexive 1" true sim.(1).(1);
  Alcotest.(check bool) "accepting not simulated by plain" false sim.(1).(0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_simulation_quotient_preserves;
      prop_simulation_quotient_shrinks;
      prop_emptiness_algorithms_agree;
      prop_witness_sound;
      prop_trim_preserves;
      prop_inter_semantics;
      prop_gba_to_buchi_is_trimmed_degeneralization;
      prop_inter_is_five_pass_product;
      prop_gba_full_sets_language;
      prop_inter_full_sets_language;
      prop_union_semantics;
      prop_complement_partition;
      prop_complement_disjoint;
      prop_limit_matches_oracle;
      prop_limit_direct_reading;
      prop_transition_system_limit_closed;
      prop_pre_language_correct;
    ]
  @ [ complement_covers_case ]

let () =
  Alcotest.run "buchi"
    [
      ( "basics",
        [
          Alcotest.test_case "member" `Quick test_member;
          Alcotest.test_case "emptiness" `Quick test_emptiness;
          Alcotest.test_case "accepting lasso" `Quick test_accepting_lasso;
          Alcotest.test_case "of_lasso" `Quick test_of_lasso;
          Alcotest.test_case "trim" `Quick test_trim;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "duplicate merge" `Quick test_simulation_quotient_merges;
          Alcotest.test_case "simulation preorder" `Quick test_simulation_preorder;
        ] );
      ( "boolean",
        [
          Alcotest.test_case "inter" `Quick test_inter_unit;
          Alcotest.test_case "union" `Quick test_union_unit;
          Alcotest.test_case "complement" `Quick test_complement_unit;
          Alcotest.test_case "included" `Quick test_included;
        ] );
      ( "prefix-limit",
        [
          Alcotest.test_case "pre language" `Quick test_pre_language;
          Alcotest.test_case "pre language strict" `Quick test_pre_language_strict;
          Alcotest.test_case "limit of dfa" `Quick test_limit_of_dfa;
          Alcotest.test_case "limit closed" `Quick test_limit_closed;
          Alcotest.test_case "safety closure" `Quick test_safety_closure;
        ] );
      ("properties", qsuite);
    ]
