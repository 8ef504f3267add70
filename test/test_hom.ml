(* Tests for abstracting homomorphisms: images, preimages, maximal words,
   #-extension and the simplicity decision procedure. *)

open Rl_sigma
open Rl_automata
open Rl_hom

let abc = Alphabet.make [ "a"; "b"; "c" ]
let uv = Alphabet.make [ "u"; "v" ]

let h_rename_hide =
  (* a↦u, b↦v, c↦ε *)
  Hom.create ~concrete:abc ~abstract:uv
    [ ("a", Some "u"); ("b", Some "v"); ("c", None) ]

let test_create_errors () =
  Alcotest.check_raises "unmapped symbol"
    (Invalid_argument "Hom.create: some concrete symbol left unmapped")
    (fun () ->
      ignore (Hom.create ~concrete:abc ~abstract:uv [ ("a", Some "u") ]));
  Alcotest.check_raises "unknown target"
    (Invalid_argument "Hom.create: unknown abstract symbol \"w\"") (fun () ->
      ignore
        (Hom.create ~concrete:abc ~abstract:uv
           [ ("a", Some "w"); ("b", Some "v"); ("c", None) ]))

let test_apply () =
  let w = Word.of_names abc [ "a"; "c"; "b"; "c"; "c"; "a" ] in
  Alcotest.(check (list int)) "word image" [ 0; 1; 0 ]
    (Word.to_list (Hom.apply_word h_rename_hide w));
  let x = Lasso.of_names abc ~stem:[ "c" ] ~cycle:[ "a"; "c" ] in
  (match Hom.apply_lasso h_rename_hide x with
  | Ok y ->
      Alcotest.(check bool) "lasso image" true
        (Lasso.equal y (Lasso.of_names uv ~stem:[] ~cycle:[ "u" ]))
  | Error _ -> Alcotest.fail "image should be infinite");
  let dead = Lasso.of_names abc ~stem:[ "a" ] ~cycle:[ "c" ] in
  match Hom.apply_lasso h_rename_hide dead with
  | Ok _ -> Alcotest.fail "image should be finite"
  | Error w -> Alcotest.(check int) "finite image" 1 (Word.length w)

let test_hiding () =
  let h = Hom.hiding ~concrete:abc ~keep:[ "a" ] in
  Alcotest.(check int) "abstract size" 1 (Alphabet.size (Hom.abstract h));
  Alcotest.(check (option int)) "a kept" (Some 0) (Hom.apply_symbol h 0);
  Alcotest.(check (option int)) "b hidden" None (Hom.apply_symbol h 1)

(* --- image / preimage --- *)

let gen_ts =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 5 in
    return
      (Gen.transition_system (Helpers.mk_rng seed) ~alphabet:abc ~states
         ~branching:1.5))

let gen_word_abc = QCheck2.Gen.(list_size (0 -- 6) (0 -- 2) >|= Word.of_list)
let gen_word_uv = QCheck2.Gen.(list_size (0 -- 6) (0 -- 1) >|= Word.of_list)

let prop_image_sound =
  QCheck2.Test.make ~name:"w ∈ L implies h(w) ∈ h(L)" ~count:400
    QCheck2.Gen.(pair gen_ts gen_word_abc)
    (fun (ts, w) ->
      (not (Nfa.accepts ts w))
      || Nfa.accepts (Hom.image h_rename_hide ts) (Hom.apply_word h_rename_hide w))

let prop_preimage_exact =
  QCheck2.Test.make ~name:"w ∈ h⁻¹(M) iff h(w) ∈ M" ~count:400
    QCheck2.Gen.(
      let* seed = 0 -- 1_000_000 in
      let* states = 1 -- 5 in
      let d =
        Dfa.determinize
          (Gen.nfa (Helpers.mk_rng seed) ~alphabet:uv ~states ~density:0.3
             ~final_prob:0.5)
      in
      let* w = gen_word_abc in
      return (d, w))
    (fun (m, w) ->
      Dfa.accepts (Hom.preimage h_rename_hide m) w
      = Dfa.accepts m (Hom.apply_word h_rename_hide w))

let prop_image_preimage_roundtrip =
  (* L ⊆ h⁻¹(h(L)) *)
  QCheck2.Test.make ~name:"L ⊆ h⁻¹(h(L))" ~count:200
    QCheck2.Gen.(pair gen_ts gen_word_abc)
    (fun (ts, w) ->
      (not (Nfa.accepts ts w))
      || Dfa.accepts
           (Hom.preimage h_rename_hide (Dfa.determinize (Hom.image h_rename_hide ts)))
           w)

(* --- maximal words --- *)

let test_maximal_units () =
  (* a* has no maximal word; {ε, a} does *)
  let star =
    Nfa.create ~alphabet:uv ~states:1 ~initial:[ 0 ] ~finals:[ 0 ]
      ~transitions:[ (0, 0, 0) ] ()
  in
  Alcotest.(check bool) "u* has none" false (Hom.has_maximal_words star);
  let finite =
    Nfa.create ~alphabet:uv ~states:2 ~initial:[ 0 ] ~finals:[ 0; 1 ]
      ~transitions:[ (0, 0, 1) ] ()
  in
  Alcotest.(check bool) "{ε,u} has one" true (Hom.has_maximal_words finite);
  let ext = Hom.hash_extend finite in
  Alcotest.(check bool) "after # extension: none" false (Hom.has_maximal_words ext);
  let al = Nfa.alphabet ext in
  Alcotest.(check bool) "u## accepted" true
    (Nfa.accepts ext (Word.of_names al [ "u"; "#"; "#" ]));
  Alcotest.(check bool) "#u rejected" false
    (Nfa.accepts ext (Word.of_names al [ "u"; "#"; "u" ]))

let prop_hash_extend =
  QCheck2.Test.make ~name:"hash_extend: kills maximal words, keeps old language"
    ~count:200
    QCheck2.Gen.(
      let* seed = 0 -- 1_000_000 in
      let* states = 1 -- 5 in
      let n =
        Gen.nfa (Helpers.mk_rng seed) ~alphabet:uv ~states ~density:0.3
          ~final_prob:0.5
      in
      let* w = gen_word_uv in
      return (n, w))
    (fun (n, w) ->
      if Nfa.is_empty n then true
      else begin
        let ext = Hom.hash_extend n in
        (not (Hom.has_maximal_words ext))
        &&
        (* words without # are unaffected; reuse symbols (same indices) *)
        Nfa.accepts n w = Nfa.accepts ext w
      end)

(* --- simplicity --- *)

let test_simple_identity () =
  (* a bijective renaming is always simple *)
  let rename =
    Hom.create ~concrete:abc ~abstract:(Alphabet.make [ "x"; "y"; "z" ])
      [ ("a", Some "x"); ("b", Some "y"); ("c", Some "z") ]
  in
  let ts =
    Gen.transition_system (Helpers.mk_rng 5) ~alphabet:abc ~states:4
      ~branching:1.6
  in
  Alcotest.(check bool) "renaming simple" true (Hom.analyze rename ts).Hom.simple

let test_simple_total_hiding () =
  (* hiding everything: h(L) = {ε}; both continuation sets are {ε} *)
  let hide_all =
    Hom.create ~concrete:abc ~abstract:uv
      [ ("a", None); ("b", None); ("c", None) ]
  in
  let ts =
    Gen.transition_system (Helpers.mk_rng 9) ~alphabet:abc ~states:3
      ~branching:1.4
  in
  Alcotest.(check bool) "total hiding simple" true (Hom.analyze hide_all ts).Hom.simple

let test_same_letter_branches_are_simple () =
  (* both branches are taken by the SAME hidden letter, so the word "a"
     does not commit: the reached state set is {1,2} and
     h(cont(a, L)) = {u,v}* = cont(ε, h(L)) — simple. *)
  let ts =
    Nfa.create ~alphabet:abc ~states:3 ~initial:[ 0 ] ~finals:[ 0; 1; 2 ]
      ~transitions:[ (0, 0, 1); (0, 0, 2); (1, 1, 1); (2, 1, 2); (2, 2, 2) ]
      ()
  in
  let h =
    Hom.create ~concrete:abc ~abstract:uv
      [ ("a", None); ("b", Some "u"); ("c", Some "v") ]
  in
  Alcotest.(check bool) "nondeterministic branching stays simple" true
    (Hom.analyze h ts).Hom.simple

let test_not_simple_committed_choice () =
  (* the system commits invisibly through two DIFFERENT hidden letters:
     after hidden s it can only do b's, after hidden t it can do b's and
     c's. Abstractly both look like ε, so cont(ε, h(L)) = {u,v}* while
     h(cont(s, L)) = u* — and no continuation ever reconciles them. *)
  let stbc = Alphabet.make [ "s"; "t"; "b"; "c" ] in
  let ts =
    Nfa.create ~alphabet:stbc ~states:3 ~initial:[ 0 ] ~finals:[ 0; 1; 2 ]
      ~transitions:
        [
          (0, 0, 1);
          (* s (hidden) -> commit to b-only *)
          (0, 1, 2);
          (* t (hidden) -> b and c available *)
          (1, 2, 1);
          (* b loop on state 1 *)
          (2, 2, 2);
          (2, 3, 2);
          (* b and c loop on state 2 *)
        ]
      ()
  in
  let h =
    Hom.create ~concrete:stbc ~abstract:uv
      [ ("s", None); ("t", None); ("b", Some "u"); ("c", Some "v") ]
  in
  let verdict = Hom.analyze h ts in
  Alcotest.(check bool) "not simple" false verdict.Hom.simple;
  match verdict.Hom.witness with
  | None -> Alcotest.fail "expected witness"
  | Some w -> Alcotest.(check bool) "witness fails" false (Hom_oracle.simple_at h ts w)

let test_not_simple_committed_choice_nondeterministic () =
  (* same, but the invisible commitment happens through nondeterminism on
     a VISIBLE letter: state set {1,2} vs the abstract view *)
  let ts =
    Nfa.create ~alphabet:abc ~states:3 ~initial:[ 0 ] ~finals:[ 0; 1; 2 ]
      ~transitions:
        [
          (0, 1, 1); (* b -> b-only *)
          (1, 1, 1);
          (0, 2, 2); (* c (hidden) -> b and c... *)
          (2, 1, 2);
          (2, 2, 2);
        ]
      ()
  in
  (* hide c: from the abstract view, after ε the system may be committed to
     u-only (via b... no: b visible). Check what the decision procedure
     says and that it agrees with the pointwise check on several words. *)
  let h =
    Hom.create ~concrete:abc ~abstract:uv
      [ ("a", Some "u"); ("b", Some "u"); ("c", None) ]
  in
  let verdict = Hom.analyze h ts in
  List.iter
    (fun names ->
      let w = Word.of_names abc names in
      (* pointwise check must agree with the global one on every word *)
      if not verdict.Hom.simple then ()
      else Alcotest.(check bool) (String.concat "." names) true
          (Hom_oracle.simple_at h ts w))
    [ []; [ "c" ]; [ "b" ]; [ "c"; "b" ] ]

let prop_analyze_agrees_with_pointwise =
  (* the global analysis agrees with the pointwise decision on sampled
     words of L *)
  QCheck2.Test.make ~name:"analyze agrees with simple_at on sampled words"
    ~count:150
    QCheck2.Gen.(
      let* seed = 0 -- 1_000_000 in
      let* states = 1 -- 4 in
      let rng = Helpers.mk_rng seed in
      let ts = Gen.transition_system rng ~alphabet:abc ~states ~branching:1.5 in
      let* targets = array_size (return 3) (0 -- 2) in
      let mapping =
        List.mapi
          (fun i name ->
            ( name,
              match targets.(i) with 0 -> Some "u" | 1 -> Some "v" | _ -> None ))
          (Alphabet.names abc)
      in
      let h = Hom.create ~concrete:abc ~abstract:uv mapping in
      let* wseed = 0 -- 1_000_000 in
      return (ts, h, wseed))
    (fun (ts, h, wseed) ->
      let verdict = Hom.analyze h ts in
      (* sample a word of L by random walk *)
      let rng = Helpers.mk_rng wseed in
      let len = Rl_prelude.Prng.int rng 5 in
      let rec walk q acc n =
        if n = 0 then List.rev acc
        else
          let moves =
            List.concat_map
              (fun a ->
                List.map (fun q' -> (a, q')) (Nfa.successors ts q a))
              (List.init 3 Fun.id)
          in
          match moves with
          | [] -> List.rev acc
          | _ ->
              let a, q' = Rl_prelude.Prng.choose rng moves in
              walk q' (a :: acc) (n - 1)
      in
      let start = List.hd (Nfa.initial ts) in
      let w = Word.of_list (walk start [] len) in
      let pointwise = Hom_oracle.simple_at h ts w in
      (* global simple ⟹ pointwise simple everywhere; global failure at
         the witness is checked elsewhere *)
      (not verdict.Hom.simple) || pointwise)

let prop_simplicity_witness_sound =
  QCheck2.Test.make ~name:"simplicity failure witness is confirmed pointwise"
    ~count:150
    QCheck2.Gen.(
      let* seed = 0 -- 1_000_000 in
      let* states = 1 -- 4 in
      let rng = Helpers.mk_rng seed in
      let ts = Gen.transition_system rng ~alphabet:abc ~states ~branching:1.5 in
      let* targets = array_size (return 3) (0 -- 2) in
      let mapping =
        List.mapi
          (fun i name ->
            ( name,
              match targets.(i) with 0 -> Some "u" | 1 -> Some "v" | _ -> None ))
          (Alphabet.names abc)
      in
      return (ts, Hom.create ~concrete:abc ~abstract:uv mapping))
    (fun (ts, h) ->
      match Hom.analyze h ts with
      | { Hom.simple = true; witness = None; _ } -> true
      | { Hom.simple = true; witness = Some _; _ } -> false
      | { Hom.simple = false; witness = None; _ } -> false
      | { Hom.simple = false; witness = Some w; _ } ->
          not (Hom_oracle.simple_at h ts w))

(* The C7 hidden pipeline: [stages] hidden steps into an observable
   ok/fail loop; with [fail_every], every such stage can also fail
   straight into the loop. *)
let pipeline ?fail_every stages =
  let alpha = Alphabet.make [ "step"; "ok"; "fail" ] in
  let s = Alphabet.symbol alpha in
  let loop = [ (stages, s "ok", stages); (stages, s "fail", stages) ] in
  let steps =
    List.init stages (fun i ->
        let fails =
          match fail_every with
          | Some m when i mod m = m - 1 -> [ (i, s "fail", stages) ]
          | _ -> []
        in
        (i, s "step", i + 1) :: fails)
  in
  let ts =
    Nfa.create ~alphabet:alpha ~states:(stages + 1) ~initial:[ 0 ]
      ~finals:(List.init (stages + 1) Fun.id)
      ~transitions:(loop @ List.concat steps) ()
  in
  (ts, Hom.hiding ~concrete:alpha ~keep:[ "ok"; "fail" ])

(* Random systems over 2–4 concrete letters, each renamed onto u or v or
   hidden, and now and then a hidden pipeline. *)
let gen_simplicity_case =
  QCheck2.Gen.(
    frequency
      [
        ( 9,
          let* seed = 0 -- 1_000_000 in
          let* letters = 2 -- 4 in
          let* states = 1 -- 9 in
          let* branching = float_range 1.0 2.0 in
          let concrete =
            Alphabet.make (List.filteri (fun i _ -> i < letters) [ "a"; "b"; "c"; "d" ])
          in
          let ts =
            Gen.transition_system (Helpers.mk_rng seed) ~alphabet:concrete
              ~states ~branching
          in
          let+ targets = list_repeat letters (0 -- 2) in
          let mapping =
            List.map2
              (fun name t ->
                (name, match t with 0 -> Some "u" | 1 -> Some "v" | _ -> None))
              (Alphabet.names concrete) targets
          in
          (ts, Hom.create ~concrete ~abstract:uv mapping) );
        ( 1,
          let* stages = 4 -- 64 in
          let+ fail_every = opt (1 -- 4) in
          pipeline ?fail_every stages );
      ])

let prop_analyze_matches_oracle =
  QCheck2.Test.make ~name:"analyze = per-S oracle: simple, configurations, witness"
    ~count:1000 ~long_factor:20
    ~print:(fun (ts, h) -> Format.asprintf "%a@.%a" Nfa.pp ts Hom.pp h)
    gen_simplicity_case
    (fun (ts, h) ->
      let v = Hom.analyze h ts and o = Hom_oracle.analyze h ts in
      v.Hom.simple = o.Hom.simple
      && v.Hom.configurations = o.Hom.configurations
      && Option.equal Word.equal v.Hom.witness o.Hom.witness)

(* The work [analyze] does is one tick per configuration and one per row
   of its subset table: on the 128-stage pipeline, 130 configurations and
   129 rows. *)
let test_pipeline_budget () =
  let ts, h = pipeline 128 in
  let budget = Rl_engine_kernel.Budget.create () in
  let v = Hom.analyze ~budget h ts in
  Alcotest.(check bool) "simple" true v.Hom.simple;
  Alcotest.(check int) "configurations" 130 v.Hom.configurations;
  Alcotest.(check int) "states explored" 259
    (Rl_engine_kernel.Budget.states_explored budget);
  match
    Hom.analyze ~budget:(Rl_engine_kernel.Budget.create ~max_states:200 ()) h ts
  with
  | _ -> Alcotest.fail "a 200-state budget should run out"
  | exception Rl_engine_kernel.Budget.Exhausted _ -> ()

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_image_sound;
      prop_preimage_exact;
      prop_image_preimage_roundtrip;
      prop_hash_extend;
      prop_analyze_agrees_with_pointwise;
      prop_simplicity_witness_sound;
      prop_analyze_matches_oracle;
    ]

let () =
  Alcotest.run "hom"
    [
      ( "basics",
        [
          Alcotest.test_case "create errors" `Quick test_create_errors;
          Alcotest.test_case "apply" `Quick test_apply;
          Alcotest.test_case "hiding" `Quick test_hiding;
        ] );
      ( "maximal-words",
        [ Alcotest.test_case "units + # extension" `Quick test_maximal_units ] );
      ( "simplicity",
        [
          Alcotest.test_case "renaming is simple" `Quick test_simple_identity;
          Alcotest.test_case "total hiding is simple" `Quick test_simple_total_hiding;
          Alcotest.test_case "same-letter branching is simple" `Quick
            test_same_letter_branches_are_simple;
          Alcotest.test_case "committed choice is not simple" `Quick
            test_not_simple_committed_choice;
          Alcotest.test_case "nondeterministic variant" `Quick
            test_not_simple_committed_choice_nondeterministic;
          Alcotest.test_case "pipeline work bound" `Quick test_pipeline_budget;
        ] );
      ("properties", qsuite);
    ]
