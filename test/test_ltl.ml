(* Tests for the PLTL library: parser, normal forms, direct semantics,
   Büchi translation (checked against the direct semantics), Σ-normal form
   and the Section 7 T / R̄ transformations (checked against Lemma 7.5). *)

open Rl_sigma
open Rl_buchi
open Rl_ltl

let ab = Alphabet.make [ "a"; "b" ]
let abc = Alphabet.make [ "a"; "b"; "c" ]
let lam = Semantics.canonical ab
let parse = Parser.parse
let lasso ?(al = ab) stem cycle = Lasso.of_names al ~stem ~cycle

(* --- parser --- *)

let test_parse_basic () =
  let cases =
    [
      ("true", Formula.True);
      ("a", Formula.Atom "a");
      ("!a", Formula.Not (Atom "a"));
      ("a & b", Formula.And (Atom "a", Atom "b"));
      ("a | b", Formula.Or (Atom "a", Atom "b"));
      ("a -> b", Formula.Implies (Atom "a", Atom "b"));
      ("a <-> b", Formula.Iff (Atom "a", Atom "b"));
      ("X a", Formula.Next (Atom "a"));
      ("F a", Formula.Eventually (Atom "a"));
      ("G a", Formula.Always (Atom "a"));
      ("<> a", Formula.Eventually (Atom "a"));
      ("[] a", Formula.Always (Atom "a"));
      ("a U b", Formula.Until (Atom "a", Atom "b"));
      ("a R b", Formula.Release (Atom "a", Atom "b"));
      ("a W b", Formula.Wuntil (Atom "a", Atom "b"));
      ("a B b", Formula.Back (Atom "a", Atom "b"));
      ("[]<> result", Formula.Always (Eventually (Atom "result")));
    ]
  in
  List.iter
    (fun (s, expected) ->
      Alcotest.(check bool) s true (Formula.equal (parse s) expected))
    cases

let test_parse_precedence () =
  (* & binds tighter than |, U tighter than & *)
  Alcotest.(check bool) "a | b & c" true
    (Formula.equal (parse "a | b & c") (Or (Atom "a", And (Atom "b", Atom "c"))));
  Alcotest.(check bool) "a & b U c" true
    (Formula.equal (parse "a & b U c") (And (Atom "a", Until (Atom "b", Atom "c"))));
  Alcotest.(check bool) "right-assoc U" true
    (Formula.equal (parse "a U b U c")
       (Until (Atom "a", Until (Atom "b", Atom "c"))));
  Alcotest.(check bool) "! binds tightest" true
    (Formula.equal (parse "!a & b") (And (Not (Atom "a"), Atom "b")))

let test_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check (option reject)) s None
        (Option.map (fun _ -> ()) (Parser.parse_opt s)))
    [ ""; "a &"; "(a"; "a b"; "U a"; "a <- b"; "1x" ]

(* --- normal forms --- *)

let test_nnf_examples () =
  (* nnf output uses the core connectives: □ appears as false R · *)
  Alcotest.(check string) "¬◇a" "false R !a"
    (Formula.to_string (Formula.nnf (parse "!<>a")));
  Alcotest.(check string) "¬(aUb)" "!a R !b"
    (Formula.to_string (Formula.nnf (parse "!(a U b)")));
  Alcotest.(check string) "B-expansion" "a R !b"
    (Formula.to_string (Formula.nnf (parse "a B b")))

let test_pure_boolean () =
  Alcotest.(check bool) "bool" true (Formula.is_pure_boolean (parse "a & !b | true"));
  Alcotest.(check bool) "temporal" false (Formula.is_pure_boolean (parse "a & X b"))

(* --- direct semantics --- *)

let sat ?(l = lam) x f = Semantics.satisfies ~labeling:l x f

let test_semantics_units () =
  let x_ab = lasso [] [ "a"; "b" ] in
  let x_ab_tail_b = lasso [ "a"; "b"; "a" ] [ "b" ] in
  List.iter
    (fun (x, s, expect) ->
      Alcotest.(check bool) (Formula.to_string (parse s)) expect (sat x (parse s)))
    [
      (x_ab, "a", true);
      (x_ab, "b", false);
      (x_ab, "X b", true);
      (x_ab, "X X a", true);
      (x_ab, "[]<> a", true);
      (x_ab, "[]<> b", true);
      (x_ab, "<>[] a", false);
      (x_ab, "a U b", true);
      (x_ab, "b U a", true);
      (x_ab, "[] (a -> X b)", true);
      (x_ab, "[] (b -> X a)", true);
      (x_ab_tail_b, "<>[] b", true);
      (x_ab_tail_b, "[]<> a", false);
      (x_ab_tail_b, "a U b", true);
      (x_ab_tail_b, "[] (a | b)", true);
    ]

let test_semantics_suffix () =
  let x = lasso [ "a" ] [ "b" ] in
  Alcotest.(check bool) "at 0" true (Semantics.satisfies_at ~labeling:lam x 0 (parse "a"));
  Alcotest.(check bool) "at 1" true (Semantics.satisfies_at ~labeling:lam x 1 (parse "b"));
  Alcotest.(check bool) "at 7" true (Semantics.satisfies_at ~labeling:lam x 7 (parse "[] b"))

let test_semantics_release_back () =
  let x = lasso [] [ "b" ] in
  (* false R b = [] b *)
  Alcotest.(check bool) "release" true (sat x (parse "false R b"));
  (* a B b = ¬(¬a U b): b never happens here, so it holds *)
  Alcotest.(check bool) "back" true (sat x (parse "a B a"));
  Alcotest.(check bool) "weak until" true (sat x (parse "b W a"))

(* --- formula generator --- *)

let gen_formula_over atoms ~negations =
  let open QCheck2.Gen in
  let atom = oneofl (List.map (fun p -> Formula.Atom p) atoms) in
  let leaf =
    frequency [ (6, atom); (1, return Formula.True); (1, return Formula.False) ]
  in
  sized_size (0 -- 5)
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           let bin f = map2 f sub sub in
           let un f = map f sub in
           frequency
             ([
                (2, leaf);
                (2, bin (fun a b -> Formula.And (a, b)));
                (2, bin (fun a b -> Formula.Or (a, b)));
                (2, un (fun a -> Formula.Next a));
                (2, bin (fun a b -> Formula.Until (a, b)));
                (1, bin (fun a b -> Formula.Release (a, b)));
                (1, un (fun a -> Formula.Eventually a));
                (1, un (fun a -> Formula.Always a));
              ]
             @
             if negations then
               [
                 (2, un (fun a -> Formula.Not a));
                 (1, bin (fun a b -> Formula.Implies (a, b)));
                 (1, bin (fun a b -> Formula.Iff (a, b)));
                 (1, bin (fun a b -> Formula.Wuntil (a, b)));
                 (1, bin (fun a b -> Formula.Back (a, b)));
               ]
             else []))

let gen_formula = gen_formula_over [ "a"; "b" ] ~negations:true

let gen_lasso_ab =
  QCheck2.Gen.(
    pair (list_size (0 -- 4) (0 -- 1)) (list_size (1 -- 4) (0 -- 1))
    >|= fun (s, c) -> Lasso.make (Word.of_list s) (Word.of_list c))

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:1000 gen_formula
    (fun f -> Formula.equal (parse (Formula.to_string f)) f)

let prop_nnf_preserves =
  QCheck2.Test.make ~name:"nnf preserves semantics" ~count:800
    QCheck2.Gen.(pair gen_formula gen_lasso_ab)
    (fun (f, x) -> sat x f = sat x (Formula.nnf f))

let prop_nnf_is_pnf =
  QCheck2.Test.make ~name:"nnf output is positive normal form" ~count:800
    gen_formula (fun f -> Formula.is_positive_normal (Formula.nnf f))

let prop_expand_preserves =
  QCheck2.Test.make ~name:"expand preserves semantics" ~count:800
    QCheck2.Gen.(pair gen_formula gen_lasso_ab)
    (fun (f, x) -> sat x f = sat x (Formula.expand f))

(* --- translation --- *)

let prop_translation_matches_semantics =
  QCheck2.Test.make ~name:"to_buchi matches direct semantics" ~count:500
    QCheck2.Gen.(pair gen_formula gen_lasso_ab)
    (fun (f, x) ->
      let b = Translate.to_buchi ~alphabet:ab ~labeling:lam f in
      Buchi.member b x = sat x f)

let prop_translation_neg_is_complement =
  QCheck2.Test.make ~name:"to_buchi_neg complements on lassos" ~count:300
    QCheck2.Gen.(pair gen_formula gen_lasso_ab)
    (fun (f, x) ->
      let b = Translate.to_buchi_neg ~alphabet:ab ~labeling:lam f in
      Buchi.member b x = not (sat x f))

(* [f ∨ X^64 false] has f's language and a closure wider than one
   machine word, so it runs the tableau over multi-word bitsets. *)
let prop_translation_wide_closure =
  QCheck2.Test.make ~name:"to_buchi over a closure wider than a word" ~count:200
    QCheck2.Gen.(pair gen_formula gen_lasso_ab)
    (fun (f, x) ->
      let rec pad k g = if k = 0 then g else pad (k - 1) (Formula.Next g) in
      let wide = Formula.Or (f, pad 64 Formula.False) in
      let b = Translate.to_buchi ~alphabet:ab ~labeling:lam wide in
      Buchi.member b x = sat x f
      && Buchi.states b = Buchi.states (Translate.to_buchi ~alphabet:ab ~labeling:lam f))

(* The word-array tableau against the bitset tableau it replaced
   ([Translate_oracle]): the same states, initial list, accepting set
   and successor lists, in order. [f ∨ X^k false] widens the closure past
   one machine word (k = 64) or two (k = 127) without changing [f]'s
   language. *)
let prop_translation_matches_bitset_tableau =
  QCheck2.Test.make ~name:"to_buchi = the bitset tableau, structurally"
    ~count:300 ~long_factor:20 ~print:Formula.to_string
    QCheck2.Gen.(
      pair gen_formula (oneofl [ 0; 64; 127 ]) >|= fun (f, k) ->
      let rec pad k g = if k = 0 then g else pad (k - 1) (Formula.Next g) in
      if k = 0 then f else Formula.Or (f, pad k Formula.False))
    (fun f ->
      List.for_all
        (fun g ->
          Buchi_oracle.same_structure
            (Translate.to_buchi ~alphabet:ab ~labeling:lam g)
            (Translate_oracle.to_buchi ~alphabet:ab ~labeling:lam g))
        [ f; Formula.not_ f ])

let test_translation_units () =
  let b = Translate.to_buchi ~alphabet:ab ~labeling:lam (parse "[]<> a") in
  Alcotest.(check bool) "(ab)^ω ⊨ □◇a" true (Buchi.member b (lasso [] [ "a"; "b" ]));
  Alcotest.(check bool) "ab·b^ω ⊭" false (Buchi.member b (lasso [ "a"; "b" ] [ "b" ]));
  let c = Translate.to_buchi ~alphabet:ab ~labeling:lam (parse "false") in
  Alcotest.(check bool) "false is empty" true (Buchi.is_empty c);
  let t = Translate.to_buchi ~alphabet:ab ~labeling:lam (parse "true") in
  Alcotest.(check bool) "true accepts" true (Buchi.member t (lasso [] [ "b" ]))

(* --- the formula-set GPVW tableau, kept as a reference ---

   The translator as it was before closure numbering and node merging:
   [FSet]s of formula trees, a linear node search keyed on (old, next),
   and incoming lists that repeat predecessors. The properties below pin
   the new translator against it: same language, never more states. *)

module Reference = struct
  module FSet = Set.Make (struct
    type t = Formula.t

    let compare = Formula.compare
  end)

  (* GPVW tableau node. [old_] holds the processed obligations for the
     current position (literals constrain the letter read when leaving the
     node); [next_] holds obligations passed to the successor position. *)
  type node = {
    id : int;
    mutable incoming : int list; (* -1 stands for the virtual initial node *)
    new_ : FSet.t;
    old_ : FSet.t;
    next_ : FSet.t;
  }

  let contradicts old_ f =
    match (f : Formula.t) with
    | True -> false
    | False -> true
    | Atom _ -> FSet.mem (Formula.Not f) old_
    | Not (Atom _ as a) -> FSet.mem a old_
    | _ -> false

  let is_literal (f : Formula.t) =
    match f with True | False | Atom _ | Not (Atom _) -> true | _ -> false

  let to_buchi ~alphabet ~labeling f =
    let f = Formula.nnf f in
    let counter = ref 0 in
    let fresh () =
      let id = !counter in
      incr counter;
      id
    in
    let nodes : node list ref = ref [] in
    (* expand is the core GPVW recursion over unprocessed obligations. *)
    let rec expand node =
      match FSet.choose_opt node.new_ with
      | None -> (
          match
            List.find_opt
              (fun nd -> FSet.equal nd.old_ node.old_ && FSet.equal nd.next_ node.next_)
              !nodes
          with
          | Some nd -> nd.incoming <- node.incoming @ nd.incoming
          | None ->
              nodes := node :: !nodes;
              expand
                {
                  id = fresh ();
                  incoming = [ node.id ];
                  new_ = node.next_;
                  old_ = FSet.empty;
                  next_ = FSet.empty;
                })
      | Some eta -> (
          let new_ = FSet.remove eta node.new_ in
          if is_literal eta then begin
            if not (contradicts node.old_ eta || eta = Formula.False) then
              expand { node with new_; old_ = FSet.add eta node.old_ }
            (* else: inconsistent node, discarded *)
          end
          else
            match eta with
            | Formula.And (g, h) ->
                let add f s = if FSet.mem f node.old_ then s else FSet.add f s in
                expand
                  { node with new_ = add g (add h new_); old_ = FSet.add eta node.old_ }
            | Formula.Or (g, h) ->
                let old_ = FSet.add eta node.old_ in
                expand { node with id = node.id; new_ = FSet.add g new_; old_ };
                expand { id = fresh (); incoming = node.incoming; new_ = FSet.add h new_; old_; next_ = node.next_ }
            | Formula.Next g ->
                expand
                  {
                    node with
                    new_;
                    old_ = FSet.add eta node.old_;
                    next_ = FSet.add g node.next_;
                  }
            | Formula.Until (g, h) ->
                let old_ = FSet.add eta node.old_ in
                expand
                  {
                    node with
                    new_ = FSet.add g new_;
                    old_;
                    next_ = FSet.add eta node.next_;
                  };
                expand
                  { id = fresh (); incoming = node.incoming; new_ = FSet.add h new_; old_; next_ = node.next_ }
            | Formula.Release (g, h) ->
                let old_ = FSet.add eta node.old_ in
                expand
                  {
                    node with
                    new_ = FSet.add h new_;
                    old_;
                    next_ = FSet.add eta node.next_;
                  };
                expand
                  {
                    id = fresh ();
                    incoming = node.incoming;
                    new_ = FSet.add g (FSet.add h new_);
                    old_;
                    next_ = node.next_;
                  }
            | Formula.True | Formula.False | Formula.Atom _ | Formula.Not _
            | Formula.Implies _ | Formula.Iff _ | Formula.Wuntil _
            | Formula.Back _ | Formula.Eventually _ | Formula.Always _ ->
                assert false (* nnf output contains none of these here *))
    in
    let root_id = fresh () in
    expand
      {
        id = root_id;
        incoming = [ -1 ];
        new_ = FSet.singleton f;
        old_ = FSet.empty;
        next_ = FSet.empty;
      };
    let node_list = !nodes in
    (* Dense renumbering: node ids are sparse (discarded branches). *)
    let id_map = Hashtbl.create 16 in
    List.iteri (fun i nd -> Hashtbl.add id_map nd.id i) node_list;
    let n_nodes = List.length node_list in
    let iota = n_nodes in
    (* extra virtual initial state *)
    let k = Alphabet.size alphabet in
    (* A letter matches a node when it satisfies all its literals. *)
    let letter_matches nd a =
      let props = labeling a in
      FSet.for_all
        (fun lit ->
          match (lit : Formula.t) with
          | Atom p -> List.mem p props
          | Not (Atom p) -> not (List.mem p props)
          | True -> true
          | _ -> true (* non-literals in old_ impose no letter constraint *))
        nd.old_
    in
    let transitions = ref [] in
    List.iter
      (fun target ->
        let tgt = Hashtbl.find id_map target.id in
        let letters =
          List.filter (letter_matches target) (List.init k Fun.id)
        in
        List.iter
          (fun src_id ->
            let src =
              if src_id = -1 then iota
              else
                match Hashtbl.find_opt id_map src_id with
                | Some s -> s
                | None -> -1 (* source branch was discarded *)
            in
            if src >= 0 then
              List.iter (fun a -> transitions := (src, a, tgt) :: !transitions) letters)
          target.incoming)
      node_list;
    (* Acceptance: one set per until subformula g U h:
       nodes with  (g U h ∉ old) ∨ (h ∈ old). *)
    let untils =
      List.filter
        (fun g -> match (g : Formula.t) with Until _ -> true | _ -> false)
        (Formula.subformulas f)
    in
    let accepting_sets =
      List.map
        (fun u ->
          let h = match (u : Formula.t) with Until (_, h) -> h | _ -> assert false in
          List.filter_map
            (fun nd ->
              if (not (FSet.mem u nd.old_)) || FSet.mem h nd.old_ then
                Some (Hashtbl.find id_map nd.id)
              else None)
            node_list)
        untils
    in
    Buchi.trim
      (Buchi_oracle.degeneralize ~alphabet ~states:(n_nodes + 1) ~initial:[ iota ]
         ~sets:accepting_sets ~transitions:!transitions)
end

let ref_buchi f = Reference.to_buchi ~alphabet:ab ~labeling:lam f
let new_buchi f = Translate.to_buchi ~alphabet:ab ~labeling:lam f

(* On 150 formulas drawn from [gen_formula] with a fixed seed, for f and
   ¬f: new ∩ ref(¬·) is empty (sound), ref ∩ complement(new) is empty
   (complete, decided when the complement fits in 300 states) and new has
   at most as many states as ref. At least half the cases must be
   decided, so completeness cannot pass vacuously. *)
let test_reference_translator () =
  let rand = Random.State.make [| 17 |] in
  let formulas = QCheck2.Gen.generate ~rand ~n:150 gen_formula in
  let decided = ref 0 and cases = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun g ->
          let name = Formula.to_string g in
          let b = new_buchi g and r = ref_buchi g in
          let r_neg = ref_buchi (Formula.not_ g) in
          incr cases;
          Alcotest.(check bool) ("sound: " ^ name) true (Buchi.is_empty (Buchi.inter b r_neg));
          Alcotest.(check bool)
            ("no larger: " ^ name) true
            (Buchi.states b <= Buchi.states r);
          match Complement.complement ~max_states:300 b with
          | c ->
              incr decided;
              Alcotest.(check bool) ("complete: " ^ name) true (Buchi.is_empty (Buchi.inter r c))
          | exception Complement.Too_large _ -> ())
        [ f; Formula.not_ f ])
    formulas;
  Alcotest.(check bool)
    (Printf.sprintf "decided %d of %d" !decided !cases)
    true
    (2 * !decided >= !cases)

(* The C1/C2 ladder [[]<> (a & X (b | ...))] over {a, b, c}: state counts
   of to_buchi / to_buchi_neg at depths 0-3, each at most the reference
   tableau's (3/3, 8/8, 70/97, 599/1386), and no state repeats a
   successor on any letter. *)
let test_ladder_sizes () =
  let rec ladder d =
    if d = 0 then "a" else Printf.sprintf "[]<> (a & X (b | %s))" (ladder (d - 1))
  in
  let labeling = Semantics.canonical abc in
  let no_repeats b =
    List.for_all
      (fun q ->
        List.for_all
          (fun a ->
            let succ = Buchi.successors b q a in
            List.length (List.sort_uniq compare succ) = List.length succ)
          (List.init (Alphabet.size abc) Fun.id))
      (List.init (Buchi.states b) Fun.id)
  in
  List.iter
    (fun (d, pos, neg) ->
      let f = parse (ladder d) in
      let b = Translate.to_buchi ~alphabet:abc ~labeling f in
      let nb = Translate.to_buchi_neg ~alphabet:abc ~labeling f in
      Alcotest.(check (pair int int))
        (Printf.sprintf "depth %d states" d)
        (pos, neg)
        (Buchi.states b, Buchi.states nb);
      Alcotest.(check bool) (Printf.sprintf "depth %d no repeats" d) true
        (no_repeats b && no_repeats nb))
    [ (0, 3, 3); (1, 6, 6); (2, 30, 49); (3, 129, 312) ]

(* --- Σ-normal form --- *)

(* A non-canonical labeling over {a, b, c}: "p" holds of a and c,
   "q" of b and c. *)
let pq_labeling s =
  match s with
  | 0 -> [ "p" ]
  | 1 -> [ "q" ]
  | 2 -> [ "p"; "q" ]
  | _ -> []

let gen_formula_pq = gen_formula_over [ "p"; "q" ] ~negations:true

let gen_lasso_abc =
  QCheck2.Gen.(
    pair (list_size (0 -- 3) (0 -- 2)) (list_size (1 -- 3) (0 -- 2))
    >|= fun (s, c) -> Lasso.make (Word.of_list s) (Word.of_list c))

let prop_sigma_normal_form =
  QCheck2.Test.make ~name:"sigma_normal_form preserves semantics" ~count:500
    QCheck2.Gen.(pair gen_formula_pq gen_lasso_abc)
    (fun (f, x) ->
      let f' = Transform.sigma_normal_form ~alphabet:abc ~labeling:pq_labeling f in
      Transform.is_sigma_normal ~alphabet:abc f'
      && Semantics.satisfies ~labeling:pq_labeling x f
         = Semantics.satisfies ~labeling:(Semantics.canonical abc) x f')

(* --- Lemma 7.5 : the T / R̄ transformations --- *)

(* Concrete alphabet {a, b, c}; abstract {a', b'}. Random homomorphism. *)
let abstract2 = Alphabet.make [ "a'"; "b'" ]

let gen_hom =
  (* each concrete letter maps to a', b' or ε; at least generating all
     combinations over the 3 letters *)
  QCheck2.Gen.(
    array_size (return 3) (0 -- 2) >|= fun arr s ->
    match arr.(s) with 0 -> Some 0 | 1 -> Some 1 | _ -> None)

let gen_formula_abs = gen_formula_over [ "a'"; "b'" ] ~negations:false

let lemma_7_5_property ~eps_tail (h, f, x) =
  (* f is negation-free over abstract atoms: Σ'-normal by construction *)
  let rb = Transform.rbar ~abstract:abstract2 ~eps_tail f in
  let lab = Transform.epsilon_labeling ~abstract:abstract2 h in
  let concrete_sat = Semantics.satisfies ~labeling:lab x rb in
  match Lasso.map h x with
  | Ok y ->
      let abstract_sat =
        Semantics.satisfies ~labeling:(Semantics.canonical abstract2) y f
      in
      concrete_sat = abstract_sat
  | Error _ -> (
      (* h(x) undefined: weak reading is vacuously true; strong reading
         unconstrained. *)
      match eps_tail with `Weak -> concrete_sat | `Strong -> true)

let gen_hom_formula_lasso =
  QCheck2.Gen.(triple gen_hom gen_formula_abs gen_lasso_abc)

let prop_lemma_7_5_weak =
  QCheck2.Test.make ~name:"Lemma 7.5: x ⊨ R̄(η) iff h(x) ⊨ η (weak tails)"
    ~count:800 gen_hom_formula_lasso (lemma_7_5_property ~eps_tail:`Weak)

let prop_lemma_7_5_strong =
  QCheck2.Test.make ~name:"Lemma 7.5: x ⊨ R̄(η) iff h(x) ⊨ η (strong tails)"
    ~count:800 gen_hom_formula_lasso (lemma_7_5_property ~eps_tail:`Strong)

let prop_t_transform_no_wrap =
  (* T leaves pure-Boolean formulas untouched (R̄ is the one that wraps). *)
  QCheck2.Test.make ~name:"T is identity on pure-Boolean formulas" ~count:200
    gen_formula_abs (fun f ->
      (not (Formula.is_pure_boolean f))
      || Formula.equal (Transform.t_transform ~abstract:abstract2 f) f)

let test_rbar_example () =
  (* □◇result through a homomorphism hiding everything else: the shape of
     R̄ is checked by evaluation, not syntax; here just a smoke check that
     the transform is well-formed and ε-aware. *)
  let abs = Alphabet.make [ "request"; "result"; "reject" ] in
  let f =
    Transform.sigma_normal_form ~alphabet:abs
      ~labeling:(Semantics.canonical abs)
      (parse "[]<> result")
  in
  let rb = Transform.rbar ~abstract:abs f in
  Alcotest.(check bool) "mentions ε" true
    (List.mem Transform.eps_prop (Formula.atoms rb))

let test_rbar_rejects_negations () =
  Alcotest.check_raises "non Σ'-normal input rejected"
    (Invalid_argument "Transform: formula !a' is not in Σ'-normal form")
    (fun () -> ignore (Transform.rbar ~abstract:abstract2 (parse "!a'")))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_print_parse_roundtrip;
      prop_nnf_preserves;
      prop_nnf_is_pnf;
      prop_expand_preserves;
      prop_translation_matches_semantics;
      prop_translation_neg_is_complement;
      prop_translation_wide_closure;
      prop_translation_matches_bitset_tableau;
      prop_sigma_normal_form;
      prop_lemma_7_5_weak;
      prop_lemma_7_5_strong;
      prop_t_transform_no_wrap;
    ]

let () =
  Alcotest.run "ltl"
    [
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "normal-forms",
        [
          Alcotest.test_case "nnf examples" `Quick test_nnf_examples;
          Alcotest.test_case "pure boolean" `Quick test_pure_boolean;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "units" `Quick test_semantics_units;
          Alcotest.test_case "suffix" `Quick test_semantics_suffix;
          Alcotest.test_case "release/back/weak-until" `Quick
            test_semantics_release_back;
        ] );
      ( "translation",
        [
          Alcotest.test_case "units" `Quick test_translation_units;
          Alcotest.test_case "ladder sizes and shape" `Quick test_ladder_sizes;
          Alcotest.test_case "reference translator: sound, complete, no larger"
            `Quick test_reference_translator;
        ] );
      ( "transform",
        [
          Alcotest.test_case "R̄ smoke" `Quick test_rbar_example;
          Alcotest.test_case "Σ'-normal enforced" `Quick test_rbar_rejects_negations;
        ] );
      ("properties", qsuite);
    ]
