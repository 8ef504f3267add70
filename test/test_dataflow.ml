(* The semantic-analysis substrate: the generic dataflow solver against
   the automata layer's own reachability, the shared SCC decomposition's
   structural invariants, and the RL5xx passes against the exact (search-
   based) algorithms they approximate — including the machine-applicable
   dead-transition fix, which must preserve every decider verdict. *)

open Rl_prelude
open Rl_sigma
open Rl_automata
open Rl_core
open Rl_analysis
module D = Diagnostic

let ab = Alphabet.make [ "a"; "b" ]
let abc = Alphabet.make [ "a"; "b"; "c" ]

let codes ds = List.map (fun d -> d.D.code) ds
let has code ds = List.mem code (codes ds)

(* --- the dataflow solver vs Nfa reachability --- *)

let prop_reachable_agrees =
  QCheck2.Test.make ~name:"Dataflow.reachable agrees with Nfa.reachable"
    ~count:300
    QCheck2.Gen.(pair (0 -- 1_000_000) (1 -- 8))
    (fun (seed, states) ->
      let n =
        Gen.nfa (Helpers.mk_rng seed) ~alphabet:ab ~states ~density:0.25
          ~final_prob:0.5
      in
      Bitset.equal
        (Dataflow.reachable (Nfa.csr n) ~init:(Nfa.initial n))
        (Nfa.reachable n))

let prop_coreachable_agrees =
  QCheck2.Test.make ~name:"Dataflow.coreachable agrees with Nfa.productive"
    ~count:300
    QCheck2.Gen.(pair (0 -- 1_000_000) (1 -- 8))
    (fun (seed, states) ->
      let n =
        Gen.nfa (Helpers.mk_rng seed) ~alphabet:ab ~states ~density:0.25
          ~final_prob:0.4
      in
      Bitset.equal
        (Dataflow.coreachable (Nfa.csr n)
           ~targets:(Bitset.elements (Nfa.finals n)))
        (Nfa.productive n))

(* --- SCC condensation invariants --- *)

let prop_scc_invariants =
  QCheck2.Test.make
    ~name:"Scc: partition, reverse-topological order, per-component facts"
    ~count:300
    QCheck2.Gen.(pair (0 -- 1_000_000) (1 -- 9))
    (fun (seed, states) ->
      let n =
        Gen.nfa (Helpers.mk_rng seed) ~alphabet:ab ~states ~density:0.3
          ~final_prob:0.5
      in
      let csr = Nfa.csr n in
      let t = Scc.of_csr csr in
      let ids = List.init t.Scc.count Fun.id in
      (* a partition: every state in exactly one component, sizes agree *)
      Array.length t.Scc.comp = states
      && Array.for_all (fun c -> c >= 0 && c < t.Scc.count) t.Scc.comp
      && Array.fold_left ( + ) 0 t.Scc.size = states
      && List.for_all
           (fun c -> List.length (Scc.members t c) = t.Scc.size.(c))
           ids
      && (* reverse topological: edges never go to a strictly higher
            component, so component 0 is a sink of the condensation *)
      List.for_all
        (fun q ->
          let ok = ref true in
          Rl_prelude.Csr.iter_row_all csr q (fun q' ->
              if t.Scc.comp.(q) < t.Scc.comp.(q') then ok := false);
          !ok)
        (List.init states Fun.id)
      && (* self_loop and closed are recomputable from the edges *)
      List.for_all
        (fun c ->
          let self = ref false and closed = ref true in
          List.iter
            (fun q ->
              Rl_prelude.Csr.iter_row_all csr q (fun q' ->
                  if q' = q then self := true;
                  if t.Scc.comp.(q') <> c then closed := false))
            (Scc.members t c);
          t.Scc.self_loop.(c) = !self && t.Scc.closed.(c) = !closed)
        ids)

(* two states on a mutual cycle plus a self-loop: nontrivial covers both
   the size>1 and the singleton self-loop shape *)
let test_scc_self_loops () =
  let n =
    Nfa.create ~alphabet:ab ~states:3 ~initial:[ 0 ] ~finals:[ 0; 1; 2 ]
      ~transitions:[ (0, 0, 1); (1, 0, 0); (2, 1, 2) ]
      ()
  in
  let t = Scc.of_csr (Nfa.csr n) in
  Alcotest.(check int) "two components" 2 t.Scc.count;
  Alcotest.(check bool) "0 and 1 share a component" true
    (t.Scc.comp.(0) = t.Scc.comp.(1));
  Alcotest.(check bool) "the pair component is nontrivial" true
    (Scc.nontrivial t t.Scc.comp.(0));
  Alcotest.(check bool) "the self-loop singleton is nontrivial" true
    (Scc.nontrivial t t.Scc.comp.(2));
  (* a singleton without a self-loop is trivial *)
  let m =
    Nfa.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~finals:[ 0; 1 ]
      ~transitions:[ (0, 0, 1) ] ()
  in
  let tm = Scc.of_csr (Nfa.csr m) in
  Alcotest.(check int) "all trivial" 2 tm.Scc.count;
  Alcotest.(check bool) "no nontrivial component" false
    (Scc.nontrivial tm tm.Scc.comp.(0) || Scc.nontrivial tm tm.Scc.comp.(1))

(* --- the RL5xx passes vs the exact algorithms --- *)

(* RL201 and RL503 are exact, not approximations: a strongly fair run
   exists iff some reachable closed component bears a cycle, and both
   passes fire iff there is none (RL201 in the shallow pre-flight, RL503
   per component in the deep one). Three shapes: unconstrained all-final
   NFAs, where cycles with an exit edge and dead ends are common; cycles
   whose every state also steps into one dead-end state, so the only sink
   is trivial (no self-loop) and no fair run exists; and deadlock-free
   generated systems, where a sink component of the condensation must
   cycle, so a fair run always exists. *)
let all_final ?(extra = 0) ?(transitions = []) n =
  let states = Nfa.states n + extra in
  Nfa.create ~alphabet:(Nfa.alphabet n) ~states ~initial:(Nfa.initial n)
    ~finals:(List.init states Fun.id)
    ~transitions:(transitions @ Nfa.transitions n)
    ()

let gen_fairness_system =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 8 in
    let rng = Helpers.mk_rng seed in
    oneofl
      [
        all_final (Gen.nfa rng ~alphabet:ab ~states ~density:0.3 ~final_prob:1.);
        (let sink = states in
         all_final ~extra:1
           ~transitions:(List.init states (fun q -> (q, q mod 2, sink)))
           (Gen.nfa rng ~alphabet:ab ~states ~density:0.4 ~final_prob:1.));
        Gen.transition_system rng ~alphabet:ab ~states ~branching:1.4;
      ])

let prop_rl503_exact =
  QCheck2.Test.make
    ~name:
      "RL503 fires iff Streett.fair_run_exists denies a fair run, and so \
       does RL201"
    ~count:1000 ~long_factor:20
    ~print:(Format.asprintf "%a" Nfa.pp)
    gen_fairness_system
    (fun ts ->
      let b = Rl_buchi.Buchi.of_transition_system ts in
      let unfair =
        (not (Rl_buchi.Buchi.is_empty b))
        && not (Rl_fair.Streett.fair_run_exists b)
      in
      let deep = Lint.run { Lint.empty with system = Some ts } in
      let shallow = Lint.run ~deep:false { Lint.empty with system = Some ts } in
      has "RL503" deep = unfair
      && has "RL201" deep = unfair
      && has "RL201" shallow = unfair)

let keep_of_mask mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) [ "a"; "b"; "c" ]

(* RL504 is a sound over-approximation: whenever the static conditions
   prove simplicity, the exact configuration search must agree *)
let prop_rl504_sound =
  QCheck2.Test.make ~name:"RL504 (static simplicity) implies Hom.analyze simple"
    ~count:150
    QCheck2.Gen.(triple (0 -- 1_000_000) (1 -- 6) (1 -- 6))
    (fun (seed, states, mask) ->
      let ts =
        Gen.transition_system (Helpers.mk_rng seed) ~alphabet:abc ~states
          ~branching:1.4
      in
      let keep = keep_of_mask mask in
      let ds = Lint.run { Lint.empty with system = Some ts; keep = Some keep } in
      if has "RL504" ds then
        let hom = Rl_hom.Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep in
        (Rl_hom.Hom.analyze hom (Nfa.trim ts)).Rl_hom.Hom.simple
      else true)

(* likewise RL506: the static proof must agree with the bounded search *)
let prop_rl506_sound =
  QCheck2.Test.make
    ~name:"RL506 (static maximal-word freedom) implies no maximal words"
    ~count:150
    QCheck2.Gen.(triple (0 -- 1_000_000) (1 -- 6) (1 -- 6))
    (fun (seed, states, mask) ->
      let ts =
        Gen.transition_system (Helpers.mk_rng seed) ~alphabet:abc ~states
          ~branching:1.4
      in
      let keep = keep_of_mask mask in
      let ds = Lint.run { Lint.empty with system = Some ts; keep = Some keep } in
      if has "RL506" ds then
        let hom = Rl_hom.Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep in
        not (Rl_hom.Hom.has_maximal_words (Rl_hom.Hom.image_ts hom (Nfa.trim ts)))
      else true)

(* --- the dead-transition fix preserves behavior --- *)

let lint_src src =
  let sys = Ts_format.parse_ts src in
  let locs =
    List.map
      (fun (t, l) ->
        (t, (l.Ts_format.line, l.Ts_format.start_col, l.Ts_format.end_col)))
      (Ts_format.transition_locs src)
  in
  (sys, Lint.run { Lint.empty with system = Some sys; locs })

let verdict_string sys f =
  let ts = Nfa.trim sys in
  let alpha = Nfa.alphabet ts in
  let system = Rl_buchi.Buchi.of_transition_system ts in
  let p = Relative.ltl alpha f in
  let budget = Rl_engine.Budget.create () in
  match Relative.satisfies ~budget ~system p with
  | Ok () -> "sat"
  | Error cex -> Format.asprintf "cex %a" (Lasso.pp alpha) cex

(* structural identity, not isomorphism: state numbers, alphabet,
   initial states, finals and (label-named) transitions must coincide —
   the decide step then receives bit-for-bit the same input *)
let structural_equal a b =
  let labelled n =
    let alpha = Nfa.alphabet n in
    List.sort compare
      (List.map (fun (q, x, q') -> (q, Alphabet.name alpha x, q'))
         (Nfa.transitions n))
  in
  Nfa.states a = Nfa.states b
  && Alphabet.names (Nfa.alphabet a) = Alphabet.names (Nfa.alphabet b)
  && List.sort_uniq compare (Nfa.initial a)
     = List.sort_uniq compare (Nfa.initial b)
  && Bitset.equal (Nfa.finals a) (Nfa.finals b)
  && labelled a = labelled b
  && Nfa.has_eps a = Nfa.has_eps b

let prop_fix_preserves_verdicts =
  QCheck2.Test.make
    ~name:"--fix (dead-transition removal) preserves decider verdicts"
    ~count:80
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 6))
    (fun (seed, states) ->
      (* an unconstrained NFA, forced all-final so it prints as a .ts:
         unreachable states (hence dead transitions) are common *)
      let n =
        all_final
          (Gen.nfa (Helpers.mk_rng seed) ~alphabet:ab ~states ~density:0.3
             ~final_prob:1.0)
      in
      if Nfa.transitions n = [] then true (* prints as an empty model *)
      else
      let src = Ts_format.print_ts n in
      let sys, ds = lint_src src in
      match Fix.plan ds with
      | Error _ -> false (* RL501 removals can never conflict *)
      | Ok edits -> (
          let fixed = Fix.apply ~src edits in
          match Ts_format.parse_ts_result fixed with
          | Error _ ->
              (* the CLI refuses a fix after which the model no longer
                 parses (e.g. every transition was dead) and leaves the
                 file untouched — nothing to preserve *)
              true
          | Ok _ ->
          let sys', ds' = lint_src fixed in
          (* the trimmed systems are structurally identical, so every
             decider verdict and certified witness is preserved *)
          structural_equal (Nfa.trim sys) (Nfa.trim sys')
          && verdict_string sys (Rl_ltl.Parser.parse "[]<> a")
             = verdict_string sys' (Rl_ltl.Parser.parse "[]<> a")
          && (* idempotence: a second fix has nothing left to do *)
          (match Fix.plan ds' with Ok [] -> true | _ -> false)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reachable_agrees;
      prop_coreachable_agrees;
      prop_scc_invariants;
      prop_rl503_exact;
      prop_rl504_sound;
      prop_rl506_sound;
      prop_fix_preserves_verdicts;
    ]

let () =
  Alcotest.run "dataflow"
    [
      ("scc", [ Alcotest.test_case "self-loop handling" `Quick test_scc_self_loops ]);
      ("properties", qsuite);
    ]
