open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_ltl
module Budget = Rl_engine_kernel.Budget

type property =
  | Auto of Buchi.t
  | Ltl of { formula : Formula.t; labeling : Semantics.labeling }

let ltl ?labeling alphabet f =
  let labeling =
    match labeling with Some l -> l | None -> Semantics.canonical alphabet
  in
  Ltl { formula = f; labeling }

let property_buchi ?budget alphabet = function
  | Auto b -> b
  | Ltl { formula; labeling } -> Translate.to_buchi ?budget ~alphabet ~labeling formula

let property_neg_buchi ?budget ?(reduce = true) alphabet = function
  | Auto b ->
      (* complementation is exponential: shrink the input first *)
      let b = Buchi.trim b in
      let b = if reduce then Reduce.quotient b else b in
      Complement.complement ?budget b
  | Ltl { formula; labeling } ->
      Translate.to_buchi_neg ?budget ~alphabet ~labeling formula

(* Quotient-before-explore: the deciders below shrink their operands by
   the cached simulation preorders — Büchi automata through
   [Reduce.quotient], pre-language NFAs through [Preorder.reduce] —
   before building products or searching. Both quotients are
   language-preserving, so verdicts are unchanged and witnesses (plain
   words and lassos, always language-level objects) remain valid on the
   original automata: [Certify] replays them against the caller's
   system without any translation. rl quotients the system, the
   property and pre(Lω), but not the product pre(Lω ∩ P): that is the
   largest automaton of the check, and its quotient costs more than the
   antichain search it would shrink. rs keeps the quotient of the same
   product, because it feeds the limit closure and the products after
   it. [~reduce:false] turns the operand quotients off — the comparison
   mode the bench harness measures. *)

let reduce_buchi reduce b = if reduce then Reduce.quotient (Buchi.trim b) else b
let reduce_nfa reduce n = if reduce then Preorder.reduce n else n

let satisfies ?(budget = Budget.unlimited) ~system p =
  let neg =
    Budget.with_phase budget "complement property" (fun () ->
        property_neg_buchi ~budget (Buchi.alphabet system) p)
  in
  let prod =
    Budget.with_phase budget "product Lω ∩ ¬P" (fun () ->
        Buchi.inter ~budget system neg)
  in
  Budget.with_phase budget "emptiness witness" (fun () ->
      match Buchi.accepting_lasso ~budget prod with
      | None -> Ok ()
      | Some x -> Error x)

let is_relative_liveness ?(budget = Budget.unlimited) ?(reduce = true)
    ~system p =
  let pb =
    Budget.with_phase budget "translate property" (fun () ->
        reduce_buchi reduce
          (property_buchi ~budget (Buchi.alphabet system) p))
  in
  let sys = reduce_buchi reduce system in
  let pre_l =
    Budget.with_phase budget "pre(Lω)" (fun () ->
        reduce_nfa reduce (Buchi.pre_language ~budget sys))
  in
  let pre_lp =
    Budget.with_phase budget "product pre(Lω ∩ P)" (fun () ->
        Buchi.pre_language ~budget (Buchi.inter ~budget sys pb))
  in
  (* pre(Lω ∩ P) ⊆ pre(Lω) holds by construction; Lemma 4.3 reduces to the
     converse inclusion, checked on the NFAs directly — the antichain
     search only pays the subset-construction blow-up when the inclusion
     genuinely requires it. *)
  Budget.with_phase budget "inclusion pre(Lω) ⊆ pre(Lω ∩ P)" (fun () ->
      Inclusion.included ~budget pre_l pre_lp)

let is_relative_safety ?(budget = Budget.unlimited) ?(reduce = true)
    ~system p =
  let pb =
    Budget.with_phase budget "translate property" (fun () ->
        reduce_buchi reduce
          (property_buchi ~budget (Buchi.alphabet system) p))
  in
  let sys = reduce_buchi reduce system in
  let neg =
    Budget.with_phase budget "complement property" (fun () ->
        property_neg_buchi ~budget ~reduce (Buchi.alphabet system) p)
  in
  let closure =
    Budget.with_phase budget "limit closure lim(pre(Lω ∩ P))" (fun () ->
        Buchi.limit ~budget
          (reduce_nfa reduce
             (Buchi.pre_language ~budget (Buchi.inter ~budget sys pb))))
  in
  Budget.with_phase budget "violating-behavior search" (fun () ->
      let lhs = Buchi.inter ~budget sys closure in
      match Buchi.accepting_lasso ~budget (Buchi.inter ~budget lhs neg) with
      | None -> Ok ()
      | Some x -> Error x)

let is_machine_closed ?(budget = Budget.unlimited) ?(reduce = true)
    ~system ~live_part () =
  let pre_l =
    reduce_nfa reduce (Buchi.pre_language ~budget (reduce_buchi reduce system))
  in
  let pre_lambda =
    reduce_nfa reduce
      (Buchi.pre_language ~budget (reduce_buchi reduce live_part))
  in
  match
    Budget.with_phase budget "inclusion pre(Lω) ⊆ pre(Λ)" (fun () ->
        Inclusion.included ~budget pre_l pre_lambda)
  with
  | Ok () -> true
  | Error _ -> false

let witness_extension ?(budget = Budget.unlimited) ~system p w =
  Budget.with_phase budget "witness extension" @@ fun () ->
  (* advance the system's initial states along w *)
  let reached =
    List.fold_left
      (fun states a ->
        List.sort_uniq compare
          (List.concat_map (fun q -> Buchi.successors system q a) states))
      (Buchi.initial system) (Word.to_list w)
  in
  if reached = [] then None
  else begin
    let residual =
      Buchi.create
        ~alphabet:(Buchi.alphabet system)
        ~states:(Buchi.states system) ~initial:reached
        ~accepting:(Rl_prelude.Bitset.elements (Buchi.accepting system))
        ~transitions:(Buchi.transitions system) ()
    in
    let pb = property_buchi ~budget (Buchi.alphabet system) p in
    (* x must satisfy P after the prefix w: accepting behaviors of the
       residual system whose w-prefixed version lies in P. Shift P by w. *)
    let p_reached =
      List.fold_left
        (fun states a ->
          List.sort_uniq compare
            (List.concat_map (fun q -> Buchi.successors pb q a) states))
        (Buchi.initial pb) (Word.to_list w)
    in
    if p_reached = [] then None
    else begin
      let p_residual =
        Buchi.create ~alphabet:(Buchi.alphabet pb) ~states:(Buchi.states pb)
          ~initial:p_reached
          ~accepting:(Rl_prelude.Bitset.elements (Buchi.accepting pb))
          ~transitions:(Buchi.transitions pb) ()
      in
      match
        Buchi.accepting_lasso ~budget (Buchi.inter ~budget residual p_residual)
      with
      | None -> None
      | Some x ->
          Some (Lasso.make (Word.append w (Lasso.stem x)) (Lasso.cycle x))
    end
  end

(* --- vacuity hints --- *)

let vacuity_hints ~system p =
  let module Lint = Rl_analysis.Lint in
  let system_hints = Lint.buchi_vacuity system in
  let property_hints =
    match p with
    | Auto b ->
        Lint.alphabet_check ~expected:(Buchi.alphabet system)
          (Buchi.alphabet b)
    | Ltl { formula; _ } ->
        Lint.run ~deep:false
          { Lint.empty with property = Some system; formula = Some formula }
  in
  system_hints @ property_hints
