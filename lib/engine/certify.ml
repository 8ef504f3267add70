open Rl_sigma
open Rl_buchi
open Rl_core
module Budget = Rl_engine_kernel.Budget

type failure =
  | Not_in_system of Lasso.t
  | Satisfies_property of Lasso.t
  | Violates_property of Lasso.t
  | Prefix_not_in_system of Word.t
  | Extension_exists of { prefix : Word.t; extension : Lasso.t }
  | Not_an_extension of { prefix : Word.t; extension : Lasso.t }
  | Inconsistent_triple of { sat : bool; rl : bool; rs : bool }

let pp_failure ppf = function
  | Not_in_system _ ->
      Format.pp_print_string ppf
        "claimed witness is not a behavior of the system"
  | Satisfies_property _ ->
      Format.pp_print_string ppf
        "claimed counterexample actually satisfies the property"
  | Violates_property _ ->
      Format.pp_print_string ppf
        "claimed witness extension violates the property"
  | Prefix_not_in_system _ ->
      Format.pp_print_string ppf
        "claimed doomed prefix is not a prefix of any behavior"
  | Extension_exists _ ->
      Format.pp_print_string ppf
        "claimed doomed prefix extends to a property-satisfying behavior"
  | Not_an_extension _ ->
      Format.pp_print_string ppf
        "claimed extension does not start with the given prefix"
  | Inconsistent_triple { sat; rl; rs } ->
      Format.fprintf ppf
        "Theorem 4.7 violated: sat=%b but rl=%b ∧ rs=%b" sat rl rs

(* Membership of a behavior in the property, decided independently of the
   automata pipeline the checkers use: formulas go through the direct
   lasso semantics (no Büchi translation), automata through [Buchi.member]
   (a search of the product with the lasso's one-word automaton, no
   complementation). An error in the translation or
   complementation therefore cannot certify its own output. *)
let property_holds p x =
  match p with
  | Relative.Ltl { formula; labeling } ->
      Rl_ltl.Semantics.satisfies ~labeling x formula
  | Relative.Auto pb -> Buchi.member pb x

let prefix_in_system ~system w =
  List.fold_left
    (fun states a ->
      List.sort_uniq compare
        (List.concat_map (fun q -> Buchi.successors system q a) states))
    (Buchi.initial system) (Word.to_list w)
  <> []

let counterexample ~system p x =
  if not (Buchi.member system x) then Error (Not_in_system x)
  else if property_holds p x then Error (Satisfies_property x)
  else Ok ()

let doomed_prefix ?budget ~system p w =
  if not (prefix_in_system ~system w) then Error (Prefix_not_in_system w)
  else
    match Relative.witness_extension ?budget ~system p w with
    | Some x -> Error (Extension_exists { prefix = w; extension = x })
    | None -> Ok ()

let extension ~system p ~prefix x =
  if not (Word.equal (Lasso.prefix x (Word.length prefix)) prefix) then
    Error (Not_an_extension { prefix; extension = x })
  else if not (Buchi.member system x) then Error (Not_in_system x)
  else if not (property_holds p x) then Error (Violates_property x)
  else Ok ()

type triple = { sat : bool; rl : bool; rs : bool }

(* The three legs of a Theorem 4.7 full verdict, run in turn on one
   budget. *)
let verdict_triple ?budget ~system p =
  let sat = Result.is_ok (Relative.satisfies ?budget ~system p) in
  let rl = Result.is_ok (Relative.is_relative_liveness ?budget ~system p) in
  let rs = Result.is_ok (Relative.is_relative_safety ?budget ~system p) in
  { sat; rl; rs }

let consistent t = t.sat = (t.rl && t.rs)

let check_triple t =
  if consistent t then Ok ()
  else Error (Inconsistent_triple { sat = t.sat; rl = t.rl; rs = t.rs })
