(* The GPVW tableau as it stood with obligation sets and node keys as
   [Bitset] records: [add] and [remove] copy a record, "smallest
   unprocessed member" is [Bitset.choose], and finished nodes are looked
   up in a [Hashtbl.Make (Bitset)] table keyed on a bitset laid out bit
   by bit (literals of [old], then [next], then one bit per until). The
   library's word-array tableau must emit the same automaton: the tests
   compare the two structurally. Budget ticks and polls are left out;
   everything else goes through the public [Bitset], [Formula] and
   [Buchi] API. *)

open Rl_sigma
open Rl_buchi
open Rl_ltl
module Bitset = Rl_prelude.Bitset

(* The closure of the NNF formula is numbered once, in [Formula.compare]
   order; the expansion takes the smallest unprocessed index first, so the
   order in which states are found (and numbered) follows the formulas.
   Each index carries its connective over indices; a literal carries the
   index of its complement ([-1] when that is not in the closure). *)
type op =
  | Lit of int
  | Fls
  | And of int * int
  | Or of int * int
  | Next of int
  | Until of int * int
  | Release of int * int

(* Obligation sets are bitsets over the closure, copied on write: a
   node's sets are values shared by the branches that split from it. *)
let add s i =
  if Bitset.mem s i then s
  else
    let s = Bitset.copy s in
    Bitset.add s i;
    s

let remove s i =
  let s = Bitset.copy s in
  Bitset.remove s i;
  s

module Keys = Hashtbl.Make (Bitset)

(* A kept node: a state of the generalized automaton. [key] is what
   decides its language (see [tableau]); [incoming] the kept nodes
   whose [next] expansion reaches it, [-1] standing for the virtual
   initial node. *)
type node = { id : int; key : Bitset.t; mutable incoming : int list }

(* The GPVW expansion over closure indices. [ops.(i)] is the connective
   of closure member [i]; [untils] the until members with the index of
   their right operand. Returns the kept nodes, newest first. *)
let tableau ~ops ~untils root =
  let n = Array.length ops in
  let empty = Bitset.create n in
  (* Bits [0, n) of a key are the literals of [old], bits [n, 2n) the
     whole [next], and bit [2n + j] is set when the [j]-th until
     [g U h] is not in [old] or [h] is. *)
  let key old_ next_ =
    let k = Bitset.create ((2 * n) + Array.length untils) in
    Bitset.iter (fun i -> match ops.(i) with Lit _ -> Bitset.add k i | _ -> ()) old_;
    Bitset.iter (fun i -> Bitset.add k (n + i)) next_;
    Array.iteri
      (fun j (u, h) ->
        if (not (Bitset.mem old_ u)) || Bitset.mem old_ h then Bitset.add k ((2 * n) + j))
      untils;
    k
  in
  let by_key = Keys.create 16 in
  let kept = ref [] in
  let edges = Hashtbl.create 16 in
  (* [expand pred new_ old_ next_]: one pending node spawned by the kept
     node [pred], with unprocessed obligations [new_], processed ones
     [old_] (literals constrain the letter read on entering it) and
     [next_] passed to the successor position. *)
  let rec expand pred new_ old_ next_ =
    if Bitset.is_empty new_ then finish pred old_ next_
    else
      let eta = Bitset.choose new_ in
      let rest = remove new_ eta in
      let old' = add old_ eta in
      match ops.(eta) with
      | Fls -> () (* inconsistent node, discarded *)
      | Lit c -> if c < 0 || not (Bitset.mem old_ c) then expand pred rest old' next_
      | And (g, h) ->
          let need g s = if Bitset.mem old_ g then s else add s g in
          expand pred (need g (need h rest)) old' next_
      | Or (g, h) ->
          expand pred (add rest g) old' next_;
          expand pred (add rest h) old' next_
      | Next g -> expand pred rest old' (add next_ g)
      | Until (g, h) ->
          expand pred (add rest g) old' (add next_ eta);
          expand pred (add rest h) old' next_
      | Release (g, h) ->
          expand pred (add rest h) old' (add next_ eta);
          expand pred (add (add rest g) h) old' next_
  and finish pred old_ next_ =
    let key = key old_ next_ in
    let nd =
      match Keys.find_opt by_key key with
      | Some nd -> nd
      | None ->
          (* a fresh state; a later node with the same key is merged
             into it and not expanded again: the successors of both are
             the expansion of the same [next] *)
          let nd = { id = Keys.length by_key; key; incoming = [] } in
          Keys.add by_key key nd;
          kept := nd :: !kept;
          expand nd.id next_ empty empty;
          nd
    in
    if not (Hashtbl.mem edges (pred, nd.id)) then begin
      Hashtbl.add edges (pred, nd.id) ();
      nd.incoming <- pred :: nd.incoming
    end
  in
  expand (-1) (add empty root) empty empty;
  !kept

let to_buchi ~alphabet ~labeling f =
  let f = Formula.nnf f in
  let closure = Array.of_list (Formula.subformulas f) in
  let n = Array.length closure in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i g -> Hashtbl.replace index g i) closure;
  let idx g = Hashtbl.find index g in
  let complement g = Option.value ~default:(-1) (Hashtbl.find_opt index g) in
  let ops =
    Array.map
      (fun (g : Formula.t) ->
        match g with
        | True -> Lit (-1)
        | False -> Fls
        | Atom _ -> Lit (complement (Formula.Not g))
        | Not a -> Lit (complement a)
        | And (g, h) -> And (idx g, idx h)
        | Or (g, h) -> Or (idx g, idx h)
        | Next g -> Next (idx g)
        | Until (g, h) -> Until (idx g, idx h)
        | Release (g, h) -> Release (idx g, idx h)
        | Implies _ | Iff _ | Wuntil _ | Back _ | Eventually _ | Always _ ->
            assert false (* nnf output contains none of these *))
      closure
  in
  let untils =
    Array.of_list
      (List.filter_map
         (fun i -> match ops.(i) with Until (_, h) -> Some (i, h) | _ -> None)
         (List.init n Fun.id))
  in
  let kept = tableau ~ops ~untils (idx f) in
  (* States in reverse finishing order, the virtual initial state last. *)
  let n_nodes = List.length kept in
  let state id = if id < 0 then n_nodes else n_nodes - 1 - id in
  let k = Alphabet.size alphabet in
  let letters = List.init k Fun.id in
  (* the letters satisfying closure member [i] (all of them unless it is
     a literal) *)
  let sat =
    Array.map
      (fun (g : Formula.t) ->
        let ok a =
          match g with
          | Atom p -> List.mem p (labeling a)
          | Not (Atom p) -> not (List.mem p (labeling a))
          | _ -> true
        in
        Bitset.of_list k (List.filter ok letters))
      closure
  in
  let transitions = ref [] in
  List.iter
    (fun nd ->
      let enter = Bitset.of_list k letters in
      for i = 0 to n - 1 do
        if Bitset.mem nd.key i then Bitset.inter_into ~into:enter sat.(i)
      done;
      let tgt = state nd.id in
      List.iter
        (fun pred ->
          Bitset.iter (fun a -> transitions := (state pred, a, tgt) :: !transitions) enter)
        nd.incoming)
    kept;
  let accepting_sets =
    List.init (Array.length untils) (fun j ->
        List.filter_map
          (fun nd -> if Bitset.mem nd.key ((2 * n) + j) then Some (state nd.id) else None)
          kept)
  in
  let g =
    Buchi.Gba.create ~alphabet ~states:(n_nodes + 1) ~initial:[ n_nodes ]
      ~accepting_sets ~transitions:!transitions ()
  in
  Buchi.Gba.to_buchi g
