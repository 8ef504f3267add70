(* Shared generators and helpers for the test executables. *)

open Rl_sigma
open Rl_ltl

let mk_rng seed = Rl_prelude.Prng.create seed

(* Random PLTL formulas over the given atoms. *)
let gen_formula_over ?(max_size = 5) atoms ~negations =
  let open QCheck2.Gen in
  let atom = oneofl (List.map (fun p -> Formula.Atom p) atoms) in
  let leaf =
    frequency [ (6, atom); (1, return Formula.True); (1, return Formula.False) ]
  in
  sized_size (0 -- max_size)
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

let gen_lasso ~letters ~stem_max ~cycle_max =
  QCheck2.Gen.(
    pair
      (list_size (0 -- stem_max) (0 -- (letters - 1)))
      (list_size (1 -- cycle_max) (0 -- (letters - 1)))
    >|= fun (s, c) -> Lasso.make (Word.of_list s) (Word.of_list c))

(* Residual-language classes of the states of two DFAs over one alphabet:
   the classes of their disjoint union, [b]'s states shifted past [a]'s.
   Two states (possibly across the automata) share a class iff their
   residual languages are equal. *)
let union_classes a b =
  let open Rl_automata in
  let na = Dfa.states a and nb = Dfa.states b in
  let k = Alphabet.size (Dfa.alphabet a) in
  let delta =
    Array.init (na + nb) (fun q ->
        if q < na then Array.init k (Dfa.step a q)
        else Array.init k (fun s -> na + Dfa.step b (q - na) s))
  in
  let finals =
    List.filter
      (fun q -> if q < na then Dfa.is_final a q else Dfa.is_final b (q - na))
      (List.init (na + nb) Fun.id)
  in
  let classes =
    Dfa.residual_classes
      (Dfa.create ~alphabet:(Dfa.alphabet a) ~states:(na + nb) ~initial:0
         ~finals ~delta)
  in
  (Array.sub classes 0 na, Array.sub classes na nb)
