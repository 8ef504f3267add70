open Rl_prelude
module Preorder = Rl_automata.Preorder

(* Direct simulation for Büchi automata, via the shared refinement engine
   in [Rl_automata.Preorder] (Henzinger-style worklist over bitset rows,
   memoized per automaton fingerprint in the kernel's Simcache). Direct
   simulation — acceptance-compatible at every step — is the variant
   whose mutual-similarity quotient preserves the ω-language. *)

let preorder b =
  let n = Buchi.states b in
  let accepting = Bitset.create (max n 1) in
  for q = 0 to n - 1 do
    if Buchi.is_accepting b q then Bitset.add accepting q
  done;
  Preorder.of_view ~rdelta:(Buchi.rcsr b) ~memberships:[ accepting ] (Buchi.csr b)

let direct_simulation b =
  let n = Buchi.states b in
  let po = preorder b in
  (* matrix view kept for callers and tests: sim.(q).(p) iff p simulates q *)
  Array.init n (fun q ->
      let row = Preorder.simulators po q in
      Array.init n (fun p -> Bitset.mem row p))

let quotient b =
  let n = Buchi.states b in
  if n = 0 then b
  else begin
    let po = preorder b in
    let cls, count = Preorder.mutual_classes po in
    if count = n then b
    else begin
      let transitions =
        Buchi.transitions b
        |> List.map (fun (q, a, q') -> (cls.(q), a, cls.(q')))
        |> List.sort_uniq compare
      in
      let accepting =
        List.init n Fun.id
        |> List.filter_map (fun q ->
               if Buchi.is_accepting b q then Some cls.(q) else None)
        |> List.sort_uniq compare
      in
      let initial =
        List.sort_uniq compare (List.map (fun q -> cls.(q)) (Buchi.initial b))
      in
      Buchi.create ~alphabet:(Buchi.alphabet b) ~states:count ~initial
        ~accepting ~transitions ()
    end
  end
