(* Reference constructions for the Büchi product and its trim, written
   the direct way: degeneralize the whole generalized automaton, then
   keep the reachable live states. The library builds the same automata
   without ever materializing the dead copies; the tests compare the two
   structurally. Everything here goes through the public [Buchi] API. *)

open Rl_buchi

(* The counter construction over the triples of a generalized automaton,
   one copy per set: state [q·m + i] is [q] waiting for set [i]; no sets
   means every run accepts. Per-letter successor lists come out as
   [Gba.create] orders them: a later triple in front of an earlier one. *)
let counter ~alphabet ~states ~initial ~sets ~transitions =
  let sets = Array.of_list sets in
  let m = max 1 (Array.length sets) in
  let in_set i q = Array.length sets = 0 || List.mem q sets.(i) in
  let next i q = if in_set i q then (i + 1) mod m else i in
  Buchi.create ~alphabet ~states:(states * m)
    ~initial:(List.map (fun q -> q * m) initial)
    ~accepting:
      (List.filter_map
         (fun q -> if in_set 0 q then Some (q * m) else None)
         (List.init states Fun.id))
    ~transitions:
      (List.concat_map
         (fun (q, a, q') -> List.init m (fun i -> ((q * m) + i, a, (q' * m) + next i q)))
         transitions)
    ()

(* [counter] without the sets that hold every state, as the library
   builds it: a run meets such a set at every step, so dropping it keeps
   the language, and no set left is one copy of every state. *)
let degeneralize ~alphabet ~states ~initial ~sets ~transitions =
  let full set = List.length (List.sort_uniq Int.compare set) = states in
  counter ~alphabet ~states ~initial
    ~sets:(List.filter (fun set -> not (full set)) sets)
    ~transitions

(* States that reach a nontrivial component holding an accepting state,
   by a backward closure over predecessor lists. *)
let live b =
  let n = Buchi.states b in
  let comp, count = Buchi.sccs b in
  let nontrivial = Array.make count false and has_acc = Array.make count false in
  let pred = Array.make n [] in
  List.iter
    (fun (q, _, q') ->
      if comp.(q) = comp.(q') then nontrivial.(comp.(q)) <- true;
      pred.(q') <- q :: pred.(q'))
    (Buchi.transitions b);
  for q = 0 to n - 1 do
    if Buchi.is_accepting b q then has_acc.(comp.(q)) <- true
  done;
  let live = Array.init n (fun q -> nontrivial.(comp.(q)) && has_acc.(comp.(q))) in
  let rec close q =
    List.iter
      (fun p ->
        if not live.(p) then begin
          live.(p) <- true;
          close p
        end)
      pred.(q)
  in
  Array.iteri (fun q l -> if l then close q) (Array.copy live);
  live

(* Restriction to the reachable live states, renumbered in increasing
   order, successor lists filtered in place. *)
let trim b =
  let n = Buchi.states b and k = Rl_sigma.Alphabet.size (Buchi.alphabet b) in
  let reach = Buchi.reachable b and live = live b in
  let keep q = Rl_prelude.Bitset.mem reach q && live.(q) in
  let remap = Array.make n (-1) and count = ref 0 in
  for q = 0 to n - 1 do
    if keep q then begin
      remap.(q) <- !count;
      incr count
    end
  done;
  let kept = List.filter keep (List.init n Fun.id) in
  let transitions =
    List.concat_map
      (fun q ->
        List.concat_map
          (fun a ->
            (* reversed, so that [Buchi.create]'s prepending restores the
               list order *)
            List.rev_map
              (fun q' -> (remap.(q), a, remap.(q')))
              (List.filter keep (Buchi.successors b q a)))
          (List.init k Fun.id))
      kept
  in
  Buchi.create ~alphabet:(Buchi.alphabet b) ~states:!count
    ~initial:(List.filter_map (fun q -> if keep q then Some remap.(q) else None) (Buchi.initial b))
    ~accepting:(List.filter_map (fun q -> if Buchi.is_accepting b q then Some remap.(q) else None) kept)
    ~transitions ()

(* The product in five passes: tuple-keyed pair interning in breadth-first
   order, a triple list, the generalized automaton with one set per
   operand, its degeneralization by [degen], and the trim. *)
let product ~degen a b =
  let k = Rl_sigma.Alphabet.size (Buchi.alphabet a) in
  let table = Hashtbl.create 64 and rev = ref [] and count = ref 0 in
  let queue = Queue.create () in
  let intern pair =
    match Hashtbl.find_opt table pair with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        Hashtbl.add table pair id;
        rev := pair :: !rev;
        Queue.add pair queue;
        id
  in
  let initial =
    List.concat_map (fun p -> List.map (fun q -> intern (p, q)) (Buchi.initial b)) (Buchi.initial a)
  in
  let transitions = ref [] in
  while not (Queue.is_empty queue) do
    let ((p, q) as pair) = Queue.pop queue in
    let src = Hashtbl.find table pair in
    for s = 0 to k - 1 do
      List.iter
        (fun p' ->
          List.iter
            (fun q' -> transitions := (src, s, intern (p', q')) :: !transitions)
            (Buchi.successors b q s))
        (Buchi.successors a p s)
    done
  done;
  let pairs = List.rev !rev in
  let ids f = List.concat (List.mapi (fun id pair -> if f pair then [ id ] else []) pairs) in
  trim
    (degen ~alphabet:(Buchi.alphabet a) ~states:!count ~initial
       ~sets:
         [ ids (fun (p, _) -> Buchi.is_accepting a p); ids (fun (_, q) -> Buchi.is_accepting b q) ]
       ~transitions:!transitions)

let inter = product ~degen:degeneralize

(* The product with one counter copy per operand's set, full or not. *)
let inter_all_sets = product ~degen:counter

(* Same states, initial list, accepting set and successor lists, in
   order. *)
let same_structure x y =
  let n = Buchi.states x and k = Rl_sigma.Alphabet.size (Buchi.alphabet x) in
  n = Buchi.states y
  && Buchi.initial x = Buchi.initial y
  && Rl_prelude.Bitset.elements (Buchi.accepting x) = Rl_prelude.Bitset.elements (Buchi.accepting y)
  && List.for_all
       (fun q -> List.for_all (fun a -> Buchi.successors x q a = Buchi.successors y q a) (List.init k Fun.id))
       (List.init n Fun.id)

(* Nested DFS (Courcoubetis–Vardi–Wolper–Yannakakis), the reference for
   the SCC-based [Buchi.is_empty]: a blue depth-first search that, in
   post-order at each accepting state, starts a red search for a path
   back onto the blue stack. *)
let is_empty_ndfs b =
  let n = Buchi.states b and k = Rl_sigma.Alphabet.size (Buchi.alphabet b) in
  let succ q = List.concat_map (Buchi.successors b q) (List.init k Fun.id) in
  let blue = Array.make n false and red = Array.make n false in
  let on_path = Array.make n false in
  let exception Found in
  let rec red_dfs q =
    List.iter
      (fun q' ->
        if on_path.(q') then raise Found;
        if not red.(q') then begin
          red.(q') <- true;
          red_dfs q'
        end)
      (succ q)
  in
  let rec blue_dfs q =
    blue.(q) <- true;
    on_path.(q) <- true;
    List.iter (fun q' -> if not blue.(q') then blue_dfs q') (succ q);
    if Buchi.is_accepting b q then red_dfs q;
    on_path.(q) <- false
  in
  try
    List.iter (fun q -> if not blue.(q) then blue_dfs q) (Buchi.initial b);
    true
  with Found -> false
