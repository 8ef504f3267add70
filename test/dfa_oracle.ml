(* Moore's O(kn²) minimization, the reference for [Dfa.minimize]
   (Hopcroft's partition refinement): over the reachable states, classes
   start as final/non-final and split by the classes of their successors
   until a round changes nothing. Everything here goes through the
   public [Dfa] API. *)

open Rl_automata

let minimize_moore d =
  let k = Rl_sigma.Alphabet.size (Dfa.alphabet d) in
  (* the reachable states, in breadth-first order from the initial one *)
  let index = Hashtbl.create 16 and order = ref [] in
  let queue = Queue.create () in
  let visit q =
    if not (Hashtbl.mem index q) then begin
      Hashtbl.add index q (Hashtbl.length index);
      order := q :: !order;
      Queue.add q queue
    end
  in
  visit (Dfa.initial d);
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    for a = 0 to k - 1 do
      visit (Dfa.step d q a)
    done
  done;
  let states = Array.of_list (List.rev !order) in
  let n = Array.length states in
  let delta =
    Array.map
      (fun q -> Array.init k (fun a -> Hashtbl.find index (Dfa.step d q a)))
      states
  in
  let cls = Array.map (fun q -> if Dfa.is_final d q then 1 else 0) states in
  let changed = ref true in
  while !changed do
    (* renumber by (class, successor classes), in order of first
       appearance: the numbering is compact after the first round *)
    let sig_tbl = Hashtbl.create n in
    let next =
      Array.init n (fun q ->
          let s = (cls.(q), Array.map (fun q' -> cls.(q')) delta.(q)) in
          match Hashtbl.find_opt sig_tbl s with
          | Some c -> c
          | None ->
              let c = Hashtbl.length sig_tbl in
              Hashtbl.add sig_tbl s c;
              c)
    in
    changed := next <> cls;
    Array.blit next 0 cls 0 n
  done;
  let count = 1 + Array.fold_left max 0 cls in
  let qdelta = Array.make count [||] in
  Array.iteri
    (fun q row -> qdelta.(cls.(q)) <- Array.map (fun q' -> cls.(q')) row)
    delta;
  let finals =
    List.sort_uniq compare
      (List.filter_map
         (fun q -> if Dfa.is_final d states.(q) then Some cls.(q) else None)
         (List.init n Fun.id))
  in
  Dfa.create ~alphabet:(Dfa.alphabet d) ~states:count ~initial:cls.(0) ~finals
    ~delta:qdelta
