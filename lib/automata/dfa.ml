open Rl_prelude
open Rl_sigma

type t = {
  alphabet : Alphabet.t;
  states : int;
  initial : int;
  finals : Bitset.t;
  delta : int array array; (* delta.(q).(a) — total *)
}

let create ~alphabet ~states ~initial ~finals ~delta =
  if states <= 0 then invalid_arg "Dfa.create: need at least one state";
  if initial < 0 || initial >= states then invalid_arg "Dfa.create: bad initial";
  if Array.length delta <> states then invalid_arg "Dfa.create: delta size";
  let k = Alphabet.size alphabet in
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Dfa.create: delta row size";
      Array.iter
        (fun q -> if q < 0 || q >= states then invalid_arg "Dfa.create: bad target")
        row)
    delta;
  let fin = Bitset.create states in
  List.iter
    (fun q ->
      if q < 0 || q >= states then invalid_arg "Dfa.create: bad final";
      Bitset.add fin q)
    finals;
  { alphabet; states; initial; finals = fin; delta }

let alphabet t = t.alphabet
let states t = t.states
let initial t = t.initial
let is_final t q = Bitset.mem t.finals q
let step t q a = t.delta.(q).(a)

let run_from t q w =
  let q = ref q in
  for i = 0 to Word.length w - 1 do
    q := t.delta.(!q).(Word.get w i)
  done;
  !q

let run t w = run_from t t.initial w
let accepts t w = Bitset.mem t.finals (run t w)

module Set_key = struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end

module Set_tbl = Hashtbl.Make (Set_key)

let determinize ?(budget = Rl_engine_kernel.Budget.unlimited) n =
  let n = Nfa.remove_eps n in
  let k = Alphabet.size (Nfa.alphabet n) in
  let nn = Nfa.states n in
  let key_of set = set in
  let table = Set_tbl.create 64 in
  let rev_states = ref [] in
  let count = ref 0 in
  let intern set =
    match Set_tbl.find_opt table (key_of set) with
    | Some id -> id
    | None ->
        Rl_engine_kernel.Budget.tick budget;
        let id = !count in
        incr count;
        Set_tbl.add table (key_of set) id;
        rev_states := set :: !rev_states;
        id
  in
  let init_set = Bitset.of_list nn (Nfa.initial n) in
  let _ = intern init_set in
  let worklist = Queue.create () in
  Queue.add init_set worklist;
  let edges = ref [] in
  while not (Queue.is_empty worklist) do
    let set = Queue.pop worklist in
    let src = Set_tbl.find table set in
    for a = 0 to k - 1 do
      let out = Bitset.create nn in
      Bitset.iter
        (fun q -> List.iter (Bitset.add out) (Nfa.successors n q a))
        set;
      let before = !count in
      let dst = intern out in
      if dst = before then Queue.add out worklist;
      edges := (src, a, dst) :: !edges
    done
  done;
  let total = !count in
  let sets = Array.of_list (List.rev !rev_states) in
  let delta = Array.init total (fun _ -> Array.make k 0) in
  List.iter (fun (src, a, dst) -> delta.(src).(a) <- dst) !edges;
  let finals = Bitset.create total in
  Array.iteri
    (fun id set -> if not (Bitset.disjoint set (Nfa.finals n)) then Bitset.add finals id)
    sets;
  { alphabet = Nfa.alphabet n; states = total; initial = 0; finals; delta }

let complement t =
  let finals = Bitset.create t.states in
  for q = 0 to t.states - 1 do
    if not (Bitset.mem t.finals q) then Bitset.add finals q
  done;
  { t with finals }

let product ?(budget = Rl_engine_kernel.Budget.unlimited) op a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Dfa.product: alphabet mismatch";
  let k = Alphabet.size a.alphabet in
  let table = Hashtbl.create 64 in
  let rev_pairs = ref [] in
  let count = ref 0 in
  let intern pair =
    match Hashtbl.find_opt table pair with
    | Some id -> id
    | None ->
        Rl_engine_kernel.Budget.tick budget;
        let id = !count in
        incr count;
        Hashtbl.add table pair id;
        rev_pairs := pair :: !rev_pairs;
        id
  in
  let init = (a.initial, b.initial) in
  let _ = intern init in
  let worklist = Queue.create () in
  Queue.add init worklist;
  let edges = ref [] in
  while not (Queue.is_empty worklist) do
    let ((p, q) as pair) = Queue.pop worklist in
    let src = Hashtbl.find table pair in
    for s = 0 to k - 1 do
      let pair' = (a.delta.(p).(s), b.delta.(q).(s)) in
      let before = !count in
      let dst = intern pair' in
      if dst = before then Queue.add pair' worklist;
      edges := (src, s, dst) :: !edges
    done
  done;
  let total = !count in
  let pairs = Array.of_list (List.rev !rev_pairs) in
  let delta = Array.init total (fun _ -> Array.make k 0) in
  List.iter (fun (src, s, dst) -> delta.(src).(s) <- dst) !edges;
  let finals = Bitset.create total in
  Array.iteri
    (fun id (p, q) ->
      if op (Bitset.mem a.finals p) (Bitset.mem b.finals q) then Bitset.add finals id)
    pairs;
  { alphabet = a.alphabet; states = total; initial = 0; finals; delta }

let shortest_word t =
  let parent = Array.make t.states None in
  let seen = Bitset.create t.states in
  let queue = Queue.create () in
  Bitset.add seen t.initial;
  Queue.add t.initial queue;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    if Bitset.mem t.finals q then found := Some q
    else
      Array.iteri
        (fun a q' ->
          if not (Bitset.mem seen q') then begin
            Bitset.add seen q';
            parent.(q') <- Some (q, a);
            Queue.add q' queue
          end)
        t.delta.(q)
  done;
  match !found with
  | None -> None
  | Some q ->
      let rec back q acc =
        match parent.(q) with None -> acc | Some (p, a) -> back p (a :: acc)
      in
      Some (Word.of_list (back q []))

let is_empty t = shortest_word t = None

(* Hopcroft–Karp: merge states presumed equivalent, explore successors,
   fail on an acceptance mismatch. The witness word is rebuilt from the
   access path of the failing pair. *)
let equivalent a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Dfa.equivalent: alphabet mismatch";
  let k = Alphabet.size a.alphabet in
  let uf = Union_find.create (a.states + b.states) in
  let shift q = q + a.states in
  let stack = ref [ (a.initial, b.initial, []) ] in
  let result = ref (Ok ()) in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | (p, q, path) :: rest ->
        stack := rest;
        if Union_find.union uf p (shift q) then
          if Bitset.mem a.finals p <> Bitset.mem b.finals q then begin
            result := Error (Word.of_list (List.rev path));
            continue := false
          end
          else
            for s = k - 1 downto 0 do
              stack := (a.delta.(p).(s), b.delta.(q).(s), s :: path) :: !stack
            done
  done;
  !result

let included ?budget a b =
  let diff = product ?budget (fun x y -> x && not y) a b in
  match shortest_word diff with None -> Ok () | Some w -> Error w

(* Partition refinement (Hopcroft) over an explicit transition table.
   Returns the array mapping each state to its block identifier. Blocks
   never mix final and non-final states. *)
let refine ~states:n ~k ~delta ~finals =
  if n = 0 then [||]
  else begin
    (* Reverse edges: rev.(a).(q) = predecessors of q on a. *)
    let rev = Array.init k (fun _ -> Array.make n []) in
    for q = 0 to n - 1 do
      for a = 0 to k - 1 do
        let q' = delta.(q).(a) in
        rev.(a).(q') <- q :: rev.(a).(q')
      done
    done;
    let block_of = Array.make n 0 in
    let ord = Array.init n Fun.id in
    let pos = Array.init n Fun.id in
    (* Dynamic block tables. *)
    let cap = ref 16 in
    let first = ref (Array.make !cap 0) in
    let len = ref (Array.make !cap 0) in
    let marked = ref (Array.make !cap 0) in
    let nblocks = ref 0 in
    let grow () =
      let ncap = !cap * 2 in
      let extend arr = Array.append arr (Array.make !cap 0) in
      first := extend !first;
      len := extend !len;
      marked := extend !marked;
      cap := ncap
    in
    let new_block f l =
      if !nblocks = !cap then grow ();
      let id = !nblocks in
      incr nblocks;
      !first.(id) <- f;
      !len.(id) <- l;
      !marked.(id) <- 0;
      id
    in
    (* Initial partition: finals first, then non-finals. *)
    let fin_states = ref [] and nonfin_states = ref [] in
    for q = n - 1 downto 0 do
      if Bitset.mem finals q then fin_states := q :: !fin_states
      else nonfin_states := q :: !nonfin_states
    done;
    let place idx states block =
      List.fold_left
        (fun i q ->
          ord.(i) <- q;
          pos.(q) <- i;
          block_of.(q) <- block;
          i + 1)
        idx states
    in
    let worklist = Queue.create () in
    let in_w = Hashtbl.create 64 in
    let push b a =
      if not (Hashtbl.mem in_w (b, a)) then begin
        Hashtbl.add in_w (b, a) ();
        Queue.add (b, a) worklist
      end
    in
    let nf = List.length !fin_states in
    let idx = ref 0 in
    if nf > 0 then begin
      let b = new_block 0 nf in
      idx := place 0 !fin_states b
    end;
    if n - nf > 0 then begin
      let b = new_block !idx (n - nf) in
      ignore (place !idx !nonfin_states b)
    end;
    (* Seed the worklist with the smaller initial block (or the only one). *)
    let seed =
      if !nblocks = 1 then 0
      else if !len.(0) <= !len.(1) then 0
      else 1
    in
    for a = 0 to k - 1 do
      push seed a
    done;
    while not (Queue.is_empty worklist) do
      let splitter, a = Queue.pop worklist in
      Hashtbl.remove in_w (splitter, a);
      (* Collect X = δ⁻¹(splitter, a) before mutating the partition. *)
      let x = ref [] in
      let f = !first.(splitter) and l = !len.(splitter) in
      for i = f to f + l - 1 do
        x := List.rev_append rev.(a).(ord.(i)) !x
      done;
      let touched = ref [] in
      let mark p =
        let b = block_of.(p) in
        let m = !marked.(b) in
        let boundary = !first.(b) + m in
        if pos.(p) >= boundary then begin
          if m = 0 then touched := b :: !touched;
          (* Swap p to the marked region's end. *)
          let i = pos.(p) and j = boundary in
          let other = ord.(j) in
          ord.(j) <- p;
          ord.(i) <- other;
          pos.(p) <- j;
          pos.(other) <- i;
          !marked.(b) <- m + 1
        end
      in
      List.iter mark !x;
      List.iter
        (fun b ->
          let m = !marked.(b) in
          if m = !len.(b) then !marked.(b) <- 0
          else begin
            (* Split: marked part becomes a new block. *)
            let nb = new_block !first.(b) m in
            !first.(b) <- !first.(b) + m;
            !len.(b) <- !len.(b) - m;
            !marked.(b) <- 0;
            for i = !first.(nb) to !first.(nb) + m - 1 do
              block_of.(ord.(i)) <- nb
            done;
            for c = 0 to k - 1 do
              if Hashtbl.mem in_w (b, c) then push nb c
              else if m <= !len.(b) then push nb c
              else push b c
            done
          end)
        !touched
    done;
    block_of
  end

let restrict_reachable t =
  let seen = Bitset.create t.states in
  let queue = Queue.create () in
  Bitset.add seen t.initial;
  Queue.add t.initial queue;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    Array.iter
      (fun q' ->
        if not (Bitset.mem seen q') then begin
          Bitset.add seen q';
          Queue.add q' queue
        end)
      t.delta.(q)
  done;
  if Bitset.cardinal seen = t.states then t
  else begin
    let remap = Array.make t.states (-1) in
    let count = ref 0 in
    Bitset.iter
      (fun q ->
        remap.(q) <- !count;
        incr count)
      seen;
    let k = Alphabet.size t.alphabet in
    let delta = Array.init !count (fun _ -> Array.make k 0) in
    let finals = Bitset.create !count in
    Bitset.iter
      (fun q ->
        let q2 = remap.(q) in
        if Bitset.mem t.finals q then Bitset.add finals q2;
        for a = 0 to k - 1 do
          delta.(q2).(a) <- remap.(t.delta.(q).(a))
        done)
      seen;
    {
      alphabet = t.alphabet;
      states = !count;
      initial = remap.(t.initial);
      finals;
      delta;
    }
  end

let quotient t block_of =
  let nb = Array.fold_left (fun acc b -> max acc (b + 1)) 0 block_of in
  let k = Alphabet.size t.alphabet in
  let delta = Array.init nb (fun _ -> Array.make k 0) in
  let finals = Bitset.create nb in
  for q = 0 to t.states - 1 do
    let b = block_of.(q) in
    if Bitset.mem t.finals q then Bitset.add finals b;
    for a = 0 to k - 1 do
      delta.(b).(a) <- block_of.(t.delta.(q).(a))
    done
  done;
  {
    alphabet = t.alphabet;
    states = nb;
    initial = block_of.(t.initial);
    finals;
    delta;
  }

let residual_classes t =
  refine ~states:t.states ~k:(Alphabet.size t.alphabet) ~delta:t.delta
    ~finals:t.finals

let minimize t =
  let t = restrict_reachable t in
  quotient t (residual_classes t)

let states_equivalent a qa b qb =
  let a' = { a with initial = qa } and b' = { b with initial = qb } in
  match equivalent a' b' with Ok () -> true | Error _ -> false

let to_nfa t =
  let k = Alphabet.size t.alphabet in
  let delta = Array.init t.states (fun q -> Array.init k (fun a -> [ t.delta.(q).(a) ])) in
  Nfa.of_dfa_parts ~alphabet:t.alphabet ~states:t.states ~initial:[ t.initial ]
    ~finals:(Bitset.copy t.finals) ~delta

let pp ppf t =
  Format.fprintf ppf "@[<v>DFA over %a: %d states, initial %d, finals %a@,"
    Alphabet.pp t.alphabet t.states t.initial Bitset.pp t.finals;
  for q = 0 to t.states - 1 do
    for a = 0 to Alphabet.size t.alphabet - 1 do
      Format.fprintf ppf "  %d --%s--> %d@," q (Alphabet.name t.alphabet a)
        t.delta.(q).(a)
    done
  done;
  Format.fprintf ppf "@]"

let to_dot ?(name = "dfa") t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  Buffer.add_string buf
    (Printf.sprintf "  init [shape=point];\n  init -> %d;\n" t.initial);
  for q = 0 to t.states - 1 do
    let shape = if Bitset.mem t.finals q then "doublecircle" else "circle" in
    Buffer.add_string buf (Printf.sprintf "  %d [shape=%s];\n" q shape)
  done;
  for q = 0 to t.states - 1 do
    for a = 0 to Alphabet.size t.alphabet - 1 do
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" q t.delta.(q).(a)
           (Alphabet.name t.alphabet a))
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
