open Rl_prelude
open Rl_sigma

type t = {
  alphabet : Alphabet.t;
  states : int;
  initial : int list;
  finals : Bitset.t;
  delta : int list array array; (* delta.(q).(a) = successors *)
  eps : int list array;
  csr : Csr.t;
      (* the canonical flat transition table, built once per automaton;
         [delta] survives as the construction-time and compatibility
         representation. Slice order equals list order, so the two views
         agree successor-for-successor. *)
  rcsr : Csr.t option Atomic.t;
      (* the transposed table, built on the first simulation refinement
         (which reads predecessor slices) and cached. In an [Atomic]
         (keep-first CAS) so the daemon's threads can share the record;
         [{t with ...}] copies share the cell, which is sound because they
         never change [delta]. *)
}

(* Every construction site funnels through [make]: the labeled delta is
   frozen into a CSR table exactly once, after all mutation. *)
let make ~alphabet ~states ~initial ~finals ~delta ~eps =
  let csr = Csr.of_lists ~states ~symbols:(Alphabet.size alphabet) delta in
  { alphabet; states; initial; finals; delta; eps; csr; rcsr = Atomic.make None }

let create ~alphabet ~states ~initial ~finals ~transitions ?(eps = []) () =
  if states < 0 then invalid_arg "Nfa.create: negative state count";
  let k = Alphabet.size alphabet in
  let check q =
    if q < 0 || q >= states then invalid_arg "Nfa: state out of range"
  in
  let delta = Array.init states (fun _ -> Array.make k []) in
  let epsa = Array.make (max states 1) [] in
  let fin = Bitset.create states in
  List.iter check initial;
  List.iter
    (fun q ->
      check q;
      Bitset.add fin q)
    finals;
  List.iter
    (fun (q, a, q') ->
      check q;
      check q';
      if a < 0 || a >= k then invalid_arg "Nfa.create: symbol out of range";
      delta.(q).(a) <- q' :: delta.(q).(a))
    transitions;
  List.iter
    (fun (q, q') ->
      check q;
      check q';
      epsa.(q) <- q' :: epsa.(q))
    eps;
  make ~alphabet ~states ~initial ~finals:fin ~delta ~eps:epsa

let of_dfa_parts ~alphabet ~states ~initial ~finals ~delta =
  make ~alphabet ~states ~initial ~finals ~delta
    ~eps:(Array.make (max states 1) [])

let alphabet t = t.alphabet
let states t = t.states
let initial t = t.initial
let finals t = t.finals
let is_final t q = Bitset.mem t.finals q
let successors t q a = t.delta.(q).(a)
let csr t = t.csr

let rcsr t =
  match Atomic.get t.rcsr with
  | Some r -> r
  | None ->
      let r = Csr.transpose t.csr in
      (* keep-first: a concurrent builder computed the same table *)
      if Atomic.compare_and_set t.rcsr None (Some r) then r
      else (match Atomic.get t.rcsr with Some r -> r | None -> r)

let iter_succ t q a f = Csr.iter_succ t.csr q a f
let eps_successors t q = if t.states = 0 then [] else t.eps.(q)
let has_eps t = Array.exists (fun l -> l <> []) t.eps

let transitions t =
  let acc = ref [] in
  for q = t.states - 1 downto 0 do
    for a = Alphabet.size t.alphabet - 1 downto 0 do
      List.iter (fun q' -> acc := (q, a, q') :: !acc) t.delta.(q).(a)
    done
  done;
  !acc

(* In-place ε-closure of a state set. *)
let close_eps t set =
  let stack = ref (Bitset.elements set) in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        List.iter
          (fun q' ->
            if not (Bitset.mem set q') then begin
              Bitset.add set q';
              stack := q' :: !stack
            end)
          t.eps.(q)
  done

let initial_closure t =
  let set = Bitset.of_list t.states t.initial in
  close_eps t set;
  set

let step t set a =
  let out = Bitset.create t.states in
  Bitset.iter (fun q -> List.iter (Bitset.add out) t.delta.(q).(a)) set;
  close_eps t out;
  out

let accepts t w =
  if t.states = 0 then false
  else begin
    let set = ref (initial_closure t) in
    for i = 0 to Word.length w - 1 do
      set := step t !set (Word.get w i)
    done;
    not (Bitset.disjoint !set t.finals)
  end

let remove_eps t =
  if not (has_eps t) then t
  else begin
    let k = Alphabet.size t.alphabet in
    let closures =
      Array.init t.states (fun q ->
          let s = Bitset.of_list t.states [ q ] in
          close_eps t s;
          s)
    in
    let delta = Array.init t.states (fun _ -> Array.make k []) in
    let finals = Bitset.create t.states in
    for q = 0 to t.states - 1 do
      if not (Bitset.disjoint closures.(q) t.finals) then Bitset.add finals q;
      for a = 0 to k - 1 do
        let out = Bitset.create t.states in
        Bitset.iter
          (fun p -> List.iter (Bitset.add out) t.delta.(p).(a))
          closures.(q);
        delta.(q).(a) <- Bitset.elements out
      done
    done;
    make ~alphabet:t.alphabet ~states:t.states ~initial:t.initial ~finals
      ~delta
      ~eps:(Array.make (max t.states 1) [])
  end

let forward_closure ~start ~succ n =
  let seen = Bitset.create n in
  let stack = ref [] in
  List.iter
    (fun q ->
      if not (Bitset.mem seen q) then begin
        Bitset.add seen q;
        stack := q :: !stack
      end)
    start;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        List.iter
          (fun q' ->
            if not (Bitset.mem seen q') then begin
              Bitset.add seen q';
              stack := q' :: !stack
            end)
          (succ q)
  done;
  seen

let all_successors t q =
  let acc = ref t.eps.(q) in
  Array.iter (fun l -> acc := List.rev_append l !acc) t.delta.(q);
  !acc

let reachable t = forward_closure ~start:t.initial ~succ:(all_successors t) t.states

let productive t =
  (* Backward reachability from final states over reversed edges. *)
  let pred = Array.make (max t.states 1) [] in
  for q = 0 to t.states - 1 do
    List.iter (fun q' -> pred.(q') <- q :: pred.(q')) (all_successors t q)
  done;
  forward_closure ~start:(Bitset.elements t.finals) ~succ:(fun q -> pred.(q)) t.states

let restrict t keep =
  let remap = Array.make (max t.states 1) (-1) in
  let count = ref 0 in
  Bitset.iter
    (fun q ->
      remap.(q) <- !count;
      incr count)
    keep;
  let n = !count in
  let k = Alphabet.size t.alphabet in
  let delta = Array.init n (fun _ -> Array.make k []) in
  let eps = Array.make (max n 1) [] in
  let finals = Bitset.create n in
  Bitset.iter
    (fun q ->
      let q2 = remap.(q) in
      if Bitset.mem t.finals q then Bitset.add finals q2;
      for a = 0 to k - 1 do
        delta.(q2).(a) <-
          List.filter_map
            (fun q' -> if Bitset.mem keep q' then Some remap.(q') else None)
            t.delta.(q).(a)
      done;
      eps.(q2) <-
        List.filter_map
          (fun q' -> if Bitset.mem keep q' then Some remap.(q') else None)
          t.eps.(q))
    keep;
  let initial =
    List.filter_map
      (fun q -> if Bitset.mem keep q then Some remap.(q) else None)
      t.initial
  in
  make ~alphabet:t.alphabet ~states:n ~initial ~finals ~delta ~eps

let trim t =
  let keep = reachable t in
  Bitset.inter_into ~into:keep (productive t);
  restrict t keep

let is_empty t =
  let r = reachable t in
  Bitset.disjoint r t.finals

let shortest_word t =
  (* BFS over state sets would be exponential; BFS over single states of the
     ε-free automaton suffices for a shortest accepted word. *)
  let t = remove_eps t in
  let n = t.states in
  if n = 0 then None
  else begin
    let parent = Array.make n None in
    let seen = Bitset.create n in
    let queue = Queue.create () in
    List.iter
      (fun q ->
        if not (Bitset.mem seen q) then begin
          Bitset.add seen q;
          Queue.add q queue
        end)
      t.initial;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let q = Queue.pop queue in
      if Bitset.mem t.finals q then found := Some q
      else
        Array.iteri
          (fun a succs ->
            List.iter
              (fun q' ->
                if not (Bitset.mem seen q') then begin
                  Bitset.add seen q';
                  parent.(q') <- Some (q, a);
                  Queue.add q' queue
                end)
              succs)
          t.delta.(q)
    done;
    match !found with
    | None -> None
    | Some q ->
        let rec back q acc =
          match parent.(q) with None -> acc | Some (p, a) -> back p (a :: acc)
        in
        Some (Word.of_list (back q []))
  end

let inter a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Nfa.inter: alphabet mismatch";
  let a = remove_eps a and b = remove_eps b in
  let k = Alphabet.size a.alphabet in
  let n = a.states * b.states in
  let pair p q = (p * b.states) + q in
  if a.states = 0 || b.states = 0 then
    make ~alphabet:a.alphabet ~states:0 ~initial:[] ~finals:(Bitset.create 0)
      ~delta:[||] ~eps:[| [] |]
  else begin
    let delta = Array.init n (fun _ -> Array.make k []) in
    let finals = Bitset.create n in
    for p = 0 to a.states - 1 do
      for q = 0 to b.states - 1 do
        if Bitset.mem a.finals p && Bitset.mem b.finals q then
          Bitset.add finals (pair p q);
        for s = 0 to k - 1 do
          delta.(pair p q).(s) <-
            List.concat_map
              (fun p' -> List.map (fun q' -> pair p' q') b.delta.(q).(s))
              a.delta.(p).(s)
        done
      done
    done;
    let initial =
      List.concat_map (fun p -> List.map (pair p) b.initial) a.initial
    in
    make ~alphabet:a.alphabet ~states:n ~initial ~finals ~delta
      ~eps:(Array.make (max n 1) [])
  end

let union a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Nfa.union: alphabet mismatch";
  let k = Alphabet.size a.alphabet in
  let n = a.states + b.states in
  let shift q = q + a.states in
  let delta = Array.init (max n 1) (fun _ -> Array.make k []) in
  let eps = Array.make (max n 1) [] in
  let finals = Bitset.create n in
  for q = 0 to a.states - 1 do
    if Bitset.mem a.finals q then Bitset.add finals q;
    for s = 0 to k - 1 do
      delta.(q).(s) <- a.delta.(q).(s)
    done;
    eps.(q) <- a.eps.(q)
  done;
  for q = 0 to b.states - 1 do
    if Bitset.mem b.finals q then Bitset.add finals (shift q);
    for s = 0 to k - 1 do
      delta.(shift q).(s) <- List.map shift b.delta.(q).(s)
    done;
    eps.(shift q) <- List.map shift b.eps.(q)
  done;
  let delta = if n = 0 then [||] else Array.sub delta 0 n in
  make ~alphabet:a.alphabet ~states:n
    ~initial:(a.initial @ List.map shift b.initial)
    ~finals ~delta ~eps

let reverse t =
  let k = Alphabet.size t.alphabet in
  let delta = Array.init (max t.states 1) (fun _ -> Array.make k []) in
  let eps = Array.make (max t.states 1) [] in
  for q = 0 to t.states - 1 do
    for a = 0 to k - 1 do
      List.iter (fun q' -> delta.(q').(a) <- q :: delta.(q').(a)) t.delta.(q).(a)
    done;
    List.iter (fun q' -> eps.(q') <- q :: eps.(q')) t.eps.(q)
  done;
  let delta = if t.states = 0 then [||] else Array.sub delta 0 t.states in
  make ~alphabet:t.alphabet ~states:t.states
    ~initial:(Bitset.elements t.finals)
    ~finals:(Bitset.of_list t.states t.initial)
    ~delta ~eps

let prefix_language t =
  let t = trim t in
  let finals = Bitset.create t.states in
  for q = 0 to t.states - 1 do
    Bitset.add finals q
  done;
  { t with finals }

let all_states_final t = Bitset.cardinal t.finals = t.states

let map_symbols ~alphabet f t =
  let k = Alphabet.size t.alphabet in
  let k' = Alphabet.size alphabet in
  let delta = Array.init (max t.states 1) (fun _ -> Array.make k' []) in
  let eps = Array.make (max t.states 1) [] in
  for q = 0 to t.states - 1 do
    eps.(q) <- t.eps.(q);
    for a = 0 to k - 1 do
      match f a with
      | None -> eps.(q) <- List.rev_append t.delta.(q).(a) eps.(q)
      | Some b ->
          if b < 0 || b >= k' then invalid_arg "Nfa.map_symbols: bad target symbol";
          delta.(q).(b) <- List.rev_append t.delta.(q).(a) delta.(q).(b)
    done
  done;
  let delta = if t.states = 0 then [||] else Array.sub delta 0 t.states in
  make ~alphabet ~states:t.states ~initial:t.initial
    ~finals:(Bitset.copy t.finals) ~delta ~eps

let residual t w =
  if t.states = 0 then t
  else begin
    let set = ref (initial_closure t) in
    for i = 0 to Word.length w - 1 do
      set := step t !set (Word.get w i)
    done;
    { t with initial = Bitset.elements !set }
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>NFA over %a: %d states, initial %a, finals %a@,"
    Alphabet.pp t.alphabet t.states
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    t.initial Bitset.pp t.finals;
  List.iter
    (fun (q, a, q') ->
      Format.fprintf ppf "  %d --%s--> %d@," q (Alphabet.name t.alphabet a) q')
    (transitions t);
  for q = 0 to t.states - 1 do
    List.iter (fun q' -> Format.fprintf ppf "  %d --ε--> %d@," q q') t.eps.(q)
  done;
  Format.fprintf ppf "@]"

let to_dot ?(name = "nfa") t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  List.iter
    (fun q -> Buffer.add_string buf (Printf.sprintf "  init%d [shape=point];\n  init%d -> %d;\n" q q q))
    t.initial;
  for q = 0 to t.states - 1 do
    let shape = if Bitset.mem t.finals q then "doublecircle" else "circle" in
    Buffer.add_string buf (Printf.sprintf "  %d [shape=%s];\n" q shape)
  done;
  List.iter
    (fun (q, a, q') ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" q q' (Alphabet.name t.alphabet a)))
    (transitions t);
  for q = 0 to t.states - 1 do
    List.iter
      (fun q' -> Buffer.add_string buf (Printf.sprintf "  %d -> %d [label=\"ε\"];\n" q q'))
      t.eps.(q)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
