open Rl_prelude
open Rl_sigma
open Rl_automata

type t = {
  alphabet : Alphabet.t;
  states : int;
  initial : int list;
  accepting : Bitset.t;
  delta : int list array array;
  csr : Csr.t;
      (* the canonical flat transition table, built once per automaton;
         slice order equals the [delta] list order *)
  rcsr : Csr.t option Atomic.t;
      (* the transposed table, built lazily on the first backward pass of
         simulation refinement and cached; the keep-first CAS makes the
         cell domain-safe *)
  trimmed : bool;
      (* every state is reachable and live: [trim] returns the record *)
}

(* Every construction site funnels through [make]: the delta is frozen
   into a CSR table exactly once, after all mutation. *)
let make ~trimmed ~alphabet ~states ~initial ~accepting ~delta =
  let csr = Csr.of_lists ~states ~symbols:(Alphabet.size alphabet) delta in
  { alphabet; states; initial; accepting; delta; csr; rcsr = Atomic.make None; trimmed }

(* The triples as per-letter successor lists, a later triple in front of
   an earlier one; every state of [checked] and of the triples is
   range-checked. *)
let delta_of ~alphabet ~states ~checked ~transitions =
  if states < 0 then invalid_arg "Buchi.create: negative state count";
  let k = Alphabet.size alphabet in
  let check q =
    if q < 0 || q >= states then invalid_arg "Buchi: state out of range"
  in
  List.iter check checked;
  let delta = Array.init states (fun _ -> Array.make k []) in
  List.iter
    (fun (q, a, q') ->
      check q;
      check q';
      if a < 0 || a >= k then invalid_arg "Buchi.create: symbol out of range";
      delta.(q).(a) <- q' :: delta.(q).(a))
    transitions;
  delta

let create ~alphabet ~states ~initial ~accepting ~transitions () =
  let delta =
    delta_of ~alphabet ~states ~checked:(initial @ accepting) ~transitions
  in
  make ~trimmed:false ~alphabet ~states ~initial
    ~accepting:(Bitset.of_list states accepting) ~delta

let alphabet t = t.alphabet
let states t = t.states
let initial t = t.initial
let accepting t = t.accepting
let is_accepting t q = Bitset.mem t.accepting q
let successors t q a = t.delta.(q).(a)
let csr t = t.csr

let rcsr t =
  match Atomic.get t.rcsr with
  | Some r -> r
  | None ->
      let r = Csr.transpose t.csr in
      if Atomic.compare_and_set t.rcsr None (Some r) then r
      else (match Atomic.get t.rcsr with Some r -> r | None -> r)

let iter_succ t q a f = Csr.iter_succ t.csr q a f
let has_edge t q a q' = Csr.mem_succ t.csr q a q'

let transitions t =
  let acc = ref [] in
  for q = t.states - 1 downto 0 do
    for a = Alphabet.size t.alphabet - 1 downto 0 do
      List.iter (fun q' -> acc := (q, a, q') :: !acc) t.delta.(q).(a)
    done
  done;
  !acc

let of_transition_system n =
  if Nfa.has_eps n then
    invalid_arg "Buchi.of_transition_system: ε-moves not allowed";
  if not (Nfa.all_states_final n) then
    invalid_arg "Buchi.of_transition_system: all states must be final";
  create ~alphabet:(Nfa.alphabet n) ~states:(Nfa.states n)
    ~initial:(Nfa.initial n)
    ~accepting:(List.init (Nfa.states n) Fun.id)
    ~transitions:(Nfa.transitions n) ()

let limit_of_dfa d =
  let k = Alphabet.size (Dfa.alphabet d) in
  let transitions = ref [] in
  for q = 0 to Dfa.states d - 1 do
    for a = 0 to k - 1 do
      transitions := (q, a, Dfa.step d q a) :: !transitions
    done
  done;
  let accepting =
    List.filter (Dfa.is_final d) (List.init (Dfa.states d) Fun.id)
  in
  create ~alphabet:(Dfa.alphabet d) ~states:(Dfa.states d)
    ~initial:[ Dfa.initial d ] ~accepting ~transitions:!transitions ()

(* An ε-free, all-final NFA accepts a prefix-closed language, and by
   König's lemma an ω-word all of whose prefixes have runs has an infinite
   run: its limit is the NFA itself with every state accepting. Reading it
   so is linear, like [accepting_lasso], and is charged as one bulk pass. *)
let limit ?(budget = Rl_engine_kernel.Budget.unlimited) n =
  if Nfa.has_eps n || not (Nfa.all_states_final n) then
    limit_of_dfa (Dfa.determinize ~budget n)
  else begin
    Rl_engine_kernel.Budget.charge budget (Nfa.states n);
    of_transition_system n
  end

let of_lasso alphabet x =
  let stem = Lasso.stem x and cycle = Lasso.cycle x in
  let s = Word.length stem and p = Word.length cycle in
  let n = s + p in
  let transitions = ref [] in
  for i = 0 to s - 1 do
    transitions := (i, Word.get stem i, i + 1) :: !transitions
  done;
  for i = 0 to p - 1 do
    let target = if i = p - 1 then s else s + i + 1 in
    transitions := (s + i, Word.get cycle i, target) :: !transitions
  done;
  create ~alphabet ~states:n ~initial:[ 0 ]
    ~accepting:(List.init n Fun.id) ~transitions:!transitions ()

(* --- graph analyses --- *)

(* Kept as a compatibility shim: [sccs] iterates these lists, and its
   SCC numbering, observed by [Fair.bottom_sccs] and the RL lint's
   vacuous-pair pass, depends on this exact successor order. The
   order-insensitive analyses below step the CSR table instead. *)
let all_successors t q =
  Array.fold_left (fun acc l -> List.rev_append l acc) [] t.delta.(q)

let reachable t =
  let seen = Bitset.create t.states in
  let stack = ref [] in
  List.iter
    (fun q ->
      if not (Bitset.mem seen q) then begin
        Bitset.add seen q;
        stack := q :: !stack
      end)
    t.initial;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        Csr.iter_row_all t.csr q (fun q' ->
            if not (Bitset.mem seen q') then begin
              Bitset.add seen q';
              stack := q' :: !stack
            end)
  done;
  seen

let sccs t =
  let s = Scc.of_succ ~states:t.states (fun q f -> List.iter f (all_successors t q)) in
  (s.Scc.comp, s.Scc.count)

(* Generalized-Büchi emptiness by SCCs (Couvreur, FM'99): a component is
   good when a run can stay in it forever while visiting each of [sets]. *)
let good_components ~states ~sets succ =
  let s = Scc.of_succ ~states succ in
  let m = Array.length sets in
  let met = Array.make (s.Scc.count * m) false in
  for q = 0 to states - 1 do
    for i = 0 to m - 1 do
      if Bitset.mem sets.(i) q then met.((s.comp.(q) * m) + i) <- true
    done
  done;
  let rec meets_all c i = i = m || (met.((c * m) + i) && meets_all c (i + 1)) in
  (s, Array.init s.count (fun c -> Scc.nontrivial s c && meets_all c 0))

(* The states that reach a good component. Components are numbered sinks
   first, so one sweep over the states grouped by ascending component
   closes liveness backwards, with no transposed table. *)
let live_states ~states ~sets succ =
  let s, live_c = good_components ~states ~sets succ in
  let pos = Array.make (s.count + 1) 0 in
  for c = 0 to s.count - 1 do
    pos.(c + 1) <- pos.(c) + s.size.(c)
  done;
  let order = Array.make states 0 in
  Array.iteri
    (fun q c ->
      order.(pos.(c)) <- q;
      pos.(c) <- pos.(c) + 1)
    s.comp;
  let live = Bitset.create states in
  Array.iter
    (fun q ->
      let c = s.comp.(q) in
      if not live_c.(c) then succ q (fun q' -> if live_c.(s.comp.(q')) then live_c.(c) <- true))
    order;
  Array.iteri (fun q c -> if live_c.(c) then Bitset.add live q) s.comp;
  live

let live t =
  live_states ~states:t.states ~sets:[| t.accepting |] (Csr.iter_row_all t.csr)

(* [trim (degeneralize g)] for the generalized automaton [g] given by its
   fields, without building the degeneralization. Copy [(q, i)] of the
   counter construction is live iff [q] is live in [g], and every path
   into a live state runs through live states only; so the kept copies
   are those reached from [(q0, 0)] through live states. They are
   numbered in increasing [q·m + i] order, as restricting the full
   counter construction numbers them. *)
let prune ~alphabet ~states:n ~initial ~sets ~delta =
  let m = Array.length sets in
  let live = live_states ~states:n ~sets (fun q f -> Array.iter (List.iter f) delta.(q)) in
  let next i q = if Bitset.mem sets.(i) q then (i + 1) mod m else i in
  let kept = Bitset.create (n * m) in
  let stack = ref [] in
  let visit c =
    if not (Bitset.mem kept c) then begin
      Bitset.add kept c;
      stack := c :: !stack
    end
  in
  List.iter (fun q -> if Bitset.mem live q then visit (q * m)) initial;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | c :: rest ->
        stack := rest;
        let q = c / m in
        let j = next (c mod m) q in
        Array.iter
          (List.iter (fun q' -> if Bitset.mem live q' then visit ((q' * m) + j)))
          delta.(q)
  done;
  let remap = Array.make (n * m) 0 and count = ref 0 in
  Bitset.iter
    (fun c ->
      remap.(c) <- !count;
      incr count)
    kept;
  (* the kept copies [(q', j)] of [qs], in order *)
  let rec copies j = function
    | [] -> []
    | q' :: qs when Bitset.mem live q' -> remap.((q' * m) + j) :: copies j qs
    | _ :: qs -> copies j qs
  in
  let accepting = Bitset.create !count in
  let pruned = Array.make !count [||] in
  Bitset.iter
    (fun c ->
      let q = c / m and i = c mod m in
      if i = 0 && Bitset.mem sets.(0) q then Bitset.add accepting remap.(c);
      pruned.(remap.(c)) <- Array.map (copies (next i q)) delta.(q))
    kept;
  make ~trimmed:true ~alphabet ~states:!count ~initial:(copies 0 initial) ~accepting
    ~delta:pruned

let trim t =
  if t.trimmed then t
  else
    prune ~alphabet:t.alphabet ~states:t.states ~initial:t.initial
      ~sets:[| t.accepting |] ~delta:t.delta

let is_empty t =
  let l = live t in
  not (List.exists (Bitset.mem l) t.initial)

let accepting_lasso ?(budget = Rl_engine_kernel.Budget.unlimited) t =
  if t.states = 0 then None
  else begin
    (* the automaton is already built: the witness search is linear, so a
       single bulk charge accounts for it *)
    Rl_engine_kernel.Budget.charge budget t.states;
    let reach = reachable t in
    let s, good =
      good_components ~states:t.states ~sets:[| t.accepting |] (Csr.iter_row_all t.csr)
    in
    let scc_id = s.Scc.comp in
    (* Find a reachable accepting state inside a good SCC. *)
    let target = ref None in
    for q = 0 to t.states - 1 do
      if
        !target = None && Bitset.mem reach q
        && Bitset.mem t.accepting q
        && good.(scc_id.(q))
      then target := Some q
    done;
    match !target with
    | None -> None
    | Some f ->
        (* BFS path initial → f with labels. *)
        let bfs start stop restrict_scc =
          let parent = Array.make t.states None in
          let seen = Bitset.create t.states in
          let queue = Queue.create () in
          List.iter
            (fun (q, lab) ->
              if not (Bitset.mem seen q) then begin
                Bitset.add seen q;
                parent.(q) <- lab;
                Queue.add q queue
              end)
            start;
          let found = ref None in
          while !found = None && not (Queue.is_empty queue) do
            let q = Queue.pop queue in
            if q = stop then found := Some q
            else
              Array.iteri
                (fun a succs ->
                  List.iter
                    (fun q' ->
                      let ok =
                        match restrict_scc with
                        | None -> true
                        | Some id -> scc_id.(q') = id
                      in
                      if ok && not (Bitset.mem seen q') then begin
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
                match parent.(q) with
                | None -> acc
                | Some (p, a) -> back p (a :: acc)
              in
              Some (back q [])
        in
        let stem =
          match bfs (List.map (fun q -> (q, None)) t.initial) f None with
          | Some labels -> Word.of_list labels
          | None -> assert false
        in
        (* Cycle: take one edge f --a--> q' inside f's SCC, then a path
           q' → f. The BFS starts fresh at q' (parent None) so the back
           walk terminates there; the first edge is prepended. *)
        let id = scc_id.(f) in
        let first_edges = ref [] in
        Array.iteri
          (fun a succs ->
            List.iter
              (fun q' -> if scc_id.(q') = id then first_edges := (a, q') :: !first_edges)
              succs)
          t.delta.(f);
        let rec try_edges = function
          | [] -> None
          | (a, q') :: rest -> (
              match bfs [ (q', None) ] f (Some id) with
              | Some labels -> Some (Word.of_list (a :: labels))
              | None -> try_edges rest)
        in
        let cycle =
          match try_edges !first_edges with
          | Some c -> c
          | None -> assert false (* f lies in a good (non-trivial) SCC *)
        in
        Some (Lasso.make stem cycle)
  end

(* --- generalized Büchi --- *)

module Gba = struct
  type gba = {
    g_alphabet : Alphabet.t;
    g_states : int;
    g_initial : int list;
    g_sets : Bitset.t array;
    g_delta : int list array array;
  }

  let create ~alphabet ~states ~initial ~accepting_sets ~transitions () =
    let delta = delta_of ~alphabet ~states ~checked:initial ~transitions in
    let set xs =
      List.iter
        (fun q ->
          if q < 0 || q >= states then invalid_arg "Gba.create: state out of range")
        xs;
      Bitset.of_list states xs
    in
    {
      g_alphabet = alphabet;
      g_states = states;
      g_initial = initial;
      g_sets = Array.of_list (List.map set accepting_sets);
      g_delta = delta;
    }

  let to_buchi g =
    let n = g.g_states in
    prune ~alphabet:g.g_alphabet ~states:n ~initial:g.g_initial ~delta:g.g_delta
      ~sets:
        (if Array.length g.g_sets = 0 then [| Bitset.of_list n (List.init n Fun.id) |]
         else g.g_sets)
end

(* Pair codes [p·nb + q] are their own hash. *)
module Pair_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash c = c
end)

let inter ?(budget = Rl_engine_kernel.Budget.unlimited) a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Buchi.inter: alphabet mismatch";
  (* explore only the reachable pairs: the full product is quadratic and
     dominates memory when one operand is large (e.g. a complement).
     Ids are handed out breadth first, so the pair numbered [id] is the
     [id]-th expanded and the id range is the queue. *)
  let nb = b.states in
  let ids = Pair_tbl.create 64 and codes = Vec.create () in
  let intern p q =
    let code = (p * nb) + q in
    match Pair_tbl.find_opt ids code with
    | Some id -> id
    | None ->
        Rl_engine_kernel.Budget.tick budget;
        let id = Vec.length codes in
        Pair_tbl.add ids code id;
        Vec.push codes code;
        id
  in
  let initial = List.concat_map (fun p -> List.map (intern p) b.initial) a.initial in
  let k = Alphabet.size a.alphabet in
  let rows = ref [] and id = ref 0 in
  while !id < Vec.length codes do
    let code = Vec.get codes !id in
    let p = code / nb and q = code mod nb in
    incr id;
    (* successors in order: for [p'] in [a], for [q'] in [b] *)
    rows :=
      Array.init k (fun s ->
          List.concat_map (fun p' -> List.map (intern p') b.delta.(q).(s)) a.delta.(p).(s))
      :: !rows
  done;
  let n = Vec.length codes in
  let sets = [| Bitset.create n; Bitset.create n |] in
  for id = 0 to n - 1 do
    let code = Vec.get codes id in
    if Bitset.mem a.accepting (code / nb) then Bitset.add sets.(0) id;
    if Bitset.mem b.accepting (code mod nb) then Bitset.add sets.(1) id
  done;
  prune ~alphabet:a.alphabet ~states:n ~initial ~sets
    ~delta:(Array.of_list (List.rev !rows))

let union a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Buchi.union: alphabet mismatch";
  let shift q = q + a.states in
  let transitions =
    transitions a
    @ List.map (fun (q, s, q') -> (shift q, s, shift q')) (transitions b)
  in
  create ~alphabet:a.alphabet ~states:(a.states + b.states)
    ~initial:(a.initial @ List.map shift b.initial)
    ~accepting:
      (Bitset.elements a.accepting
      @ List.map shift (Bitset.elements b.accepting))
    ~transitions ()

let member t x = not (is_empty (inter t (of_lasso t.alphabet x)))

let pre_language ?(budget = Rl_engine_kernel.Budget.unlimited) t =
  Rl_engine_kernel.Budget.charge budget t.states;
  let t = trim t in
  if t.states = 0 then
    Nfa.create ~alphabet:t.alphabet ~states:0 ~initial:[] ~finals:[]
      ~transitions:[] ()
  else
    Nfa.create ~alphabet:t.alphabet ~states:t.states ~initial:t.initial
      ~finals:(List.init t.states Fun.id)
      ~transitions:(transitions t) ()

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Buchi over %a: %d states, initial %a, accepting %a@,"
    Alphabet.pp t.alphabet t.states
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    t.initial Bitset.pp t.accepting;
  List.iter
    (fun (q, a, q') ->
      Format.fprintf ppf "  %d --%s--> %d@," q (Alphabet.name t.alphabet a) q')
    (transitions t);
  Format.fprintf ppf "@]"

let to_dot ?(name = "buchi") t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  List.iter
    (fun q ->
      Buffer.add_string buf
        (Printf.sprintf "  init%d [shape=point];\n  init%d -> %d;\n" q q q))
    t.initial;
  for q = 0 to t.states - 1 do
    let shape = if Bitset.mem t.accepting q then "doublecircle" else "circle" in
    Buffer.add_string buf (Printf.sprintf "  %d [shape=%s];\n" q shape)
  done;
  List.iter
    (fun (q, a, q') ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" q q'
           (Alphabet.name t.alphabet a)))
    (transitions t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
