open Rl_prelude
open Rl_sigma
open Rl_automata

type t = {
  alphabet : Alphabet.t;
  states : int;
  initial : int list;
  accepting : Bitset.t;
  csr : Csr.t;  (* the one transition table *)
  lists : int list array array option Atomic.t;
      (* the per-letter successor lists, read back from [csr] on the
         first [successors] call and cached *)
  rcsr : Csr.t option Atomic.t;
      (* the transposed table, built on the first simulation refinement
         (which reads predecessor slices) and cached *)
  trimmed : bool;
      (* every state is reachable and live: [trim] returns the record *)
}

(* Every construction site funnels through [make] with a finished table. *)
let make ~trimmed ~alphabet ~states ~initial ~accepting csr =
  {
    alphabet;
    states;
    initial;
    accepting;
    csr;
    lists = Atomic.make None;
    rcsr = Atomic.make None;
    trimmed;
  }

let full n =
  let s = Bitset.create n in
  for q = 0 to n - 1 do
    Bitset.add s q
  done;
  s

(* A value computed on first use and kept: the keep-first CAS makes
   concurrent first calls from the daemon's threads agree on one copy. *)
let cached cell build =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      let v = build () in
      if Atomic.compare_and_set cell None (Some v) then v
      else (match Atomic.get cell with Some v -> v | None -> v)

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
    ~accepting:(Bitset.of_list states accepting)
    (Csr.of_lists ~states ~symbols:(Alphabet.size alphabet) delta)

let alphabet t = t.alphabet
let states t = t.states
let initial t = t.initial
let accepting t = t.accepting
let is_accepting t q = Bitset.mem t.accepting q
let csr t = t.csr

let successors t q a =
  let lists =
    cached t.lists (fun () ->
        let k = Alphabet.size t.alphabet in
        Array.init t.states (fun q ->
            Array.init k (fun a ->
                let l = ref [] in
                for i = Csr.row_stop t.csr q a - 1 downto Csr.row_start t.csr q a do
                  l := Csr.target t.csr i :: !l
                done;
                !l)))
  in
  lists.(q).(a)

let rcsr t = cached t.rcsr (fun () -> Csr.transpose t.csr)
let iter_succ t q a f = Csr.iter_succ t.csr q a f
let has_edge t q a q' = Csr.mem_succ t.csr q a q'

(* Triples grouped by state and letter in increasing order, each slice
   reversed. *)
let transitions t =
  let acc = ref [] in
  for q = t.states - 1 downto 0 do
    for a = Alphabet.size t.alphabet - 1 downto 0 do
      Csr.iter_succ t.csr q a (fun q' -> acc := (q, a, q') :: !acc)
    done
  done;
  !acc

let of_transition_system n =
  if Nfa.has_eps n then
    invalid_arg "Buchi.of_transition_system: ε-moves not allowed";
  if not (Nfa.all_states_final n) then
    invalid_arg "Buchi.of_transition_system: all states must be final";
  (* an ε-free NFA's table is the automaton's, slice for slice *)
  make ~trimmed:false ~alphabet:(Nfa.alphabet n) ~states:(Nfa.states n)
    ~initial:(Nfa.initial n) ~accepting:(full (Nfa.states n)) (Nfa.csr n)

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

(* Kept as a compatibility shim: the SCC numbering of [sccs], observed by
   [Fair.bottom_sccs] and the RL lint's vacuous-pair pass, depends on the
   successor order, and [sccs] reads each state's CSR row backwards, the
   order it had over the per-letter lists. The order-insensitive analyses
   below read the rows forwards. *)
let sccs t =
  let offsets = Csr.offsets t.csr and targets = Csr.targets t.csr in
  let k = Csr.symbols t.csr in
  let s =
    Scc.of_succ ~states:t.states (fun q f ->
        for i = offsets.((q + 1) * k) - 1 downto offsets.(q * k) do
          f targets.(i)
        done)
  in
  (s.Scc.comp, s.Scc.count)

(* Generalized-Büchi emptiness by SCCs (Couvreur, FM'99): a component is
   good when a run can stay in it forever while visiting each of [sets]. *)
let good_components ~sets csr =
  let states = Csr.states csr in
  let s = Scc.of_csr csr in
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
let live_states ~sets csr =
  let states = Csr.states csr in
  let s, live_c = good_components ~sets csr in
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
      if not live_c.(c) then
        Csr.iter_row_all csr q (fun q' -> if live_c.(s.comp.(q')) then live_c.(c) <- true))
    order;
  Array.iteri (fun q c -> if live_c.(c) then Bitset.add live q) s.comp;
  live

let live t = live_states ~sets:[| t.accepting |] t.csr

(* [trim (degeneralize g)] for the generalized automaton [g] given by its
   fields, without building the degeneralization.

   A set that holds every state is met at every step, so it is dropped
   before counting: the language does not change, and a product with an
   all-accepting operand (a system, a closure) gets no second copy of
   its states. No set left is one full set, a single copy.

   Copy [(q, i)] of the counter construction is live iff [q] is live in
   [g], and every path into a live state runs through live states only;
   so the kept copies are those reached from [(q0, 0)] through live
   states. They are numbered in increasing [q·m + i] order, as
   restricting the full counter construction numbers them, and their
   rows are written straight into the result's table. *)
let prune ~alphabet ~initial ~sets csr =
  let n = Csr.states csr and k = Csr.symbols csr in
  let sets =
    match List.filter (fun s -> Bitset.cardinal s < n) (Array.to_list sets) with
    | [] -> [| full n |]
    | partial -> Array.of_list partial
  in
  let m = Array.length sets in
  let live = live_states ~sets csr in
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
        Csr.iter_row_all csr q (fun q' -> if Bitset.mem live q' then visit ((q' * m) + j))
  done;
  let remap = Array.make (n * m) 0 and count = ref 0 in
  Bitset.iter
    (fun c ->
      remap.(c) <- !count;
      incr count)
    kept;
  let count = !count in
  (* two passes over the kept copies in order: slice lengths (a running
     prefix sum), then the targets, into arrays of the exact size *)
  let offsets = Array.make ((count * k) + 1) 0 in
  Bitset.iter
    (fun c ->
      let q = c / m and cell = remap.(c) * k in
      for a = 0 to k - 1 do
        let len = ref 0 in
        for i = Csr.row_start csr q a to Csr.row_stop csr q a - 1 do
          if Bitset.mem live (Csr.target csr i) then incr len
        done;
        offsets.(cell + a + 1) <- offsets.(cell + a) + !len
      done)
    kept;
  let targets = Array.make offsets.(count * k) 0 in
  let accepting = Bitset.create count in
  Bitset.iter
    (fun c ->
      let q = c / m and i = c mod m and r = remap.(c) in
      if i = 0 && Bitset.mem sets.(0) q then Bitset.add accepting r;
      let j = next i q and pos = ref offsets.(r * k) in
      Csr.iter_row_all csr q (fun q' ->
          if Bitset.mem live q' then begin
            targets.(!pos) <- remap.((q' * m) + j);
            incr pos
          end))
    kept;
  make ~trimmed:true ~alphabet ~states:count
    ~initial:(List.filter_map (fun q -> if Bitset.mem live q then Some remap.(q * m) else None) initial)
    ~accepting
    (Csr.of_arrays ~states:count ~symbols:k ~offsets ~targets)

let trim t =
  if t.trimmed then t
  else prune ~alphabet:t.alphabet ~initial:t.initial ~sets:[| t.accepting |] t.csr

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
    let s, good = good_components ~sets:[| t.accepting |] t.csr in
    let scc_id = s.Scc.comp and k = Csr.symbols t.csr in
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
              for a = 0 to k - 1 do
                Csr.iter_succ t.csr q a (fun q' ->
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
              done
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
        for a = 0 to k - 1 do
          Csr.iter_succ t.csr f a (fun q' ->
              if scc_id.(q') = id then first_edges := (a, q') :: !first_edges)
        done;
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
    prune ~alphabet:g.g_alphabet ~initial:g.g_initial ~sets:g.g_sets
      (Csr.of_lists ~states:g.g_states ~symbols:(Alphabet.size g.g_alphabet) g.g_delta)
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
  (* each pair's row is written as it is expanded, so the product's
     table is built once, in id order *)
  let offsets = Vec.create () and targets = Vec.create () in
  Vec.push offsets 0;
  let id = ref 0 in
  while !id < Vec.length codes do
    let code = Vec.get codes !id in
    let p = code / nb and q = code mod nb in
    incr id;
    (* successors in order: for [p'] in [a], for [q'] in [b] *)
    for s = 0 to k - 1 do
      for i = Csr.row_start a.csr p s to Csr.row_stop a.csr p s - 1 do
        let p' = Csr.target a.csr i in
        for j = Csr.row_start b.csr q s to Csr.row_stop b.csr q s - 1 do
          Vec.push targets (intern p' (Csr.target b.csr j))
        done
      done;
      Vec.push offsets (Vec.length targets)
    done
  done;
  let n = Vec.length codes in
  let sets = [| Bitset.create n; Bitset.create n |] in
  for id = 0 to n - 1 do
    let code = Vec.get codes id in
    if Bitset.mem a.accepting (code / nb) then Bitset.add sets.(0) id;
    if Bitset.mem b.accepting (code mod nb) then Bitset.add sets.(1) id
  done;
  prune ~alphabet:a.alphabet ~initial ~sets
    (Csr.of_arrays ~states:n ~symbols:k ~offsets:(Vec.to_array offsets)
       ~targets:(Vec.to_array targets))

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
