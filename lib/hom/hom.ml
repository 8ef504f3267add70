open Rl_prelude
open Rl_sigma
open Rl_automata

type t = {
  concrete : Alphabet.t;
  abstract : Alphabet.t;
  map : int option array; (* concrete symbol -> abstract symbol or ε *)
}

let create ~concrete ~abstract mapping =
  let map = Array.make (Alphabet.size concrete) None in
  let seen = Array.make (Alphabet.size concrete) false in
  List.iter
    (fun (cname, target) ->
      let c =
        match Alphabet.symbol_opt concrete cname with
        | Some c -> c
        | None ->
            invalid_arg (Printf.sprintf "Hom.create: unknown concrete symbol %S" cname)
      in
      if seen.(c) then
        invalid_arg (Printf.sprintf "Hom.create: %S mapped twice" cname);
      seen.(c) <- true;
      map.(c) <-
        (match target with
        | None -> None
        | Some aname -> (
            match Alphabet.symbol_opt abstract aname with
            | Some a -> Some a
            | None ->
                invalid_arg
                  (Printf.sprintf "Hom.create: unknown abstract symbol %S" aname))))
    mapping;
  if not (Array.for_all Fun.id seen) then
    invalid_arg "Hom.create: some concrete symbol left unmapped";
  { concrete; abstract; map }

let hiding ~concrete ~keep =
  let abstract = Alphabet.make keep in
  let mapping =
    List.map
      (fun name -> (name, if List.mem name keep then Some name else None))
      (Alphabet.names concrete)
  in
  create ~concrete ~abstract mapping

let concrete h = h.concrete
let abstract h = h.abstract
let apply_symbol h a = h.map.(a)

let apply_word h w =
  Word.of_list (List.filter_map (fun a -> h.map.(a)) (Word.to_list w))

let apply_lasso h x = Lasso.map (fun a -> h.map.(a)) x

let image h n = Nfa.remove_eps (Nfa.map_symbols ~alphabet:h.abstract (fun a -> h.map.(a)) n)
let image_ts h n = Nfa.trim (image h n)

let preimage h d =
  let k = Alphabet.size h.concrete in
  let delta =
    Array.init (Dfa.states d) (fun q ->
        Array.init k (fun a ->
            match h.map.(a) with None -> q | Some b -> Dfa.step d q b))
  in
  let finals = List.filter (Dfa.is_final d) (List.init (Dfa.states d) Fun.id) in
  Dfa.create ~alphabet:h.concrete ~states:(Dfa.states d) ~initial:(Dfa.initial d)
    ~finals ~delta

(* --- maximal words --- *)

(* In the complete DFA of L, a reachable accepting state with no non-empty
   path back to an accepting state witnesses a maximal word. *)
let maximal_states d =
  let n = Dfa.states d in
  let k = Alphabet.size (Dfa.alphabet d) in
  (* extendable.(q): some non-empty path from q reaches an accepting state *)
  let extendable = Array.make n false in
  let pred = Array.make n [] in
  for q = 0 to n - 1 do
    for a = 0 to k - 1 do
      pred.(Dfa.step d q a) <- q :: pred.(Dfa.step d q a)
    done
  done;
  let stack = ref [] in
  for q = 0 to n - 1 do
    if Dfa.is_final d q then
      List.iter
        (fun p ->
          if not extendable.(p) then begin
            extendable.(p) <- true;
            stack := p :: !stack
          end)
        pred.(q)
  done;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        List.iter
          (fun p ->
            if not extendable.(p) then begin
              extendable.(p) <- true;
              stack := p :: !stack
            end)
          pred.(q)
  done;
  let reach = Bitset.create n in
  let bfs = Queue.create () in
  Bitset.add reach (Dfa.initial d);
  Queue.add (Dfa.initial d) bfs;
  while not (Queue.is_empty bfs) do
    let q = Queue.pop bfs in
    for a = 0 to k - 1 do
      let q' = Dfa.step d q a in
      if not (Bitset.mem reach q') then begin
        Bitset.add reach q';
        Queue.add q' bfs
      end
    done
  done;
  List.filter
    (fun q -> Bitset.mem reach q && Dfa.is_final d q && not extendable.(q))
    (List.init n Fun.id)

let has_maximal_words ?budget n = maximal_states (Dfa.determinize ?budget n) <> []

let hash_extend ?(hash = "#") n =
  let d = Dfa.determinize n in
  let maximal = maximal_states d in
  let old_alpha = Dfa.alphabet d in
  if Alphabet.mem_name old_alpha hash then
    invalid_arg "Hom.hash_extend: hash symbol already in alphabet";
  let alphabet = Alphabet.make (Alphabet.names old_alpha @ [ hash ]) in
  let hsym = Alphabet.symbol alphabet hash in
  let transitions = ref [] in
  for q = 0 to Dfa.states d - 1 do
    for a = 0 to Alphabet.size old_alpha - 1 do
      transitions := (q, a, Dfa.step d q a) :: !transitions
    done
  done;
  List.iter (fun q -> transitions := (q, hsym, q) :: !transitions) maximal;
  let finals = List.filter (Dfa.is_final d) (List.init (Dfa.states d) Fun.id) in
  Nfa.trim
    (Nfa.create ~alphabet ~states:(Dfa.states d) ~initial:[ Dfa.initial d ]
       ~finals ~transitions:!transitions ())

(* --- simplicity --- *)

type verdict = { simple : bool; configurations : int; witness : Word.t option }

module Set_tbl = Hashtbl.Make (Bitset)

let check_ts l =
  if Nfa.has_eps l then invalid_arg "Hom: transition system has ε-moves";
  if not (Nfa.all_states_final l) then
    invalid_arg "Hom: transition system must have all states final"

let post n set a =
  let out = Bitset.create (Nfa.states n) in
  Bitset.iter (fun q -> List.iter (Bitset.add out) (Nfa.successors n q a)) set;
  out

(* Definition 6.3 asks, at each configuration (S, t) — S the states of
   the transition system after w, t the state of h(L)'s DFA after h(w) —
   for a u with cont(u, cont(h w, h L)) = cont(u, h(cont_S)). [image h l]
   keeps the numbering and the initial set of [l], and h(cont_S) is the
   language of the image NFA started in S, so the DFA of h(L) and every
   DFA of h(cont_S) are rows of one subset construction over the image:
   the sets the concrete subset construction of [l] reaches (the S of
   every configuration, the initial set among them) closed under the
   abstract letters. One minimization gives every residual's class. *)
let analyze ?(budget = Rl_engine_kernel.Budget.unlimited) h l =
  check_ts l;
  let l = Nfa.trim l in
  if Nfa.states l = 0 then { simple = true; configurations = 0; witness = None }
  else begin
    let img = image h l in
    let k = Alphabet.size (Nfa.alphabet l) in
    let k' = Alphabet.size h.abstract in
    let rows = Set_tbl.create 64 in
    let sets = Hashtbl.create 64 in
    let intern set =
      match Set_tbl.find_opt rows set with
      | Some r -> r
      | None ->
          Rl_engine_kernel.Budget.tick budget;
          let r = Hashtbl.length sets in
          Hashtbl.add sets r set;
          Set_tbl.add rows set r;
          r
    in
    (* [f] over every row in order, rows it interns included *)
    let each_row f =
      let out = ref [] and r = ref 0 in
      while !r < Hashtbl.length sets do
        out := f (Hashtbl.find sets !r) :: !out;
        incr r
      done;
      Array.of_list (List.rev !out)
    in
    let s0 = intern (Bitset.of_list (Nfa.states l) (Nfa.initial l)) in
    (* the concrete subset construction; -1 is the empty set *)
    let concrete_next =
      each_row (fun set ->
          Array.init k (fun a ->
              let s' = post l set a in
              if Bitset.is_empty s' then -1 else intern s'))
    in
    let delta = each_row (fun set -> Array.init k' (fun b -> intern (post img set b))) in
    let n = Array.length delta in
    let d =
      Dfa.create ~alphabet:h.abstract ~states:n ~initial:s0 ~delta
        ~finals:
          (List.filter
             (fun r -> not (Bitset.is_empty (Hashtbl.find sets r)))
             (List.init n Fun.id))
    in
    let cls = Dfa.residual_classes d in
    (* Simplicity at (S, t): some pair (t', y') reachable from (t, row of
       S) has t' accepting (so u ∈ cont(h w, h L)) and cls t' = cls y'.
       Start pairs found good are memoized; reaching one ends a search. *)
    let good = Hashtbl.create 64 in
    let config_ok t y =
      let seen = Hashtbl.create 16 and queue = Queue.create () in
      let visit t y =
        if not (Hashtbl.mem seen ((t * n) + y)) then begin
          Hashtbl.add seen ((t * n) + y) ();
          Queue.add (t, y) queue
        end
      in
      visit t y;
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let t, y = Queue.pop queue in
        if Hashtbl.mem good ((t * n) + y) || (Dfa.is_final d t && cls.(t) = cls.(y))
        then found := true
        else
          for b = 0 to k' - 1 do
            visit (Dfa.step d t b) (Dfa.step d y b)
          done
      done;
      if !found then Hashtbl.replace good ((t * n) + y) ();
      !found
    in
    (* BFS over configurations (S, t), tracking access words for
       counterexamples. *)
    let seen = Hashtbl.create 64 and queue = Queue.create () in
    Hashtbl.add seen ((s0 * n) + s0) ();
    Queue.add (s0, s0, []) queue;
    let configurations = ref 0 and failure = ref None in
    while !failure = None && not (Queue.is_empty queue) do
      let s, t, rpath = Queue.pop queue in
      Rl_engine_kernel.Budget.tick budget;
      incr configurations;
      if not (config_ok t s) then failure := Some (Word.of_list (List.rev rpath))
      else
        for a = 0 to k - 1 do
          let s' = concrete_next.(s).(a) in
          let t' = match h.map.(a) with None -> t | Some b -> Dfa.step d t b in
          if s' >= 0 && not (Hashtbl.mem seen ((s' * n) + t')) then begin
            Hashtbl.add seen ((s' * n) + t') ();
            Queue.add (s', t', a :: rpath) queue
          end
        done
    done;
    { simple = !failure = None; configurations = !configurations; witness = !failure }
  end

let pp ppf h =
  Format.fprintf ppf "@[<v>h : %a → %a ∪ {ε}@," Alphabet.pp h.concrete
    Alphabet.pp h.abstract;
  Array.iteri
    (fun c target ->
      Format.fprintf ppf "  %s ↦ %s@,"
        (Alphabet.name h.concrete c)
        (match target with
        | None -> "ε"
        | Some a -> Alphabet.name h.abstract a))
    h.map;
  Format.fprintf ppf "@]"
