(* The simplicity decision as it stood before the shared subset table:
   every distinct state set S of the configuration search gets its own
   NFA, its own determinization of [image h from_S], and its own
   minimization of the disjoint union of that DFA with the DFA of h(L).
   It decides the same residual-language question per configuration, so
   the tests compare the library's verdicts with these field for field.
   Everything here goes through the public [Hom], [Nfa] and [Dfa] API. *)

open Rl_prelude
open Rl_sigma
open Rl_automata
open Rl_hom

let check_ts l =
  if Nfa.has_eps l then invalid_arg "Hom: transition system has ε-moves";
  if not (Nfa.all_states_final l) then
    invalid_arg "Hom: transition system must have all states final"

(* Simplicity at one configuration: a reachable product state (t, y)
   with t accepting in [big] whose residual languages agree. *)
let config_ok ~big ~classes_big ~y_dfa ~classes_y t0 =
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  let k = Alphabet.size (Dfa.alphabet big) in
  let start = (t0, Dfa.initial y_dfa) in
  Hashtbl.add seen start ();
  Queue.add start queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let t, y = Queue.pop queue in
    if Dfa.is_final big t && classes_big.(t) = classes_y.(y) then found := true
    else
      for a = 0 to k - 1 do
        let pair' = (Dfa.step big t a, Dfa.step y_dfa y a) in
        if not (Hashtbl.mem seen pair') then begin
          Hashtbl.add seen pair' ();
          Queue.add pair' queue
        end
      done
  done;
  !found

(* The DFA of h(cont_S): [l] restarted in the states of [s]. *)
let y_dfa_of h l s =
  let nl = Nfa.states l in
  Dfa.determinize
    (Hom.image h
       (Nfa.create ~alphabet:(Nfa.alphabet l) ~states:nl
          ~initial:(Bitset.elements s)
          ~finals:(List.init nl Fun.id)
          ~transitions:(Nfa.transitions l) ()))

let post l s a =
  let s' = Bitset.create (Nfa.states l) in
  Bitset.iter (fun q -> List.iter (Bitset.add s') (Nfa.successors l q a)) s;
  s'

let analyze h l =
  check_ts l;
  let l = Nfa.trim l in
  if Nfa.states l = 0 then
    { Hom.simple = true; configurations = 0; witness = None }
  else begin
    let big = Dfa.determinize (Hom.image h l) in
    let nl = Nfa.states l in
    let y_cache = Hashtbl.create 16 in
    let y_data s =
      let key = Bitset.elements s in
      match Hashtbl.find_opt y_cache key with
      | Some d -> d
      | None ->
          let y_dfa = y_dfa_of h l s in
          let classes_big, classes_y = Helpers.union_classes big y_dfa in
          let data = (y_dfa, classes_big, classes_y) in
          Hashtbl.add y_cache key data;
          data
    in
    let seen = Hashtbl.create 64 in
    let queue = Queue.create () in
    let s0 = Bitset.of_list nl (Nfa.initial l) in
    let start = (s0, Dfa.initial big) in
    Hashtbl.add seen (Bitset.elements s0, Dfa.initial big) ();
    Queue.add (start, []) queue;
    let k = Alphabet.size (Nfa.alphabet l) in
    let count = ref 0 in
    let failure = ref None in
    while !failure = None && not (Queue.is_empty queue) do
      let (s, t), rpath = Queue.pop queue in
      incr count;
      let y_dfa, classes_big, classes_y = y_data s in
      if not (config_ok ~big ~classes_big ~y_dfa ~classes_y t) then
        failure := Some (Word.of_list (List.rev rpath))
      else
        for a = 0 to k - 1 do
          let s' = post l s a in
          if not (Bitset.is_empty s') then begin
            let t' =
              match Hom.apply_symbol h a with
              | None -> t
              | Some b -> Dfa.step big t b
            in
            let key = (Bitset.elements s', t') in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              Queue.add ((s', t'), a :: rpath) queue
            end
          end
        done
    done;
    match !failure with
    | Some w -> { Hom.simple = false; configurations = !count; witness = Some w }
    | None -> { Hom.simple = true; configurations = !count; witness = None }
  end

(* Definition 6.3 at one word: whether some u ∈ cont(h w, h L) equalizes
   the abstract and image continuations. *)
let simple_at h l w =
  check_ts l;
  let l = Nfa.trim l in
  let s =
    List.fold_left (post l)
      (Bitset.of_list (Nfa.states l) (Nfa.initial l))
      (Word.to_list w)
  in
  if Bitset.is_empty s then invalid_arg "Hom_oracle.simple_at: word not in L";
  let big = Dfa.determinize (Hom.image h l) in
  let t = Dfa.run big (Hom.apply_word h w) in
  let y_dfa = y_dfa_of h l s in
  let classes_big, classes_y = Helpers.union_classes big y_dfa in
  config_ok ~big ~classes_big ~y_dfa ~classes_y t
