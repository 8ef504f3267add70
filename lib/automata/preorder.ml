open Rl_prelude
open Rl_sigma
module Simcache = Rl_engine_kernel.Simcache

(* Simulation preorders, computed by a Henzinger–Henzinger–Kopke-style
   refinement loop and memoized per automaton fingerprint.

   [rows.(q)] over-approximates the simulators of [q] and only ever
   shrinks. A worklist holds the states whose row recently shrank: when
   [q'] is popped, every predecessor [q] of [q'] on a letter [a] must
   satisfy the step condition through [q'], i.e. every simulator of [q]
   must own an [a]-move into the current [rows.(q')]. The set of states
   with such a move is a union of predecessor bitsets over [rows.(q')],
   so the constraint is one bitset intersection per predecessor; a
   predecessor whose row shrinks re-enters the worklist. The loop
   reaches the greatest fixpoint: a genuine simulator is never removed
   (its matching move lands inside every over-approximation), and on
   termination all step constraints hold with the final rows.

   The result is the *direct* simulation — acceptance-compatible at every
   step — so [p ∈ rows.(q)] implies L(q) ⊆ L(p) state-wise, which is the
   containment fact the antichain subsumption and the quotients rely on.

   Computed rows are cached in [Rl_engine_kernel.Simcache] under a digest
   of the automaton's structure; cached rows are shared and must be
   treated as read-only by every consumer. *)

type t = {
  rows : Bitset.t array; (* rows.(q) = states simulating q; read-only *)
  tr : Bitset.t array; (* tr.(p) = states p simulates (transpose) *)
}

let size t = Array.length t.rows
let simulators t q = t.rows.(q)
let simulated_by t p = t.tr.(p)
let simulates t p q = Bitset.mem t.rows.(q) p

let transpose_rows rows =
  let n = Array.length rows in
  let tr = Array.init n (fun _ -> Bitset.create n) in
  for q = 0 to n - 1 do
    Bitset.iter (fun p -> Bitset.add tr.(p) q) rows.(q)
  done;
  tr

let of_rows rows = { rows; tr = transpose_rows rows }

(* The refinement loop proper. [memberships] are the state sets the
   relation must respect downward: p may simulate q only if, for every
   member set M, q ∈ M implies p ∈ M. Direct forward simulation passes
   the final states; backward simulation passes initial and final
   states. *)
let refine ~(delta : Csr.t option) ~(rdelta : Csr.t option) ~states:n
    ~symbols:k ~(memberships : Bitset.t list)
    ~(succ : int -> int -> int list) =
  if n = 0 then [||]
  else begin
    (* [delta], when given, must be the CSR view of [succ]: callers that
       already hold the automaton's table skip rebuilding it here *)
    let delta =
      match delta with
      | Some d -> d
      | None -> Csr.of_fn ~states:n ~symbols:k succ
    in
    (* likewise [rdelta] must be [Csr.transpose delta]: callers holding
       an automaton pass its cached transpose (Nfa.rcsr) so repeated
       refinements stop re-transposing the table *)
    let rdelta =
      match rdelta with Some r -> r | None -> Csr.transpose delta
    in
    (* pred_bs.(p'*k + a) = bitset of a-predecessors of p' *)
    let pred_bs =
      Array.init (n * k) (fun cell ->
          let bs = Bitset.create n in
          Csr.iter_succ rdelta (cell / k) (cell mod k) (fun q -> Bitset.add bs q);
          bs)
    in
    let full = Bitset.create n in
    for q = 0 to n - 1 do
      Bitset.add full q
    done;
    let rows =
      Array.init n (fun q ->
          let row = Bitset.copy full in
          List.iter
            (fun m -> if Bitset.mem m q then Bitset.inter_into ~into:row m)
            memberships;
          row)
    in
    let on_work = Array.make n true in
    let work = Queue.create () in
    for q = 0 to n - 1 do
      Queue.add q work
    done;
    while not (Queue.is_empty work) do
      let q' = Queue.pop work in
      on_work.(q') <- false;
      let row' = rows.(q') in
      for a = 0 to k - 1 do
        if Csr.has_succ rdelta q' a then begin
          (* can_match = states owning an a-move into the current row of q' *)
          let can_match = Bitset.create n in
          Bitset.iter
            (fun p' -> Bitset.union_into ~into:can_match pred_bs.((p' * k) + a))
            row';
          Csr.iter_succ rdelta q' a (fun q ->
              if not (Bitset.subset rows.(q) can_match) then begin
                Bitset.inter_into ~into:rows.(q) can_match;
                if not on_work.(q) then begin
                  on_work.(q) <- true;
                  Queue.add q work
                end
              end)
        end
      done
    done;
    rows
  end

let fingerprint ~tag ~states ~symbols ~memberships ~succ =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf tag;
  Buffer.add_char buf '|';
  Buffer.add_string buf (string_of_int states);
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int symbols);
  List.iter
    (fun m ->
      Buffer.add_char buf '|';
      Bitset.iter
        (fun q ->
          Buffer.add_string buf (string_of_int q);
          Buffer.add_char buf ',')
        m)
    memberships;
  Buffer.add_char buf '|';
  for q = 0 to states - 1 do
    for a = 0 to symbols - 1 do
      List.iter
        (fun q' ->
          Buffer.add_string buf (string_of_int q');
          Buffer.add_char buf ',')
        (succ q a);
      Buffer.add_char buf ';'
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let of_view ?(cache = true) ?delta ?rdelta ~tag ~states ~symbols ~memberships
    ~succ () =
  let compute () = refine ~delta ~rdelta ~states ~symbols ~memberships ~succ in
  let rows =
    if cache then
      (* the fingerprint is always taken over the list view: a caller
         passing [delta] must not change the cache key *)
      Simcache.find_or_compute
        (fingerprint ~tag ~states ~symbols ~memberships ~succ)
        compute
    else compute ()
  in
  of_rows rows

let require_eps_free who n =
  if Nfa.has_eps n then
    invalid_arg (who ^ ": ε-moves present; apply Nfa.remove_eps first")

let forward ?cache n =
  require_eps_free "Preorder.forward" n;
  of_view ?cache ~delta:(Nfa.csr n) ~rdelta:(Nfa.rcsr n) ~tag:"nfa-fwd"
    ~states:(Nfa.states n)
    ~symbols:(Alphabet.size (Nfa.alphabet n))
    ~memberships:[ Nfa.finals n ]
    ~succ:(fun q a -> Nfa.successors n q a)
    ()

(* the reversed successor function backward simulation refines over *)
let pred_fn n =
  let states = Nfa.states n in
  let k = Alphabet.size (Nfa.alphabet n) in
  let preds = Array.make (states * k) [] in
  List.iter
    (fun (q, a, q') ->
      let cell = (q' * k) + a in
      preds.(cell) <- q :: preds.(cell))
    (Nfa.transitions n);
  Array.iteri (fun i l -> preds.(i) <- List.sort_uniq compare l) preds;
  fun q a -> preds.((q * k) + a)

let backward ?cache n =
  require_eps_free "Preorder.backward" n;
  let states = Nfa.states n in
  let k = Alphabet.size (Nfa.alphabet n) in
  (* backward simulation = forward simulation on the reversed automaton,
     respecting both initiality and finality *)
  of_view ?cache ~tag:"nfa-bwd" ~states ~symbols:k
    ~memberships:[ Bitset.of_list (max states 1) (Nfa.initial n); Nfa.finals n ]
    ~succ:(pred_fn n)
    ()

(* Quotient by mutual similarity. The greatest simulation is a preorder,
   so mutual similarity is an equivalence; classes are numbered in order
   of their smallest member, which keeps the construction deterministic. *)
let mutual_classes t =
  let n = size t in
  let cls = Array.make n (-1) in
  let count = ref 0 in
  for q = 0 to n - 1 do
    if cls.(q) = -1 then begin
      cls.(q) <- !count;
      let simq = t.rows.(q) in
      for p = q + 1 to n - 1 do
        if cls.(p) = -1 && Bitset.mem simq p && Bitset.mem t.rows.(p) q then
          cls.(p) <- !count
      done;
      incr count
    end
  done;
  (cls, !count)

let reduce ?cache n =
  let n0 = Nfa.remove_eps n in
  let states = Nfa.states n0 in
  if states = 0 then n0
  else begin
    let po = forward ?cache n0 in
    let cls, count = mutual_classes po in
    if count = states then n0
    else begin
      let transitions =
        Nfa.transitions n0
        |> List.map (fun (q, a, q') -> (cls.(q), a, cls.(q')))
        |> List.sort_uniq compare
      in
      let initial =
        List.sort_uniq compare (List.map (fun q -> cls.(q)) (Nfa.initial n0))
      in
      let finals =
        Bitset.fold (fun q acc -> cls.(q) :: acc) (Nfa.finals n0) []
        |> List.sort_uniq compare
      in
      Nfa.create ~alphabet:(Nfa.alphabet n0) ~states:count ~initial ~finals
        ~transitions ()
    end
  end
