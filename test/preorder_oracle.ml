(* The simulation refinement as it stood before the seeded, slice-based
   loop, and the Simcache key as it stood before it was read off the CSR
   table. The refinement starts every row full (cut by its
   memberships), the worklist holds every state, and each step ORs one
   n-bit predecessor bitset per member of the popped row. It computes
   the same greatest fixpoint by a different route, so the tests compare
   the library's rows with these row for row, and the library's key with
   [fingerprint]. Everything here goes through the public [Csr] and
   [Bitset] API. *)

open Rl_prelude

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
        if Csr.row_start rdelta q' a < Csr.row_stop rdelta q' a then begin
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


(* The key taken over the list view: state and symbol counts, every
   membership set in order, and every successor list sorted, each
   written as a count followed by its elements (32-bit little-endian
   ints). *)
let fingerprint ~states ~symbols ~memberships ~succ =
  let buf = Buffer.create 1024 in
  let int i = Buffer.add_int32_le buf (Int32.of_int i) in
  int states;
  int symbols;
  int (List.length memberships);
  List.iter
    (fun m ->
      int (Bitset.cardinal m);
      Bitset.iter int m)
    memberships;
  for q = 0 to states - 1 do
    for a = 0 to symbols - 1 do
      let l =
        match succ q a with
        | ([] | [ _ ]) as l -> l
        | l -> List.sort Int.compare l
      in
      int (List.length l);
      List.iter int l
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))
