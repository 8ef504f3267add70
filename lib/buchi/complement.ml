open Rl_sigma
module Budget = Rl_engine_kernel.Budget

(* Kupferman–Vardi rank-based complementation.

   A state of the complement is a pair (g, o):
   - g maps each state of the input automaton to a rank in 0..2n, or ⊥
     (represented by -1) when no run of the input can be in that state;
     accepting input states only carry even ranks;
   - o is the subset of even-ranked tracked states whose runs still have to
     "pay" a rank decrease (the breakpoint construction).

   A word is accepted by the complement iff some ranking run empties o
   infinitely often, which happens exactly when every run of the input gets
   trapped in odd ranks — i.e. visits accepting states only finitely
   often.

   States are explored from a FIFO worklist, symbol by symbol, and every
   compatible successor ranking is interned the moment it is enumerated:
   the worklist order fixes the state numbering, and [Too_large] or the
   budget trips before the next ranking is built — a (2n+1)^n blow-up is
   cut off at the cap, not after it has been materialised. *)

type key = int array * int list

exception Too_large of int

let complement ?(budget = Budget.unlimited) ?max_states b =
  let n = Buchi.states b in
  let alphabet = Buchi.alphabet b in
  let k = Alphabet.size alphabet in
  if n = 0 then begin
    (* L(b) = ∅: the complement accepts everything. Even this one-state
       result counts against the caps, so a zero budget fails here rather
       than silently succeeding. *)
    (match max_states with
    | Some limit when limit < 1 -> raise (Too_large limit)
    | _ -> ());
    Budget.tick budget;
    let transitions = List.init k (fun a -> (0, a, 0)) in
    Buchi.create ~alphabet ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
      ~transitions ()
  end
  else begin
    let max_rank = 2 * n in
    (* the automaton's own CSR table, built once at construction: the
       rank-enumeration hot loop below steps it as contiguous slices
       instead of re-walking successor lists for every (frontier state,
       symbol) pair *)
    let csr = Buchi.csr b in
    let offs = Rl_prelude.Csr.offsets csr
    and tgts = Rl_prelude.Csr.targets csr in
    let table : (key, int) Hashtbl.t = Hashtbl.create 256 in
    let count = ref 0 in
    let intern key =
      match Hashtbl.find_opt table key with
      | Some id -> (id, false)
      | None ->
          (match max_states with
          | Some limit when !count >= limit -> raise (Too_large limit)
          | _ -> ());
          Budget.tick budget;
          let id = !count in
          incr count;
          Hashtbl.add table key id;
          (id, true)
    in
    (* [successor_keys (g, o) a emit] calls [emit] on every successor key
       of (g, o) on symbol [a], in enumeration order. [bound] and [o_succ]
       are scratch reused across the whole construction, refilled here;
       [emit] must not touch them. *)
    let bound = Array.make n (-1) and o_succ = Array.make n false in
    let successor_keys (g, o) a emit =
      (* Rank bound for each successor state: min over its ranked
         predecessors. -1 means "not a successor" (stays ⊥). *)
      Array.fill bound 0 n (-1);
      for q = 0 to n - 1 do
        let r = g.(q) in
        if r >= 0 then begin
          let lo = offs.((q * k) + a) and hi = offs.((q * k) + a + 1) in
          for i = lo to hi - 1 do
            let q' = tgts.(i) in
            bound.(q') <- (if bound.(q') = -1 then r else min bound.(q') r)
          done
        end
      done;
      (* Successors of the breakpoint set o. *)
      Array.fill o_succ 0 n false;
      List.iter
        (fun q ->
          let lo = offs.((q * k) + a) and hi = offs.((q * k) + a + 1) in
          for i = lo to hi - 1 do
            o_succ.(tgts.(i)) <- true
          done)
        o;
      (* Enumerate all rankings g' compatible with the bounds. *)
      let dom = ref [] in
      for q = n - 1 downto 0 do
        if bound.(q) >= 0 then dom := q :: !dom
      done;
      let rec enumerate assigned = function
        | [] ->
            let g' = Array.make n (-1) in
            List.iter (fun (q, r) -> g'.(q) <- r) assigned;
            let o' =
              if o = [] then
                List.filter_map
                  (fun (q, r) -> if r mod 2 = 0 then Some q else None)
                  assigned
                |> List.sort compare
              else
                List.filter_map
                  (fun (q, r) ->
                    if o_succ.(q) && r mod 2 = 0 then Some q else None)
                  assigned
                |> List.sort compare
            in
            emit (g', o')
        | q :: rest ->
            let is_acc = Buchi.is_accepting b q in
            for r = 0 to bound.(q) do
              if not (is_acc && r mod 2 = 1) then
                enumerate ((q, r) :: assigned) rest
            done
      in
      enumerate [] !dom
    in
    let initial_set = Rl_prelude.Bitset.of_list n (Buchi.initial b) in
    let init_ranks =
      Array.init n (fun q ->
          if Rl_prelude.Bitset.mem initial_set q then max_rank else -1)
    in
    (* Initial accepting states must hold an even rank: max_rank is even. *)
    let init_key = (init_ranks, []) in
    let init_id, _ = intern init_key in
    let transitions = ref [] in
    let accepting = ref [] in
    let note_accepting key id =
      if snd key = [] then accepting := id :: !accepting
    in
    note_accepting init_key init_id;
    let work = Queue.create () in
    Queue.add (init_key, init_id) work;
    while not (Queue.is_empty work) do
      let key, src = Queue.pop work in
      Budget.poll budget;
      for a = 0 to k - 1 do
        successor_keys key a (fun key' ->
            let dst, fresh = intern key' in
            if fresh then begin
              Queue.add (key', dst) work;
              note_accepting key' dst
            end;
            transitions := (src, a, dst) :: !transitions)
      done
    done;
    Buchi.create ~alphabet ~states:!count ~initial:[ init_id ]
      ~accepting:!accepting ~transitions:!transitions ()
  end
