open Rl_prelude
open Rl_sigma
module Budget = Rl_engine_kernel.Budget
module Stats = Rl_engine_kernel.Stats

(* Antichain-based inclusion check, after De Wulf–Doyen–Henzinger–Raskin
   ("Antichains: a new algorithm for checking universality of finite
   automata", CAV 2006), specialized to the forward inclusion search.

   A search node (q, S) means: some word w reaches A-state q and exactly
   the B-subset S. The node is a counterexample witness iff q is final in
   A and S contains no B-final state.

   Subsumption. (q, S) is subsumed by a stored (q, S') with S' ⊆ S: an
   extension u that drives (q, S) to a counterexample is accepted from q
   and rejected from every state of S, hence from every state of S', so
   it drives (q, S') to one too. This is the identity instance of the
   simulation-aware rule of "When Simulation Meets Antichains" (Abdulla,
   Chen, Holík, Mayr, Vojnar, TACAS 2010): the identity is the least
   simulation, so the rule is sound by construction. The callers shrink
   their operands by mutual-simulation quotients ({!Preorder.reduce})
   before the search instead of paying for simulation rows inside it.

   The search is level-synchronous breadth first ([run_serial]). Each
   round first scans the current frontier for witnesses (picking the
   lexicographically least among the shortest), then expands the
   level's live nodes in frontier order, computing each node's
   successor subsets and merging them into the antichain as it goes. The order is fixed, so the verdict, the witness
   and the [Budget.tick] sequence (hence the exhaustion point) are
   deterministic.

   Representation. Steady-state exploration allocates nothing on the
   minor heap per node: nodes live in parallel append-only [Vec]s
   (A-state, parent, letter — the parent chain replaces the per-node
   reversed word), their B-subsets are slices of one [Arena], whose
   generation-indexed reuse recycles evicted nodes' slices at the next
   level boundary, and all set operations are open-coded word loops
   over the raw storage of the arena and the [Bitset]s. Transitions are
   stepped through the automata's own CSR tables, built once at
   construction. *)

let isz = Sys.int_size

(* --- level-synchronous search (deterministic order) --------------- *)

(* [a] and [b] are ε-free *)
let run_serial a b ~budget =
  let k = Alphabet.size (Nfa.alphabet a) in
  let na = Nfa.states a and nb = Nfa.states b in
  let csr_a = Nfa.csr a in
  let width = (nb + isz - 1) / isz in
  (* per-(B-state, letter) successor sets, as raw bitset words: the
     frontier posts are pure word-ORs of these rows *)
  let succ_w =
    Array.init (nb * k) (fun cell ->
        let bs = Bitset.create nb in
        Nfa.iter_succ b (cell / k) (cell mod k) (fun q' -> Bitset.add bs q');
        Bitset.unsafe_words bs)
  in
  let finals_a = Nfa.finals a in
  let finals_b_w = Bitset.unsafe_words (Nfa.finals b) in
  (* node store: parallel append-only vectors. Slices are recycled;
     these never are — witness reconstruction walks parent chains of
     nodes long since evicted. *)
  let node_q = Vec.create ~capacity:64 () in
  let node_parent = Vec.create ~capacity:64 () in
  let node_letter = Vec.create ~capacity:64 () in
  let node_set = Vec.create ~capacity:64 () in
  let node_live = Vec.create ~capacity:64 () in
  let arena = Arena.create ~width in
  (* per-A-state antichain buckets of node ids, compacted in place *)
  let buckets = Array.init (max na 1) (fun _ -> Vec.create ()) in
  let frontier = ref (Vec.create ()) and next = ref (Vec.create ()) in
  let live_ids = Vec.create () in
  (* hoisted mutable temporaries: the word loops below share these so
     the steady state allocates no refs *)
  let r_bits = ref 0 and r_j = ref 0 in
  let r_ok = ref false and r_found = ref false in
  let r_dst = ref 0 in
  let scratch_set = Array.make width 0 in
  (* does some node of bucket [qb] have set ⊆ [sw]?  (sets [r_found]) *)
  let subsumed_in qb sw =
    let bucket = buckets.(qb) in
    let aw = Arena.words arena in
    for i = 0 to Vec.length bucket - 1 do
      if not !r_found then begin
        let off = Vec.get node_set (Vec.get bucket i) * width in
        r_ok := true;
        for w = 0 to width - 1 do
          if
            Array.unsafe_get aw (off + w) land lnot (Array.unsafe_get sw w)
            <> 0
          then r_ok := false
        done;
        if !r_ok then r_found := true
      end
    done
  in
  (* drop every node of bucket [qb] whose set contains [sw] *)
  let evict_bucket qb sw =
    let bucket = buckets.(qb) in
    let aw = Arena.words arena in
    r_dst := 0;
    for i = 0 to Vec.length bucket - 1 do
      let id = Vec.get bucket i in
      let off = Vec.get node_set id * width in
      r_ok := true;
      for w = 0 to width - 1 do
        if
          Array.unsafe_get sw w land lnot (Array.unsafe_get aw (off + w))
          <> 0
        then r_ok := false
      done;
      if !r_ok then begin
        Vec.set node_live id 0;
        Arena.defer_release arena (Vec.get node_set id);
        Stats.incr_evictions ()
      end
      else begin
        Vec.set bucket !r_dst id;
        incr r_dst
      end
    done;
    Vec.truncate bucket !r_dst
  in
  (* accept or discard candidate (q', sw); on accept the scratch words
     are copied into a fresh arena slice, so callers may keep reusing
     [sw] for the node's remaining A-successors *)
  let enqueue q' ~sw ~parent ~letter =
    r_found := false;
    subsumed_in q' sw;
    if !r_found then Stats.incr_antichain_hits ()
    else begin
      Budget.tick budget;
      Stats.incr_nodes ();
      evict_bucket q' sw;
      let sid = Arena.alloc arena in
      Array.blit sw 0 (Arena.words arena) (sid * width) width;
      let id = Vec.length node_q in
      Vec.push node_q q';
      Vec.push node_parent parent;
      Vec.push node_letter letter;
      Vec.push node_set sid;
      Vec.push node_live 1;
      Vec.push buckets.(q') id;
      Vec.push !next id
    end
  in
  (* post of one frontier node on letter [s] into scratch_set, then
     enqueue every A-successor of the CSR slice *)
  let expand id =
    let q = Vec.get node_q id in
    let set_off = Vec.get node_set id * width in
    for s = 0 to k - 1 do
      let lo = Csr.row_start csr_a q s and hi = Csr.row_stop csr_a q s in
      if hi > lo then begin
        Array.fill scratch_set 0 width 0;
        let aw = Arena.words arena in
        for w = 0 to width - 1 do
          r_bits := Array.unsafe_get aw (set_off + w);
          if !r_bits <> 0 then begin
            let base = w * isz in
            r_j := 0;
            while !r_bits <> 0 do
              if !r_bits land 1 <> 0 then begin
                let row = Array.unsafe_get succ_w (((base + !r_j) * k) + s) in
                for v = 0 to width - 1 do
                  Array.unsafe_set scratch_set v
                    (Array.unsafe_get scratch_set v
                    lor Array.unsafe_get row v)
                done
              end;
              r_bits := !r_bits lsr 1;
              incr r_j
            done
          end
        done;
        for i = lo to hi - 1 do
          enqueue (Csr.target csr_a i) ~sw:scratch_set ~parent:id ~letter:s
        done
      end
    done
  in
  (* forward word of a node, rebuilt from the parent chain (initial
     nodes carry parent = letter = -1); only witness candidates pay *)
  let rec word_of id acc =
    let l = Vec.get node_letter id in
    if l < 0 then acc else word_of (Vec.get node_parent id) (l :: acc)
  in
  let best = ref None in
  let run () =
    (* seed: every (sorted, distinct) initial A-state with B's initial set *)
    Array.fill scratch_set 0 width 0;
    List.iter
      (fun p ->
        scratch_set.(p / isz) <- scratch_set.(p / isz) lor (1 lsl (p mod isz)))
      (Nfa.initial b);
    List.iter
      (fun q -> enqueue q ~sw:scratch_set ~parent:(-1) ~letter:(-1))
      (List.sort_uniq compare (Nfa.initial a));
    while not (Vec.is_empty !next) && !best = None do
      let f = !frontier in
      frontier := !next;
      next := f;
      Vec.clear !next;
      (* evicted slices from the previous merge are reusable now: every
         node that could still reference one has been flagged dead, and
         the scans below skip dead nodes before any re-allocation *)
      Arena.reclaim arena;
      let front = !frontier in
      (* 1. witness scan: shortest, lexicographically least among the
         level's surviving nodes *)
      for i = 0 to Vec.length front - 1 do
        let id = Vec.get front i in
        if Vec.get node_live id = 1 && Bitset.mem finals_a (Vec.get node_q id)
        then begin
          let off = Vec.get node_set id * width in
          let aw = Arena.words arena in
          r_ok := true;
          for w = 0 to width - 1 do
            if
              Array.unsafe_get aw (off + w)
              land Array.unsafe_get finals_b_w w
              <> 0
            then r_ok := false
          done;
          if !r_ok then begin
            let word = word_of id [] in
            match !best with
            | Some w' when compare w' word <= 0 -> ()
            | _ -> best := Some word
          end
        end
      done;
      if !best = None then begin
        (* freeze the level's live set before expanding anything: a node
           evicted by an enqueue later in this same level is still
           expanded (its quarantined slices stay readable until the next
           [reclaim]) — the frontier membership a node earned at accept
           time is not revoked mid-level *)
        Vec.clear live_ids;
        for i = 0 to Vec.length front - 1 do
          let id = Vec.get front i in
          if Vec.get node_live id = 1 then Vec.push live_ids id
        done;
        for i = 0 to Vec.length live_ids - 1 do
          Budget.poll budget;
          expand (Vec.get live_ids i)
        done
      end
    done
  in
  Fun.protect
    ~finally:(fun () -> Stats.note_arena_words (Arena.high_water_words arena))
    run;
  match !best with
  | None -> Ok ()
  | Some syms -> Error (Word.of_list syms)

(* --- entry points -------------------------------------------------- *)

let included ?(budget = Budget.unlimited) ?subsumption:_ a b =
  if not (Alphabet.equal (Nfa.alphabet a) (Nfa.alphabet b)) then
    invalid_arg "Inclusion.included: alphabet mismatch";
  let a = Nfa.remove_eps a and b = Nfa.remove_eps b in
  run_serial a b ~budget

let equivalent ?budget a b =
  match included ?budget a b with
  | Error _ as e -> e
  | Ok () -> included ?budget b a
