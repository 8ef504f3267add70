open Rl_prelude
open Rl_sigma
module Budget = Rl_engine_kernel.Budget
module Stats = Rl_engine_kernel.Stats

(* Antichain-based inclusion check, after De Wulf–Doyen–Henzinger–Raskin
   ("Antichains: a new algorithm for checking universality of finite
   automata", CAV 2006), specialized to the forward inclusion search,
   with simulation-based subsumption in the style of "When Simulation
   Meets Antichains" (Abdulla, Chen, Holík, Mayr, Vojnar, TACAS 2010).

   A search node (q, S) means: some word w reaches A-state q and exactly
   the B-subset S. The node is a counterexample witness iff q is final in
   A and S contains no B-final state.

   Subsumption. With plain ⊆-subsumption ([`Subset]), (q, S) is subsumed
   by a stored (q, S') with S' ⊆ S. With simulation subsumption
   ([`Simulation], the default), (q, S) is subsumed by (q', S') whenever
   q' simulates q in A and every state of S' is simulated by some state
   of S in B. Soundness needs only the language containments direct
   simulation guarantees: if some extension u drives (q, S) to a
   counterexample then u ∈ L(q) ⊆ L(q'), and u ∉ L(p) for all p ∈ S
   forces u ∉ L(p') for every p' ∈ S' (each p' has L(p') ⊆ L(p) for some
   p ∈ S) — so the same u drives the kept node to a counterexample.
   Taking the identity preorder collapses the rule to plain ⊆, so both
   modes share one implementation: each node carries its "cover" set
   cover(S) = { p' | some p ∈ S simulates p' } (which is S itself under
   [`Subset]), and (q, S) is subsumed by (q', S') iff q' ∈ simulators(q)
   and S' ⊆ cover(S).

   The search is level-synchronous breadth first ([run_serial], over
   the preprocessing in [make_ctx]). Each round first scans the current
   frontier for witnesses (picking the lexicographically least among the
   shortest), then expands the level's live nodes in frontier order,
   computing each node's successor subsets and covers and merging them
   into the antichain as it goes. The order is fixed, so the verdict,
   the witness and the [Budget.tick] sequence (hence the exhaustion
   point) are deterministic.

   Representation. Steady-state exploration allocates nothing on the
   minor heap per node: nodes live in parallel append-only [Vec]s
   (A-state, parent, letter — the parent chain replaces the per-node
   reversed word), their B-subset and cover bitsets are slices of one
   [Arena], whose generation-indexed reuse recycles evicted nodes'
   slices at the next level boundary, and all set operations are
   open-coded word loops over the raw storage of the arena, the
   [Bitset]s and the [Preorder] rows. Transitions are stepped through
   the automata's own CSR tables, built once at construction. *)

type subsumption = [ `Subset | `Simulation ]

let isz = Sys.int_size

(* --- preprocessing ----------------------------------------------- *)

type ctx = {
  a : Nfa.t; (* ε-free *)
  b : Nfa.t; (* ε-free *)
  k : int;
  na : int;
  csr_a : Csr.t;
  width : int; (* words per B-subset *)
  succ_w : int array array; (* per (B-state, letter): successor bitset words *)
  finals_a : Bitset.t;
  finals_b_w : int array;
  cover_distinct : bool; (* Simulation mode: covers differ from sets *)
  has_sims : bool;
  sim_a_rows : int array array; (* per A-state: simulators, raw words *)
  simby_a_rows : int array array; (* per A-state: simulated-by, raw words *)
  cover_rows : int array array; (* per B-state: simulated-by, raw words *)
}

let make_ctx ~subsumption a b =
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
  (* the preorders driving subsumption; [None] = identity ([`Subset]) *)
  let sims =
    match subsumption with
    | `Subset -> None
    | `Simulation ->
        if na = 0 || nb = 0 then None
        else Some (Preorder.forward a, Preorder.forward b)
  in
  let cover_distinct = sims <> None in
  (* preorder rows as raw words, fetched once (cached rows are
     immutable): simulators/simulated-by over A drive the subsumption
     and eviction bucket fans, simulated-by over B builds covers *)
  let sim_a_rows, simby_a_rows, cover_rows =
    match sims with
    | None -> ([||], [||], [||])
    | Some (pa, pb) ->
        ( Array.init na (fun q -> Bitset.unsafe_words (Preorder.simulators pa q)),
          Array.init na (fun q ->
              Bitset.unsafe_words (Preorder.simulated_by pa q)),
          Array.init nb (fun p ->
              Bitset.unsafe_words (Preorder.simulated_by pb p)) )
  in
  {
    a;
    b;
    k;
    na;
    csr_a;
    width;
    succ_w;
    finals_a;
    finals_b_w;
    cover_distinct;
    has_sims = cover_distinct;
    sim_a_rows;
    simby_a_rows;
    cover_rows;
  }

(* --- level-synchronous search (deterministic order) --------------- *)

let run_serial ctx ~budget =
  let {
    a;
    b;
    k;
    na;
    csr_a;
    width;
    succ_w;
    finals_a;
    finals_b_w;
    cover_distinct;
    has_sims;
    sim_a_rows;
    simby_a_rows;
    cover_rows;
  } =
    ctx
  in
  (* node store: parallel append-only vectors. Slices are recycled;
     these never are — witness reconstruction walks parent chains of
     nodes long since evicted. *)
  let node_q = Vec.create ~capacity:64 () in
  let node_parent = Vec.create ~capacity:64 () in
  let node_letter = Vec.create ~capacity:64 () in
  let node_set = Vec.create ~capacity:64 () in
  let node_cover = Vec.create ~capacity:64 () in
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
  let scratch_cover =
    if cover_distinct then Array.make width 0 else scratch_set
  in
  (* cover(scratch_set) into scratch_cover (Simulation mode only) *)
  let fill_cover () =
    Array.fill scratch_cover 0 width 0;
    for w = 0 to width - 1 do
      r_bits := Array.unsafe_get scratch_set w;
      if !r_bits <> 0 then begin
        let base = w * isz in
        r_j := 0;
        while !r_bits <> 0 do
          if !r_bits land 1 <> 0 then begin
            let row = Array.unsafe_get cover_rows (base + !r_j) in
            for v = 0 to width - 1 do
              Array.unsafe_set scratch_cover v
                (Array.unsafe_get scratch_cover v lor Array.unsafe_get row v)
            done
          end;
          r_bits := !r_bits lsr 1;
          incr r_j
        done
      end
    done
  in
  (* does some node of bucket [qb] have set ⊆ [cw]?  (sets [r_found]) *)
  let subsumed_in qb cw =
    let bucket = buckets.(qb) in
    let aw = Arena.words arena in
    for i = 0 to Vec.length bucket - 1 do
      if not !r_found then begin
        let off = Vec.get node_set (Vec.get bucket i) * width in
        r_ok := true;
        for w = 0 to width - 1 do
          if
            Array.unsafe_get aw (off + w) land lnot (Array.unsafe_get cw w)
            <> 0
          then r_ok := false
        done;
        if !r_ok then r_found := true
      end
    done
  in
  (* drop every node of bucket [qb] whose cover contains [sw] *)
  let evict_bucket qb sw =
    let bucket = buckets.(qb) in
    let aw = Arena.words arena in
    r_dst := 0;
    for i = 0 to Vec.length bucket - 1 do
      let id = Vec.get bucket i in
      let coff = Vec.get node_cover id * width in
      r_ok := true;
      for w = 0 to width - 1 do
        if
          Array.unsafe_get sw w land lnot (Array.unsafe_get aw (coff + w))
          <> 0
        then r_ok := false
      done;
      if !r_ok then begin
        Vec.set node_live id 0;
        Arena.defer_release arena (Vec.get node_set id);
        if cover_distinct then Arena.defer_release arena (Vec.get node_cover id);
        Stats.incr_evictions ()
      end
      else begin
        Vec.set bucket !r_dst id;
        incr r_dst
      end
    done;
    Vec.truncate bucket !r_dst
  in
  (* accept or discard candidate (q', sw) with cover [cw]; on accept the
     scratch words are copied into fresh arena slices, so callers may
     keep reusing [sw]/[cw] for the node's remaining A-successors *)
  let enqueue q' ~sw ~cw ~parent ~letter =
    r_found := false;
    (if not has_sims then subsumed_in q' cw
     else begin
       let row = Array.unsafe_get sim_a_rows q' in
       for w = 0 to Array.length row - 1 do
         if not !r_found then begin
           r_bits := Array.unsafe_get row w;
           if !r_bits <> 0 then begin
             let base = w * isz in
             r_j := 0;
             while !r_bits <> 0 do
               if !r_bits land 1 <> 0 && not !r_found then
                 subsumed_in (base + !r_j) cw;
               r_bits := !r_bits lsr 1;
               incr r_j
             done
           end
         end
       done
     end);
    if !r_found then Stats.incr_antichain_hits ()
    else begin
      Budget.tick budget;
      Stats.incr_nodes ();
      (if not has_sims then evict_bucket q' sw
       else begin
         let row = Array.unsafe_get simby_a_rows q' in
         for w = 0 to Array.length row - 1 do
           r_bits := Array.unsafe_get row w;
           if !r_bits <> 0 then begin
             let base = w * isz in
             r_j := 0;
             while !r_bits <> 0 do
               if !r_bits land 1 <> 0 then evict_bucket (base + !r_j) sw;
               r_bits := !r_bits lsr 1;
               incr r_j
             done
           end
         done
       end);
      let sid = Arena.alloc arena in
      Array.blit sw 0 (Arena.words arena) (sid * width) width;
      let cid =
        if cover_distinct then begin
          let cid = Arena.alloc arena in
          Array.blit cw 0 (Arena.words arena) (cid * width) width;
          cid
        end
        else sid
      in
      let id = Vec.length node_q in
      Vec.push node_q q';
      Vec.push node_parent parent;
      Vec.push node_letter letter;
      Vec.push node_set sid;
      Vec.push node_cover cid;
      Vec.push node_live 1;
      Vec.push buckets.(q') id;
      Vec.push !next id
    end
  in
  (* post of one frontier node on letter [s] into scratch_set, then the
     cover, then enqueue every A-successor of the CSR slice *)
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
        if cover_distinct then fill_cover ();
        for i = lo to hi - 1 do
          enqueue (Csr.target csr_a i) ~sw:scratch_set ~cw:scratch_cover
            ~parent:id ~letter:s
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
    if cover_distinct then fill_cover ();
    List.iter
      (fun q ->
        enqueue q ~sw:scratch_set ~cw:scratch_cover ~parent:(-1) ~letter:(-1))
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

let included ?(budget = Budget.unlimited) ?(subsumption = `Simulation) a b =
  if not (Alphabet.equal (Nfa.alphabet a) (Nfa.alphabet b)) then
    invalid_arg "Inclusion.included: alphabet mismatch";
  let a = Nfa.remove_eps a and b = Nfa.remove_eps b in
  run_serial (make_ctx ~subsumption a b) ~budget

let equivalent ?budget ?subsumption a b =
  match included ?budget ?subsumption a b with
  | Error _ as e -> e
  | Ok () -> included ?budget ?subsumption b a
