open Rl_prelude
open Rl_sigma
module Budget = Rl_engine_kernel.Budget
module Pool = Rl_engine_kernel.Pool
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

   Two execution paths share the preprocessing in [make_ctx]:

   [run_serial] — the level-synchronous breadth-first search. Each round
   first scans the current frontier for witnesses (picking the
   lexicographically least among the shortest), then expands the level's
   live nodes in frontier order, computing each node's successor subsets
   and covers and merging them into the antichain as it goes. The order
   is fixed, so the verdict, the witness and the [Budget.tick] sequence
   (hence the exhaustion point) are deterministic.

   [ws_run] — the work-stealing order-free search, used when a pool is
   present, the state budget is unlimited and the instance is large
   enough to amortize the scheduler ([RLCHECK_WS_MIN] caps the na·nb
   product below which it is skipped). Every pool member owns a
   [Deque] of node handles (LIFO for the owner, stolen FIFO) and a
   private [Arena] of node slices; the antichain buckets are sharded
   under lightweight per-shard mutexes, so an insert serializes only
   against inserts into comparable A-states. The search order is
   schedule-dependent, but the {e verdict} is not: a candidate is tested
   for being a counterexample before any subsumption test, and candidate
   counterexamples are genuine ones (every generated set is the exact
   B-subset of some word), so a quiescent run with no counterexample
   proves inclusion regardless of interleaving — [Ok ()] is returned
   directly. Any other outcome (counterexample seen, budget tripped,
   escaped exception) abandons the work-stealing pass and replays
   [run_serial] from scratch, whose witness and exhaustion point are
   deterministic; the jobs-1-vs-N contract is therefore preserved
   bit-for-bit on both verdicts and witnesses, at the cost of doing the
   failing instances twice.

   Representation. Steady-state exploration allocates nothing on the
   minor heap per node: nodes live in parallel append-only [Vec]s
   (A-state, parent, letter — the parent chain replaces the per-node
   reversed word), their B-subset and cover bitsets are slices of one
   [Arena], whose generation-indexed reuse recycles evicted nodes'
   slices at the next level boundary, and all set operations are
   open-coded word loops over the raw storage of the arena, the
   [Bitset]s and the [Preorder] rows. Transitions are stepped through
   the automata's own CSR tables, built once at construction. The
   work-stealing path keeps the property with per-member scratch and
   arenas; its slices are never reused (eviction only unlinks a node
   from its bucket), so cross-domain readers may keep reading a slice
   without coordination. *)

type subsumption = [ `Subset | `Simulation ]

let isz = Sys.int_size

(* --- shared preprocessing ---------------------------------------- *)

type ctx = {
  a : Nfa.t; (* ε-free *)
  b : Nfa.t; (* ε-free *)
  k : int;
  na : int;
  nb : int;
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
    nb;
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
    nb = _;
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

(* --- work-stealing search (order-free, verdict-deterministic) ------ *)

(* Node handles pack (arena slice id, owning member): members are
   capped at 64, so the low 6 bits address the member and the rest the
   slice. Handles are non-negative, as [Deque] requires. *)
let mbits = 6
let mmask = (1 lsl mbits) - 1
let max_ws_members = 1 lsl mbits

(* The na·nb product below which the scheduler overhead cannot pay for
   itself and [included] keeps the level-synchronous path. Read per
   call so tests can force the work-stealing path on tiny instances. *)
let ws_min_product () =
  match Sys.getenv_opt "RLCHECK_WS_MIN" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 -> v
      | _ -> 256)
  | None -> 256

let ws_run ctx ~budget pool =
  let {
    a;
    b;
    k;
    na;
    nb = _;
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
  let members = Pool.size pool in
  (* node slice layout: [ q | set words | cover words? ] *)
  let soff = 1 in
  let coff = if cover_distinct then 1 + width else 1 in
  let slice_w = 1 + width + (if cover_distinct then width else 0) in
  (* antichain shards: power of two, at most 32. Bucket [q] belongs to
     shard [q land smask]. *)
  let shards =
    let rec go v = if v >= 32 || v >= na then v else go (2 * v) in
    go 1
  in
  let smask = shards - 1 in
  let locks = Array.init shards (fun _ -> Mutex.create ()) in
  let buckets = Array.init (max na 1) (fun _ -> Vec.create ()) in
  (* lock_mask.(q) = bitmask of shards an insert at A-state [q] must
     hold: the shard of [q] plus — under simulation — the shards of
     every state comparable to [q] (its simulators and the states it
     simulates). Two concurrent inserts whose subsumption or eviction
     scans could touch a common bucket then share a locked shard, so
     check-insert-evict is atomic exactly for the pairs that interact;
     incomparable inserts proceed in parallel. Acquisition is in
     ascending shard order, hence deadlock-free. *)
  let lock_mask =
    if shards = 1 then Array.make (max na 1) 1
    else begin
      let m = Array.make (max na 1) 0 in
      for q = 0 to na - 1 do
        let acc = ref (1 lsl (q land smask)) in
        if has_sims then begin
          let add_row row =
            for w = 0 to Array.length row - 1 do
              let bits = ref (Array.unsafe_get row w) in
              let base = w * isz in
              let j = ref 0 in
              while !bits <> 0 do
                if !bits land 1 <> 0 then
                  acc := !acc lor (1 lsl ((base + !j) land smask));
                bits := !bits lsr 1;
                incr j
              done
            done
          in
          add_row sim_a_rows.(q);
          add_row simby_a_rows.(q)
        end;
        m.(q) <- !acc
      done;
      m
    end
  in
  let lock_shards mask =
    for s = 0 to shards - 1 do
      if mask land (1 lsl s) <> 0 then
        if not (Mutex.try_lock locks.(s)) then begin
          Stats.incr_shard_contention ();
          Mutex.lock locks.(s)
        end
    done
  in
  let unlock_shards mask =
    for s = shards - 1 downto 0 do
      if mask land (1 lsl s) <> 0 then Mutex.unlock locks.(s)
    done
  in
  (* Per-member node stores. [published.(m)] is the snapshot of member
     [m]'s arena backing array that cross-domain readers go through: the
     owner refreshes it (plain [Atomic.set], no CAS — single writer)
     after filling a slice and {e before} exposing its handle in a
     bucket or deque. A reader that obtained a handle therefore reads an
     array at least as new as the one the slice was written into
     (growth copies every older slice, and old arrays are never mutated
     again), with the happens-before edge supplied by the shard mutex
     (bucket scans) or the deque's SC atomics (steals). Slices are
     never reused in this mode, so no slice words are ever rewritten
     once published. *)
  let arenas = Array.init members (fun _ -> Arena.create ~width:slice_w) in
  let published = Array.init members (fun m -> Atomic.make (Arena.words arenas.(m))) in
  let deques = Array.init members (fun _ -> Deque.create ()) in
  (* nodes accepted but not yet fully expanded; quiescence = all deques
     empty and [in_flight] zero *)
  let in_flight = Atomic.make 0 in
  let cancel = Atomic.make false in
  let found_ce = Atomic.make false in
  let failure : exn option Atomic.t = Atomic.make None in
  let fail e =
    ignore (Atomic.compare_and_set failure None (Some e));
    Atomic.set cancel true
  in
  (* Per-member machinery: scratch buffers plus the locked insert and
     the expansion step. Instantiated once per member inside the
     region, and once by the caller for seeding (before the region
     opens, so the extra member-0 instance is never concurrent with the
     region's own). All allocation happens here, once per member — the
     steady state runs the same allocation-free word loops as the
     serial path. *)
  let make_member me =
    let local = Budget.local budget in
    let my_arena = arenas.(me) in
    let my_deque = deques.(me) in
    let scratch_set = Array.make width 0 in
    let scratch_cover =
      if cover_distinct then Array.make width 0 else scratch_set
    in
    let r_bits = ref 0 and r_j = ref 0 in
    let r_ok = ref false and r_found = ref false in
    let r_dst = ref 0 in
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
    (* is scratch_set a counterexample at A-state [q]? *)
    let is_ce q =
      Bitset.mem finals_a q
      && begin
           r_ok := true;
           for w = 0 to width - 1 do
             if
               Array.unsafe_get scratch_set w
               land Array.unsafe_get finals_b_w w
               <> 0
             then r_ok := false
           done;
           !r_ok
         end
    in
    (* does some node of bucket [qb] have set ⊆ scratch_cover? caller
       holds the covering shard locks *)
    let subsumed_in qb =
      let bucket = buckets.(qb) in
      for i = 0 to Vec.length bucket - 1 do
        if not !r_found then begin
          let h = Vec.get bucket i in
          let ws = Atomic.get published.(h land mmask) in
          let off = ((h lsr mbits) * slice_w) + soff in
          r_ok := true;
          for w = 0 to width - 1 do
            if
              Array.unsafe_get ws (off + w)
              land lnot (Array.unsafe_get scratch_cover w)
              <> 0
            then r_ok := false
          done;
          if !r_ok then r_found := true
        end
      done
    in
    (* unlink every node of bucket [qb] whose cover contains
       scratch_set; its slice stays readable (no reuse) and its deque
       entry still expands — eviction only stops it subsuming *)
    let evict_bucket qb =
      let bucket = buckets.(qb) in
      r_dst := 0;
      for i = 0 to Vec.length bucket - 1 do
        let h = Vec.get bucket i in
        let ws = Atomic.get published.(h land mmask) in
        let off = ((h lsr mbits) * slice_w) + coff in
        r_ok := true;
        for w = 0 to width - 1 do
          if
            Array.unsafe_get scratch_set w
            land lnot (Array.unsafe_get ws (off + w))
            <> 0
          then r_ok := false
        done;
        if !r_ok then Stats.incr_evictions ()
        else begin
          Vec.set bucket !r_dst h;
          incr r_dst
        end
      done;
      Vec.truncate bucket !r_dst
    in
    (* accept or discard candidate (q', scratch_set/scratch_cover).
       The counterexample test runs before any subsumption test: every
       generated set is the exact B-subset of some word, so a candidate
       counterexample is a genuine one — detection cannot be lost to an
       insertion race. Parents and letters are not recorded; the
       deterministic replay rebuilds witnesses. *)
    let insert q' =
      if not (Atomic.get cancel) then begin
        if is_ce q' then begin
          Atomic.set found_ce true;
          Atomic.set cancel true
        end
        else begin
          let mask = Array.unsafe_get lock_mask q' in
          lock_shards mask;
          r_found := false;
          (if not has_sims then subsumed_in q'
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
                       subsumed_in (base + !r_j);
                     r_bits := !r_bits lsr 1;
                     incr r_j
                   done
                 end
               end
             done
           end);
          if !r_found then begin
            unlock_shards mask;
            Stats.incr_antichain_hits ()
          end
          else begin
            Stats.incr_nodes ();
            (if not has_sims then evict_bucket q'
             else begin
               let row = Array.unsafe_get simby_a_rows q' in
               for w = 0 to Array.length row - 1 do
                 r_bits := Array.unsafe_get row w;
                 if !r_bits <> 0 then begin
                   let base = w * isz in
                   r_j := 0;
                   while !r_bits <> 0 do
                     if !r_bits land 1 <> 0 then evict_bucket (base + !r_j);
                     r_bits := !r_bits lsr 1;
                     incr r_j
                   done
                 end
               done
             end);
            let sid = Arena.alloc my_arena in
            let aw = Arena.words my_arena in
            let base = sid * slice_w in
            Array.unsafe_set aw base q';
            Array.blit scratch_set 0 aw (base + soff) width;
            if cover_distinct then
              Array.blit scratch_cover 0 aw (base + coff) width;
            if Atomic.get published.(me) != aw then
              Atomic.set published.(me) aw;
            let h = (sid lsl mbits) lor me in
            Vec.push buckets.(q') h;
            unlock_shards mask;
            Atomic.incr in_flight;
            Deque.push my_deque h;
            (* outside the locks: the flush may trip a deadline *)
            Budget.tick_local local
          end
        end
      end
    in
    (* post node [h] on every letter into scratch, insert successors *)
    let expand h =
      let ws = Atomic.get published.(h land mmask) in
      let base = (h lsr mbits) * slice_w in
      let q = Array.unsafe_get ws base in
      let set_off = base + soff in
      for s = 0 to k - 1 do
        let lo = Csr.row_start csr_a q s and hi = Csr.row_stop csr_a q s in
        if hi > lo && not (Atomic.get cancel) then begin
          Array.fill scratch_set 0 width 0;
          for w = 0 to width - 1 do
            r_bits := Array.unsafe_get ws (set_off + w);
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
            insert (Csr.target csr_a i)
          done
        end
      done
    in
    let flush () = Budget.flush local in
    (scratch_set, fill_cover, insert, expand, flush)
  in
  (* seed from the caller, before the region opens: member 0's deque
     and arena receive the initial nodes, so [in_flight] is non-zero by
     the time any member can test quiescence *)
  (let scratch_set, fill_cover, insert, _, flush = make_member 0 in
   try
     Array.fill scratch_set 0 width 0;
     List.iter
       (fun p ->
         scratch_set.(p / isz) <- scratch_set.(p / isz) lor (1 lsl (p mod isz)))
       (Nfa.initial b);
     if cover_distinct then fill_cover ();
     List.iter insert (List.sort_uniq compare (Nfa.initial a));
     flush ()
   with e -> fail e);
  let member_body me =
    try
      let _, _, _, expand, flush = make_member me in
      let my_deque = deques.(me) in
      let spins = ref 0 in
      let running = ref true in
      while !running do
        if Atomic.get cancel then running := false
        else begin
          let h = Deque.pop my_deque in
          let h =
            if h >= 0 then h
            else begin
              (* steal round-robin from the next member up *)
              let got = ref (-1) in
              let t = ref 0 in
              while !got < 0 && !t < members - 1 do
                let v = (me + 1 + !t) mod members in
                let s = Deque.steal deques.(v) in
                if s >= 0 then got := s;
                incr t
              done;
              if !got >= 0 then Stats.incr_steals ();
              !got
            end
          in
          if h >= 0 then begin
            spins := 0;
            expand h;
            Atomic.decr in_flight
          end
          else if Atomic.get in_flight = 0 then running := false
          else begin
            (* out of work but peers still expanding: park. Poll the
               budget while parked so a deadline still fires here. *)
            if !spins = 0 then Stats.incr_parks ();
            incr spins;
            if !spins land 63 = 0 then Budget.poll budget;
            if !spins < 200 then Domain.cpu_relax () else Unix.sleepf 1e-4
          end
        end
      done;
      flush ()
    with e -> fail e
    (* never re-raise: an escaping exception would retire the worker;
       the failure cell plus the deterministic replay carry the news *)
  in
  let launched =
    if Atomic.get cancel then false else Pool.run_members pool member_body
  in
  Stats.note_arena_words
    (Array.fold_left (fun acc ar -> acc + Arena.high_water_words ar) 0 arenas);
  if
    launched
    && (not (Atomic.get found_ce))
    && (match Atomic.get failure with None -> true | Some _ -> false)
  then `Done
  else `Fallback

(* --- entry points -------------------------------------------------- *)

let included ?(budget = Budget.unlimited) ?pool ?(subsumption = `Simulation) a
    b =
  if not (Alphabet.equal (Nfa.alphabet a) (Nfa.alphabet b)) then
    invalid_arg "Inclusion.included: alphabet mismatch";
  let a = Nfa.remove_eps a and b = Nfa.remove_eps b in
  let ctx = make_ctx ~subsumption a b in
  let ws_pool =
    (* the work-stealing path needs an order-free budget (a finite state
       budget trips at a schedule-dependent point, and the exhaustion
       record must stay jobs-invariant) and an instance large enough to
       amortize the scheduler *)
    match pool with
    | Some p
      when Pool.size p > 1
           && Pool.size p <= max_ws_members
           && Budget.remaining_states budget = None
           && ctx.na * ctx.nb >= ws_min_product () ->
        Some p
    | _ -> None
  in
  match ws_pool with
  | Some p -> (
      match ws_run ctx ~budget p with
      | `Done -> Ok ()
      | `Fallback ->
          (* counterexample, exception or busy pool: replay the
             deterministic search for the canonical witness (or the
             identical exhaustion); verdicts stay jobs-invariant *)
          run_serial ctx ~budget)
  | None -> run_serial ctx ~budget

let equivalent ?budget ?pool ?subsumption a b =
  match included ?budget ?pool ?subsumption a b with
  | Error _ as e -> e
  | Ok () -> included ?budget ?pool ?subsumption b a
