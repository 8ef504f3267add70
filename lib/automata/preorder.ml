open Rl_prelude
module Simcache = Rl_engine_kernel.Simcache

(* Simulation preorders, computed by a Henzinger–Henzinger–Kopke-style
   refinement loop and memoized per automaton fingerprint.

   [rows.(q)] over-approximates the simulators of [q] and only ever
   shrinks. It starts from the states whose membership signature
   contains that of [q], which depends on the signature alone; the
   first round of step constraints is therefore shared: for each
   signature and letter [a], the set pre_a(initial row) is built once,
   and every row is seeded as its initial row intersected with
   pre_a(initial row of q') for each move q --a--> q'. Only the states
   whose seeded row shrank enter the worklist. When [q'] is popped,
   every a-predecessor [q] of [q'] must satisfy the step condition
   through [q'], i.e. every simulator of [q] must own an [a]-move into
   the current [rows.(q')]. That set, pre_a(rows.(q')), is read off the
   a-predecessor slices of the transposed table, one slice per member
   of the row, so a pop costs the in-degrees it reads plus one n-bit
   intersection per predecessor; a predecessor whose row shrinks
   re-enters the worklist. The loop reaches the greatest fixpoint: a
   genuine simulator is never removed (its matching move lands inside
   every over-approximation, the initial rows included), and on
   termination all step constraints hold with the final rows.

   The result is the *direct* simulation — acceptance-compatible at every
   step — so [p ∈ rows.(q)] implies L(q) ⊆ L(p) state-wise, which is the
   containment fact the quotients rely on.

   Computed rows are cached in [Rl_engine_kernel.Simcache] under a digest
   of the automaton's structure; cached rows are shared and must be
   treated as read-only by every consumer. *)

(* rows.(q) = states simulating q; read-only *)
type t = Bitset.t array

let size = Array.length
let simulators t q = t.(q)
let simulates t p q = Bitset.mem t.(q) p

(* The refinement loop proper. [memberships] are the state sets the
   relation must respect downward: p may simulate q only if, for every
   member set M, q ∈ M implies p ∈ M. Direct forward simulation passes
   the final states. *)
let refine ?rdelta ~(memberships : Bitset.t list) delta =
  let n = Csr.states delta and k = Csr.symbols delta in
  if n = 0 then [||]
  else begin
    (* [rdelta], when given, must be [Csr.transpose delta]: callers
       holding an automaton pass its cached transpose (Nfa.rcsr) so
       repeated refinements stop re-transposing the table *)
    let rdelta =
      match rdelta with Some r -> r | None -> Csr.transpose delta
    in
    let offsets = Csr.offsets rdelta and targets = Csr.targets rdelta in
    let bpw = Sys.int_size in
    (* [can_match ~into row a] sets [into] to pre_a(row): the states with
       an a-move into [row], read off the a-predecessor slices of its
       members *)
    let can_match ~into row a =
      let cw = Bitset.unsafe_words into in
      Array.fill cw 0 (Array.length cw) 0;
      let rw = Bitset.unsafe_words row in
      for w = 0 to Array.length rw - 1 do
        let word = ref rw.(w) in
        while !word <> 0 do
          let cell = (((w * bpw) + Bitset.lowest_bit !word) * k) + a in
          for i = offsets.(cell) to offsets.(cell + 1) - 1 do
            let q = targets.(i) in
            let j = q / bpw in
            cw.(j) <- cw.(j) lor (1 lsl (q mod bpw))
          done;
          word := !word land (!word - 1)
        done
      done
    in
    (* [restrict row cm] intersects [row] with [cm]; [true] iff it shrank *)
    let restrict row cm =
      let rw = Bitset.unsafe_words row and cw = Bitset.unsafe_words cm in
      let shrank = ref false in
      for w = 0 to Array.length rw - 1 do
        let old = rw.(w) in
        let nw = old land cw.(w) in
        if nw <> old then begin
          rw.(w) <- nw;
          shrank := true
        end
      done;
      !shrank
    in
    (* The first round, shared. A state's initial row is the set of
       states whose membership signature contains its own, so it depends
       on the signature alone. The signature is a bit mask over the
       membership sets and indexes its initial row and a-predecessor set
       directly: callers pass at most two sets, so at most four rows are
       built, whether or not some state carries each mask. *)
    let members = Array.of_list memberships in
    let mask q =
      let s = ref 0 in
      Array.iteri (fun i m -> if Bitset.mem m q then s := !s lor (1 lsl i)) members;
      !s
    in
    let masks = Array.init n mask in
    let nsig = 1 lsl Array.length members in
    let init =
      Array.init nsig (fun s ->
          let row = Bitset.create n in
          Array.iteri (fun p m -> if m land s = s then Bitset.add row p) masks;
          row)
    in
    let pre_init =
      Array.init (nsig * k) (fun cell ->
          let into = Bitset.create n in
          can_match ~into init.(cell / k) (cell mod k);
          into)
    in
    (* seed: init(q) ∩ ⋂ { pre_a(init(q')) | a, q' ∈ post_a(q) } *)
    let rows =
      Array.init n (fun q ->
          let row = Bitset.copy init.(masks.(q)) in
          for a = 0 to k - 1 do
            for i = Csr.row_start delta q a to Csr.row_stop delta q a - 1 do
              ignore
                (restrict row pre_init.((masks.(Csr.target delta i) * k) + a))
            done
          done;
          row)
    in
    (* Every step constraint now holds against the initial rows, so only
       a state whose row lies strictly inside its initial row can break
       one of its predecessors' constraints. The worklist is a stack
       (each state on it at most once): a predecessor whose row just
       shrank is examined before older entries, so a distinction travels
       back along a path in one sweep rather than one step per round. *)
    let on_work = Array.make n false in
    let work = Array.make n 0 and top = ref 0 in
    let push q =
      on_work.(q) <- true;
      work.(!top) <- q;
      incr top
    in
    for q = 0 to n - 1 do
      if not (Bitset.equal rows.(q) init.(masks.(q))) then push q
    done;
    let cm = Bitset.create n in
    while !top > 0 do
      decr top;
      let q' = work.(!top) in
      on_work.(q') <- false;
      let row' = rows.(q') in
      for a = 0 to k - 1 do
        let lo = Csr.row_start rdelta q' a and hi = Csr.row_stop rdelta q' a in
        if lo < hi then begin
          can_match ~into:cm row' a;
          for i = lo to hi - 1 do
            let q = targets.(i) in
            if restrict rows.(q) cm && not on_work.(q) then push q
          done
        end
      done
    done;
    rows
  end

(* The key determines the relation and nothing else: state and symbol
   counts, every membership set in order, and every successor slice of
   [delta], each written as a count followed by its elements (32-bit
   little-endian ints, so the encoding is self-delimiting). Two tables
   with the same key have the same greatest simulation. Slices are taken
   sorted, since their order does not change the relation: a Büchi
   automaton and its pre-language NFA list a cell's successors in
   opposite orders. *)
let fingerprint ~memberships delta =
  let states = Csr.states delta and symbols = Csr.symbols delta in
  let offsets = Csr.offsets delta and targets = Csr.targets delta in
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
  for cell = 0 to (states * symbols) - 1 do
    let lo = offsets.(cell) and hi = offsets.(cell + 1) in
    int (hi - lo);
    if hi - lo = 1 then int targets.(lo)
    else if hi > lo then begin
      let slice = Array.sub targets lo (hi - lo) in
      Array.sort Int.compare slice;
      Array.iter int slice
    end
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let of_view ?(cache = true) ?rdelta ~memberships delta =
  let compute () = refine ?rdelta ~memberships delta in
  if cache then
    Simcache.find_or_compute (fingerprint ~memberships delta) compute
  else compute ()

let require_eps_free who n =
  if Nfa.has_eps n then
    invalid_arg (who ^ ": ε-moves present; apply Nfa.remove_eps first")

let forward ?cache n =
  require_eps_free "Preorder.forward" n;
  of_view ?cache ~rdelta:(Nfa.rcsr n) ~memberships:[ Nfa.finals n ] (Nfa.csr n)

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
      Bitset.iter
        (fun p ->
          if p > q && cls.(p) = -1 && Bitset.mem t.(p) q then
            cls.(p) <- !count)
        t.(q);
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
