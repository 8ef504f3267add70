(* Compressed-sparse-row transition tables.

   The frontier-expansion loops of the antichain and complementation
   engines step the same automaton millions of times; chasing
   [int list array array] successor lists there costs a pointer
   dereference and a cache miss per edge. A CSR table flattens the whole
   relation into two int arrays — [offsets] indexed by [q * k + a] and a
   shared [targets] pool — so a (state, symbol) step is one contiguous
   slice scan. The arrays are immutable after construction, hence safe to
   read from any thread without synchronization. *)

type t = {
  states : int;
  symbols : int;
  offsets : int array; (* length states * symbols + 1, nondecreasing *)
  targets : int array; (* concatenated successor slices *)
}

let states t = t.states
let symbols t = t.symbols

let of_lists ~states ~symbols rows =
  (* direct construction from the [int list array array] shape the
     automata keep for their construction-time API: one traversal to
     count, one to fill, no double evaluation of a successor function *)
  let cells = (states * symbols) + 1 in
  let offsets = Array.make cells 0 in
  for q = 0 to states - 1 do
    let row = rows.(q) in
    for a = 0 to symbols - 1 do
      offsets.((q * symbols) + a + 1) <- List.length row.(a)
    done
  done;
  for i = 1 to cells - 1 do
    offsets.(i) <- offsets.(i) + offsets.(i - 1)
  done;
  let targets = Array.make offsets.(cells - 1) 0 in
  for q = 0 to states - 1 do
    let row = rows.(q) in
    for a = 0 to symbols - 1 do
      let base = ref offsets.((q * symbols) + a) in
      List.iter
        (fun q' ->
          targets.(!base) <- q';
          incr base)
        row.(a)
    done
  done;
  { states; symbols; offsets; targets }

(* Adopts arrays a caller wrote row by row (the Büchi product and its
   pruning), so the table is never rebuilt from lists. *)
let of_arrays ~states ~symbols ~offsets ~targets =
  let cells = (states * symbols) + 1 in
  if
    Array.length offsets <> cells
    || offsets.(0) <> 0
    || offsets.(cells - 1) <> Array.length targets
  then invalid_arg "Csr.of_arrays: offsets do not frame targets";
  { states; symbols; offsets; targets }

let of_fn ~states ~symbols succ =
  let cells = (states * symbols) + 1 in
  let offsets = Array.make cells 0 in
  (* first pass: slice lengths, shifted one cell right *)
  for q = 0 to states - 1 do
    for a = 0 to symbols - 1 do
      offsets.((q * symbols) + a + 1) <- List.length (succ q a)
    done
  done;
  for i = 1 to cells - 1 do
    offsets.(i) <- offsets.(i) + offsets.(i - 1)
  done;
  let targets = Array.make offsets.(cells - 1) 0 in
  for q = 0 to states - 1 do
    for a = 0 to symbols - 1 do
      let base = ref offsets.((q * symbols) + a) in
      List.iter
        (fun q' ->
          targets.(!base) <- q';
          incr base)
        (succ q a)
    done
  done;
  { states; symbols; offsets; targets }

(* Raw slice access, for closure-free inner loops: a caller iterates
   [row_start .. row_stop - 1] and reads targets with [target]. The
   returned arrays of [offsets]/[targets] are the table's own storage
   and must be treated as read-only. *)
let row_start t q a = t.offsets.((q * t.symbols) + a)
let row_stop t q a = t.offsets.((q * t.symbols) + a + 1)
let target t i = t.targets.(i)
let offsets t = t.offsets
let targets t = t.targets

let mem_succ t q a q' =
  let cell = (q * t.symbols) + a in
  let stop = t.offsets.(cell + 1) in
  let rec scan i = i < stop && (t.targets.(i) = q' || scan (i + 1)) in
  scan t.offsets.(cell)

(* All successors of [q] across every symbol. A state's cells are
   contiguous in [offsets], so the union of its per-symbol slices is one
   contiguous [targets] range. *)
let iter_row_all t q f =
  let lo = t.offsets.(q * t.symbols) in
  let hi = t.offsets.((q * t.symbols) + t.symbols) in
  for i = lo to hi - 1 do
    f t.targets.(i)
  done

let iter_succ t q a f =
  let cell = (q * t.symbols) + a in
  for i = t.offsets.(cell) to t.offsets.(cell + 1) - 1 do
    f t.targets.(i)
  done

let fold_succ t q a f acc =
  let cell = (q * t.symbols) + a in
  let acc = ref acc in
  for i = t.offsets.(cell) to t.offsets.(cell + 1) - 1 do
    acc := f t.targets.(i) !acc
  done;
  !acc

let transpose t =
  let rev = Array.make (t.states * t.symbols) [] in
  for q = 0 to t.states - 1 do
    for a = 0 to t.symbols - 1 do
      iter_succ t q a (fun q' ->
          let cell = (q' * t.symbols) + a in
          rev.(cell) <- q :: rev.(cell))
    done
  done;
  of_fn ~states:t.states ~symbols:t.symbols (fun q a ->
      List.rev rev.((q * t.symbols) + a))
