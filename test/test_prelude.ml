(* Tests for the prelude: bitsets, union-find, and the deterministic PRNG. *)

open Rl_prelude

(* --- Bitset --- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "elements sorted" [ 0; 64; 99 ] (Bitset.elements s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset: element out of range") (fun () -> Bitset.add s 10);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: element out of range") (fun () ->
      ignore (Bitset.mem s (-1)))

let test_bitset_setops () =
  let mk xs = Bitset.of_list 70 xs in
  let a = mk [ 1; 2; 65 ] and b = mk [ 2; 3; 65 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~into:u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 65 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~into:i b;
  Alcotest.(check (list int)) "inter" [ 2; 65 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Bitset.diff_into ~into:d b;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d);
  Alcotest.(check bool) "subset" true (Bitset.subset i a);
  Alcotest.(check bool) "not subset" false (Bitset.subset a b);
  Alcotest.(check bool) "disjoint" true (Bitset.disjoint d (mk [ 2; 3 ]));
  Alcotest.(check bool) "equal to self copy" true (Bitset.equal a (Bitset.copy a));
  Alcotest.(check int) "choose = min" 1 (Bitset.choose a)

let prop_bitset_model =
  (* bitsets behave like integer sets *)
  QCheck2.Test.make ~name:"bitset agrees with a list-set model" ~count:500
    QCheck2.Gen.(list_size (0 -- 40) (0 -- 59))
    (fun xs ->
      let s = Bitset.of_list 60 xs in
      let model = List.sort_uniq compare xs in
      Bitset.elements s = model
      && Bitset.cardinal s = List.length model
      && List.for_all (Bitset.mem s) model
      && Bitset.hash s = Bitset.hash (Bitset.of_list 60 (List.rev xs)))

(* The raw-word layout the antichain engine's inner loops hard-code:
   bit [i] of the set is bit [i mod int_size] of word [i / int_size],
   and the array has exactly [(capacity + int_size - 1) / int_size]
   words. A change here silently breaks every hoisted word loop. *)
let test_bitset_word_layout () =
  let isz = Sys.int_size in
  let nb = (2 * isz) + 5 in
  let s = Bitset.create nb in
  let w = Bitset.unsafe_words s in
  Alcotest.(check int) "word count" ((nb + isz - 1) / isz) (Array.length w);
  let probes = [ 0; 1; isz - 1; isz; (2 * isz) - 1; 2 * isz; nb - 1 ] in
  List.iter (Bitset.add s) probes;
  let w = Bitset.unsafe_words s in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "bit %d set in word %d" i (i / isz))
        true
        (w.(i / isz) land (1 lsl (i mod isz)) <> 0))
    probes;
  (* and only those bits: popcount over the words equals the cardinal *)
  let bits = ref 0 in
  Array.iter
    (fun word ->
      let x = ref word in
      while !x <> 0 do
        bits := !bits + (!x land 1);
        x := !x lsr 1
      done)
    w;
  Alcotest.(check int) "popcount = cardinal" (Bitset.cardinal s) !bits

(* Members at the word edges: [isz - 1] is the top bit of word 0, the
   OCaml sign bit, so a word holding it alone equals [min_int]; [isz]
   opens word 1, [2 * isz - 1] tops it and [2 * isz] opens word 2 (62,
   63, 125 and 126 on 64-bit hosts). *)
let test_bitset_word_edges () =
  let isz = Sys.int_size in
  for b = 0 to isz - 1 do
    Alcotest.(check int) (Printf.sprintf "lowest_bit (1 lsl %d)" b) b
      (Bitset.lowest_bit (1 lsl b));
    Alcotest.(check int) (Printf.sprintf "lowest_bit (-1 lsl %d)" b) b
      (Bitset.lowest_bit (-1 lsl b))
  done;
  let top = Bitset.of_list (isz + 1) [ isz - 1 ] in
  Alcotest.(check int) "top bit alone is min_int" min_int
    (Bitset.unsafe_words top).(0);
  Alcotest.(check int) "choose the top bit" (isz - 1) (Bitset.choose top);
  Alcotest.(check (list int)) "elements of the top bit" [ isz - 1 ]
    (Bitset.elements top);
  Bitset.remove top (isz - 1);
  Alcotest.(check bool) "empty again" true (Bitset.is_empty top);
  let edges = [ isz - 1; isz; (2 * isz) - 1; 2 * isz ] in
  let s = Bitset.of_list ((2 * isz) + 1) edges in
  Alcotest.(check (list int)) "elements" edges (Bitset.elements s);
  Alcotest.(check (list int)) "fold" (List.rev edges)
    (Bitset.fold (fun i acc -> i :: acc) s []);
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  Alcotest.(check (list int)) "iter" edges (List.rev !seen);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check int) "choose" (isz - 1) (Bitset.choose s);
  List.iter
    (fun i ->
      Bitset.remove s i;
      Alcotest.(check bool) (Printf.sprintf "is_empty without %d" i)
        (i = 2 * isz) (Bitset.is_empty s);
      if i < 2 * isz then
        Alcotest.(check int) (Printf.sprintf "choose without %d" i)
          (List.find (fun j -> j > i) edges) (Bitset.choose s))
    edges;
  Alcotest.check_raises "choose of the empty set" Not_found (fun () ->
      ignore (Bitset.choose s))

(* The bit iterators against a [mem] scan of every element below the
   capacity, over capacities 0-200 (up to four words), with the word
   edges drawn often. *)
let prop_bitset_iterators_match_mem =
  QCheck2.Test.make ~name:"bitset iterators agree with a mem scan" ~count:500
    ~print:(fun (cap, xs) ->
      Printf.sprintf "capacity %d, members [%s]" cap
        (String.concat "; " (List.map string_of_int xs)))
    QCheck2.Gen.(
      let* cap = 0 -- 200 in
      let isz = Sys.int_size in
      let edges =
        List.filter (fun i -> i < cap)
          [ 0; isz - 1; isz; (2 * isz) - 1; 2 * isz; (3 * isz) - 1; cap - 1 ]
      in
      let+ xs =
        if cap = 0 then return []
        else
          list_size (0 -- 40)
            (frequency [ (3, 0 -- (cap - 1)); (1, oneofl edges) ])
      in
      (cap, xs))
    (fun (cap, xs) ->
      let s = Bitset.of_list cap xs in
      let scan = List.filter (Bitset.mem s) (List.init cap Fun.id) in
      let seen = ref [] in
      Bitset.iter (fun i -> seen := i :: !seen) s;
      Bitset.elements s = scan
      && List.rev !seen = scan
      && Bitset.fold (fun i acc -> i :: acc) s [] = List.rev scan
      && Bitset.cardinal s = List.length scan
      && Bitset.is_empty s = (scan = [])
      &&
      match scan with
      | [] -> ( match Bitset.choose s with _ -> false | exception Not_found -> true)
      | x :: _ -> Bitset.choose s = x)

let prop_bitset_setops_model =
  (* the in-place set operations against the sorted-list model — these
     are the exact primitives the frontier loops OR/AND over raw words *)
  QCheck2.Test.make ~name:"bitset set operations agree with the model"
    ~count:300
    QCheck2.Gen.(
      pair (list_size (0 -- 30) (0 -- 99)) (list_size (0 -- 30) (0 -- 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let xs = List.sort_uniq compare xs
      and ys = List.sort_uniq compare ys in
      let union = Bitset.copy a in
      Bitset.union_into ~into:union b;
      let inter = Bitset.copy a in
      Bitset.inter_into ~into:inter b;
      let diff = Bitset.copy a in
      Bitset.diff_into ~into:diff b;
      Bitset.elements union = List.sort_uniq compare (xs @ ys)
      && Bitset.elements inter = List.filter (fun x -> List.mem x ys) xs
      && Bitset.elements diff
         = List.filter (fun x -> not (List.mem x ys)) xs
      && Bitset.subset a b
         = List.for_all (fun x -> List.mem x ys) xs
      && Bitset.disjoint a b
         = List.for_all (fun x -> not (List.mem x ys)) xs)

(* --- Csr --- *)

(* rows.(q).(a) in exactly the order the triples listed them — CSR
   construction must preserve slice order, duplicates included *)
let rows_of_triples ~states ~symbols triples =
  let rows = Array.init states (fun _ -> Array.make symbols []) in
  List.iter
    (fun (q, a, q') -> rows.(q).(a) <- q' :: rows.(q).(a))
    (List.rev triples);
  rows

let test_csr_small () =
  (* 3 states, 2 symbols; state 1 has a duplicate a-edge to 2 *)
  let triples = [ (0, 0, 1); (0, 0, 2); (1, 0, 2); (1, 0, 2); (2, 1, 0) ] in
  let rows = rows_of_triples ~states:3 ~symbols:2 triples in
  let t = Csr.of_lists ~states:3 ~symbols:2 rows in
  Alcotest.(check int) "states" 3 (Csr.states t);
  Alcotest.(check int) "symbols" 2 (Csr.symbols t);
  let len q a = Csr.row_stop t q a - Csr.row_start t q a in
  Alcotest.(check int) "slice 0 a" 2 (len 0 0);
  Alcotest.(check int) "duplicate kept" 2 (len 1 0);
  Alcotest.(check int) "empty slice" 0 (len 0 1);
  Alcotest.(check bool) "mem_succ" true (Csr.mem_succ t 0 0 2);
  Alcotest.(check bool) "not mem_succ" false (Csr.mem_succ t 0 0 0);
  (* raw slice access agrees with iter_succ, in order *)
  let by_iter = ref [] in
  Csr.iter_succ t 0 0 (fun q' -> by_iter := q' :: !by_iter);
  let by_slice = ref [] in
  for i = Csr.row_stop t 0 0 - 1 downto Csr.row_start t 0 0 do
    by_slice := Csr.target t i :: !by_slice
  done;
  Alcotest.(check (list int)) "slice = iter" (List.rev !by_iter) !by_slice;
  Alcotest.(check (list int)) "slice order = input order" [ 1; 2 ] !by_slice;
  (* iter_row_all is the symbol-major concatenation *)
  let all = ref [] in
  Csr.iter_row_all t 0 (fun q' -> all := q' :: !all);
  Alcotest.(check (list int)) "row-all" [ 1; 2 ] (List.rev !all);
  Alcotest.(check int) "fold_succ" 3
    (Csr.fold_succ t 0 0 (fun q' acc -> q' + acc) 0);
  (* offsets: length states*symbols+1, nondecreasing, end = pool size *)
  let offs = Csr.offsets t in
  Alcotest.(check int) "offsets length" 7 (Array.length offs);
  Alcotest.(check int) "total" (List.length triples)
    (Array.length (Csr.targets t));
  Array.iteri
    (fun i o -> if i > 0 && o < offs.(i - 1) then Alcotest.fail "decreasing")
    offs

let test_csr_empty () =
  let t = Csr.of_fn ~states:0 ~symbols:3 (fun _ _ -> []) in
  Alcotest.(check int) "no states" 0 (Csr.states t);
  Alcotest.(check int) "offsets of empty" 1 (Array.length (Csr.offsets t));
  let t = Csr.of_fn ~states:4 ~symbols:2 (fun _ _ -> []) in
  for q = 0 to 3 do
    Csr.iter_row_all t q (fun _ -> Alcotest.fail "edge in empty table")
  done

let gen_csr_input =
  QCheck2.Gen.(
    bind
      (pair (1 -- 6) (1 -- 3))
      (fun (n, k) ->
        let edge = triple (0 -- (n - 1)) (0 -- (k - 1)) (0 -- (n - 1)) in
        map (fun ts -> (n, k, ts)) (list_size (0 -- 25) edge)))

let prop_csr_of_lists_eq_of_fn =
  QCheck2.Test.make ~name:"csr: of_lists and of_fn build identical tables"
    ~count:300 gen_csr_input (fun (n, k, triples) ->
      let rows = rows_of_triples ~states:n ~symbols:k triples in
      let a = Csr.of_lists ~states:n ~symbols:k rows in
      let b = Csr.of_fn ~states:n ~symbols:k (fun q s -> rows.(q).(s)) in
      Csr.offsets a = Csr.offsets b && Csr.targets a = Csr.targets b)

let prop_csr_model =
  QCheck2.Test.make ~name:"csr agrees with the successor-list model"
    ~count:300 gen_csr_input (fun (n, k, triples) ->
      let rows = rows_of_triples ~states:n ~symbols:k triples in
      let t = Csr.of_lists ~states:n ~symbols:k rows in
      let ok = ref true in
      for q = 0 to n - 1 do
        let concat = ref [] in
        for a = k - 1 downto 0 do
          let want = rows.(q).(a) in
          concat := want @ !concat;
          if Csr.row_stop t q a - Csr.row_start t q a <> List.length want then
            ok := false;
          if List.rev (Csr.fold_succ t q a (fun x acc -> x :: acc) []) <> want
          then ok := false;
          for q' = 0 to n - 1 do
            if Csr.mem_succ t q a q' <> List.mem q' want then ok := false
          done
        done;
        let all = ref [] in
        Csr.iter_row_all t q (fun x -> all := x :: !all);
        if List.rev !all <> !concat then ok := false
      done;
      !ok)

let prop_csr_transpose =
  QCheck2.Test.make ~name:"csr: transpose reverses the relation" ~count:300
    gen_csr_input (fun (n, k, triples) ->
      let rows = rows_of_triples ~states:n ~symbols:k triples in
      let t = Csr.of_lists ~states:n ~symbols:k rows in
      let r = Csr.transpose t in
      let ok = ref true in
      for q = 0 to n - 1 do
        for a = 0 to k - 1 do
          for q' = 0 to n - 1 do
            if Csr.mem_succ r q' a q <> Csr.mem_succ t q a q' then ok := false
          done;
          (* documented: transposed slices are sorted by source state *)
          let slice = List.rev (Csr.fold_succ r q a (fun x acc -> x :: acc) []) in
          if List.sort compare slice <> slice then ok := false
        done
      done;
      !ok)

(* --- Scc --- *)

(* Tables with no states or no symbols, and edges that loop or repeat. *)
let gen_scc_input =
  QCheck2.Gen.(
    bind
      (pair (0 -- 7) (0 -- 2))
      (fun (n, k) ->
        if n = 0 || k = 0 then return (n, k, [])
        else
          let state = 0 -- (n - 1) and symbol = 0 -- (k - 1) in
          map3
            (fun edges loops dups ->
              (n, k, edges @ loops @ List.filteri (fun i _ -> i < dups) edges))
            (list_size (0 -- 20) (triple state symbol state))
            (list_size (0 -- 3) (map2 (fun q a -> (q, a, q)) state symbol))
            (0 -- 5)))

let prop_scc_of_csr_eq_of_succ =
  QCheck2.Test.make
    ~name:"scc: of_csr equals of_succ over iter_row_all, in all five fields"
    ~count:500 gen_scc_input (fun (n, k, triples) ->
      let t = Csr.of_lists ~states:n ~symbols:k (rows_of_triples ~states:n ~symbols:k triples) in
      let a = Scc.of_csr t and b = Scc.of_succ ~states:n (Csr.iter_row_all t) in
      (* the partition is mutual reachability *)
      let reach = Array.init n (fun q -> Array.init n (fun q' -> q = q')) in
      for _ = 1 to n do
        List.iter
          (fun (q, _, q') ->
            for r = 0 to n - 1 do
              if reach.(r).(q) then reach.(r).(q') <- true
            done)
          triples
      done;
      a.Scc.comp = b.Scc.comp
      && a.Scc.count = b.Scc.count
      && a.Scc.size = b.Scc.size
      && a.Scc.self_loop = b.Scc.self_loop
      && a.Scc.closed = b.Scc.closed
      && List.for_all
           (fun q ->
             List.for_all
               (fun q' -> (a.Scc.comp.(q) = a.Scc.comp.(q')) = (reach.(q).(q') && reach.(q').(q)))
               (List.init n Fun.id))
           (List.init n Fun.id))

(* --- Vec --- *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh is empty" true (Vec.is_empty v);
  for i = 0 to 299 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 300 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "pop is LIFO" 598 (Vec.pop v);
  Alcotest.(check int) "pop shrinks" 299 (Vec.length v);
  Vec.truncate v 10;
  Alcotest.(check int) "truncate" 10 (Vec.length v);
  Alcotest.(check (list int)) "to_list survives truncation"
    (List.init 10 (fun i -> i * 2))
    (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let prop_vec_model =
  QCheck2.Test.make ~name:"vec agrees with a list model (push/pop mix)"
    ~count:300
    QCheck2.Gen.(list_size (0 -- 60) (option (0 -- 999)))
    (fun ops ->
      (* Some x = push x, None = pop (ignored when empty) *)
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Some x ->
              Vec.push v x;
              model := x :: !model
          | None -> (
              match !model with
              | [] -> ()
              | x :: rest ->
                  if Vec.pop v <> x then failwith "pop mismatch";
                  model := rest))
        ops;
      Vec.to_list v = List.rev !model
      && Vec.length v = List.length !model
      && Array.to_list (Vec.to_array v) = List.rev !model)

(* --- Arena --- *)

let test_arena_slices () =
  let a = Arena.create ~width:3 in
  Alcotest.(check int) "width" 3 (Arena.width a);
  let s0 = Arena.alloc a and s1 = Arena.alloc a in
  Alcotest.(check bool) "distinct slices" true (s0 <> s1);
  Alcotest.(check int) "live" 2 (Arena.live a);
  (* write through the raw storage, then force growth and re-read: the
     contents must survive the backing array being replaced *)
  let w = Arena.words a in
  for j = 0 to 2 do
    w.((s0 * 3) + j) <- 100 + j;
    w.((s1 * 3) + j) <- 200 + j
  done;
  let more = List.init 40 (fun _ -> Arena.alloc a) in
  let w = Arena.words a in
  for j = 0 to 2 do
    Alcotest.(check int) "s0 survives growth" (100 + j) w.((s0 * 3) + j);
    Alcotest.(check int) "s1 survives growth" (200 + j) w.((s1 * 3) + j)
  done;
  Arena.clear_slice a s0;
  let w = Arena.words a in
  for j = 0 to 2 do
    Alcotest.(check int) "cleared" 0 w.((s0 * 3) + j)
  done;
  Alcotest.(check int) "live counts all" (2 + List.length more) (Arena.live a);
  Alcotest.(check bool) "high water in words" true
    (Arena.high_water_words a >= 42 * 3)

let test_arena_quarantine () =
  let a = Arena.create ~width:2 in
  let s0 = Arena.alloc a in
  let w = Arena.words a in
  w.(s0 * 2) <- 7;
  w.((s0 * 2) + 1) <- 8;
  Arena.defer_release a s0;
  (* quarantined, not free: a fresh alloc must NOT hand s0 back, and the
     slice stays readable — the antichain engine reads evicted-but-live
     nodes' sets until the level boundary *)
  let s1 = Arena.alloc a in
  Alcotest.(check bool) "no reuse before reclaim" true (s1 <> s0);
  let w = Arena.words a in
  Alcotest.(check int) "quarantined slice readable" 7 w.(s0 * 2);
  Arena.reclaim a;
  (* after the generation boundary the slice is allocatable again *)
  let s2 = Arena.alloc a in
  Alcotest.(check int) "freed slice reused first" s0 s2;
  Alcotest.(check int) "high water unchanged by reuse" (Arena.high_water a) 2

let prop_arena_reuse_bounds_footprint =
  QCheck2.Test.make
    ~name:"arena: alternating alloc/defer/reclaim reuses slices" ~count:200
    QCheck2.Gen.(pair (1 -- 4) (1 -- 20))
    (fun (width, levels) ->
      let a = Arena.create ~width in
      (* each level allocates 3 slices and defers them; with reclaim at
         every level boundary the pool never exceeds two generations *)
      for _ = 1 to levels do
        Arena.reclaim a;
        let ids = List.init 3 (fun _ -> Arena.alloc a) in
        List.iter (fun id -> Arena.defer_release a id) ids
      done;
      Arena.high_water a <= 6 && Arena.live a = 0)

(* --- Union-find --- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "classes" 6 (Union_find.count uf);
  Alcotest.(check bool) "merge" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "again no-op" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "different" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 0 2);
  Alcotest.(check int) "count" 3 (Union_find.count uf)

let prop_union_find_equivalence =
  QCheck2.Test.make ~name:"union-find maintains an equivalence relation"
    ~count:300
    QCheck2.Gen.(list_size (0 -- 30) (pair (0 -- 14) (0 -- 14)))
    (fun merges ->
      let uf = Union_find.create 15 in
      List.iter (fun (i, j) -> ignore (Union_find.union uf i j)) merges;
      (* reflexive, symmetric (trivially), and consistent with the merge
         closure computed by a naive fixpoint *)
      let reach = Array.make_matrix 15 15 false in
      for i = 0 to 14 do
        reach.(i).(i) <- true
      done;
      List.iter
        (fun (i, j) ->
          reach.(i).(j) <- true;
          reach.(j).(i) <- true)
        merges;
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to 14 do
          for j = 0 to 14 do
            for k = 0 to 14 do
              if reach.(i).(j) && reach.(j).(k) && not reach.(i).(k) then begin
                reach.(i).(k) <- true;
                changed := true
              end
            done
          done
        done
      done;
      let ok = ref true in
      for i = 0 to 14 do
        for j = 0 to 14 do
          if Union_find.same uf i j <> reach.(i).(j) then ok := false
        done
      done;
      !ok)

(* --- PRNG --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs g = List.init 20 (fun _ -> Prng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (xs a) (xs b);
  let c = Prng.create 43 in
  Alcotest.(check bool) "different seed, different stream" true
    (xs (Prng.create 42) <> xs c)

let test_prng_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 17 in
    if x < 0 || x >= 17 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_prng_split_independent () =
  let g = Prng.create 5 in
  let h = Prng.split g in
  let xs = List.init 10 (fun _ -> Prng.int g 100) in
  let ys = List.init 10 (fun _ -> Prng.int h 100) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_float_range () =
  let g = Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    if f < 0. || f >= 1. then Alcotest.fail "float out of [0,1)"
  done

let test_prng_shuffle_permutes () =
  let g = Prng.create 13 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "still a permutation" true (sorted = Array.init 20 Fun.id)

let prop_prng_roughly_uniform =
  QCheck2.Test.make ~name:"prng buckets are roughly uniform" ~count:20
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let buckets = Array.make 8 0 in
      let n = 4000 in
      for _ = 1 to n do
        let b = Prng.int g 8 in
        buckets.(b) <- buckets.(b) + 1
      done;
      (* expected 500 per bucket; allow generous slack *)
      Array.for_all (fun c -> c > 300 && c < 700) buckets)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bitset_model;
      prop_bitset_setops_model;
      prop_bitset_iterators_match_mem;
      prop_csr_of_lists_eq_of_fn;
      prop_csr_model;
      prop_csr_transpose;
      prop_scc_of_csr_eq_of_succ;
      prop_vec_model;
      prop_arena_reuse_bounds_footprint;
      prop_union_find_equivalence;
      prop_prng_roughly_uniform;
    ]

let () =
  Alcotest.run "prelude"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "set operations" `Quick test_bitset_setops;
          Alcotest.test_case "word layout" `Quick test_bitset_word_layout;
          Alcotest.test_case "word edges" `Quick test_bitset_word_edges;
        ] );
      ( "csr",
        [
          Alcotest.test_case "small table" `Quick test_csr_small;
          Alcotest.test_case "empty tables" `Quick test_csr_empty;
        ] );
      ( "vec", [ Alcotest.test_case "basic" `Quick test_vec_basic ] );
      ( "arena",
        [
          Alcotest.test_case "slices and growth" `Quick test_arena_slices;
          Alcotest.test_case "quarantine and reuse" `Quick
            test_arena_quarantine;
        ] );
      ( "union-find",
        [ Alcotest.test_case "basic" `Quick test_union_find ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ("properties", qsuite);
    ]
