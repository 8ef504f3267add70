(* Always-on counters and phase timers for the checking engine.

   The counters are global [Atomic]s bumped from the hot paths — one
   atomic add per antichain event is noise next to the bitset work the
   event represents, so they stay on unconditionally and [--stats] is
   purely a reporting flag. GC behavior is measured as deltas of
   [Gc.quick_stat] between two {!snapshot}s: [quick_stat] reads
   domain-local accumulators and never forces a collection, so the
   probe itself is cheap and allocation-free.

   Phase wall-clock times are recorded by [Budget.with_phase] into a
   mutex-guarded table here (deciders running under [Pool] may finish
   phases on the main domain while a worker polls a snapshot). *)

(* --- engine counters --- *)

let nodes = Atomic.make 0
let antichain_hits = Atomic.make 0
let evictions = Atomic.make 0
let arena_hw_words = Atomic.make 0
let steals = Atomic.make 0
let parks = Atomic.make 0
let shard_contention = Atomic.make 0

let incr_nodes () = Atomic.incr nodes
let incr_antichain_hits () = Atomic.incr antichain_hits
let incr_evictions () = Atomic.incr evictions
let incr_steals () = Atomic.incr steals
let incr_parks () = Atomic.incr parks
let incr_shard_contention () = Atomic.incr shard_contention

let note_arena_words w =
  let rec go () =
    let cur = Atomic.get arena_hw_words in
    if w > cur && not (Atomic.compare_and_set arena_hw_words cur w) then go ()
  in
  go ()

(* --- worker-domain GC aggregation --- *)

(* [Gc.quick_stat] reads domain-local accumulators, so a snapshot taken
   on the calling domain misses every word a pool worker allocated. The
   pool therefore samples each worker's quick_stat around its share of a
   job and folds the deltas in here; [snapshot] adds the fold to the
   caller's own quick_stat, so --stats tables and the allocation bars
   cover all domains, and diffs stay monotonic. *)

let dom_mutex = Mutex.create ()
let dom_minor = ref 0.
let dom_promoted = ref 0.
let dom_major = ref 0.
let dom_minor_cols = ref 0
let dom_major_cols = ref 0

let note_domain_gc ~before ~after =
  Mutex.lock dom_mutex;
  dom_minor := !dom_minor +. (after.Gc.minor_words -. before.Gc.minor_words);
  dom_promoted :=
    !dom_promoted +. (after.Gc.promoted_words -. before.Gc.promoted_words);
  dom_major := !dom_major +. (after.Gc.major_words -. before.Gc.major_words);
  dom_minor_cols :=
    !dom_minor_cols + (after.Gc.minor_collections - before.Gc.minor_collections);
  dom_major_cols :=
    !dom_major_cols + (after.Gc.major_collections - before.Gc.major_collections);
  Mutex.unlock dom_mutex

(* --- phase timers --- *)

let phase_mutex = Mutex.create ()
let phase_tbl : (string, float * int) Hashtbl.t = Hashtbl.create 16

let record_phase name dt =
  Mutex.lock phase_mutex;
  let t, n =
    match Hashtbl.find_opt phase_tbl name with
    | Some e -> e
    | None -> (0., 0)
  in
  Hashtbl.replace phase_tbl name (t +. dt, n + 1);
  Mutex.unlock phase_mutex

let phases () =
  Mutex.lock phase_mutex;
  let out =
    Hashtbl.fold (fun name (t, n) acc -> (name, t, n) :: acc) phase_tbl []
  in
  Mutex.unlock phase_mutex;
  (* most expensive first; name-tiebreak keeps the listing stable *)
  List.sort
    (fun (n1, t1, _) (n2, t2, _) ->
      match compare t2 t1 with 0 -> compare n1 n2 | c -> c)
    out

(* --- snapshots --- *)

type snapshot = {
  wall : float;
  nodes : int;
  antichain_hits : int;
  evictions : int;
  arena_high_water_words : int;
  steals : int;
  parks : int;
  shard_contention : int;
  sim_hits : int;
  sim_misses : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let snapshot () =
  let g = Gc.quick_stat () in
  let sim_hits, sim_misses, _ = Simcache.stats () in
  Mutex.lock dom_mutex;
  let dm = !dom_minor
  and dp = !dom_promoted
  and dj = !dom_major
  and dmc = !dom_minor_cols
  and djc = !dom_major_cols in
  Mutex.unlock dom_mutex;
  {
    wall = Unix.gettimeofday ();
    nodes = Atomic.get nodes;
    antichain_hits = Atomic.get antichain_hits;
    evictions = Atomic.get evictions;
    arena_high_water_words = Atomic.get arena_hw_words;
    steals = Atomic.get steals;
    parks = Atomic.get parks;
    shard_contention = Atomic.get shard_contention;
    sim_hits;
    sim_misses;
    minor_words = g.Gc.minor_words +. dm;
    promoted_words = g.Gc.promoted_words +. dp;
    major_words = g.Gc.major_words +. dj;
    minor_collections = g.Gc.minor_collections + dmc;
    major_collections = g.Gc.major_collections + djc;
  }

(* Counters are monotonic, so a delta is just a fieldwise subtraction;
   the arena high-water is a peak, not a rate, and keeps [after]'s
   value. *)
let diff ~before ~after =
  {
    wall = after.wall -. before.wall;
    nodes = after.nodes - before.nodes;
    antichain_hits = after.antichain_hits - before.antichain_hits;
    evictions = after.evictions - before.evictions;
    arena_high_water_words = after.arena_high_water_words;
    steals = after.steals - before.steals;
    parks = after.parks - before.parks;
    shard_contention = after.shard_contention - before.shard_contention;
    sim_hits = after.sim_hits - before.sim_hits;
    sim_misses = after.sim_misses - before.sim_misses;
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
  }

let minor_words_per_node s =
  if s.nodes = 0 then 0. else s.minor_words /. float_of_int s.nodes

(* --- reporting --- *)

let pp_human ppf s =
  let line fmt = Format.fprintf ppf fmt in
  line "@[<v>";
  line "engine statistics@,";
  line "  wall time            %10.3f s@," s.wall;
  line "  nodes explored       %10d@," s.nodes;
  line "  antichain hits       %10d@," s.antichain_hits;
  line "  antichain evictions  %10d@," s.evictions;
  line "  arena high water     %10d words@," s.arena_high_water_words;
  line "  steals / parks       %10d / %d@," s.steals s.parks;
  line "  shard contention     %10d@," s.shard_contention;
  line "  simcache hits/misses %10d / %d@," s.sim_hits s.sim_misses;
  line "  minor words          %14.0f  (%.2f / node)@," s.minor_words
    (minor_words_per_node s);
  line "  promoted words       %14.0f@," s.promoted_words;
  line "  major words          %14.0f@," s.major_words;
  line "  collections          %10d minor, %d major@," s.minor_collections
    s.major_collections;
  (match phases () with
  | [] -> ()
  | ps ->
      line "  phases:@,";
      List.iter
        (fun (name, t, n) -> line "    %-24s %8.3f s  x%d@," name t n)
        ps);
  line "@]"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ?(extra = []) s =
  let b = Buffer.create 512 in
  let field k v = Buffer.add_string b (Printf.sprintf "\"%s\":%s," k v) in
  Buffer.add_string b "{\"rlcheck_stats\":1,";
  List.iter
    (fun (k, v) -> field (json_escape k) v)
    extra;
  field "wall_s" (Printf.sprintf "%.6f" s.wall);
  field "nodes" (string_of_int s.nodes);
  field "antichain_hits" (string_of_int s.antichain_hits);
  field "evictions" (string_of_int s.evictions);
  field "arena_high_water_words" (string_of_int s.arena_high_water_words);
  field "steals" (string_of_int s.steals);
  field "parks" (string_of_int s.parks);
  field "shard_contention" (string_of_int s.shard_contention);
  field "sim_hits" (string_of_int s.sim_hits);
  field "sim_misses" (string_of_int s.sim_misses);
  field "minor_words" (Printf.sprintf "%.0f" s.minor_words);
  field "minor_words_per_node" (Printf.sprintf "%.4f" (minor_words_per_node s));
  field "promoted_words" (Printf.sprintf "%.0f" s.promoted_words);
  field "major_words" (Printf.sprintf "%.0f" s.major_words);
  field "minor_collections" (string_of_int s.minor_collections);
  field "major_collections" (string_of_int s.major_collections);
  let ps = phases () in
  Buffer.add_string b "\"phases\":{";
  List.iteri
    (fun i (name, t, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":{\"wall_s\":%.6f,\"count\":%d}"
           (json_escape name) t n))
    ps;
  Buffer.add_string b "}}";
  Buffer.contents b

(* --- GC tuning --- *)

(* Defaults measured with [bench/main.exe hotpath] on the antichain families:
   a 4M-word (32 MB) minor heap keeps frontier scratch out of the major
   heap between level boundaries, and space_overhead 200 halves major
   slice work on the long-lived CSR/arena arrays for a few percent of
   extra residency. [RLCHECK_GC=off] opts out; explicit
   [minor=<words>,space_overhead=<percent>] overrides field-wise. *)

let default_minor_words = 4_194_304
let default_space_overhead = 200

let gc_tune () =
  match Sys.getenv_opt "RLCHECK_GC" with
  | Some "off" -> ()
  | spec ->
      let minor = ref default_minor_words
      and space = ref default_space_overhead in
      (match spec with
      | None | Some "" -> ()
      | Some s ->
          List.iter
            (fun kv ->
              match String.index_opt kv '=' with
              | None -> ()
              | Some i ->
                  let k = String.sub kv 0 i
                  and v =
                    String.sub kv (i + 1) (String.length kv - i - 1)
                  in
                  (match (k, int_of_string_opt v) with
                  | "minor", Some n when n > 0 -> minor := n
                  | "space_overhead", Some n when n > 0 -> space := n
                  | _ -> ()))
            (String.split_on_char ',' s));
      let g = Gc.get () in
      Gc.set { g with minor_heap_size = !minor; space_overhead = !space }
