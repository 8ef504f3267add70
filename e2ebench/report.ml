(* Percentiles, set-up timing, the result line, and peak memory. *)

module J = Rl_service.Jsonx

type metric = { name : string; value : float; unit : string }

let metric name value unit = { name; value; unit }

(* linear interpolation between the closest ranks; [p] in [0, 1] *)
let percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Report.percentile: no samples";
  Array.sort Float.compare a;
  let r = p *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5
let sum = List.fold_left ( +. ) 0.
let mean xs = sum xs /. float_of_int (List.length xs)

(* [timed reps f] runs [f] [reps] times, each from a freshly collected
   heap; the durations and the last result *)
let timed reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let v = f () in
    times := (Unix.gettimeofday () -. t0) :: !times;
    last := Some v
  done;
  (!times, Option.get !last)

(* Compact JSON with every digit of every number: [Jsonx.to_string]
   rounds to six significant digits, which would make distinct timings
   read alike. [Jsonx.parse] reads it back exactly. *)
let rec to_string = function
  | J.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.sprintf "%.0f" f
  | J.Num f -> Printf.sprintf "%.17g" f
  | J.Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | J.Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> J.to_string (J.Str k) ^ ": " ^ to_string v)
             fields)
      ^ "}"
  | v -> J.to_string v

let result ~correct ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit) ]))
             metrics) );
    ]

(* The per-layer metrics, in BENCHMARK.json's order. Times are self time
   per check and counts are per check; a layer the workload never
   reaches reads 0. *)
let layer_units =
  [
    ("parse.s", "s/check");
    ("lint.s", "s/check");
    ("lint.calls", "count/check");
    ("translate.s", "s/check");
    ("translate.calls", "count/check");
    ("translate.states", "count/check");
    ("certify.s", "s/check");
    ("certify.calls", "count/check");
    ("reduce.s", "s/check");
    ("reduce.states_in", "count/check");
    ("reduce.states_out", "count/check");
    ("product.s", "s/check");
    ("product.states", "count/check");
    ("inclusion.s", "s/check");
    ("inclusion.nodes", "count/check");
    ("inclusion.antichain_hits", "count/check");
    ("emptiness.s", "s/check");
    ("hom.image.s", "s/check");
    ("hom.maximal.s", "s/check");
    ("hom.simplicity.s", "s/check");
    ("abstract_decide.s", "s/check");
    ("service.request.s", "s/check");
    ("service.wire.s", "s/check");
    ("service.memo_hit_ratio", "ratio");
    ("service.lint_hit_ratio", "ratio");
    ("service.simcache_hit_ratio", "ratio");
    ("service.evictions", "count/check");
    ("service.decides", "count/check");
    ("gc.minor_words_per_check", "words/check");
    ("gc.major_collections", "count/check");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

let per_layer values =
  List.map
    (fun (name, unit) ->
      metric name (Option.value ~default:0. (Hashtbl.find_opt values name)) unit)
    layer_units

(* VmHWM of process [pid] ("self" for this one), in MB *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())
