(* The end-to-end checker benchmark (see README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --rlcheckd PATH
     main.exe selftest --rlcheckd PATH

   One client, closed loop, serial: a check starts when the previous one
   has replied. With --trace 0 the run reports the end-to-end metrics;
   with --trace 1 it reports the per-layer ones: on the in-process
   workloads it alternates untraced and traced passes over the same
   inputs, on edit_stream it splits each round trip at the daemon's
   elapsed_s. The result is the last line on stdout, one JSON object; a
   verdict that disagrees with its reference makes the exit status 1. *)

module Simcache = Rl_engine.Simcache
module Stats = Rl_engine.Stats

let now = Unix.gettimeofday

(* L, the time limit of decided_share: no check of any seed comes within
   25% of it *)
let limit_s = function
  | "formula_ladder" -> 30.
  | "system_scale" -> 10.
  | "abstraction" -> 5.
  | _ -> 2.

let min_checks = 100

(* a check's time is its fastest over at least this many passes *)
let min_passes = 3

(* setup_s is the median of this many set-ups before the first pass and
   as many again after every untraced pass: spread over the whole run,
   the set-ups meet as many of the host's slow and fast spells as the
   passes do *)
let setup_reps = 15

let out_dir = ".e2ebench"

type sample = { index : int; dt : float; outcome : Pipeline.outcome }

(* one pass over [checks], each timed alone after a cache clear and a
   full collection, so that every check pays what one CLI invocation
   pays and starts, as one does, from an empty heap. [gc] collects each
   check's Stats delta. *)
let pass ?gc checks run samples =
  Array.iteri
    (fun index c ->
      Simcache.clear ();
      Gc.full_major ();
      let before = Stats.snapshot () in
      let t0 = now () in
      let outcome = run c in
      let dt = now () -. t0 in
      Option.iter (fun gc -> gc := Stats.diff ~before ~after:(Stats.snapshot ()) :: !gc) gc;
      samples := { index; dt; outcome } :: !samples)
    checks

(* [dts] are the per-check times; [decided] of [attempted] checks
   returned the reference verdict within the limit *)
let end_to_end ~setup_s ~dts ~decided ~attempted ~peak_rss_mb =
  let n = List.length dts in
  let p90 = Report.percentile dts 0.9 in
  Printf.eprintf "e2ebench: verdict_p90_ms from %d samples, %d beyond it\n" n
    (List.length (List.filter (fun d -> d > p90) dts));
  [
    Report.metric "verdict_p50_ms" (1000. *. Report.median dts) "ms";
    Report.metric "verdict_p90_ms" (1000. *. p90) "ms";
    Report.metric "checks_per_s" (float_of_int n /. Report.sum dts) "1/s";
    Report.metric "decided_share"
      (float_of_int decided /. float_of_int attempted)
      "ratio";
    Report.metric "peak_rss_mb" peak_rss_mb "MB";
    Report.metric "setup_s" setup_s "s";
  ]

let finish ~correct ~attempted ~failed ~problems metrics =
  List.iteri (fun i p -> if i < 20 then prerr_endline ("e2ebench: " ^ p)) problems;
  List.iter
    (fun m ->
      Printf.eprintf "  %-28s %16.6g %s\n" m.Report.name m.Report.value m.Report.unit)
    metrics;
  print_endline (Report.to_string (Report.result ~correct ~attempted ~failed metrics));
  exit (if correct then 0 else 1)

let in_process ~workload ~seed ~seconds ~trace =
  Stats.gc_tune ();
  let setup_times = ref [] in
  let set_up () =
    let times, checks =
      Report.timed setup_reps (fun () ->
          Simcache.clear ();
          let checks = Inputs.make workload ~seed in
          List.iter (fun c -> ignore (Pipeline.run c)) (Inputs.paper_decisions ());
          checks)
    in
    setup_times := times @ !setup_times;
    checks
  in
  let checks = set_up () in
  let plain = ref [] and traced = ref [] and gc = ref [] in
  let t_start = now () in
  if not trace then begin
    let passes = ref 0 in
    while
      now () -. t_start < seconds
      || !passes < min_passes
      || List.length !plain < min_checks
    do
      pass checks Pipeline.run plain;
      incr passes;
      ignore (set_up ())
    done
  end
  else begin
    let id = ref 0 in
    let traced_run c =
      incr id;
      Trace.check !id (fun () -> Pipeline.traced c)
    in
    let continue = ref true in
    while !continue do
      pass ~gc checks Pipeline.run plain;
      pass checks traced_run traced;
      continue := now () -. t_start < seconds
    done;
    Trace.write
      (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed))
      ~origin:t_start
  end;
  (* before the references run in this process, so that the high-water
     mark is the checker's *)
  let peak_rss_mb = Report.peak_rss_mb "self" in
  (* every verdict: the same on every pass, equal to its reference, and
     the traced calls equal to the checker's own *)
  let first = Array.make (Array.length checks) None in
  let bad = Array.make (Array.length checks) None in
  let flag i msg = if bad.(i) = None then bad.(i) <- Some msg in
  List.iter
    (fun s ->
      match first.(s.index) with
      | None -> first.(s.index) <- Some s.outcome
      | Some o -> if o <> s.outcome then flag s.index "the verdict changed between passes")
    (List.rev !plain);
  let outcomes = Array.map Option.get first in
  Array.iteri (fun i w -> Option.iter (flag i) w) (Reference.check checks outcomes);
  List.iter
    (fun s ->
      if s.outcome <> outcomes.(s.index) then
        flag s.index "the traced calls disagree with the checker")
    !traced;
  let failed_sample s = bad.(s.index) <> None in
  let samples = !plain @ !traced in
  let failed = List.length (List.filter failed_sample samples) in
  let problems =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i b ->
              match b with
              | Some msg -> [ checks.(i).Inputs.name ^ ": " ^ msg ]
              | None -> [])
            bad))
  in
  let dts = List.map (fun s -> s.dt) !plain in
  let metrics =
    if not trace then
      let limit = limit_s workload in
      let decided =
        List.length
          (List.filter (fun s -> (not (failed_sample s)) && s.dt <= limit) !plain)
      in
      (* each check's fastest time over the passes: the host's speed
         varies by a third from second to second, and a slow spell only
         ever adds time *)
      let per_check = Array.make (Array.length checks) [] in
      List.iter (fun s -> per_check.(s.index) <- s.dt :: per_check.(s.index)) !plain;
      let best = Array.to_list (Array.map (List.fold_left Float.min infinity) per_check) in
      end_to_end ~setup_s:(Report.median !setup_times) ~dts:best ~decided
        ~attempted:(List.length !plain) ~peak_rss_mb
    else begin
      let values = Hashtbl.create 32 in
      let nt = float_of_int (List.length !traced) in
      let np = float_of_int (List.length !plain) in
      let layers = ref 0. in
      Hashtbl.iter
        (fun name t ->
          if name <> "check" then begin
            layers := !layers +. t;
            Hashtbl.replace values (name ^ ".s") (t /. nt)
          end)
        (Trace.self_times ());
      Hashtbl.iter (fun name v -> Hashtbl.replace values name (v /. nt)) Trace.counters;
      let gc_sum f = List.fold_left (fun acc d -> acc +. f d) 0. !gc in
      Hashtbl.replace values "gc.minor_words_per_check"
        (gc_sum (fun d -> d.Stats.minor_words) /. np);
      Hashtbl.replace values "gc.major_collections"
        (gc_sum (fun d -> float_of_int d.Stats.major_collections) /. np);
      let untraced = Report.mean dts in
      Hashtbl.replace values "trace.coverage" (!layers /. nt /. untraced);
      Hashtbl.replace values "trace.overhead"
        ((Report.mean (List.map (fun s -> s.dt) !traced) /. untraced) -. 1.);
      Report.per_layer values
    end
  in
  finish ~correct:(failed = 0) ~attempted:(List.length samples) ~failed ~problems
    metrics

let edit_stream ~rlcheckd ~seed ~seconds ~trace =
  let r =
    Edit_stream.run ~exe:rlcheckd ~dir:out_dir ~seed ~seconds ~min_checks ~trace
      ~tiny:false
  in
  let periods = r.Edit_stream.periods in
  let requests = List.concat_map Array.to_list periods in
  let rtts = List.map (fun (rtt, _, _) -> rtt) requests in
  let failed = List.length (List.filter (fun (_, _, ok) -> not ok) requests) in
  let attempted = List.length requests in
  let metrics =
    if not trace then
      let limit = limit_s "edit_stream" in
      let decided =
        List.length (List.filter (fun (rtt, _, ok) -> ok && rtt <= limit) requests)
      in
      (* each request's fastest round trip over the periods, as each
         in-process check's fastest over the passes *)
      let best =
        List.fold_left
          (Array.map2 (fun b (rtt, _, _) -> Float.min b rtt))
          (Array.make (Array.length (List.hd periods)) infinity)
          periods
      in
      end_to_end ~setup_s:r.Edit_stream.setup_s ~dts:(Array.to_list best) ~decided
        ~attempted ~peak_rss_mb:r.Edit_stream.peak_rss_mb
    else begin
      (* The layers inside the daemon cannot be timed from outside. The
         coverage is the share of the round trip that the daemon's own
         elapsed_s accounts for. The client does nothing between a
         request's write and its reply, traced or not, so the overhead
         is 0. *)
      let values = Hashtbl.create 32 in
      List.iter (fun (k, v) -> Hashtbl.replace values k v) r.Edit_stream.values;
      let request = Report.mean (List.map (fun (_, elapsed, _) -> elapsed) requests) in
      let rtt = Report.mean rtts in
      Hashtbl.replace values "service.request.s" request;
      Hashtbl.replace values "service.wire.s" (rtt -. request);
      Hashtbl.replace values "trace.coverage" (request /. rtt);
      Hashtbl.replace values "trace.overhead" 0.;
      Trace.write
        (Filename.concat out_dir (Printf.sprintf "spans-edit_stream-%d.jsonl" seed))
        ~origin:0.;
      Report.per_layer values
    end
  in
  finish
    ~correct:(failed = 0 && r.Edit_stream.problems = [])
    ~attempted ~failed ~problems:r.Edit_stream.problems metrics

let usage msg =
  prerr_endline ("e2ebench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --rlcheckd PATH\n\
    \       main.exe selftest --rlcheckd PATH";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  let args = List.tl (Array.to_list Sys.argv) in
  let selftest, args =
    match args with "selftest" :: rest -> (true, rest) | _ -> (false, args)
  in
  let rec options acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        options ((key, value) :: acc) rest
    | [] -> acc
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  let opts = options [] args in
  let get key =
    match List.assoc_opt key opts with Some v -> v | None -> usage ("missing " ^ key)
  in
  let number key parse =
    match parse (get key) with Some v -> v | None -> usage ("bad value for " ^ key)
  in
  let rlcheckd = get "--rlcheckd" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  if selftest then Selftest.run ~rlcheckd ~dir:out_dir
  else
    let seed = number "--seed" int_of_string_opt in
    let seconds = number "--seconds" float_of_string_opt in
    let trace =
      match get "--trace" with
      | "0" -> false
      | "1" -> true
      | _ -> usage "--trace takes 0 or 1"
    in
    match get "--workload" with
    | "edit_stream" -> edit_stream ~rlcheckd ~seed ~seconds ~trace
    | w when List.mem w Inputs.workloads -> in_process ~workload:w ~seed ~seconds ~trace
    | w -> usage ("unknown workload " ^ w)
