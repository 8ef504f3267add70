(* The benchmark's own tests (main.exe selftest): percentiles, the result
   line's JSON, seed determinism of the inputs, and agreement of the
   traced calls, the daemon and the references with Request.run on tiny
   seeds of every workload. *)

module J = Rl_service.Jsonx

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    prerr_endline ("selftest: FAILED: " ^ what)
  end

let percentile () =
  let p = Report.percentile (List.init 100 (fun i -> float_of_int (100 - i))) in
  expect "p50 of 1..100 is 50.5" (p 0.5 = 50.5);
  expect "p90 of 1..100 is 90.1" (Float.abs (p 0.9 -. 90.1) < 1e-9);
  expect "p0 and p100 are the extremes" (p 0. = 1. && p 1. = 100.);
  expect "one sample is every percentile" (Report.percentile [ 3. ] 0.9 = 3.)

let report_json () =
  let v =
    Report.result ~correct:true ~attempted:1234 ~failed:0
      [
        Report.metric "verdict_p50_ms" 1.2034567890123 "ms";
        Report.metric "setup_s" 0.000123456789012345 "s";
        Report.metric "checks_per_s" 12345.678901234567 "1/s";
        Report.metric "decided_share" 1. "ratio";
      ]
  in
  expect "the result line round-trips through Jsonx"
    (J.parse (Report.to_string v) = Ok v)

let seeded_inputs () =
  List.iter
    (fun w ->
      let make seed = Inputs.make w ~seed in
      expect (w ^ ": one seed gives byte-identical inputs") (make 11 = make 11);
      expect (w ^ ": another seed gives other inputs") (make 11 <> make 12))
    Inputs.workloads;
  let session seed = Edit_stream.transcript ~tiny:false ~seed in
  expect "edit_stream: one seed gives a byte-identical session"
    (session 11 = session 11);
  expect "edit_stream: another seed gives another session"
    (session 11 <> session 12)

let agreement ~rlcheckd ~dir =
  List.iter
    (fun w ->
      let checks = Inputs.make ~tiny:true w ~seed:3 in
      let outcomes =
        Array.map
          (fun c ->
            Rl_engine.Simcache.clear ();
            Pipeline.run c)
          checks
      in
      Array.iteri
        (fun i c ->
          Rl_engine.Simcache.clear ();
          expect
            (Printf.sprintf "%s/%s: the traced calls agree with the checker" w
               c.Inputs.name)
            (Pipeline.traced c = outcomes.(i)))
        checks;
      Array.iteri
        (fun i wrong ->
          Option.iter
            (fun msg ->
              expect (Printf.sprintf "%s/%s: %s" w checks.(i).Inputs.name msg) false)
            wrong)
        (Reference.check checks outcomes))
    Inputs.workloads;
  let r =
    Edit_stream.run ~exe:rlcheckd ~dir ~seed:3 ~seconds:0. ~min_checks:150
      ~trace:false ~tiny:true
  in
  List.iter (fun p -> expect ("edit_stream: " ^ p) false) r.Edit_stream.problems;
  expect "edit_stream: every reply equals Request.run from scratch"
    (List.for_all (Array.for_all (fun (_, _, ok) -> ok)) r.Edit_stream.periods)

let run ~rlcheckd ~dir =
  percentile ();
  report_json ();
  seeded_inputs ();
  agreement ~rlcheckd ~dir;
  if !failures = 0 then begin
    print_endline "selftest: ok";
    exit 0
  end
  else exit 1
