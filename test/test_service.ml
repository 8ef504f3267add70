(* The service layer: the JSON codec, the shared request pipeline, the
   supervisor's crash isolation and deadlines, the bounded caches — and
   the chaos leg: under injected faults the daemon-side machinery must
   produce the same verdicts as the fault-free run (for the faults that
   are transparent by design) or typed, contract-conforming errors (for
   the faults that are not). *)

module J = Rl_service.Jsonx
module Request = Rl_service.Request
module Supervisor = Rl_service.Supervisor
module Budget = Rl_engine.Budget
module Error = Rl_engine.Error
module Fault = Rl_engine.Fault
module Lru = Rl_engine.Lru

(* every test that arms faults must disarm them on every exit path — the
   schedule is global state shared by the whole suite *)
let with_faults ?seed rates f =
  Fault.configure ?seed rates;
  Fun.protect ~finally:Fault.reset f

(* --- jsonx --- *)

let rec json_eq a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Num x, J.Num y -> Float.equal x y
  | J.Str x, J.Str y -> String.equal x y
  | J.Arr x, J.Arr y ->
      List.length x = List.length y && List.for_all2 json_eq x y
  | J.Obj x, J.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && json_eq v v')
           x y
  | _ -> false

let test_jsonx_roundtrip () =
  let samples =
    [
      J.Null;
      J.Bool true;
      J.Num 0.;
      J.Num (-42.);
      J.Num 3.5;
      J.Str "";
      J.Str "hello \"world\"\n\t\\";
      J.Arr [];
      J.Arr [ J.Num 1.; J.Str "two"; J.Null ];
      J.Obj [];
      J.Obj
        [
          ("op", J.Str "check");
          ("jobs", J.Arr [ J.Obj [ ("kind", J.Str "rl") ] ]);
          ("deadline_s", J.Num 1.5);
          ("flag", J.Bool false);
        ];
    ]
  in
  List.iter
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trips %s" (J.to_string v))
            true (json_eq v v')
      | Error m -> Alcotest.failf "failed to re-parse %s: %s" (J.to_string v) m)
    samples

let test_jsonx_parse_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{} x" ]

let test_jsonx_accessors () =
  let doc =
    Result.get_ok
      (J.parse
         {|{"s": "x", "n": 7, "f": 1.5, "b": true, "a": [1], "o": {"k": 0}, "z": null}|})
  in
  Alcotest.(check (option string)) "str" (Some "x") (J.str_member "s" doc);
  Alcotest.(check (option int)) "int" (Some 7) (J.int_member "n" doc);
  Alcotest.(check (option (float 1e-9))) "num" (Some 1.5) (J.num_member "f" doc);
  Alcotest.(check (option bool)) "bool" (Some true) (J.bool_member "b" doc);
  Alcotest.(check int) "arr" 1 (List.length (Option.get (J.arr_member "a" doc)));
  Alcotest.(check bool) "member" true (J.member "o" doc <> None);
  Alcotest.(check (option string)) "missing member" None
    (J.str_member "nope" doc);
  Alcotest.(check (option string)) "type mismatch" None (J.str_member "n" doc);
  Alcotest.(check bool) "escapes decode" true
    (J.parse {|"aA\n"|} = Ok (J.Str "aA\n"))

let test_jsonx_unicode_escapes () =
  let decodes src expect =
    match J.parse src with
    | Ok (J.Str got) ->
        Alcotest.(check string)
          (Printf.sprintf "decodes %s" (String.escaped src))
          expect got
    | Ok _ -> Alcotest.failf "%s parsed to a non-string" (String.escaped src)
    | Error m -> Alcotest.failf "%s rejected: %s" (String.escaped src) m
  in
  decodes {|"\u0041"|} "A";
  (* é, the first two-byte code point the old decoder mangled *)
  decodes {|"\u00e9"|} "\xc3\xa9";
  (* € — three UTF-8 bytes, uppercase hex digits *)
  decodes {|"\u20AC"|} "\xe2\x82\xac";
  (* 😀 — astral plane, a surrogate pair *)
  decodes {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  (* U+FFFD, near the top of the BMP *)
  decodes {|"\ufffd"|} "\xef\xbf\xbd";
  List.iter
    (fun src ->
      match J.parse src with
      | Ok _ -> Alcotest.failf "accepted %s" (String.escaped src)
      | Error _ -> ())
    [
      {|"\ud800"|} (* lone high surrogate *);
      {|"\udc00"|} (* lone low surrogate *);
      {|"\ud83dx"|} (* high surrogate not followed by an escape *);
      {|"\ud83dA"|} (* high surrogate paired with a non-surrogate *);
      {|"\u12"|} (* truncated *);
      {|"\u12g4"|} (* non-hex digit *);
      {|"\u0_41"|} (* int_of_string would take this; the parser must not *);
    ]

(* valid Unicode scalar values, biased toward the BMP, excluding the
   C0 controls the printer escapes numerically *)
let gen_unicode_string =
  QCheck2.Gen.(
    let scalar =
      let* astral = bool in
      if astral then 0x10000 -- 0x10FFFF
      else oneof [ 0x20 -- 0xD7FF; 0xE000 -- 0xFFFF ]
    in
    let* cps = list_size (0 -- 12) scalar in
    let b = Buffer.create 48 in
    List.iter (fun cp -> Buffer.add_utf_8_uchar b (Uchar.of_int cp)) cps;
    return (cps, Buffer.contents b))

let prop_jsonx_unicode_roundtrip =
  QCheck2.Test.make ~name:"jsonx: unicode strings round-trip byte-identically"
    ~count:200 gen_unicode_string (fun (_, s) ->
      J.parse (J.to_string (J.Str s)) = Ok (J.Str s))

(* the fully-escaped spelling of the same string (every code point as
   \uXXXX, astral ones as surrogate pairs) must decode to the same
   UTF-8 bytes the raw spelling round-trips to *)
let prop_jsonx_escape_decode =
  QCheck2.Test.make ~name:"jsonx: \\uXXXX spellings decode to UTF-8"
    ~count:200 gen_unicode_string (fun (cps, s) ->
      let b = Buffer.create 64 in
      Buffer.add_char b '"';
      List.iter
        (fun cp ->
          if cp < 0x10000 then Buffer.add_string b (Printf.sprintf "\\u%04x" cp)
          else begin
            let u = cp - 0x10000 in
            Buffer.add_string b
              (Printf.sprintf "\\u%04x\\u%04x"
                 (0xD800 lor (u lsr 10))
                 (0xDC00 lor (u land 0x3FF)))
          end)
        cps;
      Buffer.add_char b '"';
      J.parse (Buffer.contents b) = Ok (J.Str s))

(* --- lru --- *)

let test_lru_eviction () =
  let t = Lru.create ~capacity:2 () in
  Lru.put t "a" 1;
  Lru.put t "b" 2;
  Alcotest.(check (option int)) "find bumps recency" (Some 1) (Lru.find t "a");
  Lru.put t "c" 3;
  (* "b" was least recently used: the bump on "a" protected it *)
  Alcotest.(check (option int)) "lru entry evicted" None (Lru.find t "b");
  Alcotest.(check (option int)) "bumped entry survives" (Some 1)
    (Lru.find t "a");
  Alcotest.(check int) "evictions counted" 1 (Lru.evictions t);
  Alcotest.(check (list string)) "keys MRU-first" [ "a"; "c" ] (Lru.keys t);
  Lru.put t "a" 10;
  Alcotest.(check (option int)) "put replaces in place" (Some 10)
    (Lru.find t "a");
  Alcotest.(check int) "replace is not an eviction" 1 (Lru.evictions t);
  Lru.set_capacity t 1;
  Alcotest.(check int) "set_capacity trims to the new bound" 1 (Lru.length t);
  Alcotest.(check (list string)) "most recent survives the trim" [ "a" ]
    (Lru.keys t);
  (* one eviction from the capacity-2 overflow, one from the trim *)
  Alcotest.(check int) "trim evictions counted" 2 (Lru.evictions t)

let test_lru_unbounded () =
  let t = Lru.create ~capacity:0 () in
  for i = 1 to 1000 do
    Lru.put t i (i * i)
  done;
  Alcotest.(check int) "capacity <= 0 never evicts" 1000 (Lru.length t);
  Alcotest.(check int) "no evictions" 0 (Lru.evictions t);
  Alcotest.(check (option int)) "old entries live" (Some 1) (Lru.find t 1)

(* --- fault schedules --- *)

let test_fault_determinism () =
  let record () =
    with_faults ~seed:5 [ (Fault.Cache_miss_storm, 0.5) ] (fun () ->
        List.init 200 (fun _ -> Fault.should_fire Fault.Cache_miss_storm))
  in
  let a = record () and b = record () in
  Alcotest.(check (list bool)) "same seed, same schedule" a b;
  Alcotest.(check bool) "a 0.5 rate fires sometimes" true (List.mem true a);
  Alcotest.(check bool) "a 0.5 rate spares sometimes" true (List.mem false a);
  let c =
    with_faults ~seed:6 [ (Fault.Cache_miss_storm, 0.5) ] (fun () ->
        List.init 200 (fun _ -> Fault.should_fire Fault.Cache_miss_storm))
  in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_fault_isolation_and_counters () =
  with_faults ~seed:1
    [ (Fault.Malformed_input, 1.0) ]
    (fun () ->
      Alcotest.(check bool) "armed" true (Fault.armed ());
      Alcotest.(check bool) "unconfigured points never fire" false
        (Fault.should_fire Fault.Deadline_expiry);
      Alcotest.(check bool) "configured point fires at rate 1" true
        (Fault.should_fire Fault.Malformed_input);
      (match Fault.fire Fault.Malformed_input with
      | () -> Alcotest.fail "fire at rate 1.0 must raise"
      | exception Fault.Injected p ->
          Alcotest.(check string) "the injected point" "malformed_input"
            (Fault.name p));
      Alcotest.(check int) "fired counter" 2 (Fault.fired Fault.Malformed_input);
      Alcotest.(check int) "probe counter" 2
        (Fault.probes Fault.Malformed_input));
  Alcotest.(check bool) "reset disarms" false (Fault.armed ())

let test_fault_env_rejects_garbage () =
  List.iter
    (fun v ->
      match Fault.configure [ (Fault.Cache_miss_storm, float_of_string v) ] with
      | () -> Alcotest.failf "accepted rate %s" v
      | exception Invalid_argument _ -> ()
      | exception Failure _ -> ())
    [ "1.5"; "-0.1"; "nan" ];
  Fault.reset ()

(* --- the request pipeline --- *)

(* the server.ts fixture, inline: rl holds for []<>result *)
let server = "initial 0\n0 request 1\n1 result 0\n1 reject 0\n"

(* after the first reject, results are gone forever: rl fails *)
let faulty =
  "initial 0\n0 request 1\n1 result 0\n1 reject 2\n2 request 3\n3 reject 2\n"

(* no cycle at all: no infinite behavior, the RL103 lint Error *)
let doomed = "initial 0\n0 a 1\n"

let inline name text = Request.Inline { name; text }

let run ?cache job = Request.run ?cache job

let reply_repr (r : Request.reply) =
  ( (match r.Request.status with
    | Request.Holds -> "holds"
    | Request.Fails -> "fails"
    | Request.Blocked -> "blocked"
    | Request.Failed e -> "error: " ^ Error.to_string e),
    r.Request.message,
    r.Request.witness,
    Request.exit_code r )

let test_request_holds () =
  let r = run (Request.job Request.Rl (inline "server" server) "[]<>result") in
  (match r.Request.status with
  | Request.Holds -> ()
  | _ -> Alcotest.fail "expected Holds");
  Alcotest.(check int) "exit 0" 0 (Request.exit_code r);
  Alcotest.(check string) "the CLI verdict line"
    "RELATIVE LIVENESS: every prefix extends to a behavior satisfying \
     []<>result"
    r.Request.message;
  Alcotest.(check bool) "states were counted" true (r.Request.states > 0)

let test_request_fails_with_witness () =
  let r = run (Request.job Request.Rl (inline "faulty" faulty) "[]<>result") in
  (match r.Request.status with
  | Request.Fails -> ()
  | _ -> Alcotest.fail "expected Fails");
  Alcotest.(check int) "exit 1" 1 (Request.exit_code r);
  Alcotest.(check bool) "witness present" true (r.Request.witness <> None);
  Alcotest.(check bool) "message names the doomed prefix" true
    (String.length r.Request.message > 0)

let test_request_blocked_by_lint () =
  let r = run (Request.job Request.Rl (inline "doomed" doomed) "[]<>a") in
  (match r.Request.status with
  | Request.Blocked -> ()
  | _ -> Alcotest.fail "expected Blocked");
  Alcotest.(check int) "exit 2" 2 (Request.exit_code r);
  Alcotest.(check bool) "carries the lint diagnostics" true
    (List.exists
       (fun d -> d.Rl_analysis.Diagnostic.code = "RL103")
       r.Request.diagnostics);
  let is_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  Alcotest.(check bool) "carries the refusal line" true
    (match r.Request.blocked_summary with
    | Some s -> is_prefix "pre-flight lint failed" s
    | None -> false);
  (* --no-lint proceeds past the Error (and the verdict is the vacuous
     Holds the diagnostic warned about) *)
  let r' =
    run (Request.job ~no_lint:true Request.Rl (inline "doomed" doomed) "[]<>a")
  in
  match r'.Request.status with
  | Request.Holds -> ()
  | _ -> Alcotest.fail "--no-lint must proceed to the vacuous verdict"

let test_request_typed_errors () =
  let bad_model =
    run (Request.job Request.Sat (inline "junk" "not a model\n") "[]<>a")
  in
  (match bad_model.Request.status with
  | Request.Failed (Error.Parse_error _) -> ()
  | _ -> Alcotest.fail "malformed model must be a typed Parse_error");
  Alcotest.(check int) "malformed model exits 2" 2
    (Request.exit_code bad_model);
  let bad_formula =
    run (Request.job Request.Sat (inline "server" server) "[]<>(")
  in
  (match bad_formula.Request.status with
  | Request.Failed (Error.Parse_error _) -> ()
  | _ -> Alcotest.fail "malformed formula must be a typed Parse_error");
  let missing =
    run (Request.job Request.Sat (Request.File "no/such/file.ts") "[]<>a")
  in
  (match missing.Request.status with
  | Request.Failed _ -> ()
  | _ -> Alcotest.fail "missing file must be a typed error");
  Alcotest.(check int) "missing file exits 2" 2 (Request.exit_code missing)

let test_request_budget_exhaustion () =
  let r =
    run
      (Request.job ~max_states:1 Request.Rl (inline "faulty" faulty)
         "[]<>result")
  in
  (match r.Request.status with
  | Request.Failed (Error.Budget_exhausted _) -> ()
  | _ -> Alcotest.fail "expected Budget_exhausted");
  Alcotest.(check int) "budget exhaustion exits 4" 4 (Request.exit_code r)

let test_request_model_cache () =
  let dir = Filename.temp_file "rl_service_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "m.ts" in
  let oc = open_out path in
  output_string oc server;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Unix.rmdir dir)
    (fun () ->
      let cache = Request.cache ~capacity:8 () in
      let job = Request.job Request.Rl (Request.File path) "[]<>result" in
      let a = run ~cache job in
      let b = run ~cache job in
      let s = Request.stats cache in
      Alcotest.(check int) "first load misses" 1 s.Request.parse.misses;
      Alcotest.(check int) "second load hits" 1 s.Request.parse.hits;
      Alcotest.(check int) "one parse, one lint report, one verdict" 3
        s.Request.entries;
      Alcotest.(check bool) "verdicts identical across the cache" true
        (a.Request.status = b.Request.status
        && a.Request.message = b.Request.message);
      Alcotest.(check bool) "diagnostics re-attached on the hit" true
        (List.length a.Request.diagnostics
        = List.length b.Request.diagnostics))

(* two files with equal text: the cached parse of one must not hand its
   file name to the other's diagnostics *)
let test_request_model_cache_path () =
  let dir = Filename.temp_file "rl_service_cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path name =
    let p = Filename.concat dir name in
    Out_channel.with_open_text p (fun oc -> output_string oc "0 a 1\n1 b 0\n");
    p
  in
  let a_path = path "a.ts" and b_path = path "b.ts" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove a_path;
      Sys.remove b_path;
      Unix.rmdir dir)
    (fun () ->
      let cache = Request.cache ~capacity:8 () in
      let files p =
        let r = run ~cache (Request.job Request.Rl (Request.File p) "[]<>a") in
        List.map (fun d -> d.Rl_analysis.Diagnostic.file) r.Request.diagnostics
      in
      let a_files = files a_path and b_files = files b_path in
      Alcotest.(check bool) "a.ts has diagnostics" true (a_files <> []);
      Alcotest.(check (list (option string))) "a.ts diagnostics name a.ts"
        (List.map (fun _ -> Some a_path) a_files)
        a_files;
      Alcotest.(check (list (option string))) "b.ts diagnostics name b.ts"
        (List.map (fun _ -> Some b_path) a_files)
        b_files)

(* --- incremental re-check --- *)

let test_incremental_memo_hit () =
  let cache = Request.cache ~capacity:8 () in
  let job = Request.job Request.Rl (inline "srv" server) "[]<>result" in
  let a = run ~cache job in
  let b = run ~cache job in
  let s = Request.stats cache in
  Alcotest.(check int) "one real decide" 1 s.Request.decides;
  Alcotest.(check int) "one memo hit" 1 s.Request.decide.hits;
  Alcotest.(check bool) "replayed reply is byte-identical" true
    (reply_repr a = reply_repr b && a.Request.states = b.Request.states)

let test_incremental_unreachable_edit () =
  let cache = Request.cache ~capacity:8 () in
  let j text =
    Request.job ~no_lint:true Request.Rl (inline "pad" text) "[]<>result"
  in
  let a = run ~cache (j server) in
  (* the edit adds a component unreachable from the initial state; the
     trimmed system the decide consumes is untouched *)
  let b = run ~cache (j (server ^ "7 request 8\n8 result 7\n8 reject 7\n")) in
  let s = Request.stats cache in
  Alcotest.(check int) "the decide was skipped" 1 s.Request.decide.hits;
  Alcotest.(check int) "one real decide" 1 s.Request.decides;
  Alcotest.(check bool) "verdict replayed exactly" true
    (reply_repr a = reply_repr b)

(* a reachable edit changes the decide key: the old version's verdict
   can never be hit again, and the new one is decided for real *)
let test_incremental_invalidation () =
  let cache = Request.cache ~capacity:8 () in
  let base =
    "initial 0\n0 a 1\n1 b 2\n2 c 0\n2 a 1\n1 a 1\n0 b 0\n2 b 2\n0 c 2\n"
  in
  let edit =
    "initial 0\n0 a 1\n1 b 2\n2 c 0\n2 a 1\n1 a 1\n0 b 0\n2 b 2\n0 c 1\n"
  in
  let j text = Request.job ~no_lint:true Request.Rl (inline "ed" text) "[]<>a" in
  ignore (run ~cache (j base));
  ignore (run ~cache (j edit));
  let s = Request.stats cache in
  Alcotest.(check int) "no memo hit across a reachable edit" 0
    s.Request.decide.hits;
  Alcotest.(check int) "both versions decided for real" 2 s.Request.decides

let test_incremental_timeout_bypasses_memo () =
  let cache = Request.cache ~capacity:8 () in
  let job =
    Request.job ~timeout:60.0 Request.Rl (inline "wall" server) "[]<>result"
  in
  let a = run ~cache job in
  let b = run ~cache job in
  let s = Request.stats cache in
  Alcotest.(check int) "wall-clock jobs never memo-hit" 0
    s.Request.decide.hits;
  Alcotest.(check int) "both runs decide" 2 s.Request.decides;
  Alcotest.(check bool) "verdicts still agree" true (reply_repr a = reply_repr b)

let test_lint_memo_hit () =
  let cache = Request.cache ~capacity:8 () in
  let job = Request.job Request.Rl (inline "srv" server) "[]<>result" in
  let a = run ~cache job in
  let b = run ~cache job in
  let s = Request.stats cache in
  Alcotest.(check int) "first run misses the lint memo" 1 s.Request.lint.misses;
  Alcotest.(check int) "resubmission hits it" 1 s.Request.lint.hits;
  Alcotest.(check bool) "diagnostics replayed identically" true
    (a.Request.diagnostics = b.Request.diagnostics)

let test_lint_memo_invalidation () =
  let cache = Request.cache ~capacity:8 () in
  let j text = Request.job Request.Rl (inline "g" text) "[]<>a" in
  ignore (run ~cache (j "initial 0\n0 a 1\n1 b 0\n"));
  (* an initial-state change rewrites the whole lint key: the previous
     version's report can never be requested again *)
  ignore (run ~cache (j "initial 1\n0 a 1\n1 b 0\n"));
  let s = Request.stats cache in
  Alcotest.(check int) "no lint hit across the edit" 0 s.Request.lint.hits;
  Alcotest.(check int) "both versions linted for real" 2 s.Request.lint.misses

let test_inline_parse_hit () =
  let cache = Request.cache ~capacity:8 () in
  let job = Request.job Request.Rl (inline "srv" server) "[]<>result" in
  let a = run ~cache job in
  let b = run ~cache job in
  let s = Request.stats cache in
  Alcotest.(check int) "first parse misses" 1 s.Request.parse.misses;
  Alcotest.(check int) "identical inline resubmission hits" 1
    s.Request.parse.hits;
  Alcotest.(check bool) "replies identical across the hit" true
    (reply_repr a = reply_repr b)

(* one unit of capacity is one model's parse, lint report and verdict *)
let test_cache_bounded () =
  let cache = Request.cache ~capacity:4 () in
  for i = 1 to 50 do
    let text = Printf.sprintf "%s1 s%d 1\n" server i in
    ignore
      (run ~cache
         (Request.job Request.Rl (inline (Printf.sprintf "m%d" i) text)
            "[]<>result"))
  done;
  let s = Request.stats cache in
  Alcotest.(check bool) "at most 3 * capacity entries" true
    (s.Request.entries <= 12);
  Alcotest.(check bool) "distinct models evict" true (s.Request.evictions > 0)

(* --- supervisor --- *)

let test_supervisor_completes () =
  match Supervisor.supervise (fun () -> 42) with
  | Supervisor.Completed n -> Alcotest.(check int) "value" 42 n
  | _ -> Alcotest.fail "expected Completed"

let test_supervisor_completes_under_deadline () =
  match Supervisor.supervise ~deadline_s:5.0 (fun () -> 42) with
  | Supervisor.Completed n -> Alcotest.(check int) "value" 42 n
  | _ -> Alcotest.fail "expected Completed"

let test_supervisor_traps_crashes () =
  (match Supervisor.supervise (fun () -> failwith "boom") with
  | Supervisor.Crashed (Error.Internal m) ->
      Alcotest.(check bool) "the exception is in the message" true
        (String.length m > 0)
  | _ -> Alcotest.fail "expected Crashed Internal");
  match
    Supervisor.supervise ~deadline_s:5.0 (fun () ->
        raise (Budget.Exhausted
                 {
                   Budget.resource = `States;
                   phase = "test";
                   states_explored = 9;
                   max_states = Some 9;
                 }))
  with
  | Supervisor.Crashed (Error.Budget_exhausted _) -> ()
  | _ -> Alcotest.fail "known exceptions keep their typed mapping"

let test_supervisor_deadline_abandons () =
  let budget = Budget.create ~max_states:1_000_000 () in
  let t0 = Unix.gettimeofday () in
  let release = Atomic.make false in
  (match
     Supervisor.supervise ~deadline_s:0.05 ~budget (fun () ->
         while not (Atomic.get release) do
           Thread.yield ()
         done;
         0)
   with
  | Supervisor.Deadline _ -> ()
  | _ -> Alcotest.fail "expected Deadline");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "replied promptly, not hung (%.3fs)" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check bool) "the abandoned worker is counted" true
    (Supervisor.zombies () >= 1);
  Alcotest.(check bool) "the budget was cancelled for cooperative unwind"
    true (Budget.cancelled budget);
  (* let the zombie unwind and confirm the count drains *)
  Atomic.set release true;
  let rec drain n =
    if Supervisor.zombies () > 0 && n > 0 then begin
      Thread.delay 0.01;
      drain (n - 1)
    end
  in
  drain 200;
  Alcotest.(check int) "zombie count drains once the body unwinds" 0
    (Supervisor.zombies ())

let test_supervisor_injected_expiry () =
  with_faults ~seed:2
    [ (Fault.Deadline_expiry, 1.0) ]
    (fun () ->
      let t0 = Unix.gettimeofday () in
      match Supervisor.supervise ~deadline_s:60.0 (fun () -> 1) with
      | Supervisor.Deadline _ ->
          Alcotest.(check bool) "expired immediately, not after 60s" true
            (Unix.gettimeofday () -. t0 < 5.0)
      | _ -> Alcotest.fail "injected expiry must take the Deadline path")

(* --- the daemon in process: wire protocol, batches, survival --- *)

module Daemon = Rl_service.Daemon

let test_daemon_wire_protocol () =
  let dir = Filename.temp_file "rld_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let config =
    { (Daemon.default_config ~socket_path:sock) with Daemon.quiet = true }
  in
  let server = Thread.create Daemon.serve config in
  let rec await n =
    if n = 0 then Alcotest.fail "daemon did not come up"
    else if not (Sys.file_exists sock) then begin
      Thread.delay 0.01;
      await (n - 1)
    end
  in
  await 1000;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let ask line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Result.get_ok (J.parse (input_line ic))
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Thread.join server;
      if Sys.file_exists sock then Sys.remove sock;
      Unix.rmdir dir)
    (fun () ->
      (* garbage and unknown ops get error replies on a live connection *)
      let r = ask "this is not json" in
      Alcotest.(check bool) "garbage line -> ok:false" true
        (J.bool_member "ok" r = Some false);
      let r = ask {|{"op":"nonsense"}|} in
      Alcotest.(check bool) "unknown op -> ok:false" true
        (J.bool_member "ok" r = Some false);
      let r = ask {|{"op":"check"}|} in
      Alcotest.(check bool) "check without jobs -> ok:false" true
        (J.bool_member "ok" r = Some false);
      (* the same connection still serves a real batch: one inline model
         that holds, one that cannot parse — per-job statuses and exit
         codes, the batch itself fine *)
      let r =
        ask
          ({|{"op":"check","id":"b1","jobs":[|}
          ^ {|{"kind":"rl","name":"m","model":"initial 0\n0 request 1\n1 result 0\n1 reject 0\n","formula":"[]<>result"},|}
          ^ {|{"kind":"sat","name":"bad","model":"junk","formula":"[]<>a"}]}|})
      in
      Alcotest.(check (option string)) "id echoed" (Some "b1")
        (J.str_member "id" r);
      Alcotest.(check bool) "batch ok" true (J.bool_member "ok" r = Some true);
      Alcotest.(check bool) "not partial" true
        (J.bool_member "partial" r = Some false);
      (match J.arr_member "results" r with
      | Some [ good; bad ] ->
          Alcotest.(check (option string)) "job 0 holds" (Some "holds")
            (J.str_member "status" good);
          Alcotest.(check (option int)) "job 0 exit 0" (Some 0)
            (J.int_member "exit_code" good);
          Alcotest.(check (option string)) "job 1 error" (Some "error")
            (J.str_member "status" bad);
          Alcotest.(check (option int)) "job 1 exit 2" (Some 2)
            (J.int_member "exit_code" bad)
      | _ -> Alcotest.fail "expected two results");
      (* ping and stats on the same connection *)
      let r = ask {|{"op":"ping"}|} in
      Alcotest.(check bool) "pong" true (J.bool_member "pong" r = Some true);
      let r = ask {|{"op":"stats"}|} in
      let stats = Option.get (J.member "stats" r) in
      Alcotest.(check bool) "uptime reported" true
        (J.num_member "uptime_s" stats <> None);
      Alcotest.(check (option int)) "bad requests counted" (Some 3)
        (J.int_member "bad_requests" stats);
      (* shutdown replies, then the daemon exits and removes the socket *)
      let r = ask {|{"op":"shutdown"}|} in
      Alcotest.(check bool) "stopping" true
        (J.bool_member "stopping" r = Some true));
  Alcotest.(check bool) "socket file removed on exit" false
    (Sys.file_exists sock)

(* --- the connection supervisor: concurrent clients, request ids --- *)

(* an in-process daemon on a fresh socket; [f] must leave a shut-down
   daemon behind (send the shutdown itself) or the join would hang *)
let with_daemon ?(config = fun c -> c) f =
  let dir = Filename.temp_file "rld_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    config { (Daemon.default_config ~socket_path:sock) with Daemon.quiet = true }
  in
  let server = Thread.create Daemon.serve cfg in
  let rec await n =
    if n = 0 then Alcotest.fail "daemon did not come up"
    else if not (Sys.file_exists sock) then begin
      Thread.delay 0.01;
      await (n - 1)
    end
  in
  await 1000;
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      if Sys.file_exists sock then Sys.remove sock;
      Unix.rmdir dir)
    (fun () -> f sock)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (* a regression to the serial accept loop must fail the test, not
     hang it: give every read a generous timeout *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let recv_doc ic = Result.get_ok (J.parse (input_line ic))

let ask_conn ic oc line =
  send_line oc line;
  recv_doc ic

let close_conn fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A fresh connection can be refused while an earlier one's handler is
   still exiting: the refusal line then EOF, or — when the refusal closes
   the socket before our request is written — a broken pipe or reset.
   [ask_fresh] answers [None] for those, meaning "slot not free yet". *)
let ask_fresh sock line =
  let fd, ic, oc = connect sock in
  Fun.protect
    ~finally:(fun () -> close_conn fd)
    (fun () ->
      match ask_conn ic oc line with
      | r -> Some r
      | exception (End_of_file | Unix.Unix_error ((EPIPE | ECONNRESET), _, _))
        ->
          None
      (* channels report EPIPE/ECONNRESET as Sys_error with strerror's text *)
      | exception Sys_error m
        when m = "Broken pipe" || m = "Connection reset by peer" ->
          None)

let shutdown_daemon sock =
  let rec go n =
    match ask_fresh sock {|{"op":"shutdown"}|} with
    | Some r when J.bool_member "stopping" r = Some true -> true
    | _ when n > 1 ->
        Thread.delay 0.02;
        go (n - 1)
    | _ -> false
  in
  Alcotest.(check bool) "shutdown acknowledged" true (go 200)

let job_json ?(kind = "rl") ~name text formula =
  J.Obj
    [
      ("kind", J.Str kind);
      ("name", J.Str name);
      ("model", J.Str text);
      ("formula", J.Str formula);
    ]

let check_json ~id jobs =
  J.to_string
    (J.Obj [ ("op", J.Str "check"); ("id", J.Str id); ("jobs", J.Arr jobs) ])

(* a batch of distinct models, so no decide can short-circuit through
   the outcome memo and the batch stays long enough to race against *)
let big_batch ~tag n =
  List.init n (fun i ->
      job_json ~name:(Printf.sprintf "%s-%d" tag i) faulty "[]<>result")

let test_daemon_concurrent_ping () =
  with_daemon (fun sock ->
      let a_fd, a_ic, a_oc = connect sock in
      let b_fd, b_ic, b_oc = connect sock in
      Fun.protect
        ~finally:(fun () ->
          close_conn a_fd;
          close_conn b_fd;
          shutdown_daemon sock)
        (fun () ->
          (* A submits a batch and does not read the reply yet; B must
             be served while A's connection is open — the old serial
             accept loop never even accepted B here *)
          send_line a_oc (check_json ~id:"big" (big_batch ~tag:"m" 24));
          let pong = ask_conn b_ic b_oc {|{"op":"ping"}|} in
          Alcotest.(check bool) "pong while a batch is in flight" true
            (J.bool_member "pong" pong = Some true);
          let r = ask_conn b_ic b_oc {|{"op":"stats"}|} in
          let stats = Option.get (J.member "stats" r) in
          let conns = Option.get (J.member "connections" stats) in
          Alcotest.(check bool) "both connections visible in stats" true
            (match J.int_member "active" conns with
            | Some n -> n >= 2
            | None -> false);
          let batch = recv_doc a_ic in
          Alcotest.(check (option string)) "batch id echoed" (Some "big")
            (J.str_member "id" batch);
          Alcotest.(check bool) "batch ok" true
            (J.bool_member "ok" batch = Some true);
          match J.arr_member "results" batch with
          | Some rs -> Alcotest.(check int) "all jobs answered" 24
              (List.length rs)
          | None -> Alcotest.fail "batch reply carries no results"))

let test_daemon_pipelined_ids () =
  with_daemon (fun sock ->
      let fd, ic, oc = connect sock in
      Fun.protect
        ~finally:(fun () ->
          close_conn fd;
          shutdown_daemon sock)
        (fun () ->
          (* two requests pipelined on one connection: the check runs on
             a worker thread, so the ping's reply overtakes it; the ids
             keep the replies attributable either way *)
          send_line oc (check_json ~id:"slow" (big_batch ~tag:"p" 24));
          send_line oc {|{"op":"ping","id":"quick"}|};
          let first = recv_doc ic in
          let second = recv_doc ic in
          let by_id id =
            if J.str_member "id" first = Some id then first
            else if J.str_member "id" second = Some id then second
            else Alcotest.failf "no reply carries id %S" id
          in
          let pong = by_id "quick" and batch = by_id "slow" in
          Alcotest.(check bool) "ping reply correlated by id" true
            (J.bool_member "pong" pong = Some true);
          Alcotest.(check bool) "batch reply correlated by id" true
            (J.bool_member "ok" batch = Some true);
          Alcotest.(check (option string)) "the control reply overtook the batch"
            (Some "quick")
            (J.str_member "id" first)))

(* strip the one load-dependent field, recursively *)
let rec scrub_elapsed = function
  | J.Obj kvs ->
      J.Obj
        (List.map
           (fun (k, v) ->
             if k = "elapsed_s" then (k, J.Null) else (k, scrub_elapsed v))
           kvs)
  | J.Arr xs -> J.Arr (List.map scrub_elapsed xs)
  | v -> v

let test_daemon_concurrent_equals_serial () =
  with_daemon (fun sock ->
      Fun.protect
        ~finally:(fun () -> shutdown_daemon sock)
        (fun () ->
          let batch =
            check_json ~id:"x"
              [
                job_json ~name:"srv" server "[]<>result";
                job_json ~name:"flt" faulty "[]<>result";
                job_json ~kind:"sat" ~name:"sat" server "[]<>result";
                job_json ~kind:"rs" ~name:"rs" server "[]request";
              ]
          in
          let run_once () =
            let fd, ic, oc = connect sock in
            Fun.protect
              ~finally:(fun () -> close_conn fd)
              (fun () -> scrub_elapsed (ask_conn ic oc batch))
          in
          (* ground truth first, serially, then the same batch from four
             concurrent clients: every reply must be byte-identical *)
          let serial = run_once () in
          let results = Array.make 4 J.Null in
          let clients =
            List.init 4 (fun i ->
                Thread.create (fun () -> results.(i) <- run_once ()) ())
          in
          List.iter Thread.join clients;
          Array.iteri
            (fun i r ->
              Alcotest.(check bool)
                (Printf.sprintf "client %d matches the serial reply" i)
                true (json_eq serial r))
            results))

let test_daemon_connection_limit () =
  with_daemon
    ~config:(fun c -> { c with Daemon.max_connections = 2 })
    (fun sock ->
      let a_fd, a_ic, a_oc = connect sock in
      let b_fd, b_ic, b_oc = connect sock in
      Fun.protect
        ~finally:(fun () ->
          close_conn a_fd;
          close_conn b_fd;
          shutdown_daemon sock)
        (fun () ->
          (* the pings prove both connections are registered *)
          ignore (ask_conn a_ic a_oc {|{"op":"ping"}|});
          ignore (ask_conn b_ic b_oc {|{"op":"ping"}|});
          let c_fd, c_ic, _ = connect sock in
          Fun.protect
            ~finally:(fun () -> close_conn c_fd)
            (fun () ->
              (* the over-limit connection is refused proactively: one
                 error line, no request needed, then EOF *)
              let r = recv_doc c_ic in
              Alcotest.(check bool) "refusal is ok:false" true
                (J.bool_member "ok" r = Some false);
              (match J.str_member "error" r with
              | Some e ->
                  Alcotest.(check bool) "refusal names the busy server" true
                    (String.length e >= 11 && String.sub e 0 11 = "server busy")
              | None -> Alcotest.fail "refusal carries no error");
              match input_line c_ic with
              | line -> Alcotest.failf "expected EOF after refusal, got %S" line
              | exception End_of_file -> ());
          let r = ask_conn b_ic b_oc {|{"op":"stats"}|} in
          let conns =
            Option.get (J.member "connections" (Option.get (J.member "stats" r)))
          in
          Alcotest.(check bool) "the refusal is counted" true
            (match J.int_member "rejected" conns with
            | Some n -> n >= 1
            | None -> false);
          (* closing a connection frees its slot (the handler's exit is
             asynchronous, so poll) *)
          close_conn a_fd;
          let rec retry n =
            if n = 0 then Alcotest.fail "slot did not free after a close"
            else
              match ask_fresh sock {|{"op":"ping"}|} with
              | Some r when J.bool_member "pong" r = Some true -> ()
              | _ ->
                  Thread.delay 0.02;
                  retry (n - 1)
          in
          retry 200))

(* --- chaos: verdict equality and contract conformance under faults --- *)

let abc = Rl_sigma.Alphabet.make [ "a"; "b"; "c" ]

let gen_inline_model =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 5 in
    let ts =
      Rl_automata.Gen.transition_system (Helpers.mk_rng seed)
        ~alphabet:abc ~states ~branching:1.7
    in
    return (Rl_core.Ts_format.print_ts ts))

let gen_formula_src =
  QCheck2.Gen.oneofl
    [
      "[]<>a";
      "<>[]b";
      "[](a -> <>c)";
      "a U b";
      "<>(b & <>a)";
      "[]<>(a | c)";
    ]

let gen_kind = QCheck2.Gen.oneofl [ Request.Sat; Request.Rl; Request.Rs ]

let chaos_prop ~name ~count rates =
  QCheck2.Test.make ~name ~count
    QCheck2.Gen.(triple gen_inline_model gen_formula_src gen_kind)
    (fun (text, formula, kind) ->
      let job =
        Request.job ~no_lint:true ~max_states:50_000 kind
          (inline "<chaos>" text) formula
      in
      let clean = reply_repr (Request.run job) in
      let chaotic =
        with_faults ~seed:7 rates (fun () -> reply_repr (Request.run job))
      in
      clean = chaotic)

(* cache-miss storms are transparent by contract: they cost time, never
   correctness *)
let prop_chaos_transparent =
  chaos_prop ~name:"chaos: verdicts under cache storms = fault-free"
    ~count:60
    [ (Fault.Cache_miss_storm, 1.0) ]

(* malformed input is *not* transparent: it must surface as a typed parse
   error with the documented exit code — never a crash, never a bogus
   verdict *)
let prop_chaos_malformed_input =
  QCheck2.Test.make
    ~name:"chaos: injected malformed input is a typed parse error (exit 2)"
    ~count:40
    QCheck2.Gen.(pair gen_inline_model gen_formula_src)
    (fun (text, formula) ->
      let job =
        Request.job ~no_lint:true Request.Rl (inline "<chaos>" text) formula
      in
      let r =
        with_faults ~seed:13
          [ (Fault.Malformed_input, 1.0) ]
          (fun () -> Request.run job)
      in
      match r.Request.status with
      | Request.Failed (Error.Parse_error _) -> Request.exit_code r = 2
      | _ -> false)

(* concurrent clients over one shared request cache: exactly the daemon's
   hot path. Every thread's verdicts must equal the serial ground
   truth. *)
let test_concurrent_shared_cache () =
  let jobs =
    List.init 8 (fun i ->
        let text =
          Rl_core.Ts_format.print_ts
            (Rl_automata.Gen.transition_system (Helpers.mk_rng (100 + i))
               ~alphabet:abc ~states:4 ~branching:1.7)
        in
        Request.job ~no_lint:true ~max_states:50_000 Request.Rl
          (inline (Printf.sprintf "cc-%d" i) text)
          "[]<>a")
  in
  let clean = List.map (fun j -> reply_repr (run j)) jobs in
  let cache = Request.cache ~capacity:64 () in
  let results = Array.make 4 [] in
  let threads =
    List.init 4 (fun t ->
        Thread.create
          (fun () ->
            results.(t) <-
              List.map (fun j -> reply_repr (run ~cache j)) jobs)
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun t rs ->
      Alcotest.(check bool)
        (Printf.sprintf "thread %d verdicts = serial" t)
        true (rs = clean))
    results

(* random model, random edit: a run through a shared incremental cache
   must produce the verdict a from-scratch run produces — the soundness
   bar of the whole incremental machinery *)
let gen_edit =
  QCheck2.Gen.oneofl [ `Resubmit; `Pad_unreachable; `Add_loop; `Drop_last ]

let apply_edit text = function
  | `Resubmit -> text
  | `Pad_unreachable -> text ^ "97 a 98\n98 b 97\n"
  | `Add_loop -> text ^ "0 c 0\n"
  | `Drop_last -> (
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      match List.rev lines with
      | last :: (_ :: _ as rest)
        when String.length last > 0 && last.[0] <> 'i' ->
          String.concat "\n" (List.rev rest) ^ "\n"
      | _ -> text)

let prop_incremental_equals_scratch =
  QCheck2.Test.make
    ~name:"incremental re-check verdicts = from-scratch verdicts" ~count:60
    QCheck2.Gen.(
      pair (triple gen_inline_model gen_formula_src gen_kind) gen_edit)
    (fun ((text, formula, kind), edit) ->
      let edited = apply_edit text edit in
      let j t =
        Request.job ~no_lint:true ~max_states:50_000 kind (inline "inc" t)
          formula
      in
      let cache = Request.cache ~capacity:16 () in
      let a_inc = Request.run ~cache (j text) in
      let b_inc = Request.run ~cache (j edited) in
      (* resubmit the edited version once more: this leg exercises the
         memo-hit replay path for the edited model too *)
      let b_memo = Request.run ~cache (j edited) in
      let a_fresh = Request.run (j text) in
      let b_fresh = Request.run (j edited) in
      reply_repr a_inc = reply_repr a_fresh
      && reply_repr b_inc = reply_repr b_fresh
      && reply_repr b_memo = reply_repr b_fresh)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "service"
    [
      ( "jsonx",
        [
          Alcotest.test_case "round-trips" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_jsonx_parse_errors;
          Alcotest.test_case "accessors" `Quick test_jsonx_accessors;
          Alcotest.test_case "unicode escapes" `Quick
            test_jsonx_unicode_escapes;
          qcheck prop_jsonx_unicode_roundtrip;
          qcheck prop_jsonx_escape_decode;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order and recency" `Quick
            test_lru_eviction;
          Alcotest.test_case "capacity 0 is unbounded" `Quick
            test_lru_unbounded;
        ] );
      ( "fault",
        [
          Alcotest.test_case "schedules are seed-deterministic" `Quick
            test_fault_determinism;
          Alcotest.test_case "points are independent; counters track" `Quick
            test_fault_isolation_and_counters;
          Alcotest.test_case "invalid rates are rejected" `Quick
            test_fault_env_rejects_garbage;
        ] );
      ( "request",
        [
          Alcotest.test_case "holds" `Quick test_request_holds;
          Alcotest.test_case "fails with a certified witness" `Quick
            test_request_fails_with_witness;
          Alcotest.test_case "blocked by pre-flight lint" `Quick
            test_request_blocked_by_lint;
          Alcotest.test_case "typed errors, exit 2" `Quick
            test_request_typed_errors;
          Alcotest.test_case "budget exhaustion, exit 4" `Quick
            test_request_budget_exhaustion;
          Alcotest.test_case "model cache hits preserve replies" `Quick
            test_request_model_cache;
          Alcotest.test_case "model cache keys on the file path" `Quick
            test_request_model_cache_path;
          Alcotest.test_case "identical inline resubmission hits the parse"
            `Quick test_inline_parse_hit;
          Alcotest.test_case "distinct models stay within 3 * capacity"
            `Quick test_cache_bounded;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "identical resubmission memo-hits" `Quick
            test_incremental_memo_hit;
          Alcotest.test_case "unreachable edit replays the verdict" `Quick
            test_incremental_unreachable_edit;
          Alcotest.test_case "reachable edit invalidates and re-decides"
            `Quick test_incremental_invalidation;
          Alcotest.test_case "wall-clock timeouts bypass the memo" `Quick
            test_incremental_timeout_bypasses_memo;
          Alcotest.test_case "identical resubmission hits the lint memo"
            `Quick test_lint_memo_hit;
          Alcotest.test_case "global edit invalidates the lint memo" `Quick
            test_lint_memo_invalidation;
          qcheck prop_incremental_equals_scratch;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "completes" `Quick test_supervisor_completes;
          Alcotest.test_case "completes under a deadline" `Quick
            test_supervisor_completes_under_deadline;
          Alcotest.test_case "traps crashes into typed errors" `Quick
            test_supervisor_traps_crashes;
          Alcotest.test_case "deadline abandons and cancels" `Quick
            test_supervisor_deadline_abandons;
          Alcotest.test_case "injected expiry" `Quick
            test_supervisor_injected_expiry;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "wire protocol and survival" `Quick
            test_daemon_wire_protocol;
          Alcotest.test_case "ping answered during another client's batch"
            `Quick test_daemon_concurrent_ping;
          Alcotest.test_case "pipelined ids correlate out-of-order replies"
            `Quick test_daemon_pipelined_ids;
          Alcotest.test_case "concurrent clients match the serial replies"
            `Quick test_daemon_concurrent_equals_serial;
          Alcotest.test_case "connection limit refuses and recovers" `Quick
            test_daemon_connection_limit;
        ] );
      ( "chaos",
        [
          qcheck prop_chaos_transparent;
          qcheck prop_chaos_malformed_input;
          Alcotest.test_case "concurrent clients over one shared cache"
            `Quick test_concurrent_shared_cache;
        ] );
    ]
