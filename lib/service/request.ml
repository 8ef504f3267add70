(* The one request-execution pipeline behind both entry points.

   The CLI's sat/rl/rs path used to live in bin/rlcheck.ml; it moved here
   verbatim so the daemon cannot diverge from it. Everything observable
   is preserved bit-for-bit: the order diagnostics are reported, the
   verdict wording, the certification step (no witness is reported that
   its independent replay does not confirm), and the exit-code mapping.

   Service-only additions: a bounded cross-request model cache (a cache
   hit skips re-parsing); a lint-report memo keyed on the untrimmed
   system, so a resubmission re-lints only when its diagnostics could
   differ; the incremental re-check
   (see the section below), which diffs a resubmitted model against its
   previous version, replays memoized verdicts when the edit provably
   cannot change them, and eagerly evicts the Simcache entries an edit
   killed; and the malformed-input fault probe, which corrupts the model
   source just before parsing to exercise the typed parse-error path end
   to end. *)

module Budget = Rl_engine.Budget
module Error = Rl_engine.Error
module Certify = Rl_engine.Certify
module Fault = Rl_engine.Fault
module Lru = Rl_engine.Lru
module Simcache = Rl_engine.Simcache
module Diagnostic = Rl_analysis.Diagnostic
module Lint = Rl_analysis.Lint
open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_core

type kind = Sat | Rl | Rs

let kind_name = function Sat -> "sat" | Rl -> "rl" | Rs -> "rs"

let kind_of_name = function
  | "sat" -> Some Sat
  | "rl" -> Some Rl
  | "rs" -> Some Rs
  | _ -> None

type model = File of string | Inline of { name : string; text : string }

type job = {
  kind : kind;
  model : model;
  formula : string;
  max_states : int option;
  timeout : float option;
  bound : int option;
  no_lint : bool;
}

let job ?max_states ?timeout ?bound ?(no_lint = false) kind model formula =
  { kind; model; formula; max_states; timeout; bound; no_lint }

type status = Holds | Fails | Blocked | Failed of Error.t

type reply = {
  status : status;
  message : string;
  witness : string option;
  diagnostics : Diagnostic.t list;
  blocked_summary : string option;
  states : int;
  elapsed_s : float;
}

let exit_code r =
  match r.status with
  | Holds -> 0
  | Fails -> 1
  | Blocked -> 2
  | Failed err -> Error.exit_code err

(* --- model cache and incremental re-check state --- *)

(* the last version of a model that reached the decide step: the parsed
   (untrimmed) system, and the Simcache keys its decide touched *)
type version = { v_sys : Nfa.t; v_keys : string list }

(* a memoized decide outcome; [o_states] is what the original run
   explored, reported verbatim so a replayed reply is indistinguishable
   from the one it memoizes *)
type outcome = {
  o_verdict :
    [ `Holds of string | `Fails of string * string | `Failed of Error.t ];
  o_states : int;
  o_keys : string list;
}

type recheck_stats = {
  new_models : int;
  identical : int;
  equivalent : int;
  local : int;
  global : int;
  memo_hits : int;
  decides : int;
}

let no_rechecks =
  {
    new_models = 0;
    identical = 0;
    equivalent = 0;
    local = 0;
    global = 0;
    memo_hits = 0;
    decides = 0;
  }

type cache = {
  lru : (string, Nfa.t * Diagnostic.t list) Lru.t;
  mutable hits : int;
  mutable misses : int;
  history : (string, version) Lru.t; (* model name -> last version *)
  memo : (string, outcome) Lru.t; (* decide_key -> outcome *)
  lint_memo : (string, Diagnostic.t list) Lru.t; (* lint_key -> report *)
  lint_index : (string, string list) Lru.t; (* model name -> lint keys *)
  mutable lint_hits : int;
  mutable lint_misses : int;
  mutable lint_invalidated : int;
  mutable recheck : recheck_stats;
  mutex : Mutex.t;
}

let cache ~capacity () =
  {
    lru = Lru.create ~capacity ();
    hits = 0;
    misses = 0;
    history = Lru.create ~capacity ();
    memo = Lru.create ~capacity ();
    lint_memo = Lru.create ~capacity ();
    lint_index = Lru.create ~capacity ();
    lint_hits = 0;
    lint_misses = 0;
    lint_invalidated = 0;
    recheck = no_rechecks;
    mutex = Mutex.create ();
  }

let cache_stats c =
  Mutex.lock c.mutex;
  let s = (c.hits, c.misses, Lru.length c.lru, Lru.evictions c.lru) in
  Mutex.unlock c.mutex;
  s

let lint_stats c =
  Mutex.lock c.mutex;
  let s =
    (c.lint_hits, c.lint_misses, Lru.length c.lint_memo, c.lint_invalidated)
  in
  Mutex.unlock c.mutex;
  s

let recheck_stats c =
  Mutex.lock c.mutex;
  let s = c.recheck in
  Mutex.unlock c.mutex;
  s

let tally c f =
  Mutex.lock c.mutex;
  c.recheck <- f c.recheck;
  Mutex.unlock c.mutex

(* --- loading --- *)

let read_file path =
  Error.protect
    ~handler:(function
      | Sys_error msg -> Some (Error.Internal msg) | _ -> None)
    (fun () ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

(* the malformed-input injection point: a client that corrupts its model
   mid-stream must come back as a typed parse error, never a crash *)
let maybe_corrupt text =
  if Fault.armed () && Fault.should_fire Fault.Malformed_input then
    text ^ "\n!!chaos: injected malformed input!!\n"
  else text

(* Parse the job's model to an untrimmed system plus its parse-time
   diagnostics. Transition-system sources go through the cache (keyed on
   a digest of the path and the source text); Petri-net files bypass
   it — their reachability exploration must tick this request's budget. *)
let load_model ?cache ~budget job =
  match job.model with
  | File path when Filename.check_suffix path ".pn" ->
      if Fault.armed () && Fault.should_fire Fault.Malformed_input then
        Result.bind (read_file path) (fun text ->
            Error.protect
              ~handler:(function
                | Ts_format.Syntax_error (line, msg) ->
                    Some (Error.Parse_error { file = Some path; line; msg })
                | _ -> None)
              (fun () ->
                ignore
                  (Ts_format.parse_petri
                     (text ^ "\n!!chaos: injected malformed input!!\n"));
                assert false))
      else
        let diags = ref [] in
        let collect d = diags := d :: !diags in
        Result.map
          (fun sys -> (sys, List.rev !diags))
          (Ts_format.load_result ~on_diagnostic:collect ~budget
             ?bound:job.bound path)
  | File path ->
      Result.bind (read_file path) (fun text ->
          let text = maybe_corrupt text in
          (* the cached diagnostics carry [path]: two files with equal
             text must not share an entry *)
          let key = Digest.to_hex (Digest.string (path ^ "\x00" ^ text)) in
          let cached =
            match cache with
            | None -> None
            | Some c ->
                Mutex.lock c.mutex;
                let e = Lru.find c.lru key in
                (match e with
                | Some _ -> c.hits <- c.hits + 1
                | None -> c.misses <- c.misses + 1);
                Mutex.unlock c.mutex;
                e
          in
          match cached with
          | Some (sys, diags) -> Ok (sys, diags)
          | None ->
              let diags = ref [] in
              let collect d = diags := d :: !diags in
              Result.map
                (fun sys ->
                  let parsed = (sys, List.rev !diags) in
                  (match cache with
                  | Some c ->
                      Mutex.lock c.mutex;
                      Lru.put c.lru key parsed;
                      Mutex.unlock c.mutex
                  | None -> ());
                  parsed)
                (Ts_format.parse_ts_result ~on_diagnostic:collect ~file:path
                   text))
  | Inline { name; text } ->
      let text = maybe_corrupt text in
      let diags = ref [] in
      let collect d = diags := d :: !diags in
      Result.map
        (fun sys -> (sys, List.rev !diags))
        (Ts_format.parse_ts_result ~on_diagnostic:collect ~file:name text)

let model_name job =
  match job.model with File path -> path | Inline { name; _ } -> name

(* serialize the full structure of a system into [b] — the shared tail of
   the decide and lint memo keys *)
let add_system b ts =
  let sep () = Buffer.add_char b '\x00' in
  Buffer.add_string b (string_of_int (Nfa.states ts));
  List.iter
    (fun name ->
      Buffer.add_char b ',';
      Buffer.add_string b name)
    (Alphabet.names (Nfa.alphabet ts));
  sep ();
  List.iter
    (fun q ->
      Buffer.add_string b (string_of_int q);
      Buffer.add_char b ',')
    (List.sort_uniq compare (Nfa.initial ts));
  sep ();
  Rl_prelude.Bitset.iter
    (fun q ->
      Buffer.add_string b (string_of_int q);
      Buffer.add_char b ',')
    (Nfa.finals ts);
  sep ();
  List.iter
    (fun (q, a, q') ->
      Buffer.add_string b (string_of_int q);
      Buffer.add_char b '.';
      Buffer.add_string b (string_of_int a);
      Buffer.add_char b '.';
      Buffer.add_string b (string_of_int q');
      Buffer.add_char b ';')
    (List.sort compare (Nfa.transitions ts));
  if Nfa.has_eps ts then Buffer.add_string b "|eps"

(* digest of everything the pre-flight lint consumes: the model name (it
   appears in the rendered diagnostics), the formula, and the untrimmed
   system together with its parse-time diagnostics — an unreachable-
   region edit changes this key even though it leaves the decide key
   alone, so a memoized lint report is never stale *)
let lint_key job ~formula (sys, parse_diags) =
  let b = Buffer.create 1024 in
  let sep () = Buffer.add_char b '\x00' in
  Buffer.add_string b (model_name job);
  sep ();
  Buffer.add_string b (Format.asprintf "%a" Rl_ltl.Formula.pp formula);
  sep ();
  List.iter
    (fun d ->
      Buffer.add_string b (Format.asprintf "%a" Diagnostic.pp d);
      sep ())
    parse_diags;
  add_system b sys;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pre-flight, exactly as the CLI's load_and_lint: run the cheap lint
   passes on the untrimmed system, surface everything but Hints, refuse
   Errors (unless no_lint) — parse diagnostics survive --no-lint, as they
   predate the lint phase. Returns the trimmed system or the Blocked
   summary.

   Under a cache, the diagnostic list is memoized per lint key (the
   passes are deterministic in their input, and the cheap ~deep:false
   phase never consults the budget, so the report is a pure function of
   the key). Only the report is memoized — [Nfa.trim] is recomputed so
   the decide step always gets a fresh trimmed system. Fault-injection
   runs bypass the memo: chaos must exercise the real passes. The third
   component of [`Proceed] is the key this request stored, so the
   incremental layer can spare it when it evicts the model's stale lint
   entries. *)
let lint_phase ?cache job ~formula (sys, parse_diags) =
  let fresh_key = ref None in
  let diags =
    if job.no_lint then parse_diags
    else
      let compute () =
        Lint.run ~deep:false
          {
            Lint.empty with
            file = Some (model_name job);
            parse = parse_diags;
            system = Some sys;
            formula = Some formula;
          }
      in
      match cache with
      | Some c when not (Fault.armed ()) -> (
          let key = lint_key job ~formula (sys, parse_diags) in
          fresh_key := Some key;
          Mutex.lock c.mutex;
          let hit = Lru.find c.lint_memo key in
          (match hit with
          | Some _ -> c.lint_hits <- c.lint_hits + 1
          | None -> c.lint_misses <- c.lint_misses + 1);
          Mutex.unlock c.mutex;
          match hit with
          | Some ds -> ds
          | None ->
              let ds = compute () in
              let name = model_name job in
              Mutex.lock c.mutex;
              Lru.put c.lint_memo key ds;
              let keys =
                match Lru.find c.lint_index name with
                | Some ks -> List.filter (fun k -> k <> key) ks
                | None -> []
              in
              Lru.put c.lint_index name (key :: keys);
              Mutex.unlock c.mutex;
              ds)
      | _ -> compute ()
  in
  let visible =
    List.filter (fun d -> d.Diagnostic.severity <> Diagnostic.Hint) diags
  in
  if (not job.no_lint) && List.exists Diagnostic.is_error visible then
    `Blocked
      ( visible,
        Printf.sprintf
          "pre-flight lint failed (%s); rerun with --no-lint to proceed \
           anyway"
          (Diagnostic.summary visible) )
  else `Proceed (visible, Nfa.trim sys, !fresh_key)

let parse_formula s =
  try Ok (Rl_ltl.Parser.parse s)
  with Rl_ltl.Parser.Parse_error msg ->
    Error
      (Error.Parse_error
         { file = None; line = 0; msg = Printf.sprintf "formula %S: %s" s msg })

let uncertified failure =
  Error.Internal
    (Format.asprintf "refusing to report an uncertified witness: %a"
       Certify.pp_failure failure)

(* --- the decision step, one arm per kind, wording preserved --- *)

let decide ?pool ~budget ~fresh job f ts =
  let alpha = Nfa.alphabet ts in
  let system = Buchi.of_transition_system ts in
  let p = Relative.ltl alpha f in
  match job.kind with
  | Sat -> (
      match Relative.satisfies ~budget ~system p with
      | Ok () ->
          `Holds
            (Format.asprintf "SATISFIED: every behavior satisfies %a"
               Rl_ltl.Formula.pp f)
      | Error cex -> (
          match Certify.counterexample ~system p cex with
          | Error failure -> `Failed (uncertified failure)
          | Ok () ->
              let w = Format.asprintf "%a" (Lasso.pp alpha) cex in
              `Fails (Printf.sprintf "VIOLATED: counterexample %s" w, w)))
  | Rl -> (
      match Relative.is_relative_liveness ~budget ?pool ~system p with
      | Ok () ->
          `Holds
            (Format.asprintf
               "RELATIVE LIVENESS: every prefix extends to a behavior \
                satisfying %a"
               Rl_ltl.Formula.pp f)
      | Error w -> (
          (* certification replays get a fresh budget with the same
             limits: they must not inherit a spent one, nor run unbounded
             on inputs the user asked to bound *)
          match Certify.doomed_prefix ~budget:(fresh ()) ~system p w with
          | Error failure -> `Failed (uncertified failure)
          | Ok () ->
              let ws = Format.asprintf "%a" (Word.pp alpha) w in
              `Fails
                (Printf.sprintf "NOT RELATIVE LIVENESS: doomed prefix %s" ws, ws)))
  | Rs -> (
      match Relative.is_relative_safety ~budget ~system p with
      | Ok () -> `Holds "RELATIVE SAFETY: violations are irredeemable"
      | Error x -> (
          match Certify.counterexample ~system p x with
          | Error failure -> `Failed (uncertified failure)
          | Ok () ->
              let w = Format.asprintf "%a" (Lasso.pp alpha) x in
              `Fails
                ( Printf.sprintf
                    "NOT RELATIVE SAFETY: %s violates the property but is \
                     never doomed"
                    w,
                  w )))

let budget_of_job job =
  Budget.create ?max_states:job.max_states ?timeout:job.timeout ()

(* --- incremental re-check ---

   The daemon sees the same models resubmitted in a check–edit–recheck
   loop. Per model name, [cache.history] keeps the last version that
   reached the decide step: its parsed system, and the Simcache keys its
   decide touched (recorded with [Simcache.with_observer]). A
   resubmission is diffed against that version ([Ts_diff]) to classify
   the edit: [Identical]/[Equivalent] leave every cached preorder live;
   [Local]/[Global] mean the recorded keys are dead weight — content-
   addressed keys of an edited-away structure can never be hit again —
   so they are evicted eagerly instead of waiting for LRU pressure.

   Independently, [cache.memo] memoizes decide *outcomes*, keyed on a
   digest of the exact decide input ([decide_key]): when an edit leaves
   the trimmed system intact — a byte-identical resubmission, a comment
   or formatting change, or an edit confined to the unreachable region —
   the memoized verdict is replayed without re-deciding. Soundness does
   not lean on the diff analysis: equal keys mean the decide step would
   receive bit-for-bit the same input. The lint phase has its own memo
   ([cache.lint_memo]) with a stricter key — the {e untrimmed} system
   plus the parse diagnostics — because an unreachable-region edit
   leaves the trimmed system alone but can change diagnostics (and an
   Error diagnostic blocks the check); a reachable edit additionally
   evicts the model's stale lint entries ([invalidate_lint]).

   Memoization is bypassed whenever the outcome could be run-dependent:
   a wall-clock [timeout] (the one budget limit that is not a function
   of the input), or armed fault injection (chaos runs must exercise the
   real paths, not a memo). *)

let decide_memoizable job = job.timeout = None && not (Fault.armed ())

(* digest of everything the decide step consumes: check kind, the parsed
   formula (printed back, so source formatting collapses), the state
   limit, and the full structure of the trimmed system *)
let decide_key job f ts =
  let b = Buffer.create 1024 in
  let sep () = Buffer.add_char b '\x00' in
  Buffer.add_string b (kind_name job.kind);
  sep ();
  Buffer.add_string b (Format.asprintf "%a" Rl_ltl.Formula.pp f);
  sep ();
  (match job.max_states with
  | Some n -> Buffer.add_string b (string_of_int n)
  | None -> ());
  sep ();
  add_system b ts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A reachable edit makes the previous version's lint reports dead
   weight (their keys embed the old untrimmed structure and can never be
   hit again), so evict them eagerly — all but [fresh_lint], the entry
   this very request just stored for the new version. *)
let invalidate_lint c name ~fresh_lint =
  Mutex.lock c.mutex;
  (match Lru.find c.lint_index name with
  | None -> ()
  | Some keys ->
      let live, dead =
        List.partition (fun k -> Some k = fresh_lint) keys
      in
      List.iter
        (fun k ->
          if Lru.remove c.lint_memo k then
            c.lint_invalidated <- c.lint_invalidated + 1)
        dead;
      Lru.put c.lint_index name live);
  Mutex.unlock c.mutex

(* classify the edit against the model's previous version, evict the
   keys a reachable edit killed; feeds only stats and the caches *)
let note_edit c name sys ~fresh_lint =
  Mutex.lock c.mutex;
  let prev = Lru.find c.history name in
  Mutex.unlock c.mutex;
  match prev with
  | None -> tally c (fun r -> { r with new_models = r.new_models + 1 })
  | Some v -> (
      let d = Ts_diff.compute ~old_:v.v_sys ~next:sys in
      match Ts_diff.classify ~old_:v.v_sys ~next:sys d with
      | Ts_diff.Identical ->
          tally c (fun r -> { r with identical = r.identical + 1 })
      | Ts_diff.Equivalent ->
          tally c (fun r -> { r with equivalent = r.equivalent + 1 })
      | Ts_diff.Local _ ->
          List.iter Simcache.remove v.v_keys;
          invalidate_lint c name ~fresh_lint;
          tally c (fun r -> { r with local = r.local + 1 })
      | Ts_diff.Global _ ->
          List.iter Simcache.remove v.v_keys;
          invalidate_lint c name ~fresh_lint;
          tally c (fun r -> { r with global = r.global + 1 }))

let record_version c name sys keys =
  Mutex.lock c.mutex;
  Lru.put c.history name { v_sys = sys; v_keys = keys };
  Mutex.unlock c.mutex

(* the decide step behind the memo and the per-model history; returns
   the verdict plus the states count to report when the decide itself
   was skipped. Without a cache (the CLI) this is just [decide]. *)
let decide_incremental ?pool ?cache ?(fresh_lint = None) ~budget ~fresh job f
    ~parsed_sys ts =
  match cache with
  | None -> (decide ?pool ~budget ~fresh job f ts, None)
  | Some c -> (
      let name = model_name job in
      note_edit c name parsed_sys ~fresh_lint;
      let key =
        if decide_memoizable job then Some (decide_key job f ts) else None
      in
      let hit =
        match key with
        | None -> None
        | Some k ->
            Mutex.lock c.mutex;
            let o = Lru.find c.memo k in
            Mutex.unlock c.mutex;
            o
      in
      match hit with
      | Some o ->
          tally c (fun r -> { r with memo_hits = r.memo_hits + 1 });
          record_version c name parsed_sys o.o_keys;
          (o.o_verdict, Some o.o_states)
      | None ->
          tally c (fun r -> { r with decides = r.decides + 1 });
          let observed = ref [] in
          let verdict =
            Simcache.with_observer
              (fun k -> observed := k :: !observed)
              (fun () -> decide ?pool ~budget ~fresh job f ts)
          in
          let keys =
            List.sort_uniq String.compare (Preorder.cache_keys ts @ !observed)
          in
          record_version c name parsed_sys keys;
          (match key with
          | Some k ->
              let o =
                {
                  o_verdict = verdict;
                  o_states = Budget.states_explored budget;
                  o_keys = keys;
                }
              in
              Mutex.lock c.mutex;
              Lru.put c.memo k o;
              Mutex.unlock c.mutex
          | None -> ());
          (verdict, None))

let run ?pool ?cache ?budget job =
  let t0 = Unix.gettimeofday () in
  (* the daemon passes the budget in so its watchdog can cancel it on a
     wall-clock deadline; the CLI lets us create it here *)
  let budget = match budget with Some b -> b | None -> budget_of_job job in
  let fresh () =
    Budget.create ?max_states:job.max_states ?timeout:job.timeout ()
  in
  let finish ?states ?(diagnostics = []) ?witness ?blocked_summary status
      message =
    {
      status;
      message;
      witness;
      diagnostics;
      blocked_summary;
      states =
        (match states with
        | Some s -> s
        | None -> Budget.states_explored budget);
      elapsed_s = Unix.gettimeofday () -. t0;
    }
  in
  (* the outer net: any exception the pipeline leaks — including defects
     Error.of_exn does not know — becomes a typed Internal error, never a
     crash of the serving process *)
  let protected =
    Error.protect
      ~handler:(fun e ->
        Some
          (match Error.of_exn e with
          | Some err -> err
          | None ->
              Error.Internal
                (Printf.sprintf "uncaught exception: %s"
                   (Printexc.to_string e))))
      (fun () ->
        match parse_formula job.formula with
        | Error err -> finish (Failed err) ""
        | Ok f -> (
            match load_model ?cache ~budget job with
            | Error err -> finish (Failed err) ""
            | Ok parsed -> (
                match lint_phase ?cache job ~formula:f parsed with
                | `Blocked (visible, summary) ->
                    finish ~diagnostics:visible ~blocked_summary:summary
                      Blocked ""
                | `Proceed (visible, ts, fresh_lint) -> (
                    let verdict, states =
                      decide_incremental ?pool ?cache ~fresh_lint ~budget
                        ~fresh job f ~parsed_sys:(fst parsed) ts
                    in
                    match verdict with
                    | `Holds message ->
                        finish ?states ~diagnostics:visible Holds message
                    | `Fails (message, witness) ->
                        finish ?states ~diagnostics:visible ~witness Fails
                          message
                    | `Failed err ->
                        finish ?states ~diagnostics:visible (Failed err) ""))))
  in
  match protected with Ok reply -> reply | Error err -> finish (Failed err) ""
