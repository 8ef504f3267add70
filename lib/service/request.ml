(* The one request-execution pipeline behind both entry points.

   The CLI's sat/rl/rs path used to live in bin/rlcheck.ml; it moved here
   verbatim so the daemon cannot diverge from it. Everything observable
   is preserved bit-for-bit: the order diagnostics are reported, the
   verdict wording, the certification step (no witness is reported that
   its independent replay does not confirm), and the exit-code mapping.

   Service-only additions: one bounded, content-addressed request cache
   (see the section below) that memoizes model parses, pre-flight lint
   reports and decide outcomes, each keyed on a digest of exactly the
   input it is a function of; and the malformed-input fault probe, which
   corrupts the model source just before parsing to exercise the typed
   parse-error path end to end. *)

module Budget = Rl_engine.Budget
module Error = Rl_engine.Error
module Certify = Rl_engine.Certify
module Fault = Rl_engine.Fault
module Lru = Rl_engine.Lru
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

(* --- the request cache ---

   The daemon sees the same models resubmitted in a check–edit–recheck
   loop. One LRU memoizes the three deterministic stages of a request,
   each under a key of a tag byte plus a digest of everything that stage
   consumes:
   - [Parse]: the model name and source text -> the untrimmed system and
     its parse diagnostics;
   - [Lint]: the model name, formula, untrimmed system and parse
     diagnostics -> the pre-flight report ([lint_key]);
   - [Decide]: the check kind, formula, state limit and trimmed system ->
     the verdict ([decide_key]).

   Content addressing is the whole soundness argument: equal keys mean
   the stage would receive bit-for-bit the same input, so a hit replays
   exactly what a from-scratch run computes. Nothing is evicted eagerly:
   an edit changes the keys, the entries of the edited-away version can
   never be hit again, and LRU pressure evicts them. An edit confined to
   the unreachable region leaves the trimmed system, hence the decide
   key, intact — the verdict is replayed — while the stricter lint key
   (the untrimmed system) re-runs the passes, whose diagnostics it may
   change. *)

(* a memoized decide outcome; [o_states] is what the original run
   explored, reported verbatim so a replayed reply is indistinguishable
   from the one it memoizes *)
type outcome = {
  o_verdict :
    [ `Holds of string | `Fails of string * string | `Failed of Error.t ];
  o_states : int;
}

type tag = Parse | Lint | Decide

let tag_index = function Parse -> 0 | Lint -> 1 | Decide -> 2

type entry =
  | Parsed of (Nfa.t * Diagnostic.t list)
  | Linted of Diagnostic.t list
  | Decided of outcome

type cache = {
  store : (string, entry) Lru.t;
  hits : int array; (* per tag *)
  misses : int array;
  mutable decides : int;
  mutex : Mutex.t;
}

(* one unit of capacity holds one model's parse, lint report and verdict *)
let cache ~capacity () =
  {
    store = Lru.create ~capacity:(3 * capacity) ();
    hits = Array.make 3 0;
    misses = Array.make 3 0;
    decides = 0;
    mutex = Mutex.create ();
  }

let locked c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

(* the store key: one tag byte, then the stage's input digest *)
let key tag digest = string_of_int (tag_index tag) ^ digest

let lookup c tag digest =
  locked c (fun () ->
      let e = Lru.find c.store (key tag digest) in
      let counts = if Option.is_none e then c.misses else c.hits in
      let i = tag_index tag in
      counts.(i) <- counts.(i) + 1;
      e)

let store c tag digest entry =
  locked c (fun () -> Lru.put c.store (key tag digest) entry)

type counts = { hits : int; misses : int }

type stats = {
  parse : counts;
  lint : counts;
  decide : counts;
  decides : int;
  entries : int;
  evictions : int;
}

let stats (c : cache) =
  locked c (fun () ->
      let counts tag =
        { hits = c.hits.(tag_index tag); misses = c.misses.(tag_index tag) }
      in
      {
        parse = counts Parse;
        lint = counts Lint;
        decide = counts Decide;
        decides = c.decides;
        entries = Lru.length c.store;
        evictions = Lru.evictions c.store;
      })

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

let model_name job =
  match job.model with File path -> path | Inline { name; _ } -> name

(* Parse a transition-system source through the cache, keyed on the model
   name and the text: the cached diagnostics carry the name, so two
   models with equal text must not share an entry. *)
let parse_ts ?cache ~file text =
  let text = maybe_corrupt text in
  let parse () =
    let diags = ref [] in
    let collect d = diags := d :: !diags in
    Result.map
      (fun sys -> (sys, List.rev !diags))
      (Ts_format.parse_ts_result ~on_diagnostic:collect ~file text)
  in
  match cache with
  | None -> parse ()
  | Some c -> (
      let digest = Digest.to_hex (Digest.string (file ^ "\000" ^ text)) in
      match lookup c Parse digest with
      | Some (Parsed parsed) -> Ok parsed
      | _ ->
          let r = parse () in
          Result.iter (fun parsed -> store c Parse digest (Parsed parsed)) r;
          r)

(* Parse the job's model to an untrimmed system plus its parse-time
   diagnostics. Transition-system sources, from a file or inline, go
   through the cache; Petri-net files bypass it — their reachability
   exploration must tick this request's budget. *)
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
  | File path -> Result.bind (read_file path) (parse_ts ?cache ~file:path)
  | Inline { name; text } -> parse_ts ?cache ~file:name text

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
   runs bypass the memo: chaos must exercise the real passes. *)
let lint_phase ?cache job ~formula (sys, parse_diags) =
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
          let digest = lint_key job ~formula (sys, parse_diags) in
          match lookup c Lint digest with
          | Some (Linted ds) -> ds
          | _ ->
              let ds = compute () in
              store c Lint digest (Linted ds);
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
  else `Proceed (visible, Nfa.trim sys)

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

let decide ~budget ~fresh job f ts =
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
      match Relative.is_relative_liveness ~budget ~system p with
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

   Decide outcomes are memoized in the request cache under [decide_key].
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

(* the decide step behind the outcome memo; returns the verdict plus the
   states count to report when the decide itself was skipped. Without a
   cache (the CLI) this is just [decide]. *)
let decide_incremental ?cache ~budget ~fresh job f ts =
  match cache with
  | None -> (decide ~budget ~fresh job f ts, None)
  | Some c -> (
      let digest =
        if decide_memoizable job then Some (decide_key job f ts) else None
      in
      match Option.bind digest (lookup c Decide) with
      | Some (Decided o) -> (o.o_verdict, Some o.o_states)
      | _ ->
          locked c (fun () -> c.decides <- c.decides + 1);
          let verdict = decide ~budget ~fresh job f ts in
          Option.iter
            (fun d ->
              store c Decide d
                (Decided
                   {
                     o_verdict = verdict;
                     o_states = Budget.states_explored budget;
                   }))
            digest;
          (verdict, None))

let run ?cache ?budget job =
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
                | `Proceed (visible, ts) -> (
                    let verdict, states =
                      decide_incremental ?cache ~budget ~fresh job f ts
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
