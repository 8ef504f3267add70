(* rlcheck — relative liveness checking from the command line.

   Subcommands:
     sat       classical satisfaction  Lω ⊆ P
     rl        relative liveness (Definition 4.1 / Lemma 4.3)
     rs        relative safety (Definition 4.2 / Lemma 4.4)
     abstract  behavior-abstraction pipeline (Theorems 8.2/8.3)
     impl      Theorem 5.1 fair-implementation construction
     lint      static diagnostics (model / formula / abstraction lints)
     info      system statistics
     dot       GraphViz output

   Systems are transition-system files (see lib/core/ts_format.mli), or
   Petri nets when the file ends in .pn.

   Every decider runs the cheap lint passes as a pre-flight phase
   (--no-lint skips it): Error diagnostics abort with exit 2, Warnings go
   to stderr and the check proceeds, Hints are shown only by `rlcheck
   lint`.

   Exit codes (also in the manual page):
     0  the property holds
     1  the property fails; a certified witness was printed
     2  usage, input, or internal error
     3  the analysis completed but no conclusion transfers
     4  a resource budget (--max-states / --timeout) was exhausted

   Every witness is replayed through Rl_engine.Certify before it is
   printed; the tool never reports a verdict its own independent replay
   does not confirm. *)

open Cmdliner
open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_core
module Budget = Rl_engine.Budget
module Error = Rl_engine.Error
module Certify = Rl_engine.Certify
module Stats = Rl_engine.Stats
module Diagnostic = Rl_analysis.Diagnostic
module Lint = Rl_analysis.Lint
module Request = Rl_service.Request

let report_diag d = Format.eprintf "rlcheck: %a@." Diagnostic.pp d

let load_system ?budget ?bound path =
  Result.map Nfa.trim
    (Ts_format.load_result ~on_diagnostic:report_diag ?budget ?bound path)

(* Pre-flight for the deciders: parse (collecting the typed parse
   diagnostics), run the cheap lint passes on the untrimmed system, print
   everything but Hints to stderr, refuse Errors with exit 2 (unless
   --no-lint), and only then trim. Parse diagnostics print even under
   --no-lint: they were the tool's behavior before the lint phase
   existed. *)
let load_and_lint ?budget ?bound ?formula ?keep ~no_lint path =
  let parse_diags = ref [] in
  let collect d = parse_diags := d :: !parse_diags in
  Result.map
    (fun sys ->
      let parse = List.rev !parse_diags in
      let diags =
        if no_lint then parse
        else
          Lint.run ~deep:false
            {
              Lint.empty with
              file = Some path;
              parse;
              system = Some sys;
              formula;
              keep;
            }
      in
      let visible =
        List.filter (fun d -> d.Diagnostic.severity <> Diagnostic.Hint) diags
      in
      List.iter report_diag visible;
      if (not no_lint) && List.exists Diagnostic.is_error visible then begin
        Format.eprintf
          "rlcheck: pre-flight lint failed (%s); rerun with --no-lint to \
           proceed anyway@."
          (Diagnostic.summary visible);
        exit 2
      end;
      Nfa.trim sys)
    (Ts_format.load_result ~on_diagnostic:collect ?budget ?bound path)

let parse_formula s =
  try Ok (Rl_ltl.Parser.parse s)
  with Rl_ltl.Parser.Parse_error msg ->
    Error
      (Error.Parse_error
         { file = None; line = 0; msg = Printf.sprintf "formula %S: %s" s msg })

(* --- common arguments --- *)

let system_arg =
  let doc = "System file: a transition system, or a Petri net if it ends in .pn." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SYSTEM" ~doc)

let formula_arg =
  let doc = "PLTL formula, e.g. '[]<> result'." in
  Arg.(required & opt (some string) None & info [ "f"; "formula" ] ~docv:"FORMULA" ~doc)

let max_states_arg =
  let doc =
    "Give up with exit code 4 after exploring $(docv) states across all \
     phases of the check."
  in
  Arg.(value & opt (some int) None & info [ "max-states" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc = "Give up with exit code 4 after $(docv) seconds of wall clock." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Accepted for compatibility and ignored: every check runs on one \
     domain, so output and exit code are the same for every $(docv)."
  in
  let env = Cmd.Env.info "RLCHECK_JOBS" ~doc:"Default value for $(b,--jobs)." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc ~env)

let bound_arg =
  let doc =
    "Token bound per place when exploring a Petri net's reachability graph \
     (default 64); a place exceeding it makes the net unbounded."
  in
  Arg.(value & opt (some int) None & info [ "bound" ] ~docv:"K" ~doc)

let no_lint_arg =
  let doc =
    "Skip the pre-flight lint phase. Parse diagnostics still print; lint \
     $(b,Error)s no longer abort the run — beware that the verdict may \
     then be vacuous (e.g. on a system with no infinite behavior)."
  in
  Arg.(value & flag & info [ "no-lint" ] ~doc)

let stats_arg =
  let doc =
    "After the verdict, report the engine's hot-path profile for this \
     run: a human-readable table on stderr, and one machine-parsable \
     JSON line (an object tagged $(b,\"rlcheck_stats\":1)) on stdout. \
     The counters are on unconditionally — this flag only prints them."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* The --stats epilogue. Counters are process-monotonic, so the run's
   figure is the delta between a snapshot taken before the check and one
   taken here; the table goes to stderr so stdout gains exactly one
   extra line, the JSON one, for scripts to grep out. *)
let emit_stats = function
  | None -> ()
  | Some before ->
      let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
      Format.eprintf "%a@." Stats.pp_human d;
      print_endline (Stats.to_json d)

let handle = function
  | Ok () -> exit 0
  | Error err ->
      Format.eprintf "rlcheck: %a@." Error.pp err;
      exit (Error.exit_code err)

(* Run the body under the typed-error net: domain exceptions and budget
   exhaustion come back as Error.t and exit through [handle] with the
   documented code (4 for exhaustion, 2 otherwise). *)
let guarded body = handle (Result.join (Error.protect body))

let ( let* ) r f = Result.bind r f

(* --- sat / rl / rs --- *)

(* The three deciding subcommands run through the service's request
   layer (lib/service/request.ml) — the same pipeline the daemon
   executes, so the CLI and rlcheckd cannot drift. The reply carries
   what used to be printed inline: diagnostics and the lint-refusal
   line go to stderr first (exactly the order the streaming code
   produced), the verdict line to stdout, and the status maps onto the
   documented exit codes. *)

let print_reply ?stats_before (reply : Request.reply) =
  List.iter report_diag reply.Request.diagnostics;
  (match reply.Request.blocked_summary with
  | Some summary -> Format.eprintf "rlcheck: %s@." summary
  | None -> ());
  (match reply.Request.status with
  | Request.Holds | Request.Fails -> Format.printf "%s@." reply.Request.message
  | Request.Blocked -> ()
  | Request.Failed err -> Format.eprintf "rlcheck: %a@." Error.pp err);
  emit_stats stats_before;
  exit (Request.exit_code reply)

let run_check mode path formula_src max_states timeout bound _jobs no_lint
    stats =
  let kind =
    match mode with `Sat -> Request.Sat | `Rl -> Request.Rl | `Rs -> Request.Rs
  in
  let job =
    Request.job ?max_states ?timeout ?bound ~no_lint kind (Request.File path)
      formula_src
  in
  let stats_before = if stats then Some (Stats.snapshot ()) else None in
  print_reply ?stats_before (Request.run job)

let check_cmd name mode doc =
  let term =
    Term.(
      const (run_check mode) $ system_arg $ formula_arg $ max_states_arg
      $ timeout_arg $ bound_arg $ jobs_arg $ no_lint_arg $ stats_arg)
  in
  Cmd.v (Cmd.info name ~doc) term

(* --- abstract --- *)

let keep_arg =
  let doc = "Comma-separated observable actions; all others are hidden." in
  Arg.(required & opt (some (list string)) None & info [ "keep" ] ~docv:"ACTIONS" ~doc)

let eps_check =
  let doc = "Also run the direct concrete check of R̄(η) and compare." in
  Arg.(value & flag & info [ "check-concrete" ] ~doc)

let run_abstract path formula_src keep check_concrete max_states timeout bound
    _jobs no_lint stats =
  let budget = Budget.create ?max_states ?timeout () in
  let stats_before = if stats then Some (Stats.snapshot ()) else None in
  guarded @@ fun () ->
  let* f = parse_formula formula_src in
  let* ts = load_and_lint ~budget ?bound ~formula:f ~keep ~no_lint path in
  let* hom =
    try Ok (Rl_hom.Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep)
    with Invalid_argument m -> Error (Error.Internal m)
  in
  let* report =
    try Ok (Abstraction.verify ~budget ~ts ~hom ~formula:f ())
    with Invalid_argument m -> Error (Error.Internal m)
  in
  Format.printf "%a@." Abstraction.pp_report report;
  (* the hypotheses this very run found violated, as lint diagnostics
     (stderr, so the report on stdout stays machine-readable) *)
  List.iter report_diag report.Abstraction.hints;
  if check_concrete then begin
    let direct =
      Abstraction.check_concrete ~budget ~ts ~hom ~formula:f ()
    in
    Format.printf "direct concrete check: %s@."
      (match direct with
      | Ok () -> "R̄(η) is a relative liveness property of lim(L)"
      | Error _ -> "R̄(η) is NOT a relative liveness property of lim(L)")
  end;
  emit_stats stats_before;
  match report.Abstraction.conclusion with
  | `Concrete_holds -> Ok ()
  | `Concrete_fails -> exit 1
  | `Unknown -> exit 3

let abstract_cmd =
  let doc = "verify through a hiding abstraction (Theorems 8.2/8.3)" in
  let term =
    Term.(
      const run_abstract $ system_arg $ formula_arg $ keep_arg $ eps_check
      $ max_states_arg $ timeout_arg $ bound_arg $ jobs_arg $ no_lint_arg
      $ stats_arg)
  in
  Cmd.v (Cmd.info "abstract" ~doc) term

(* --- impl (Theorem 5.1) --- *)

let samples_arg =
  let doc = "Number of strongly fair runs to sample." in
  Arg.(value & opt int 5 & info [ "samples" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed for run sampling." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let run_impl path formula_src samples seed max_states timeout bound _jobs
    no_lint =
  let budget = Budget.create ?max_states ?timeout () in
  guarded @@ fun () ->
  let* f = parse_formula formula_src in
  let* ts = load_and_lint ~budget ?bound ~formula:f ~no_lint path in
  let alpha = Nfa.alphabet ts in
  let system = Buchi.of_transition_system ts in
  let p = Relative.ltl alpha f in
  (match Relative.is_relative_liveness ~budget ~system p with
  | Ok () -> ()
  | Error w ->
      Format.printf
        "warning: %a is not a relative liveness property (doomed prefix \
         %a); Theorem 5.1 does not apply@."
        Rl_ltl.Formula.pp f (Word.pp alpha) w);
  let impl = Implement.construct ~budget ~system p in
  Format.printf "implementation: %d states (system had %d)@."
    (Buchi.states impl.Implement.implementation)
    (Buchi.states system);
  (match Implement.language_preserved ~budget ~system impl with
  | Ok () -> Format.printf "behaviors preserved: yes@."
  | Error x ->
      Format.printf "behaviors preserved: NO, witness %a@." (Word.pp alpha) x);
  let ok, generated =
    Implement.sample_fair_check (Rl_prelude.Prng.create seed) ~samples impl p
  in
  Format.printf "strongly fair runs sampled: %d, satisfying the property: %d@."
    generated ok;
  (match Implement.verify_fair_exact impl p with
  | Ok () ->
      Format.printf
        "exact (Streett) check: every strongly fair run satisfies the \
         property@."
  | Error run ->
      Format.printf "exact check FAILED; fair violating run:@.  %a@."
        (Rl_fair.Fair.pp_run impl.Implement.implementation)
        run);
  Ok ()

let impl_cmd =
  let doc = "build the Theorem 5.1 fair implementation and validate it" in
  let term =
    Term.(
      const run_impl $ system_arg $ formula_arg $ samples_arg $ seed_arg
      $ max_states_arg $ timeout_arg $ bound_arg $ jobs_arg $ no_lint_arg)
  in
  Cmd.v (Cmd.info "impl" ~doc) term

(* --- fair: model checking under strong fairness --- *)

let run_fair path formula_src bound _jobs no_lint =
  guarded @@ fun () ->
  let* f = parse_formula formula_src in
  let* ts = load_and_lint ?bound ~formula:f ~no_lint path in
  let alpha = Nfa.alphabet ts in
  let system = Buchi.of_transition_system ts in
  let neg =
    Rl_ltl.Translate.to_buchi_neg ~alphabet:alpha
      ~labeling:(Rl_ltl.Semantics.canonical alpha)
      f
  in
  match Rl_fair.Streett.fair_run_within system ~property:neg with
  | None ->
      Format.printf "FAIR-SATISFIED: every strongly fair run satisfies %a@."
        Rl_ltl.Formula.pp f;
      Ok ()
  | Some run ->
      Format.printf "FAIR-VIOLATED: a strongly fair run violates it:@.  %a@."
        (Rl_fair.Fair.pp_run system) run;
      Format.printf "  action word: %a@." (Lasso.pp alpha)
        (Rl_fair.Fair.label_lasso system run);
      exit 1

let fair_cmd =
  let doc =
    "decide whether every strongly fair run satisfies a property (exact, via \
     Streett fair emptiness)"
  in
  Cmd.v (Cmd.info "fair" ~doc)
    Term.(
      const run_fair $ system_arg $ formula_arg $ bound_arg $ jobs_arg
      $ no_lint_arg)

(* --- simple: simplicity of a hiding abstraction --- *)

let run_simple path keep max_states timeout bound _jobs no_lint =
  let budget = Budget.create ?max_states ?timeout () in
  guarded @@ fun () ->
  let* ts = load_and_lint ~budget ?bound ~keep ~no_lint path in
  let* hom =
    try Ok (Rl_hom.Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep)
    with Invalid_argument m -> Error (Error.Internal m)
  in
  let verdict = Rl_hom.Hom.analyze ~budget hom ts in
  Format.printf "configurations examined: %d@."
    verdict.Rl_hom.Hom.configurations;
  match (verdict.Rl_hom.Hom.simple, verdict.Rl_hom.Hom.witness) with
  | true, _ ->
      Format.printf "SIMPLE: abstract relative-liveness verdicts transfer \
                     (Theorem 8.2)@.";
      Ok ()
  | false, Some w ->
      Format.printf "NOT SIMPLE: Definition 6.3 fails at the word %a@."
        (Word.pp (Nfa.alphabet ts))
        w;
      exit 1
  | false, None -> Error (Error.Internal "inconsistent analysis")

let simple_cmd =
  let doc = "decide simplicity (Definition 6.3) of a hiding abstraction" in
  Cmd.v (Cmd.info "simple" ~doc)
    Term.(
      const run_simple $ system_arg $ keep_arg $ max_states_arg $ timeout_arg
      $ bound_arg $ jobs_arg $ no_lint_arg)

(* --- decompose: safety/liveness classification --- *)

let run_decompose path formula_src max_states timeout bound _jobs no_lint =
  guarded @@ fun () ->
  let* f = parse_formula formula_src in
  let* ts = load_and_lint ?bound ~formula:f ~no_lint path in
  let alpha = Nfa.alphabet ts in
  let budget = Budget.create ?max_states ?timeout () in
  let clock = Budget.create ?timeout () in
  let b =
    Budget.with_phase budget "translate property" (fun () ->
        Rl_ltl.Translate.to_buchi ~budget ~alphabet:alpha
          ~labeling:(Rl_ltl.Semantics.canonical alpha)
          f)
  in
  Format.printf "property automaton: %d states@." (Buchi.states b);
  (* Each leg is printed before the next one runs, so a leg that gives
     up (exit 4) leaves the lines before it printed and none after it.
     Safety is relative safety over Σ^ω (Remark 1), decided like rs from
     the tableau's ¬φ under the command's budget; the liveness leg's
     antichain search ticks the same budget, so --max-states caps the
     states of both legs together. The decomposition leg shares only its
     wall clock; the Kupferman–Vardi complementation is capped by
     --max-states on its own. *)
  let safety =
    Relative.is_relative_safety ~budget
      ~system:(Classify.universal_buchi alpha)
      (Relative.ltl alpha f)
  in
  Format.printf "safety property: %b@." (Result.is_ok safety);
  Format.printf "liveness property: %b@."
    (Budget.with_phase budget "liveness pre(L) = Σ*" (fun () ->
         Classify.is_liveness ~budget b));
  let s, l = Classify.decompose ~budget:clock ?max_states b in
  Format.printf
    "decomposition (Alpern–Schneider): safety closure %d states, liveness \
     part %d states@."
    (Buchi.states s) (Buchi.states l);
  Ok ()

let decompose_cmd =
  let doc = "classify a property as safety/liveness and decompose it" in
  Cmd.v
    (Cmd.info "decompose" ~doc)
    Term.(
      const run_decompose $ system_arg $ formula_arg $ max_states_arg
      $ timeout_arg $ bound_arg $ jobs_arg $ no_lint_arg)

(* --- compose: parallel composition of systems --- *)

let systems_arg =
  let doc = "System files to compose (two or more)." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"SYSTEM..." ~doc)

let run_compose paths bound =
  guarded @@ fun () ->
  let* systems =
    List.fold_left
      (fun acc path ->
        let* acc = acc in
        let* ts = load_system ?bound path in
        Ok (ts :: acc))
      (Ok []) paths
  in
  match List.rev systems with
  | [] | [ _ ] -> Error (Error.Internal "need at least two systems")
  | systems ->
      let composed = Rl_compose.Compose.parallel_many systems in
      print_string (Ts_format.print_ts composed);
      Ok ()

let compose_cmd =
  let doc =
    "compose systems in parallel (synchronizing on shared action names) and \
     print the result as a transition system"
  in
  Cmd.v (Cmd.info "compose" ~doc)
    Term.(const run_compose $ systems_arg $ bound_arg)

(* --- lint: the full static-diagnostics registry --- *)

let lint_formula_arg =
  let doc = "Also lint this PLTL formula against the system." in
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "formula" ] ~docv:"FORMULA" ~doc)

let lint_keep_arg =
  let doc =
    "Also lint the hiding abstraction that keeps the comma-separated \
     $(docv) observable (enables the deep simplicity / maximal-word \
     passes)."
  in
  Arg.(
    value & opt (some (list string)) None & info [ "keep" ] ~docv:"ACTIONS" ~doc)

let format_arg =
  let doc = "Output format: $(docv) is one of 'human', 'json', 'sarif'." in
  Arg.(
    value
    & opt (Arg.enum [ ("human", `Human); ("json", `Json); ("sarif", `Sarif) ]) `Human
    & info [ "format" ] ~docv:"FORMAT" ~doc)

(* SYSTEM is optional here (unlike the deciders): --list-passes needs none *)
let lint_system_arg =
  let doc = "System file: a transition system, or a Petri net if it ends in .pn." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"SYSTEM" ~doc)

let fix_arg =
  let doc =
    "Apply the machine-applicable fixes (e.g. dead-transition removal, \
     RL501) to the model file and rewrite it in place. Idempotent; refuses \
     conflicting edits and any rewrite after which the model no longer \
     parses."
  in
  Arg.(value & flag & info [ "fix" ] ~doc)

let baseline_arg =
  let doc =
    "Suppress the findings recorded in the baseline file $(docv) and fail \
     (exit 2) if any new finding remains — the CI gate. Record the file \
     with --write-baseline."
  in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let write_baseline_arg =
  let doc =
    "Record the current findings as the baseline file $(docv) and exit 0."
  in
  Arg.(
    value & opt (some string) None & info [ "write-baseline" ] ~docv:"FILE" ~doc)

let list_passes_arg =
  let doc = "List the registered lint passes and exit." in
  Arg.(value & flag & info [ "list-passes" ] ~doc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let run_lint path formula_src keep format max_states timeout bound fix
    baseline_file write_baseline list_passes =
  (* only an explicit limit becomes the deep-pass budget; otherwise the
     passes fall back to their own internal cap *)
  let budget =
    match (max_states, timeout) with
    | None, None -> None
    | _ -> Some (Budget.create ?max_states ?timeout ())
  in
  guarded @@ fun () ->
  if list_passes then begin
    List.iter
      (fun p ->
        Format.printf "%-22s %-10s %s%s@." p.Lint.name
          (if p.Lint.deep then "deep" else "pre-flight")
          (String.concat "," p.Lint.codes)
          (if p.Lint.name = "dead-transitions" then " (fixable)" else ""))
      Lint.passes;
    Ok ()
  end
  else
    let* path =
      match path with
      | Some p -> Ok p
      | None ->
          Error
            (Error.Internal
               "a SYSTEM file is required unless --list-passes is given")
    in
    let parse_diags = ref [] in
    let collect d = parse_diags := d :: !parse_diags in
    (* the raw source backs the RL501 line spans and --fix; Petri nets
       have no line-per-transition correspondence *)
    let src =
      if Filename.check_suffix path ".pn" then None else Some (read_file path)
    in
    let locs =
      match src with
      | None -> []
      | Some text ->
          List.map
            (fun (t, l) ->
              (t, (l.Ts_format.line, l.Ts_format.start_col, l.Ts_format.end_col)))
            (Ts_format.transition_locs text)
    in
    let* sys = Ts_format.load_result ~on_diagnostic:collect ?budget ?bound path in
    let* formula =
      match formula_src with
      | None -> Ok None
      | Some s -> Result.map Option.some (parse_formula s)
    in
    let diags =
      Lint.run
        {
          Lint.empty with
          file = Some path;
          parse = List.rev !parse_diags;
          system = Some sys;
          formula;
          keep;
          budget;
          locs;
        }
    in
    if fix then begin
      match src with
      | None -> Error (Error.Internal "--fix supports only .ts models")
      | Some text -> (
          let* edits =
            Result.map_error
              (fun m -> Error.Internal m)
              (Rl_analysis.Fix.plan diags)
          in
          if edits = [] then begin
            Format.printf "no machine-applicable fixes@.";
            Ok ()
          end
          else
            let fixed = Rl_analysis.Fix.apply ~src:text edits in
            match Ts_format.parse_ts_result ~file:path fixed with
            | Error e ->
                Error
                  (Error.Internal
                     (Format.asprintf
                        "refusing --fix: the rewritten model no longer \
                         parses (%a)"
                        Error.pp e))
            | Ok _ ->
                write_file path fixed;
                Format.printf "%s: applied %d fix%s@." path (List.length edits)
                  (if List.length edits = 1 then "" else "es");
                Ok ())
    end
    else
      match write_baseline with
      | Some bpath ->
          write_file bpath (Rl_analysis.Baseline.render diags);
          Format.printf "%s: recorded %d finding%s@." bpath (List.length diags)
            (if List.length diags = 1 then "" else "s");
          Ok ()
      | None ->
          let* diags, suppressed =
            match baseline_file with
            | None -> Ok (diags, 0)
            | Some bpath ->
                let* fps =
                  Result.map_error
                    (fun m -> Error.Internal (bpath ^ ": " ^ m))
                    (Rl_analysis.Baseline.parse (read_file bpath))
                in
                Ok (Rl_analysis.Baseline.filter ~baseline:fps diags)
          in
          (match format with
          | `Human ->
              List.iter
                (fun d ->
                  Format.printf "%a@." Diagnostic.pp d;
                  if d.Diagnostic.fix <> None then
                    Format.printf "%a@." Diagnostic.pp_fix d)
                diags;
              Format.printf "%s%s@."
                (Diagnostic.summary diags)
                (if suppressed > 0 then
                   Printf.sprintf " (%d suppressed by baseline)" suppressed
                 else "")
          | `Json -> print_string (Diagnostic.report_json diags)
          | `Sarif -> print_string (Diagnostic.report_sarif ~rules:Lint.rules diags));
          (* with a baseline, any unsuppressed finding is new and fails
             the gate; without one, only Errors do *)
          let failing =
            if baseline_file <> None then diags <> []
            else List.exists Diagnostic.is_error diags
          in
          if failing then exit 2 else Ok ()

let lint_cmd =
  let doc =
    "run the static-diagnostics registry on a system (and optionally a \
     formula and an abstraction) without checking anything"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run_lint $ lint_system_arg $ lint_formula_arg $ lint_keep_arg
      $ format_arg $ max_states_arg $ timeout_arg $ bound_arg $ fix_arg
      $ baseline_arg $ write_baseline_arg $ list_passes_arg)

(* --- info / dot --- *)

let run_info path bound =
  guarded @@ fun () ->
  let* ts = load_system ?bound path in
  Format.printf "states: %d@." (Nfa.states ts);
  Format.printf "alphabet (%d): %a@."
    (Alphabet.size (Nfa.alphabet ts))
    Alphabet.pp (Nfa.alphabet ts);
  Format.printf "transitions: %d@." (List.length (Nfa.transitions ts));
  let deadlocks =
    List.filter
      (fun q ->
        List.for_all
          (fun a -> Nfa.successors ts q a = [])
          (Alphabet.symbols (Nfa.alphabet ts)))
      (List.init (Nfa.states ts) Fun.id)
  in
  Format.printf "deadlock states: %d@." (List.length deadlocks);
  Ok ()

let info_cmd =
  let doc = "print system statistics" in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run_info $ system_arg $ bound_arg)

let run_dot path bound =
  guarded @@ fun () ->
  let* ts = load_system ?bound path in
  print_string (Nfa.to_dot ts);
  Ok ()

let dot_cmd =
  let doc = "emit the system as a GraphViz digraph" in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run_dot $ system_arg $ bound_arg)

let exits =
  [
    Cmd.Exit.info 0 ~doc:"the property holds.";
    Cmd.Exit.info 1 ~doc:"the property fails; a certified witness was printed.";
    Cmd.Exit.info 2 ~doc:"usage, input, or internal error.";
    Cmd.Exit.info 3
      ~doc:"the analysis completed but no conclusion transfers (abstract).";
    Cmd.Exit.info 4
      ~doc:
        "a resource budget (--max-states / --timeout) was exhausted; a \
         partial-progress report was printed.";
  ]

let main =
  let doc = "relative liveness and behavior abstraction checking" in
  let info = Cmd.info "rlcheck" ~version:"1.0.0" ~doc ~exits in
  Cmd.group info
    [
      check_cmd "sat" `Sat "classical satisfaction Lω ⊆ P";
      check_cmd "rl" `Rl "relative liveness (Definition 4.1)";
      check_cmd "rs" `Rs "relative safety (Definition 4.2)";
      abstract_cmd;
      impl_cmd;
      fair_cmd;
      simple_cmd;
      lint_cmd;
      decompose_cmd;
      compose_cmd;
      info_cmd;
      dot_cmd;
    ]

(* Last-resort crash handler: nothing escapes as an uncaught exception.
   [~catch:false] lets exceptions out of cmdliner so the contract above
   is kept even for defects guarded code did not anticipate. *)
let () =
  (* engine GC defaults, or the RLCHECK_GC override *)
  Stats.gc_tune ();
  match Cmd.eval ~catch:false main with
  (* cmdliner reports its own CLI-parsing errors with 124; fold them
     into the documented usage exit *)
  | 124 -> exit 2
  | code -> exit code
  | exception Budget.Exhausted e ->
      Format.eprintf "rlcheck: %a@." Budget.pp_exhaustion e;
      exit 4
  | exception Complement.Too_large limit ->
      Format.eprintf
        "rlcheck: state limit %d reached during Büchi complementation@." limit;
      exit 4
  | exception e ->
      Format.eprintf "rlcheck: internal error: %s@." (Printexc.to_string e);
      exit 2
