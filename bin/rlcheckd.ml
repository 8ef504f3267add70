(* rlcheckd — the checking service and its client.

   Subcommands:
     serve     run the daemon on a Unix socket (foreground)
     check     submit one job to a running daemon; prints and exits
               exactly like the corresponding `rlcheck` invocation
     ping      liveness probe (optionally waiting for the daemon to
               come up — the test suites' startup barrier)
     stats     dump the daemon's JSON health report
     shutdown  ask the daemon to exit

   The wire protocol is documented in lib/service/daemon.mli. The
   client side here is deliberately thin: one JSON line out, one line
   back, no retries beyond `ping --wait`. *)

open Cmdliner
module J = Rl_service.Jsonx
module Daemon = Rl_service.Daemon

let fail fmt = Format.kasprintf (fun m -> Format.eprintf "rlcheckd: %s@." m; exit 2) fmt

(* --- the one-line client --- *)

let roundtrip socket_path line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc line;
      output_char oc '\n';
      flush oc;
      input_line ic)

let roundtrip_or_die socket_path line =
  match roundtrip socket_path line with
  | reply -> reply
  | exception Unix.Unix_error (e, _, _) ->
      fail "cannot reach %s: %s" socket_path (Unix.error_message e)
  | exception End_of_file ->
      fail "daemon at %s closed the connection without replying" socket_path

let parse_reply line =
  match J.parse line with
  | Ok doc -> doc
  | Error msg -> fail "malformed reply %S: %s" line msg

(* --- common arguments --- *)

let socket_arg =
  let doc = "Path of the daemon's Unix socket." in
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

(* --- serve --- *)

let jobs_arg =
  let doc =
    "Accepted for compatibility with $(b,rlcheck) and ignored: every job \
     is decided on one domain."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Default wall-clock deadline per check batch, in seconds; a request's \
     own deadline_s overrides it. Jobs past the deadline report status \
     'deadline'/'skipped' with exit code 4."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let cache_cap_arg =
  let doc =
    "Capacity of the request cache, in models (0 = unbounded): one unit \
     holds one model's parse, pre-flight lint report and verdict, so the \
     LRU keeps at most 3 * $(docv) entries."
  in
  Arg.(value & opt int 256 & info [ "model-cache" ] ~docv:"N" ~doc)

let max_batch_arg =
  let doc = "Refuse check batches with more than $(docv) jobs." in
  Arg.(value & opt int 256 & info [ "max-batch" ] ~docv:"N" ~doc)

let max_connections_arg =
  let doc =
    "Serve at most $(docv) concurrent connections; one over the limit is \
     answered with a 'server busy' error line and closed."
  in
  Arg.(value & opt int 32 & info [ "max-connections" ] ~docv:"N" ~doc)

let quiet_arg =
  let doc = "Suppress the stderr log lines." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let run_serve socket _jobs deadline_s model_cache_capacity max_batch
    max_connections quiet =
  match
    Daemon.serve
      { Daemon.socket_path = socket; deadline_s; model_cache_capacity;
        max_batch; max_connections; quiet }
  with
  | () -> exit 0
  | exception Invalid_argument m -> fail "%s" m
  | exception Unix.Unix_error (e, op, _) ->
      fail "%s: %s" op (Unix.error_message e)

let serve_cmd =
  let doc = "run the checking daemon on a Unix socket (foreground)" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ socket_arg $ jobs_arg $ deadline_arg $ cache_cap_arg
      $ max_batch_arg $ max_connections_arg $ quiet_arg)

(* --- ping --- *)

let wait_arg =
  let doc =
    "Keep retrying for up to $(docv) seconds while the daemon comes up \
     (0 = one attempt). The test suites' startup barrier."
  in
  Arg.(value & opt float 0. & info [ "wait" ] ~docv:"SECONDS" ~doc)

let run_ping socket wait =
  let deadline = Unix.gettimeofday () +. wait in
  let rec go () =
    match roundtrip socket {|{"op":"ping"}|} with
    | line ->
        let doc = parse_reply line in
        if J.bool_member "ok" doc = Some true then begin
          print_endline "pong";
          exit 0
        end
        else fail "unexpected reply: %s" line
    | exception
        ( Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        | End_of_file )
      when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        go ()
    | exception Unix.Unix_error (e, _, _) ->
        fail "cannot reach %s: %s" socket (Unix.error_message e)
    | exception End_of_file ->
        fail "daemon at %s closed the connection without replying" socket
  in
  go ()

let ping_cmd =
  let doc = "check that the daemon is alive" in
  Cmd.v (Cmd.info "ping" ~doc) Term.(const run_ping $ socket_arg $ wait_arg)

(* --- stats / shutdown --- *)

let run_stats socket =
  let doc = parse_reply (roundtrip_or_die socket {|{"op":"stats"}|}) in
  match J.member "stats" doc with
  | Some stats -> print_endline (J.to_string stats); exit 0
  | None -> fail "unexpected reply: missing \"stats\""

let stats_cmd =
  let doc = "print the daemon's JSON health report" in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run_stats $ socket_arg)

let run_shutdown socket =
  let doc = parse_reply (roundtrip_or_die socket {|{"op":"shutdown"}|}) in
  if J.bool_member "ok" doc = Some true then begin
    print_endline "shutdown requested";
    exit 0
  end
  else fail "daemon refused to shut down"

let shutdown_cmd =
  let doc = "ask the daemon to exit (it removes its socket file)" in
  Cmd.v (Cmd.info "shutdown" ~doc) Term.(const run_shutdown $ socket_arg)

(* --- check: the client-side mirror of `rlcheck sat/rl/rs` --- *)

let kind_arg =
  let doc = "Check kind: $(docv) is one of 'sat', 'rl', 'rs'." in
  Arg.(
    value
    & opt (Arg.enum [ ("sat", "sat"); ("rl", "rl"); ("rs", "rs") ]) "sat"
    & info [ "k"; "kind" ] ~docv:"KIND" ~doc)

let system_arg =
  let doc = "System file (resolved by the daemon, relative to its cwd)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)

let formula_arg =
  let doc = "PLTL formula, e.g. '[]<> result'." in
  Arg.(
    required
    & opt (some string) None
    & info [ "f"; "formula" ] ~docv:"FORMULA" ~doc)

let max_states_arg =
  let doc = "Per-job state budget (exit 4 on exhaustion)." in
  Arg.(value & opt (some int) None & info [ "max-states" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc = "Per-job cooperative time budget, in seconds." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let bound_arg =
  let doc = "Token bound per place for Petri-net reachability." in
  Arg.(value & opt (some int) None & info [ "bound" ] ~docv:"K" ~doc)

let no_lint_arg =
  let doc = "Skip the pre-flight lint phase." in
  Arg.(value & flag & info [ "no-lint" ] ~doc)

let job_deadline_arg =
  let doc =
    "Wall-clock deadline for this request, in seconds (overrides the \
     daemon's default)."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let num n = J.Num (float_of_int n)

let run_client_check socket kind path formula max_states timeout bound no_lint
    deadline =
  let opt name f v = match v with Some v -> [ (name, f v) ] | None -> [] in
  let job =
    J.Obj
      ([ ("kind", J.Str kind); ("path", J.Str path); ("formula", J.Str formula) ]
      @ opt "max_states" num max_states
      @ opt "timeout_s" (fun t -> J.Num t) timeout
      @ opt "bound" num bound
      @ if no_lint then [ ("no_lint", J.Bool true) ] else [])
  in
  let request =
    J.Obj
      ([ ("op", J.Str "check") ]
      @ opt "deadline_s" (fun d -> J.Num d) deadline
      @ [ ("jobs", J.Arr [ job ]) ])
  in
  let doc = parse_reply (roundtrip_or_die socket (J.to_string request)) in
  if J.bool_member "ok" doc <> Some true then
    fail "%s"
      (Option.value ~default:"request failed" (J.str_member "error" doc));
  match J.arr_member "results" doc with
  | Some [ r ] ->
      List.iter
        (fun d ->
          match J.str_member "rendered" d with
          | Some s -> Format.eprintf "rlcheckd: %s@." s
          | None -> ())
        (Option.value ~default:[] (J.arr_member "diagnostics" r));
      (match J.str_member "status" r with
      | Some ("holds" | "fails") -> (
          match J.str_member "message" r with
          | Some m when m <> "" -> print_endline m
          | _ -> ())
      | _ -> (
          match J.str_member "error" r with
          | Some e -> Format.eprintf "rlcheckd: %s@." e
          | None -> ()));
      exit (Option.value ~default:2 (J.int_member "exit_code" r))
  | _ -> fail "unexpected reply: expected exactly one result"

let check_cmd =
  let doc =
    "submit one (system, formula, kind) job to a running daemon; output and \
     exit code mirror the corresponding $(b,rlcheck) invocation"
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run_client_check $ socket_arg $ kind_arg $ system_arg $ formula_arg
      $ max_states_arg $ timeout_arg $ bound_arg $ no_lint_arg
      $ job_deadline_arg)

(* --- entry --- *)

let exits =
  [
    Cmd.Exit.info 0 ~doc:"success (for $(b,check): the property holds).";
    Cmd.Exit.info 1 ~doc:"$(b,check): the property fails; witness printed.";
    Cmd.Exit.info 2 ~doc:"usage, transport, input, or internal error.";
    Cmd.Exit.info 4
      ~doc:
        "$(b,check): a resource budget or the request deadline was \
         exhausted.";
  ]

let main =
  let doc = "relative liveness checking service (daemon and client)" in
  let info = Cmd.info "rlcheckd" ~version:"1.0.0" ~doc ~exits in
  Cmd.group info
    [ serve_cmd; check_cmd; ping_cmd; stats_cmd; shutdown_cmd ]

let () =
  match Cmd.eval ~catch:false main with
  | 124 -> exit 2
  | code -> exit code
  | exception e ->
      Format.eprintf "rlcheckd: internal error: %s@." (Printexc.to_string e);
      exit 2
