(* The connection supervisor and the wire protocol; all checking goes
   through Request, all isolation through Supervisor.

   Concurrency model: the accept loop spawns one handler thread per
   connection, bounded by [max_connections] (a connection over the limit
   gets an error reply and is closed). Within a connection, control ops
   (ping/stats/shutdown) are answered inline on the handler thread,
   while check batches run on per-request worker threads — up to
   [max_inflight] of them, beyond which a batch runs inline so an
   abusive client throttles itself, not the daemon. Replies to one
   connection are serialized by a per-connection write mutex and carry
   the client's request id, so interleaved replies stay attributable.
   Every job is decided on one domain. All connections share the request
   cache and the simulation cache, each behind its own lock; the
   daemon's own counters sit behind [d.lock].

   Failure domains, from the inside out: a job that crashes is a typed
   error in its own result slot; a job that blows the batch deadline is
   abandoned (budget cancelled, worker thread orphaned) and the batch
   cut short with per-job partial results; a connection that sends
   garbage gets an error reply and may try again; a connection whose
   handler blows up is closed alone. Nothing in a request's path can
   take the accept loop down short of the process being killed.

   Shutdown drains: the handler that reads [shutdown] replies, then
   flips [d.stopping], wakes the acceptor with a self-connection, and
   half-closes every connection's read side ([SHUTDOWN_RECEIVE]) — in-
   flight batches run to completion and write their replies, each
   handler then sees end-of-file and exits, and the acceptor joins them
   all before removing the socket. *)

module Budget = Rl_engine.Budget
module Error = Rl_engine.Error
module Fault = Rl_engine.Fault
module Simcache = Rl_engine.Simcache
module Stats = Rl_engine.Stats
module Diagnostic = Rl_analysis.Diagnostic
module J = Jsonx

type config = {
  socket_path : string;
  deadline_s : float option;
  model_cache_capacity : int;
  max_batch : int;
  max_connections : int;
  quiet : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    deadline_s = None;
    model_cache_capacity = 256;
    max_batch = 256;
    max_connections = 32;
    quiet = false;
  }

(* concurrent check requests on ONE connection before the handler stops
   reading and runs batches inline (per-client backpressure) *)
let max_inflight = 4

type counters = {
  mutable requests : int; (* protocol ops answered *)
  mutable batches : int;
  mutable jobs_run : int;
  mutable holds : int;
  mutable fails : int;
  mutable blocked : int;
  mutable errors : int;
  mutable deadlines : int; (* jobs abandoned by the watchdog *)
  mutable skipped : int; (* jobs never started: batch deadline gone *)
  mutable bad_requests : int;
  mutable connections : int; (* accepted and handled *)
  mutable rejected : int; (* refused at the connection limit *)
}

type t = {
  config : config;
  started : float;
  cache : Request.cache;
  counters : counters;
  lock : Mutex.t; (* counters, connection registry *)
  mutable stopping : bool;
  conns : (int, Unix.file_descr) Hashtbl.t; (* live connections *)
  handlers : (int, Thread.t) Hashtbl.t; (* their handler threads *)
  mutable finished : int list; (* handler ids ready to be reaped *)
  mutable next_conn : int;
}

let log d fmt =
  if d.config.quiet then Format.ifprintf Format.err_formatter fmt
  else Format.eprintf fmt

let bump d f =
  Mutex.lock d.lock;
  f d.counters;
  Mutex.unlock d.lock

(* --- rendering --- *)

let severity_json s = J.Str (Diagnostic.severity_label s)

let diagnostic_json (d : Diagnostic.t) =
  J.Obj
    [
      ("code", J.Str d.Diagnostic.code);
      ("severity", severity_json d.Diagnostic.severity);
      ( "file",
        match d.Diagnostic.file with Some f -> J.Str f | None -> J.Null );
      ( "line",
        match d.Diagnostic.span with
        | Some s -> J.Num (float_of_int s.Diagnostic.start_line)
        | None -> J.Null );
      ("message", J.Str d.Diagnostic.message);
      ("rendered", J.Str (Format.asprintf "%a" Diagnostic.pp d));
    ]

let reply_json index (r : Request.reply) =
  let status, error =
    match r.Request.status with
    | Request.Holds -> ("holds", None)
    | Request.Fails -> ("fails", None)
    | Request.Blocked ->
        ("blocked", Option.map (fun s -> s) r.Request.blocked_summary)
    | Request.Failed err -> ("error", Some (Error.to_string err))
  in
  J.Obj
    [
      ("job", J.Num (float_of_int index));
      ("status", J.Str status);
      ("exit_code", J.Num (float_of_int (Request.exit_code r)));
      ("message", J.Str r.Request.message);
      ( "witness",
        match r.Request.witness with Some w -> J.Str w | None -> J.Null );
      ("error", match error with Some e -> J.Str e | None -> J.Null);
      ( "diagnostics",
        J.Arr (List.map diagnostic_json r.Request.diagnostics) );
      ("states", J.Num (float_of_int r.Request.states));
      ("elapsed_s", J.Num r.Request.elapsed_s);
    ]

let deadline_json index (e : Budget.exhaustion) ~started =
  J.Obj
    [
      ("job", J.Num (float_of_int index));
      ("status", J.Str (if started then "deadline" else "skipped"));
      ("exit_code", J.Num 4.);
      ("message", J.Str "");
      ("witness", J.Null);
      ("error", J.Str (Format.asprintf "%a" Budget.pp_exhaustion e));
      ("diagnostics", J.Arr []);
      ("states", J.Num (float_of_int e.Budget.states_explored));
      ("elapsed_s", J.Null);
    ]

(* --- job parsing --- *)

let parse_job j =
  let open Request in
  match J.str_member "kind" j with
  | None -> Error "job: missing \"kind\""
  | Some k -> (
      match kind_of_name k with
      | None -> Error (Printf.sprintf "job: unknown kind %S" k)
      | Some kind -> (
          let model =
            match (J.str_member "path" j, J.str_member "model" j) with
            | Some path, None -> Ok (File path)
            | None, Some text ->
                let name =
                  Option.value ~default:"<inline>" (J.str_member "name" j)
                in
                Ok (Inline { name; text })
            | Some _, Some _ -> Error "job: both \"path\" and \"model\" given"
            | None, None -> Error "job: need \"path\" or \"model\""
          in
          match (model, J.str_member "formula" j) with
          | Error e, _ -> Error e
          | _, None -> Error "job: missing \"formula\""
          | Ok model, Some formula ->
              Ok
                {
                  kind;
                  model;
                  formula;
                  max_states = J.int_member "max_states" j;
                  timeout = J.num_member "timeout_s" j;
                  bound = J.int_member "bound" j;
                  no_lint =
                    Option.value ~default:false (J.bool_member "no_lint" j);
                }))

(* --- the batch executor: sequential jobs, one shared wall clock --- *)

let run_batch d ~deadline_s jobs =
  bump d (fun c -> c.batches <- c.batches + 1);
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun s -> t0 +. s) deadline_s in
  let partial = ref false in
  let results =
    List.mapi
      (fun i job ->
        let remaining =
          Option.map (fun dl -> dl -. Unix.gettimeofday ()) deadline
        in
        match remaining with
        | Some r when r <= 0. ->
            (* the batch's clock ran out on an earlier job *)
            bump d (fun c -> c.skipped <- c.skipped + 1);
            partial := true;
            deadline_json i
              {
                Budget.resource = `Time;
                phase = "batch deadline";
                states_explored = 0;
                max_states = None;
              }
              ~started:false
        | _ -> (
            (* handlers and batch threads share one domain's runtime
               lock: drop it for a moment between jobs, so a control op
               read on this or any connection is answered within one job
               rather than behind the whole batch. A zero delay releases
               the lock and contends for it again; [Thread.yield] hands
               it to a waiting thread far less reliably. *)
            Thread.delay 0.;
            bump d (fun c -> c.jobs_run <- c.jobs_run + 1);
            (* the budget is created out here so the watchdog holds a
               handle: on deadline it cancels it, and a cooperative body
               unwinds at its next tick instead of running to completion
               as a zombie *)
            let budget = Request.budget_of_job job in
            let body () = Request.run ~cache:d.cache ~budget job in
            match
              Supervisor.supervise ?deadline_s:remaining ~budget body
            with
            | Supervisor.Completed reply ->
                bump d (fun c ->
                    match reply.Request.status with
                    | Request.Holds -> c.holds <- c.holds + 1
                    | Request.Fails -> c.fails <- c.fails + 1
                    | Request.Blocked -> c.blocked <- c.blocked + 1
                    | Request.Failed _ -> c.errors <- c.errors + 1);
                reply_json i reply
            | Supervisor.Crashed err ->
                bump d (fun c -> c.errors <- c.errors + 1);
                reply_json i
                  {
                    Request.status = Request.Failed err;
                    message = "";
                    witness = None;
                    diagnostics = [];
                    blocked_summary = None;
                    states = 0;
                    elapsed_s = Unix.gettimeofday () -. t0;
                  }
            | Supervisor.Deadline e ->
                bump d (fun c -> c.deadlines <- c.deadlines + 1);
                partial := true;
                deadline_json i e ~started:true))
      jobs
  in
  (results, !partial)

(* --- stats --- *)

let stats_json d =
  (* counters are mutated under [d.lock] by every handler; snapshot them
     the same way so a stats reply is internally consistent *)
  Mutex.lock d.lock;
  let c = { d.counters with requests = d.counters.requests } in
  let active_conns = Hashtbl.length d.conns in
  Mutex.unlock d.lock;
  let sim_hits, sim_misses, sim_entries = Simcache.stats () in
  let rate h m = if h + m = 0 then J.Null else J.Num (float_of_int h /. float_of_int (h + m)) in
  let r = Request.stats d.cache in
  J.Obj
    [
      ("uptime_s", J.Num (Unix.gettimeofday () -. d.started));
      ("requests", J.Num (float_of_int c.requests));
      ("bad_requests", J.Num (float_of_int c.bad_requests));
      ( "connections",
        J.Obj
          [
            ("active", J.Num (float_of_int active_conns));
            ("total", J.Num (float_of_int c.connections));
            ("rejected", J.Num (float_of_int c.rejected));
            ("limit", J.Num (float_of_int d.config.max_connections));
          ] );
      ( "jobs",
        J.Obj
          [
            ("batches", J.Num (float_of_int c.batches));
            ("run", J.Num (float_of_int c.jobs_run));
            ("holds", J.Num (float_of_int c.holds));
            ("fails", J.Num (float_of_int c.fails));
            ("blocked", J.Num (float_of_int c.blocked));
            ("errors", J.Num (float_of_int c.errors));
            ("deadlines", J.Num (float_of_int c.deadlines));
            ("skipped", J.Num (float_of_int c.skipped));
          ] );
      (* the engine's process-lifetime hot-path counters — the same
         figures `rlcheck --stats` reports per run, but monotonic since
         daemon start (clients diff successive stats replies) *)
      ( "hotpath",
        let s = Stats.snapshot () in
        J.Obj
          [
            ("nodes", J.Num (float_of_int s.Stats.nodes));
            ("antichain_hits", J.Num (float_of_int s.Stats.antichain_hits));
            ("evictions", J.Num (float_of_int s.Stats.evictions));
            ( "arena_high_water_words",
              J.Num (float_of_int s.Stats.arena_high_water_words) );
            ("minor_words", J.Num s.Stats.minor_words);
            ("promoted_words", J.Num s.Stats.promoted_words);
            ("major_words", J.Num s.Stats.major_words);
            ("minor_collections", J.Num (float_of_int s.Stats.minor_collections));
            ("major_collections", J.Num (float_of_int s.Stats.major_collections));
          ] );
      ( "simcache",
        J.Obj
          [
            ("hits", J.Num (float_of_int sim_hits));
            ("misses", J.Num (float_of_int sim_misses));
            ("entries", J.Num (float_of_int sim_entries));
            ("evictions", J.Num (float_of_int (Simcache.evictions ())));
            ("capacity", J.Num (float_of_int (Simcache.capacity ())));
            ("hit_rate", rate sim_hits sim_misses);
          ] );
      ( "recheck",
        J.Obj
          [
            ("memo_hits", J.Num (float_of_int r.decide.hits));
            ("decides", J.Num (float_of_int r.decides));
          ] );
      (* the shared request cache: its size, plus the parse lookups *)
      ( "model_cache",
        J.Obj
          [
            ("hits", J.Num (float_of_int r.parse.hits));
            ("misses", J.Num (float_of_int r.parse.misses));
            ("entries", J.Num (float_of_int r.entries));
            ("evictions", J.Num (float_of_int r.evictions));
            ("hit_rate", rate r.parse.hits r.parse.misses);
          ] );
      ( "lint_stats",
        J.Obj
          [
            ("hits", J.Num (float_of_int r.lint.hits));
            ("misses", J.Num (float_of_int r.lint.misses));
            ("hit_rate", rate r.lint.hits r.lint.misses);
          ] );
      ("zombies", J.Num (float_of_int (Supervisor.zombies ())));
      ( "faults",
        J.Obj
          (("armed", J.Bool (Fault.armed ()))
          :: List.map
               (fun p -> (Fault.name p, J.Num (float_of_int (Fault.fired p))))
               Fault.all) );
    ]

(* --- the protocol loop --- *)

exception Stop

(* One parsed request line, sorted by where it runs: control ops are
   answered inline on the connection's handler thread, check batches may
   be handed to a worker so later requests on the same connection (and
   their ids) interleave with a long batch. *)
type action =
  | Immediate of J.t * bool (* reply, initiate shutdown *)
  | Batch of {
      id : (string * J.t) list; (* the echoed request id, if any *)
      jobs : Request.job list;
      deadline_s : float option;
    }

let classify_line d line : action =
  match J.parse line with
  | Error msg ->
      bump d (fun c -> c.bad_requests <- c.bad_requests + 1);
      ( Immediate
          ( J.Obj [ ("ok", J.Bool false); ("error", J.Str ("bad JSON: " ^ msg)) ],
            false ) )
  | Ok doc -> (
      let id = match J.member "id" doc with Some v -> [ ("id", v) ] | None -> [] in
      let reply ?(stop = false) fields = Immediate (J.Obj (id @ fields), stop) in
      let bad fields =
        bump d (fun c -> c.bad_requests <- c.bad_requests + 1);
        reply fields
      in
      bump d (fun c -> c.requests <- c.requests + 1);
      match J.str_member "op" doc with
      | Some "ping" -> reply [ ("ok", J.Bool true); ("pong", J.Bool true) ]
      | Some "stats" ->
          reply [ ("ok", J.Bool true); ("stats", stats_json d) ]
      | Some "shutdown" ->
          reply ~stop:true [ ("ok", J.Bool true); ("stopping", J.Bool true) ]
      | Some "check" -> (
          match J.arr_member "jobs" doc with
          | None ->
              bad
                [ ("ok", J.Bool false); ("error", J.Str "check: missing \"jobs\" array") ]
          | Some raw_jobs when List.length raw_jobs > d.config.max_batch ->
              bad
                [
                  ("ok", J.Bool false);
                  ( "error",
                    J.Str
                      (Printf.sprintf
                         "check: batch of %d jobs exceeds the limit of %d"
                         (List.length raw_jobs) d.config.max_batch) );
                ]
          | Some raw_jobs -> (
              let parsed = List.map parse_job raw_jobs in
              match
                List.find_map
                  (function Error e -> Some e | Ok _ -> None)
                  parsed
              with
              | Some e -> bad [ ("ok", J.Bool false); ("error", J.Str e) ]
              | None ->
                  let jobs =
                    List.filter_map
                      (function Ok j -> Some j | Error _ -> None)
                      parsed
                  in
                  let deadline_s =
                    match J.num_member "deadline_s" doc with
                    | Some s -> Some s
                    | None -> d.config.deadline_s
                  in
                  Batch { id; jobs; deadline_s }))
      | Some op ->
          bad
            [
              ("ok", J.Bool false);
              ("error", J.Str (Printf.sprintf "unknown op %S" op));
            ]
      | None -> bad [ ("ok", J.Bool false); ("error", J.Str "missing \"op\"") ])

(* Begin the drain: flip [stopping], half-close every connection's read
   side so in-flight batches finish and their handlers see end-of-file,
   and wake the acceptor with a throwaway self-connection. Idempotent —
   only the first caller acts. *)
let initiate_shutdown d =
  Mutex.lock d.lock;
  let first = not d.stopping in
  d.stopping <- true;
  let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) d.conns [] in
  Mutex.unlock d.lock;
  if first then begin
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      fds;
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect s (Unix.ADDR_UNIX d.config.socket_path)
     with Unix.Unix_error _ -> ());
    try Unix.close s with Unix.Unix_error _ -> ()
  end

let handle_connection d fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* one reply line at a time, whichever thread produced it *)
  let wlock = Mutex.create () in
  let send json =
    Mutex.lock wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wlock)
      (fun () ->
        output_string oc (J.to_string json);
        output_char oc '\n';
        flush oc)
  in
  let inflight = ref 0 (* guarded by wlock *) in
  let workers = ref [] (* this connection's batch threads, joined at EOF *) in
  let run_and_send ~id ~deadline_s jobs =
    let results, partial = run_batch d ~deadline_s jobs in
    send
      (J.Obj
         (id
         @ [
             ("ok", J.Bool true);
             ("partial", J.Bool partial);
             ("results", J.Arr results);
           ]))
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        if String.trim line <> "" then begin
          match classify_line d line with
          | Immediate (reply, stop) ->
              send reply;
              if stop then raise Stop
          | Batch { id; jobs; deadline_s } ->
              let spawn =
                Mutex.lock wlock;
                let below = !inflight < max_inflight in
                if below then incr inflight;
                Mutex.unlock wlock;
                below
              in
              if spawn then
                let t =
                  Thread.create
                    (fun () ->
                      Fun.protect
                        ~finally:(fun () ->
                          Mutex.lock wlock;
                          decr inflight;
                          Mutex.unlock wlock)
                        (fun () ->
                          try run_and_send ~id ~deadline_s jobs
                          with e ->
                            (* a dead client's EPIPE lands here; anything
                               else is logged, never fatal *)
                            log d "rlcheckd: batch reply failed: %s@."
                              (Printexc.to_string e)))
                    ()
                in
                workers := t :: !workers
              else
                (* at the in-flight bound: run on the connection thread,
                   so an abusive client throttles itself *)
                run_and_send ~id ~deadline_s jobs
        end;
        loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* replies of in-flight batches must drain before the fd closes *)
      List.iter Thread.join !workers;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match loop () with () -> () | exception Stop -> initiate_shutdown d)

let rec accept_retry sock =
  match Unix.accept sock with
  | conn -> conn
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_retry sock

(* Join handler threads that announced completion — instant, and it
   keeps the registry from growing with every connection ever served. *)
let reap d =
  Mutex.lock d.lock;
  let done_ = d.finished in
  d.finished <- [];
  let ts =
    List.filter_map
      (fun id ->
        let t = Hashtbl.find_opt d.handlers id in
        Hashtbl.remove d.handlers id;
        t)
      done_
  in
  Mutex.unlock d.lock;
  List.iter Thread.join ts

(* A socket file already at our path is either debris from a killed
   daemon or the live socket of a running one; only a connect can tell
   them apart. Unlinking a live daemon's socket would silently split the
   service in two, so that case refuses loudly. *)
let claim_socket_path path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Fun.protect
          ~finally:(fun () ->
            try Unix.close probe with Unix.Unix_error _ -> ())
          (fun () ->
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> true
            | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false
            | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false)
      in
      if live then
        invalid_arg
          (Printf.sprintf
             "%s is in use by a running daemon (shut it down first, or \
              pick another socket path)"
             path)
      else (
        try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ()))
  | _ -> invalid_arg (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let serve config =
  Stats.gc_tune ();
  let d =
    {
      config;
      started = Unix.gettimeofday ();
      cache = Request.cache ~capacity:config.model_cache_capacity ();
      counters =
        {
          requests = 0;
          batches = 0;
          jobs_run = 0;
          holds = 0;
          fails = 0;
          blocked = 0;
          errors = 0;
          deadlines = 0;
          skipped = 0;
          bad_requests = 0;
          connections = 0;
          rejected = 0;
        };
      lock = Mutex.create ();
      stopping = false;
      conns = Hashtbl.create 16;
      handlers = Hashtbl.create 16;
      finished = [];
      next_conn = 0;
    }
  in
  (* a client that hangs up mid-reply must cost an EPIPE error on the
     write, not a SIGPIPE death of the whole daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  claim_socket_path config.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink config.socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
      Unix.listen sock 16;
      log d "rlcheckd: listening on %s (connections: %d)@."
        config.socket_path config.max_connections;
      let refuse fd active =
        bump d (fun c -> c.rejected <- c.rejected + 1);
        let oc = Unix.out_channel_of_descr fd in
        (try
           output_string oc
             (J.to_string
                (J.Obj
                   [
                     ("ok", J.Bool false);
                     ( "error",
                       J.Str
                         (Printf.sprintf
                            "server busy: %d connections (limit %d)" active
                            config.max_connections) );
                   ]));
           output_char oc '\n';
           flush oc
         with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let spawn_handler fd =
        bump d (fun c -> c.connections <- c.connections + 1);
        Mutex.lock d.lock;
        let cid = d.next_conn in
        d.next_conn <- cid + 1;
        Hashtbl.replace d.conns cid fd;
        Mutex.unlock d.lock;
        let t =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Mutex.lock d.lock;
                  Hashtbl.remove d.conns cid;
                  d.finished <- cid :: d.finished;
                  Mutex.unlock d.lock)
                (fun () ->
                  try handle_connection d fd
                  with e ->
                    (* a connection that blows up must not take the
                       daemon down *)
                    bump d (fun c -> c.bad_requests <- c.bad_requests + 1);
                    log d "rlcheckd: connection error: %s@."
                      (Printexc.to_string e)))
            ()
        in
        Mutex.lock d.lock;
        Hashtbl.replace d.handlers cid t;
        Mutex.unlock d.lock
      in
      let rec loop () =
        let fd, _ = accept_retry sock in
        reap d;
        Mutex.lock d.lock;
        let stopping = d.stopping in
        let active = Hashtbl.length d.conns in
        Mutex.unlock d.lock;
        if stopping then
          (* the wake-up self-connection, or a client racing shutdown *)
          try Unix.close fd with Unix.Unix_error _ -> ()
        else begin
          if active >= config.max_connections then refuse fd active
          else spawn_handler fd;
          loop ()
        end
      in
      loop ();
      (* drain: every handler joins its own batch workers, so joining
         the handlers is the whole barrier *)
      let hs =
        Mutex.lock d.lock;
        let hs = Hashtbl.fold (fun _ t acc -> t :: acc) d.handlers [] in
        Mutex.unlock d.lock;
        hs
      in
      List.iter Thread.join hs;
      log d "rlcheckd: shutting down@.")
