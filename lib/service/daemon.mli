(** [rlcheckd] — the long-running checking service.

    A Unix-socket server speaking newline-delimited JSON: each line is
    one request document, answered with one reply line. Batches of
    (model, property, check-kind) jobs execute through the same
    {!Request} layer as the CLI, each job decided on one domain, with the
    fingerprint-keyed simulation cache and a bounded parsed-model cache
    amortized across requests.

    {2 Wire protocol}

    Check request:
    {v
    {"op": "check", "id": "r1", "deadline_s": 5.0,
     "jobs": [{"kind": "rl", "path": "server.ts", "formula": "[]<>result",
               "max_states": 1000, "timeout_s": 1.0, "bound": 64,
               "no_lint": false},
              {"kind": "sat", "model": "initial 0\n0 a 0\n",
               "name": "inline", "formula": "[]<>a"}]}
    v}

    Reply: [{"id": "r1", "ok": true, "partial": false, "results": [...]}]
    with one result per job, in order:
    [{"job": 0, "status": "holds", "exit_code": 0, "message": ...,
    "witness": ..., "diagnostics": [...], "states": n, "elapsed_s": s}].
    [status] is one of ["holds"], ["fails"], ["blocked"], ["error"],
    ["deadline"] (this job hit the batch's wall-clock deadline and was
    abandoned), ["skipped"] (an earlier job consumed the whole batch
    deadline; this one never started). [exit_code] follows the PR-1
    contract per job — 0/1/2/4, deadline and skipped mapping to 4 — so a
    client can treat each job exactly like a CLI invocation. When any
    job ends as [deadline]/[skipped], the reply carries
    ["partial": true]: every completed job still reports its full
    result.

    Control requests: [{"op": "ping"}], [{"op": "stats"}] (the health
    report: uptime, request/job counters, cache hit rates and evictions,
    watchdog zombies, fault-injection status), [{"op": "shutdown"}].

    {2 Fault tolerance}

    Every job runs under {!Supervisor}: exceptions become typed errors
    in the job's result, never a daemon crash; deadline overruns are
    abandoned with their budget cancelled. Malformed request lines get an
    [{"ok": false, "error": ...}] reply and the connection stays open. *)

type config = {
  socket_path : string;
  deadline_s : float option;
      (** default per-batch wall-clock deadline; a request's
          ["deadline_s"] overrides it *)
  model_cache_capacity : int;
  max_batch : int;  (** refuse batches with more jobs than this *)
  max_connections : int;
      (** concurrent connections; one over the limit is answered with an
          [{"ok": false, "error": "server busy…"}] line and closed *)
  quiet : bool;  (** suppress the stderr log lines *)
}

val default_config : socket_path:string -> config

(** [serve config] binds the socket and serves until a [shutdown]
    request (or [Exit]); removes the socket file on the way out. A
    leftover socket file is probed with a connect first: debris from a
    killed daemon is unlinked and the path reclaimed, a live daemon's
    socket makes [serve] refuse ([Invalid_argument]) rather than
    hijack the path.

    Connections are served concurrently, one handler thread each, up to
    [max_connections]; all of them share the caches.
    Within a connection, control ops answer inline while check batches
    may run on worker threads, so replies to pipelined requests can
    arrive out of order — each reply echoes its request's ["id"]
    verbatim, which is the client's correlation key. At most
    {!max_inflight} batches per connection run concurrently; beyond
    that, the handler stops reading the connection until a slot frees
    (backpressure). Verdicts are independent of this scheduling: jobs
    inside one batch still run in order, and every batch reply carries
    its results in job order.

    A [shutdown] request drains: in-flight batches complete and write
    their replies, new connections are turned away, then the socket
    file is removed. *)
val serve : config -> unit

(** Batches one connection may have in flight before its handler stops
    reading further requests. *)
val max_inflight : int
