(** The request-execution layer shared by the [rlcheck] CLI and the
    [rlcheckd] daemon.

    One job — a (model, property, check-kind) triple with its resource
    limits — runs to one {!reply} through exactly the pipeline the CLI
    has always used: parse the formula, parse and lint the model
    (pre-flight diagnostics, [Error]s refuse the check unless
    [no_lint]), decide, certify every witness by independent replay, and
    map the outcome onto the PR-1 exit-code contract. The CLI prints a
    reply's parts to stdout/stderr; the daemon serializes the same parts
    to JSON — neither re-implements any checking logic, so their
    verdicts cannot drift.

    Replies never raise: crashes inside the checking code come back as
    {!Failed} with a typed {!Rl_engine.Error.t}. (Wall-clock deadlines
    on top of this live in {!Supervisor}, which runs a [run] call under
    a watchdog.) *)

module Error = Rl_engine.Error
module Diagnostic = Rl_analysis.Diagnostic

type kind = Sat | Rl | Rs

val kind_name : kind -> string
val kind_of_name : string -> kind option

type model =
  | File of string  (** a [.ts] or [.pn] path, as on the CLI *)
  | Inline of { name : string; text : string }
      (** model text shipped over the wire; [name] labels diagnostics *)

type job = {
  kind : kind;
  model : model;
  formula : string;
  max_states : int option;
  timeout : float option;
  bound : int option;
  no_lint : bool;
}

val job :
  ?max_states:int ->
  ?timeout:float ->
  ?bound:int ->
  ?no_lint:bool ->
  kind ->
  model ->
  string ->
  job

type status =
  | Holds  (** exit 0 *)
  | Fails  (** exit 1; the witness was certified by independent replay *)
  | Blocked  (** exit 2: pre-flight lint refused the model *)
  | Failed of Error.t  (** exit 2 or 4 per {!Rl_engine.Error.exit_code} *)

type reply = {
  status : status;
  message : string;
      (** the verdict line exactly as the CLI prints it on stdout
          (empty for {!Blocked}/{!Failed}, whose text lives in
          [blocked_summary] / the error) *)
  witness : string option;  (** rendered witness, when [status = Fails] *)
  diagnostics : Diagnostic.t list;
      (** visible (non-Hint) diagnostics, in print order *)
  blocked_summary : string option;
      (** for {!Blocked}: the "pre-flight lint failed (…)" line *)
  states : int;  (** states explored across all phases *)
  elapsed_s : float;
}

(** The documented exit code: 0 holds, 1 fails, 2 input/lint/internal,
    4 budget exhausted. *)
val exit_code : reply -> int

(** {2 Request cache}

    The daemon checks the same models over and over, in a
    check–edit–recheck loop. One bounded LRU memoizes the three
    deterministic stages of a request, each keyed on a digest of exactly
    the input that stage consumes:
    - the parse of a [.ts] model, file or inline (model name and source
      text);
    - the pre-flight lint report (model name, formula, the {e untrimmed}
      system and its parse diagnostics);
    - the decide outcome (check kind, formula, state limit and the
      {e trimmed} system).

    Content addressing is the whole soundness argument: equal keys mean
    the stage would receive bit-for-bit the same input, so a hit replays
    exactly what a from-scratch run computes. A byte-identical
    resubmission replays all three; an edit confined to the unreachable
    region re-parses and re-lints (its diagnostics may differ) but
    replays the verdict; a reachable edit re-decides. Entries of an
    edited-away version can never be hit again and are evicted by LRU
    pressure — a hostile stream of distinct models costs evictions, not
    memory. Petri-net files bypass the cache (their reachability
    exploration is budget-ticked per request). The decide memo is
    disabled for jobs with a wall-clock [timeout] and while fault
    injection is armed (which also bypasses the lint memo), so an
    incremental verdict is always the verdict a from-scratch run would
    produce. *)

type cache

(** [cache ~capacity ()] holds at most [3 * capacity] entries — one unit
    of capacity is one model's parse, lint report and verdict
    ([capacity <= 0] = unbounded). *)
val cache : capacity:int -> unit -> cache

type counts = { hits : int; misses : int }

type stats = {
  parse : counts;  (** model-parse lookups *)
  lint : counts;  (** lint-report lookups; a hit skips the passes *)
  decide : counts;  (** decide-outcome lookups; a hit skips the decide *)
  decides : int;  (** decide runs actually executed under this cache *)
  entries : int;  (** entries held, all three kinds *)
  evictions : int;  (** entries dropped by the LRU bound *)
}

val stats : cache -> stats

(** [budget_of_job job] is a fresh budget carrying the job's
    [max_states]/[timeout] limits — what {!run} creates when no budget
    is passed in. *)
val budget_of_job : job -> Rl_engine.Budget.t

(** [run ?cache ?budget job] executes one job to completion on the
    calling thread. [budget] lets the caller keep a handle on
    the job's budget — the daemon's watchdog cancels it when the
    wall-clock deadline fires, unwinding a cooperative body at its next
    tick. Never raises. *)
val run :
  ?cache:cache ->
  ?budget:Rl_engine.Budget.t ->
  job ->
  reply
