(** Crash-isolated, deadline-bounded execution of one request.

    The tick budgets ({!Rl_engine.Budget}) bound {e cooperative} work:
    code that explores states keeps calling [tick] and is interrupted
    within a bounded overshoot. They cannot bound a stuck syscall, a
    pathological GC pause, or a loop that simply never ticks — and a
    daemon that serves traffic cannot let one such request hold a
    connection (or the whole accept loop) hostage. The supervisor closes
    that gap with a watchdog on wall-clock time:

    - the request body runs on a dedicated worker thread, every
      exception trapped into a typed {!Rl_engine.Error.t};
    - the supervising thread waits for it until the deadline;
    - on expiry it {e abandons} the worker — the reply goes out now,
      carrying {!Deadline} — and cancels the request's budget
      ({!Rl_engine.Budget.cancel}), so a cooperative body unwinds at its
      next tick. A truly stuck body leaves a zombie thread behind; the
      daemon survives, counts it, and keeps serving.

    The {!Rl_engine.Fault.Deadline_expiry} injection point fires the
    watchdog path without waiting for a real overrun. *)

type 'a outcome =
  | Completed of 'a
  | Crashed of Rl_engine.Error.t
      (** the body raised; already mapped to a typed error *)
  | Deadline of Rl_engine.Budget.exhaustion
      (** the watchdog fired; the body was abandoned and its budget
          cancelled *)

(** [supervise ?deadline_s ?budget f] runs [f ()] under the net above.
    Without [deadline_s] the call is crash isolation only (no worker
    thread, no watchdog). [budget] is the request's budget, cancelled on
    expiry; it also labels the {!Deadline} record with the phase and
    states reached. *)
val supervise :
  ?deadline_s:float ->
  ?budget:Rl_engine.Budget.t ->
  (unit -> 'a) ->
  'a outcome

(** Worker threads abandoned by the watchdog since process start that
    have not yet terminated. A permanently nonzero value means some
    request is truly stuck (the zombie never unwound). *)
val zombies : unit -> int
