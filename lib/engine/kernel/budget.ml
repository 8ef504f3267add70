type exhaustion = {
  resource : [ `States | `Time ];
  phase : string;
  states_explored : int;
  max_states : int option;
}

exception Exhausted of exhaustion

type t = {
  max_states : int option;
  deadline : float option; (* absolute, Unix.gettimeofday *)
  mutable states : int;
  tripped : exhaustion option Atomic.t;
      (* the first exhaustion recorded on this budget; once set, every
         later tick re-raises it. The one field another thread writes:
         the watchdog's [cancel] publishes through it. *)
  mutable phase : string;
  mutable clock_check : int; (* ticks since the wall clock was last polled *)
}

let create ?max_states ?timeout () =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  {
    max_states;
    deadline;
    states = 0;
    tripped = Atomic.make None;
    phase = "";
    clock_check = 0;
  }

let unlimited = create ()

let is_limited b = b.max_states <> None || b.deadline <> None

let exhaust b states resource =
  let e =
    {
      resource;
      phase = b.phase;
      states_explored = states;
      max_states = b.max_states;
    }
  in
  (* One exhaustion event per budget: a record the watchdog published
     first wins, and is raised in place of this one. *)
  if Atomic.compare_and_set b.tripped None (Some e) then raise (Exhausted e)
  else
    match Atomic.get b.tripped with
    | Some first -> raise (Exhausted first)
    | None -> raise (Exhausted e)

let cancelled b = Atomic.get b.tripped <> None

(* External cancellation: the service watchdog publishes an exhaustion
   record from *outside* the checking code, so the next tick/poll of the
   abandoned check raises and it unwinds at that cooperative point.
   Unlike [exhaust] this never raises on the cancelling thread — the
   watchdog is not the one doing the work — and it never overwrites a
   record the check already tripped itself. *)
let cancel ?(phase = "wall-clock deadline (watchdog)") b resource =
  let e =
    {
      resource;
      phase = (if b.phase = "" then phase else b.phase);
      states_explored = b.states;
      max_states = b.max_states;
    }
  in
  ignore (Atomic.compare_and_set b.tripped None (Some e))

let check_cancelled b =
  match Atomic.get b.tripped with
  | Some e -> raise (Exhausted e)
  | None -> ()

(* Polling the wall clock is a syscall; do it once per 256 ticks. *)
let clock_period = 256

let check_clock b =
  match b.deadline with
  | None -> ()
  | Some d ->
      let c = b.clock_check in
      b.clock_check <- c + 1;
      if c >= clock_period then begin
        b.clock_check <- 0;
        if Unix.gettimeofday () > d then exhaust b b.states `Time
      end

(* The call that carries the counter past the limit raises, and every
   later call re-raises its record, so for unit ticks the record reads
   [limit + 1]. A negative limit is crossed by the first call. *)
let charge b n =
  if n > 0 then begin
    check_cancelled b;
    let total = b.states + n in
    b.states <- total;
    (match b.max_states with
    | Some m when total > m -> exhaust b total `States
    | _ -> ());
    match b.deadline with
    | Some d when Unix.gettimeofday () > d -> exhaust b total `Time
    | _ -> ()
  end

let tick b =
  check_cancelled b;
  let total = b.states + 1 in
  b.states <- total;
  (match b.max_states with
  | Some m when total > m -> exhaust b total `States
  | _ -> ());
  check_clock b

(* A cheap probe for loops that do work without exploring fresh states:
   notices a cancellation (or a blown deadline) without touching the
   state counter. *)
let poll b =
  check_cancelled b;
  check_clock b

let set_phase b name = b.phase <- name

let with_phase b name f =
  let saved = b.phase in
  b.phase <- name;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      b.phase <- saved;
      Stats.record_phase name (Unix.gettimeofday () -. t0))
    f

let states_explored b = b.states
let current_phase b = b.phase

let pp_exhaustion ppf e =
  let what =
    match e.resource with
    | `States -> (
        match e.max_states with
        | Some m -> Printf.sprintf "state limit %d" m
        | None -> "state limit")
    | `Time -> "time limit"
  in
  Format.fprintf ppf "%s reached%s after exploring %d states" what
    (if e.phase = "" then "" else Printf.sprintf " during %s" e.phase)
    e.states_explored
