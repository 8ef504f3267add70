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
  states : int Atomic.t;
  tripped : exhaustion option Atomic.t;
      (* the first exhaustion recorded on this budget; once set, every
         subsequent tick on any domain re-raises it, which both cancels
         parallel workers promptly and keeps the reported record unique *)
  mutable phase : string; (* phase changes happen on the main domain only *)
  clock_check : int Atomic.t; (* ticks since the wall clock was last polled *)
}

let unlimited =
  {
    max_states = None;
    deadline = None;
    states = Atomic.make 0;
    tripped = Atomic.make None;
    phase = "";
    clock_check = Atomic.make 0;
  }

let create ?max_states ?timeout () =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  {
    max_states;
    deadline;
    states = Atomic.make 0;
    tripped = Atomic.make None;
    phase = "";
    clock_check = Atomic.make 0;
  }

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
  (* Only one exhaustion event per budget: the first domain to trip
     publishes its record; anyone racing in re-raises that same record. *)
  if Atomic.compare_and_set b.tripped None (Some e) then raise (Exhausted e)
  else
    match Atomic.get b.tripped with
    | Some first -> raise (Exhausted first)
    | None -> raise (Exhausted e)

(* The state counter went from [total - n] to [total] past the limit [m].
   Only the call that crossed it publishes, so for unit ticks the record
   always reads [m + 1]; with [charge] it reads the total of whichever
   call crossed. A caller already past the limit waits for that record,
   which the crossing call publishes right after its own
   [fetch_and_add]. The counter starts at 0, so a negative limit is
   crossed by the first call: [max m 0] makes that call the publisher. *)
let over_limit b ~n ~total m =
  if total - n <= max m 0 then exhaust b total `States
  else
    let rec await () =
      match Atomic.get b.tripped with
      | Some e -> raise (Exhausted e)
      | None ->
          Domain.cpu_relax ();
          await ()
    in
    await ()

let cancelled b = Atomic.get b.tripped <> None

(* External cancellation: the service watchdog publishes an exhaustion
   record from *outside* the checking code, so every subsequent
   tick/poll on any domain raises and the abandoned check unwinds
   at its next cooperative point. Unlike [exhaust] this never raises on
   the cancelling domain — the watchdog is not the one doing the work —
   and it never overwrites a record the check already tripped itself. *)
let cancel ?(phase = "wall-clock deadline (watchdog)") b resource =
  let e =
    {
      resource;
      phase = (if b.phase = "" then phase else b.phase);
      states_explored = Atomic.get b.states;
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
      if Atomic.fetch_and_add b.clock_check 1 >= clock_period then begin
        Atomic.set b.clock_check 0;
        if Unix.gettimeofday () > d then exhaust b (Atomic.get b.states) `Time
      end

let charge b n =
  if n > 0 then begin
    check_cancelled b;
    let total = Atomic.fetch_and_add b.states n + n in
    (match b.max_states with
    | Some m when total > m -> over_limit b ~n ~total m
    | _ -> ());
    match b.deadline with
    | Some d when Unix.gettimeofday () > d -> exhaust b total `Time
    | _ -> ()
  end

let tick b =
  check_cancelled b;
  let total = Atomic.fetch_and_add b.states 1 + 1 in
  (match b.max_states with
  | Some m when total > m -> over_limit b ~n:1 ~total m
  | _ -> ());
  check_clock b

(* A cheap probe for worker domains that do work without exploring fresh
   states: notices a cancellation (or a blown deadline) without touching
   the shared state counter. *)
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

let states_explored b = Atomic.get b.states
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
