(* Deterministic fault injection: named points, seeded schedules.

   Probes run on the daemon's threads, so the per-point state sits
   behind one mutex. That lock is taken only when a schedule is armed —
   the disarmed fast path is a single read of [armed_flag] — and chaos
   runs are exactly the runs where a little extra synchronization is
   the point, not a problem.

   Determinism: each point owns a split PRNG stream derived from the
   configured seed, advanced once per probe. The firing pattern for a
   point is therefore a function of (seed, rate, probe index) only;
   adding probe sites for one point cannot shift another point's
   schedule. Across threads the *interleaving* of probes is
   scheduler-dependent, but the per-point decision sequence is not,
   which is what the chaos suites pin down. *)

type point =
  | Cache_miss_storm
  | Malformed_input
  | Deadline_expiry

exception Injected of point

let all =
  [
    Cache_miss_storm;
    Malformed_input;
    Deadline_expiry;
  ]

let name = function
  | Cache_miss_storm -> "cache_miss_storm"
  | Malformed_input -> "malformed_input"
  | Deadline_expiry -> "deadline_expiry"

let of_name s = List.find_opt (fun p -> String.equal (name p) s) all
let index p = match p with
  | Cache_miss_storm -> 0
  | Malformed_input -> 1
  | Deadline_expiry -> 2

let npoints = List.length all

type slot = {
  mutable rate : float; (* 0 = never; the disarmed value *)
  mutable rng : Rl_prelude.Prng.t;
  mutable probed : int;
  mutable fired : int;
}

let fresh_slot seed i =
  {
    rate = 0.;
    (* one independent stream per point, derived from the seed *)
    rng = Rl_prelude.Prng.create ((seed * 31) + i);
    probed = 0;
    fired = 0;
  }

let slots = Array.init npoints (fresh_slot 0)
let mutex = Mutex.create ()
let armed_flag = ref false

(* The env schedule loads on the first probe, so every process — the
   daemon, the CLI, a bare test executable under a chaos CI job — honors
   RLCHECK_FAULT without an init call. An explicit [configure]/[reset]
   marks the env as consumed: programmatic schedules win. *)
let env_loaded = ref false

let configure ?(seed = 0) rates =
  env_loaded := true;
  Mutex.lock mutex;
  Array.iteri (fun i _ -> slots.(i) <- fresh_slot seed i) slots;
  List.iter
    (fun (p, rate) ->
      if not (rate >= 0. && rate <= 1.) then begin
        Mutex.unlock mutex;
        invalid_arg
          (Printf.sprintf "Fault.configure: rate %g for %s not in [0,1]" rate
             (name p))
      end;
      slots.(index p).rate <- rate)
    rates;
  armed_flag := List.exists (fun (_, r) -> r > 0.) rates;
  Mutex.unlock mutex

let reset () = configure []

let configure_from_env () =
  env_loaded := true;
  match Sys.getenv_opt "RLCHECK_FAULT" with
  | None | Some "" -> ()
  | Some spec ->
      let seed = ref 0 and rates = ref [] in
      String.split_on_char ',' spec
      |> List.iter (fun field ->
             match String.index_opt field '=' with
             | None ->
                 invalid_arg
                   (Printf.sprintf
                      "RLCHECK_FAULT: expected name=value, got %S" field)
             | Some eq -> (
                 let k = String.trim (String.sub field 0 eq) in
                 let v =
                   String.trim
                     (String.sub field (eq + 1) (String.length field - eq - 1))
                 in
                 if String.equal k "seed" then
                   match int_of_string_opt v with
                   | Some s -> seed := s
                   | None ->
                       invalid_arg
                         (Printf.sprintf "RLCHECK_FAULT: bad seed %S" v)
                 else
                   match (of_name k, float_of_string_opt v) with
                   | Some p, Some rate -> rates := (p, rate) :: !rates
                   | None, _ ->
                       invalid_arg
                         (Printf.sprintf
                            "RLCHECK_FAULT: unknown injection point %S \
                             (known: %s)"
                            k
                            (String.concat ", " (List.map name all)))
                   | _, None ->
                       invalid_arg
                         (Printf.sprintf "RLCHECK_FAULT: bad rate %S for %s" v
                            k)));
      configure ~seed:!seed (List.rev !rates)

let armed () =
  if not !env_loaded then configure_from_env ();
  !armed_flag

let should_fire p =
  if not (armed ()) then false
  else begin
    Mutex.lock mutex;
    let s = slots.(index p) in
    s.probed <- s.probed + 1;
    let hit = s.rate > 0. && Rl_prelude.Prng.float s.rng < s.rate in
    if hit then s.fired <- s.fired + 1;
    Mutex.unlock mutex;
    hit
  end

let fire p = if should_fire p then raise (Injected p)

let read f p =
  Mutex.lock mutex;
  let v = f slots.(index p) in
  Mutex.unlock mutex;
  v

let fired p = read (fun s -> s.fired) p
let probes p = read (fun s -> s.probed) p
