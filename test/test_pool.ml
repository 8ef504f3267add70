(* The domain pool and the determinism contract of its fan-out: identical
   verdicts and exhaustion behavior for every --jobs value, and
   domain-safe budget accounting. *)

open Rl_sigma
open Rl_buchi
open Rl_core
module Budget = Rl_engine.Budget
module Certify = Rl_engine.Certify
module Pool = Rl_engine.Pool

(* The suite honors RLCHECK_JOBS so CI can re-run it at a different pool
   size; the default of 4 oversubscribes small machines on purpose — the
   determinism properties must hold regardless of core count. *)
let jobs =
  match Sys.getenv_opt "RLCHECK_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 1 -> n | _ -> 4)
  | None -> 4

let with_pool f = Pool.with_pool ~jobs f

(* [fan pool f xs] is [Array.map f xs] run as one [parfan] region over a
   thunk per item *)
let fan pool f xs =
  Array.to_list xs
  |> List.map (fun x () -> f x)
  |> Pool.parfan pool |> Array.of_list

(* --- parfan --- *)

let test_parfan_matches_map () =
  with_pool @@ fun pool ->
  let xs = Array.init 1000 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "positional results" (Array.map f xs)
    (fan pool f xs);
  Alcotest.(check (array int)) "empty input" [||] (fan pool f [||]);
  Alcotest.(check (array int)) "singleton input" [| 50 |] (fan pool f [| 7 |])

let test_parfan_exception () =
  with_pool @@ fun pool ->
  let f x = if x = 57 then failwith "item 57" else x in
  (match fan pool f (Array.init 200 Fun.id) with
  | _ -> Alcotest.fail "the failing item must surface"
  | exception Failure m -> Alcotest.(check string) "which item" "item 57" m);
  (* the least index wins even when a later thunk also fails *)
  (match
     fan pool
       (fun x -> if x = 3 || x = 150 then failwith (string_of_int x) else x)
       (Array.init 200 Fun.id)
   with
  | _ -> Alcotest.fail "a failing item must surface"
  | exception Failure m -> Alcotest.(check string) "least index" "3" m);
  (* the pool survives a failed region *)
  Alcotest.(check (array int)) "pool reusable after failure" [| 0; 1; 2 |]
    (fan pool Fun.id [| 0; 1; 2 |])

let test_parfan_nested () =
  with_pool @@ fun pool ->
  (* a task that calls back into its own pool: the nested region must run
     inline (serially) rather than deadlock on the busy workers *)
  let f x = Array.fold_left ( + ) 0 (fan pool (fun y -> x + y) [| 1; 2; 3 |]) in
  Alcotest.(check (array int)) "nested regions" [| 6; 9; 12 |]
    (fan pool f [| 0; 1; 2 |])

let test_parfan_order () =
  with_pool @@ fun pool ->
  let thunks = List.init 7 (fun i () -> 10 * i) in
  Alcotest.(check (list int)) "results in thunk order"
    [ 0; 10; 20; 30; 40; 50; 60 ]
    (Pool.parfan pool thunks)

(* --- atomic budget under racing domains --- *)

let test_budget_race () =
  with_pool @@ fun pool ->
  let limit = 10_000 in
  let budget = Budget.create ~max_states:limit () in
  (* every member ticks the shared counter far past the limit — 2×limit
     each, so even a member running alone must cross it; each must be
     stopped by an Exhausted, and all must observe the same single
     exhaustion event *)
  let outcomes =
    fan pool
      (fun _ ->
        match
          for _ = 1 to 2 * limit do
            Budget.tick budget
          done
        with
        | () -> None
        | exception Budget.Exhausted e -> Some e)
      (Array.init jobs Fun.id)
  in
  let records =
    Array.to_list outcomes |> List.filter_map Fun.id
  in
  Alcotest.(check bool) "every member was stopped" true
    (List.length records = jobs);
  (match records with
  | first :: rest ->
      List.iter
        (fun e ->
          Alcotest.(check int) "one exhaustion event, seen by all"
            first.Budget.states_explored e.Budget.states_explored)
        rest;
      (* fetch_and_add hands every tick a distinct total; only the tick
         that crossed the limit may publish, so the record is exactly
         the first total past it, whichever member made that tick *)
      Alcotest.(check int) "the crossing total is recorded" (limit + 1)
        first.Budget.states_explored
  | [] -> Alcotest.fail "unreachable");
  Alcotest.(check bool) "budget reports cancelled" true
    (Budget.cancelled budget);
  (* workers have drained: the pool still runs fresh regions *)
  Alcotest.(check (array int)) "pool drained and reusable" [| 1; 2; 3 |]
    (fan pool (fun x -> x + 1) [| 0; 1; 2 |])

let test_budget_poll_cancels () =
  let budget = Budget.create ~max_states:1 () in
  (match Budget.tick budget with
  | () -> ()
  | exception Budget.Exhausted _ -> ());
  (match Budget.tick budget with
  | () -> Alcotest.fail "second tick must exhaust"
  | exception Budget.Exhausted _ -> ());
  match Budget.poll budget with
  | () -> Alcotest.fail "poll on an exhausted budget must re-raise"
  | exception Budget.Exhausted e ->
      Alcotest.(check int) "the original record is re-raised" 2
        e.Budget.states_explored

(* --- worker death, degradation, and healing --- *)

module Fault = Rl_engine.Fault

let test_worker_death_mid_map () =
  with_pool @@ fun pool ->
  let xs = Array.init 500 Fun.id in
  let expect = Array.map (fun x -> x * 7) xs in
  (* rate 1.0: every worker dies the moment it picks the job up (and the
     caller's own mid-region death probe aborts its body after it claimed
     a chunk), so the whole region is orphaned-slot repair *)
  Fault.configure ~seed:7 [ (Fault.Pool_domain_death, 1.0) ];
  let got =
    Fun.protect ~finally:Fault.reset (fun () ->
        fan pool (fun x -> x * 7) xs)
  in
  Alcotest.(check (array int)) "results identical with every worker dead"
    expect got;
  Alcotest.(check int) "all workers retired" 0 (Pool.alive pool);
  Alcotest.(check bool) "pool reports degraded" true (Pool.degraded pool);
  Alcotest.(check int) "deaths recorded" (jobs - 1) (Pool.deaths pool);
  (* the degradation floor: zero workers, regions still complete *)
  Alcotest.(check (array int)) "serial floor still serves" expect
    (fan pool (fun x -> x * 7) xs);
  Pool.heal pool;
  Alcotest.(check int) "heal respawned every worker" (jobs - 1)
    (Pool.alive pool);
  Alcotest.(check bool) "no longer degraded" false (Pool.degraded pool);
  Alcotest.(check int) "heals recorded" (jobs - 1) (Pool.heals pool);
  Alcotest.(check (array int)) "healed pool serves" expect
    (fan pool (fun x -> x * 7) xs)

let test_worker_death_partial_rate () =
  (* a fractional rate kills a changing subset of workers mid-region across
     several regions; every region's output must stay byte-identical to
     the serial map, and healing between regions must keep converging *)
  with_pool @@ fun pool ->
  let xs = Array.init 2000 Fun.id in
  let expect = Array.map (fun x -> x + 3) xs in
  Fault.configure ~seed:42 [ (Fault.Pool_domain_death, 0.25) ];
  Fun.protect ~finally:Fault.reset (fun () ->
      for round = 1 to 5 do
        Alcotest.(check (array int))
          (Printf.sprintf "round %d verdict equality under chaos" round)
          expect
          (fan pool (fun x -> x + 3) xs);
        Pool.heal pool
      done);
  Alcotest.(check bool) "healed back to full strength" false
    (Pool.degraded pool);
  Alcotest.(check int) "every death was healed" (Pool.deaths pool)
    (Pool.heals pool)

(* --- determinism across pool sizes (the qcheck leg) --- *)

let abc = Alphabet.make [ "a"; "b"; "c" ]

let gen_ts =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- 4 in
    return
      (Rl_automata.Gen.transition_system (Helpers.mk_rng seed) ~alphabet:abc
         ~states ~branching:1.6))

let gen_formula =
  Helpers.gen_formula_over ~max_size:4 [ "a"; "b"; "c" ] ~negations:true

(* [Certify.verdict_triple] fans its three Theorem 4.7 legs out over the
   pool: three members give each leg its own domain *)
let triple ?budget pool ts f =
  Certify.verdict_triple ?budget ?pool
    ~system:(Buchi.of_transition_system ts)
    (Relative.ltl abc f)

let prop_triple_jobs_invariant =
  QCheck2.Test.make
    ~name:"Certify.verdict_triple: identical for jobs 1 vs 3" ~count:60
    QCheck2.Gen.(pair gen_ts gen_formula)
    (fun (ts, f) ->
      triple None ts f
      = Pool.with_pool ~jobs:3 (fun pool -> triple (Some pool) ts f))

let prop_triple_exhaustion_jobs_invariant =
  QCheck2.Test.make
    ~name:"tiny budget: verdict_triple exhausts for jobs 1 iff for jobs 3"
    ~count:60
    QCheck2.Gen.(triple gen_ts gen_formula (5 -- 40))
    (fun (ts, f, limit) ->
      let run pool =
        let budget = Budget.create ~max_states:limit () in
        match triple ~budget pool ts f with
        | t -> Some t
        | exception Budget.Exhausted _ -> None
      in
      run None = Pool.with_pool ~jobs:3 (fun pool -> run (Some pool)))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "parfan = map" `Quick test_parfan_matches_map;
          Alcotest.test_case "parfan exceptions" `Quick test_parfan_exception;
          Alcotest.test_case "nested regions run inline" `Quick
            test_parfan_nested;
          Alcotest.test_case "parfan order" `Quick test_parfan_order;
        ] );
      ( "budget",
        [
          Alcotest.test_case "exhaustion race across domains" `Quick
            test_budget_race;
          Alcotest.test_case "poll re-raises the published record" `Quick
            test_budget_poll_cancels;
        ] );
      ( "death",
        [
          Alcotest.test_case "all workers die mid-map; repair + heal" `Quick
            test_worker_death_mid_map;
          Alcotest.test_case "fractional death rate across regions" `Quick
            test_worker_death_partial_rate;
        ] );
      ( "jobs-agnostic",
        [
          qcheck prop_triple_jobs_invariant;
          qcheck prop_triple_exhaustion_jobs_invariant;
        ] );
    ]
