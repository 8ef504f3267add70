(* A fixed-size pool of long-lived domains.

   Spawning a domain costs far more than a region's setup, so the pool
   spawns its [size - 1] workers once and parks them on a condition
   variable. Each parallel region ([parfan]) publishes one job — a
   closure every member runs to completion — bumps an epoch, wakes the
   workers, and participates itself as member 0. Inside a
   [parfan] job, members claim thunks from a shared atomic cursor, so
   fast members take more of them.

   Determinism is the callers' contract, made easy by the API shape:
   [parfan] returns results positionally, so as long as the thunks keep
   their shared-state mutation deterministic, the result is independent
   of the schedule.

   Worker death. A long-running service cannot assume the workers are
   immortal: a job closure with a bug (or the injected
   [Fault.Pool_domain_death]) can blow a worker up. The failure-safe
   design has three legs, none of which can deadlock the joining caller:

   - Every exit path of a worker's job participation — normal return or
     any exception escaping the closure — decrements [pending] under the
     mutex before anything else, so [run_job]'s barrier always completes.
     An exception additionally retires the worker: it marks its slot
     dead, decrements [alive], and lets its domain terminate. Future
     regions simply fan out across the survivors ([run_job] sizes the
     barrier by [alive], not by the original worker count).
   - [run_parallel] repairs the barrier's results: thunks a dead worker
     claimed but never ran are re-run serially by the caller, so the
     region's output is byte-identical to the fault-free run.
   - [heal] respawns dead workers between regions; a pool that cannot be
     healed keeps degrading gracefully — with zero live workers every
     region runs serially on the caller, which is the documented floor of
     the degradation ladder. *)

type worker = { mutable domain : unit Domain.t option; mutable dead : bool }

type t = {
  size : int;
  workers : worker array;
  mutable alive : int; (* spawned workers still serving *)
  mutable deaths : int; (* workers lost since creation (cumulative) *)
  mutable heals : int; (* workers respawned by [heal] (cumulative) *)
  mutex : Mutex.t;
  work : Condition.t; (* signals: a new epoch's job is available, or stop *)
  finished : Condition.t; (* signals: pending reached 0 *)
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable pending : int; (* workers still inside the current job *)
  mutable stop : bool;
  busy : bool Atomic.t;
      (* a parallel region is in flight; nested regions (a worker's task
         calling back into the pool) run inline serially, which cannot
         deadlock and keeps the schedule deterministic *)
}

let recommended () = Domain.recommended_domain_count ()

(* [start_epoch] is [pool.epoch] at spawn time: a worker respawned by
   [heal] must not mistake the regions it missed for a pending job. *)
let worker_loop pool me start_epoch =
  (* minor-heap sizing is per-domain: each worker applies the same
     tuning the calling domain got (RLCHECK_GC still opts out) *)
  Stats.gc_tune ();
  let my_epoch = ref start_epoch in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.epoch = !my_epoch do
      Condition.wait pool.work pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      match pool.job with
      | None ->
          (* Stale epoch but no job in flight (a [heal]-respawned worker
             waking between regions): adopt the current epoch and park.
             Raising here would kill the domain with the mutex held and
             deadlock every future pool operation. *)
          my_epoch := pool.epoch;
          Mutex.unlock pool.mutex
      | Some f ->
          my_epoch := pool.epoch;
          Mutex.unlock pool.mutex;
          (* Any exception escaping the job closure — the injected domain
             death included — retires this worker. The pending decrement
             comes first and unconditionally: the barrier must complete
             even as the worker dies. *)
          (* GC counters are domain-local: sample around the job body so
             the worker's allocation is folded into the shared Stats
             accumulators — without this, --stats under --jobs N would
             report the main domain only *)
          let g0 = Stats.gc_sample () in
          let death =
            match
              if Fault.armed () then Fault.fire Fault.Pool_domain_death;
              f me
            with
            | () -> None
            | exception e -> Some e
          in
          Stats.note_domain_gc ~before:g0 ~after:(Stats.gc_sample ());
          Mutex.lock pool.mutex;
          pool.pending <- pool.pending - 1;
          if pool.pending = 0 then Condition.signal pool.finished;
          (match death with
          | None -> ()
          | Some _ ->
              pool.workers.(me - 1).dead <- true;
              pool.alive <- pool.alive - 1;
              pool.deaths <- pool.deaths + 1;
              running := false);
          Mutex.unlock pool.mutex
    end
  done

let create ?(jobs = 1) () =
  let size = max 1 (if jobs <= 0 then recommended () else jobs) in
  let pool =
    {
      size;
      workers = Array.init (size - 1) (fun _ -> { domain = None; dead = false });
      alive = 0;
      deaths = 0;
      heals = 0;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      epoch = 0;
      pending = 0;
      stop = false;
      busy = Atomic.make false;
    }
  in
  Array.iteri
    (fun i w ->
      w.domain <- Some (Domain.spawn (fun () -> worker_loop pool (i + 1) 0)))
    pool.workers;
  pool.alive <- Array.length pool.workers;
  pool

let size pool = pool.size

let alive pool =
  Mutex.lock pool.mutex;
  let a = pool.alive in
  Mutex.unlock pool.mutex;
  a

let deaths pool =
  Mutex.lock pool.mutex;
  let d = pool.deaths in
  Mutex.unlock pool.mutex;
  d

let heals pool =
  Mutex.lock pool.mutex;
  let h = pool.heals in
  Mutex.unlock pool.mutex;
  h

let degraded pool = alive pool < Array.length pool.workers

(* Respawn dead workers. Must only be called between regions; a spawn
   failure leaves the remaining dead slots dead — the pool keeps running
   on the survivors. *)
let heal pool =
  Mutex.lock pool.mutex;
  Array.iteri
    (fun i w ->
      if w.dead then begin
        (* the old domain has exited; join reaps it promptly *)
        (match w.domain with Some d -> Domain.join d | None -> ());
        let epoch = pool.epoch in
        w.domain <-
          Some (Domain.spawn (fun () -> worker_loop pool (i + 1) epoch));
        w.dead <- false;
        pool.alive <- pool.alive + 1;
        pool.heals <- pool.heals + 1
      end)
    pool.workers;
  Mutex.unlock pool.mutex

let shutdown pool =
  if Array.length pool.workers > 0 then begin
    Mutex.lock pool.mutex;
    pool.stop <- true;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    Array.iter
      (fun w ->
        match w.domain with
        | Some d ->
            Domain.join d;
            w.domain <- None
        | None -> ())
      pool.workers
  end

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Run [f] once on every live member of the pool (the caller included) and
   wait for all of them. The barrier is sized by [alive] at publication
   time: workers that died in earlier epochs have exited their loops and
   will never see this job. A worker dying *inside* this job still
   decrements [pending] on its way out, so the wait below always
   terminates. *)
let run_job pool f =
  Mutex.lock pool.mutex;
  pool.job <- Some f;
  pool.epoch <- pool.epoch + 1;
  pool.pending <- pool.alive;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  (try f 0 with _ -> ());
  Mutex.lock pool.mutex;
  while pool.pending > 0 do
    Condition.wait pool.finished pool.mutex
  done;
  pool.job <- None;
  Mutex.unlock pool.mutex

(* Run [thunks] across the pool, results in input order. The caller holds
   [pool.busy]. *)
let run_parallel (type a) pool (thunks : (unit -> a) array) : a array =
  let n = Array.length thunks in
  let results : a option array = Array.make n None in
  let failures : exn option array = Array.make n None in
  let failed = Atomic.make false in
  let cursor = Atomic.make 0 in
  let body _member =
    let continue = ref true in
    while !continue do
      if Atomic.get failed then continue := false
      else begin
        let j = Atomic.fetch_and_add cursor 1 in
        if j >= n then continue := false
        else begin
          (* the mid-region death probe: a worker that dies *here* has
             claimed thunk [j] and will not fill it — the repair pass
             below recomputes the orphaned slot *)
          if Fault.armed () then Fault.fire Fault.Pool_domain_death;
          match thunks.(j) () with
          | v -> results.(j) <- Some v
          | exception e ->
              failures.(j) <- Some e;
              Atomic.set failed true
        end
      end
    done
  in
  run_job pool body;
  (* run_job is a barrier: all writes above happen-before this point. *)
  if Atomic.get failed then begin
    let first = ref n in
    for j = n - 1 downto 0 do
      if Option.is_some failures.(j) then first := j
    done;
    (* thunks below the least recorded failure that never ran could raise
       first in a serial run: run them now, in order *)
    for j = 0 to !first - 1 do
      if results.(j) = None then ignore (thunks.(j) ())
    done;
    match failures.(!first) with Some e -> raise e | None -> assert false
  end
  else begin
    (* Repair the barrier: any slot a dead worker (or a caller whose
       body the death fault aborted) claimed but never filled is
       recomputed here, serially — the region's output is independent of
       whether and when workers died. *)
    for j = 0 to n - 1 do
      if results.(j) = None then results.(j) <- Some (thunks.(j) ())
    done;
    Array.map (function Some v -> v | None -> assert false) results
  end

(* Independent thunks are whole sub-checks, so the fan-out is
   unconditional; fewer than two thunks, a serial pool or a nested region
   run inline. *)
let parfan pool thunks =
  match thunks with
  | _ :: _ :: _
    when pool.size > 1 && Atomic.compare_and_set pool.busy false true ->
      Fun.protect ~finally:(fun () -> Atomic.set pool.busy false) @@ fun () ->
      Array.to_list (run_parallel pool (Array.of_list thunks))
  | _ -> List.map (fun th -> th ()) thunks
