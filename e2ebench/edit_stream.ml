(* The edit_stream workload: one client replays a seeded
   check-edit-recheck session against an [rlcheckd serve --jobs 1]
   child over its Unix socket. The loop is closed, as an editor waits
   for each reply before its next save; each request is one check.

   The session has 384 models of 64-256 states, 1.5 times the daemon's
   default 256-entry caches. It is one period of requests, replayed: the
   period visits every model, the hot third of them [hot_visits] times,
   so entries are evicted at a steady, seeded rate. A request is a read
   (a byte-identical or comment-only resubmission, which the decide memo
   should answer), an edit confined to an unreachable appendix (lint
   runs again, the decide memo still hits), or a write (a reachable
   edit, decided from scratch).

   The proportions of this mix (see [edit]) are an assumption: no
   recorded editor session exists to derive them from. The hit ratios
   and decides per request that the run reports follow from them.

   One untimed period brings the daemon's caches to the state that every
   later period starts from, so a request does the same work in every
   timed period, and its time is its fastest over them.

   Every reply is checked against a from-scratch [Request.run] of the
   same text, computed outside the timed round trips, and rl replies also
   against the eager reference. *)

module J = Rl_service.Jsonx
module Request = Rl_service.Request
module Prng = Rl_prelude.Prng

let now = Unix.gettimeofday

(* --- the session --- *)

let sizes = [| 64; 96; 128; 192; 256 |]

type model = {
  name : string;
  kind : Request.kind;
  formula : string;
  system : Inputs.system;
  mutable appendix : (int * string * int) list;
  mutable revision : int;
  mutable rewires : int;  (** reachable edits so far *)
}

(* one request of the period: the model's text at this visit *)
type request = { model : model; text : string; rewired : int }

let text m =
  Inputs.ts_text
    ~comment:(Printf.sprintf "%s, revision %d" m.name m.revision)
    ~alphabet:Inputs.abc
    (Inputs.edges m.system @ m.appendix)

let models ~tiny rng =
  Array.init (if tiny then 24 else 384) (fun i ->
      let letters = Inputs.renaming rng in
      let states =
        if tiny then 8 + (i mod 8) else sizes.(i mod Array.length sizes)
      in
      let formula =
        if i / 2 mod 2 = 0 then "[]<> " ^ letters.(0) else Inputs.ladder 1 letters
      in
      let system = Inputs.system rng ~letters ~states ~doomed:(i mod 2 = 1) in
      {
        name = Printf.sprintf "m%03d" i;
        kind = List.nth Inputs.kinds (i mod 3);
        formula;
        system;
        appendix = [];
        revision = 0;
        rewires = 0;
      })

(* two or three fresh states in a cycle that no edge of the model enters *)
let appendix rng m =
  let base = Array.length m.system.Inputs.cycle + 1 in
  let k = 2 + Prng.int rng 2 in
  List.init k (fun i ->
      (base + i, Prng.choose rng Inputs.abc, base + ((i + 1) mod k)))

(* retarget, or add, the second edge of a state other than 0: the cycle
   through every state stays, so the model stays strongly connected *)
let rewire rng m =
  let s = m.system in
  let n = Array.length s.Inputs.cycle in
  let q = 1 + Prng.int rng (n - 1) in
  let letter =
    match s.Inputs.extra.(q) with
    | Some (l, _) -> l
    | None -> Prng.choose rng (List.filter (( <> ) s.Inputs.cycle.(q)) Inputs.abc)
  in
  s.Inputs.extra.(q) <- Some (letter, Prng.int rng n);
  m.rewires <- m.rewires + 1

(* one visit's edit: 45% of the visits resubmit the model unchanged, 20%
   change a comment, 15% the unreachable appendix, 20% a reachable edge.
   These shares are assumed, not measured. *)
let edit rng m =
  match Prng.int rng 100 with
  | r when r < 45 -> ()
  | r when r < 65 -> m.revision <- m.revision + 1
  | r when r < 80 -> m.appendix <- appendix rng m
  | _ -> rewire rng m

(* the hot third's visits per period; with one visit to each other model,
   two thirds of the requests go to the hot third *)
let hot_visits = 4

(* the period: every visit in a seeded order, each with its edit *)
let session ~tiny ~seed =
  let rng = Prng.create seed in
  let models = models ~tiny rng in
  let hot = Array.length models / 3 in
  let visits =
    Array.append
      (Array.init (hot * hot_visits) (fun v -> v mod hot))
      (Array.init (Array.length models - hot) (fun i -> hot + i))
  in
  Prng.shuffle rng visits;
  Array.map
    (fun i ->
      let m = models.(i) in
      edit rng m;
      { model = m; text = text m; rewired = m.rewires })
    visits

let check_line ~id r =
  J.to_string
    (J.Obj
       [
         ("op", J.Str "check");
         ("id", J.Str (string_of_int id));
         ( "jobs",
           J.Arr
             [
               J.Obj
                 [
                   ("kind", J.Str (Request.kind_name r.model.kind));
                   ("name", J.Str r.model.name);
                   ("model", J.Str r.text);
                   ("formula", J.Str r.model.formula);
                 ];
             ] );
       ])

(* the request lines of a period, without a daemon *)
let transcript ~tiny ~seed =
  Array.to_list (Array.mapi (fun id r -> check_line ~id r) (session ~tiny ~seed))

(* --- references --- *)

(* The from-scratch verdict of the request's reachable version. Reads and
   unreachable edits share it: they leave the trimmed system, all the
   decide step sees, untouched. *)
let reference refs r problems =
  let m = r.model in
  let key = (m.name, r.rewired) in
  match Hashtbl.find_opt refs key with
  | Some o -> o
  | None ->
      let o =
        Pipeline.of_reply
          (Request.run
             (Request.job m.kind (Request.Inline { name = m.name; text = r.text }) m.formula))
      in
      let v = o.Pipeline.verdict in
      (if m.kind = Request.Rl && (v = "holds" || v = "fails") then
         let eager = Reference.verdict (Reference.eager_rl ~text:r.text ~formula:m.formula) in
         if eager <> v then
           problems :=
             Printf.sprintf "%s: Request.run says %s, the eager reference %s"
               m.name v eager
             :: !problems);
      Hashtbl.replace refs key o;
      o

let reply_outcome line =
  match J.parse line with
  | Error e -> (Pipeline.error ("malformed reply: " ^ e), 0.)
  | Ok doc -> (
      match J.arr_member "results" doc with
      | Some [ r ] ->
          let verdict =
            match J.str_member "status" r with
            | Some (("holds" | "fails") as s) -> s
            | Some s -> s ^ ": " ^ Option.value ~default:"" (J.str_member "error" r)
            | None -> "no status"
          in
          ( { Pipeline.verdict; witness = J.str_member "witness" r },
            Option.value ~default:0. (J.num_member "elapsed_s" r) )
      | _ -> (Pipeline.error ("unexpected reply: " ^ line), 0.))

(* --- the daemon --- *)

type daemon = {
  pid : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

(* children to kill if the benchmark exits before shutting them down *)
let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let ask d line =
  output_string d.oc line;
  output_char d.oc '\n';
  flush d.oc;
  input_line d.ic

let ask_json d line =
  match J.parse (ask d line) with
  | Ok doc -> doc
  | Error e -> failwith ("rlcheckd sent malformed JSON: " ^ e)

(* spawn [rlcheckd serve] and wait for its first pong. The daemon gets
   one malloc arena: with glibc's default, its peak RSS jumped by about
   35 MB in about a quarter of the runs, as its threads landed in a second
   arena or not, which would hide any change in its own memory use. *)
let start ~exe ~socket =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; socket; "--jobs"; "1"; "--quiet" |]
      (Array.append [| "MALLOC_ARENA_MAX=1" |] (Unix.environment ()))
      null null Unix.stderr
  in
  Unix.close null;
  children := pid :: !children;
  let deadline = now () +. 30. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.002;
        connect ()
  in
  let fd = connect () in
  let d =
    { pid; fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  in
  if J.bool_member "ok" (ask_json d {|{"op":"ping"}|}) <> Some true then
    failwith "rlcheckd did not answer the ping";
  d

(* a drained shutdown; a child that lingers for 30 s is killed *)
let stop d =
  (try ignore (ask d {|{"op":"shutdown"}|}) with End_of_file | Sys_error _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        false
    | _, status -> status = Unix.WEXITED 0
  in
  let clean = reap () in
  children := List.filter (( <> ) d.pid) !children;
  clean

let stats d =
  match J.member "stats" (ask_json d {|{"op":"stats"}|}) with
  | Some s -> s
  | None -> failwith "rlcheckd's stats reply has no stats"

let field doc path =
  Option.value ~default:0.
    (Option.bind
       (List.fold_left (fun v k -> Option.bind v (J.member k)) (Some doc) path)
       J.num)

(* --- the run --- *)

type result = {
  setup_s : float;
  periods : (float * float * bool) array list;
      (** per timed period, per request: round trip, the server's
          elapsed_s, reply correct *)
  values : (string * float) list;  (** per-layer figures from the daemon's stats *)
  peak_rss_mb : float;
  problems : string list;
}

let setup_reps = 3

(* a run times at least this many periods *)
let min_periods = 3

let run ~exe ~dir ~seed ~seconds ~min_checks ~trace ~tiny =
  let dir = Filename.concat dir (Printf.sprintf "rlcheckd-%d" (Unix.getpid ())) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  (* set-up, [setup_reps] times: generate the session, spawn a daemon and
     wait for its pong; every daemon but the last is shut down again. Its
     median plus the warm-up below is setup_s. *)
  let times = ref [] and current = ref None in
  for _ = 1 to setup_reps do
    Option.iter (fun (_, d) -> ignore (stop d)) !current;
    let t0 = now () in
    let requests = session ~tiny ~seed in
    let d = start ~exe ~socket in
    times := (now () -. t0) :: !times;
    current := Some (requests, d)
  done;
  let requests, d = Option.get !current in
  let id = ref 0 in
  (* one period: each request's round trip and reply *)
  let send ~timed =
    Array.map
      (fun r ->
        let line = check_line ~id:!id r in
        let t0 = now () in
        let reply = ask d line in
        let t1 = now () in
        if timed && trace then Trace.root ~check:!id ~start:t0 ~stop:t1;
        incr id;
        (t1 -. t0, reply))
      requests
  in
  (* warm-up: one period brings the caches to their steady state *)
  let t0 = now () in
  let warm_up = send ~timed:false in
  let warm_up_s = now () -. t0 in
  (* the references, outside every timed interval *)
  let problems = ref [] in
  let refs = Hashtbl.create 1024 in
  let expected = Array.map (fun r -> reference refs r problems) requests in
  let check j (rtt, reply) =
    let outcome, elapsed = reply_outcome reply in
    let ok =
      (outcome.Pipeline.verdict = "holds" || outcome.Pipeline.verdict = "fails")
      && outcome = expected.(j)
    in
    if not ok then
      problems :=
        Printf.sprintf "%s: rlcheckd replied %s, Request.run from scratch %s"
          requests.(j).model.name outcome.Pipeline.verdict expected.(j).Pipeline.verdict
        :: !problems;
    (rtt, elapsed, ok)
  in
  Array.iteri (fun j x -> ignore (check j x)) warm_up;
  (* the daemon's stats before the first timed period and after each *)
  let snapshots = ref [ stats d ] in
  let periods = ref [] and count = ref 0 in
  let t_start = now () in
  while
    now () -. t_start < seconds
    || List.length !periods < min_periods
    || !count < min_checks
  do
    periods := Array.mapi check (send ~timed:true) :: !periods;
    snapshots := stats d :: !snapshots;
    count := !count + Array.length requests
  done;
  let before = List.hd (List.rev !snapshots) and after = List.hd !snapshots in
  (* a request's fastest time over the periods is only a fair figure if
     it did the same work in each: the decides and memo hits must repeat
     exactly *)
  let work =
    List.map
      (fun s -> (field s [ "recheck"; "decides" ], field s [ "recheck"; "memo_hits" ]))
      !snapshots
  in
  let per_period =
    List.sort_uniq compare
      (List.map2 (fun (d1, h1) (d0, h0) -> (d1 -. d0, h1 -. h0))
         (List.rev (List.tl (List.rev work)))
         (List.tl work))
  in
  if List.length per_period > 1 then
    problems := "the timed periods differ in decides or memo hits" :: !problems;
  let peak_rss_mb = Report.peak_rss_mb (string_of_int d.pid) in
  if not (stop d) then
    problems := "rlcheckd did not drain and exit 0 on shutdown" :: !problems;
  (try Sys.rmdir dir with Sys_error _ -> ());
  List.iter
    (fun (path, what) ->
      if field after path > 0. then problems := ("rlcheckd counted " ^ what) :: !problems)
    [
      ([ "jobs"; "errors" ], "errors");
      ([ "zombies" ], "zombies");
      ([ "bad_requests" ], "bad requests");
    ];
  let delta path = field after path -. field before path in
  let n = float_of_int !count in
  let ratio hits misses =
    let h = delta hits and m = delta misses in
    if h +. m = 0. then 0. else h /. (h +. m)
  in
  {
    setup_s = Report.median !times +. warm_up_s;
    periods = List.rev !periods;
    values =
      [
        ("service.memo_hit_ratio", ratio [ "recheck"; "memo_hits" ] [ "recheck"; "decides" ]);
        ("service.lint_hit_ratio", ratio [ "lint_stats"; "hits" ] [ "lint_stats"; "misses" ]);
        ("service.simcache_hit_ratio", ratio [ "simcache"; "hits" ] [ "simcache"; "misses" ]);
        ( "service.evictions",
          (delta [ "simcache"; "evictions" ] +. delta [ "model_cache"; "evictions" ]) /. n );
        ("service.decides", delta [ "recheck"; "decides" ] /. n);
        ("gc.minor_words_per_check", delta [ "hotpath"; "minor_words" ] /. n);
        ("gc.major_collections", delta [ "hotpath"; "major_collections" ] /. n);
      ];
    peak_rss_mb;
    problems = List.rev !problems;
  }
