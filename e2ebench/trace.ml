(* Spans and counters for the traced run, taken from outside the
   checker: the benchmark wraps each call into a layer's public function
   in a span named after the layer. Spans stay in memory until the run
   writes them out at its end. *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1 for the root span of a check *)
  check : int;
  start : float;
  stop : float;
}

let spans = ref []
let open_spans = ref []
let next_id = ref 0
let current_check = ref (-1)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let add tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let count name n = add counters name (float_of_int n)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let start = Unix.gettimeofday () in
  let close () =
    let stop = Unix.gettimeofday () in
    open_spans := List.tl !open_spans;
    spans := { id; name; parent; check = !current_check; start; stop } :: !spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* [check id f] runs check [id] under its root span *)
let check id f =
  current_check := id;
  span "check" f

(* a root span timed by the caller, for a check that runs in another
   process *)
let root ~check ~start ~stop =
  spans := { id = !next_id; name = "check"; parent = -1; check; start; stop } :: !spans;
  incr next_id

(* total self time per span name: each span's duration minus the part
   of it that its children cover *)
let self_times () =
  let covered = Hashtbl.create 1024 and self = Hashtbl.create 16 in
  List.iter
    (fun s -> if s.parent >= 0 then add covered s.parent (s.stop -. s.start))
    !spans;
  List.iter
    (fun s ->
      let inner = Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
      add self s.name (s.stop -. s.start -. inner))
    !spans;
  self

(* one JSON object per line, times in seconds since [origin] *)
let write path ~origin =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": \"%s\", \"parent\": %d, \"check\": %d, \
             \"start\": %.9f, \"end\": %.9f}\n"
            s.id s.name s.parent s.check (s.start -. origin) (s.stop -. origin))
        (List.rev !spans))
