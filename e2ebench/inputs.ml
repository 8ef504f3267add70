(* Seeded workload inputs.

   Everything the checker receives is generated text: model sources in
   the .ts format, formula strings, and the observable actions of a
   hiding homomorphism. The same seed gives byte-identical inputs.

   The workloads are stratified: the seed picks letters and edges, never
   the mix of sizes, formulas, nesting depths or verdict shapes, so every
   seed asks the checker for about the same work. *)

module Prng = Rl_prelude.Prng
module Request = Rl_service.Request

type task =
  | Decide of Request.kind
  | Abstract of string list  (** observable actions; the others are hidden *)

(* a verdict pinned by hand *)
type expect = {
  status : string;
  witness : string option;
  concrete : bool option;  (** the direct concrete check, abstractions only *)
}

type check = {
  name : string;  (** one name per model text *)
  text : string;
  formula : string;
  task : task;
  expect : expect option;
}

let workloads = [ "formula_ladder"; "system_scale"; "abstraction" ]
let kinds = [ Request.Rl; Request.Sat; Request.Rs ]
let abc = [ "a"; "b"; "c" ]

let ts_text ?comment ?(initial = [ 0 ]) ~alphabet edges =
  let b = Buffer.create ((12 * List.length edges) + 64) in
  Option.iter (Printf.bprintf b "# %s\n") comment;
  Printf.bprintf b "alphabet %s\ninitial %s\n" (String.concat " " alphabet)
    (String.concat " " (List.map string_of_int initial));
  List.iter (fun (q, a, q') -> Printf.bprintf b "%d %s %d\n" q a q') edges;
  Buffer.contents b

(* --- strongly connected semi-deterministic systems --- *)

(* A system over {a, b, c} with at most one successor per letter: state
   q reads a random letter into q+1 (mod n), and about half the states
   have a second edge on another letter to a random state. [letters] is
   the seed's renaming (x, y, z) of a, b, c. State 0 loops on x, so every
   prefix extends to a behavior that reads x infinitely often; a doomed
   system adds a trap: state 0 reads z into a fresh state that loops on
   z forever, so every property that needs x is doomed after the prefix
   z. The verdict shape is fixed by construction, not by the seed. With
   [~quiet_cycle], the cycle reads only x and y, so z labels second edges
   alone. *)
type system = {
  letters : string array;
  cycle : string array;  (** cycle.(q) labels q -> q+1 *)
  extra : (string * int) option array;  (** the second edge of q *)
  doomed : bool;
}

let renaming rng =
  let l = Array.of_list abc in
  Prng.shuffle rng l;
  l

let system ?(quiet_cycle = false) rng ~letters ~states ~doomed =
  let cycle = Array.make states "" and extra = Array.make states None in
  for q = 0 to states - 1 do
    (* state 0 keeps x for its loop and z for the trap *)
    let free = if q = 0 then [| letters.(1) |] else Array.copy letters in
    Prng.shuffle rng free;
    if quiet_cycle && free.(0) = letters.(2) then begin
      free.(0) <- free.(1);
      free.(1) <- letters.(2)
    end;
    cycle.(q) <- free.(0);
    if q > 0 && Prng.bool rng then
      extra.(q) <- Some (free.(1), Prng.int rng states)
  done;
  { letters; cycle; extra; doomed }

let edges s =
  let n = Array.length s.cycle in
  let z = s.letters.(2) in
  ((0, s.letters.(0), 0)
  :: List.concat
       (List.init n (fun q ->
            (q, s.cycle.(q), (q + 1) mod n)
            :: Option.fold ~none:[] ~some:(fun (l, t) -> [ (q, l, t) ]) s.extra.(q))))
  @ if s.doomed then [ (0, z, n); (n, z, n) ] else []

let system_text s = ts_text ~alphabet:abc (edges s)

(* the C1/C2 ladder []<> (x & X (y | ...)), nested [depth] times *)
let ladder depth (l : string array) =
  let rec go d =
    if d = 0 then l.(0)
    else Printf.sprintf "[]<> (%s & X (%s | %s))" l.(0) l.(1) (go (d - 1))
  in
  go depth

let triple ~name ~text ~formula =
  List.map
    (fun kind -> { name; text; formula; task = Decide kind; expect = None })
    kinds

let shape doomed = if doomed then "doomed" else "live"

(* --- the paper's figures --- *)

(* Figures 2 and 3 with the verdicts EXPERIMENTS.md records (F2, F3);
   Theorem 4.7 pins the others. *)
let paper_decisions () =
  let pin ?witness status = Some { status; witness; concrete = None } in
  let check name ts kind expect =
    {
      name;
      text = Rl_core.Ts_format.print_ts ts;
      formula = "[]<> result";
      task = Decide kind;
      expect;
    }
  in
  let server = Rl_core.Paper.server_ts and faulty = Rl_core.Paper.faulty_ts in
  [
    check "fig2-server" server Request.Rl (pin "holds");
    check "fig2-server" server Request.Sat (pin "fails");
    check "fig2-server" server Request.Rs None;
    check "fig3-faulty" faulty Request.Rl (pin ~witness:"lock" "fails");
    check "fig3-faulty" faulty Request.Sat None;
    check "fig3-faulty" faulty Request.Rs None;
  ]

(* Figure 4: both systems abstract to the same diagram, the abstract
   verdict is positive for both, and it transfers only for Figure 2,
   where the homomorphism is simple (F4) *)
let paper_abstractions () =
  let check name ts ~simple ~concrete status =
    let witness =
      Printf.sprintf "abstract=holds simple=%b maximal_words=false" simple
    in
    {
      name;
      text = Rl_core.Ts_format.print_ts ts;
      formula = "[]<> result";
      task = Abstract [ "request"; "result"; "reject" ];
      expect = Some { status; witness = Some witness; concrete = Some concrete };
    }
  in
  [
    check "fig4-server" Rl_core.Paper.server_ts ~simple:true ~concrete:true
      "concrete_holds";
    check "fig4-faulty" Rl_core.Paper.faulty_ts ~simple:false ~concrete:false
      "unknown";
  ]

(* --- formula_ladder --- *)

(* (nesting depth, systems of each verdict shape) *)
let ladder_mix ~tiny =
  if tiny then [ (0, 1); (1, 1); (2, 1) ] else [ (0, 6); (1, 6); (2, 5) ]

(* The ladder keeps its letters: renaming the atoms moves the tableau's
   cost by up to a third, which would turn the seed into a speed knob.
   The seed picks the systems. *)
let ladder_letters = Array.of_list abc

(* The depth-3 rung is one doomed system under sat, whose verdict the
   trap fixes. Its rl check would translate the formula twice, for the
   check and for the certification of its doomed prefix: about 4 s, six
   times the rest of a pass together, and rs about 3 s. Either would
   leave a run four passes, too few to find the host's fast spells. *)
let deepest () =
  let s = system (Prng.create 3) ~letters:ladder_letters ~states:12 ~doomed:true in
  [
    {
      name = "ladder-d3-doomed0";
      text = system_text s;
      formula = ladder 3 ladder_letters;
      task = Decide Request.Sat;
      expect = Some { status = "fails"; witness = None; concrete = None };
    };
  ]

let formula_ladder ~tiny rng =
  List.concat_map
    (fun (depth, k) ->
      let letters = ladder_letters in
      let formula = ladder depth letters in
      List.concat_map
        (fun doomed ->
          List.concat
            (List.init k (fun i ->
                 let states = 8 + (4 * i mod 9) in
                 let s = system rng ~letters ~states ~doomed in
                 let name = Printf.sprintf "ladder-d%d-%s%d" depth (shape doomed) i in
                 triple ~name ~text:(system_text s) ~formula)))
        [ false; true ])
    (ladder_mix ~tiny)
  @ (if tiny then [] else deepest ())
  @ paper_decisions ()

(* --- system_scale --- *)

(* (states, systems of each verdict shape) *)
let scale_mix ~tiny =
  if tiny then [ (16, 1); (32, 1) ] else [ (128, 6); (256, 8); (512, 2) ]

(* parallel modular counters over {t, c}, one t-cycle per length in
   [ps]; a c-edge from each counter head enters a c-only sink (the
   counter-N family of bench/main.ml) *)
let counter ps =
  let sink = List.fold_left ( + ) 0 ps in
  let heads, edges, _ =
    List.fold_left
      (fun (heads, edges, base) p ->
        let cyc = List.init p (fun i -> (base + i, "t", base + ((i + 1) mod p))) in
        (base :: heads, edges @ cyc @ [ (base, "c", sink) ], base + p))
      ([], [], 0) ps
  in
  ts_text ~alphabet:[ "t"; "c" ] ~initial:(List.rev heads)
    (edges @ [ (sink, "c", sink) ])

(* the (a|b)*a(a|b)^n ladder, whose subset construction walks 2^n
   subsets; the doomed variant adds a c-edge from 0 into a c-only sink
   (ladder-doomed-n and ladder-equal-n of bench/main.ml) *)
let ladder_system ~doomed n =
  let steps =
    List.concat_map (fun i -> [ (i, "a", i + 1); (i, "b", i + 1) ]) (List.init n succ)
  in
  let ends = [ (0, "a", 0); (0, "b", 0); (0, "a", 1); (n + 1, "a", n + 1); (n + 1, "b", n + 1) ] in
  let trap = if doomed then [ (0, "c", n + 2); (n + 2, "c", n + 2) ] else [] in
  ts_text ~alphabet:(if doomed then abc else [ "a"; "b" ]) (ends @ steps @ trap)

let system_scale ~tiny rng =
  List.concat_map
    (fun (states, k) ->
      List.concat_map
        (fun doomed ->
          List.concat
            (List.init k (fun i ->
                 let letters = renaming rng in
                 (* both formulas at every size and shape *)
                 let formula =
                   if (i + Bool.to_int doomed) mod 2 = 0 then "[]<> " ^ letters.(0)
                   else ladder 1 letters
                 in
                 let s = system rng ~letters ~states ~doomed in
                 let name = Printf.sprintf "scale-%d-%s%d" states (shape doomed) i in
                 triple ~name ~text:(system_text s) ~formula)))
        [ false; true ])
    (scale_mix ~tiny)
  @
  let n = if tiny then 4 else 10 in
  triple ~name:"counter"
    ~text:(counter (if tiny then [ 2; 3 ] else [ 2; 3; 5; 7 ]))
    ~formula:"[]<> t"
  @ triple ~name:"ladder-doomed" ~text:(ladder_system ~doomed:true n) ~formula:"[]<> a"
  @ triple ~name:"ladder-equal" ~text:(ladder_system ~doomed:false n) ~formula:"[]<> a"

(* --- abstraction --- *)

(* EXPERIMENTS C7's hidden pipeline: [stages] hidden steps, then an
   observable ok/fail loop; every fourth stage may also fail early,
   straight into the loop *)
let pipeline ~stages =
  let early = List.filter (fun i -> i mod 4 = 3) (List.init stages Fun.id) in
  ts_text ~alphabet:[ "step"; "ok"; "fail" ]
    (List.init stages (fun i -> (i, "step", i + 1))
    @ List.map (fun i -> (i, "fail", stages)) early
    @ [ (stages, "ok", stages); (stages, "fail", stages) ])

(* (pipeline lengths, system sizes, systems of each size and shape).
   The simplicity check's cost on the random systems varies from seed to
   seed by an order of magnitude, so they come many and small; twelve
   128-stage pipelines, whose cost the seed does not move, hold the 90th
   percentile. *)
let abstraction_mix ~tiny =
  if tiny then ([ 4; 8 ], [ 8; 12 ], 1)
  else
    ( [ 32; 32; 32; 64 ] @ List.init 12 (fun _ -> 128) @ [ 256; 256 ],
      [ 8; 12; 16; 20; 24 ],
      8 )

let abstraction ~tiny rng =
  let stages, sizes, k = abstraction_mix ~tiny in
  List.mapi
    (fun i n ->
      let formula = List.nth [ "[]<> ok"; "[]<> (ok | fail)"; "[]<> (ok & X ok)" ] (i mod 3) in
      {
        name = Printf.sprintf "pipeline-%d-%d" n i;
        text = pipeline ~stages:n;
        formula;
        task = Abstract [ "ok"; "fail" ];
        expect = None;
      })
    stages
  @ List.concat_map
      (fun states ->
        List.concat_map
          (fun doomed ->
            List.init k (fun i ->
                (* hide z, which labels only second edges; a doomed
                   system's trap then leaves maximal words *)
                let letters = renaming rng in
                let x = letters.(0) and y = letters.(1) in
                let s = system ~quiet_cycle:true rng ~letters ~states ~doomed in
                let formula =
                  List.nth
                    [
                      "[]<> " ^ x;
                      Printf.sprintf "[]<> (%s & X %s)" x y;
                      Printf.sprintf "[]<> (%s | %s)" x y;
                    ]
                    (i mod 3)
                in
                {
                  name = Printf.sprintf "hidden-%d-%s%d" states (shape doomed) i;
                  text = system_text s;
                  formula;
                  task = Abstract [ x; y ];
                  expect = None;
                }))
          [ false; true ])
      sizes
  @ paper_abstractions ()

let make ?(tiny = false) workload ~seed =
  let rng = Prng.create seed in
  Array.of_list
    (match workload with
    | "formula_ladder" -> formula_ladder ~tiny rng
    | "system_scale" -> system_scale ~tiny rng
    | "abstraction" -> abstraction ~tiny rng
    | w -> invalid_arg ("Inputs.make: unknown workload " ^ w))
