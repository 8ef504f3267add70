(* How the benchmark runs one check, untraced and traced.

   Untraced, a check goes through the checker's own entry points:
   [Request.run] for sat/rl/rs (the CLI path, without a cache) and
   [Abstraction.verify] behind the same parsing as [rlcheck abstract].
   Traced, the benchmark calls the layers' public functions itself, in
   the order [Request.run], [Relative] and [Abstraction] call them, with
   a span around each call; the outcome must equal the untraced one. *)

open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_core
module Request = Rl_service.Request
module Budget = Rl_engine.Budget
module Certify = Rl_engine.Certify
module Error = Rl_engine.Error
module Stats = Rl_engine.Stats
module Lint = Rl_analysis.Lint
module Diagnostic = Rl_analysis.Diagnostic
module Hom = Rl_hom.Hom

type outcome = { verdict : string; witness : string option }

let error msg = { verdict = "error: " ^ msg; witness = None }
let holds = { verdict = "holds"; witness = None }
let fails w = { verdict = "fails"; witness = Some w }

let of_reply (r : Request.reply) =
  let verdict =
    match r.Request.status with
    | Request.Holds -> "holds"
    | Request.Fails -> "fails"
    | Request.Blocked -> "blocked"
    | Request.Failed e -> "error: " ^ Error.to_string e
  in
  { verdict; witness = r.Request.witness }

(* an abstraction's conclusion, with the facts it rests on *)
let abstraction_outcome conclusion ~simple ~maximal abstract_verdict =
  let verdict =
    match conclusion with
    | `Concrete_holds -> "concrete_holds"
    | `Concrete_fails -> "concrete_fails"
    | `Unknown -> "unknown"
  in
  let abstract =
    match abstract_verdict with
    | Ok () -> "holds"
    | Error w ->
        "fails at " ^ String.concat "." (List.map string_of_int (Word.to_list w))
  in
  {
    verdict;
    witness =
      Some
        (Printf.sprintf "abstract=%s simple=%b maximal_words=%b" abstract simple
           maximal);
  }

let parse_ts ?on_diagnostic ~name text =
  match Ts_format.parse_ts_result ?on_diagnostic ~file:name text with
  | Ok ts -> ts
  | Error e -> failwith (Error.to_string e)

let guarded f = try f () with e -> error (Printexc.to_string e)

(* --- untraced --- *)

let run { Inputs.name; text; formula; task; _ } =
  match task with
  | Inputs.Decide kind ->
      of_reply (Request.run (Request.job kind (Request.Inline { name; text }) formula))
  | Inputs.Abstract keep ->
      guarded (fun () ->
          let formula = Rl_ltl.Parser.parse formula in
          let ts = parse_ts ~name text in
          let hom = Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep in
          let r = Abstraction.verify ~ts ~hom ~formula () in
          abstraction_outcome r.Abstraction.conclusion ~simple:r.Abstraction.simple
            ~maximal:r.Abstraction.maximal_words r.Abstraction.abstract_verdict)

(* --- traced: one span per call into a layer --- *)

let span = Trace.span

let translate alpha f ~neg =
  span "translate" (fun () ->
      let labeling = Rl_ltl.Semantics.canonical alpha in
      let b =
        if neg then Rl_ltl.Translate.to_buchi_neg ~alphabet:alpha ~labeling f
        else Rl_ltl.Translate.to_buchi ~alphabet:alpha ~labeling f
      in
      Trace.count "translate.calls" 1;
      Trace.count "translate.states" (Buchi.states b);
      b)

let reduced n_in n_out =
  Trace.count "reduce.states_in" n_in;
  Trace.count "reduce.states_out" n_out

(* [Relative]'s quotient-before-explore steps *)
let reduce_buchi b =
  span "reduce" (fun () ->
      let q = Reduce.quotient (Buchi.trim b) in
      reduced (Buchi.states b) (Buchi.states q);
      q)

let reduce_nfa n =
  span "reduce" (fun () ->
      let q = Preorder.reduce n in
      reduced (Nfa.states n) (Nfa.states q);
      q)

let product f =
  span "product" (fun () ->
      let b = f () in
      Trace.count "product.states" (Buchi.states b);
      b)

let prefixes ~budget b =
  span "product" (fun () ->
      let n = Buchi.pre_language ~budget b in
      Trace.count "product.states" (Nfa.states n);
      n)

let inclusion ~budget a b =
  span "inclusion" (fun () ->
      let before = Stats.snapshot () in
      let r = Inclusion.included ~budget ~subsumption:`Simulation a b in
      let d = Stats.diff ~before ~after:(Stats.snapshot ()) in
      Trace.count "inclusion.nodes" d.Stats.nodes;
      Trace.count "inclusion.antichain_hits" d.Stats.antichain_hits;
      r)

let emptiness ~budget b = span "emptiness" (fun () -> Buchi.accepting_lasso ~budget b)

let certify f =
  span "certify" (fun () ->
      Trace.count "certify.calls" 1;
      f ())

let uncertified = error "uncertified witness"

(* [Request]'s decide step, with [Relative]'s deciders unfolded *)
let decide ~budget ~fresh kind ts f =
  let alpha = Nfa.alphabet ts in
  let system = Buchi.of_transition_system ts in
  let p = Relative.ltl alpha f in
  let counterexample x =
    match certify (fun () -> Certify.counterexample ~system p x) with
    | Ok () -> fails (Format.asprintf "%a" (Lasso.pp alpha) x)
    | Error _ -> uncertified
  in
  match kind with
  | Request.Sat -> (
      let neg = translate alpha f ~neg:true in
      let prod = product (fun () -> Buchi.inter ~budget system neg) in
      match emptiness ~budget prod with
      | None -> holds
      | Some x -> counterexample x)
  | Request.Rl -> (
      let pb = reduce_buchi (translate alpha f ~neg:false) in
      let sys = reduce_buchi system in
      let pre_l = reduce_nfa (prefixes ~budget sys) in
      let lp = product (fun () -> Buchi.inter ~budget sys pb) in
      let pre_lp = reduce_nfa (prefixes ~budget lp) in
      match inclusion ~budget pre_l pre_lp with
      | Ok () -> holds
      | Error w -> (
          match
            certify (fun () -> Certify.doomed_prefix ~budget:(fresh ()) ~system p w)
          with
          | Ok () -> fails (Format.asprintf "%a" (Word.pp alpha) w)
          | Error _ -> uncertified))
  | Request.Rs -> (
      let pb = reduce_buchi (translate alpha f ~neg:false) in
      let sys = reduce_buchi system in
      let neg = translate alpha f ~neg:true in
      let lp = product (fun () -> Buchi.inter ~budget sys pb) in
      let pre_lp = reduce_nfa (prefixes ~budget lp) in
      let closure = product (fun () -> Buchi.limit ~budget pre_lp) in
      let lhs = product (fun () -> Buchi.inter ~budget sys closure) in
      let prod = product (fun () -> Buchi.inter ~budget lhs neg) in
      match emptiness ~budget prod with
      | None -> holds
      | Some x -> counterexample x)

(* [Request.run] without a cache: parse, lint pre-flight, decide *)
let traced_decide ~name ~text ~formula kind =
  let job = Request.job kind (Request.Inline { name; text }) formula in
  let budget = Request.budget_of_job job in
  let fresh () = Request.budget_of_job job in
  let f, sys, parse_diags =
    span "parse" (fun () ->
        let f = Rl_ltl.Parser.parse formula in
        let diags = ref [] in
        let sys = parse_ts ~on_diagnostic:(fun d -> diags := d :: !diags) ~name text in
        (f, sys, List.rev !diags))
  in
  let trimmed =
    span "lint" (fun () ->
        Trace.count "lint.calls" 1;
        let diags =
          Lint.run ~deep:false
            {
              Lint.empty with
              Lint.file = Some name;
              parse = parse_diags;
              system = Some sys;
              formula = Some f;
            }
        in
        if
          List.exists
            (fun d -> d.Diagnostic.severity <> Diagnostic.Hint && Diagnostic.is_error d)
            diags
        then None
        else Some (Nfa.trim sys))
  in
  match trimmed with
  | None -> { verdict = "blocked"; witness = None }
  | Some ts -> decide ~budget ~fresh kind ts f

(* [Abstraction.verify], step by step *)
let traced_abstraction ~name ~text ~formula keep =
  let formula, ts, hom =
    span "parse" (fun () ->
        let formula = Rl_ltl.Parser.parse formula in
        let ts = parse_ts ~name text in
        (formula, ts, Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep))
  in
  let budget = Budget.unlimited in
  let abstract = Hom.abstract hom in
  if
    not
      (Rl_ltl.Transform.is_sigma_normal ~alphabet:abstract
         (Rl_ltl.Formula.expand formula))
  then invalid_arg "formula not in Σ'-normal form";
  let abstract_ts = span "hom.image" (fun () -> Hom.image_ts hom ts) in
  let maximal = span "hom.maximal" (fun () -> Hom.has_maximal_words ~budget abstract_ts) in
  let checked =
    if maximal then span "hom.image" (fun () -> Hom.hash_extend abstract_ts)
    else abstract_ts
  in
  let verdict =
    span "abstract_decide" (fun () ->
        Relative.is_relative_liveness ~budget
          ~system:(Buchi.of_transition_system checked)
          (Relative.ltl (Nfa.alphabet checked) formula))
  in
  let analysis = span "hom.simplicity" (fun () -> Hom.analyze ~budget hom ts) in
  ignore (Rl_ltl.Transform.rbar ~abstract ~eps_tail:`Strong formula);
  let conclusion =
    if maximal then `Unknown
    else
      match verdict with
      | Error _ -> `Concrete_fails
      | Ok () -> if analysis.Hom.simple then `Concrete_holds else `Unknown
  in
  abstraction_outcome conclusion ~simple:analysis.Hom.simple ~maximal verdict

let traced { Inputs.name; text; formula; task; _ } =
  guarded (fun () ->
      match task with
      | Inputs.Decide kind -> traced_decide ~name ~text ~formula kind
      | Inputs.Abstract keep -> traced_abstraction ~name ~text ~formula keep)
