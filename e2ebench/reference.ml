(* Reference verdicts, computed outside the timed region.

   - rl: the eager determinize-then-include pipeline that the antichain
     engine replaced (Lemma 4.3 on explicit DFAs), as [eager_rl] in
     bench/main.ml runs it: no inclusion engine, no quotients.
   - sat and rs: Theorem 4.7, sat <=> rl /\ rs, against the eager rl,
     for every (model, formula) pair checked under all three kinds. Their
     witnesses are certified by the checker's independent replay before
     a Fails verdict is reported at all.
   - abstraction: the conclusion must agree with the direct concrete
     check of R̄(η) (Theorems 8.2 and 8.3, Corollary 8.4).
   - the paper's figures: the verdicts EXPERIMENTS.md records for F2-F4,
     pinned by hand in [Inputs]. *)

open Rl_automata
open Rl_buchi
open Rl_core
module Request = Rl_service.Request

let verdict ok = if ok then "holds" else "fails"

(* property automata, shared by the pairs that check one formula *)
let properties : (string list * string, Buchi.t) Hashtbl.t = Hashtbl.create 8

let eager_rl ~text ~formula =
  let ts = Nfa.trim (Ts_format.parse_ts text) in
  let alpha = Nfa.alphabet ts in
  let system = Buchi.of_transition_system ts in
  let key = (Rl_sigma.Alphabet.names alpha, formula) in
  let pb =
    match Hashtbl.find_opt properties key with
    | Some b -> b
    | None ->
        let p = Relative.ltl alpha (Rl_ltl.Parser.parse formula) in
        let b = Relative.property_buchi alpha p in
        Hashtbl.add properties key b;
        b
  in
  let pre_l = Dfa.determinize (Buchi.pre_language system) in
  let pre_lp = Dfa.determinize (Buchi.pre_language (Buchi.inter system pb)) in
  Result.is_ok (Dfa.included pre_l pre_lp)

let concrete_rl ~text ~keep ~formula =
  let ts = Ts_format.parse_ts text in
  let hom = Rl_hom.Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep in
  Result.is_ok
    (Abstraction.check_concrete ~ts ~hom ~formula:(Rl_ltl.Parser.parse formula) ())

(* [check checks outcomes] is, per check, why its outcome is wrong *)
let check (checks : Inputs.check array) (outcomes : Pipeline.outcome array) =
  let wrong = Array.make (Array.length checks) None in
  let flag i msg = if wrong.(i) = None then wrong.(i) <- Some msg in
  let rl = Hashtbl.create 64 and pairs = Hashtbl.create 64 in
  Array.iteri
    (fun i { Inputs.name; text; formula; task; expect } ->
      let { Pipeline.verdict = got; witness } = outcomes.(i) in
      (match expect with
      | Some e when e.Inputs.status <> got ->
          flag i ("the pinned verdict is " ^ e.Inputs.status)
      | Some { Inputs.witness = Some w; _ } when Some w <> witness ->
          flag i ("the pinned witness is " ^ w)
      | _ -> ());
      match task with
      | Inputs.Decide kind ->
          if got <> "holds" && got <> "fails" then flag i got
          else begin
            let key = (name, formula) in
            let r =
              match Hashtbl.find_opt rl key with
              | Some r -> r
              | None ->
                  let r = eager_rl ~text ~formula in
                  Hashtbl.add rl key r;
                  r
            in
            Hashtbl.replace pairs key
              ((kind, i) :: Option.value ~default:[] (Hashtbl.find_opt pairs key));
            if kind = Request.Rl && verdict r <> got then
              flag i ("the eager reference says " ^ verdict r)
          end
      | Inputs.Abstract keep -> (
          let concrete = concrete_rl ~text ~keep ~formula in
          (match expect with
          | Some { Inputs.concrete = Some c; _ } when c <> concrete ->
              flag i "the pinned direct concrete verdict differs"
          | _ -> ());
          match got with
          | "concrete_holds" when not concrete ->
              flag i "the direct concrete check refutes it (Theorem 8.2)"
          | "concrete_fails" when concrete ->
              flag i "the direct concrete check confirms it (Theorem 8.3)"
          | "concrete_holds" | "concrete_fails" | "unknown" -> ()
          | v -> flag i v))
    checks;
  let holds i = outcomes.(i).Pipeline.verdict = "holds" in
  Hashtbl.iter
    (fun key legs ->
      match (List.assoc_opt Request.Sat legs, List.assoc_opt Request.Rs legs) with
      | Some s, Some r ->
          if holds s <> (Hashtbl.find rl key && holds r) then
            flag s "sat differs from rl /\\ rs (Theorem 4.7)"
      | Some s, None ->
          if holds s && not (Hashtbl.find rl key) then
            flag s "sat holds where rl fails (Theorem 4.7)"
      | _ -> ())
    pairs;
  wrong
