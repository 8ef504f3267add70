open Rl_buchi
open Rl_fair

type t = { product : Buchi.t; implementation : Buchi.t }

let strip_acceptance b =
  Buchi.create ~alphabet:(Buchi.alphabet b) ~states:(Buchi.states b)
    ~initial:(Buchi.initial b)
    ~accepting:(List.init (Buchi.states b) Fun.id)
    ~transitions:(Buchi.transitions b) ()

let construct ?budget ~system p =
  let pb = Relative.property_buchi ?budget (Buchi.alphabet system) p in
  let product = Buchi.trim (Buchi.inter ?budget system pb) in
  { product; implementation = strip_acceptance product }

(* Both sides are limit closed (the system by Theorem 5.1's hypothesis,
   the implementation because its acceptance condition is trivial), so
   language equality is prefix-language equality — no complementation, and
   the two inclusions run on the prefix NFAs directly via the antichain
   engine. [reduce] quotients both prefix NFAs by their cached simulation
   preorders first (language-preserving, so the verdict and the validity
   of a separating word on the original automata are unaffected). *)
let language_preserved ?budget ?(reduce = true) ~system t =
  let pre b =
    let p = Buchi.pre_language ?budget b in
    if reduce then Rl_automata.Preorder.reduce p else p
  in
  Rl_automata.Inclusion.equivalent ?budget (pre system) (pre t.implementation)

let fair_run_satisfies t labels p =
  let pb = Relative.property_buchi (Buchi.alphabet t.product) p in
  Buchi.member pb labels

let verify_fair_exact t p =
  let neg = Relative.property_neg_buchi (Buchi.alphabet t.product) p in
  match Streett.fair_run_within t.implementation ~property:neg with
  | None -> Ok ()
  | Some run -> Error run

let sample_fair_check rng ~samples t p =
  let ok = ref 0 and generated = ref 0 in
  for _ = 1 to samples do
    match Fair.generate_strongly_fair rng t.implementation with
    | None -> ()
    | Some run ->
        incr generated;
        let labels = Fair.label_lasso t.implementation run in
        if fair_run_satisfies t labels p then incr ok
  done;
  (!ok, !generated)
