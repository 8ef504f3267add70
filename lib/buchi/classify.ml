open Rl_sigma
open Rl_automata

let is_safety b = Omega_lang.is_limit_closed b

let is_liveness ?budget ?(reduce = true) b =
  (* pre(L) = Σ*: every word extends to a behavior — an antichain
     inclusion of the one-state Σ* automaton in the prefix NFA, with no
     determinization. [reduce] shrinks the property and its prefix NFA
     by their simulation quotients first; both are language-preserving,
     so the verdict is unchanged. *)
  let b = if reduce then Reduce.quotient (Buchi.trim b) else b in
  let pre = Buchi.pre_language b in
  let pre = if reduce then Preorder.reduce pre else pre in
  let k = Alphabet.size (Buchi.alphabet b) in
  let sigma_star =
    Nfa.create
      ~alphabet:(Buchi.alphabet b)
      ~states:1 ~initial:[ 0 ] ~finals:[ 0 ]
      ~transitions:(List.init k (fun a -> (0, a, 0)))
      ()
  in
  match Inclusion.included ?budget sigma_star pre with
  | Ok () -> true
  | Error _ -> false

let universal_buchi alphabet =
  let k = Alphabet.size alphabet in
  Buchi.create ~alphabet ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
    ~transitions:(List.init k (fun a -> (0, a, 0)))
    ()

let liveness_part ?budget ?max_states b =
  Buchi.union b
    (Complement.complement ?budget ?max_states (Omega_lang.safety_closure b))

let decompose ?budget ?max_states b =
  (Omega_lang.safety_closure b, liveness_part ?budget ?max_states b)
