let included a b =
  (* trim + simulation-quotient the right-hand side first: the
     complementation is exponential in its state count *)
  let b = Reduce.quotient (Buchi.trim b) in
  let diff = Buchi.inter a (Complement.complement b) in
  match Buchi.accepting_lasso diff with
  | None -> Ok ()
  | Some x -> Error x

let equivalent a b =
  match included a b with
  | Error x -> Error x
  | Ok () -> (
      match included b a with Error x -> Error x | Ok () -> Ok ())

let safety_closure b =
  Buchi.limit_of_dfa (Rl_automata.Dfa.determinize (Buchi.pre_language b))

let is_limit_closed b =
  (* L ⊆ lim(pre(L)) always holds; only the converse needs deciding. The
     closure stands on the left of the inclusion only, so the linear
     reading of [Buchi.limit] serves: nothing complements it. *)
  let closure = Buchi.limit (Buchi.pre_language b) in
  match included closure b with
  | Ok () -> true
  | Error _ -> false
