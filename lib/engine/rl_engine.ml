(* The resource-governed checking engine: budgets, typed errors and
   certified witnesses under one roof.

   [Budget] and [Error] are the kernel modules re-exported, so the types
   here are equal to the ones threaded through the automata libraries:
   [Rl_engine.Budget.t = Rl_engine_kernel.Budget.t]. *)

module Budget = Rl_engine_kernel.Budget
module Fault = Rl_engine_kernel.Fault
module Lru = Rl_engine_kernel.Lru
module Simcache = Rl_engine_kernel.Simcache
module Stats = Rl_engine_kernel.Stats

module Error = struct
  include Rl_engine_kernel.Error

  (* the toolchain's own domain exceptions, mapped to typed errors *)
  let of_exn = function
    | Rl_ltl.Parser.Parse_error msg ->
        Some (Parse_error { file = None; line = 0; msg })
    | Rl_core.Ts_format.Syntax_error (line, msg) ->
        Some (Parse_error { file = None; line; msg })
    | Rl_petri.Petri.Unbounded place ->
        Some (Unbounded_net { place; bound = Rl_petri.Petri.default_bound })
    | Rl_buchi.Complement.Too_large limit ->
        (* the rank-based construction hit its structural state cap: same
           verdict as an exhausted state budget, with the phase named *)
        Some
          (Budget_exhausted
             {
               Rl_engine_kernel.Budget.resource = `States;
               phase = "Büchi complementation";
               states_explored = limit;
               max_states = Some limit;
             })
    | Sys_error msg -> Some (Internal msg)
    | _ -> None

  (* shadow the kernel's [protect]: same contract, with the domain
     exceptions above handled by default *)
  let protect ?(handler = fun _ -> None) f =
    Rl_engine_kernel.Error.protect
      ~handler:(fun e ->
        match handler e with Some err -> Some err | None -> of_exn e)
      f
end

module Certify = Certify
