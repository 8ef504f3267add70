open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_ltl
module Bitset = Rl_prelude.Bitset
module Budget = Rl_engine_kernel.Budget

type input = {
  file : string option;
  parse : Diagnostic.t list;
  system : Nfa.t option;
  property : Buchi.t option;
  formula : Formula.t option;
  keep : string list option;
  budget : Budget.t option;
  locs : ((int * string * int) * (int * int * int)) list;
}

let empty =
  {
    file = None;
    parse = [];
    system = None;
    property = None;
    formula = None;
    keep = None;
    budget = None;
    locs = [];
  }

module Scc = Rl_prelude.Scc

(* --- the shared system analysis ---

   Several passes ask the same structural questions of one system: its
   Büchi view, whether that view has an accepting run, which states are
   reachable or live, and how it splits into components. [run] builds one
   [context] per input, and each answer is computed on first use, at
   most once. *)

type graph = {
  reach : Bitset.t;  (* the states reachable over the CSR table *)
  scc : Scc.t;  (* the components of the CSR table *)
  reached : bool array;  (* [reached.(c)]: component [c] is reachable *)
}

type behavior = {
  buchi : Buchi.t;  (* the system read as a Büchi automaton *)
  live : Bitset.t;  (* its live states ([Buchi.live]) *)
  empty : bool;  (* no initial state is live: [Lω = ∅] *)
}

type context = {
  input : input;
  graph : graph Lazy.t;  (* forced only when [input.system] is present *)
  behavior : behavior option Lazy.t;
      (* [None] unless the system is a non-empty, ε-free NFA whose
         states are all final *)
  simplicity : bool option Lazy.t;  (* [static_simplicity input] *)
  no_maximal : bool option Lazy.t;  (* [static_no_maximal input] *)
}

type pass = {
  name : string;
  codes : string list;
  deep : bool;
  run : context -> Diagnostic.t list;
}

(* --- small helpers --- *)

(* "state 3 is ..." / "4 states (2, 5, 6, 7) are ..." with a capped listing *)
let fmt_states qs =
  match qs with
  | [ q ] -> Printf.sprintf "state %d" q
  | qs ->
      let n = List.length qs in
      let shown = List.filteri (fun i _ -> i < 8) qs in
      let listing = String.concat ", " (List.map string_of_int shown) in
      let ellipsis = if n > 8 then ", …" else "" in
      Printf.sprintf "%d states (%s%s)" n listing ellipsis

let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let row = Array.init (lb + 1) Fun.id in
  for i = 1 to la do
    let prev_diag = ref row.(0) in
    row.(0) <- i;
    for j = 1 to lb do
      let d = !prev_diag in
      prev_diag := row.(j);
      row.(j) <-
        min
          (min (row.(j) + 1) (row.(j - 1) + 1))
          (d + if a.[i - 1] = b.[j - 1] then 0 else 1)
    done
  done;
  row.(lb)

(* a did-you-mean candidate: closest name within edit distance 2 (and
   closer than replacing the whole word) *)
let suggest name candidates =
  let best =
    List.fold_left
      (fun acc c ->
        let d = edit_distance name c in
        match acc with Some (_, d') when d' <= d -> acc | _ -> Some (c, d))
      None candidates
  in
  match best with
  | Some (c, d) when d <= 2 && d < String.length name -> Some c
  | _ -> None

(* the Büchi view of a transition system; [None] when [sys] is not an
   all-states-final ε-free NFA (library misuse — lint never raises) *)
let ts_buchi sys =
  if Nfa.states sys = 0 || Nfa.has_eps sys || not (Nfa.all_states_final sys)
  then None
  else Some (Buchi.of_transition_system sys)

let reach_of sys = Dataflow.reachable (Nfa.csr sys) ~init:(Nfa.initial sys)

(* the behavior of a system whose [Lω] is not empty *)
let nonempty_behavior ctx =
  match Lazy.force ctx.behavior with
  | Some v when not v.empty -> Some v
  | _ -> None

(* reachable components a run could stay in forever *)
let cycle_component g c = Scc.nontrivial g.scc c && g.reached.(c)

(* the components a strongly fair run can have as its infinity set: the
   infinity set of a fair run is closed under every transition (each is
   enabled, hence taken, infinitely often), strongly connected, and
   reachable — and conversely a round-robin tour of a reachable closed
   cycle-bearing SCC is strongly fair. *)
let feasible g c = g.scc.Scc.closed.(c) && cycle_component g c

let feasible_components g =
  List.filter (feasible g) (List.init g.scc.Scc.count Fun.id)

let lint_budget i =
  match i.budget with
  | Some b -> b
  | None -> Budget.create ~max_states:20_000 ()

(* valid observable actions of a hiding abstraction, in alphabet order *)
let valid_keep keep names = List.filter (fun n -> List.mem n keep) names

let hiding_hom i =
  match (i.keep, i.system) with
  | Some keep, Some sys -> (
      let names = Alphabet.names (Nfa.alphabet sys) in
      match valid_keep keep names with
      | [] -> None
      | valid -> (
          try Some (Rl_hom.Hom.hiding ~concrete:(Nfa.alphabet sys) ~keep:valid, sys)
          with Invalid_argument _ -> None))
  | _ -> None

(* --- shared constructors (also used by the deciders' vacuity hints) --- *)

let empty_behavior ?file () =
  Diagnostic.make ?file ~code:"RL103" ~severity:Error
    ~fix:
      "add a cycle: in a finite system every infinite behavior eventually \
       loops"
    "the system has no infinite behavior (pre(Lω) is empty): every property \
     is vacuously a relative liveness property"

let buchi_vacuity ?file b =
  if Buchi.states b > 0 && Buchi.is_empty b then [ empty_behavior ?file () ]
  else []

let alphabet_check ?file ~expected actual =
  if Alphabet.equal expected actual then []
  else
    [
      Diagnostic.make ?file ~code:"RL104" ~severity:Diagnostic.Error
        ~fix:"rebuild the property automaton over the system's alphabet"
        (Format.asprintf
           "system and property alphabets differ (%a vs %a): their product \
            is meaningless"
           Alphabet.pp expected Alphabet.pp actual);
    ]

let not_simple_hint ?file ?witness () =
  let at =
    match witness with
    | Some w -> Printf.sprintf " (Definition 6.3 fails at '%s')" w
    | None -> ""
  in
  Diagnostic.make ?file ~code:"RL403" ~severity:Diagnostic.Warning
    ~fix:
      "trust only abstract refutations (Theorem 8.3), or keep more actions \
       observable"
    (Printf.sprintf
       "the abstraction is not simple on L%s: an abstract 'yes' does not \
        transfer to the concrete system (Theorem 8.2 inapplicable — the \
        Fig. 3 trap)"
       at)

let maximal_words_hint ?file () =
  Diagnostic.make ?file ~code:"RL404" ~severity:Diagnostic.Warning
    ~fix:
      "extend dead abstract behaviors with a fresh '#' action \
       (Hom.hash_extend), or abstract less aggressively"
    "h(L) contains maximal words: Theorems 8.2/8.3 assume none, so no \
     abstract verdict transfers"

let erasing_hint ?file () =
  Diagnostic.make ?file ~code:"RL402" ~severity:Diagnostic.Error
    ~fix:"keep at least one action that occurs in the system"
    "the abstraction hides every concrete action: h(L) collapses to {ε} and \
     the abstract system is empty"

(* --- model passes --- *)

let run_unreachable i =
  match i.system with
  | None -> []
  | Some sys ->
      let reach = Nfa.reachable sys in
      let dead =
        List.filter
          (fun q -> not (Bitset.mem reach q))
          (List.init (Nfa.states sys) Fun.id)
      in
      if dead = [] then []
      else
        [
          Diagnostic.make ?file:i.file ~code:"RL101" ~severity:Warning
            ~fix:"remove the states or fix the 'initial' line"
            (Printf.sprintf
               "%s %s unreachable from the initial states and silently \
                ignored by every check"
               (fmt_states dead)
               (if List.length dead = 1 then "is" else "are"));
        ]

let run_behavior ctx =
  let i = ctx.input in
  match Lazy.force ctx.behavior with
  | None -> []
  | Some v ->
      if v.empty then [ empty_behavior ?file:i.file () ]
      else
        let reach = (Lazy.force ctx.graph).reach in
        let dead =
          List.filter
            (fun q -> Bitset.mem reach q && not (Bitset.mem v.live q))
            (List.init (Buchi.states v.buchi) Fun.id)
        in
        if dead = [] then []
        else
          [
            Diagnostic.make ?file:i.file ~code:"RL102" ~severity:Warning
              ~fix:
                "give the states a continuation (a cycle must be \
                 reachable), or remove them"
              (Printf.sprintf
                 "%s can reach no cycle: words through %s belong to L but \
                  are prefixes of no behavior in Lω"
                 (fmt_states dead)
                 (if List.length dead = 1 then "it" else "them"));
          ]

let run_alphabet_mismatch i =
  match (i.system, i.property) with
  | Some sys, Some p ->
      alphabet_check ?file:i.file ~expected:(Nfa.alphabet sys)
        (Buchi.alphabet p)
  | _ -> []

(* --- fairness passes --- *)

(* a strongly fair run exists iff some component is feasible, so one SCC
   pass decides it *)
let run_fairness ctx =
  match nonempty_behavior ctx with
  | None -> []
  | Some _ ->
      if feasible_components (Lazy.force ctx.graph) <> [] then []
      else
        [
          Diagnostic.make ?file:ctx.input.file ~code:"RL201" ~severity:Warning
            ~fix:
              "look for states whose outgoing transitions cannot all be \
               honoured infinitely often (e.g. exits into dead ends)"
            "no strongly fair run exists: every 'fair' verdict is vacuously \
             true and Theorem 5.1 has nothing to implement";
        ]

let run_vacuous_pairs ctx =
  match nonempty_behavior ctx with
  | None -> []
  | Some v ->
      let g = Lazy.force ctx.graph in
      let on_cycle q = Scc.nontrivial g.scc g.scc.Scc.comp.(q) in
      let vacuous =
        List.filter
          (fun (q, _, _) -> Bitset.mem g.reach q && not (on_cycle q))
          (Buchi.transitions v.buchi)
      in
      let n = List.length vacuous in
      if n = 0 then []
      else
        [
          Diagnostic.make ?file:ctx.input.file ~code:"RL202" ~severity:Hint
            (Printf.sprintf
               "%d transition%s leave%s states that lie on no cycle: the \
                corresponding strong-fairness (Streett) constraints can \
                never be enabled infinitely often and are vacuous"
               n
               (if n = 1 then "" else "s")
               (if n = 1 then "s" else ""));
        ]

(* --- formula passes --- *)

(* the alphabet the formula's atoms must come from: the abstract one when
   an abstraction is in play (then violations are errors — the pipeline
   refuses them), the system's otherwise (then an unknown atom is merely
   false at every position) *)
let atom_universe i =
  match (i.keep, i.system, i.property) with
  | Some keep, _, _ -> Some (List.sort_uniq String.compare keep, true)
  | None, Some sys, _ -> Some (Alphabet.names (Nfa.alphabet sys), false)
  | None, None, Some p -> Some (Alphabet.names (Buchi.alphabet p), false)
  | None, None, None -> None

let run_atoms i =
  match (i.formula, atom_universe i) with
  | Some f, Some (names, strict) when names <> [] ->
      List.filter_map
        (fun a ->
          if List.mem a names then None
          else
            let fix =
              Option.map
                (fun c -> Printf.sprintf "did you mean '%s'?" c)
                (suggest a names)
            in
            let severity, what =
              if strict then
                (Diagnostic.Error, "names no observable (abstract) action")
              else
                ( Diagnostic.Warning,
                  "names no action of the system: under the canonical \
                   labeling it is false at every position" )
            in
            Some
              (Diagnostic.make ?file:i.file ?fix ~code:"RL301" ~severity
                 (Printf.sprintf "atomic proposition '%s' %s" a what)))
        (Formula.atoms f)
  | _ -> []

(* [nnf] leaves constants in place; fold them out (same equivalences as
   the smart constructors in [Formula]) so e.g. []<> true is recognized
   as the constant it is. The input is in negation normal form, hence the
   small set of cases. *)
let rec fold_consts f =
  let open Formula in
  match f with
  | True | False | Atom _ | Not _ -> f
  | And (a, b) -> (
      match (fold_consts a, fold_consts b) with
      | False, _ | _, False -> False
      | True, h | h, True -> h
      | a, b -> And (a, b))
  | Or (a, b) -> (
      match (fold_consts a, fold_consts b) with
      | True, _ | _, True -> True
      | False, h | h, False -> h
      | a, b -> Or (a, b))
  | Next a -> (
      match fold_consts a with (True | False) as c -> c | a -> Next a)
  | Until (a, b) -> (
      match fold_consts b with
      | True -> True
      | False -> False
      | b -> Until (fold_consts a, b))
  | Release (a, b) -> (
      match fold_consts b with
      | True -> True
      | False -> False
      | b -> Release (fold_consts a, b))
  | f -> f

let run_trivial i =
  match i.formula with
  | None -> []
  | Some f -> (
      match fold_consts (Formula.nnf f) with
      | Formula.True ->
          [
            Diagnostic.make ?file:i.file ~code:"RL302" ~severity:Hint
              "the formula simplifies to 'true': every verdict on it is \
               predetermined";
          ]
      | Formula.False ->
          [
            Diagnostic.make ?file:i.file ~code:"RL302" ~severity:Hint
              "the formula simplifies to 'false': it is satisfiable by no \
               behavior";
          ]
      | _ -> [])

let run_sigma_normal i =
  match (i.keep, i.formula) with
  | Some keep, Some f -> (
      match List.sort_uniq String.compare keep with
      | [] -> []
      | keep -> (
          match Alphabet.make keep with
          | exception Invalid_argument _ -> []
          | abstract ->
              if
                Transform.is_sigma_normal ~alphabet:abstract
                  (Formula.expand f)
              then []
              else
                [
                  Diagnostic.make ?file:i.file ~code:"RL303" ~severity:Error
                    ~fix:
                      "rewrite the formula negation-free with atoms drawn \
                       from the observable actions (cf. \
                       Transform.sigma_normal_form)"
                    "the formula is not in Σ'-normal form over the abstract \
                     alphabet: the T/R̄ transform (Definition 7.4) and \
                     Abstraction.verify refuse it";
                ]))
  | _ -> []

(* --- abstraction passes --- *)

let run_keep i =
  match (i.keep, i.system) with
  | Some keep, Some sys ->
      let names = Alphabet.names (Nfa.alphabet sys) in
      let unknown =
        List.sort_uniq String.compare
          (List.filter (fun k -> not (List.mem k names)) keep)
      in
      let unknown_diags =
        List.map
          (fun k ->
            let fix =
              Option.map
                (fun c -> Printf.sprintf "did you mean '%s'?" c)
                (suggest k names)
            in
            Diagnostic.make ?file:i.file ?fix ~code:"RL401"
              ~severity:Diagnostic.Error
              (Printf.sprintf
                 "observable action '%s' is not a concrete action of the \
                  system"
                 k))
          unknown
      in
      let valid = valid_keep keep names in
      let structural =
        if valid = [] then [ erasing_hint ?file:i.file () ]
        else if List.length valid = List.length names then
          [
            Diagnostic.make ?file:i.file ~code:"RL405" ~severity:Hint
              "the abstraction hides nothing: h is the identity and the \
               abstract check is the concrete check";
          ]
        else []
      in
      unknown_diags @ structural
  | _ -> []

(* --- the RL5xx dataflow passes ---

   Everything below is fixpoint/SCC reasoning over the canonical CSR
   tables: reachability through {!Dataflow}, component structure through
   {!Rl_prelude.Scc}. All passes are [deep] — they never run in the
   deciders' pre-flight. *)

(* structural guard shared by the component passes: the semantic
   arguments below assume an ε-free system with at least one state *)
let plain_system i =
  match i.system with
  | Some sys when Nfa.states sys > 0 && not (Nfa.has_eps sys) -> Some sys
  | _ -> None

(* [RL501] A transition is dead iff its source state is unreachable: no
   run can take it, so removing it changes neither L nor any verdict
   (the deciders trim to the reachable part anyway). When the declaring
   line is known the removal is machine-applicable — unless the label
   occurs on no live line and the alphabet is inferred, where deleting
   the line could shrink the alphabet. *)
let run_dead_transitions ctx =
  let i = ctx.input in
  match i.system with
  | None -> []
  | Some sys ->
      let reach = (Lazy.force ctx.graph).reach in
      let al = Nfa.alphabet sys in
      let dead =
        List.sort_uniq compare
          (List.filter
             (fun (q, _, _) -> not (Bitset.mem reach q))
             (Nfa.transitions sys))
      in
      if dead = [] then []
      else
        let live_labels =
          List.sort_uniq String.compare
            (List.filter_map
               (fun (q, a, _) ->
                 if Bitset.mem reach q then Some (Alphabet.name al a) else None)
               (Nfa.transitions sys))
        in
        List.concat_map
          (fun (q, a, q') ->
            let name = Alphabet.name al a in
            let msg =
              Printf.sprintf
                "transition %d %s %d is dead: state %d is unreachable, so no \
                 run can ever take it"
                q name q' q
            in
            let label_safe = List.mem name live_labels in
            match
              List.filter
                (fun ((s, l, d), _) -> s = q && l = name && d = q')
                i.locs
            with
            | [] ->
                [
                  Diagnostic.make ?file:i.file ~code:"RL501" ~severity:Warning
                    ~fix:"remove the transition, or reconnect its source state"
                    msg;
                ]
            | locs ->
                List.map
                  (fun (_, (line, c0, c1)) ->
                    let edit =
                      if label_safe then Some (Diagnostic.Remove_line line)
                      else None
                    in
                    let fix =
                      if label_safe then
                        "remove this line (machine-applicable: rlcheck lint \
                         --fix)"
                      else
                        Printf.sprintf
                          "remove this line and declare '%s' on an explicit \
                           'alphabet' line (not auto-fixed: the label occurs \
                           on no live transition)"
                          name
                    in
                    Diagnostic.make ?file:i.file ~line ~col:c0 ~end_col:c1
                      ?edit ~fix ~code:"RL501" ~severity:Warning msg)
                  locs)
          dead

(* [RL502] A trap: a reachable closed cycle-bearing component that is a
   proper subset of the reachable states — once a run enters, the rest of
   the system is gone for good. *)
let run_trap_components ctx =
  let i = ctx.input in
  match plain_system i with
  | None -> []
  | Some _ ->
      let g = Lazy.force ctx.graph in
      let scc = g.scc in
      let nreach = Bitset.cardinal g.reach in
      let traps =
        List.filter
          (fun c -> scc.Scc.size.(c) < nreach)
          (feasible_components g)
      in
      List.filteri (fun idx _ -> idx < 4) traps
      |> List.map (fun c ->
             Diagnostic.make ?file:i.file ~code:"RL502" ~severity:Hint
               ~fix:
                 "add an exit transition if the divergence is unintended, or \
                  keep it and read liveness verdicts accordingly"
               (Printf.sprintf
                  "%s form%s a trap (a divergence/sink component): once a \
                   run enters, no other state is ever reachable again"
                  (fmt_states (Scc.members scc c))
                  (if scc.Scc.size.(c) = 1 then "s" else "")))

(* [RL503] Streett-pair infeasibility, per SCC: when no reachable
   cycle-bearing component is closed, strong transition fairness is
   unsatisfiable (RL201), and each open cycle-bearing component is a
   structural reason why — fairness forces every run out through its exit
   edges. *)
let run_fair_infeasibility ctx =
  let i = ctx.input in
  match (plain_system i, nonempty_behavior ctx) with
  | Some sys, Some _ ->
      let g = Lazy.force ctx.graph in
      let scc = g.scc in
      if feasible_components g <> [] then []
      else
        let al = Nfa.alphabet sys in
        let candidates =
          List.filter (cycle_component g) (List.init scc.Scc.count Fun.id)
        in
        List.filteri (fun idx _ -> idx < 4) candidates
        |> List.map (fun c ->
               let exit =
                 List.find_opt
                   (fun (q, _, q') ->
                     scc.Scc.comp.(q) = c && scc.Scc.comp.(q') <> c)
                   (Nfa.transitions sys)
               in
               let via =
                 match exit with
                 | Some (q, a, q') ->
                     Printf.sprintf " (e.g. %d %s %d)" q (Alphabet.name al a)
                       q'
                 | None -> ""
               in
               Diagnostic.make ?file:i.file ~code:"RL503" ~severity:Warning
                 ~fix:
                   "close the component (give its exits a way back) or drop \
                    the fairness assumption"
                 (Printf.sprintf
                    "the cycle through %s cannot be the infinity set of a \
                     strongly fair run: fairness forces the run out through \
                     its exit transitions%s"
                    (fmt_states (Scc.members scc c))
                    via))
  | _ -> []

(* [RL505] Vacuity under fairness: an action with no occurrence inside
   any feasible component is taken only finitely often in every strongly
   fair run — recurrence verdicts about it are predetermined. *)
let run_fair_atom_vacuity ctx =
  let i = ctx.input in
  match (i.formula, plain_system i, nonempty_behavior ctx) with
  | Some f, Some sys, Some _ ->
      let g = Lazy.force ctx.graph in
      if feasible_components g = [] then [] (* RL201/RL503 already apply *)
      else
        let al = Nfa.alphabet sys in
        let occurring, recurring =
          List.fold_left
            (fun (occ, rec_) (q, a, _) ->
              if Bitset.mem g.reach q then
                let n = Alphabet.name al a in
                ( n :: occ,
                  if feasible g g.scc.Scc.comp.(q) then n :: rec_ else rec_ )
              else (occ, rec_))
            ([], []) (Nfa.transitions sys)
        in
        List.filter_map
          (fun x ->
            if List.mem x occurring && not (List.mem x recurring) then
              Some
                (Diagnostic.make ?file:i.file ~code:"RL505" ~severity:Hint
                   (Printf.sprintf
                      "action '%s' occurs in no component a strongly fair run \
                       can settle in: it happens only finitely often in every \
                       fair run, so fairness-relative recurrence verdicts \
                       about it are predetermined"
                      x))
            else None)
          (List.sort_uniq String.compare (Formula.atoms f))
  | _ -> []

(* --- static abstraction cleanliness (RL504/RL506) ---

   Both analyses look at the hidden-transition subgraph of the reachable
   part: abstract classes are its SCCs. *)

let hidden_scc sys reach hidden =
  let k = Alphabet.size (Nfa.alphabet sys) in
  Scc.of_succ ~states:(Nfa.states sys) (fun q f ->
      if Bitset.mem reach q then
        for a = 0 to k - 1 do
          if hidden.(a) then Nfa.iter_succ sys q a f
        done)

let abstraction_structure i =
  match hiding_hom i with
  | None -> None
  | Some (hom, sys) ->
      if Nfa.states sys = 0 || Nfa.has_eps sys then None
      else
        let k = Alphabet.size (Nfa.alphabet sys) in
        let hidden =
          Array.init k (fun a -> Rl_hom.Hom.apply_symbol hom a = None)
        in
        let reach = reach_of sys in
        Some (sys, hidden, reach)

(* A sufficient static condition for Definition 6.3 simplicity. Either
   no reachable transition is hidden (h is then injective on L, every
   abstract word has a unique preimage, and the continuations coincide
   with u = ε), or the hidden subgraph decomposes into confined classes
   with a deterministic observable interface:

   (a) every reachable hidden edge stays inside its SCC of the hidden
       subgraph (the "abstract classes" — so the ε-closure of any state
       is exactly its class);
   (b) all initial states share one class;
   (c) for every class and observable action, the successors of all
       members lie in a single common class, and if any member moves,
       all members can.

   Then the set of classes reached after a word depends only on its
   image, the subset-construction state of h(L) after h(w) equals the
   ε-closure of the states after any preimage w, and Definition 6.3
   holds at every configuration with u = ε. *)
let static_simplicity i =
  match abstraction_structure i with
  | None -> None
  | Some (sys, hidden, reach) ->
      let k = Alphabet.size (Nfa.alphabet sys) in
      let any_hidden_live = ref false in
      Bitset.iter
        (fun q ->
          for a = 0 to k - 1 do
            if hidden.(a) then
              Nfa.iter_succ sys q a (fun _ -> any_hidden_live := true)
          done)
        reach;
      if not !any_hidden_live then Some true
      else
        let scc = hidden_scc sys reach hidden in
        let ok = ref true in
        (* (a) hidden edges confined to their class *)
        Bitset.iter
          (fun q ->
            for a = 0 to k - 1 do
              if hidden.(a) then
                Nfa.iter_succ sys q a (fun q' ->
                    if scc.Scc.comp.(q) <> scc.Scc.comp.(q') then ok := false)
            done)
          reach;
        (* (b) one initial class *)
        (match Nfa.initial sys with
        | [] -> ()
        | q0 :: rest ->
            List.iter
              (fun q ->
                if scc.Scc.comp.(q) <> scc.Scc.comp.(q0) then ok := false)
              rest);
        (* (c) class-deterministic, class-uniform observable steps *)
        if !ok then begin
          let classes =
            List.sort_uniq compare
              (Bitset.fold (fun q acc -> scc.Scc.comp.(q) :: acc) reach [])
          in
          List.iter
            (fun c ->
              let members =
                List.filter (fun q -> Bitset.mem reach q) (Scc.members scc c)
              in
              for a = 0 to k - 1 do
                if not hidden.(a) then begin
                  let target_classes q =
                    let acc = ref [] in
                    Nfa.iter_succ sys q a (fun q' ->
                        acc := scc.Scc.comp.(q') :: !acc);
                    List.sort_uniq compare !acc
                  in
                  match List.map target_classes members with
                  | [] -> ()
                  | t0 :: rest ->
                      if List.length t0 > 1 then ok := false;
                      List.iter (fun t -> if t <> t0 then ok := false) rest
                end
              done)
            classes
        end;
        Some !ok

(* A sufficient static condition for "h(L) has no maximal words": no
   reachable deadlock, and no reachable cycle of hidden transitions.
   Every word of h(L) then extends — follow hidden edges (an acyclic
   walk, so it ends) to a state whose obligatory outgoing transition is
   observable. *)
let static_no_maximal i =
  match abstraction_structure i with
  | None -> None
  | Some (sys, hidden, reach) ->
      let k = Alphabet.size (Nfa.alphabet sys) in
      let deadlock_free = ref true in
      Bitset.iter
        (fun q ->
          let out = ref false in
          for a = 0 to k - 1 do
            Nfa.iter_succ sys q a (fun _ -> out := true)
          done;
          if not !out then deadlock_free := false)
        reach;
      if not !deadlock_free then Some false
      else
        let scc = hidden_scc sys reach hidden in
        let acyclic = ref true in
        Bitset.iter
          (fun q ->
            if Scc.nontrivial scc scc.Scc.comp.(q) then acyclic := false)
          reach;
        Some !acyclic

(* the shared analysis of one input; the deep abstraction passes read
   [simplicity] and [no_maximal] in pairs (RL403/RL504, RL404/RL506) *)
let context input =
  let graph =
    lazy
      (let sys =
         match input.system with
         | Some sys -> sys
         | None -> invalid_arg "Lint: no system to analyse"
       in
       let reach = reach_of sys and scc = Scc.of_csr (Nfa.csr sys) in
       (* a component is strongly connected: one reachable member makes
          all of them reachable *)
       let reached = Array.make scc.Scc.count false in
       Bitset.iter (fun q -> reached.(scc.Scc.comp.(q)) <- true) reach;
       { reach; scc; reached })
  in
  let behavior =
    lazy
      (match input.system with
      | None -> None
      | Some sys ->
          Option.map
            (fun buchi ->
              let live = Buchi.live buchi in
              let empty =
                not (List.exists (Bitset.mem live) (Buchi.initial buchi))
              in
              { buchi; live; empty })
            (ts_buchi sys))
  in
  {
    input;
    graph;
    behavior;
    simplicity = lazy (static_simplicity input);
    no_maximal = lazy (static_no_maximal input);
  }

(* [RL504] the positive form: simplicity proved without the search *)
let run_static_simplicity ctx =
  let i = ctx.input in
  match Lazy.force ctx.simplicity with
  | Some true ->
      [
        Diagnostic.make ?file:i.file ~code:"RL504" ~severity:Hint
          "the abstraction is provably simple on L (hidden actions stay \
           inside strongly-connected abstract classes with a deterministic \
           observable interface): Theorem 8.2 applies, no bounded \
           Definition 6.3 search needed";
      ]
  | _ -> []

(* [RL506] the positive form: no maximal words, proved statically *)
let run_static_maximal_words ctx =
  let i = ctx.input in
  match Lazy.force ctx.no_maximal with
  | Some true ->
      [
        Diagnostic.make ?file:i.file ~code:"RL506" ~severity:Hint
          "h(L) provably contains no maximal words (no reachable deadlock, \
           hidden transitions acyclic): the maximal-word hypothesis of \
           Theorems 8.2/8.3 holds, no bounded search needed";
      ]
  | _ -> []

let run_simplicity ctx =
  let i = ctx.input in
  if Lazy.force ctx.simplicity = Some true then []
  else
    match hiding_hom i with
    | None -> []
    | Some (hom, sys) -> (
      let sys = Nfa.trim sys in
      if Nfa.states sys = 0 then []
      else
        match Rl_hom.Hom.analyze ~budget:(lint_budget i) hom sys with
        | exception Budget.Exhausted _ -> []
        | v ->
            if v.Rl_hom.Hom.simple then []
            else
              let witness =
                Option.map
                  (Format.asprintf "%a" (Word.pp (Nfa.alphabet sys)))
                  v.Rl_hom.Hom.witness
              in
              [ not_simple_hint ?file:i.file ?witness () ])

let run_maximal_words ctx =
  let i = ctx.input in
  if Lazy.force ctx.no_maximal = Some true then []
  else
    match hiding_hom i with
    | None -> []
    | Some (hom, sys) -> (
        let img = Rl_hom.Hom.image_ts hom (Nfa.trim sys) in
        match Rl_hom.Hom.has_maximal_words ~budget:(lint_budget i) img with
        | exception Budget.Exhausted _ -> []
        | true -> [ maximal_words_hint ?file:i.file () ]
        | false -> [])

(* --- the registry --- *)

let on_input run ctx = run ctx.input

let passes =
  [
    {
      name = "unreachable-states";
      codes = [ "RL101" ];
      deep = false;
      run = on_input run_unreachable;
    };
    {
      name = "behavior-vacuity";
      codes = [ "RL102"; "RL103" ];
      deep = false;
      run = run_behavior;
    };
    {
      name = "alphabet-mismatch";
      codes = [ "RL104" ];
      deep = false;
      run = on_input run_alphabet_mismatch;
    };
    {
      name = "fair-vacuity";
      codes = [ "RL201" ];
      deep = false;
      run = run_fairness;
    };
    {
      name = "vacuous-fairness-pairs";
      codes = [ "RL202" ];
      deep = false;
      run = run_vacuous_pairs;
    };
    {
      name = "formula-atoms";
      codes = [ "RL301" ];
      deep = false;
      run = on_input run_atoms;
    };
    {
      name = "formula-trivial";
      codes = [ "RL302" ];
      deep = false;
      run = on_input run_trivial;
    };
    {
      name = "sigma-normal-form";
      codes = [ "RL303" ];
      deep = false;
      run = on_input run_sigma_normal;
    };
    {
      name = "abstraction-structure";
      codes = [ "RL401"; "RL402"; "RL405" ];
      deep = false;
      run = on_input run_keep;
    };
    {
      name = "simplicity";
      codes = [ "RL403" ];
      deep = true;
      run = run_simplicity;
    };
    {
      name = "maximal-words";
      codes = [ "RL404" ];
      deep = true;
      run = run_maximal_words;
    };
    {
      name = "dead-transitions";
      codes = [ "RL501" ];
      deep = true;
      run = run_dead_transitions;
    };
    {
      name = "trap-components";
      codes = [ "RL502" ];
      deep = true;
      run = run_trap_components;
    };
    {
      name = "fair-infeasibility";
      codes = [ "RL503" ];
      deep = true;
      run = run_fair_infeasibility;
    };
    {
      name = "static-simplicity";
      codes = [ "RL504" ];
      deep = true;
      run = run_static_simplicity;
    };
    {
      name = "fair-atom-vacuity";
      codes = [ "RL505" ];
      deep = true;
      run = run_fair_atom_vacuity;
    };
    {
      name = "static-maximal-words";
      codes = [ "RL506" ];
      deep = true;
      run = run_static_maximal_words;
    };
  ]

let rules =
  [
    ("RL001", "no 'initial' line: the initial state defaults to state 0");
    ("RL002", "an initial state is isolated (no transition touches it)");
    ("RL003", "an initial state has no outgoing transitions");
    ("RL101", "states unreachable from the initial states");
    ("RL102", "states that can reach no cycle contribute no behavior");
    ("RL103", "the system has no infinite behavior: pre(Lω) is empty");
    ("RL104", "system and property alphabets differ");
    ("RL201", "no strongly fair run exists: fair verdicts are vacuous");
    ( "RL202",
      "strong-fairness constraints that can never be enabled infinitely \
       often" );
    ("RL301", "an atomic proposition names no action");
    ("RL302", "the formula simplifies to a constant");
    ("RL303", "the formula is not in Σ'-normal form for the abstraction");
    ("RL401", "an observable action is not a concrete action");
    ("RL402", "the abstraction hides every action");
    ("RL403", "the abstraction is not simple on L (Theorem 8.2 inapplicable)");
    ("RL404", "h(L) contains maximal words (Theorems 8.2/8.3 inapplicable)");
    ("RL405", "the abstraction hides nothing");
    ("RL501", "a transition's source state is unreachable: it is dead");
    ("RL502", "a trap (divergence/sink) component: no way back out");
    ( "RL503",
      "a cycle no strongly fair run can settle in (Streett-infeasible \
       component)" );
    ("RL504", "simplicity on L established statically (no bounded search)");
    ( "RL505",
      "an action a strongly fair run takes only finitely often: recurrence \
       verdicts predetermined" );
    ("RL506", "no maximal words in h(L), established statically");
  ]

let run ?(deep = true) input =
  let ctx = context input in
  let found =
    List.concat_map
      (fun p -> if p.deep && not deep then [] else p.run ctx)
      passes
  in
  List.stable_sort Diagnostic.compare (input.parse @ found)
