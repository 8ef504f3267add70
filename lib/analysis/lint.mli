(** The model-lint pass registry.

    The paper's results are all conditional on non-degenerate inputs:
    Lemma 4.3 characterizes relative liveness through [pre(Lω)] — empty
    when the system has no infinite behavior, making {e every} property
    vacuously relatively live; Theorems 8.2/8.3 need the homomorphism
    simple on [L] and [h(L)] free of maximal words (the Fig. 3
    counterexample shows what goes wrong silently otherwise); the
    fair-satisfaction check is vacuous when no strongly fair run exists.
    Each pass below turns one such hypothesis (or a common modelling slip)
    into a machine-checked {!Diagnostic.t}.

    {2 Diagnostic codes}

    Parse-time (emitted by [Rl_core.Ts_format], listed here for the code
    table): [RL001] defaulted initial state, [RL002] isolated initial
    state, [RL003] initial state without outgoing transitions.

    Model: [RL101] unreachable states, [RL102] states that reach no cycle
    (no contribution to [Lω]), [RL103] empty [pre(Lω)] (error), [RL104]
    system/property alphabet mismatch (error).

    Fairness: [RL201] no strongly fair run exists, [RL202] vacuous
    strong-fairness (Streett) constraints.

    Formula: [RL301] atomic proposition names no action, [RL302] formula
    is a constant, [RL303] not Σ'-normal for the abstract alphabet
    (error).

    Abstraction: [RL401] observable action unknown (error), [RL402] fully
    erasing homomorphism (error), [RL403] not simple on [L] (bounded
    search), [RL404] maximal words in [h(L)], [RL405] identity
    abstraction.

    Semantic (the RL5xx dataflow family, all deep — see {!Dataflow} and
    {!Rl_prelude.Scc}): [RL501] dead transitions (machine-applicable
    removal when the declaring line is known), [RL502] trap
    (divergence/sink) components, [RL503] Streett-infeasible components
    (the per-SCC strengthening of [RL201]), [RL504] simplicity proved
    statically (positive — [RL403]'s bounded search is skipped), [RL505]
    actions every strongly fair run takes only finitely often (vacuity
    under fairness), [RL506] absence of maximal words proved statically
    (positive — [RL404]'s bounded search is skipped). *)

open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_ltl

(** What is being linted. Fields are all optional: each pass runs exactly
    when the inputs it needs are present. [system] is the {e untrimmed}
    parse result (so unreachable states are still visible); [parse]
    carries the parse-time diagnostics to merge into the report; [keep]
    is the observable sub-alphabet of a hiding abstraction; [budget]
    caps the bounded searches of the deep passes (a fresh internal cap is
    used when absent); [locs] maps transition triples
    [(source, label, target)] to [(line, start_col, end_col)] source
    locations (see [Rl_core.Ts_format.transition_locs]) — with it, dead
    transitions get precise spans and machine-applicable removal edits. *)
type input = {
  file : string option;
  parse : Diagnostic.t list;
  system : Nfa.t option;
  property : Buchi.t option;
  formula : Formula.t option;
  keep : string list option;
  budget : Rl_engine_kernel.Budget.t option;
  locs : ((int * string * int) * (int * int * int)) list;
}

val empty : input

(** What a pass sees: the {!input}, and the system analysis that
    several passes share — the system's Büchi view with its live states
    and emptiness, its reachable states and its components, and the
    static simplicity and maximal-word answers that two passes each
    read. {!run}
    builds one context per input and computes each part on first use,
    at most once. *)
type context

(** One registered pass. [deep] passes run bounded searches that can cost
    as much as a real check (simplicity analysis, maximal-word search);
    the pre-flight phase of the deciders skips them — the deciders that
    need those facts ([Abstraction.verify]) compute them anyway and attach
    the corresponding hints to their reports. *)
type pass = {
  name : string;
  codes : string list;  (** diagnostic codes this pass can emit *)
  deep : bool;
  run : context -> Diagnostic.t list;
}

(** The registry, in documentation order. *)
val passes : pass list

(** [(code, short description)] for every code of the subsystem, including
    the parse-time ones — the SARIF rule metadata. *)
val rules : (string * string) list

(** [run ?deep input] executes the registry on [input] ([deep] defaults to
    [true]; [false] skips the deep passes), merges [input.parse], and
    sorts the result with {!Diagnostic.compare}. Never raises: passes
    whose bounded search exhausts its budget contribute nothing. *)
val run : ?deep:bool -> input -> Diagnostic.t list

(** {2 Building blocks for the deciders' vacuity hints} *)

(** [buchi_vacuity b] is [RL103] when [L(b) = ∅], for behavior sets given
    directly as Büchi automata. *)
val buchi_vacuity : ?file:string -> Buchi.t -> Diagnostic.t list

(** [alphabet_check ~expected actual] is [RL104] when the alphabets
    differ. *)
val alphabet_check :
  ?file:string -> expected:Alphabet.t -> Alphabet.t -> Diagnostic.t list

(** [not_simple_hint ?witness ()] is the [RL403] diagnostic, with the
    failing word rendered into the message when known. *)
val not_simple_hint : ?file:string -> ?witness:string -> unit -> Diagnostic.t

(** [maximal_words_hint ()] is the [RL404] diagnostic. *)
val maximal_words_hint : ?file:string -> unit -> Diagnostic.t

(** [erasing_hint ()] is the [RL402] diagnostic. *)
val erasing_hint : ?file:string -> unit -> Diagnostic.t
