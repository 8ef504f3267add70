(** Complete deterministic finite automata.

    DFAs are produced from NFAs by the subset construction and are the
    representation on which language equality, inclusion, complement and
    residual-equivalence questions are decided — the questions to which the
    paper's Lemma 4.3 reduces relative liveness, and on which the
    simplicity check of Definition 6.3 rests. Every DFA here is {e complete}:
    [delta] is a total function (a rejecting sink is added where needed). *)

open Rl_sigma

type t

(** {1 Construction} *)

(** [create ~alphabet ~states ~initial ~finals ~delta] wraps explicit
    transition arrays [delta.(q).(a) = q'].
    @raise Invalid_argument on malformed input. *)
val create :
  alphabet:Alphabet.t ->
  states:int ->
  initial:int ->
  finals:int list ->
  delta:int array array ->
  t

(** [determinize ?budget n] is the subset construction applied to [n]. The
    result is complete and has only reachable states. The subset
    construction is the exponential step of the paper's decision
    procedures; [budget] is ticked once per constructed subset state.
    @raise Rl_engine_kernel.Budget.Exhausted when [budget] runs out. *)
val determinize : ?budget:Rl_engine_kernel.Budget.t -> Nfa.t -> t

(** {1 Accessors} *)

val alphabet : t -> Alphabet.t
val states : t -> int
val initial : t -> int
val is_final : t -> int -> bool

(** [step d q a] is the unique [a]-successor of [q]. *)
val step : t -> int -> Alphabet.symbol -> int

(** [run d w] is the state reached from the initial state on [w]. *)
val run : t -> Word.t -> int

(** [run_from d q w] is the state reached from [q] on [w]. *)
val run_from : t -> int -> Word.t -> int

val accepts : t -> Word.t -> bool

(** {1 Boolean operations} *)

val complement : t -> t

(** [product ?budget op a b] recognizes [{w | op (w ∈ L(a)) (w ∈ L(b))}] —
    use [(&&)] for intersection, [(||)] for union, etc. Only reachable
    product states are built; [budget] is ticked once per product state. *)
val product : ?budget:Rl_engine_kernel.Budget.t -> (bool -> bool -> bool) -> t -> t -> t

(** {1 Decision procedures} *)

(** [is_empty d] decides [L(d) = ∅]. *)
val is_empty : t -> bool

(** [shortest_word d] is a shortest accepted word, if any. *)
val shortest_word : t -> Word.t option

(** [equivalent a b] decides [L(a) = L(b)] by the Hopcroft–Karp union–find
    procedure; on failure returns a witness word in the symmetric
    difference. *)
val equivalent : t -> t -> (unit, Word.t) result

(** [included ?budget a b] decides [L(a) ⊆ L(b)]; on failure returns a
    witness in [L(a) \ L(b)]. *)
val included : ?budget:Rl_engine_kernel.Budget.t -> t -> t -> (unit, Word.t) result

(** [states_equivalent a qa b qb] decides whether the residual languages of
    state [qa] in [a] and state [qb] in [b] are equal. *)
val states_equivalent : t -> int -> t -> int -> bool

(** [residual_classes d] assigns a class identifier to every state of [d],
    reachable or not, such that two states get the same class iff their
    residual languages are equal (Hopcroft's partition refinement). To
    compare states across automata, classify their disjoint union. *)
val residual_classes : t -> int array

(** {1 Minimization} *)

(** [minimize d] is the unique minimal complete DFA for [L(d)]
    (Hopcroft's partition-refinement algorithm, over reachable states). *)
val minimize : t -> t

(** {1 Conversions} *)

val to_nfa : t -> Nfa.t

val pp : Format.formatter -> t -> unit
val to_dot : ?name:string -> t -> string
