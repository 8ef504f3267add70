(** Simulation preorders for nondeterministic automata.

    Computes the greatest {e direct} simulation relation of an automaton
    with a Henzinger–Henzinger–Kopke-style refinement loop over bitset
    rows — seeded by one shared first round per membership signature,
    then refined by steps read off the predecessor slices, so the work
    follows the edges read rather than [n]-bit rows. Direct simulation
    is acceptance-compatible at every step, so [p] simulating [q]
    implies the state-wise language containment [L(q) ⊆ L(p)] — the
    fact the quotient-before-explore reductions rest on. A preorder is
    its rows of simulators and nothing else: no consumer reads the
    transposed relation.

    Results are memoized in {!Rl_engine_kernel.Simcache} under a digest
    of the automaton structure: asking twice for the preorder of
    structurally identical automata — even ones rebuilt from scratch —
    computes once. Cached rows are shared; treat every returned bitset
    as read-only. *)

type t

(** {1 Queries} *)

val size : t -> int

(** [simulators t q] is the set of states simulating [q] (including [q]).
    Read-only. *)
val simulators : t -> int -> Rl_prelude.Bitset.t

(** [simulates t p q] is [true] iff [p] simulates [q]. *)
val simulates : t -> int -> int -> bool

(** {1 Constructors} *)

(** [forward n] is the greatest direct forward simulation of the ε-free
    NFA [n]. [cache] (default [true]) consults the fingerprint cache.
    @raise Invalid_argument if [n] has ε-moves. *)
val forward : ?cache:bool -> Nfa.t -> t

(** [of_view ~memberships delta] computes the greatest simulation of an
    arbitrary CSR transition table — this is how the Büchi layer reuses
    the engine without the kernel or this module depending on it.
    [memberships] lists the state sets the relation must respect
    downward ([q ∈ M] forces simulators of [q] into [M]). [rdelta], when
    given, must be [Csr.transpose delta] (automaton callers pass the
    cached [Nfa.rcsr]/[Buchi.rcsr]); it only skips rebuilding the
    transpose. The cache key is {!fingerprint}. *)
val of_view :
  ?cache:bool ->
  ?rdelta:Rl_prelude.Csr.t ->
  memberships:Rl_prelude.Bitset.t list ->
  Rl_prelude.Csr.t ->
  t

(** [fingerprint ~memberships delta] is the cache key of [of_view]: a
    digest of the structure alone (state and symbol counts, memberships,
    every successor slice sorted), so tables of different automata that
    coincide — a Büchi automaton and its all-final pre-language NFA,
    which list a cell's successors in opposite orders — share one
    computation. *)
val fingerprint : memberships:Rl_prelude.Bitset.t list -> Rl_prelude.Csr.t -> string

(** {1 Quotients} *)

(** [mutual_classes t] partitions states by mutual similarity (an
    equivalence, since the greatest simulation is a preorder). Returns
    the class map and the class count; classes are numbered by smallest
    member, deterministically. *)
val mutual_classes : t -> int array * int

(** [reduce n] is the quotient of [n] by mutual direct similarity —
    language-preserving, never larger. ε-moves are removed first; the
    result is physically [remove_eps n] when nothing merges. A quotient
    of an all-states-final NFA is again all-states-final, so
    prefix-closed (transition-system) operands stay well-formed. *)
val reduce : ?cache:bool -> Nfa.t -> Nfa.t
