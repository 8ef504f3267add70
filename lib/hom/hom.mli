(** Abstracting homomorphisms (Definition 6.1) and the simplicity check
    (Definition 6.3).

    An abstracting homomorphism [h : Σ → Σ' ∪ {ε}] renames each concrete
    action to an abstract one or hides it. It extends letterwise to words,
    and to ω-words where the image remains infinite. Behavior abstraction
    (Definition 6.2) replaces a system with behaviors [lim(L)] by the
    abstract system [lim(h(L))].

    Whether relative liveness verdicts transfer back from the abstract
    system hinges on [h] being {e simple} on [L] (Ochsenschläger): for
    every [w ∈ L] there must be a continuation [u] of [h(w)] in [h(L)]
    after which the abstract continuations coincide with the images of the
    concrete ones — [cont(u, cont(h(w), h(L))) = cont(u, h(cont(w, L)))].
    [analyze] decides this for prefix-closed regular [L]. *)

open Rl_sigma
open Rl_automata

type t

(** {1 Construction} *)

(** [create ~concrete ~abstract mapping] builds [h] from a name mapping:
    [(concrete_name, Some abstract_name)] renames, [(name, None)] hides.
    Every concrete symbol must be mapped exactly once.
    @raise Invalid_argument otherwise. *)
val create :
  concrete:Alphabet.t -> abstract:Alphabet.t -> (string * string option) list -> t

(** [hiding ~concrete ~keep] is the homomorphism onto the sub-alphabet
    [keep] (fresh abstract alphabet of exactly those names) that hides
    every other symbol — the paper's "only interested in the actions
    request, result, reject" abstraction. *)
val hiding : concrete:Alphabet.t -> keep:string list -> t

(** {1 Accessors} *)

val concrete : t -> Alphabet.t
val abstract : t -> Alphabet.t

(** [apply_symbol h a] is [h(a)] ([None] = hidden). *)
val apply_symbol : t -> Alphabet.symbol -> Alphabet.symbol option

(** {1 Application} *)

(** [apply_word h w] is [h(w)]. *)
val apply_word : t -> Word.t -> Word.t

(** [apply_lasso h x] is [Ok (h x)] when defined (Definition 6.1:
    [lim(h(pre x)) ≠ ∅]), otherwise [Error w] with the finite image. *)
val apply_lasso : t -> Lasso.t -> (Lasso.t, Word.t) result

(** [image h n] recognizes [h(L(n))] (direct image; hidden letters become
    ε-moves, which are then eliminated). *)
val image : t -> Nfa.t -> Nfa.t

(** [image_ts h n] — the image of a transition system, re-normalized to the
    all-states-final trim shape (valid because the image of a prefix-closed
    language is prefix-closed). *)
val image_ts : t -> Nfa.t -> Nfa.t

(** [preimage h d] is a DFA for [h⁻¹(L(d))] over the concrete alphabet. *)
val preimage : t -> Dfa.t -> Dfa.t

(** {1 Maximal words (Section 8)} *)

(** [has_maximal_words ?budget n] — some word of [L(n)] is not a proper
    prefix of another word of [L(n)]. Theorems 8.2/8.3 require [h(L)] to
    have none. *)
val has_maximal_words : ?budget:Rl_engine_kernel.Budget.t -> Nfa.t -> bool

(** [hash_extend ~hash n] recognizes [L(n) ∪ {w·#^k | w maximal in L(n)}]
    over the alphabet extended with the fresh symbol named [hash]
    (default ["#"]) — the remedy of Section 8's closing remark, after
    which no maximal words remain. *)
val hash_extend : ?hash:string -> Nfa.t -> Nfa.t

(** {1 Simplicity (Definition 6.3)} *)

(** The simplicity analysis examines every reachable "configuration" of a
    word [w ∈ L]: the set of states [w] may reach in the transition system
    (determining [cont(w, L)]) together with the state [h(w)] reaches in
    the DFA of [h(L)] (determining [cont(h(w), h(L))]). Simplicity must
    hold at each configuration; [u] witnesses it. *)
type verdict = {
  simple : bool;
  configurations : int;  (** reachable [(S, T)] configurations examined *)
  witness : Word.t option;
      (** a shortest [w ∈ L] at which simplicity fails (when not simple) *)
}

(** [analyze ?budget h l] decides simplicity of [h] for the prefix-closed
    language of the transition system [l] (all-states-final NFA), with a
    failing word when not simple. It builds one subset table over the image
    of [l] and minimizes it once; [budget] is ticked once per examined
    configuration and once per table row.
    @raise Invalid_argument if [l] has ε-moves or is not all-states-final. *)
val analyze : ?budget:Rl_engine_kernel.Budget.t -> t -> Nfa.t -> verdict

val pp : Format.formatter -> t -> unit
