(** Tarjan strongly-connected components over successor graphs.

    One SCC decomposition shared by the Büchi layer and the semantic lint
    passes ({!Rl_analysis}): states are integers [0 .. states-1], edges
    come from a caller-supplied successor iterator (typically a {!Csr}
    table), and components are numbered in {e reverse topological order}:
    every edge goes from a higher-numbered component to a lower or equal
    one, so component [0] is a sink of the condensation.

    Beyond the membership map the result carries the per-component facts
    the dataflow passes keep re-deriving: sizes, self-loop presence, and
    closedness (no edge leaves the component) — together these decide
    cycle-bearing ("can a run stay here forever?") and trap questions
    without another graph walk. *)

type t = {
  comp : int array;  (** [comp.(q)] is the component of state [q] *)
  count : int;  (** number of components; ids are [0 .. count-1] *)
  size : int array;  (** [size.(c)] is the number of member states *)
  self_loop : bool array;
      (** [self_loop.(c)]: some member has an edge to itself *)
  closed : bool array;
      (** [closed.(c)]: no edge leaves [c] (a sink of the condensation) *)
}

(** [of_succ ~states succ] decomposes the graph whose edges are produced
    by [succ q f] (calling [f q'] once per edge [q -> q'], duplicates
    allowed). The iterator runs once per state, in increasing state
    order, to copy the rows into a flat table; the DFS and the
    per-component facts then read that table. Component numbering depends
    on the iteration order, so callers that expose their numbering keep
    it stable by fixing that order. *)
val of_succ : states:int -> (int -> (int -> unit) -> unit) -> t

(** [of_csr csr] is [of_succ] over all labelled edges of [csr], in
    {!Csr.iter_row_all} order, with the same result; it reads the table
    in place, without copying a row. *)
val of_csr : Csr.t -> t

(** [nontrivial t c] is [true] iff component [c] contains a cycle: more
    than one state, or a single state with a self-loop. A run can remain
    inside [c] forever iff [nontrivial t c]. *)
val nontrivial : t -> int -> bool

(** [members t c] lists the states of component [c] in increasing order. *)
val members : t -> int -> int list
