(** Resource budgets for the exponential decision procedures.

    Every hot loop of the toolchain — subset construction, Kupferman–Vardi
    complementation, Büchi products, Petri-net reachability, simplicity
    configuration search — sits on a PSPACE-complete foundation
    (Theorem 4.5) and can blow up on modestly sized inputs. A budget makes
    those loops interruptible: the loop calls {!tick} once per freshly
    explored state, and when a limit is hit the loop is abandoned with
    {!Exhausted} carrying the phase reached and the work done so far, so
    callers can return a typed [`Budget_exhausted] outcome with partial
    statistics instead of hanging or exhausting memory.

    A budget is a mutable accumulator shared by every phase of one check:
    the state count is global across phases, which is what a caller who
    asked for "at most [n] states of work" means.

    One thread ticks a budget. The call that carries the state counter
    across the limit raises {!Exhausted}; when it is a {!tick} the record
    reads [limit + 1], when it is a {!charge} it reads that call's total.
    Every later call re-raises that same record. A negative limit is
    crossed by the first call. The one cross-thread operation is
    {!cancel}: the service watchdog publishes a record through an
    [Atomic] that the checking thread's next {!tick} or {!poll} raises. *)

type t

(** Everything known at the moment a budget ran out. *)
type exhaustion = {
  resource : [ `States | `Time ];  (** which limit was hit *)
  phase : string;  (** the phase the check was in, e.g. ["determinize pre(Lω)"] *)
  states_explored : int;  (** total states explored across all phases *)
  max_states : int option;  (** the state limit, if one was set *)
}

exception Exhausted of exhaustion

(** A shared budget with no limits. [tick] on it never raises; its
    statistics are meaningless (it is shared by every unbudgeted call). *)
val unlimited : t

(** [create ?max_states ?timeout ()] is a fresh budget allowing at most
    [max_states] freshly explored states and [timeout] seconds of wall
    clock (measured from this call). Omitted limits are infinite. *)
val create : ?max_states:int -> ?timeout:float -> unit -> t

(** [is_limited b] — [b] has at least one finite limit. *)
val is_limited : t -> bool

(** [tick b] records one freshly explored state.
    @raise Exhausted when a limit is exceeded. The wall clock is polled
    every 256 ticks, so deadline overruns are detected within 256 states
    of work. *)
val tick : t -> unit

(** [charge b n] records [n] states of work at once (used for linear
    passes over pre-built automata). *)
val charge : t -> int -> unit

(** [poll b] does no accounting but notices a limit hit elsewhere: it
    re-raises a published exhaustion (a watchdog's {!cancel}) and
    occasionally polls the deadline. Loops that do work without
    exploring fresh states call it, so a cancelled check stops promptly.
    @raise Exhausted if the budget is already exhausted. *)
val poll : t -> unit

(** [cancelled b] — [b] is already exhausted, by a limit or by {!cancel}
    (no raise). *)
val cancelled : t -> bool

(** [cancel ?phase b resource] exhausts [b] from the outside: it
    publishes an exhaustion record (unless one is already published)
    without raising on the calling thread, so every later {!tick} or
    {!poll} raises {!Exhausted}. This is the
    service watchdog's lever: when a request blows its wall-clock
    deadline, the watchdog cancels its budget and the abandoned check
    unwinds at its next cooperative point. [phase] labels the record
    when the budget has no phase of its own. *)
val cancel : ?phase:string -> t -> [ `States | `Time ] -> unit

(** [set_phase b name] labels the work done from now on; the label is
    reported in {!exhaustion} and in partial-progress statistics. *)
val set_phase : t -> string -> unit

(** [with_phase b name f] runs [f ()] under the phase label [name],
    restoring the previous label afterwards (also on exceptions). *)
val with_phase : t -> string -> (unit -> 'a) -> 'a

val states_explored : t -> int
val current_phase : t -> string

val pp_exhaustion : Format.formatter -> exhaustion -> unit
