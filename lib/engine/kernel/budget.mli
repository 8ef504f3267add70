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

    Budgets are domain-safe: the state counter is an [Atomic], so several
    domains of a {!Rl_engine_kernel.Pool} may tick one budget concurrently
    and [--max-states] still bounds the {e total} cross-domain work. Only
    the call that carries the counter across the state limit publishes
    the {!exhaustion} record. When the crossing call is a {!tick} the
    record reads [limit + 1] whatever the interleaving; when it is a
    {!charge} it reads that call's total, which may depend on which
    domain crossed first. Every other call past the limit, on any domain,
    re-raises that same record, which cancels parallel workers promptly.
    A negative limit is crossed by the first call.
    Phase labels ({!set_phase}/{!with_phase}) are not synchronized — they
    must be changed from the coordinating domain only. *)

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
    re-raises a published exhaustion and occasionally polls the deadline.
    Worker domains call it at task boundaries so a budget tripped on one
    domain stops the others promptly.
    @raise Exhausted if the budget is already exhausted. *)
val poll : t -> unit

(** [cancelled b] — some domain has already exhausted [b] (no raise). *)
val cancelled : t -> bool

(** [cancel ?phase b resource] exhausts [b] from the outside: it
    publishes an exhaustion record (unless one is already published)
    without raising on the calling domain, so every later {!tick} or
    {!poll} on any domain raises {!Exhausted}. This is the
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
