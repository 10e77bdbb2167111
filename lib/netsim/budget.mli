(** Graceful-degradation budgets shared by every verification backend.

    A budget bundles a wall-clock deadline with backend-specific work
    caps (explorer states, CDCL conflicts/propagations). Backends poll
    {!check} with their current counters and must answer [Unknown]
    rather than hang or crash when the budget expires — so every
    [mca_check] invocation terminates with an honest verdict. *)

type t

val create :
  ?wall_s:float -> ?steps:int -> ?conflicts:int -> ?propagations:int ->
  unit -> t
(** Omitted caps are unlimited. The wall-clock deadline starts at
    creation time; use {!restarted} to re-arm a stored budget. Raises
    [Invalid_argument] on negative caps. *)

val unlimited : t
val is_unlimited : t -> bool

val until : deadline:float -> t
(** [until ~deadline] is a pure wall-clock budget expiring at the
    absolute Unix time [deadline] (already-past deadlines give a
    zero-width window, i.e. immediately [Expired]). This is how the
    verification service propagates a per-request deadline into the
    [?stop]/budget chain of the backends: each degradation rung gets
    the time remaining until the request's deadline, never more. *)

val restarted : t -> t
(** Same caps, deadline re-armed from now. *)

val elapsed : t -> float
(** Wall-clock seconds since creation (or the last {!restarted}). *)

type status = Within | Expired of string
(** [Expired reason] names the first cap that was hit, e.g.
    ["conflict cap 5000"] or ["deadline 2s"]. *)

val check : ?steps:int -> ?conflicts:int -> ?propagations:int -> t -> status
(** Compares the caller's counters (and the clock) against the caps.
    Counters default to 0, i.e. only the deadline is consulted. *)

val pp : Format.formatter -> t -> unit
