(** The graceful-degradation ladder: CDCL → explicit checker →
    [UNKNOWN].

    The CDCL rung is guarded by a {!Breaker}: while it keeps timing out
    it is skipped (its breaker is open) until a backoff-drawn cooldown
    has passed, so an overloaded server stops burning its per-request
    deadline on a rung that cannot answer in time. A CDCL [Undecided]
    within its slice of the deadline counts as a breaker timeout and
    the request falls to the explicit rung. That rung has no breaker:
    the service computes its verdict for every reply's exhaustive
    column anyway, so skipping it would save nothing and only throw a
    decided answer away. Only when every rung is refused or undecided
    does the request resolve to [Undecided "degraded: …"] — the
    service's honest [UNKNOWN], never a crash or a hang. Engine cross-checking (e.g. against {!Sat.Dpll})
    belongs to the differential test suite, not to this ladder. *)

type rung = Cdcl | Explicit

val rung_name : rung -> string
(** ["cdcl"], ["explicit"]. *)

type t
(** The CDCL rung's breaker; shared by all worker domains. *)

val make :
  ?trip_after:int -> ?backoff:Netsim.Backoff.t -> ?seed:int -> unit -> t
(** Breaker parameters are per {!Breaker.make}; [seed] (default 0)
    derives the breaker's decorrelated cooldown stream. *)

val breaker : t -> Breaker.t
(** The CDCL rung's breaker, exposed for stats reporting and tests. *)

type answer = {
  verdict : Core.Experiments.sweep_verdict;
  rung : string;  (** rung that answered, or ["none"] *)
  degraded : bool;  (** at least one higher rung was skipped or failed *)
  trail : (string * string) list;
      (** per-rung disposition, top-down: ["open"], ["decided"],
          ["cancelled"], or the [Undecided] reason *)
}

val decide :
  ?now:(unit -> float) ->
  t -> (rung * (unit -> Core.Experiments.sweep_verdict)) list -> answer
(** Walks the rungs top-down. [Holds]/[Violated] records a breaker
    success (on the CDCL rung) and stops; [Undecided "cancelled"]
    (drain, or the request deadline observed by the [stop] hook) stops
    {e without} a breaker transition — cancellation says nothing about
    the backend's health; any other [Undecided] records a breaker
    timeout (on the CDCL rung) and falls through.
    [now] (default wall clock) is injected for deterministic tests. *)

val consensus_rungs :
  ?stop:(unit -> bool) ->
  budget_for:(rung -> Netsim.Budget.t) ->
  shared:Core.Mca_model.shared ->
  policy:Core.Mca_model.policy ->
  exhaustive:(unit -> Core.Experiments.sweep_verdict) ->
  unit -> (rung * (unit -> Core.Experiments.sweep_verdict)) list
(** The standard two rungs for a [check consensus] cell. The first is
    bounded CDCL on the cached scope-wide [shared] translation under
    [policy], on this worker domain's warm session
    ({!Core.Experiments.cell_sat_verdict}). The second is the caller's
    [exhaustive] thunk — in
    the service this reuses the explicit-state verdict the reply needs
    anyway, so the bottom rung costs nothing extra. [budget_for] slices
    the remaining request deadline per rung. *)

val check_consensus :
  ?now:(unit -> float) ->
  ?stop:(unit -> bool) ->
  budget_for:(rung -> Netsim.Budget.t) ->
  shared:Core.Mca_model.shared ->
  policy:Core.Mca_model.policy ->
  exhaustive:(unit -> Core.Experiments.sweep_verdict) ->
  t -> answer
(** [decide] over [consensus_rungs]. *)
