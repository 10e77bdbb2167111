(** Compilation of an Alloy-lite model + scope into relational bounds and
    execution of [run]/[check] commands — the Alloy Analyzer front door.

    Atom allocation: each top-level signature gets [scope] fresh atoms
    (named [Sig$i]); [extends] children receive disjoint sub-blocks of
    their own, so sibling disjointness is free; [one sig]s, ordered sigs
    and [exactly] scopes become exact bounds (no SAT variables). Fields
    get empty lower bounds and the column-product upper bound, plus
    structural facts tying them to the actual signature contents and
    their declared multiplicities — the same facts the Alloy Analyzer
    synthesizes. *)

type t = {
  model : Model.t;
  scope : Scope.t;
  universe : Relalg.Universe.t;
  bounds : Relalg.Bounds.t;
  facts : Relalg.Ast.formula;  (** structural + user facts, conjoined *)
  sig_atoms : (string * string list) list;
      (** upper-bound atom names per signature, in allocation order *)
}

val universe_estimate : Model.t -> Scope.t -> int * int
(** [(atoms, tuples)]: an upper bound on the universe size (including
    Int atoms) and on the largest total field-tuple budget that
    {!prepare} would allocate for this model at this scope — computed
    without allocating anything, so a service can reject a
    resource-hungry scope before translation. Both counts saturate at
    [max_int] instead of overflowing. *)

val prepare : Model.t -> Scope.t -> t
(** Validates and compiles. Raises [Failure] with the validation message
    on an ill-formed model. *)

type outcome = Relalg.Translate.outcome = Sat of Relalg.Instance.t | Unsat

val run_formula : ?symmetry:bool -> t -> Relalg.Ast.formula -> outcome
(** Finds an instance satisfying facts plus the given formula. *)

val run_pred : ?symmetry:bool -> t -> string -> outcome
(** [run_pred c p] existentially closes predicate [p] over its parameters
    and solves — Alloy's [run p]. *)

val check : ?symmetry:bool -> t -> string -> outcome
(** [check c a] checks the named assertion — Alloy's [check a].
    [symmetry] enables Kodkod-style symmetry-breaking predicates (see
    {!Relalg.Translate.translate}). *)

val check_formula_bounded :
  ?symmetry:bool -> ?stop:(unit -> bool) -> budget:Netsim.Budget.t -> t ->
  Relalg.Ast.formula -> Relalg.Translate.bounded_outcome
(** Searches for a counterexample to the formula ([Sat inst] refutes
    it), under a budget: returns [Unknown reason] instead of hanging
    once the {!Netsim.Budget} expires, or within one conflict of the
    cooperative [stop] hook flipping to [true]. *)

val check_bounded :
  ?symmetry:bool -> ?stop:(unit -> bool) -> budget:Netsim.Budget.t -> t ->
  string -> Relalg.Translate.bounded_outcome
(** Budgeted variant of {!check} — Alloy's [check a] with graceful
    degradation under a deadline, conflict cap or cancellation hook. *)

val check_formula_certified :
  ?symmetry:bool -> t -> Relalg.Ast.formula -> Relalg.Translate.certified_outcome
(** Certified counterexample search for the formula: the verdict
    carries the {!Sat.Proof} certification report (DRUP refutation for
    [Unsat], strict model check for [Sat]). *)

val check_certified :
  ?symmetry:bool -> t -> string -> Relalg.Translate.certified_outcome
(** Certified variant of {!check} — Alloy's [check a], with an
    independently machine-checked certificate for the verdict. *)

val enumerate : ?symmetry:bool -> ?limit:int -> t -> Relalg.Ast.formula -> Relalg.Instance.t list
(** Up to [limit] distinct instances satisfying facts plus the formula —
    Alloy's instance iteration. *)

val translation : ?symmetry:bool -> t -> Relalg.Ast.formula -> Relalg.Translate.translation
(** The raw translation of facts ∧ formula, for size measurements
    (experiment E5) and for the shared-translation solve path
    ({!Relalg.Translate.session}). *)

val check_translation : ?symmetry:bool -> t -> string -> Relalg.Translate.translation
(** The counterexample-search translation of the named assertion
    (facts ∧ ¬assertion) — what {!check_bounded} builds internally.
    Translate once, then decide repeatedly under different selector
    assumptions. Raises [Invalid_argument] on an unknown assertion. *)

val pp_outcome : Format.formatter -> outcome -> unit
