(** Translation of relational formulas to SAT, and the push-button solve
    loop — the Kodkod analogue.

    Pipeline: allocate one primary SAT variable per tuple in each
    relation's [upper \ lower] bound, interpret the formula over boolean
    matrices ({!Matrix}), Tseitin-translate the resulting circuit
    ({!Sat.Formula.to_cnf}) and run the CDCL solver. A satisfying model is
    read back into an {!Instance.t}.

    Every verdict query goes through a {!session}: the one-shot
    {!solve}, {!solve_bounded}, {!check_bounded} and {!check_certified}
    open a throwaway one, the policy-matrix sweep keeps a warm one per
    worker. So every verdict comes from the same canonical CDCL search
    and every certificate from {!Sat.Solver.solve} [~certify:true].
    {!enumerate} runs that search on a solver of its own, since it adds
    blocking clauses between solves. *)

type translation = {
  cnf : Sat.Formula.cnf_result;
  num_primary : int;  (** primary (relational) variables *)
  circuit_size : int;  (** connective count of the boolean circuit *)
  bounds : Bounds.t;
  alloc : (string * (Tuple.t * Sat.Cnf.var option) list) list;
      (** per relation: upper-bound tuple → its primary variable, or
          [None] when the tuple is in the lower bound (fixed true) *)
}

val translate : ?symmetry:bool -> Bounds.t -> Ast.formula -> translation
(** Compiles the formula. Raises [Invalid_argument] on arity errors,
    unbound relations, or unbound quantifier variables — the static
    errors Alloy reports at analysis start.

    [symmetry] (default false) conjoins Kodkod-style partial
    symmetry-breaking predicates: for every adjacent pair of atoms whose
    swap provably preserves all bounds (and that carry no integer
    value), a lex-leader constraint prunes isomorphic instances. Sound
    for both instance finding and refutation; counterexamples are then
    reported in canonical form. *)

type outcome = Sat of Instance.t | Unsat

val solve : ?symmetry:bool -> Bounds.t -> Ast.formula -> outcome
(** [solve b f] finds an instance within bounds satisfying [f]. *)

val check : ?symmetry:bool -> Bounds.t -> assertion:Ast.formula -> facts:Ast.formula -> outcome
(** [check b ~assertion ~facts] looks for a counterexample: an instance
    satisfying [facts && !assertion]. [Sat ce] means the assertion does
    not hold; [Unsat] means it holds within the bounds. *)

(** A {!outcome} that may also be [Unknown reason] when a
    {!Netsim.Budget} expired before the SAT solver decided. *)
type bounded_outcome = Decided of outcome | Unknown of string

val solve_bounded :
  ?symmetry:bool -> ?stop:(unit -> bool) -> budget:Netsim.Budget.t ->
  Bounds.t -> Ast.formula -> bounded_outcome
(** Like {!solve}, under a budget. Formulas that constant-fold during
    translation are decided without consulting the solver, so they never
    return [Unknown]. [stop] is the cooperative-cancellation hook of the
    parallel drivers, forwarded to {!Sat.Solver.solve_bounded}: when it
    flips to [true] the answer is [Unknown "cancelled"] within one
    conflict. *)

val check_bounded :
  ?symmetry:bool -> ?stop:(unit -> bool) -> budget:Netsim.Budget.t ->
  Bounds.t -> assertion:Ast.formula -> facts:Ast.formula -> bounded_outcome
(** Like {!check}, under a budget and the same [stop] hook. *)

(** An outcome paired with its certification evidence: the DRUP/model
    report from {!Sat.Proof}, or [None] when the formula constant-folded
    and no SAT call was made (the verdict is then trivially right). *)
type certified_outcome = {
  outcome : outcome;
  certification : Sat.Proof.report option;
}

val check_certified :
  ?symmetry:bool -> Bounds.t -> assertion:Ast.formula -> facts:Ast.formula -> certified_outcome
(** Certified counterexample search: an [Unsat] ("assertion holds")
    verdict comes with a DRUP refutation accepted by
    {!Sat.Proof.check_refutation} — the direction the paper's Result 1
    rests on — and a [Sat] counterexample with a model re-checked
    against every CNF clause. Raises {!Sat.Proof.Certification_failed}
    if the engine's certificate is rejected. *)

type session
(** An incremental solving session: one warm {!Sat.Solver.t} threaded
    through many assumption-parameterized solves of the same
    {!translation}. Learnt clauses and VSIDS state carry across calls,
    so deciding the six policy-matrix cells — which differ only in
    three selector assumptions — is measurably cheaper than six
    independent solves. A session is mutable solver state: it must
    never be shared across domains (open one per worker; the underlying
    translation {e can} be shared). *)

val session : ?certify:bool -> translation -> session
(** Opens a session over [tr]. [~certify:true] (default false) enables
    DRUP proof logging on the session solver so {!solve_cell_certified}
    is available; logging has a small per-clause cost. *)

val solve_cell :
  ?stop:(unit -> bool) ->
  budget:Netsim.Budget.t -> session -> Sat.Cnf.lit list -> bounded_outcome
(** Budgeted solve of one cell under the given assumptions, warm: the
    verdict of a fresh session on the same cell (differentially pinned
    in the test suite), reusing the session solver. Constant-folded
    circuits are decided directly (a trivially-[Sat] instance reflects
    the assumed literal polarities).
    On [Unknown] the solver is back at the root level and stays
    reusable; retrying the same cell with a larger budget resumes warm.
    Assumptions never leak between calls: they are pseudo-decisions,
    undone by the root-level backtrack that starts every solve. *)

val solve_cell_certified : session -> Sat.Cnf.lit list -> certified_outcome
(** Certified solve of one cell, warm, via {!Sat.Solver.solve}
    [~assumptions ~certify:true]: the certificate covers exactly the
    assumed problem, yet the assumptions are never asserted as clauses
    (that would poison the session for every later cell). Raises
    [Invalid_argument] unless the session was opened with
    [~certify:true], and {!Sat.Proof.Certification_failed} if a
    certificate is rejected. *)

val session_stats : session -> Sat.Solver.stats option
(** Counters of the session solver ([None] when the circuit
    constant-folded and no solver exists) — the observability hook for
    warm-reuse assertions: conflicts/propagations are lifetime totals,
    so per-cell work is a delta between snapshots. *)

val selector_var : translation -> string -> Sat.Cnf.var option
(** [selector_var tr rel] is the primary variable of relation [rel] when
    it has exactly one tuple free between its bounds — the shape of a
    policy-selector relation — and [None] otherwise. *)

val enumerate : ?symmetry:bool -> ?limit:int -> Bounds.t -> Ast.formula -> Instance.t list
(** All satisfying instances, up to [limit] (default 100): Alloy's
    "Next" button. Each found model is blocked on the primary variables
    and the (incremental) solver is re-run. With [symmetry] the stream
    is restricted to the lex-leader representative of most isomorphism
    classes. *)

val instance_of_model : translation -> Sat.Cnf.model -> Instance.t

type stats = { vars : int; clauses : int; primary : int; circuit : int }

val translation_stats : translation -> stats
(** Size of the generated SAT problem — the measurements behind the
    paper's 259K-vs-190K clause comparison (experiment E5). *)

val pp_stats : Format.formatter -> stats -> unit
