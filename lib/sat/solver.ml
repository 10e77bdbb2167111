(* CDCL solver, MiniSat lineage.

   Watching convention: a clause watches its first two literals
   [lits.(0)] and [lits.(1)]; the clause is registered in the watcher
   list of the *negation* of each watched literal, so when a literal [p]
   is enqueued (made true) we visit [watches.(p)] — exactly the clauses
   in which a watched literal just became false. Each watcher also
   carries a *blocker*: some other literal of the clause. When the
   blocker is already true the clause is satisfied and is skipped
   without touching its literal array.

   Reasons are a [clause array] with [dummy_clause] meaning "none"
   (decisions, assumptions and unit clauses). As in MiniSat they are
   not cleared on backtrack: [reason.(v)] is meaningful only while [v]
   is assigned, which is why [locked] also checks that the clause's
   implied literal [lits.(0)] is still true. *)

type clause = {
  mutable lits : Cnf.lit array;
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

type result = Sat of Cnf.model | Unsat

type bounded_result =
  | Decided of result
  | Unknown of { reason : string; conflicts : int; propagations : int }

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  max_vars : int;
  clauses_added : int;
}

type config = {
  restart_base : float;
  invert_polarity : bool;
  seed : int;
}

let default_config = { restart_base = 100.0; invert_polarity = false; seed = 0 }

let diversified k =
  if k <= 0 then default_config
  else
    {
      restart_base = [| 100.0; 50.0; 200.0; 70.0; 150.0 |].(k mod 5);
      invert_polarity = k land 1 = 1;
      seed = k;
    }

let dummy_clause = { lits = [||]; activity = 0.0; learnt = false; deleted = false }

(* One literal's watchers: clause [cls.(i)] with blocker [blk.(i)], for
   [i < size]. Parallel arrays, so the blocker test reads an int array
   and never dereferences the clause. *)
type watchers = {
  mutable cls : clause array;
  mutable blk : Cnf.lit array;
  mutable size : int;
}

(* Literal values, one byte per literal. *)
let v_undef = '\000'
let v_true = '\001'
let v_false = '\002'

(* [seen] marks, one byte per variable. [mark_source]: in the learnt
   clause being built; [mark_removable] / [mark_failed]: memoized
   outcomes of the redundancy check in [lit_redundant]. *)
let mark_none = '\000'
let mark_source = '\001'
let mark_removable = '\002'
let mark_failed = '\003'

type t = {
  mutable nvars : int;
  mutable clauses : clause Vec.t; (* problem clauses *)
  mutable learnts : clause Vec.t; (* learnt clauses *)
  mutable watches : watchers array; (* lit-indexed *)
  mutable vals : Bytes.t; (* lit-indexed value *)
  mutable level : int array; (* var-indexed *)
  mutable reason : clause array; (* var-indexed; [dummy_clause] = none *)
  mutable polarity : bool array; (* var-indexed saved phase *)
  mutable seen : Bytes.t; (* var-indexed analysis marks *)
  trail : Cnf.lit Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  order : Heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool; (* false once root-level unsat *)
  (* conflict-analysis buffers, reused across conflicts *)
  learnt_buf : Cnf.lit Vec.t; (* the clause being learnt, asserting lit first *)
  to_clear : Cnf.lit Vec.t; (* literals whose [seen] mark must be reset *)
  min_stack : int Vec.t; (* [lit_redundant]'s (index, literal) pairs *)
  (* certification *)
  mutable proof : Proof.trail option; (* DRUP trail, when logging is on *)
  mutable originals : Cnf.clause list; (* pre-simplification clauses, reversed *)
  mutable last_certification : Proof.report option;
  (* failed-assumption core of the most recent Unsat-under-assumptions *)
  mutable conflict_core : Cnf.lit list;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_learnt_lits : int;
  mutable n_clauses_added : int;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

let empty_watchers () = { cls = [||]; blk = [||]; size = 0 }

let create () =
  {
    nvars = 0;
    clauses = Vec.create ~dummy:dummy_clause ();
    learnts = Vec.create ~dummy:dummy_clause ();
    watches = [| empty_watchers (); empty_watchers () |];
    vals = Bytes.make 2 v_undef;
    level = Array.make 1 (-1);
    reason = Array.make 1 dummy_clause;
    polarity = Array.make 1 false;
    seen = Bytes.make 1 mark_none;
    trail = Vec.create ~dummy:0 ();
    trail_lim = Vec.create ~dummy:0 ();
    qhead = 0;
    order = Heap.create 16;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    learnt_buf = Vec.create ~dummy:0 ();
    to_clear = Vec.create ~dummy:0 ();
    min_stack = Vec.create ~dummy:0 ();
    proof = None;
    originals = [];
    last_certification = None;
    conflict_core = [];
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_learnt_lits = 0;
    n_clauses_added = 0;
  }

let num_vars s = s.nvars

let enable_proof s =
  if s.proof = None then begin
    if s.n_clauses_added > 0 then
      invalid_arg "Solver.enable_proof: clauses were already added";
    s.proof <- Some (Proof.create ())
  end

let proof_enabled s = s.proof <> None
let proof_steps s = match s.proof with Some t -> Proof.steps t | None -> []
let last_certification s = s.last_certification

let original_problem s =
  if s.proof = None then
    invalid_arg "Solver.original_problem: proof logging is not enabled";
  { Cnf.num_vars = s.nvars; clauses = s.originals }

(* Record the derivation of the empty clause (root-level unsat). Only
   meaningful for assumption-free refutations; callers guard. *)
let log_empty s =
  match s.proof with Some t -> Proof.log_add t [||] | None -> ()

let resize_arrays s n =
  let grow a fill =
    let old = Array.length a in
    if n + 1 > old then begin
      let b = Array.make (max (n + 1) (2 * old)) fill in
      Array.blit a 0 b 0 old;
      b
    end
    else a
  in
  let grow_bytes b len fill =
    let old = Bytes.length b in
    if len > old then begin
      let b' = Bytes.make (max len (2 * old)) fill in
      Bytes.blit b 0 b' 0 old;
      b'
    end
    else b
  in
  s.vals <- grow_bytes s.vals ((2 * n) + 2) v_undef;
  s.level <- grow s.level (-1);
  s.reason <- grow s.reason dummy_clause;
  s.polarity <- grow s.polarity false;
  s.seen <- grow_bytes s.seen (n + 1) mark_none;
  let oldw = Array.length s.watches in
  if (2 * n) + 2 > oldw then begin
    let w = Array.make (max ((2 * n) + 2) (2 * oldw)) s.watches.(0) in
    Array.blit s.watches 0 w 0 oldw;
    for i = oldw to Array.length w - 1 do
      w.(i) <- empty_watchers ()
    done;
    s.watches <- w
  end;
  Heap.grow_to s.order n

let ensure_vars s n =
  if n > s.nvars then begin
    resize_arrays s n;
    for v = s.nvars + 1 to n do
      Heap.insert s.order v
    done;
    s.nvars <- n
  end

let new_var s =
  ensure_vars s (s.nvars + 1);
  s.nvars

let lit_true s l = Bytes.unsafe_get s.vals l = v_true
let lit_false s l = Bytes.unsafe_get s.vals l = v_false
let var_of = Cnf.var_of
let decision_level s = Vec.size s.trail_lim

(* Enqueue a literal as true, recording its reason. *)
let enqueue s l reason =
  let v = var_of l in
  Bytes.unsafe_set s.vals l v_true;
  Bytes.unsafe_set s.vals (Cnf.negate l) v_false;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let watch s l c blocker =
  let ws = s.watches.(l) in
  if ws.size = Array.length ws.cls then begin
    let cap = max 4 (2 * ws.size) in
    let cls = Array.make cap dummy_clause and blk = Array.make cap 0 in
    Array.blit ws.cls 0 cls 0 ws.size;
    Array.blit ws.blk 0 blk 0 ws.size;
    ws.cls <- cls;
    ws.blk <- blk
  end;
  Array.unsafe_set ws.cls ws.size c;
  Array.unsafe_set ws.blk ws.size blocker;
  ws.size <- ws.size + 1

(* Boolean constraint propagation. Returns the conflicting clause, or
   [dummy_clause] when there is none.

   Each watcher list is compacted in place: [i] reads, [j] writes.
   A watcher that stays put ([i = j]) is not stored again, since every
   store of a clause pointer pays the write barrier. *)
let propagate s =
  let confl = ref dummy_clause in
  let vals = s.vals in
  while !confl == dummy_clause && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = Cnf.negate p in
    let ws = s.watches.(p) in
    let cls = ws.cls and blk = ws.blk and n = ws.size in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let b = Array.unsafe_get blk !i in
      if Bytes.unsafe_get vals b = v_true then begin
        (* satisfied by its blocker: keep without reading the clause *)
        if !i <> !j then begin
          Array.unsafe_set cls !j (Array.unsafe_get cls !i);
          Array.unsafe_set blk !j b
        end;
        incr i;
        incr j
      end
      else begin
        let c = Array.unsafe_get cls !i in
        let moved = !i <> !j in
        incr i;
        let lits = c.lits in
        (* normalize: put the falsified watch at position 1 *)
        if Array.unsafe_get lits 0 = false_lit then begin
          Array.unsafe_set lits 0 (Array.unsafe_get lits 1);
          Array.unsafe_set lits 1 false_lit
        end;
        let first = Array.unsafe_get lits 0 in
        if first <> b && Bytes.unsafe_get vals first = v_true then begin
          (* satisfied by its other watch, which becomes the blocker *)
          if moved then Array.unsafe_set cls !j c;
          Array.unsafe_set blk !j first;
          incr j
        end
        else begin
          (* look for a replacement watch *)
          let len = Array.length lits in
          let k = ref 2 in
          while
            !k < len && Bytes.unsafe_get vals (Array.unsafe_get lits !k) = v_false
          do
            incr k
          done;
          if !k < len then begin
            let l = Array.unsafe_get lits !k in
            Array.unsafe_set lits 1 l;
            Array.unsafe_set lits !k false_lit;
            watch s (Cnf.negate l) c first
          end
          else begin
            (* unit or conflicting: the watch stays *)
            if moved then Array.unsafe_set cls !j c;
            Array.unsafe_set blk !j first;
            incr j;
            if Bytes.unsafe_get vals first = v_false then begin
              (* conflict: keep the remaining watchers and drain the queue *)
              confl := c;
              s.qhead <- Vec.size s.trail;
              while !i < n do
                Array.unsafe_set cls !j (Array.unsafe_get cls !i);
                Array.unsafe_set blk !j (Array.unsafe_get blk !i);
                incr i;
                incr j
              done
            end
            else enqueue s first c
          end
        end
      end
    done;
    ws.size <- !j
  done;
  !confl

let var_bump s v =
  Heap.bump s.order v s.var_inc;
  if Heap.activity s.order v > 1e100 then begin
    Heap.rescale s.order 1e-100;
    s.var_inc <- s.var_inc *. 1e-100
  end

let clause_bump s c =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun c -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* Is [p], a literal of the learnt clause (so false, with a reason), implied
   by the clause's other literals? MiniSat 2.2.1's recursive check: walk
   [p]'s reason clauses depth first; a leaf at level 0 or already in the
   clause ([mark_source]) or already shown removable is fine, a leaf that
   is a decision/assumption (no reason) or already shown to fail is not.
   Outcomes are memoized in [seen] for the rest of this conflict, so no
   subtree is explored twice. Reason clauses keep their implied literal
   at index 0, hence the scans start at 1. *)
let lit_redundant s p0 =
  let seen = s.seen and stack = s.min_stack in
  Vec.shrink stack 0;
  let p = ref p0 and i = ref 1 and result = ref true and fin = ref false in
  let lits = ref s.reason.(var_of p0).lits in
  while not !fin do
    if !i < Array.length !lits then begin
      let l = Array.unsafe_get !lits !i in
      let v = var_of l in
      let m = Bytes.unsafe_get seen v in
      if s.level.(v) = 0 || m = mark_source || m = mark_removable then incr i
      else if s.reason.(v) == dummy_clause || m = mark_failed then begin
        (* [p] and everything it was explored from cannot be removed *)
        Vec.push stack 0;
        Vec.push stack !p;
        for k = 0 to (Vec.size stack / 2) - 1 do
          let q = Vec.get stack ((2 * k) + 1) in
          if Bytes.unsafe_get seen (var_of q) = mark_none then begin
            Bytes.unsafe_set seen (var_of q) mark_failed;
            Vec.push s.to_clear q
          end
        done;
        result := false;
        fin := true
      end
      else begin
        (* descend into [l]'s reason *)
        Vec.push stack !i;
        Vec.push stack !p;
        p := l;
        i := 1;
        lits := s.reason.(v).lits
      end
    end
    else begin
      (* every antecedent of [p] is redundant, so [p] is *)
      let v = var_of !p in
      if Bytes.unsafe_get seen v = mark_none then begin
        Bytes.unsafe_set seen v mark_removable;
        Vec.push s.to_clear !p
      end;
      if Vec.is_empty stack then fin := true
      else begin
        p := Vec.pop stack;
        i := Vec.pop stack + 1;
        lits := s.reason.(var_of !p).lits
      end
    end
  done;
  !result

(* First-UIP conflict analysis with recursive clause minimization. Leaves
   the learnt clause in [learnt_buf] — the asserting literal first and a
   literal of the backjump level second — and returns the backjump
   level. *)
let analyze s confl =
  let seen = s.seen and learnt = s.learnt_buf in
  Vec.shrink learnt 0;
  Vec.push learnt 0 (* room for the asserting literal *);
  let dl = decision_level s in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let trail_idx = ref (Vec.size s.trail - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c.learnt then clause_bump s c;
    let lits = c.lits in
    for j = (if !p = -1 then 0 else 1) to Array.length lits - 1 do
      let q = Array.unsafe_get lits j in
      let v = var_of q in
      if Bytes.unsafe_get seen v = mark_none && s.level.(v) > 0 then begin
        Bytes.unsafe_set seen v mark_source;
        var_bump s v;
        if s.level.(v) >= dl then incr counter else Vec.push learnt q
      end
    done;
    (* walk the trail back to the next marked literal *)
    while Bytes.unsafe_get seen (var_of (Vec.get s.trail !trail_idx)) = mark_none do
      decr trail_idx
    done;
    p := Vec.get s.trail !trail_idx;
    decr trail_idx;
    Bytes.unsafe_set seen (var_of !p) mark_none;
    confl := s.reason.(var_of !p);
    decr counter;
    if !counter <= 0 then continue := false
  done;
  Vec.set learnt 0 (Cnf.negate !p);
  (* recursive minimization: drop literals implied by the others *)
  let to_clear = s.to_clear in
  Vec.shrink to_clear 0;
  for i = 1 to Vec.size learnt - 1 do
    Vec.push to_clear (Vec.get learnt i)
  done;
  let kept = ref 1 in
  for i = 1 to Vec.size learnt - 1 do
    let q = Vec.get learnt i in
    if s.reason.(var_of q) == dummy_clause || not (lit_redundant s q) then begin
      Vec.set learnt !kept q;
      incr kept
    end
  done;
  Vec.shrink learnt !kept;
  for i = 0 to Vec.size to_clear - 1 do
    Bytes.unsafe_set seen (var_of (Vec.get to_clear i)) mark_none
  done;
  (* backjump to the highest level among the rest; watch that literal *)
  if !kept = 1 then 0
  else begin
    let max_i = ref 1 in
    for i = 2 to !kept - 1 do
      if s.level.(var_of (Vec.get learnt i)) > s.level.(var_of (Vec.get learnt !max_i))
      then max_i := i
    done;
    let q = Vec.get learnt !max_i in
    Vec.set learnt !max_i (Vec.get learnt 1);
    Vec.set learnt 1 q;
    s.level.(var_of q)
  end

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = var_of l in
      Bytes.unsafe_set s.vals l v_undef;
      Bytes.unsafe_set s.vals (Cnf.negate l) v_undef;
      s.polarity.(v) <- Cnf.is_pos l;
      Heap.insert s.order v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* Assumption-aware final conflict analysis (MiniSat's [analyzeFinal]):
   starting from the literals of a conflicting clause, resolve back
   through the implication graph until only assumption pseudo-decisions
   remain. The result is the subset of the assumptions that actually
   drove the conflict — a core: the formula is already unsatisfiable
   under just these literals. Must run before the trail is cancelled. *)
let analyze_final s confl_lits =
  if decision_level s = 0 then []
  else begin
    let seen = s.seen in
    let marked = ref [] in
    let mark q =
      let v = var_of q in
      if Bytes.get seen v = mark_none && s.level.(v) > 0 then begin
        Bytes.set seen v mark_source;
        marked := v :: !marked
      end
    in
    Array.iter mark confl_lits;
    let core = ref [] in
    let bound = Vec.get s.trail_lim 0 in
    (* Only literals sitting at a level boundary are pseudo-decisions
       (here: assumptions — every remaining level is an assumption
       level when this runs). A reason-less literal in mid-level is a
       learnt UNIT parked at the assumption level by [record_learnt]:
       learnt clauses are consequences of the clause set alone, so such
       a literal needs no assumption behind it and stays out of the
       core (nor is there a reason clause to resolve through). *)
    let is_boundary i =
      let n = Vec.size s.trail_lim in
      let rec go k = k < n && (Vec.get s.trail_lim k = i || go (k + 1)) in
      go 0
    in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = var_of l in
      if Bytes.get seen v <> mark_none then begin
        let r = s.reason.(v) in
        if r == dummy_clause then (if is_boundary i then core := l :: !core)
        else Array.iter mark r.lits
      end
    done;
    List.iter (fun v -> Bytes.set seen v mark_none) !marked;
    !core
  end

(* Attach a clause of >= 2 literals to the watch lists, each watch
   blocked by the other watched literal. *)
let attach s c =
  watch s (Cnf.negate c.lits.(0)) c c.lits.(1);
  watch s (Cnf.negate c.lits.(1)) c c.lits.(0)

(* Turn [learnt_buf] into a clause (logged to the DRUP trail as a copy)
   and assert its first literal at the current, backjumped, level. *)
let record_learnt s =
  let learnt = s.learnt_buf in
  let arr = Array.init (Vec.size learnt) (Vec.get learnt) in
  (match s.proof with Some t -> Proof.log_add t arr | None -> ());
  if Array.length arr = 1 then
    (* asserting unit: enqueue at the backjumped (root) level *)
    enqueue s arr.(0) dummy_clause
  else begin
    let c = { lits = arr; activity = 0.0; learnt = true; deleted = false } in
    Vec.push s.learnts c;
    attach s c;
    clause_bump s c;
    s.n_learnt_lits <- s.n_learnt_lits + Array.length arr;
    enqueue s arr.(0) c
  end

let add_clause s lits =
  if s.ok then begin
    s.n_clauses_added <- s.n_clauses_added + 1;
    List.iter (fun l -> ensure_vars s (var_of l)) lits;
    if s.proof <> None then s.originals <- Array.of_list lits :: s.originals;
    (* root-level simplification: drop false lits, detect tautology *)
    let lits = List.sort_uniq compare lits in
    let tauto =
      List.exists (fun l -> List.mem (Cnf.negate l) lits) lits
      || List.exists (lit_true s) lits
    in
    if not tauto then begin
      let lits = List.filter (fun l -> not (lit_false s l)) lits in
      match lits with
      | [] ->
          s.ok <- false;
          log_empty s
      | [ l ] ->
          enqueue s l dummy_clause;
          if propagate s != dummy_clause then begin
            s.ok <- false;
            log_empty s
          end
      | _ ->
          let arr = Array.of_list lits in
          let c = { lits = arr; activity = 0.0; learnt = false; deleted = false } in
          Vec.push s.clauses c;
          attach s c
    end
  end

(* A clause is locked while it is the reason of its implied literal
   [lits.(0)]. Reasons are not cleared on backtrack, so the literal must
   also still be true. *)
let locked s c =
  let l = c.lits.(0) in
  s.reason.(var_of l) == c && lit_true s l

(* Reduce the learnt-clause database: drop the less active half, keeping
   binary clauses and clauses that are the current reason of an
   assignment, then purge the dropped clauses from the watcher lists. *)
let reduce_db s =
  Vec.sort (fun a b -> Float.compare a.activity b.activity) s.learnts;
  let n = Vec.size s.learnts in
  let keep = Vec.create ~dummy:dummy_clause () in
  Vec.iteri
    (fun i c ->
      if i < n / 2 && (not (locked s c)) && Array.length c.lits > 2 then begin
        c.deleted <- true;
        match s.proof with
        | Some t -> Proof.log_delete t c.lits
        | None -> ()
      end
      else Vec.push keep c)
    s.learnts;
  s.learnts <- keep;
  Array.iter
    (fun ws ->
      let j = ref 0 in
      for i = 0 to ws.size - 1 do
        let c = ws.cls.(i) in
        if not c.deleted then begin
          ws.cls.(!j) <- c;
          ws.blk.(!j) <- ws.blk.(i);
          incr j
        end
      done;
      (* past [size] too: a conflict leaves stale copies there *)
      Array.fill ws.cls !j (Array.length ws.cls - !j) dummy_clause;
      ws.size <- !j)
    s.watches

(* The next decision literal, or [-1] when every variable is assigned. *)
let pick_branch_lit s =
  let rec loop () =
    if Heap.is_empty s.order then -1
    else
      let v = Heap.remove_max s.order in
      let l = if s.polarity.(v) then Cnf.pos v else Cnf.neg v in
      if Bytes.unsafe_get s.vals l = v_undef then l else loop ()
  in
  loop ()

let extract_model s =
  let m = Array.make (s.nvars + 1) false in
  for v = 1 to s.nvars do
    m.(v) <- lit_true s (Cnf.pos v)
  done;
  m

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby i =
  let rec expand sz seq = if sz < i + 1 then expand ((2 * sz) + 1) (seq + 1) else (sz, seq) in
  let rec reduce x sz seq =
    if sz - 1 = x then float_of_int (1 lsl seq)
    else
      let sz = (sz - 1) / 2 in
      reduce (x mod sz) sz (seq - 1)
  in
  let sz, seq = expand 1 0 in
  reduce i sz seq

(* Portfolio diversification: nudge the VSIDS tie-breaking order with
   tiny seeded activity offsets (real conflict bumps dwarf them within a
   few conflicts) and scramble the initial saved phases. Distinct seeds
   steer otherwise-identical solvers into different parts of the search
   tree, which is what makes racing them worthwhile. *)
let diversify s (config : config) =
  if config.invert_polarity then
    for v = 1 to s.nvars do
      s.polarity.(v) <- true
    done;
  if config.seed <> 0 then begin
    let rng = Netsim.Rng.create config.seed in
    for v = 1 to s.nvars do
      Heap.bump s.order v (1e-6 *. Netsim.Rng.float rng 1.0);
      if Netsim.Rng.bool rng then s.polarity.(v) <- not s.polarity.(v)
    done
  end

let solve_core ~assumptions ~budget ~config ~stop s =
  s.conflict_core <- [];
  if not s.ok then Decided Unsat
  else begin
    (* make sure assumption variables exist *)
    List.iter (fun l -> ensure_vars s (var_of l)) assumptions;
    cancel_until s 0;
    if config <> default_config then diversify s config;
    if propagate s != dummy_clause then begin
      s.ok <- false;
      log_empty s;
      Decided Unsat
    end
    else begin
      let result = ref None in
      let restart_num = ref 0 in
      let conflicts_since_restart = ref 0 in
      let max_learnts = ref (max 1000 (Vec.size s.clauses / 3)) in
      (* budget accounting is per solve call, not per solver lifetime *)
      let conflicts0 = s.n_conflicts and propagations0 = s.n_propagations in
      (* push assumptions as pseudo-decisions; [Some core] on failure *)
      let rec push_assumptions = function
        | [] -> None
        | l :: rest ->
            if lit_true s l then push_assumptions rest
            else if lit_false s l then
              (* l is refuted by root facts and earlier assumptions:
                 the core is l plus whatever implied its negation *)
              Some (l :: analyze_final s [| l |])
            else begin
              Vec.push s.trail_lim (Vec.size s.trail);
              enqueue s l dummy_clause;
              let c = propagate s in
              if c != dummy_clause then Some (analyze_final s c.lits)
              else push_assumptions rest
            end
      in
      match push_assumptions assumptions with
      | Some core ->
          cancel_until s 0;
          s.conflict_core <- core;
          Decided Unsat
      | None ->
        begin
        let assumption_level = decision_level s in
        let restart_limit () = config.restart_base *. luby !restart_num in
        (* the budget AND the cancellation hook are polled here, at every
           conflict/decision boundary — not just at restarts — so a
           portfolio loser stops within one conflict of the winner's
           verdict *)
        while !result = None do
          let conflicts = s.n_conflicts - conflicts0 in
          let propagations = s.n_propagations - propagations0 in
          let status =
            if stop () then Netsim.Budget.Expired "cancelled"
            else Netsim.Budget.check ~conflicts ~propagations budget
          in
          match status with
          | Netsim.Budget.Expired reason ->
              cancel_until s 0;
              result := Some (Unknown { reason; conflicts; propagations })
          | Netsim.Budget.Within ->
              let confl = propagate s in
              if confl != dummy_clause then begin
                s.n_conflicts <- s.n_conflicts + 1;
                incr conflicts_since_restart;
                if decision_level s <= assumption_level then begin
                  (* conflict at the assumption level or below: unsat.
                     At level 0 the clause set itself is refuted — no
                     assumption was even involved — so the solver is
                     dead for good: close the DRUP trail AND mark it
                     unsatisfiable, or a later warm reuse would skip
                     the (already fully propagated) conflict and
                     fabricate a model. Above level 0 only the
                     assumptions are refuted: compute the failed core
                     (before the trail is cancelled) and stay
                     reusable. *)
                  if decision_level s = 0 then begin
                    s.ok <- false;
                    log_empty s
                  end
                  else s.conflict_core <- analyze_final s confl.lits;
                  cancel_until s 0;
                  result := Some (Decided Unsat)
                end
                else begin
                  let btlevel = max (analyze s confl) assumption_level in
                  cancel_until s btlevel;
                  record_learnt s;
                  s.var_inc <- s.var_inc *. var_decay;
                  s.cla_inc <- s.cla_inc *. clause_decay
                end
              end
              else if
                float_of_int !conflicts_since_restart >= restart_limit ()
                && decision_level s > assumption_level
              then begin
                s.n_restarts <- s.n_restarts + 1;
                incr restart_num;
                conflicts_since_restart := 0;
                cancel_until s assumption_level
              end
              else begin
                if Vec.size s.learnts >= !max_learnts then begin
                  reduce_db s;
                  max_learnts := !max_learnts + (!max_learnts / 10)
                end;
                let l = pick_branch_lit s in
                if l < 0 then begin
                  let m = extract_model s in
                  cancel_until s 0;
                  assert (Cnf.check_model m (Vec.fold (fun acc c -> c.lits :: acc) [] s.clauses));
                  result := Some (Decided (Sat m))
                end
                else begin
                  s.n_decisions <- s.n_decisions + 1;
                  Vec.push s.trail_lim (Vec.size s.trail);
                  enqueue s l dummy_clause
                end
              end
        done;
        match !result with Some r -> r | None -> assert false
      end
    end
  end

let never_stop () = false

let solve_bounded ?(assumptions = []) ?(config = default_config)
    ?(stop = never_stop) ~budget s =
  solve_core ~assumptions ~budget ~config ~stop s

let failed_assumptions s = s.conflict_core

let solve ?(assumptions = []) ?(certify = false) s =
  if certify && assumptions <> [] then
    invalid_arg "Solver.solve: ~certify does not support assumptions";
  if certify && s.proof = None then
    invalid_arg
      "Solver.solve: ~certify requires proof logging (enable_proof or \
       of_problem ~proof:true)";
  let r =
    match
      solve_core ~assumptions ~budget:Netsim.Budget.unlimited
        ~config:default_config ~stop:never_stop s
    with
    | Decided r -> r
    | Unknown _ -> assert false (* unlimited budgets never expire *)
  in
  if certify then begin
    let p = original_problem s in
    let cert =
      match r with
      | Sat m -> Proof.Model m
      | Unsat -> Proof.Refutation (proof_steps s)
    in
    match Proof.certify p cert with
    | Ok report -> s.last_certification <- Some report
    | Error msg -> raise (Proof.Certification_failed msg)
  end;
  r

(* Certified solve under assumptions, for warm (session) solvers.

   [solve ~certify] rejects assumptions because a DRUP trail under
   assumptions does not refute the clause set alone. Here the assumed
   problem — original clauses plus one unit clause per assumption — is
   what gets certified, and the session trail needs no rewriting: every
   clause the solver learns is derived by resolution from the clause
   database only (assumption pseudo-decisions have no reason clause, so
   they surface as negated literals *inside* learnt clauses, never as
   premises), hence each logged Add is RUP against the originals plus
   earlier Adds, with or without the assumption units. An Unsat-under-
   assumptions verdict ends in a conflict reached by unit propagation
   from root facts and the assumption units, so the per-cell trail
   slice is closed by appending one empty-clause Add, which is RUP once
   the assumption units are axioms. A Sat verdict is certified as a
   model of the assumed problem (assumptions were on the trail when the
   model was extracted). The solver is NOT mutated beyond the normal
   warm-solve effects: no unit clauses are added, so the session stays
   reusable under different assumptions. *)
let solve_assuming_certified ~assumptions s =
  if s.proof = None then
    invalid_arg
      "Solver.solve_assuming_certified: requires proof logging \
       (enable_proof or of_problem ~proof:true)";
  let r =
    match
      solve_core ~assumptions ~budget:Netsim.Budget.unlimited
        ~config:default_config ~stop:never_stop s
    with
    | Decided r -> r
    | Unknown _ -> assert false (* unlimited budgets never expire *)
  in
  let p = original_problem s in
  let assumed =
    List.fold_left (fun p l -> Cnf.add_clause p [ l ]) p assumptions
  in
  let cert =
    match r with
    | Sat m -> Proof.Model m
    | Unsat -> Proof.Refutation (proof_steps s @ [ Proof.Add [||] ])
  in
  (match Proof.certify assumed cert with
  | Ok report -> s.last_certification <- Some report
  | Error msg -> raise (Proof.Certification_failed msg));
  r

let of_problem ?(proof = false) (p : Cnf.problem) =
  let s = create () in
  if proof then enable_proof s;
  ensure_vars s p.num_vars;
  List.iter (fun c -> add_clause s (Array.to_list c)) (List.rev p.clauses);
  s

let solve_problem ?(certify = false) p =
  solve ~certify (of_problem ~proof:certify p)

let stats s =
  {
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    learnt_literals = s.n_learnt_lits;
    max_vars = s.nvars;
    clauses_added = s.n_clauses_added;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "vars=%d clauses=%d decisions=%d propagations=%d conflicts=%d restarts=%d"
    st.max_vars st.clauses_added st.decisions st.propagations st.conflicts
    st.restarts
