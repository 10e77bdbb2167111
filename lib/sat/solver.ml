(* CDCL solver, MiniSat lineage.

   Clause arena: every clause lives in int storage, as a header word
   (literal count, learnt bit, deleted bit), an activity word (the
   bits of a non-negative float) and then its literals inline. A
   clause is named by a [cref], the int offset of its header; [no_cref]
   means "no clause". The arena grows in chunks that are never copied
   (a grown single array would keep its old copy live until the GC
   sweeps it), so a cref carries its chunk index above [chunk_bits]
   and its offset within the chunk below. Watchers, reasons and the
   clause lists are therefore int arrays: no store on the hot path
   pays the write barrier, and visiting a clause loads its words
   straight from the chunk.

   Watching convention: a clause watches its first two literals; the
   clause is registered in the watcher list of the *negation* of each
   watched literal, so when a literal [p] is enqueued (made true) we
   visit [watches.(p)] — exactly the clauses in which a watched literal
   just became false. Each watcher also carries a *blocker*: some
   other literal of the clause. When the blocker is already true the
   clause is satisfied and is skipped without reading the arena.

   Reasons are a cref per variable, [no_cref] for decisions,
   assumptions and unit clauses. As in MiniSat they are not cleared on
   backtrack: [reason.(v)] is meaningful only while [v] is assigned,
   which is why [locked] also checks that the clause's implied literal
   (its first) is still true. That comparison of crefs is sound because
   a cref is never reused between two compactions: the arena only
   appends until [compact] rebuilds it, and [compact] remaps the
   reasons of assigned variables and clears all the others. *)

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

(* Arena layout. A clause takes [header_words + size] words from offset
   [base c] of chunk [c lsr chunk_bits]: the header [size lsl 2 lor
   flags], the activity bits, then the literals. *)
let no_cref = -1
let chunk_bits = 32
let offset_mask = (1 lsl chunk_bits) - 1
let first_chunk = 1 lsl 12
let chunk_cap = 1 lsl 20
let header_words = 2
let learnt_bit = 1
let deleted_bit = 2

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
  (* the clause arena; the last chunk is the one being filled *)
  mutable chunks : int array array;
  mutable top : int; (* first free word of the last chunk *)
  mutable arena_words : int; (* words handed out since the last compaction *)
  mutable wasted : int; (* of which, words of deleted clauses *)
  clauses : Vec.t; (* problem clauses *)
  learnts : Vec.t; (* learnt clauses *)
  (* lit-indexed watcher lists: interleaved (cref, blocker) pairs in the
     first [wlen.(l)] words of [watches.(l)] *)
  mutable watches : int array array;
  mutable wlen : int array;
  mutable vals : Bytes.t; (* lit-indexed value *)
  mutable level : int array; (* var-indexed *)
  mutable reason : int array; (* var-indexed cref; [no_cref] = none *)
  mutable polarity : bool array; (* var-indexed saved phase *)
  mutable seen : Bytes.t; (* var-indexed analysis marks *)
  trail : Vec.t; (* literals *)
  trail_lim : Vec.t;
  mutable qhead : int;
  order : Heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool; (* false once root-level unsat *)
  (* conflict-analysis buffers, reused across conflicts *)
  learnt_buf : Vec.t; (* the clause being learnt, asserting lit first *)
  to_clear : Vec.t; (* literals whose [seen] mark must be reset *)
  min_stack : Vec.t; (* [lit_redundant]'s (index, literal) pairs *)
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

let create () =
  {
    nvars = 0;
    chunks = [| Array.make first_chunk 0 |];
    top = 0;
    arena_words = 0;
    wasted = 0;
    clauses = Vec.create ();
    learnts = Vec.create ();
    watches = [| [||]; [||] |];
    wlen = [| 0; 0 |];
    vals = Bytes.make 2 v_undef;
    level = Array.make 1 (-1);
    reason = Array.make 1 no_cref;
    polarity = Array.make 1 false;
    seen = Bytes.make 1 mark_none;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    order = Heap.create 16;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    learnt_buf = Vec.create ();
    to_clear = Vec.create ();
    min_stack = Vec.create ();
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

(* ---- the clause arena ---- *)

let chunk s c = s.chunks.(c lsr chunk_bits)
let base c = c land offset_mask
let clause_size s c = (chunk s c).(base c) lsr 2
let is_deleted s c = (chunk s c).(base c) land deleted_bit <> 0
let lit s c i = (chunk s c).(base c + header_words + i)
let lits_of s c = Array.sub (chunk s c) (base c + header_words) (clause_size s c)

(* Activities are non-negative floats, so their bits fit in an OCaml
   int with the (zero) sign bit dropped. The int reads the float's bit
   62 as its own sign: [activity] masks the sign extension off again,
   and [activity_key] flips that bit so that keys order like the
   activities do. *)
let activity s c =
  Int64.float_of_bits (Int64.logand (Int64.of_int (chunk s c).(base c + 1)) Int64.max_int)

let activity_key s c = (chunk s c).(base c + 1) lxor min_int

let set_activity s c x =
  (chunk s c).(base c + 1) <- Int64.to_int (Int64.bits_of_float x)

(* [n] fresh words; a new chunk when the last one is full. *)
let alloc s n =
  let ci = Array.length s.chunks - 1 in
  let last = s.chunks.(ci) in
  s.arena_words <- s.arena_words + n;
  if s.top + n <= Array.length last then begin
    let c = (ci lsl chunk_bits) lor s.top in
    s.top <- s.top + n;
    c
  end
  else begin
    let size = max n (min chunk_cap (2 * Array.length last)) in
    s.chunks <- Array.append s.chunks [| Array.make size 0 |];
    s.top <- n;
    (ci + 1) lsl chunk_bits
  end

(* A clause of [size] literals, activity 0.0 (all-zero bits); the
   caller writes its literals. *)
let alloc_clause s size ~learnt =
  let c = alloc s (header_words + size) in
  let a = chunk s c and o = base c in
  a.(o) <- (size lsl 2) lor (if learnt then learnt_bit else 0);
  a.(o + 1) <- 0;
  c

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
  let grow a fill len =
    let old = Array.length a in
    if len > old then begin
      let b = Array.make (max len (2 * old)) fill in
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
  s.level <- grow s.level (-1) (n + 1);
  s.reason <- grow s.reason no_cref (n + 1);
  s.polarity <- grow s.polarity false (n + 1);
  s.seen <- grow_bytes s.seen (n + 1) mark_none;
  s.watches <- grow s.watches [||] ((2 * n) + 2);
  s.wlen <- grow s.wlen 0 ((2 * n) + 2);
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
(* [Cnf]'s literal encoding, restated so that the hot loops need no
   cross-module call: [pos v = 2v], [neg v = 2v + 1]. *)
let var_of l = l lsr 1
let negate l = l lxor 1
let decision_level s = Vec.size s.trail_lim

(* Enqueue a literal as true, recording its reason. *)
let enqueue s l reason =
  let v = var_of l in
  Bytes.unsafe_set s.vals l v_true;
  Bytes.unsafe_set s.vals (negate l) v_false;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let watch s l c blocker =
  let n = s.wlen.(l) in
  let ws =
    let ws = s.watches.(l) in
    if n < Array.length ws then ws
    else begin
      let grown = Array.make (max 8 (2 * n)) 0 in
      Array.blit ws 0 grown 0 n;
      s.watches.(l) <- grown;
      grown
    end
  in
  Array.unsafe_set ws n c;
  Array.unsafe_set ws (n + 1) blocker;
  s.wlen.(l) <- n + 2

(* Boolean constraint propagation. Returns the conflicting clause, or
   [no_cref] when there is none.

   Each watcher list is compacted in place: [i] reads, [j] writes, two
   words per watcher. A clause visit normalizes the clause so that the
   falsified watch sits at literal 1. *)
let propagate s =
  let confl = ref no_cref in
  let vals = s.vals and chunks = s.chunks in
  while !confl = no_cref && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = negate p in
    let ws = s.watches.(p) and n = s.wlen.(p) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = Array.unsafe_get ws !i and b = Array.unsafe_get ws (!i + 1) in
      i := !i + 2;
      if Bytes.unsafe_get vals b = v_true then begin
        (* satisfied by its blocker: keep without reading the clause *)
        Array.unsafe_set ws !j c;
        Array.unsafe_set ws (!j + 1) b;
        j := !j + 2
      end
      else begin
        let a = Array.unsafe_get chunks (c lsr chunk_bits) in
        let l0 = (c land offset_mask) + header_words in
        if Array.unsafe_get a l0 = false_lit then begin
          Array.unsafe_set a l0 (Array.unsafe_get a (l0 + 1));
          Array.unsafe_set a (l0 + 1) false_lit
        end;
        let first = Array.unsafe_get a l0 in
        if first <> b && Bytes.unsafe_get vals first = v_true then begin
          (* satisfied by its other watch, which becomes the blocker *)
          Array.unsafe_set ws !j c;
          Array.unsafe_set ws (!j + 1) first;
          j := !j + 2
        end
        else begin
          (* look for a replacement watch *)
          let stop = l0 + (Array.unsafe_get a (l0 - header_words) lsr 2) in
          let k = ref (l0 + 2) in
          while
            !k < stop && Bytes.unsafe_get vals (Array.unsafe_get a !k) = v_false
          do
            incr k
          done;
          if !k < stop then begin
            let l = Array.unsafe_get a !k in
            Array.unsafe_set a (l0 + 1) l;
            Array.unsafe_set a !k false_lit;
            watch s (negate l) c first
          end
          else begin
            (* unit or conflicting: the watch stays *)
            Array.unsafe_set ws !j c;
            Array.unsafe_set ws (!j + 1) first;
            j := !j + 2;
            if Bytes.unsafe_get vals first = v_false then begin
              (* conflict: keep the remaining watchers and drain the queue *)
              confl := c;
              s.qhead <- Vec.size s.trail;
              Array.blit ws !i ws !j (n - !i);
              j := !j + (n - !i);
              i := n
            end
            else enqueue s first c
          end
        end
      end
    done;
    s.wlen.(p) <- !j
  done;
  !confl

let var_bump s v =
  Heap.bump s.order v s.var_inc;
  if Heap.activity s.order v > 1e100 then begin
    Heap.rescale s.order 1e-100;
    s.var_inc <- s.var_inc *. 1e-100
  end

let clause_bump s c =
  let a = activity s c +. s.cla_inc in
  set_activity s c a;
  if a > 1e20 then begin
    Vec.iter (fun c -> set_activity s c (activity s c *. 1e-20)) s.learnts;
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
  let seen = s.seen and stack = s.min_stack and chunks = s.chunks in
  Vec.shrink stack 0;
  let p = ref p0 and i = ref 1 and result = ref true and fin = ref false in
  let r = ref s.reason.(var_of p0) in
  while not !fin do
    let a = Array.unsafe_get chunks (!r lsr chunk_bits) and o = !r land offset_mask in
    if !i < Array.unsafe_get a o lsr 2 then begin
      let l = Array.unsafe_get a (o + header_words + !i) in
      let v = var_of l in
      let m = Bytes.unsafe_get seen v in
      if s.level.(v) = 0 || m = mark_source || m = mark_removable then incr i
      else if s.reason.(v) = no_cref || m = mark_failed then begin
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
        r := s.reason.(v)
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
        r := s.reason.(var_of !p)
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
    let a = chunk s c and o = base c in
    let header = a.(o) in
    if header land learnt_bit <> 0 then clause_bump s c;
    for j = (if !p = -1 then 0 else 1) to (header lsr 2) - 1 do
      let q = Array.unsafe_get a (o + header_words + j) in
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
  Vec.set learnt 0 (negate !p);
  (* recursive minimization: drop literals implied by the others *)
  let to_clear = s.to_clear in
  Vec.shrink to_clear 0;
  for i = 1 to Vec.size learnt - 1 do
    Vec.push to_clear (Vec.get learnt i)
  done;
  let kept = ref 1 in
  for i = 1 to Vec.size learnt - 1 do
    let q = Vec.get learnt i in
    if s.reason.(var_of q) = no_cref || not (lit_redundant s q) then begin
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
      Bytes.unsafe_set s.vals (negate l) v_undef;
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
        if r = no_cref then (if is_boundary i then core := l :: !core)
        else
          for k = 0 to clause_size s r - 1 do
            mark (lit s r k)
          done
      end
    done;
    List.iter (fun v -> Bytes.set seen v mark_none) !marked;
    !core
  end

(* Attach a clause of >= 2 literals to the watch lists, each watch
   blocked by the other watched literal. *)
let attach s c =
  let l0 = lit s c 0 and l1 = lit s c 1 in
  watch s (negate l0) c l1;
  watch s (negate l1) c l0

(* Turn [learnt_buf] into a clause (logged to the DRUP trail as a copy)
   and assert its first literal at the current, backjumped, level. *)
let record_learnt s =
  let learnt = s.learnt_buf in
  let n = Vec.size learnt in
  (match s.proof with
  | Some t -> Proof.log_add t (Array.init n (Vec.get learnt))
  | None -> ());
  if n = 1 then
    (* asserting unit: enqueue at the backjumped (root) level *)
    enqueue s (Vec.get learnt 0) no_cref
  else begin
    let c = alloc_clause s n ~learnt:true in
    let a = chunk s c and o = base c + header_words in
    for i = 0 to n - 1 do
      a.(o + i) <- Vec.get learnt i
    done;
    Vec.push s.learnts c;
    attach s c;
    clause_bump s c;
    s.n_learnt_lits <- s.n_learnt_lits + n;
    enqueue s (Vec.get learnt 0) c
  end

(* Sorted and deduplicated, a literal's negation is its neighbour
   ([pos v] and [neg v] differ in the low bit only). *)
let rec has_complementary_pair = function
  | a :: (b :: _ as rest) -> b = negate a || has_complementary_pair rest
  | _ -> false

let add_clause s lits =
  if s.ok then begin
    s.n_clauses_added <- s.n_clauses_added + 1;
    List.iter (fun l -> ensure_vars s (var_of l)) lits;
    if s.proof <> None then s.originals <- Array.of_list lits :: s.originals;
    (* root-level simplification: drop false lits, detect tautology *)
    let lits = List.sort_uniq Int.compare lits in
    let tauto = has_complementary_pair lits || List.exists (lit_true s) lits in
    if not tauto then begin
      let lits = List.filter (fun l -> not (lit_false s l)) lits in
      match lits with
      | [] ->
          s.ok <- false;
          log_empty s
      | [ l ] ->
          enqueue s l no_cref;
          if propagate s <> no_cref then begin
            s.ok <- false;
            log_empty s
          end
      | _ ->
          let c = alloc_clause s (List.length lits) ~learnt:false in
          let a = chunk s c and o = base c + header_words in
          List.iteri (fun i l -> a.(o + i) <- l) lits;
          Vec.push s.clauses c;
          attach s c
    end
  end

(* A clause is locked while it is the reason of its implied literal, its
   first. Reasons are not cleared on backtrack, so the literal must also
   still be true. *)
let locked s c =
  let l = lit s c 0 in
  s.reason.(var_of l) = c && lit_true s l

(* Rebuild the arena from the live clauses alone, problem clauses first,
   each in list order. Every old copy's activity word is overwritten
   with its new cref, which then remaps the watchers and the reasons of
   assigned variables. The reasons of unassigned variables are stale
   crefs that the new arena may hand out again, so they are cleared. *)
let compact s =
  let old = s.chunks in
  let live = s.arena_words - s.wasted in
  s.chunks <- [| Array.make (max first_chunk (min chunk_cap live)) 0 |];
  s.top <- 0;
  s.arena_words <- 0;
  s.wasted <- 0;
  let forward c = old.(c lsr chunk_bits).(base c + 1) in
  let move v =
    for i = 0 to Vec.size v - 1 do
      let c = Vec.get v i in
      let a = old.(c lsr chunk_bits) and o = base c in
      let words = header_words + (a.(o) lsr 2) in
      let c' = alloc s words in
      Array.blit a o (chunk s c') (base c') words;
      a.(o + 1) <- c';
      Vec.set v i c'
    done
  in
  move s.clauses;
  move s.learnts;
  Array.iteri
    (fun l ws ->
      let k = ref 0 in
      while !k < s.wlen.(l) do
        ws.(!k) <- forward ws.(!k);
        k := !k + 2
      done)
    s.watches;
  for v = 1 to s.nvars do
    let r = s.reason.(v) in
    s.reason.(v) <-
      (if r <> no_cref && Bytes.get s.vals (Cnf.pos v) <> v_undef then forward r
       else no_cref)
  done

(* Reduce the learnt-clause database: drop the less active half, keeping
   binary clauses and clauses that are the current reason of an
   assignment, then purge the dropped clauses from the watcher lists.
   Each deletion is logged to the DRUP trail while its literals are
   still in the arena; once deleted words make up half of it, the arena
   is compacted. *)
let reduce_db s =
  Vec.sort (fun a b -> Int.compare (activity_key s a) (activity_key s b)) s.learnts;
  let n = Vec.size s.learnts in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = Vec.get s.learnts i in
    let size = clause_size s c in
    if i < n / 2 && (not (locked s c)) && size > 2 then begin
      (match s.proof with
      | Some t -> Proof.log_delete t (lits_of s c)
      | None -> ());
      let a = chunk s c in
      a.(base c) <- a.(base c) lor deleted_bit;
      s.wasted <- s.wasted + header_words + size
    end
    else begin
      Vec.set s.learnts !kept c;
      incr kept
    end
  done;
  Vec.shrink s.learnts !kept;
  Array.iteri
    (fun l ws ->
      let j = ref 0 in
      for i = 0 to (s.wlen.(l) / 2) - 1 do
        let c = ws.(2 * i) in
        if not (is_deleted s c) then begin
          ws.(!j) <- c;
          ws.(!j + 1) <- ws.((2 * i) + 1);
          j := !j + 2
        end
      done;
      s.wlen.(l) <- !j)
    s.watches;
  if 2 * s.wasted > s.arena_words then compact s

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

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..., in units of
   [restart_base] conflicts *)
let restart_base = 100.0

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

let solve_core ~assumptions ~budget ~stop s =
  s.conflict_core <- [];
  if not s.ok then Decided Unsat
  else begin
    (* make sure assumption variables exist *)
    List.iter (fun l -> ensure_vars s (var_of l)) assumptions;
    cancel_until s 0;
    if propagate s <> no_cref then begin
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
              enqueue s l no_cref;
              let c = propagate s in
              if c <> no_cref then Some (analyze_final s (lits_of s c))
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
        let restart_limit () = restart_base *. luby !restart_num in
        (* the budget AND the cancellation hook are polled here, at every
           conflict/decision boundary — not just at restarts — so a
           cancelled caller gets its answer within one conflict *)
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
              if confl <> no_cref then begin
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
                  else s.conflict_core <- analyze_final s (lits_of s confl);
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
                  assert (
                    Cnf.check_model m
                      (List.init (Vec.size s.clauses) (fun i -> lits_of s (Vec.get s.clauses i))));
                  result := Some (Decided (Sat m))
                end
                else begin
                  s.n_decisions <- s.n_decisions + 1;
                  Vec.push s.trail_lim (Vec.size s.trail);
                  enqueue s l no_cref
                end
              end
        done;
        match !result with Some r -> r | None -> assert false
      end
    end
  end

let never_stop () = false

let solve_bounded ?(assumptions = []) ?(stop = never_stop) ~budget s =
  solve_core ~assumptions ~budget ~stop s

let failed_assumptions s = s.conflict_core

(* Certification covers the assumed problem: the original clauses plus
   one unit clause per assumption (none for an assumption-free solve).
   The trail needs no rewriting: every clause the solver learns is
   derived by resolution from the clause database only (assumption
   pseudo-decisions have no reason clause, so they surface as negated
   literals *inside* learnt clauses, never as premises), hence each
   logged Add is RUP against the originals plus earlier Adds, with or
   without the assumption units. An Unsat answer without assumptions
   already ends in the logged empty clause. An Unsat answer under
   assumptions ends in a conflict reached by unit propagation from root
   facts and the assumption units, so the trail is closed by one more
   empty-clause Add, which is RUP once the assumption units are axioms.
   A Sat model is checked against the assumed problem (the assumptions
   were on the trail when it was extracted). No unit clause is ever
   added to the solver, so a warm session stays reusable under
   different assumptions. *)
let solve ?(assumptions = []) ?(certify = false) s =
  if certify && s.proof = None then
    invalid_arg
      "Solver.solve: ~certify requires proof logging (enable_proof or \
       of_problem ~proof:true)";
  let r =
    match
      solve_core ~assumptions ~budget:Netsim.Budget.unlimited
        ~stop:never_stop s
    with
    | Decided r -> r
    | Unknown _ -> assert false (* unlimited budgets never expire *)
  in
  if certify then begin
    let assumed =
      List.fold_left
        (fun p l -> Cnf.add_clause p [ l ])
        (original_problem s) assumptions
    in
    let cert =
      match r with
      | Sat m -> Proof.Model m
      | Unsat when assumptions = [] -> Proof.Refutation (proof_steps s)
      | Unsat -> Proof.Refutation (proof_steps s @ [ Proof.Add [||] ])
    in
    match Proof.certify assumed cert with
    | Ok report -> s.last_certification <- Some report
    | Error msg -> raise (Proof.Certification_failed msg)
  end;
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
