(* One driver per paper artifact. Each prints a table shaped like the
   paper's narrative and returns the rows for programmatic checks. *)

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1                                                       *)

type figure1_row = { item : string; winner : int; bid : int }

let figure1 ppf =
  let cfg =
    Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique 2) ~num_items:3
      ~base_utilities:[| [| 10; 0; 30 |]; [| 20; 15; 0 |] |]
      ~policy:(Mca.Policy.make ~utility:(Mca.Policy.Submodular 0) ~target_items:2 ())
  in
  match Mca.Protocol.run_sync cfg with
  | Mca.Protocol.Converged { allocation; rounds; messages } ->
      Format.fprintf ppf "E1 (Figure 1): consensus in %d round(s), %d messages@."
        rounds messages;
      let names = [| "A"; "B"; "C" |] in
      let rows =
        Array.to_list
          (Array.mapi
             (fun j w ->
               let winner =
                 match w with Mca.Types.Agent i -> i | Mca.Types.Nobody -> -1
               in
               { item = names.(j); winner; bid = 0 })
             allocation)
      in
      List.iter
        (fun r -> Format.fprintf ppf "  item %s -> agent %d@." r.item r.winner)
        rows;
      rows
  | v ->
      Format.fprintf ppf "E1 (Figure 1): UNEXPECTED %a@." Mca.Protocol.pp_verdict v;
      []

(* ------------------------------------------------------------------ *)
(* E2/E3 — Result 1 policy matrix                                      *)

type matrix_row = {
  policy_name : string;
  sim_converges : bool;
  explicit_converges : bool;
  sat_holds : bool;
}

let contended policy =
  Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique 2) ~num_items:2
    ~base_utilities:[| [| 10; 11 |]; [| 11; 10 |] |]
    ~policy

let policy_matrix ppf =
  Format.fprintf ppf
    "E3 (Result 1/2): policy matrix — converges? (sim / exhaustive / SAT \
     model)@.";
  List.map2
    (fun (name, p) (_, mp) ->
      let sim_converges =
        match Mca.Protocol.run_sync ~max_rounds:200 (contended p) with
        | Mca.Protocol.Converged _ -> true
        | _ -> false
      in
      let explicit_converges =
        match Checker.Explore.run (contended p) with
        | Checker.Explore.Converges _ -> true
        | _ -> false
      in
      let sat_holds =
        match
          Mca_model.check_consensus ~symmetry:true
            (Mca_model.build Mca_model.Efficient mp Mca_model.small_scope)
        with
        | Alloylite.Compile.Unsat -> true
        | Alloylite.Compile.Sat _ -> false
      in
      Format.fprintf ppf "  %-26s %-10b %-10b %b@." name sim_converges
        explicit_converges sat_holds;
      { policy_name = name; sim_converges; explicit_converges; sat_holds })
    Mca.Policy.paper_grid Mca_model.paper_policies

(* ------------------------------------------------------------------ *)
(* The parallel policy-matrix / scope sweep                           *)

type sweep_verdict = Holds | Violated | Undecided of string

type cell_origin = Computed | Resumed | Quarantined | Skipped

type sweep_cell = {
  policy_label : string;
  scope_tag : string;
  sat_verdict : sweep_verdict;
  sim_ok : bool;
  exhaustive : sweep_verdict;
  cell_seconds : float;
  origin : cell_origin;
}

type sweep_report = {
  sweep_jobs : int;
  sweep_seed : int;
  cells : sweep_cell list;  (** in task order, whatever the scheduling *)
  sweep_wall : float;
  sweep_resumed : int;  (** cells loaded from the journal *)
  sweep_partial : bool;  (** a drain interrupted the run before all cells *)
}

let sweep_scopes =
  [ ("2p2v", Mca_model.small_scope) ]

(* Deterministic per-cell instance: at the canonical 2×2 scope the
   paper's contended utilities, elsewhere utilities seeded from
   (seed, policy, scope) — independent of worker scheduling. *)
let sweep_config ~seed ~policy_label ~scope_tag (p : Mca.Policy.t)
    (scope : Mca_model.scope_spec) =
  let n = scope.Mca_model.pnodes and j = scope.Mca_model.vnodes in
  let p = { p with Mca.Policy.target_items = min p.Mca.Policy.target_items j } in
  if n = 2 && j = 2 then contended p
  else begin
    let rng = Netsim.Rng.create (Hashtbl.hash (seed, policy_label, scope_tag)) in
    let base_utilities =
      Array.init n (fun _ ->
          Array.init j (fun _ -> 1 + Netsim.Rng.int rng (scope.Mca_model.values - 1)))
    in
    Mca.Protocol.uniform_config ~graph:(Netsim.Topology.clique n) ~num_items:j
      ~base_utilities ~policy:p
  end

let verdict_of_outcome = function
  | Relalg.Translate.Decided Alloylite.Compile.Unsat -> Holds
  | Relalg.Translate.Decided (Alloylite.Compile.Sat _) -> Violated
  | Relalg.Translate.Unknown reason -> Undecided reason

let cell_sat_verdict ?stop ~budget shared mp =
  verdict_of_outcome
    (Mca_model.check_consensus_incremental ?stop ~budget
       (Mca_model.domain_session shared) mp)

let run_cell ?stop ~shared ?(incremental = true) ~budget ~seed
    ((policy_label, p, mp, scope_tag, scope) :
      string * Mca.Policy.t * Mca_model.policy * string * Mca_model.scope_spec) =
  let mp = { mp with Mca_model.target = min mp.Mca_model.target scope.Mca_model.vnodes } in
  (* solving another scope's CNF would return its verdict for this cell *)
  if
    shared.Mca_model.shared_scope <> scope
    || shared.Mca_model.shared_target <> mp.Mca_model.target
  then invalid_arg "run_cell: ~shared was built for another scope or target";
  let t0 = Unix.gettimeofday () in
  let cfg = sweep_config ~seed ~policy_label ~scope_tag p scope in
  let sim_ok =
    match Mca.Protocol.run_sync ~max_rounds:200 ~budget cfg with
    | Mca.Protocol.Converged _ -> true
    | _ -> false
  in
  let exhaustive =
    match Checker.Explore.run ?stop ~budget cfg with
    | Checker.Explore.Converges _ -> Holds
    | Checker.Explore.Unknown { reason; _ } -> Undecided reason
    | Checker.Explore.Nonconvergence _ | Checker.Explore.Bad_terminal _ ->
        Violated
  in
  let sat_verdict =
    if incremental then cell_sat_verdict ?stop ~budget shared mp
    else
      verdict_of_outcome
        (Mca_model.check_consensus_incremental ?stop ~budget
           (Mca_model.incremental_session shared) mp)
  in
  {
    policy_label;
    scope_tag;
    sat_verdict;
    sim_ok;
    exhaustive;
    cell_seconds = Unix.gettimeofday () -. t0;
    origin = Computed;
  }

let sweep_tasks ?(scopes = sweep_scopes) () =
  Array.of_list
    (List.concat_map
       (fun (scope_tag, scope) ->
         List.map2
           (fun (policy_label, p) (_, mp) -> (policy_label, p, mp, scope_tag, scope))
           Mca.Policy.paper_grid Mca_model.paper_policies)
       scopes)

(* the pieces the verification service shares with the sweep: resolve a
   policy label, build the per-cell instance, run one cell *)
let lookup_policy label =
  match
    ( List.assoc_opt label Mca.Policy.paper_grid,
      List.assoc_opt label Mca_model.paper_policies )
  with
  | Some p, Some mp -> Some (p, mp)
  | _ -> None

let cell_config = sweep_config

(* -- journal cell records ------------------------------------------- *)
(* One journal entry per completed cell, pipe-separated key=value
   fields with percent-escaping, e.g.

     cell|1|seed=1|scope=2p2v|policy=submod|sat=holds|exh=holds|
     sim=true|secs=0.41|cert=1a2b3c4d

   [cert] is a CRC-32 fingerprint of the *semantic* fields (seed,
   scope, policy and the three verdicts). The journal's frame CRC only
   protects against torn/corrupted writes; the cert digest is
   re-computed on load, so a record whose verdict was tampered with
   (with a re-framed, valid CRC) is rejected and its cell re-runs. *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '|' -> Buffer.add_string b "%7c"
      | '=' -> Buffer.add_string b "%3d"
      | '\n' -> Buffer.add_string b "%0a"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '%' && !i + 2 < n then begin
       (match String.sub s (!i + 1) 2 with
       | "25" -> Buffer.add_char b '%'
       | "7c" -> Buffer.add_char b '|'
       | "3d" -> Buffer.add_char b '='
       | "0a" -> Buffer.add_char b '\n'
       | other -> Buffer.add_char b '%'; Buffer.add_string b other);
       i := !i + 3
     end
     else begin
       Buffer.add_char b s.[!i];
       incr i
     end)
  done;
  Buffer.contents b

let verdict_enc = function
  | Holds -> "holds"
  | Violated -> "violated"
  | Undecided reason -> "unknown:" ^ escape reason

let verdict_dec s =
  match s with
  | "holds" -> Some Holds
  | "violated" -> Some Violated
  | s when String.length s >= 8 && String.sub s 0 8 = "unknown:" ->
      Some (Undecided (unescape (String.sub s 8 (String.length s - 8))))
  | _ -> None

(* exported for the service's wire protocol, which frames its requests
   and responses with exactly the journal record syntax *)
let escape_field = escape
let unescape_field = unescape
let verdict_to_wire = verdict_enc
let verdict_of_wire = verdict_dec

let cell_fingerprint ~seed c =
  Parallel.Journal.crc32_hex
    (String.concat "|"
       [
         string_of_int seed; escape c.scope_tag; escape c.policy_label;
         verdict_enc c.sat_verdict; verdict_enc c.exhaustive;
         string_of_bool c.sim_ok;
       ])

let cell_record ~seed c =
  Printf.sprintf
    "cell|1|seed=%d|scope=%s|policy=%s|sat=%s|exh=%s|sim=%b|secs=%.6f|cert=%s"
    seed (escape c.scope_tag) (escape c.policy_label)
    (verdict_enc c.sat_verdict) (verdict_enc c.exhaustive) c.sim_ok
    c.cell_seconds
    (cell_fingerprint ~seed c)

let cell_of_record line =
  match String.split_on_char '|' line with
  | "cell" :: "1" :: fields ->
      let assoc =
        List.filter_map
          (fun f ->
            match String.index_opt f '=' with
            | Some i ->
                Some
                  ( String.sub f 0 i,
                    String.sub f (i + 1) (String.length f - i - 1) )
            | None -> None)
          fields
      in
      let ( let* ) = Option.bind in
      let* seed = Option.bind (List.assoc_opt "seed" assoc) int_of_string_opt in
      let* scope_tag = Option.map unescape (List.assoc_opt "scope" assoc) in
      let* policy_label = Option.map unescape (List.assoc_opt "policy" assoc) in
      let* sat_verdict = Option.bind (List.assoc_opt "sat" assoc) verdict_dec in
      let* exhaustive = Option.bind (List.assoc_opt "exh" assoc) verdict_dec in
      let* sim_ok = Option.bind (List.assoc_opt "sim" assoc) bool_of_string_opt in
      let* secs = Option.bind (List.assoc_opt "secs" assoc) float_of_string_opt in
      let* cert = List.assoc_opt "cert" assoc in
      let cell =
        {
          policy_label; scope_tag; sat_verdict; sim_ok; exhaustive;
          cell_seconds = secs; origin = Resumed;
        }
      in
      (* the load-time hash check: a tampered verdict or certificate
         field must force a re-run, not a silent acceptance *)
      if String.equal cert (cell_fingerprint ~seed cell) then Some (seed, cell)
      else None
  | _ -> None

(* -- the crash-safe sweep ------------------------------------------- *)

let undecided_cell ~origin ~reason
    ((policy_label, _, _, scope_tag, _) :
      string * Mca.Policy.t * Mca_model.policy * string * Mca_model.scope_spec) =
  {
    policy_label; scope_tag;
    sat_verdict = Undecided reason;
    sim_ok = false;
    exhaustive = Undecided reason;
    cell_seconds = 0.0;
    origin;
  }

let load_journal ~seed path =
  let loaded = Hashtbl.create 16 in
  let r = Parallel.Journal.recover path in
  List.iter
    (fun entry ->
      match cell_of_record entry with
      | Some (s, c) when s = seed ->
          (* duplicate records resolve last-write-wins: a re-run cell
             supersedes what an interrupted attempt journaled earlier *)
          Hashtbl.replace loaded (c.scope_tag, c.policy_label) c
      | _ -> ())
    r.entries;
  loaded

let run_sweep ?(jobs = 1) ?(seed = 1) ?(budget = Netsim.Budget.unlimited)
    ?scopes ?journal ?(resume = false) ?journal_flush_every
    ?journal_flush_interval_s ?supervision () =
  let tasks = sweep_tasks ?scopes () in
  let t0 = Unix.gettimeofday () in
  let loaded =
    match (resume, journal) with
    | true, None -> invalid_arg "run_sweep: ~resume requires ~journal"
    | true, Some path -> load_journal ~seed path
    | false, _ -> Hashtbl.create 1
  in
  let key (_, _, _, tag, _ as task) =
    let (label, _, _, _, _) = task in
    (tag, label)
  in
  let todo =
    Array.of_list
      (List.filter
         (fun t -> not (Hashtbl.mem loaded (key t)))
         (Array.to_list tasks))
  in
  (* One shared translation per (scope, effective target) actually left
     to compute, built serially in this domain before workers spawn: the
     policy cells of a scope differ only in their three selector bits,
     so the expensive relational→CNF translation runs once per scope
     instead of once per cell. The table is only read after this. *)
  let shared_tbl = Hashtbl.create 4 in
  Array.iter
    (fun (_, _, mp, tag, scope) ->
      let tgt = min mp.Mca_model.target scope.Mca_model.vnodes in
      if not (Hashtbl.mem shared_tbl (tag, tgt)) then
        Hashtbl.add shared_tbl (tag, tgt)
          (Mca_model.build_shared ~target:tgt Mca_model.Efficient scope))
    todo;
  let writer =
    Option.map
      (Parallel.Journal.open_append ?flush_every:journal_flush_every
         ?flush_interval_s:journal_flush_interval_s)
      journal
  in
  let policy =
    match supervision with
    | Some p -> p
    | None -> Parallel.Supervise.default_policy
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Option.iter Parallel.Journal.close writer)
      (fun () ->
        Parallel.Supervise.map ~jobs ~policy
          ~key:(fun _ (label, _, _, tag, _) -> tag ^ "/" ^ label)
          (fun ~stop task ->
            let (_, _, mp, tag, scope) = task in
            let shared =
              Hashtbl.find shared_tbl
                (tag, min mp.Mca_model.target scope.Mca_model.vnodes)
            in
            let cell =
              run_cell ~stop ~shared ~budget:(Netsim.Budget.restarted budget)
                ~seed task
            in
            (* journal at the record boundary — but never an attempt the
               supervisor is about to discard (stalled or drained): a
               cancellation artifact in the journal would be resumed as
               if it were a verdict *)
            (match writer with
            | Some w when not (stop ()) ->
                Parallel.Journal.append w (cell_record ~seed cell)
            | _ -> ());
            cell)
          todo)
  in
  let remaining = ref (Array.to_list (Array.map2 (fun t o -> (t, o)) todo outcomes)) in
  let cells =
    Array.to_list tasks
    |> List.map (fun task ->
           match Hashtbl.find_opt loaded (key task) with
           | Some cell -> cell
           | None -> (
               match !remaining with
               | (t, outcome) :: rest when key t = key task ->
                   remaining := rest;
                   (match outcome with
                   | Parallel.Supervise.Done { value; _ } -> value
                   | Parallel.Supervise.Quarantined _ ->
                       undecided_cell ~origin:Quarantined ~reason:"quarantined"
                         task
                   | Parallel.Supervise.Skipped ->
                       undecided_cell ~origin:Skipped ~reason:"drained" task)
               | _ -> assert false))
  in
  {
    sweep_jobs = jobs;
    sweep_seed = seed;
    cells;
    sweep_wall = Unix.gettimeofday () -. t0;
    sweep_resumed = Hashtbl.length loaded;
    sweep_partial = List.exists (fun c -> c.origin = Skipped) cells;
  }

let verdict_string = function
  | Holds -> "holds"
  | Violated -> "violated"
  | Undecided reason -> Printf.sprintf "unknown(%s)" reason

(* The canonical rendering deliberately excludes every timing: identical
   verdicts => byte-identical text, whatever --jobs was. *)
let origin_string = function
  | Computed -> "computed"
  | Resumed -> "resumed"
  | Quarantined -> "quarantined"
  | Skipped -> "skipped"

let render_sweep ?(timings = false) r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "E11 sweep: %d cell(s), seed %d — consensus? (SAT model / exhaustive \
        / sim)\n"
       (List.length r.cells) r.sweep_seed);
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "  %-8s %-26s %-10s %-10s %-6s%s\n" c.scope_tag
           c.policy_label
           (verdict_string c.sat_verdict)
           (verdict_string c.exhaustive)
           (if c.sim_ok then "true" else "false")
           (if timings then
              Printf.sprintf "  %6.2fs  [%s]" c.cell_seconds
                (origin_string c.origin)
            else "")))
    r.cells;
  if timings then begin
    Buffer.add_string b
      (Printf.sprintf "  wall %.2fs with %d job(s)\n" r.sweep_wall r.sweep_jobs);
    if r.sweep_resumed > 0 then
      Buffer.add_string b
        (Printf.sprintf "  resumed %d cell(s) from journal\n" r.sweep_resumed);
    if r.sweep_partial then
      Buffer.add_string b
        "  PARTIAL: drained before completion; journal is resumable\n"
  end;
  Buffer.contents b

let pp_sweep ?timings ppf r =
  Format.pp_print_string ppf (render_sweep ?timings r)

let sweep_decided r =
  List.for_all
    (fun c ->
      (match c.sat_verdict with Undecided _ -> false | _ -> true)
      && match c.exhaustive with Undecided _ -> false | _ -> true)
    r.cells

(* ------------------------------------------------------------------ *)
(* E4 — Result 2                                                       *)

type attack_row = {
  scenario : string;
  converges : bool;
  detected : Mca.Types.agent_id list;
}

let run_with_monitor cfg rounds =
  let n = Array.length cfg.Mca.Protocol.policies in
  let items = cfg.Mca.Protocol.num_items in
  let agents =
    Array.init n (fun i ->
        Mca.Agent.create ~id:i ~num_items:items
          ~base_utility:cfg.Mca.Protocol.base_utilities.(i)
          ~policy:cfg.Mca.Protocol.policies.(i))
  in
  let monitor = Mca.Attack.create_monitor ~num_agents:n ~num_items:items in
  for _ = 1 to rounds do
    Array.iter (fun a -> ignore (Mca.Agent.bid_phase a)) agents;
    let snaps = Array.map Mca.Agent.snapshot agents in
    let batch =
      List.concat_map
        (fun (u, w) ->
          [ (w, { Mca.Types.sender = u; view = snaps.(u) });
            (u, { Mca.Types.sender = w; view = snaps.(w) }) ])
        (Netsim.Graph.edges cfg.Mca.Protocol.graph)
    in
    ignore (Mca.Attack.observe_batch monitor batch);
    List.iter (fun (dst, msg) -> ignore (Mca.Agent.receive agents.(dst) msg)) batch
  done;
  Mca.Attack.flagged monitor

let rebidding_attack ppf =
  Format.fprintf ppf "E4 (Result 2): rebidding attack and detection@.";
  let rng = Netsim.Rng.create 7 in
  let graph = Netsim.Topology.ring 4 in
  let base_utilities =
    Array.init 4 (fun _ -> Array.init 3 (fun _ -> 5 + Netsim.Rng.int rng 20))
  in
  let honest_cfg =
    Mca.Protocol.uniform_config ~graph ~num_items:3 ~base_utilities
      ~policy:(Mca.Policy.make ~utility:(Mca.Policy.Submodular 2) ~target_items:2 ())
  in
  let attacked = Mca.Attack.attacker_config ~base:honest_cfg ~attacker:2 in
  let verdict cfg =
    match Mca.Protocol.run_sync ~max_rounds:100 cfg with
    | Mca.Protocol.Converged _ -> true
    | _ -> false
  in
  let rows =
    [
      { scenario = "all honest"; converges = verdict honest_cfg;
        detected = run_with_monitor honest_cfg 12 };
      { scenario = "agent 2 rebids on lost items"; converges = verdict attacked;
        detected = run_with_monitor attacked 12 };
    ]
  in
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-30s converges=%-5b flagged=[%a]@." r.scenario
        r.converges
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
           Format.pp_print_int)
        r.detected)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* E5 — abstraction efficiency                                         *)

type encoding_row = {
  encoding : string;
  scope_label : string;
  primary : int;
  vars : int;
  clauses : int;
  solve_seconds : float option;
}

let encoding_comparison ppf =
  Format.fprintf ppf
    "E5 (abstractions): naive Int encoding vs efficient value/bidVector@.";
  Format.fprintf ppf
    "    encoding (paper: 259K vs 190K clauses, ~1 day vs <2 h), plus the@.";
  Format.fprintf ppf
    "    buffered (explicit message atoms) variant and a symmetry ablation@.";
  let scopes =
    [
      ("2p/2v/5st", { Mca_model.small_scope with Mca_model.states = 5 });
      ("3p/2v/5st", { Mca_model.paper_scope with Mca_model.states = 5 });
    ]
  in
  let variants =
    [
      ("efficient", Mca_model.Efficient, false);
      ("eff+symm", Mca_model.Efficient, true);
      ("buffered", Mca_model.Buffered, false);
      ("naive", Mca_model.Naive, false);
    ]
  in
  let rows =
    List.concat_map
      (fun (scope_label, scope) ->
        List.map
          (fun (encoding, enc, symmetry) ->
            let m = Mca_model.build enc Mca_model.honest_submodular scope in
            let st = Mca_model.translation_stats m in
            let solve_seconds =
              (* the buffered and naive encodings mirror the paper's slow
                 full model (the naive one ran ~a day there): report
                 their translation size only *)
              if enc = Mca_model.Efficient && scope_label = "2p/2v/5st"
              then begin
                let t0 = Unix.gettimeofday () in
                ignore (Mca_model.check_consensus ~symmetry m);
                Some (Unix.gettimeofday () -. t0)
              end
              else None
            in
            let row =
              {
                encoding;
                scope_label;
                primary = st.Relalg.Translate.primary;
                vars = st.Relalg.Translate.vars;
                clauses = st.Relalg.Translate.clauses;
                solve_seconds;
              }
            in
            Format.fprintf ppf
              "  %-10s %-10s primary=%6d vars=%7d clauses=%9d solve=%s@."
              row.encoding row.scope_label row.primary row.vars row.clauses
              (match row.solve_seconds with
              | Some s -> Printf.sprintf "%.1fs" s
              | None -> "(skipped)");
            row)
          variants)
      scopes
  in
  rows

(* ------------------------------------------------------------------ *)
(* E6 — the D·|J| bound                                                *)

type bound_row = {
  topology : string;
  agents : int;
  diameter : int;
  items : int;
  rounds : int;
  messages : int;
  bound : int;
}

let convergence_bound ppf =
  Format.fprintf ppf
    "E6 (Section V bound): rounds to consensus vs D * |J| across topologies@.";
  let rng = Netsim.Rng.create 2026 in
  let topologies n =
    [
      ("line", Netsim.Topology.line n);
      ("ring", Netsim.Topology.ring (max 3 n));
      ("star", Netsim.Topology.star n);
      ("clique", Netsim.Topology.clique n);
      ("erdos-renyi", Netsim.Topology.erdos_renyi_connected rng n 0.4);
      ("barabasi-albert", Netsim.Topology.barabasi_albert rng n 2);
      ("watts-strogatz",
        (let g = Netsim.Topology.watts_strogatz rng n 2 0.2 in
         if Netsim.Graph.is_connected g then g else Netsim.Topology.ring n));
    ]
  in
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun (topology, graph) ->
          List.iter
            (fun items ->
              let base_utilities =
                Array.init n (fun _ ->
                    Array.init items (fun _ -> 1 + Netsim.Rng.int rng 30))
              in
              let cfg =
                Mca.Protocol.uniform_config ~graph ~num_items:items
                  ~base_utilities
                  ~policy:
                    (Mca.Policy.make ~utility:(Mca.Policy.Submodular 1)
                       ~target_items:items ())
              in
              match Mca.Protocol.run_sync ~max_rounds:500 cfg with
              | Mca.Protocol.Converged { rounds; messages; _ } ->
                  let diameter = Netsim.Graph.diameter graph in
                  rows :=
                    {
                      topology;
                      agents = n;
                      diameter;
                      items;
                      rounds;
                      messages;
                      bound = diameter * items;
                    }
                    :: !rows
              | _ -> ())
            [ 1; 2; 4 ])
        (topologies n))
    [ 4; 6; 8 ];
  let rows = List.rev !rows in
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-12s n=%d D=%d |J|=%d : %3d rounds (bound D*J=%2d), %4d msgs@."
        r.topology r.agents r.diameter r.items r.rounds r.bound r.messages)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* E7 — VN mapping                                                     *)

type vnm_row = {
  mapper : string;
  accepted : int;
  total : int;
  mean_residual_ratio : float;
}

let vnm_comparison ppf =
  let instances = 30 in
  Format.fprintf ppf
    "E7 (case study): VN embedding — MCA vs greedy vs optimum (%d requests)@."
    instances;
  let rng = Netsim.Rng.create 11 in
  let cases =
    List.init instances (fun _ ->
        let physical =
          Vnm.Vnet.random_physical rng ~nodes:6 ~edge_prob:0.5 ~max_cpu:20
            ~max_bw:16
        in
        let virtual_net =
          Vnm.Vnet.random_virtual rng ~nodes:3 ~edge_prob:0.6 ~max_cpu:5 ~max_bw:4
        in
        (physical, virtual_net))
  in
  let evaluate mapper_name run =
    let accepted = ref 0 and ratios = ref [] in
    List.iter
      (fun (physical, virtual_net) ->
        let r : Vnm.Embed.result = run ~physical ~virtual_net in
        if r.Vnm.Embed.accepted then begin
          incr accepted;
          match Vnm.Embed.optimal_node_map ~physical ~virtual_net with
          | Some opt ->
              let u = Vnm.Embed.total_residual ~physical ~virtual_net
                        r.Vnm.Embed.mapping.Vnm.Embed.node_map in
              let uo = Vnm.Embed.total_residual ~physical ~virtual_net opt in
              if uo > 0 then
                ratios := (float_of_int u /. float_of_int uo) :: !ratios
          | None -> ()
        end)
      cases;
    let mean =
      match !ratios with
      | [] -> 0.0
      | rs -> List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)
    in
    {
      mapper = mapper_name;
      accepted = !accepted;
      total = instances;
      mean_residual_ratio = mean;
    }
  in
  let rows =
    [
      evaluate "MCA (submodular)" (fun ~physical ~virtual_net ->
          Vnm.Embed.mca ~physical ~virtual_net ());
      evaluate "greedy (centralized)" (fun ~physical ~virtual_net ->
          Vnm.Embed.greedy ~physical ~virtual_net ());
      evaluate "MCA misconfigured" (fun ~physical ~virtual_net ->
          Vnm.Embed.mca_nonsubmodular ~physical ~virtual_net ());
    ]
  in
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-22s accepted %2d/%2d, mean residual ratio %.3f@."
        r.mapper r.accepted r.total r.mean_residual_ratio)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* E8 — the Section III listings through the textual frontend          *)

let listing_source =
  {|
    sig vnode {}
    sig pnode {
      pid: one Int,
      pcp: one Int,
      initBids: vnode -> Int,
      pconnections: set pnode
    }

    fact uniqueIDs { all disj n1, n2: pnode | n1.pid != n2.pid }
    fact pconnectivity {
      all disj pn1, pn2: pnode |
        (pn1 in pn2.pconnections) <=> (pn2 in pn1.pconnections)
    }
    fact pcapacity { all p: pnode | (sum vnode.(p.initBids)) <= (sum p.pcp) }

    assert uniqueID { all disj n1, n2: pnode | n1.pid != n2.pid }
    assert symmetricLinks {
      all pn1, pn2: pnode |
        (pn1 in pn2.pconnections) => (pn2 in pn1.pconnections)
    }
    assert everyoneOverbids { all p: pnode | some p.initBids }

    check uniqueID for 3 but 4 Int
    check symmetricLinks for 3 but 4 Int
    check everyoneOverbids for 3 but 4 Int
    run {} for 3 but 4 Int
  |}

let paper_listings ppf =
  Format.fprintf ppf "E8 (Section III listings): textual frontend checks@.";
  (* expected per command: check uniqueID holds (Unsat), symmetricLinks
     holds (Unsat), everyoneOverbids refuted (Sat), run {} satisfiable *)
  let expected =
    [
      ("check uniqueID", false);
      ("check symmetricLinks", false);
      ("check everyoneOverbids", true);
      ("run {}", true);
    ]
  in
  let results = Alloylite.Elaborate.run_file listing_source in
  List.map2
    (fun (label, outcome) (elabel, expect_sat) ->
      assert (label = elabel);
      let sat = match outcome with Alloylite.Compile.Sat _ -> true | _ -> false in
      let ok = sat = expect_sat in
      Format.fprintf ppf "  %-26s %-24s %s@." label
        (match outcome with
        | Alloylite.Compile.Sat _ -> "instance/counterexample"
        | Alloylite.Compile.Unsat -> "holds/none")
        (if ok then "as expected" else "UNEXPECTED");
      (label, ok))
    results expected
