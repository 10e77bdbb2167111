(* The repository benchmark: one command, three workloads, a
   known-answer gate on every timed verdict, and a traced mode that
   splits each workload into per-layer spans by timing calls into the
   libraries' public functions (nothing inside lib/ is instrumented).

     main.exe --workload paper-grid|submit-mix|cluster-sweep
              --seed N --seconds S --trace 0|1

   Run it from the repository root (perfbench/run.py builds it first).
   Human-readable lines go to stdout; the last stdout line is one JSON
   object {"correct", "attempted", "failed", "metrics"}. Scratch files
   (journals, sockets, the span dump) live under .bench_work/.
   perfbench/README.md defines every workload and metric. *)

let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ---- command line ------------------------------------------------- *)

type opts = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref None and seed = ref None in
  let seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> seed := Some n
        | None -> die "--seed wants an integer, got %S" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> die "--seconds wants a positive number, got %S" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "--trace wants 0 or 1, got %S" v);
        go rest
    | [] -> ()
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some workload, Some seed ->
      { workload; seed; seconds = !seconds; trace = !trace }
  | _ -> die "usage: main.exe --workload W --seed N --seconds S --trace 0|1"

(* ---- statistics ----------------------------------------------------- *)

(* linear interpolation between closest ranks *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

(* ---- spans and layer samples ------------------------------------------ *)

(* Spans are recorded only while [tracing] is set, all on the calling
   domain (the benchmark's single client), held in memory and dumped at
   exit. [parent] is the enclosing span's id, or -1 at top level. *)
type span = {
  id : int;
  name : string;
  parent : int;
  start : float;
  mutable stop : float;
}

let tracing = ref false
let spans : span list ref = ref []
let span_count = ref 0
let current = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let s = { id = !span_count; name; parent = !current; start = now (); stop = 0.0 } in
    incr span_count;
    spans := s :: !spans;
    let saved = !current in
    current := s.id;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        current := saved)
      f
  end

(* non-time per-layer samples (sizes, solver counters, derived costs),
   kept only while tracing *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let note name v =
  if !tracing then
    Hashtbl.replace samples name
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let samples_of name = Option.value ~default:[] (Hashtbl.find_opt samples name)
let timed f = let t0 = now () in let r = f () in (r, now () -. t0)

(* ---- the run's tally -------------------------------------------------- *)

type tally = {
  mutable attempted : int;  (** requests (cells, submits) sent *)
  mutable failed : int;  (** error, shed, quota and unknown replies *)
  mutable checked : int;  (** verdicts compared with a known answer *)
  mutable wrong : int;
  mutable decided : int;  (** verdicts in untraced rounds *)
  mutable latencies : float list;  (** per request, untraced rounds, s *)
  mutable untraced : float list;  (** round walls *)
  mutable traced : float list;
  mutable traced_windows : (float * float) list;
}

let tally =
  {
    attempted = 0; failed = 0; checked = 0; wrong = 0; decided = 0;
    latencies = []; untraced = []; traced = []; traced_windows = [];
  }

let check_answer ~what ~expected ~got =
  tally.checked <- tally.checked + 1;
  if expected <> got then begin
    tally.wrong <- tally.wrong + 1;
    Printf.printf "WRONG %s: expected %s, got %s\n%!" what expected got
  end

(* one request of [verdicts] verdicts, [decided] of them decided, that
   took [dt] seconds; latencies come from untraced rounds only *)
let request_done ~traced ?(verdicts = 1) ~decided dt =
  tally.attempted <- tally.attempted + verdicts;
  tally.failed <- tally.failed + (verdicts - decided);
  if not traced then begin
    tally.latencies <- dt :: tally.latencies;
    tally.decided <- tally.decided + decided
  end

(* ---- scratch files ------------------------------------------------------ *)

let work_dir = ".bench_work"

let work_path =
  let pid = Unix.getpid () in
  fun name -> Filename.concat work_dir (Printf.sprintf "%d-%s" pid name)

let remove path = try Sys.remove path with Sys_error _ -> ()

(* ---- shared MCA pieces ---------------------------------------------------- *)

type task =
  string * Mca.Policy.t * Core.Mca_model.policy * string * Core.Mca_model.scope_spec

let verdict_name = function
  | Core.Experiments.Holds -> "holds"
  | Violated -> "violated"
  | Undecided r -> "unknown(" ^ r ^ ")"

let cell_decided (c : Core.Experiments.sweep_cell) =
  match (c.sat_verdict, c.exhaustive) with
  | Undecided _, _ | _, Undecided _ -> false
  | _ -> true

(* Refuse to time a scope whose facts have no instance: every cell whose
   expected verdict is [Holds] needs a [run {}] witness under its own
   policy (a [Violated] cell is witnessed by its counterexample, which
   the known-answer gate demands). *)
let vacuity_guard scope_tag scope expected_holds =
  List.iter
    (fun (label, mp) ->
      if expected_holds label then begin
        let outcome, dt =
          timed (fun () ->
              Core.Mca_model.run_instance
                (Core.Mca_model.build Core.Mca_model.Efficient mp scope))
        in
        match outcome with
        | Alloylite.Compile.Sat _ ->
            Printf.printf "vacuity guard %s %s: instance found (%.2fs)\n%!"
              scope_tag label dt
        | Alloylite.Compile.Unsat ->
            Printf.printf "vacuity guard %s %s: NO INSTANCE\n%!" scope_tag label;
            die "refusing to time %s: the %s facts have no instance" scope_tag
              label
      end)
    Core.Mca_model.paper_policies

(* One sweep cell decomposed into its layers — the same calls, in the
   same order and under the same per-cell budget, as
   [Core.Experiments.run_cell ~shared ~incremental:true]. *)
let traced_cell ~shared ~seed ((label, p, mp, tag, scope) : task) =
  span "core.cell" (fun () ->
      let t0 = now () in
      let budget = Netsim.Budget.restarted Netsim.Budget.unlimited in
      let cfg =
        Core.Experiments.cell_config ~seed ~policy_label:label ~scope_tag:tag p
          scope
      in
      let sim_ok =
        span "mca.sim" (fun () ->
            match Mca.Protocol.run_sync ~max_rounds:200 ~budget cfg with
            | Mca.Protocol.Converged _ -> true
            | _ -> false)
      in
      let exhaustive =
        span "checker.explore" (fun () ->
            match Checker.Explore.run ~budget cfg with
            | Checker.Explore.Converges _ -> Core.Experiments.Holds
            | Checker.Explore.Unknown { reason; _ } -> Undecided reason
            | Checker.Explore.Nonconvergence _ | Checker.Explore.Bad_terminal _ ->
                Violated)
      in
      let mp =
        { mp with Core.Mca_model.target = min mp.Core.Mca_model.target scope.Core.Mca_model.vnodes }
      in
      let session = Core.Mca_model.domain_session shared in
      let before = Core.Mca_model.session_solver_stats session in
      let outcome =
        span "sat.solve" (fun () ->
            Core.Mca_model.check_consensus_incremental ~budget session mp)
      in
      (match (before, Core.Mca_model.session_solver_stats session) with
      | Some b, Some a ->
          let d f = float_of_int (f a - f b) in
          note "sat.conflicts" (d (fun s -> s.Sat.Solver.conflicts));
          note "sat.propagations" (d (fun s -> s.Sat.Solver.propagations));
          note "sat.decisions" (d (fun s -> s.Sat.Solver.decisions));
          note "sat.learnt_literals" (d (fun s -> s.Sat.Solver.learnt_literals))
      | _ -> ());
      let sat_verdict =
        match outcome with
        | Relalg.Translate.Decided Alloylite.Compile.Unsat -> Core.Experiments.Holds
        | Relalg.Translate.Decided (Alloylite.Compile.Sat _) -> Violated
        | Relalg.Translate.Unknown reason -> Undecided reason
      in
      {
        Core.Experiments.policy_label = label;
        scope_tag = tag;
        sat_verdict;
        sim_ok;
        exhaustive;
        cell_seconds = now () -. t0;
        origin = Core.Experiments.Computed;
      })

let traced_translate scope =
  let sh =
    span "relalg.translate" (fun () ->
        Core.Mca_model.build_shared ~target:2 Core.Mca_model.Efficient scope)
  in
  let st = Core.Mca_model.shared_stats sh in
  note "relalg.vars" (float_of_int st.Relalg.Translate.vars);
  note "relalg.clauses" (float_of_int st.Relalg.Translate.clauses);
  sh

(* ---- workloads ------------------------------------------------------------ *)

type workload = {
  meta : (string * string) list;  (** scopes, digests: recorded with results *)
  setup : unit -> unit;  (** one set-up; run three times, the last one stays *)
  round : traced:bool -> unit;  (** one fixed unit of measured work *)
  teardown : unit -> unit;
  counters : unit -> (string * int) list;
      (** [Server.stats]/[cluster_stats] counters under their per-layer
          metric names, summed over the run's servers and requests *)
  journal : unit -> string option;  (** the journal the service wrote *)
}

let add_count tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* per-layer counter names for the [Server.stats] keys *)
let server_counters t =
  List.filter_map
    (fun (k, v) ->
      if List.mem k [ "shed"; "quota"; "degraded" ] then Some ("service." ^ k, v) else None)
    (Service.Server.stats t)

(* -- paper-grid: the CLI sweep at the one scope whose grid is the
   paper's Result-1/Result-2 table -- *)

let paper_scope_tag = "2p2v/6st"

let paper_scope =
  { Core.Mca_model.pnodes = 2; vnodes = 2; states = 6; values = 6; bitwidth = 4 }

(* The paper's table (Result 1: only non-sub-modular + release-outbid
   fails to converge; Result 2: the rebidding attack breaks consensus),
   as (SAT model, exhaustive interleavings, synchronous simulation). *)
let paper_table =
  [
    ("submod", ("holds", "holds", true));
    ("submod+release", ("holds", "holds", true));
    ("nonsubmod", ("holds", "holds", true));
    ("nonsubmod+release", ("violated", "violated", false));
    ("submod+rebid-attack", ("violated", "violated", false));
    ("nonsubmod+rebid-attack", ("violated", "violated", false));
  ]

let check_paper_cell (c : Core.Experiments.sweep_cell) =
  let sat, exh, sim =
    match List.assoc_opt c.policy_label paper_table with
    | Some row -> row
    | None -> ("?", "?", false)
  in
  let what col = Printf.sprintf "paper-grid %s %s" c.policy_label col in
  check_answer ~what:(what "SAT") ~expected:sat ~got:(verdict_name c.sat_verdict);
  check_answer ~what:(what "exhaustive") ~expected:exh
    ~got:(verdict_name c.exhaustive);
  check_answer ~what:(what "sim") ~expected:(string_of_bool sim)
    ~got:(string_of_bool c.sim_ok)

let paper_grid o =
  vacuity_guard paper_scope_tag paper_scope (fun label ->
      match List.assoc_opt label paper_table with
      | Some ("holds", _, _) -> true
      | _ -> false);
  let scopes = [ (paper_scope_tag, paper_scope) ] in
  let tasks : task array = Core.Experiments.sweep_tasks ~scopes () in
  (* the request is the sweep, as a CLI user waits for the whole table *)
  let round ~traced =
    let cells, dt =
      timed (fun () ->
          if traced then begin
            let shared = traced_translate paper_scope in
            Array.to_list (Array.map (traced_cell ~shared ~seed:o.seed) tasks)
          end
          else (Core.Experiments.run_sweep ~jobs:1 ~seed:o.seed ~scopes ()).cells)
    in
    List.iter check_paper_cell cells;
    request_done ~traced ~verdicts:(List.length cells)
      ~decided:(List.length (List.filter cell_decided cells))
      dt
  in
  {
    meta = [ ("scope", paper_scope_tag ^ " values=6 bitwidth=4"); ("jobs", "1") ];
    setup =
      (fun () ->
        ignore (Core.Mca_model.build_shared ~target:2 Core.Mca_model.Efficient paper_scope));
    round;
    teardown = ignore;
    counters = (fun () -> []);
    journal = (fun () -> None);
  }

(* -- submit-mix: seeded tenant submissions of paper-listing variants to
   an in-process server with its verdict-cache journal on -- *)

(* examples/models/paper_listings.als with the scope as a parameter; kept
   here verbatim so an edit to the example cannot change the benchmark *)
let listing_variant scope =
  String.concat "\n"
    [
      "sig vnode {}";
      "";
      "sig pnode {";
      "  pid: one Int,";
      "  pcp: one Int,";
      "  initBids: vnode -> Int,";
      "  pconnections: set pnode";
      "}";
      "";
      "fact uniqueIDs {";
      "  all disj n1, n2: pnode | n1.pid != n2.pid";
      "}";
      "";
      "fact pconnectivity {";
      "  all disj pn1, pn2: pnode |";
      "    (pn1 in pn2.pconnections) <=> (pn2 in pn1.pconnections)";
      "}";
      "";
      "fact pcapacity {";
      "  all p: pnode | (sum vnode.(p.initBids)) <= (sum p.pcp)";
      "}";
      "";
      "assert uniqueID {";
      "  all disj n1, n2: pnode | n1.pid != n2.pid";
      "}";
      "";
      "assert symmetricLinks {";
      "  all pn1, pn2: pnode | (pn1 in pn2.pconnections) => (pn2 in pn1.pconnections)";
      "}";
      "";
      "assert everyoneBids {";
      "  all p: pnode | some p.initBids";
      "}";
      "";
      "check uniqueID " ^ scope;
      "check symmetricLinks " ^ scope;
      "check everyoneBids " ^ scope;
      "run {} " ^ scope;
      "";
    ]

let spec_scopes = [| "for 3 but 4 Int"; "for 4 but 4 Int"; "for 4 but 5 Int" |]

(* the answers each variant has by construction: the facts imply the
   first two assertions; nothing forces an agent to bid *)
let spec_commands =
  [| ("uniqueID", "holds"); ("symmetricLinks", "holds"); ("everyoneBids", "counterexample") |]

let spec_witness text =
  let { Alloylite.Elaborate.model; commands } =
    Alloylite.Elaborate.file (Alloylite.Parser.parse text)
  in
  match
    List.find_map
      (function
        | Alloylite.Elaborate.Run (_, None, f, scope) -> Some (f, scope)
        | _ -> None)
      commands
  with
  | None -> die "spec variant has no run {} command"
  | Some (f, scope) ->
      Alloylite.Compile.run_formula
        (Alloylite.Compile.prepare model scope)
        (Option.value f ~default:Relalg.Ast.tt)

(* a cold submit replayed in-process, one span per layer; returns the
   verdict and the summed in-process seconds *)
let traced_spec ~cmd ~certify text =
  let t0 = now () in
  let surface = span "alloylite.parse" (fun () -> Alloylite.Parser.parse text) in
  let { Alloylite.Elaborate.model; commands } =
    span "alloylite.elaborate" (fun () -> Alloylite.Elaborate.file surface)
  in
  let scope =
    match
      List.find_map
        (function
          | Alloylite.Elaborate.Check (_, n, s) when n = cmd -> Some s | _ -> None)
        commands
    with
    | Some s -> s
    | None -> die "spec variant has no check %s" cmd
  in
  let compiled =
    span "alloylite.compile" (fun () -> Alloylite.Compile.prepare model scope)
  in
  let tr =
    span "relalg.translate" (fun () -> Alloylite.Compile.check_translation compiled cmd)
  in
  let st = Relalg.Translate.translation_stats tr in
  note "relalg.vars" (float_of_int st.Relalg.Translate.vars);
  note "relalg.clauses" (float_of_int st.Relalg.Translate.clauses);
  let outcome, stats =
    span "sat.solve" (fun () ->
        let s = Relalg.Translate.session tr in
        let o = Relalg.Translate.solve_cell ~budget:Netsim.Budget.unlimited s [] in
        (o, Relalg.Translate.session_stats s))
  in
  Option.iter
    (fun (s : Sat.Solver.stats) ->
      note "sat.conflicts" (float_of_int s.conflicts);
      note "sat.propagations" (float_of_int s.propagations);
      note "sat.decisions" (float_of_int s.decisions);
      note "sat.learnt_literals" (float_of_int s.learnt_literals))
    stats;
  if certify then begin
    let goal =
      match Alloylite.Model.find_assert model cmd with
      | Some f -> f
      | None -> die "spec variant has no assert %s" cmd
    in
    let c =
      span "sat.certify" (fun () -> Alloylite.Compile.check_formula_certified compiled goal)
    in
    match c.Relalg.Translate.certification with
    | Some { Sat.Proof.kind = `Refutation; additions; deletions; _ } ->
        note "sat.proof_steps" (float_of_int (additions + deletions))
    | _ -> ()
  end;
  let verdict =
    match outcome with
    | Relalg.Translate.Decided Relalg.Translate.Unsat -> "holds"
    | Relalg.Translate.Decided (Relalg.Translate.Sat _) -> "counterexample"
    | Relalg.Translate.Unknown r -> "unknown(" ^ r ^ ")"
  in
  (verdict, now () -. t0)

let submits_per_round = 24
let fresh_per_round = 18 (* every (scope, command) pair twice *)
let tenant = "perfbench"

type submission = { body : string; cmd : string; certify : bool; expect : string }

let submit_mix o =
  let bases = Array.map listing_variant spec_scopes in
  Array.iteri
    (fun i base ->
      match spec_witness base with
      | Relalg.Translate.Sat _ ->
          Printf.printf "vacuity guard spec %s (%s): run {} instance found\n%!"
            spec_scopes.(i) (Service.Speccheck.digest base)
      | Relalg.Translate.Unsat ->
          die "refusing to time spec %s: run {} finds no instance" spec_scopes.(i))
    bases;
  let rng = Netsim.Rng.create o.seed in
  let pairs =
    Array.concat
      (List.init (Array.length bases) (fun s ->
           Array.init (Array.length spec_commands) (fun c -> (s, c))))
  in
  let sent = ref [||] and fresh = ref 0 and rounds = ref 0 in
  let make_round () =
    (* one certified submit per scope, the command rotating with the
       round, so every run certifies the same mix in the same order *)
    let certs =
      List.init (Array.length bases) (fun s -> (s, (!rounds + s) mod Array.length spec_commands))
    in
    incr rounds;
    let items =
      Array.init fresh_per_round (fun k -> pairs.(k mod Array.length pairs))
    in
    Netsim.Rng.shuffle rng items;
    let pending_cert = ref certs in
    let fresh_items =
      Array.to_list
        (Array.map
           (fun (s, c) ->
             let certify = List.mem (s, c) !pending_cert in
             if certify then pending_cert := List.filter (( <> ) (s, c)) !pending_cert;
             incr fresh;
             let cmd, expect = spec_commands.(c) in
             `Fresh
               {
                 body =
                   Printf.sprintf "%s// perfbench seed=%d spec=%d\n" bases.(s) o.seed
                     !fresh;
                 cmd; certify; expect;
               })
           items)
    in
    (* resends go anywhere after the round's first submission *)
    List.fold_left
      (fun acc _ ->
        let pos = 1 + Netsim.Rng.int rng (List.length acc) in
        List.filteri (fun i _ -> i < pos) acc
        @ (`Resend :: List.filteri (fun i _ -> i >= pos) acc))
      fresh_items
      (List.init (submits_per_round - fresh_per_round) Fun.id)
  in
  let server = ref None and journals = ref [] and generation = ref 0 in
  let stop_server () =
    Option.iter
      (fun t ->
        Service.Server.stop t;
        Service.Server.join t)
      !server;
    server := None
  in
  let addr () =
    match !server with
    | Some t -> Service.Server.address t
    | None -> die "submit-mix: no server"
  in
  let submit s = Service.Client.submit ~tenant ~cmd:s.cmd ~certify:s.certify (addr ()) s.body in
  let setup () =
    stop_server ();
    incr generation;
    let journal = work_path (Printf.sprintf "submit-%d.wal" !generation) in
    journals := journal :: !journals;
    let cfg =
      {
        (Service.Server.default_config
           (Service.Server.Unix_path (work_path (Printf.sprintf "submit-%d.sock" !generation))))
        with
        Service.Server.jobs = 1;
        journal = Some journal;
        quota_rate = 1000.0;
        quota_burst = 1000.0;
      }
    in
    server := Some (Service.Server.start cfg);
    (* the service is ready once it has answered one cold submit *)
    match
      submit { body = bases.(0); cmd = "uniqueID"; certify = false; expect = "holds" }
    with
    | Ok (Service.Wire.Spec { spec_verdict = Service.Wire.Spec_holds; _ }) -> ()
    | Ok r -> die "submit-mix warm-up: %s" (Service.Wire.render_response r)
    | Error e -> die "submit-mix warm-up: %s" e
  in
  let round ~traced =
    let hits = ref 0 in
    List.iter
      (fun item ->
        let s =
          match item with
          | `Fresh s ->
              sent := Array.append !sent [| s |];
              s
          | `Resend -> !sent.(Netsim.Rng.int rng (Array.length !sent))
        in
        let reply, dt = timed (fun () -> span "service.roundtrip" (fun () -> submit s)) in
        let decided =
          match reply with
          | Ok (Service.Wire.Spec r) -> (
              let got = Service.Wire.spec_verdict_to_wire r.spec_verdict in
              check_answer ~what:("submit " ^ s.cmd) ~expected:s.expect ~got;
              if s.certify then
                check_answer ~what:("certified submit " ^ s.cmd) ~expected:"true"
                  ~got:(string_of_bool r.certified);
              if r.spec_cached then incr hits;
              if traced then
                if r.spec_cached then note "service.cache_hit_ms" (dt *. 1e3)
                else begin
                  let verdict, local = traced_spec ~cmd:s.cmd ~certify:s.certify s.body in
                  check_answer ~what:("in-process " ^ s.cmd) ~expected:s.expect ~got:verdict;
                  note "service.overhead_ms" ((dt -. local) *. 1e3)
                end;
              match r.spec_verdict with Service.Wire.Spec_unknown _ -> 0 | _ -> 1)
          | Ok r ->
              Printf.printf "submit failed: %s\n%!" (Service.Wire.render_response r);
              0
          | Error e ->
              Printf.printf "submit transport failure: %s\n%!" e;
              0
        in
        request_done ~traced ~decided dt)
      (make_round ());
    note "service.cache_hit_share" (float_of_int !hits /. float_of_int submits_per_round)
  in
  {
    meta =
      [
        ("scopes", String.concat "," (Array.to_list spec_scopes));
        ( "spec_digests",
          String.concat "," (Array.to_list (Array.map Service.Speccheck.digest bases)) );
        ("worker_domains", "1");
      ];
    setup;
    round;
    teardown =
      (fun () ->
        stop_server ();
        List.iter remove !journals);
    counters = (fun () -> Option.fold ~none:[] ~some:server_counters !server);
    journal = (fun () -> match !journals with j :: _ -> Some j | [] -> None);
  }

(* -- cluster-sweep: policy-matrix sweeps through a two-worker in-process
   cluster with the coordinator journal on -- *)

let cluster_scope_tag = "2p2v/4st"

let cluster_scope =
  { Core.Mca_model.pnodes = 2; vnodes = 2; states = 4; values = 5; bitwidth = 4 }

let distinct_seeds = 16
let sweeps_per_round = 8
let fleet_size = 2
let dispatchers = 2

let cluster_sweep o =
  let scopes = [ (cluster_scope_tag, cluster_scope) ] in
  let tasks : task array = Core.Experiments.sweep_tasks ~scopes () in
  let rng = Netsim.Rng.create o.seed in
  let seeds = Array.init distinct_seeds (fun _ -> 1 + Netsim.Rng.int rng 1_000_000) in
  (* the in-process answers, computed before timing: one shared
     translation, every task at every seed; the first seed's grid is
     pinned to Experiments.run_sweep's own rendering *)
  let shared = Core.Mca_model.build_shared ~target:2 Core.Mca_model.Efficient cluster_scope in
  let reference_cells seed =
    Array.to_list
      (Array.map
         (Core.Experiments.run_cell ~shared ~incremental:true
            ~budget:Netsim.Budget.unlimited ~seed)
         tasks)
  in
  let render seed cells =
    Core.Experiments.render_sweep
      {
        Core.Experiments.sweep_jobs = 1; sweep_seed = seed; cells; sweep_wall = 0.0;
        sweep_resumed = 0; sweep_partial = false;
      }
  in
  let references = Hashtbl.create distinct_seeds in
  Array.iter
    (fun seed ->
      let cells = reference_cells seed in
      if not (List.for_all cell_decided cells) then
        die "cluster-sweep reference at seed %d left a cell undecided" seed;
      Hashtbl.replace references seed (cells, render seed cells))
    seeds;
  let first_cells, first = Hashtbl.find references seeds.(0) in
  if
    first
    <> Core.Experiments.render_sweep
         (Core.Experiments.run_sweep ~jobs:1 ~seed:seeds.(0) ~scopes ())
  then die "cluster-sweep reference disagrees with Experiments.run_sweep";
  vacuity_guard cluster_scope_tag cluster_scope (fun label ->
      List.exists
        (fun (c : Core.Experiments.sweep_cell) ->
          c.policy_label = label && c.sat_verdict = Core.Experiments.Holds)
        first_cells);
  let journal = work_path "coordinator.wal" in
  let fleet = ref [] and generation = ref 0 in
  let stop_fleet () =
    List.iter Service.Server.stop !fleet;
    List.iter Service.Server.join !fleet;
    fleet := []
  in
  let workers () = List.map Service.Server.address !fleet in
  let config seed =
    {
      (Service.Cluster.default_config (workers ())) with
      Service.Cluster.dispatchers;
      seed;
      heartbeat_s = 0.0;
      cl_journal = Some journal;
    }
  in
  let cluster_counts = Hashtbl.create 8 in
  let requests = ref 0 in
  let sweep ~traced ~count seed =
    let r, dt =
      timed (fun () ->
          span "cluster.sweep" (fun () -> Service.Cluster.run_sweep ~scopes (config seed)))
    in
    let cells, reference = Hashtbl.find references seed in
    let got = String.split_on_char '\n' (Core.Experiments.render_sweep r.sweep) in
    let expected = String.split_on_char '\n' reference in
    if List.length got <> List.length expected then
      check_answer ~what:"cluster grid" ~expected:reference
        ~got:(Core.Experiments.render_sweep r.sweep)
    else
      List.iter2
        (fun e g -> check_answer ~what:"cluster grid line" ~expected:e ~got:g)
        expected got;
    if r.deposed then check_answer ~what:"cluster epoch" ~expected:"kept" ~got:"deposed";
    if count then begin
      List.iter
        (fun (k, v) ->
          if List.mem k [ "dispatched"; "shed_retries"; "steals"; "relocated" ] then
            add_count cluster_counts ("cluster." ^ k) v)
        r.cluster_stats;
      request_done ~traced ~verdicts:(List.length cells)
        ~decided:(List.length (List.filter cell_decided r.sweep.cells))
        dt
    end;
    dt
  in
  let setup () =
    stop_fleet ();
    incr generation;
    fleet :=
      List.init fleet_size (fun k ->
          Service.Server.start
            {
              (Service.Server.default_config
                 (Service.Server.Unix_path
                    (work_path (Printf.sprintf "w%d-%d.sock" !generation k))))
              with
              Service.Server.jobs = 1;
            });
    (* warm-up: the first sweep fills each worker's shared-translation
       cache; the workers' incremental sessions keep getting faster for
       about 15 more sweeps as learnt clauses accumulate, so the timed
       rounds start after 2 rounds' worth *)
    for i = 0 to (2 * sweeps_per_round) - 1 do
      ignore (sweep ~traced:false ~count:false seeds.(i mod distinct_seeds))
    done
  in
  (* one cell of each policy straight to a worker, then the same cell
     in-process on this domain's warm session; returns the in-process
     cell times *)
  let probe seed =
    let st = Core.Mca_model.shared_stats shared in
    note "relalg.vars" (float_of_int st.Relalg.Translate.vars);
    note "relalg.clauses" (float_of_int st.Relalg.Translate.clauses);
    let ws = Array.of_list (workers ()) in
    Array.mapi
      (fun i ((label, _, _, _, _) as task : task) ->
        let req =
          Service.Wire.request ~id:(Printf.sprintf "probe%d" i) ~agents:2 ~items:2
            ~states:cluster_scope.states ~values:cluster_scope.values ~seed label
        in
        let reply, dt =
          timed (fun () ->
              span "service.roundtrip" (fun () ->
                  Service.Client.check ws.(i mod Array.length ws) req))
        in
        let expected =
          verdict_name (List.nth (fst (Hashtbl.find references seed)) i).sat_verdict
        in
        let check what got = check_answer ~what:(what ^ " " ^ label) ~expected ~got in
        check "probe"
          (match reply with
          | Ok (Service.Wire.Verdict v) -> verdict_name v.sat
          | Ok r -> Service.Wire.render_response r
          | Error e -> e);
        let c = traced_cell ~shared ~seed task in
        check "in-process" (verdict_name c.sat_verdict);
        note "service.overhead_ms" ((dt -. c.cell_seconds) *. 1e3);
        c.cell_seconds)
      tasks
  in
  let round ~traced =
    let walls =
      List.init sweeps_per_round (fun _ ->
          let seed = seeds.(!requests mod distinct_seeds) in
          incr requests;
          (seed, sweep ~traced ~count:true seed))
    in
    if traced then begin
      let cells = probe (fst (List.hd (List.rev walls))) in
      (* a sweep keeps min(dispatchers, workers) cells in flight: per-cell
         occupancy minus the same cell's in-process cost *)
      let occupancy =
        mean (List.map snd walls) *. float_of_int (min dispatchers fleet_size)
        /. float_of_int (Array.length tasks)
      in
      note "cluster.hop_ms" ((occupancy -. mean (Array.to_list cells)) *. 1e3)
    end
  in
  {
    meta =
      [
        ("scope", cluster_scope_tag ^ " values=5 bitwidth=4");
        ("sweep_seeds", String.concat "," (Array.to_list (Array.map string_of_int seeds)));
        ("workers", Printf.sprintf "%dx1 domain" fleet_size);
        ("dispatchers", string_of_int dispatchers);
      ];
    setup;
    round;
    teardown =
      (fun () ->
        stop_fleet ();
        remove journal);
    counters =
      (fun () ->
        let tbl = Hashtbl.copy cluster_counts in
        List.iter
          (fun t -> List.iter (fun (k, v) -> add_count tbl k v) (server_counters t))
          !fleet;
        List.of_seq (Hashtbl.to_seq tbl));
    journal = (fun () -> Some journal);
  }

(* ---- journal replay (traced mode) ---------------------------------------- *)

(* The journals are written inside the service; their cost is measured
   from outside by re-appending the run's own records to a fresh journal,
   one explicit flush per record — what flush_every=1 does in one call. *)
let replay_journal path =
  let entries = (Parallel.Journal.read path).Parallel.Journal.entries in
  let copy = work_path "replay.wal" in
  remove copy;
  let w = Parallel.Journal.open_append ~flush_every:max_int copy in
  List.iter
    (fun e ->
      span "parallel.journal_append" (fun () -> Parallel.Journal.append w e);
      span "parallel.journal_flush" (fun () -> Parallel.Journal.flush w))
    entries;
  Parallel.Journal.close w;
  remove copy;
  List.length entries

(* ---- reporting ---------------------------------------------------------- *)

(* A fixed CPU-and-memory kernel (sort 100k pseudo-random ints), timed
   before and after the measured rounds and printed beside them: on a
   shared host it shows how fast the machine ran during this run. *)
let host_probe_ms () =
  median
    (List.init 5 (fun _ ->
         let a = Array.init 100_000 (fun i -> (i * 1_103_515_245 + 12_345) land 0xffffff) in
         snd (timed (fun () -> Array.sort compare a)) *. 1e3))

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  List.iter
    (fun (name, v, unit, n) ->
      Printf.printf "  %-28s %16.6f %-6s n=%d\n" name v unit n)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit, _) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.wrong = 0) (max 1 tally.attempted) tally.failed body

let dump_spans o t_origin =
  let path =
    Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.jsonl" o.workload o.seed)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ms\": %.3f, \"end_ms\": %.3f}\n"
            s.id s.name s.parent ((s.start -. t_origin) *. 1e3) ((s.stop -. t_origin) *. 1e3))
        (List.rev !spans));
  path

(* per layer: calls, mean self time per call (ms), total self time (s) *)
let layer_table () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, total +. self))
    !spans;
  tbl

let layer_ms_metrics =
  [
    "alloylite.parse"; "alloylite.elaborate"; "alloylite.compile"; "relalg.translate";
    "sat.solve"; "sat.certify"; "mca.sim"; "checker.explore"; "core.cell";
    "service.roundtrip"; "parallel.journal_append"; "parallel.journal_flush";
  ]

let () =
  let o = parse_args () in
  let t_origin = now () in
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let w =
    match o.workload with
    | "paper-grid" -> paper_grid o
    | "submit-mix" -> submit_mix o
    | "cluster-sweep" -> cluster_sweep o
    | other -> die "unknown workload %S (paper-grid, submit-mix, cluster-sweep)" other
  in
  Printf.printf
    "perfbench meta: workload=%s seed=%d seconds=%g trace=%b %s nproc=%d ocaml=%s \
     source=%s commit=%s checks_s=%.2f\n%!"
    o.workload o.seed o.seconds o.trace
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) w.meta))
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_SOURCE"))
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"))
    (now () -. t_origin);
  let setups = List.init 3 (fun _ -> snd (timed w.setup)) in
  let probe_before = host_probe_ms () in
  let counters0 = w.counters () in
  let minor = ref [] and major = ref [] in
  let measured_round ~traced =
    (* every round starts from a collected heap, so one round's garbage
       is not billed to the next *)
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    tracing := traced;
    let r0 = now () in
    w.round ~traced;
    let r1 = now () in
    tracing := false;
    let g1 = Gc.quick_stat () in
    let dt = r1 -. r0 in
    if traced then begin
      tally.traced <- dt :: tally.traced;
      tally.traced_windows <- (r0, r1) :: tally.traced_windows;
      minor := (g1.Gc.minor_words -. g0.Gc.minor_words) :: !minor;
      major := float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) :: !major
    end
    else tally.untraced <- dt :: tally.untraced
  in
  (* whole units — one untraced round, plus one traced round when
     tracing — until the time allowance is spent; the last unit may
     overrun it by less than one unit. An untraced run takes at least
     two rounds, so a round near the allowance (a paper-grid sweep)
     never makes the round count, and the median, flip between runs. *)
  let t0 = now () in
  let unit () =
    measured_round ~traced:false;
    if o.trace then measured_round ~traced:true
  in
  unit ();
  (* the high-water mark after set-up and one round: later rounds only
     add cached sessions, and how many fit in the allowance depends on
     the program's speed *)
  let peak_rss = peak_rss_mb () in
  while now () -. t0 < o.seconds || ((not o.trace) && List.length tally.untraced < 2) do
    unit ()
  done;
  let frames =
    if o.trace then begin
      tracing := true;
      let frames = Option.fold ~none:0 ~some:replay_journal (w.journal ()) in
      tracing := false;
      frames
    end
    else 0
  in
  let probe_after = host_probe_ms () in
  let counters1 = w.counters () in
  let counter name =
    let get l = Option.value ~default:0 (List.assoc_opt name l) in
    (name, float_of_int (get counters1 - get counters0), "count", 1)
  in
  w.teardown ();
  let walls l = String.concat " " (List.rev_map (Printf.sprintf "%.3f") l) in
  Printf.printf "round walls (s): untraced [%s]%s\n" (walls tally.untraced)
    (if o.trace then " traced [" ^ walls tally.traced ^ "]" else "");
  Printf.printf "host probe (ms): %.2f before, %.2f after the rounds\n" probe_before
    probe_after;
  Printf.printf "known answers: %d checked, wrong_verdicts=%d; %d attempted, fail_share=%.4f\n"
    tally.checked tally.wrong tally.attempted
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
  let metrics =
    if not o.trace then begin
      let lat = List.map (fun s -> s *. 1e3) tally.latencies in
      let n = List.length lat in
      if n < 100 then
        Printf.printf "note: %d latency samples, fewer than the 100 that put 10 beyond p90\n" n;
      [
        ("setup_s", median setups, "s", List.length setups);
        ("wall_s", median tally.untraced, "s", List.length tally.untraced);
        ( "verdicts_per_s",
          float_of_int tally.decided /. sum tally.untraced, "1/s", tally.decided );
        ("latency_p50_ms", quantile 0.5 lat, "ms", n);
        ("latency_p90_ms", quantile 0.9 lat, "ms", n);
        ( "ok_share",
          1.0 -. (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)),
          "share", tally.attempted );
        ( "right_share",
          1.0 -. (float_of_int tally.wrong /. float_of_int (max 1 tally.checked)),
          "share", tally.checked );
        ("peak_rss_mb", Option.value ~default:0.0 peak_rss, "MB", 1);
      ]
    end
    else begin
      let layers = layer_table () in
      let traced_wall = sum tally.traced in
      (* top-level spans inside traced rounds: the rest is uncovered *)
      let covered =
        sum
          (List.filter_map
             (fun s ->
               if
                 s.parent < 0
                 && List.exists (fun (a, b) -> s.start >= a && s.stop <= b) tally.traced_windows
               then Some (s.stop -. s.start)
               else None)
             !spans)
      in
      Printf.printf "layer self time (traced wall %.3fs, covered %.1f%%):\n" traced_wall
        (100.0 *. covered /. traced_wall);
      Hashtbl.iter
        (fun name (n, total) ->
          Printf.printf "  %-26s calls=%-6d self=%10.3fms share=%5.1f%%\n" name n (total *. 1e3)
            (100.0 *. total /. traced_wall))
        layers;
      Printf.printf "spans written to %s\n" (dump_spans o t_origin);
      let layer_ms name =
        let n, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt layers name) in
        (name ^ "_ms", (if n = 0 then 0.0 else total *. 1e3 /. float_of_int n), "ms", n)
      in
      let sample name unit =
        let xs = samples_of name in
        (name, mean xs, unit, List.length xs)
      in
      let nt = List.length tally.traced in
      List.map layer_ms layer_ms_metrics
      @ [
          sample "relalg.vars" "count"; sample "relalg.clauses" "count";
          sample "sat.conflicts" "count"; sample "sat.propagations" "count";
          sample "sat.decisions" "count"; sample "sat.learnt_literals" "count";
          sample "sat.proof_steps" "count";
          sample "service.overhead_ms" "ms";
          sample "service.cache_hit_ms" "ms";
          sample "service.cache_hit_share" "share";
          counter "service.shed"; counter "service.quota"; counter "service.degraded";
          sample "cluster.hop_ms" "ms";
          counter "cluster.dispatched"; counter "cluster.shed_retries";
          counter "cluster.steals"; counter "cluster.relocated";
          ("parallel.journal_frames", float_of_int frames, "count", 1);
          ("gc.minor_words", mean !minor, "words", nt);
          ("gc.major_collections", mean !major, "count", nt);
          ( "trace.overhead_pct",
            100.0 *. (median tally.traced -. median tally.untraced) /. median tally.untraced,
            "%", nt );
          ("trace.coverage_pct", 100.0 *. covered /. traced_wall, "%", nt);
        ]
    end
  in
  print_result metrics;
  exit (if tally.wrong = 0 then 0 else 1)
