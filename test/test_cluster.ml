(* The sharded verification cluster: ring placement, failover,
   journal-backed handoff, DRUP re-certification of relocated verdicts,
   client retries, and the socket-level fault shim.

   Worker fleets come in three flavors here: in-process Service.Server
   instances (real verdicts, cheap), cluster_worker_helper.exe child
   processes (so a genuine SIGKILL can land mid-sweep — Unix.fork is
   off the table once the suite has spawned domains, hence
   create_process on a prebuilt helper), and hand-rolled "fake" wire
   responders for scripted shed/undecided/lying replies. *)

module E = Core.Experiments
module M = Core.Mca_model

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let temp_sock () = Filename.temp_file "mca_cluster" ".sock"

let temp_path suffix =
  let p = Filename.temp_file "mca_cluster" suffix in
  Sys.remove p;
  p

(* ---- the shared small scope: 3 states keeps every cell fast while
   the grid still contains both Holds and Violated SAT verdicts ---- *)

let scope3 =
  ( "2p2v/3st",
    { M.pnodes = 2; vnodes = 2; states = 3; values = 6; bitwidth = 4 } )

let reference3 = lazy (E.run_sweep ~jobs:2 ~seed:1 ~scopes:[ scope3 ] ())
let canonical r = E.render_sweep ~timings:false r
let reference_render () = canonical (Lazy.force reference3)
let task_key (label, _, _, tag, _) = tag ^ "/" ^ label
let stat r k = List.assoc k r.Service.Cluster.cluster_stats

let cell_decided (c : E.sweep_cell) =
  match (c.E.sat_verdict, c.E.exhaustive) with
  | E.Undecided _, _ | _, E.Undecided _ -> false
  | _ -> true

let mk_ccfg ?(dispatchers = 4) ?(heartbeat = 0.1) ?(max_attempts = 8)
    ?(down_after = 2) ?(steal_after = 30.0) ?journal ?(resume = false)
    workers =
  {
    (Service.Cluster.default_config workers) with
    Service.Cluster.dispatchers;
    heartbeat_s = heartbeat;
    max_attempts;
    down_after;
    steal_after_s = steal_after;
    backoff = Netsim.Backoff.make ~base_s:0.01 ~cap_s:0.1 ();
    cl_journal = journal;
    cl_resume = resume;
  }

(* ---- real in-process workers ---- *)

let start_worker ?(jobs = 1) ?(queue_cap = 8) () =
  let path = temp_sock () in
  let t =
    Service.Server.start
      {
        (Service.Server.default_config (Service.Server.Unix_path path)) with
        Service.Server.jobs;
        queue_cap;
      }
  in
  (Service.Server.Unix_path path, t)

let stop_worker t =
  Service.Server.stop t;
  Service.Server.join t

(* ---- scripted wire responders ---- *)

type fake = {
  f_addr : Service.Server.addr;
  f_stop : bool Atomic.t;
  f_served : int Atomic.t;
  f_fd : Unix.file_descr;
  mutable f_dom : unit Domain.t option;
}

let read_line_fd fd =
  let buf = Buffer.create 128 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
        if Bytes.get b 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let write_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let off = ref 0 in
  try
    while !off < Bytes.length b do
      off := !off + Unix.write fd b !off (Bytes.length b - !off)
    done
  with Unix.Unix_error _ -> ()

(* [script n incoming] decides the reply to the [n]-th request *)
let start_fake ?path script =
  let path = match path with Some p -> p | None -> temp_sock () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  let t =
    {
      f_addr = Service.Server.Unix_path path;
      f_stop = Atomic.make false;
      f_served = Atomic.make 0;
      f_fd = fd;
      f_dom = None;
    }
  in
  let serve client =
    (match Service.Wire.parse_incoming (read_line_fd client) with
    | Ok incoming ->
        let n = Atomic.fetch_and_add t.f_served 1 in
        write_line client (Service.Wire.render_response (script n incoming))
    | Error msg ->
        write_line client
          (Service.Wire.render_response
             (Service.Wire.Error { req_id = ""; msg })));
    try Unix.close client with Unix.Unix_error _ -> ()
  in
  t.f_dom <-
    Some
      (Domain.spawn (fun () ->
           while not (Atomic.get t.f_stop) do
             match Unix.select [ fd ] [] [] 0.1 with
             | [], _, _ -> ()
             | _ -> (
                 match Unix.accept ~cloexec:true fd with
                 | client, _ -> serve client
                 | exception Unix.Unix_error _ -> ())
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
           done));
  t

let stop_fake t =
  Atomic.set t.f_stop true;
  (match t.f_dom with Some d -> Domain.join d | None -> ());
  (try Unix.close t.f_fd with Unix.Unix_error _ -> ());
  match t.f_addr with
  | Service.Server.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
  | Service.Server.Tcp _ -> ()

let incoming_id = function
  | Service.Wire.Check r -> r.Service.Wire.id
  | Service.Wire.Submit h -> h.Service.Wire.sub_id
  | Service.Wire.Fence { fence_id; _ } -> fence_id
  | Service.Wire.Repl_hello { repl_id; _ } -> repl_id
  | Service.Wire.Get_stats -> ""

(* fence and repl verbs arriving at a scripted fake: accept the fence
   (echo the epoch back), refuse replication *)
let control_reply inc =
  match inc with
  | Service.Wire.Fence { fence_id; fence_epoch } ->
      Service.Wire.Fenced { req_id = fence_id; fenced_epoch = fence_epoch }
  | _ -> Service.Wire.Error { req_id = ""; msg = "unsupported verb" }

let holds_reply inc =
  Service.Wire.Verdict
    {
      Service.Wire.req_id = incoming_id inc;
      sat = E.Holds;
      exhaustive = E.Holds;
      sim_ok = true;
      rung = "cdcl";
      cached = false;
      secs = 0.01;
    }

let undecided_reply inc =
  Service.Wire.Verdict
    {
      Service.Wire.req_id = incoming_id inc;
      sat = E.Undecided "fake-budget";
      exhaustive = E.Undecided "fake-budget";
      sim_ok = false;
      rung = "none";
      cached = false;
      secs = 0.01;
    }

let shed_reply inc =
  Service.Wire.Shed { req_id = incoming_id inc; depth = 9; capacity = 9 }

let always_holds n inc =
  match inc with
  | Service.Wire.Get_stats -> Service.Wire.Stats [ ("requests", n) ]
  | Service.Wire.Fence _ | Service.Wire.Repl_hello _ -> control_reply inc
  | Service.Wire.Check _ | Service.Wire.Submit _ -> holds_reply inc

(* ---- helper child processes (SIGKILL targets) ---- *)

let helper_exe name =
  Filename.concat (Filename.dirname Sys.executable_name) name

let spawn_worker path =
  let exe = helper_exe "cluster_worker_helper.exe" in
  Unix.create_process exe [| exe; path; "1"; "2" |] Unix.stdin Unix.stdout
    Unix.stderr

let wait_worker_up addr =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Service.Client.get_stats ~timeout_s:1.0 addr with
    | Ok _ -> ()
    | Error _ ->
        if Unix.gettimeofday () -. t0 > 30.0 then
          Alcotest.fail "worker did not come up"
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

(* ---- shard placement ---- *)

let test_shard_placement () =
  let t = Service.Shard.make 3 in
  let t2 = Service.Shard.make 3 in
  let counts = Array.make 3 0 in
  for i = 0 to 299 do
    let k = Printf.sprintf "key-%d" i in
    let o = Service.Shard.owner t k in
    check "owner in range" true (o >= 0 && o < 3);
    check_int "placement is deterministic" o (Service.Shard.owner t2 k);
    counts.(o) <- counts.(o) + 1
  done;
  Array.iteri
    (fun i c ->
      check
        (Printf.sprintf "worker %d owns a fair share (%d/300)" i c)
        true (c > 30))
    counts

let test_shard_route () =
  List.iter
    (fun n ->
      let t = Service.Shard.make n in
      for i = 0 to 39 do
        let k = Printf.sprintf "cell/%d" i in
        let r = Service.Shard.route t k in
        check_int "route covers the fleet" n (List.length r);
        check "route starts at the owner" true
          (List.hd r = Service.Shard.owner t k);
        check "route is a permutation" true
          (List.sort compare r = List.init n Fun.id)
      done)
    [ 1; 2; 3; 5; 8 ]

let test_shard_stability () =
  let keys = List.init 200 (Printf.sprintf "stable-%d") in
  List.iter
    (fun n ->
      let a = Service.Shard.make n and b = Service.Shard.make (n + 1) in
      let moved = ref 0 in
      List.iter
        (fun k ->
          let oa = Service.Shard.owner a k and ob = Service.Shard.owner b k in
          if oa <> ob then begin
            incr moved;
            (* consistency: survivors never trade keys among themselves *)
            check_int "keys only move to the newcomer" n ob
          end)
        keys;
      check "the newcomer takes some keys" true (!moved > 0))
    [ 1; 2; 4 ]

(* ---- cluster over real workers ---- *)

let test_cluster_matches_reference () =
  let a1, s1 = start_worker () and a2, s2 = start_worker () in
  Fun.protect ~finally:(fun () -> stop_worker s1; stop_worker s2)
  @@ fun () ->
  let r = Service.Cluster.run_sweep ~scopes:[ scope3 ] (mk_ccfg [ a1; a2 ]) in
  check_string "byte-identical to the single-process sweep"
    (reference_render ())
    (canonical r.Service.Cluster.sweep);
  check_int "nothing resumed" 0 r.Service.Cluster.sweep.E.sweep_resumed;
  check "all workers up at exit" true
    (List.for_all Fun.id r.Service.Cluster.worker_up)

let test_cluster_dead_primary_failover () =
  let live, s = start_worker () in
  Fun.protect ~finally:(fun () -> stop_worker s) @@ fun () ->
  let dead = Service.Server.Unix_path (temp_path ".sock") in
  let tasks = E.sweep_tasks ~scopes:[ scope3 ] () in
  let ring = Service.Shard.make 2 in
  (* park the dead address on the slot owning the first cell, so at
     least one relocation is guaranteed whatever the hash says *)
  let dead_idx = Service.Shard.owner ring (task_key tasks.(0)) in
  let workers =
    if dead_idx = 0 then [ dead; live ] else [ live; dead ]
  in
  let expected_relocated =
    Array.fold_left
      (fun acc t ->
        if Service.Shard.owner ring (task_key t) = dead_idx then acc + 1
        else acc)
      0 tasks
  in
  let r = Service.Cluster.run_sweep ~scopes:[ scope3 ] (mk_ccfg workers) in
  check_string "byte-identical despite a dead primary"
    (reference_render ())
    (canonical r.Service.Cluster.sweep);
  check_int "every dead-owned cell was relocated" expected_relocated
    (stat r "relocated");
  check_int "every relocated verdict was DRUP-recertified"
    expected_relocated (stat r "recertified");
  check_int "no recertification mismatch" 0 (stat r "recert_mismatch");
  check "dead worker marked down" true (stat r "marked_down" >= 1);
  check "dead worker reported down at exit" false
    (List.nth r.Service.Cluster.worker_up dead_idx)

let test_cluster_recert_overrides_lies () =
  (* primary = a dead socket, only sibling = a worker that answers
     Holds for everything. Every cell the dead primary owned is
     relocated, so its fabricated SAT verdicts must come back
     DRUP-corrected to the reference answers. *)
  let ref_cells = (Lazy.force reference3).E.cells in
  let ref_sat label tag =
    (List.find
       (fun c -> c.E.policy_label = label && c.E.scope_tag = tag)
       ref_cells)
      .E.sat_verdict
  in
  let tasks = E.sweep_tasks ~scopes:[ scope3 ] () in
  let ring = Service.Shard.make 2 in
  (* rig the dead slot to own a genuinely-Violated cell, so at least
     one lie is guaranteed to be caught *)
  let violated_task =
    Array.to_list tasks
    |> List.find (fun (label, _, _, tag, _) -> ref_sat label tag = E.Violated)
  in
  let dead_idx = Service.Shard.owner ring (task_key violated_task) in
  let fake = start_fake always_holds in
  Fun.protect ~finally:(fun () -> stop_fake fake) @@ fun () ->
  let dead = Service.Server.Unix_path (temp_path ".sock") in
  let workers =
    if dead_idx = 0 then [ dead; fake.f_addr ] else [ fake.f_addr; dead ]
  in
  let r = Service.Cluster.run_sweep ~scopes:[ scope3 ] (mk_ccfg workers) in
  let dead_owned =
    Array.to_list tasks
    |> List.filter (fun t -> Service.Shard.owner ring (task_key t) = dead_idx)
  in
  let expected_mismatch =
    List.length
      (List.filter
         (fun (label, _, _, tag, _) -> ref_sat label tag <> E.Holds)
         dead_owned)
  in
  check "the rigged slot catches at least one lie" true
    (expected_mismatch >= 1);
  check_int "every relocated lie was corrected" expected_mismatch
    (stat r "recert_mismatch");
  check_int "all dead-owned cells were relocated" (List.length dead_owned)
    (stat r "relocated");
  List.iter
    (fun (c : E.sweep_cell) ->
      if
        Service.Shard.owner ring (c.E.scope_tag ^ "/" ^ c.E.policy_label)
        = dead_idx
      then
        check ("relocated SAT verdict certified: " ^ c.E.policy_label) true
          (c.E.sat_verdict = ref_sat c.E.policy_label c.E.scope_tag))
    r.Service.Cluster.sweep.E.cells

let test_cluster_sigkill_worker () =
  let paths = List.init 3 (fun _ -> temp_sock ()) in
  let pids = List.map spawn_worker paths in
  let kill_all () =
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      pids
  in
  Fun.protect ~finally:kill_all @@ fun () ->
  List.iter (fun p -> wait_worker_up (Service.Server.Unix_path p)) paths;
  let journal = temp_path ".wal" in
  let workers = List.map (fun p -> Service.Server.Unix_path p) paths in
  let cfg = mk_ccfg ~dispatchers:4 ~journal workers in
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result
          (Some (Service.Cluster.run_sweep ~scopes:[ scope3 ] cfg)))
  in
  (* SIGKILL a worker the moment the first verdict hits the journal *)
  let t0 = Unix.gettimeofday () in
  while
    ((not (Sys.file_exists journal))
    || (Unix.stat journal).Unix.st_size = 0)
    && Unix.gettimeofday () -. t0 < 60.0
  do
    Unix.sleepf 0.01
  done;
  let victim = List.nth pids 1 in
  Unix.kill victim Sys.sigkill;
  ignore (Unix.waitpid [] victim);
  Domain.join d;
  let r =
    match Atomic.get result with
    | Some r -> r
    | None -> Alcotest.fail "no cluster report"
  in
  check "sweep completed despite the kill" true
    (not r.Service.Cluster.sweep.E.sweep_partial);
  check_string "zero lost or changed verdicts across the kill"
    (reference_render ())
    (canonical r.Service.Cluster.sweep);
  (* journal handoff: the single-process sweep resumes the cluster's
     journal and finds every cell already decided *)
  let resumed =
    E.run_sweep ~jobs:1 ~seed:1 ~scopes:[ scope3 ] ~journal ~resume:true ()
  in
  check_int "every cell handed off through the journal"
    (List.length r.Service.Cluster.sweep.E.cells)
    resumed.E.sweep_resumed;
  check_string "handoff is byte-identical" (reference_render ())
    (canonical resumed);
  Sys.remove journal

let test_cluster_shed_soft_escalation () =
  (* first answer sheds, second is an honest UNKNOWN, everything after
     is decided: the coordinator must retry through both and land on
     the decided answer for every cell *)
  let script n inc =
    match inc with
    | Service.Wire.Get_stats -> Service.Wire.Stats [ ("requests", n) ]
    | Service.Wire.Fence _ | Service.Wire.Repl_hello _ -> control_reply inc
    | Service.Wire.Check _ | Service.Wire.Submit _ ->
        if n = 0 then shed_reply inc
        else if n = 1 then undecided_reply inc
        else holds_reply inc
  in
  let fake = start_fake script in
  Fun.protect ~finally:(fun () -> stop_fake fake) @@ fun () ->
  (* one dispatcher + no heartbeat keeps the request order scripted *)
  let cfg = mk_ccfg ~dispatchers:1 ~heartbeat:0.0 [ fake.f_addr ] in
  let r = Service.Cluster.run_sweep ~scopes:[ scope3 ] cfg in
  check_int "the shed was retried" 1 (stat r "shed_retries");
  check_int "the UNKNOWN was retried" 1 (stat r "soft_retries");
  List.iter
    (fun c ->
      check "every cell decided" true (cell_decided c);
      check "computed, not quarantined" true (c.E.origin = E.Computed))
    r.Service.Cluster.sweep.E.cells;
  check_int "worker answered shed + unknown + one verdict per cell" 8
    (Atomic.get fake.f_served)

let test_cluster_coordinator_resume () =
  let a1, s1 = start_worker () and a2, s2 = start_worker () in
  Fun.protect ~finally:(fun () -> stop_worker s1; stop_worker s2)
  @@ fun () ->
  let j1 = temp_path ".wal" in
  let r1 =
    Service.Cluster.run_sweep ~scopes:[ scope3 ]
      (mk_ccfg ~journal:j1 [ a1; a2 ])
  in
  let full = canonical r1.Service.Cluster.sweep in
  check_string "journaled run matches the reference" (reference_render ())
    full;
  (* a coordinator SIGKILL leaves exactly a valid prefix of the
     journal: rebuild one with the first three decided cells *)
  let entries = (Parallel.Journal.read j1).Parallel.Journal.entries in
  let cells =
    List.filter
      (fun l -> String.length l >= 5 && String.sub l 0 5 = "cell|")
      entries
  in
  check "full journal holds every cell" true (List.length cells >= 6);
  let j2 = temp_path ".wal" in
  let w = Parallel.Journal.open_append j2 in
  List.iteri
    (fun i line -> if i < 3 then Parallel.Journal.append w line)
    cells;
  Parallel.Journal.close w;
  let r2 =
    Service.Cluster.run_sweep ~scopes:[ scope3 ]
      (mk_ccfg ~journal:j2 ~resume:true [ a1; a2 ])
  in
  check_int "three cells resumed from the handoff journal" 3
    r2.Service.Cluster.sweep.E.sweep_resumed;
  check_string "resumed run completes byte-identically" full
    (canonical r2.Service.Cluster.sweep);
  Sys.remove j1;
  Sys.remove j2

(* ---- the socket-level fault shim ---- *)

let test_shim_lossy_link () =
  let fake = start_fake always_holds in
  let listen = Service.Server.Unix_path (temp_sock ()) in
  let plan =
    Netsim.Faults.plan
      ~default_link:(Netsim.Faults.lossy ~drop:0.4 ~duplicate:0.0 ~max_delay:1 ())
      ~seed:11 ()
  in
  let shim =
    Service.Shim.start (Service.Shim.config ~listen ~forward:fake.f_addr plan)
  in
  Fun.protect ~finally:(fun () -> Service.Shim.stop shim; stop_fake fake)
  @@ fun () ->
  (* the worker must survive being the whole fleet: a big down_after
     keeps evidence-based detection from writing it off for dropped
     connections it cannot fail over away from *)
  let cfg =
    mk_ccfg ~dispatchers:1 ~heartbeat:0.0 ~max_attempts:12 ~down_after:1000
      [ listen ]
  in
  let r = Service.Cluster.run_sweep ~scopes:[ scope3 ] cfg in
  List.iter
    (fun c -> check "every cell decided through the lossy link" true (cell_decided c))
    r.Service.Cluster.sweep.E.cells;
  let _, lost, _, _ = Netsim.Faults.totals (Service.Shim.faults shim) in
  check "the plan actually dropped connections" true (lost >= 1);
  check_int "every drop surfaced as one coordinator failover" lost
    (stat r "failovers")

let test_shim_partition_failover () =
  (* worker 0 sits behind a fully partitioned shim (its fabricated
     verdicts could never leak through anyway); worker 1 is a real
     server. Everything must come out of worker 1, byte-identical. *)
  let fake = start_fake always_holds in
  let live, s = start_worker () in
  let listen = Service.Server.Unix_path (temp_sock ()) in
  let plan =
    Netsim.Faults.plan
      ~windows:
        (Netsim.Faults.link_down ~src:0 ~dst:1 ~from_t:0 ~until_t:1_000_000)
      ~seed:5 ()
  in
  let shim =
    Service.Shim.start (Service.Shim.config ~listen ~forward:fake.f_addr plan)
  in
  Fun.protect
    ~finally:(fun () ->
      Service.Shim.stop shim;
      stop_fake fake;
      stop_worker s)
  @@ fun () ->
  let tasks = E.sweep_tasks ~scopes:[ scope3 ] () in
  let ring = Service.Shard.make 2 in
  let partitioned_owned =
    Array.fold_left
      (fun acc t ->
        if Service.Shard.owner ring (task_key t) = 0 then acc + 1 else acc)
      0 tasks
  in
  let r =
    Service.Cluster.run_sweep ~scopes:[ scope3 ] (mk_ccfg [ listen; live ])
  in
  check_string "byte-identical across a full partition"
    (reference_render ())
    (canonical r.Service.Cluster.sweep);
  check_int "every partitioned-owned cell relocated" partitioned_owned
    (stat r "relocated");
  check "partitioned worker marked down" true (stat r "marked_down" >= 1);
  check "partitioned worker reported down at exit" false
    (List.hd r.Service.Cluster.worker_up);
  let _, lost, _, _ = Netsim.Faults.totals (Service.Shim.faults shim) in
  check "the window blocked real connections" true (lost >= 1)

let test_shim_crash_restart () =
  (* the plan crashes the worker for logical times 0..2 (= the first
     three accepted connections) and restarts it: early attempts read
     as connection-refused, later ones pass, and the whole grid still
     comes out decided *)
  let fake = start_fake always_holds in
  let listen = Service.Server.Unix_path (temp_sock ()) in
  let plan =
    Netsim.Faults.plan
      ~crashes:[ Netsim.Faults.crash ~agent:1 ~at:0 ~restart_at:3 () ]
      ~seed:3 ()
  in
  let shim =
    Service.Shim.start (Service.Shim.config ~listen ~forward:fake.f_addr plan)
  in
  Fun.protect ~finally:(fun () -> Service.Shim.stop shim; stop_fake fake)
  @@ fun () ->
  let cfg =
    mk_ccfg ~dispatchers:1 ~heartbeat:0.0 ~max_attempts:12 ~down_after:1000
      [ listen ]
  in
  let r = Service.Cluster.run_sweep ~scopes:[ scope3 ] cfg in
  List.iter
    (fun c -> check "every cell decided after the restart" true (cell_decided c))
    r.Service.Cluster.sweep.E.cells;
  check_int "exactly the crash-window connections failed over" 3
    (stat r "failovers");
  let to_down =
    List.filter
      (fun e -> e.Netsim.Faults.kind = Netsim.Faults.To_down)
      (Netsim.Faults.events (Service.Shim.faults shim))
  in
  check_int "the ledger logged every refused connection" 3
    (List.length to_down)

(* ---- client retries (satellite: jittered backoff on refuse/shed) ---- *)

let test_client_retry_refused () =
  let path = temp_path ".sock" in
  (* nobody listens yet: the first attempts are connection-refused;
     the responder comes up 0.3 s later *)
  let starter =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        start_fake ~path always_holds)
  in
  let req = Service.Wire.request ~id:"r1" ~states:3 "submod" in
  let resp, rep =
    Service.Client.check_retry ~timeout_s:2.0 ~retries:30
      ~backoff:(Netsim.Backoff.make ~base_s:0.05 ~cap_s:0.2 ())
      ~seed:3
      (Service.Server.Unix_path path)
      req
  in
  let fake = Domain.join starter in
  Fun.protect ~finally:(fun () -> stop_fake fake) @@ fun () ->
  (match resp with
  | Ok (Service.Wire.Verdict v) ->
      check_string "id echoed" "r1" v.Service.Wire.req_id
  | Ok _ -> Alcotest.fail "expected a verdict"
  | Error e -> Alcotest.fail ("no verdict through retries: " ^ e));
  check "transport retries recorded" true
    (rep.Service.Client.retried_transport >= 1);
  check "success clears gave_up" true
    (rep.Service.Client.gave_up = None)

let test_client_retry_shed () =
  let script n inc =
    match inc with
    | Service.Wire.Get_stats -> Service.Wire.Stats []
    | Service.Wire.Fence _ | Service.Wire.Repl_hello _ -> control_reply inc
    | Service.Wire.Check _ | Service.Wire.Submit _ ->
        if n < 2 then shed_reply inc else holds_reply inc
  in
  let fake = start_fake script in
  Fun.protect ~finally:(fun () -> stop_fake fake) @@ fun () ->
  let req = Service.Wire.request ~id:"s1" ~states:3 "submod" in
  (* a plain check takes the shed at face value *)
  (match Service.Client.check fake.f_addr req with
  | Ok (Service.Wire.Shed _) -> ()
  | _ -> Alcotest.fail "expected the first reply to be a shed");
  (* check_retry rides it out *)
  let resp, rep =
    Service.Client.check_retry ~retries:5
      ~backoff:(Netsim.Backoff.make ~base_s:0.01 ~cap_s:0.05 ())
      fake.f_addr req
  in
  (match resp with
  | Ok (Service.Wire.Verdict _) -> ()
  | _ -> Alcotest.fail "expected the retry to land a verdict");
  check_int "one shed retried" 1 rep.Service.Client.retried_shed;
  check_int "two attempts total" 2 rep.Service.Client.attempts

let test_client_retry_budget () =
  let fake = start_fake (fun _ inc ->
      match inc with
      | Service.Wire.Get_stats -> Service.Wire.Stats []
      | Service.Wire.Fence _ | Service.Wire.Repl_hello _ -> control_reply inc
      | Service.Wire.Check _ | Service.Wire.Submit _ -> shed_reply inc)
  in
  Fun.protect ~finally:(fun () -> stop_fake fake) @@ fun () ->
  let req = Service.Wire.request ~id:"b1" ~states:3 "submod" in
  let resp, rep =
    Service.Client.check_retry ~retries:10_000 ~retry_budget_s:0.3
      ~backoff:(Netsim.Backoff.make ~base_s:0.02 ~cap_s:0.05 ())
      fake.f_addr req
  in
  (match resp with
  | Ok (Service.Wire.Shed _) -> ()
  | _ -> Alcotest.fail "a persistent shed must surface as a shed");
  check "the budget stopped the retries" true
    (rep.Service.Client.gave_up = Some "retry budget exhausted");
  check "several attempts were made" true (rep.Service.Client.attempts >= 2)

let test_client_submit_retry_quota () =
  (* first submit meets a quota refusal carrying a retry hint, the
     second a shed: submit_retry must wait out the quota (at least the
     hint) and take the shed at face value — global overload is a
     refusal with substance, not a transient *)
  let script n inc =
    match inc with
    | Service.Wire.Get_stats -> Service.Wire.Stats []
    | Service.Wire.Fence _ | Service.Wire.Repl_hello _ -> control_reply inc
    | Service.Wire.Check _ -> holds_reply inc
    | Service.Wire.Submit _ ->
        if n = 0 then
          Service.Wire.Quota
            { req_id = incoming_id inc; tenant = "t"; retry_after_s = 0.25 }
        else shed_reply inc
  in
  let fake = start_fake script in
  Fun.protect ~finally:(fun () -> stop_fake fake) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let resp, rep =
    Service.Client.submit_retry ~id:"q1" ~tenant:"t" ~retries:5
      ~backoff:(Netsim.Backoff.make ~base_s:0.01 ~cap_s:0.05 ())
      fake.f_addr "sig a {}"
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match resp with
  | Ok (Service.Wire.Shed _) -> ()
  | _ -> Alcotest.fail "the shed must come back unretried");
  check_int "exactly the quota was retried" 1
    rep.Service.Client.retried_quota;
  check_int "two attempts total (shed is terminal)" 2
    rep.Service.Client.attempts;
  check "shed is not an exhaustion" true
    (rep.Service.Client.gave_up = None);
  check "the retry hint floors the backoff delay" true (elapsed >= 0.25)

(* ---- coordinator replication (tentpole) ---- *)

let test_repl_publish_pull () =
  let journal = temp_path ".wal" in
  let w = Parallel.Journal.open_append journal in
  List.iter (Parallel.Journal.append w)
    [ "epoch|1|seed=1|epoch=3"; "cell|1|seed=1|scope=s/p|epoch=3" ];
  let repl_sock = temp_sock () in
  let addr = Service.Server.Unix_path repl_sock in
  let p = Service.Repl.start_publisher ~addr ~journal ~epoch:3 in
  Fun.protect
    ~finally:(fun () ->
      Service.Repl.stop_publisher p;
      Parallel.Journal.close w;
      Sys.remove journal)
  @@ fun () ->
  (* a fresh replica pulls everything durable so far *)
  (match Service.Repl.pull addr ~from:0 with
  | Ok pulled ->
      check_int "publisher announces its epoch" 3
        pulled.Service.Repl.pulled_epoch;
      check_int "both records shipped" 2 pulled.Service.Repl.pulled_have;
      check "records arrive verbatim and in order" true
        (pulled.Service.Repl.pulled_records
        = [ "epoch|1|seed=1|epoch=3"; "cell|1|seed=1|scope=s/p|epoch=3" ])
  | Result.Error e -> Alcotest.fail e);
  (* an up-to-date replica pulls the empty delta *)
  (match Service.Repl.pull addr ~from:2 with
  | Ok pulled ->
      check "nothing new" true (pulled.Service.Repl.pulled_records = [])
  | Result.Error e -> Alcotest.fail e);
  (* the writer appends and flushes: the next pull sees exactly the
     delta — the publisher serves from the durable file, nothing else *)
  Parallel.Journal.append w "cell|1|seed=1|scope=s/q|epoch=3";
  Parallel.Journal.flush w;
  (match Service.Repl.pull addr ~from:2 with
  | Ok pulled ->
      check "the delta alone" true
        (pulled.Service.Repl.pulled_records
        = [ "cell|1|seed=1|scope=s/q|epoch=3" ])
  | Result.Error e -> Alcotest.fail e);
  (* a replica claiming more history than the publisher has is
     divergence, not lag: the pull must refuse *)
  match Service.Repl.pull addr ~from:10 with
  | Ok _ -> Alcotest.fail "a divergent pull must be refused"
  | Result.Error msg -> check "refusal explains itself" true (msg <> "")

let helper_worker_paths ws =
  List.map
    (fun (a, _) ->
      match a with
      | Service.Server.Unix_path p -> p
      | Service.Server.Tcp _ -> Alcotest.fail "unix workers expected")
    ws

let spawn_primary ~journal ~repl ~epoch ~delay_ms worker_paths =
  let exe = helper_exe "cluster_primary_helper.exe" in
  let args =
    Array.of_list
      ([ exe; journal; repl; string_of_int epoch; string_of_int delay_ms ]
      @ worker_paths)
  in
  Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr

(* the standby must not start its lease clock before the primary's
   publisher is actually up *)
let wait_repl_up addr =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Service.Repl.pull ~timeout_s:1.0 addr ~from:0 with
    | Ok _ -> ()
    | Result.Error _ ->
        if Unix.gettimeofday () -. t0 > 30.0 then
          Alcotest.fail "primary's replication listener did not come up"
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let mk_standby ~replica ~source workers =
  {
    (Service.Cluster.default_standby ~source (mk_ccfg ~journal:replica workers))
    with
    Service.Cluster.sb_poll_s = 0.02;
    sb_lease_s = 0.4;
    sb_down_after = 2;
  }

let test_cluster_standby_takeover_sigkill () =
  (* three real workers; a child-process primary runs a replicated
     epoch-1 sweep slowly; the standby tails the journal and the test
     SIGKILLs the primary the moment a few records have replicated.
     The standby must take over at epoch 2, finish from its replica,
     and produce the byte-identical grid with zero UNKNOWNs. *)
  let ws = List.init 3 (fun _ -> start_worker ()) in
  Fun.protect ~finally:(fun () -> List.iter (fun (_, t) -> stop_worker t) ws)
  @@ fun () ->
  let worker_addrs = List.map fst ws in
  let primary_journal = temp_path ".wal" in
  let replica = temp_path ".wal" in
  let repl_sock = temp_sock () in
  let pid =
    spawn_primary ~journal:primary_journal ~repl:repl_sock ~epoch:1
      ~delay_ms:200 (helper_worker_paths ws)
  in
  let killed = Atomic.make false in
  let kill_primary () =
    if not (Atomic.exchange killed true) then
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      kill_primary ();
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let source = Service.Server.Unix_path repl_sock in
  wait_repl_up source;
  let sb = mk_standby ~replica ~source worker_addrs in
  let outcome =
    Service.Cluster.run_standby ~scopes:[ scope3 ]
      ~on_replicated:(fun n -> if n >= 3 then kill_primary ())
      sb
  in
  match outcome with
  | Service.Cluster.Standby_drained _ ->
      Alcotest.fail "the standby never took over"
  | Service.Cluster.Took_over
      { takeover_epoch; replicated; takeover_latency_s; report } ->
      check_int "takeover at the next epoch" 2 takeover_epoch;
      check "records replicated before the kill" true (replicated >= 3);
      check "takeover latency measured" true (takeover_latency_s > 0.0);
      check "takeover sweep completed" true
        (not report.Service.Cluster.sweep.E.sweep_partial);
      check "takeover not itself deposed" false report.Service.Cluster.deposed;
      List.iter
        (fun c -> check "no UNKNOWN cells after takeover" true (cell_decided c))
        report.Service.Cluster.sweep.E.cells;
      check_string "zero lost or changed verdicts across the kill"
        (reference_render ())
        (canonical report.Service.Cluster.sweep);
      (* the replica hands off to the single-process sweep like any
         journal: epoch-stamped records stay interchangeable *)
      let resumed =
        E.run_sweep ~jobs:1 ~seed:1 ~scopes:[ scope3 ] ~journal:replica
          ~resume:true ()
      in
      check_int "every cell recoverable from the replica"
        (List.length report.Service.Cluster.sweep.E.cells)
        resumed.E.sweep_resumed;
      check_string "replica handoff byte-identical" (reference_render ())
        (canonical resumed);
      Sys.remove replica;
      (try Sys.remove primary_journal with Sys_error _ -> ());
      try Sys.remove repl_sock with Sys_error _ -> ()

let test_cluster_healthy_replicated_sweep () =
  (* the always-on replication stream on a healthy primary: a standby
     tails every group commit into its replica and never takes over;
     the primary's grid is the single-process grid. The publisher stops
     with the sweep, racing the standby's last pull, so the replica is a
     prefix of the primary journal, not necessarily all of it. *)
  let ws = List.init 2 (fun _ -> start_worker ()) in
  Fun.protect ~finally:(fun () -> List.iter (fun (_, t) -> stop_worker t) ws)
  @@ fun () ->
  let worker_addrs = List.map fst ws in
  let journal = temp_path ".wal" and replica = temp_path ".wal" in
  let repl_sock = temp_sock () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ journal; replica; repl_sock ])
  @@ fun () ->
  let drained = Atomic.make false in
  let sb =
    {
      (Service.Cluster.default_standby
         ~source:(Service.Server.Unix_path repl_sock)
         (mk_ccfg ~journal:replica worker_addrs))
      with
      Service.Cluster.sb_poll_s = 0.01;
      sb_lease_s = 3600.0;
      sb_down_after = max_int;
    }
  in
  let standby =
    Domain.spawn (fun () ->
        Service.Cluster.run_standby
          ~stop:(fun () -> Atomic.get drained)
          ~scopes:[ scope3 ] sb)
  in
  let r =
    Fun.protect ~finally:(fun () -> Atomic.set drained true) @@ fun () ->
    Service.Cluster.run_sweep ~scopes:[ scope3 ]
      {
        (mk_ccfg ~journal worker_addrs) with
        Service.Cluster.repl_listen = Some (Service.Server.Unix_path repl_sock);
        epoch = 1;
        (* long enough that the standby's 10 ms pulls see the sweep *)
        cl_throttle_s = 0.05;
      }
  in
  (match Domain.join standby with
  | Service.Cluster.Standby_drained _ -> ()
  | Service.Cluster.Took_over _ ->
      Alcotest.fail "the standby took over a healthy primary");
  check_string "replicated sweep byte-identical to the single-process sweep"
    (reference_render ())
    (canonical r.Service.Cluster.sweep);
  let primary = (Parallel.Journal.read journal).Parallel.Journal.entries in
  let replicated = (Parallel.Journal.read replica).Parallel.Journal.entries in
  let n = List.length replicated in
  check "the standby replicated records" true (n > 0);
  check "replica is a prefix of the primary journal" true
    (replicated = List.filteri (fun i _ -> i < n) primary)

let test_cluster_split_brain_fencing () =
  (* the primary stays alive but the replication path partitions: the
     standby takes over anyway, and epoch fencing — not the failure
     detector — keeps the two histories from interleaving. The old
     primary must depose itself (exit 13) and its journal must hold no
     record at or above the takeover epoch. *)
  let ws = List.init 2 (fun _ -> start_worker ()) in
  Fun.protect ~finally:(fun () -> List.iter (fun (_, t) -> stop_worker t) ws)
  @@ fun () ->
  let worker_addrs = List.map fst ws in
  let primary_journal = temp_path ".wal" in
  let replica = temp_path ".wal" in
  let repl_sock = temp_sock () in
  (* the standby reaches the primary only through the shim; the first
     two pulls pass, everything after is partitioned away *)
  let shim_listen = Service.Server.Unix_path (temp_sock ()) in
  let plan =
    Netsim.Faults.plan
      ~windows:
        (Netsim.Faults.link_down ~src:0 ~dst:1 ~from_t:2 ~until_t:1_000_000)
      ~seed:7 ()
  in
  let shim =
    Service.Shim.start
      (Service.Shim.config ~listen:shim_listen
         ~forward:(Service.Server.Unix_path repl_sock)
         plan)
  in
  Fun.protect ~finally:(fun () -> Service.Shim.stop shim) @@ fun () ->
  let pid =
    spawn_primary ~journal:primary_journal ~repl:repl_sock ~epoch:1
      ~delay_ms:300 (helper_worker_paths ws)
  in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end)
  @@ fun () ->
  wait_repl_up (Service.Server.Unix_path repl_sock);
  let sb = mk_standby ~replica ~source:shim_listen worker_addrs in
  let outcome = Service.Cluster.run_standby ~scopes:[ scope3 ] sb in
  (match outcome with
  | Service.Cluster.Standby_drained _ ->
      Alcotest.fail "the standby never took over"
  | Service.Cluster.Took_over { takeover_epoch; report; _ } ->
      check_int "takeover at the next epoch" 2 takeover_epoch;
      check "takeover not itself deposed" false report.Service.Cluster.deposed;
      check "takeover sweep completed" true
        (not report.Service.Cluster.sweep.E.sweep_partial);
      check_string "byte-identical grid despite the live old primary"
        (reference_render ())
        (canonical report.Service.Cluster.sweep));
  (* the partitioned-but-alive old primary must have deposed itself *)
  let _, status = Unix.waitpid [] pid in
  reaped := true;
  (match status with
  | Unix.WEXITED 13 -> ()
  | Unix.WEXITED n ->
      Alcotest.failf "old primary exited %d, expected 13 (deposed)" n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      Alcotest.fail "old primary did not exit cleanly");
  (* split-brain invariant: every record a positive-epoch coordinator
     journals is epoch-stamped, so a journal whose highest epoch is
     still 1 holds not one record committed at or after the takeover *)
  check_int "old primary committed nothing at the takeover epoch" 1
    (Service.Cluster.latest_epoch primary_journal);
  (* and the records it did commit agree verdict-for-verdict with the
     reference — the histories never diverged, they only stopped *)
  let ref_cells = (Lazy.force reference3).E.cells in
  List.iter
    (fun line ->
      match E.cell_of_record line with
      | Some (_, cell) ->
          let r =
            List.find
              (fun c ->
                c.E.policy_label = cell.E.policy_label
                && c.E.scope_tag = cell.E.scope_tag)
              ref_cells
          in
          check "old primary's cells match the reference" true
            (cell.E.sat_verdict = r.E.sat_verdict
            && cell.E.exhaustive = r.E.exhaustive)
      | None -> ())
    (Parallel.Journal.read primary_journal).Parallel.Journal.entries;
  let _, lost, _, _ = Netsim.Faults.totals (Service.Shim.faults shim) in
  check "the partition actually blocked pulls" true (lost >= 1);
  Sys.remove replica;
  (try Sys.remove primary_journal with Sys_error _ -> ());
  try Sys.remove repl_sock with Sys_error _ -> ()

(* ---- journal directory durability (satellite) ---- *)

let test_journal_fresh_dir () =
  let dir = Filename.temp_file "mca_jdir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "fresh.wal" in
  (* creating a journal in a brand-new directory fsyncs the directory
     entry; re-opening the existing file must not re-run that branch *)
  let w = Parallel.Journal.open_append path in
  Parallel.Journal.append w "probe|1|x=1";
  Parallel.Journal.close w;
  let w2 = Parallel.Journal.open_append path in
  Parallel.Journal.append w2 "probe|1|x=2";
  Parallel.Journal.close w2;
  let r = Parallel.Journal.read path in
  check "no corruption" true (r.Parallel.Journal.corruption = None);
  check_int "both records survive" 2
    (List.length r.Parallel.Journal.entries);
  Sys.remove path;
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "shard: deterministic, balanced placement" `Quick
      test_shard_placement;
    Alcotest.test_case "shard: route is a failover permutation" `Quick
      test_shard_route;
    Alcotest.test_case "shard: growth only moves keys to the newcomer"
      `Quick test_shard_stability;
    Alcotest.test_case "journal: fresh-directory create is durable" `Quick
      test_journal_fresh_dir;
    Alcotest.test_case "client: retries ride out connection-refused" `Quick
      test_client_retry_refused;
    Alcotest.test_case "client: retries escalate past shed" `Quick
      test_client_retry_shed;
    Alcotest.test_case "client: the retry budget is honored" `Quick
      test_client_retry_budget;
    Alcotest.test_case "client: submit_retry waits out quota, takes shed"
      `Quick test_client_submit_retry_quota;
    Alcotest.test_case "repl: publish and pull over the durable journal"
      `Quick test_repl_publish_pull;
    Alcotest.test_case "cluster: SIGKILL'd primary, standby finishes the sweep"
      `Slow test_cluster_standby_takeover_sigkill;
    Alcotest.test_case "cluster: healthy replicated sweep, standby drains"
      `Slow test_cluster_healthy_replicated_sweep;
    Alcotest.test_case "cluster: split brain fenced, old primary deposed"
      `Slow test_cluster_split_brain_fencing;
    Alcotest.test_case "cluster: shed and UNKNOWN escalate to a verdict"
      `Quick test_cluster_shed_soft_escalation;
    Alcotest.test_case "cluster: matches the single-process sweep" `Slow
      test_cluster_matches_reference;
    Alcotest.test_case "cluster: dead primary fails over, recertified"
      `Slow test_cluster_dead_primary_failover;
    Alcotest.test_case "cluster: recertification overrides a lying sibling"
      `Slow test_cluster_recert_overrides_lies;
    Alcotest.test_case "cluster: SIGKILL'd worker loses no verdicts" `Slow
      test_cluster_sigkill_worker;
    Alcotest.test_case "cluster: coordinator resumes its own journal" `Slow
      test_cluster_coordinator_resume;
    Alcotest.test_case "shim: lossy link is retried through" `Slow
      test_shim_lossy_link;
    Alcotest.test_case "shim: full partition forces failover" `Slow
      test_shim_partition_failover;
    Alcotest.test_case "shim: crash window refuses, restart recovers" `Slow
      test_shim_crash_restart;
  ]
