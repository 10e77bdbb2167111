(* The paper's evaluation, regenerated: experiments E1-E10 (see the
   experiment index in DESIGN.md), each printed as the table the paper
   reports or the claim it checks.

     E1       Figure 1 worked example
     E2/E3    Figure 2 and Result 1: the policy matrix, three backends
     E4       Result 2: the rebidding attack
     E5       naive vs efficient encoding (translation sizes)
     E6       rounds to consensus vs the D*|J| bound
     E7       the VN-mapping case study
     E8       the Section III listings through the textual frontend
     E9       certified verdicts: DRUP proof sizes, independent re-check
     E10      convergence under message loss (fault injection)

   Verdict and size columns are deterministic; only the timing columns
   change from run to run. A run takes about 80 s on two cores: about
   35 s for E1-E8 (mostly the SAT rows of E3 and E5) and 45 s for the
   independent re-check of E9's certified MCA row.

   Run with: dune exec examples/paper_tables.exe *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let paper_experiments () =
  let ppf = Format.std_formatter in
  section "E1 - Figure 1 worked example";
  ignore (Core.Experiments.figure1 ppf);
  section "E2/E3 - Figure 2 and Result 1: policy matrix";
  ignore (Core.Experiments.policy_matrix ppf);
  section "E4 - Result 2: rebidding attack";
  ignore (Core.Experiments.rebidding_attack ppf);
  section "E5 - Abstraction efficiency (naive vs efficient encoding)";
  ignore (Core.Experiments.encoding_comparison ppf);
  Format.printf
    "  note: the naive-encoding check is not solved here — as in the paper,@.";
  Format.printf
    "  where the naive model ran ~a day vs <2h for the efficient one.@.";
  section "E6 - Convergence bound (rounds vs D*|J|)";
  let rows = Core.Experiments.convergence_bound ppf in
  let within =
    List.filter
      (fun r -> r.Core.Experiments.rounds <= r.Core.Experiments.bound + 2)
      rows
  in
  Format.printf "  %d/%d runs within D*|J|+2 rounds@." (List.length within)
    (List.length rows);
  section "E7 - VN mapping case study";
  ignore (Core.Experiments.vnm_comparison ppf);
  section "E8 - Section III listings";
  ignore (Core.Experiments.paper_listings ppf)

(* E9: every verdict re-validated by the independent DRUP/model
   checker. The MCA row is the honest sub-modular consensus check at
   2p2v/6st, the smallest scope whose facts admit instances (at 3p2v the
   paper scope's 6 values cannot give 3 pnodes distinct utilities, so a
   "holds" there is vacuous). *)
let certification () =
  section "E9 - Certified verdicts (DRUP proof size, independent re-check)";
  Format.printf "  %-28s %-7s %10s %10s %9s %9s@." "instance" "verdict"
    "additions" "deletions" "check(s)" "solve(s)";
  let row name verdict total (cert : Sat.Proof.report option) =
    match cert with
    | Some r ->
        Format.printf "  %-28s %-7s %10d %10d %9.3f %9.3f@." name verdict
          r.Sat.Proof.additions r.Sat.Proof.deletions r.Sat.Proof.check_time
          (total -. r.Sat.Proof.check_time)
    | None -> Format.printf "  %-28s %-7s (no SAT call)@." name verdict
  in
  let timed f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let cnf_row name problem =
    let solver = Sat.Solver.of_problem ~proof:true problem in
    let result, total =
      timed (fun () -> Sat.Solver.solve ~certify:true solver)
    in
    let verdict =
      match result with Sat.Solver.Sat _ -> "SAT" | Sat.Solver.Unsat -> "UNSAT"
    in
    row name verdict total (Sat.Solver.last_certification solver)
  in
  cnf_row "pigeonhole-6-into-5" (Sat.Gen.pigeonhole 5);
  cnf_row "pigeonhole-7-into-6" (Sat.Gen.pigeonhole 6);
  cnf_row "php-sat-6-into-6" (Sat.Gen.php_sat 6);
  cnf_row "random3sat-100v-r4.2"
    (Sat.Gen.random_ksat ~seed:3 ~k:3 ~num_vars:100 ~num_clauses:420);
  let m =
    Core.Mca_model.build Core.Mca_model.Efficient
      Core.Mca_model.honest_submodular Core.Mca_model.small_scope
  in
  let { Relalg.Translate.outcome; certification }, total =
    timed (fun () -> Core.Mca_model.check_consensus_certified m)
  in
  let verdict =
    match outcome with
    | Alloylite.Compile.Unsat -> "UNSAT"
    | Alloylite.Compile.Sat _ -> "SAT"
  in
  row "mca-consensus-2p2v/6st" verdict total certification

(* E10: graceful degradation. i.i.d. loss rates over fixed topologies
   and scopes, run through the retransmitting protocol in the
   fault-injected scheduler. The reliable-network D*|J| bound does not
   hold under loss (each lost broadcast can cost a retransmission
   interval), so the column to read is rounds against it. *)
let loss_sweep () =
  section "E10 - Convergence under message loss (fault injection)";
  Format.printf "  %-7s %-5s %3s %3s %6s %7s %6s %8s %9s@." "topo" "loss"
    "n" "j" "D*|J|" "rounds" "msgs" "lost" "verdict";
  let topos =
    [ ("line", Netsim.Topology.line); ("ring", Netsim.Topology.ring);
      ("clique", Netsim.Topology.clique) ]
  in
  let converged = ref 0 and total = ref 0 in
  List.iter
    (fun (tname, topo) ->
      List.iter
        (fun loss ->
          List.iter
            (fun (n, j) ->
              (* a 2-ring is not a simple graph; fall back to the line *)
              let topo =
                if tname = "ring" && n < 3 then Netsim.Topology.line else topo
              in
              let rng = Netsim.Rng.create (Hashtbl.hash (tname, loss, n, j)) in
              let graph = topo n in
              let base_utilities =
                Array.init n (fun _ ->
                    Array.init j (fun _ -> 5 + Netsim.Rng.int rng 25))
              in
              let cfg =
                Mca.Protocol.uniform_config ~graph ~num_items:j ~base_utilities
                  ~policy:
                    (Mca.Policy.make ~utility:(Mca.Policy.Submodular 2)
                       ~target_items:j ())
              in
              let plan =
                if loss = 0.0 then Netsim.Faults.no_faults
                else
                  Netsim.Faults.plan
                    ~default_link:(Netsim.Faults.lossy ~drop:loss ())
                    ~seed:(Hashtbl.hash (tname, loss, n, j, "plan")) ()
              in
              let verdict, faults = Mca.Protocol.run_faulty ~faults:plan cfg in
              let bound = Netsim.Graph.diameter graph * j in
              let sent, lost, _, _ = Netsim.Faults.totals faults in
              incr total;
              match verdict with
              | Mca.Protocol.Converged { rounds; messages; _ } ->
                  incr converged;
                  Format.printf "  %-7s %-5.2f %3d %3d %6d %7d %6d %3d/%-4d %9s@."
                    tname loss n j bound rounds messages lost sent "ok"
              | v ->
                  Format.printf "  %-7s %-5.2f %3d %3d %6d %7s %6s %3d/%-4d %a@."
                    tname loss n j bound "-" "-" lost sent
                    Mca.Protocol.pp_verdict v)
            [ (2, 2); (3, 3); (4, 4) ])
        [ 0.0; 0.05; 0.1; 0.2 ])
    topos;
  Format.printf "  %d/%d runs converged (honest sub-modular, retransmission)@."
    !converged !total

let () =
  paper_experiments ();
  certification ();
  loss_sweep ()
