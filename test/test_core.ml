(* Tests for the paper's model itself (lib/core): construction of both
   encodings, satisfiability of the facts, and the fast consensus
   verdicts. The slow UNSAT verdicts (Result 1 positives) are exercised
   by examples/policy_matrix.ml and examples/paper_tables.ml, and at
   2p2v/4st by the differential suite, not here; the attack
   counterexamples are quick and are checked here. *)

let check = Alcotest.(check bool)

let tiny_scope =
  { Core.Mca_model.small_scope with Core.Mca_model.states = 3; values = 5 }

let test_build_validates () =
  Alcotest.check_raises "target out of range"
    (Invalid_argument "Mca_model.build: target outside 1..vnodes") (fun () ->
      ignore
        (Core.Mca_model.build Core.Mca_model.Efficient
           { Core.Mca_model.honest_submodular with Core.Mca_model.target = 5 }
           tiny_scope))

let test_facts_satisfiable_efficient () =
  List.iter
    (fun (name, p) ->
      let m = Core.Mca_model.build Core.Mca_model.Efficient p tiny_scope in
      match Core.Mca_model.run_instance m with
      | Alloylite.Compile.Sat _ -> ()
      | Alloylite.Compile.Unsat -> Alcotest.failf "%s: facts inconsistent" name)
    Core.Mca_model.paper_policies

let test_facts_satisfiable_naive () =
  let m =
    Core.Mca_model.build Core.Mca_model.Naive Core.Mca_model.honest_submodular
      { tiny_scope with Core.Mca_model.states = 2 }
  in
  match Core.Mca_model.run_instance m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat -> Alcotest.fail "naive facts inconsistent"

let test_attack_counterexample () =
  (* Result 2 at a reduced trace length: the attack refutes consensus *)
  let p = { Core.Mca_model.honest_submodular with Core.Mca_model.rebid_attack = true } in
  let m =
    Core.Mca_model.build Core.Mca_model.Efficient p
      { Core.Mca_model.small_scope with Core.Mca_model.states = 4 }
  in
  match Core.Mca_model.check_consensus m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat -> Alcotest.fail "rebid attack must refute consensus"

let test_nonsubmod_release_counterexample () =
  (* Result 1's failing combination *)
  let p =
    { Core.Mca_model.honest_submodular with
      Core.Mca_model.submodular = false;
      release_outbid = true }
  in
  let m = Core.Mca_model.build Core.Mca_model.Efficient p Core.Mca_model.small_scope in
  match Core.Mca_model.check_consensus m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat ->
      Alcotest.fail "non-submodular + release must refute consensus"

let test_translation_stats_shape () =
  let eff =
    Core.Mca_model.translation_stats
      (Core.Mca_model.build Core.Mca_model.Efficient Core.Mca_model.honest_submodular tiny_scope)
  in
  let naive =
    Core.Mca_model.translation_stats
      (Core.Mca_model.build Core.Mca_model.Naive Core.Mca_model.honest_submodular tiny_scope)
  in
  check "both generate clauses" true
    (eff.Relalg.Translate.clauses > 0 && naive.Relalg.Translate.clauses > 0);
  (* the paper's efficiency claim: the value/bidVector encoding is
     smaller than the Int encoding (259K -> 190K in the paper) *)
  check "efficient encoding smaller" true
    (eff.Relalg.Translate.clauses < naive.Relalg.Translate.clauses)

let test_buffered_facts_satisfiable () =
  let m =
    Core.Mca_model.build Core.Mca_model.Buffered Core.Mca_model.honest_submodular
      { tiny_scope with Core.Mca_model.states = 3 }
  in
  match Core.Mca_model.run_instance m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat -> Alcotest.fail "buffered facts inconsistent"

let test_buffered_attack_counterexample () =
  let p = { Core.Mca_model.honest_submodular with Core.Mca_model.rebid_attack = true } in
  let m =
    Core.Mca_model.build Core.Mca_model.Buffered p
      { Core.Mca_model.small_scope with Core.Mca_model.states = 4 }
  in
  match Core.Mca_model.check_consensus m with
  | Alloylite.Compile.Sat _ -> ()
  | Alloylite.Compile.Unsat -> Alcotest.fail "buffered attack must refute consensus"

let test_symmetry_preserves_verdicts () =
  (* the lex-leader predicates must not change any verdict *)
  let scope = { Core.Mca_model.small_scope with Core.Mca_model.states = 4 } in
  List.iter
    (fun (name, p) ->
      let m = Core.Mca_model.build Core.Mca_model.Efficient p scope in
      let plain =
        match Core.Mca_model.check_consensus m with
        | Alloylite.Compile.Sat _ -> true
        | Alloylite.Compile.Unsat -> false
      in
      let sym =
        match Core.Mca_model.check_consensus ~symmetry:true m with
        | Alloylite.Compile.Sat _ -> true
        | Alloylite.Compile.Unsat -> false
      in
      if plain <> sym then
        Alcotest.failf "%s: symmetry changed the verdict (%b vs %b)" name plain sym)
    [ ("submod", Core.Mca_model.honest_submodular);
      ( "attack",
        { Core.Mca_model.honest_submodular with Core.Mca_model.rebid_attack = true } ) ]

let test_describe () =
  let m = Core.Mca_model.build Core.Mca_model.Efficient Core.Mca_model.honest_submodular tiny_scope in
  let d = Core.Mca_model.describe m in
  check "mentions encoding" true (String.length d > 10)

let suite =
  [
    Alcotest.test_case "build validates" `Quick test_build_validates;
    Alcotest.test_case "facts satisfiable (efficient, all policies)" `Slow
      test_facts_satisfiable_efficient;
    Alcotest.test_case "facts satisfiable (naive)" `Slow test_facts_satisfiable_naive;
    Alcotest.test_case "result 2: attack counterexample" `Slow test_attack_counterexample;
    Alcotest.test_case "result 1: nonsubmod+release counterexample" `Slow
      test_nonsubmod_release_counterexample;
    Alcotest.test_case "encoding sizes (E5 shape)" `Slow test_translation_stats_shape;
    Alcotest.test_case "buffered facts satisfiable" `Slow test_buffered_facts_satisfiable;
    Alcotest.test_case "buffered attack counterexample" `Slow test_buffered_attack_counterexample;
    Alcotest.test_case "symmetry preserves verdicts" `Slow test_symmetry_preserves_verdicts;
    Alcotest.test_case "describe" `Quick test_describe;
  ]
