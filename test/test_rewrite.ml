module Mig = Plim_mig.Mig
module Mig_gen = Plim_mig.Mig_gen
module Tt = Plim_logic.Truth_table
module Axioms = Plim_rewrite.Axioms
module Recipe = Plim_rewrite.Recipe
module Mig_io = Plim_mig.Mig_io
module Suite = Plim_benchgen.Suite
module Gen = Plim_check.Gen
module Corpus = Plim_check.Corpus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let functionally_equal g g' =
  Mig.num_inputs g = Mig.num_inputs g'
  && Mig.num_outputs g = Mig.num_outputs g'
  && Array.for_all2 Tt.equal (Mig.output_tables g) (Mig.output_tables g')

let random_mig ?(inputs = 6) ?(nodes = 50) seed =
  Mig_gen.random ~seed ~num_inputs:inputs ~num_nodes:nodes ~num_outputs:4 ()

(* every pass must preserve the Boolean functions of all outputs *)
let pass_preserves name rules =
  QCheck.Test.make ~count:80 ~name:(Printf.sprintf "pass [%s] preserves function" name)
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      functionally_equal g (Recipe.run_pass g rules))

let distributivity_preserves = pass_preserves "distributivity" [ Axioms.distributivity_rl ]
let associativity_preserves = pass_preserves "associativity" [ Axioms.associativity ]

let psi_c_preserves =
  pass_preserves "complementary associativity" [ Axioms.complementary_associativity ]

let inverter_preserves = pass_preserves "inverter propagation" [ Axioms.inverter_propagation ]

let all_rules_preserve =
  pass_preserves "all rules"
    [ Axioms.distributivity_rl;
      Axioms.associativity;
      Axioms.complementary_associativity;
      Axioms.inverter_propagation ]

let recipe_preserves name recipe =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "%s preserves function" name)
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      functionally_equal g (Recipe.run recipe ~effort:3 g))

let algorithm1_preserves = recipe_preserves "algorithm 1 (DAC'16)" Recipe.Algorithm1
let algorithm2_preserves = recipe_preserves "algorithm 2 (endurance-aware)" Recipe.Algorithm2

(* after an inverter-propagation pass no node keeps >= 2 complemented
   non-constant children *)
let inverter_invariant =
  QCheck.Test.make ~count:60 ~name:"inverter pass leaves <= 1 complemented child"
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      let g' = Recipe.run_pass g [ Axioms.inverter_propagation ] in
      let ok = ref true in
      Mig.iter_reachable_maj g' (fun id ->
          match Mig.kind g' id with
          | Mig.Maj (a, b, c) ->
            let count s =
              if Mig.is_complemented s && not (Mig.is_const s) then 1 else 0
            in
            if count a + count b + count c >= 2 then ok := false
          | Mig.Const | Mig.Input _ -> ());
      !ok)

(* rewriting never grows the graph on AIG-shaped inputs *)
let never_grows =
  QCheck.Test.make ~count:30 ~name:"algorithm 2 does not grow AIG inputs"
    QCheck.small_int (fun seed ->
      let g = Plim_benchgen.Frontend.expand (random_mig seed) in
      Mig.size (Recipe.run Recipe.Algorithm2 ~effort:2 g) <= Mig.size g)

(* --- directed cases ----------------------------------------------------- *)

(* <<xyu><xyv>z> collapses to <xy<uvz>> when the inner nodes die *)
let test_distributivity_collapse () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let y = Mig.add_input g "y" in
  let u = Mig.add_input g "u" in
  let v = Mig.add_input g "v" in
  let z = Mig.add_input g "z" in
  let a = Mig.maj g x y u in
  let b = Mig.maj g x y v in
  let top = Mig.maj g a b z in
  Mig.add_output g "f" top;
  check_int "three nodes before" 3 (Mig.size g);
  let g' = Recipe.run_pass g [ Axioms.distributivity_rl ] in
  check_int "two nodes after" 2 (Mig.size g');
  check_bool "equivalent" true (functionally_equal g g')

(* the inverter rule flips a node with two complemented children *)
let test_inverter_flip () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let y = Mig.add_input g "y" in
  let z = Mig.add_input g "z" in
  let n = Mig.maj g (Mig.not_ x) (Mig.not_ y) z in
  Mig.add_output g "f" n;
  check_int "two complemented edges" 2 (Mig.num_complemented_edges g);
  let g' = Recipe.run_pass g [ Axioms.inverter_propagation ] in
  check_int "one complemented edge left" 1 (Mig.num_complemented_edges g');
  check_bool "equivalent" true (functionally_equal g g')

(* psi.c removes a complemented edge: <x u <y !x z>> = <x u <y u z>> *)
let test_psi_c_removes_complement () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let u = Mig.add_input g "u" in
  let y = Mig.add_input g "y" in
  let z = Mig.add_input g "z" in
  let inner = Mig.maj g y (Mig.not_ x) z in
  let top = Mig.maj g x u inner in
  Mig.add_output g "f" top;
  check_int "one complemented edge" 1 (Mig.num_complemented_edges g);
  let g' = Recipe.run_pass g [ Axioms.complementary_associativity ] in
  check_int "edge removed" 0 (Mig.num_complemented_edges g');
  check_bool "equivalent" true (functionally_equal g g')

(* associativity commits only on free inner nodes and keeps the function *)
let test_associativity_directed () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let u = Mig.add_input g "u" in
  let y = Mig.add_input g "y" in
  let inner = Mig.maj g y u x in
  let top = Mig.maj g x u inner in
  Mig.add_output g "f" top;
  let g' = Recipe.run_pass g [ Axioms.associativity ] in
  check_bool "equivalent" true (functionally_equal g g')

let test_effort_zero_is_cleanup () =
  let g = random_mig 5 in
  let g' = Recipe.run Recipe.Algorithm1 ~effort:0 g in
  check_int "same size as cleanup" (Mig.size (Mig.cleanup g)) (Mig.size g')

let test_no_rewriting () =
  let g = random_mig 6 in
  let g' = Recipe.run Recipe.No_rewriting ~effort:5 g in
  check_int "untouched size" (Mig.size (Mig.cleanup g)) (Mig.size g');
  check_bool "equivalent" true (functionally_equal g g')

let test_recipe_names () =
  Alcotest.(check string) "none" "none" (Recipe.recipe_name Recipe.No_rewriting);
  Alcotest.(check string) "dac16" "dac16" (Recipe.recipe_name Recipe.Algorithm1);
  Alcotest.(check string) "endurance" "endurance" (Recipe.recipe_name Recipe.Algorithm2)

(* algorithms reduce AIG-expanded arithmetic circuits substantially *)
let test_formal_equivalence_wide () =
  (* complete BDD-based equivalence of the rewriting algorithms on a
     32-bit adder (64 inputs, beyond truth tables) *)
  let g = Plim_benchgen.Frontend.expand (Plim_benchgen.Arith.adder ~width:32) in
  let order = Plim_logic.Bdd.interleave 2 32 in
  let g1 = Recipe.run Recipe.Algorithm1 ~effort:3 g in
  let g2 = Recipe.run Recipe.Algorithm2 ~effort:3 g in
  check_bool "algorithm 1 formally equivalent" true
    (Plim_mig.Mig_bdd.equivalent ~order g g1);
  check_bool "algorithm 2 formally equivalent" true
    (Plim_mig.Mig_bdd.equivalent ~order g g2)

let test_reduction_on_adder () =
  let g = Plim_benchgen.Frontend.expand (Plim_benchgen.Arith.adder ~width:8) in
  let before = Mig.size g in
  let g1 = Recipe.run Recipe.Algorithm1 ~effort:5 g in
  let g2 = Recipe.run Recipe.Algorithm2 ~effort:5 g in
  check_bool "alg1 reduces" true (Mig.size g1 < before);
  check_bool "alg2 reduces" true (Mig.size g2 < before);
  check_bool "alg1 equivalent" true (functionally_equal g g1);
  check_bool "alg2 equivalent" true (functionally_equal g g2)

(* --- fixpoint exit -------------------------------------------------------- *)

let fixpoint_recipes = [ Recipe.Algorithm1; Recipe.Algorithm2 ]
let max_effort = 6

(* Reference loop: always runs every cycle.  Element [e - 1] is the
   cleaned-up graph after [e] cycles, for e = 1..max_effort. *)
let reference_runs recipe g =
  let rec go e g acc =
    if e > max_effort then List.rev acc
    else
      let g = Recipe.cycle recipe g in
      go (e + 1) g (Mig.cleanup g :: acc)
  in
  go 1 g []

(* [Recipe.run] stops at the first cycle that changes nothing; it must
   return exactly what running all [effort] cycles returns. *)
let fixpoint_mismatch g =
  List.find_map
    (fun recipe ->
      List.find_map
        (fun (effort, expected) ->
          if Mig.equal (Recipe.run recipe ~effort g) expected then None
          else Some (Printf.sprintf "%s at effort %d" (Recipe.recipe_name recipe) effort))
        (List.mapi (fun i r -> (i + 1, r)) (reference_runs recipe g)))
    fixpoint_recipes

let check_fixpoint_exit name g =
  match fixpoint_mismatch g with
  | None -> ()
  | Some where -> Alcotest.failf "%s: early exit differs from the full loop (%s)" name where

let test_fixpoint_exit_suite () =
  List.iter
    (fun spec -> check_fixpoint_exit spec.Suite.name (Suite.build_cached spec))
    Suite.small_suite

let test_fixpoint_exit_corpus () =
  let entries = Corpus.entries "corpus" in
  check_bool "corpus found" true (entries <> []);
  List.iter (fun (file, g) -> check_fixpoint_exit file g) entries

let fixpoint_exit_random =
  QCheck.Test.make ~count:100 ~name:"early exit = full loop on random MIGs"
    (Gen.arbitrary ()) (fun d ->
      match fixpoint_mismatch (Gen.to_mig d) with
      | None -> true
      | Some where -> QCheck.Test.fail_reportf "differs: %s" where)

(* --- cross-commit pin ---------------------------------------------------- *)

(* Digests of the text form of [Recipe.run ~effort:5] on the suite
   circuits the benchmark compiles, recorded before the rewriter's fast
   path (fixpoint exit, monomorphic strash, input index) went in.  Any
   change to these graphs changes every downstream cost row. *)
let pinned_digests =
  [
    ("voter", "alg1", "01c2e58dbb77b12084ebc7fb0dd49ebc");
    ("voter", "alg2", "59c9a3d8ac0330f34e5f564c0ae9c26a");
    ("adder", "alg1", "c894d01d19d2a8073c264f1240b371f4");
    ("adder", "alg2", "0f3241424125d47bd66ae78891b80b72");
    ("bar", "alg1", "5b2d828be26fcd01d426d58e85959022");
    ("bar", "alg2", "206f13d760a7afea30293beae2c0e4d5");
    ("max", "alg1", "f4c7f40df8daf3314be749e28024c3ba");
    ("max", "alg2", "414ee993f306d21fd15bb48b632b6917");
    ("cavlc", "alg1", "ecf74ea597b918d2f68ac2fb8df0df6c");
    ("cavlc", "alg2", "51b50b260f8e51ec3f77ce3192236d55");
    ("ctrl", "alg1", "8926167d36813d236f1a68435e5843cf");
    ("ctrl", "alg2", "200a0f2e69e393c82260a65792c56fd7");
    ("dec", "alg1", "354c11f094e5108941688720a2a27f8f");
    ("dec", "alg2", "354c11f094e5108941688720a2a27f8f");
    ("i2c", "alg1", "bab126fd23525fc4c5db8a5f20af757f");
    ("i2c", "alg2", "67e9e914b9e2016275b7b182b7f6afd3");
    ("int2float", "alg1", "32792a4f9ac9c0ea77d95d446d3fa935");
    ("int2float", "alg2", "808d013e9ab01463b97e5aade4b9d249");
    ("priority", "alg1", "4c2277709b0f77b55ddbd3c3bec3d685");
    ("priority", "alg2", "d564a483d62e9b6766b03b905cc6ba1e");
    ("router", "alg1", "7c9f73746cc5878efc417ba41c6fa303");
    ("router", "alg2", "7e09613fb4f3e8b4dab90a8efd4a6cf8")
  ]

let test_pinned_digests () =
  List.iter
    (fun (name, recipe_label, expected) ->
      let recipe = if recipe_label = "alg1" then Recipe.Algorithm1 else Recipe.Algorithm2 in
      let g = Recipe.run recipe ~effort:5 (Suite.build_cached (Suite.find name)) in
      Alcotest.(check string)
        (Printf.sprintf "%s %s" name recipe_label)
        expected
        (Digest.to_hex (Digest.string (Mig_io.to_string g))))
    pinned_digests

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rewrite"
    [ ( "soundness",
        [ qc distributivity_preserves;
          qc associativity_preserves;
          qc psi_c_preserves;
          qc inverter_preserves;
          qc all_rules_preserve;
          qc algorithm1_preserves;
          qc algorithm2_preserves ] );
      ( "invariants",
        [ qc inverter_invariant; qc never_grows ] );
      ( "directed",
        [ Alcotest.test_case "distributivity collapse" `Quick test_distributivity_collapse;
          Alcotest.test_case "inverter flip" `Quick test_inverter_flip;
          Alcotest.test_case "psi.c removes complement" `Quick test_psi_c_removes_complement;
          Alcotest.test_case "associativity" `Quick test_associativity_directed;
          Alcotest.test_case "effort 0" `Quick test_effort_zero_is_cleanup;
          Alcotest.test_case "no rewriting" `Quick test_no_rewriting;
          Alcotest.test_case "recipe names" `Quick test_recipe_names;
          Alcotest.test_case "formal equivalence, 32-bit adder" `Quick
            test_formal_equivalence_wide;
          Alcotest.test_case "reduces adder (AIG form)" `Quick test_reduction_on_adder ] );
      ( "fixpoint",
        [ Alcotest.test_case "small suite, effort 1..6" `Quick test_fixpoint_exit_suite;
          Alcotest.test_case "corpus, effort 1..6" `Quick test_fixpoint_exit_corpus;
          qc fixpoint_exit_random;
          Alcotest.test_case "pinned effort-5 digests" `Quick test_pinned_digests ] ) ]
