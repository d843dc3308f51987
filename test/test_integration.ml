(* End-to-end integration: generate -> (rewrite) -> compile -> execute on
   the crossbar machine -> compare against direct MIG evaluation, across
   the paper's configurations, on every circuit family of the suite. *)

module Mig = Plim_mig.Mig
module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module Stats = Plim_stats.Stats
module Lifetime = Plim_stats.Lifetime
module Controller = Plim_machine.Plim_controller
module Crossbar = Plim_rram.Crossbar

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let presets =
  [ Pipeline.naive;
    Pipeline.dac16;
    Pipeline.min_write;
    Pipeline.endurance_rewrite;
    Pipeline.endurance_full;
    Pipeline.with_cap 10 Pipeline.endurance_full ]

let test_small_suite_all_presets () =
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      List.iter
        (fun config ->
          let r = Pipeline.compile config g in
          match Verify.check_random ~trials:4 ~seed:0xF00 g r.Pipeline.program with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s under %s: %s" spec.Suite.name (Pipeline.config_name config) e)
        presets)
    Suite.small_suite

let test_cap_bounds_writes_on_suite () =
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      let r = Pipeline.compile (Pipeline.with_cap 10 Pipeline.endurance_full) g in
      let writes = Program.static_write_counts r.Pipeline.program in
      check_bool (spec.Suite.name ^ " cap respected") true
        (Array.for_all (fun w -> w <= 10) writes))
    Suite.small_suite

(* the headline claim, as a loose statistical property on small circuits:
   full endurance management beats the naive compiler on average *)
let test_stdev_improvement_direction () =
  let naive_total = ref 0.0 and full_total = ref 0.0 in
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      let sd config = (Pipeline.compile config g).Pipeline.write_summary.Stats.stdev in
      naive_total := !naive_total +. sd Pipeline.naive;
      full_total := !full_total +. sd Pipeline.endurance_full)
    Suite.small_suite;
  check_bool
    (Printf.sprintf "endurance-full %.1f < naive %.1f" !full_total !naive_total)
    true
    (!full_total < !naive_total)

(* Table-III direction: a tighter write cap costs devices but buys balance *)
let test_cap_tradeoff_direction () =
  let spec = Suite.find "sin" in
  let g = Recipe.run Recipe.Algorithm2 ~effort:2 (Suite.build_cached spec) in
  let at cap =
    let r = Pipeline.compile_rewritten (Pipeline.with_cap cap Pipeline.endurance_full) g in
    (Program.num_cells r.Pipeline.program, r.Pipeline.write_summary.Stats.stdev,
     r.Pipeline.write_summary.Stats.max)
  in
  let r10, sd10, mx10 = at 10 in
  let r100, sd100, mx100 = at 100 in
  check_bool "tighter cap uses more devices" true (r10 >= r100);
  check_bool "tighter cap balances better" true (sd10 <= sd100);
  check_bool "max bounded at 10" true (mx10 <= 10);
  check_bool "max bounded at 100" true (mx100 <= 100)

(* executing the compiled program on an endurance-limited crossbar:
   the balanced program must survive more executions *)
let test_lifetime_on_machine () =
  let spec = Suite.find "rc_small" in
  let g = spec.Suite.build () in
  let lifetime config =
    let r = Pipeline.compile config g in
    let writes = Program.static_write_counts r.Pipeline.program in
    (Lifetime.estimate ~endurance:1e10 writes).Lifetime.executions_to_first_failure
  in
  let naive = lifetime Pipeline.naive in
  let capped = lifetime (Pipeline.with_cap 10 Pipeline.endurance_full) in
  check_bool
    (Printf.sprintf "capped lifetime %.2e >= naive %.2e" capped naive)
    true (capped >= naive)

(* dynamic execution on a real endurance budget: the naive program kills a
   cell while the balanced one finishes *)
let test_wearout_execution () =
  let spec = Suite.find "div8" in
  let g = spec.Suite.build () in
  let naive = (Pipeline.compile Pipeline.naive g).Pipeline.program in
  let budget =
    (* pick a budget between the balanced and naive max write counts *)
    let balanced =
      (Pipeline.compile (Pipeline.with_cap 10 Pipeline.endurance_full) g).Pipeline.program
    in
    let naive_max = Array.fold_left max 0 (Program.static_write_counts naive) in
    let bal_max = Array.fold_left max 0 (Program.static_write_counts balanced) in
    check_bool "naive concentrates more writes" true (naive_max > bal_max);
    (naive_max + bal_max) / 2
  in
  let inputs = Array.map (fun (name, _) -> (name, false)) naive.Program.pi_cells in
  check_bool "naive wears out mid-run" true
    (try
       ignore (Controller.run ~endurance:budget naive ~inputs:(Array.to_list inputs));
       false
     with Plim_rram.Crossbar.Cell_failed _ -> true)

(* cross-check machine cycle accounting on a compiled program *)
let test_cycle_accounting () =
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let r = Pipeline.compile Pipeline.endurance_full g in
  let p = r.Pipeline.program in
  let inputs = Array.to_list (Array.map (fun (n, _) -> (n, true)) p.Program.pi_cells) in
  let _, xbar, stats = Controller.run p ~inputs in
  check_int "instructions executed" (Program.length p) stats.Controller.instructions;
  let reads =
    Array.fold_left
      (fun acc (i : Plim_isa.Instruction.t) ->
        let op = function Plim_isa.Instruction.Cell _ -> 1 | Plim_isa.Instruction.Const _ -> 0 in
        acc + op i.Plim_isa.Instruction.a + op i.Plim_isa.Instruction.b)
      0 p.Program.instrs
  in
  check_int "cycles = reads + writes" (reads + Program.length p) stats.Controller.cycles;
  (* dynamic counts equal the static profile *)
  Alcotest.(check (array int)) "dynamic = static" (Program.static_write_counts p)
    (Crossbar.write_counts xbar)

(* assembly round-trip of a fully compiled benchmark still verifies *)
let test_asm_roundtrip_executes () =
  let g = Plim_benchgen.Arith.multiplier ~width:4 in
  let r = Pipeline.compile Pipeline.min_write g in
  let p' = Plim_isa.Asm.of_string (Plim_isa.Asm.to_string r.Pipeline.program) in
  match Verify.check_random ~trials:8 g p' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "roundtripped program: %s" e

(* rewriting effort monotonicity: more effort never increases size *)
let test_effort_monotone () =
  let g = Plim_benchgen.Frontend.expand (Plim_benchgen.Arith.adder ~width:8) in
  let s1 = Mig.size (Recipe.run Recipe.Algorithm2 ~effort:1 g) in
  let s5 = Mig.size (Recipe.run Recipe.Algorithm2 ~effort:5 g) in
  check_bool "effort 5 <= effort 1 size" true (s5 <= s1)

(* --- byte pin of every library JSON emitter -------------------------------

   Digests of each emitter's output for fixed deterministic inputs,
   recorded on the commit before the emitters moved from hand-spliced
   strings to Plim_util.Json values.  Any change to a field, its order
   or its number format shows up here as a digest mismatch. *)

module Json = Plim_util.Json
module H = Plim_serve.Horizon
module C = Plim_certify
module Server = Plim_serve.Server
module Workload = Plim_serve.Workload
module Hgram = Plim_telemetry.Histogram
module Wear = Plim_telemetry.Wear
module Metrics = Plim_obs.Metrics
module Campaign = Plim_machine.Campaign
module Fault_model = Plim_fault.Fault_model
module Report = Plim_telemetry.Report
module I = Plim_isa.Instruction

let report_base =
  {|{"schema":"plim-bench/v2","benchmarks":[
{"name":"a\"b","configs":[{"config":"naive","instructions":100,"rram_cells":10,"writes":{"total":100,"max":9,"stdev":1.5,"p50":3,"p90":7,"p99":9},"skew":{"gini":0.25,"max_mean":1.8},"storage":{"total_span":400,"max_span":40},"dead_writes":0},{"config":"gone","instructions":5}]}],
"serve":[{"label":"steady","latency":{"p50":40,"p99":90},"total_cycles":5000,"fleet":{"gini":0.1,"max_mean":1.2},"cache_misses":4,"incorrect":0,"rejected":0}],
"horizon":[{"label":"none/r0","capacity_loss":0.5,"dead_shards":1,"skew":{"gini":0.3,"max_mean":2},"sampled_epochs":12}],
"cert":[{"label":"none/r0","writes_upper":1000,"rate_cell_upper":0.125,"overhead":1}],
"geometry":[{"benchmark":"adder8","config":"endurance-full","grid":"8x8","groups":50,"cross_row":3,"max_group":4,"instructions":90}]}|}

(* one cost regression per row kind, a zero-baseline growth, two
   improvements, a vanished and a new row, and three new metrics *)
let report_cur =
  {|{"schema":"plim-bench/v2","benchmarks":[
{"name":"a\"b","configs":[{"config":"naive","instructions":130,"rram_cells":10,"writes":{"total":100,"max":7,"stdev":1.5,"p50":3,"p90":7,"p99":9,"mean":1},"skew":{"gini":0.25,"max_mean":1.8},"storage":{"total_span":400,"max_span":40},"dead_writes":2},{"config":"fresh","instructions":5}]}],
"serve":[{"label":"steady","latency":{"p50":40,"p99":99},"total_cycles":5000,"groups":{"p50":3,"p99":5,"total":80},"fleet":{"gini":0.1,"max_mean":1.2},"cache_misses":4,"incorrect":0,"rejected":0}],
"horizon":[{"label":"none/r0","capacity_loss":0.25,"dead_shards":1,"skew":{"gini":0.3,"max_mean":2},"sampled_epochs":12}],
"cert":[{"label":"none/r0","writes_upper":1000,"rate_cell_upper":0.25,"overhead":1}],
"geometry":[{"benchmark":"adder8","config":"endurance-full","grid":"8x8","groups":50,"cross_row":3,"max_group":4,"instructions":90}]}|}

(* computed once, by the first test of the binary: the metrics exposition
   lists every registered metric, so it must run before other tests
   register theirs *)
let artifacts =
  lazy
    (let text = Json.to_string in
     Metrics.reset ();
     let c = Metrics.counter "pin.count"
     and g = Metrics.gauge "pin.level"
     and h = Metrics.histogram "pin.hist" in
     Metrics.incr ~by:3 c;
     Metrics.set_gauge g 2.5;
     Metrics.observe_array h [| 1; 5; 40; 40; 900 |];
     let metrics = text (Metrics.to_json ()) in
     Metrics.reset ();
     let stream = Workload.generate ~seed:5 ~requests:30 Helpers.mix4 in
     let server, _ = Helpers.run_server Helpers.quiet_config stream in
     let gserver, _ =
       Helpers.run_server
         { Helpers.quiet_config with
           Server.geometry = Some (Result.get_ok (Plim_geometry.make ~rows:64 ~cols:16)) }
         stream
     in
     let hcfg =
       { H.default_config with
         H.mix = { Helpers.mix4 with Workload.compile_ratio = 0.0 };
         endurance = 5e4;
         sample_every = 500.0;
         max_epochs = 10_000.0 }
     in
     let strategies = [ H.No_leveling; H.Start_gap ] and fault_rates = [ 0.0; 0.02 ] in
     let cells = H.grid hcfg ~strategies ~fault_rates in
     let certs = C.grid hcfg ~strategies ~fault_rates in
     let p = Helpers.adder4_program () in
     (* cell 2 is written and never read: one dead-write diagnostic *)
     let dead =
       Program.make
         ~instrs:
           [| I.set_const true 1; I.set_const false 2;
              I.rm3 ~a:(I.Cell 0) ~b:(I.Const false) ~z:1 |]
         ~num_cells:3 ~pi_cells:[| ("a", 0) |] ~po_cells:[| ("y", 1) |]
     in
     let counts = Program.static_write_counts p in
     let d =
       let g = Suite.build_cached (Suite.find "dec4") in
       Campaign.run_degraded ~seed:0x7EAC ~max_executions:60 ~sample_every:10
         ~endurance:500 ~spares:4 ~verify:true
         ~fault_spec:(Fault_model.make ~transient:1e-3 ~seed:0x11 ())
         (Pipeline.compile Pipeline.endurance_full g).Pipeline.program
     in
     let report =
       match
         Report.compare_json ~threshold_pct:2.0 ~baseline_path:"base.json"
           ~current_path:"cur.json" (Json.parse_exn report_base)
           (Json.parse_exn report_cur)
       with
       | Ok c -> text (Report.to_json c)
       | Error e -> failwith e
     in
     let lines = String.concat "\n" in
     let first l = match l with (_, _, x) :: _ -> x | [] -> assert false in
     [ ("serve row", text (Server.row_json server ~label:"pin" ~wall_s:0.0));
       ("serve row geometry", text (Server.row_json gserver ~label:"pin/g" ~wall_s:0.0));
       ("fleet heatmap", text (Server.fleet_heatmap_json server));
       ( "horizon rows",
         lines
           (List.map (fun (_, _, r) -> H.row_json r) cells
           @ [ H.row_json ~label:"x/exec" (first cells) ]) );
       ( "cert rows",
         lines
           (List.map (fun (_, _, c) -> text (C.row_json c)) certs
           @ [ text (C.row_json ~label:"x/exec" (first certs)) ]) );
       ( "lint",
         lines
           [ text (Plim_analyze.to_json ~source:"adder4" p (Plim_analyze.analyze p));
             text (Plim_analyze.to_json ~source:"dead" dead (Plim_analyze.analyze dead)) ] );
       ("histogram", text (Hgram.to_json (Hgram.of_array counts)));
       ( "wear heatmap",
         lines
           [ text (Wear.heatmap_json ~label:"pin \"q\"" counts);
             text (Wear.heatmap_json ~width:7 ~label:"w7" counts) ] );
       ("trajectory", text (Campaign.trajectory_json d.Campaign.trajectory));
       ("metrics", metrics);
       ("report", report) ])

let pinned =
  [ ("serve row", "fb0bf69e4830281b0d7737ec30ef791c");
    ("serve row geometry", "413c94aa485c54118723f574a4be0766");
    ("fleet heatmap", "0350c23fd7ff1f9e33fb2441797451ba");
    ("horizon rows", "06ab3874a03987e2de0088c1bfc27e37");
    ("cert rows", "fbc8c444bf849584442e1cf224e75849");
    ("lint", "827b223dd24234c918e8304f07558a0b");
    ("histogram", "ced85980b4260b8c60a46fba63d67602");
    ("wear heatmap", "a37bb457de9dff24950aa7bd73bfadae");
    ("trajectory", "b40259f264844656e1a12266bdd0ffca");
    ("metrics", "8eb6b94df64b36cbf0f6a05923fc2d0e");
    ("report", "4e8c7a7ca4dba77d01fcde1554040bda") ]

let pin_case (name, digest) =
  Alcotest.test_case name `Quick (fun () ->
      let out = List.assoc name (Lazy.force artifacts) in
      Alcotest.(check string) (name ^ " digest") digest
        (Digest.to_hex (Digest.string out)))

let () =
  Alcotest.run "integration"
    [ ("json-pin", List.map pin_case pinned);
      ( "end-to-end",
        [ Alcotest.test_case "small suite x all presets" `Slow test_small_suite_all_presets;
          Alcotest.test_case "cap bounds writes" `Quick test_cap_bounds_writes_on_suite;
          Alcotest.test_case "stdev improvement direction" `Slow
            test_stdev_improvement_direction;
          Alcotest.test_case "cap trade-off direction" `Slow test_cap_tradeoff_direction;
          Alcotest.test_case "lifetime estimate" `Quick test_lifetime_on_machine;
          Alcotest.test_case "wear-out during execution" `Quick test_wearout_execution;
          Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
          Alcotest.test_case "assembly roundtrip executes" `Quick test_asm_roundtrip_executes;
          Alcotest.test_case "rewriting effort monotone" `Quick test_effort_monotone ] ) ]
