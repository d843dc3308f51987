(* The repository benchmark: one workload per invocation.

     main.exe --workload compile|serve --seed N --seconds S --trace 0|1

   Set-up is sampled before every pass and reports its median.  The
   workload's pass repeats until S seconds have elapsed (at least three
   times).  A pass is a fixed sequence of timed units (one rewrite of one
   circuit, one served batch); [run_s] sums each unit's fastest repeat
   and, like [setup_s], is scaled to a reference host speed.  On a shared host,
   other tenants slow the machine down in episodes of seconds to minutes;
   the fastest of repeats spread over the whole run is the estimate that
   short episodes move least, and the scaling removes the rest.

   Outputs are checked outside the timed units; a failed check counts in
   [failed] and makes the exit code 1.  Metric lines go to stdout for
   reading; the last stdout line is one JSON object {correct, attempted,
   failed, metrics} holding the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1).

   Every layer is timed from here, around calls into the libraries'
   public functions.  A traced run alternates plain passes, which give
   the per-layer timings, with passes under [Profile], which give the
   in-program span totals, the Chrome trace and the tracing overhead.
   The serve workload's traced run also measures the lifetime layers
   (horizon, certify, par) on the bench horizon grid. *)

module Suite = Plim_benchgen.Suite
module Mig = Plim_mig.Mig
module Recipe = Plim_rewrite.Recipe
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module Analyze = Plim_analyze
module Geometry = Plim_geometry
module Crossbar = Plim_rram.Crossbar
module Controller = Plim_machine.Plim_controller
module Fault_model = Plim_fault.Fault_model
module Faulty = Plim_fault.Faulty
module Remap = Plim_fault.Remap
module Exec = Plim_fault.Exec
module Workload = Plim_serve.Workload
module Cache = Plim_serve.Cache
module Server = Plim_serve.Server
module Horizon = Plim_serve.Horizon
module Certify = Plim_certify
module Par = Plim_par
module Profile = Plim_obs.Profile
module Hgram = Plim_telemetry.Histogram
module Splitmix = Plim_util.Splitmix

(* ------------------------------------------------------------------ *)
(* Workload definitions *)

(* The paper's suite minus its seven slowest circuits: the five slowest
   arithmetic ones (div, log2, multiplier, square, sqrt), sin and
   mem_ctrl.  With sin and mem_ctrl a pass takes about 11 s instead of
   3 s, too few repeats within a run to outlast the host's slow
   stretches.  voter (1001 inputs) remains as the wide-input circuit.
   The list is fixed rather than drawn from the seed so that the code
   metrics compare across runs. *)
let compile_suite =
  [ "voter"; "adder"; "bar"; "max"; "cavlc"; "ctrl"; "dec"; "i2c"; "int2float";
    "priority"; "router" ]

let caps = [ 10; 20; 50; 100 ]
let geometry_cols = [ 1; 4; 16; 64 ]
let verify_trials = 4
let serve_requests = 20_000
let serve_batch = 32
let lifetime_jobs = 2
let lifetime_rates = [ 0.0; 0.005; 0.02 ]
let lifetime_rounds = 3

let min_repeats = 3

(* Set-up samples taken before each pass.  A count, not a duration, so
   that the work done before a pass does not depend on the host's
   speed. *)
let setup_samples = 5

(* Spans the libraries record ([Profile.totals] names).  A span a
   workload does not reach reports 0. *)
let span_names =
  [ "analyze.program"; "machine.run"; "pipeline.compile";
    "pipeline.compile_rewritten"; "pipeline.outputs"; "pipeline.place_inputs";
    "pipeline.rewrite"; "pipeline.select_setup"; "pipeline.translate";
    "rewrite.pass"; "rewrite.recipe" ]

let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("requests_per_s", "1/s");
    ("peak_rss_mb", "MB"); ("instructions", "count"); ("rram_cells", "count");
    ("max_cell_writes", "count"); ("lat_p50_cycles", "cycles");
    ("lat_p99_cycles", "cycles") ]

(* One global list: a workload reports 0 for the layers it does not
   exercise. *)
let per_layer =
  [ ("benchgen.build_s", "s"); ("rewrite.alg1_s", "s"); ("rewrite.alg2_s", "s");
    ("core.compile_s", "s"); ("core.verify_s", "s"); ("analyze.analyze_s", "s");
    ("geometry.schedule_s", "s"); ("rewrite.nodes_in", "count");
    ("rewrite.nodes_out", "count"); ("core.compiles", "count");
    ("geometry.groups", "count") ]
  @ List.concat_map
      (fun b ->
        [ ("rewrite.alg1_s." ^ b, "s"); ("rewrite.alg2_s." ^ b, "s");
          ("core.compile_s." ^ b, "s") ])
      compile_suite
  @ [ ("serve.generate_s", "s"); ("serve.batch_ms_p50", "ms");
      ("serve.batch_ms_tail", "ms"); ("serve.miss_batches_s", "s");
      ("machine.run_us", "us"); ("fault.exec_us", "us");
      ("serve.cache_hit_ratio", "share"); ("serve.executes", "count");
      ("serve.re_runs", "count"); ("serve.total_cycles", "cycles");
      ("fault.verify_reads", "count"); ("fault.retries", "count");
      ("fault.remaps", "count");
      ("horizon.cell_s_p50", "s"); ("horizon.cell_s_sum", "s");
      ("certify.cell_s_p50", "s"); ("certify.cell_s_sum", "s");
      ("par.speedup", "ratio"); ("certify.escapes", "count");
      ("horizon.sampled_epochs", "count"); ("trace.overhead_pct", "%") ]
  @ List.map (fun s -> ("span." ^ s ^ "_s", "s")) span_names

(* ------------------------------------------------------------------ *)
(* Measurement helpers *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile. *)
let quantile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sum = List.fold_left ( +. ) 0.0
let total = Array.fold_left ( +. ) 0.0

(* A pass yields its result and the time of each of its units, in a
   fixed order.  [typical] is each unit's fastest repeat.  Passes start
   from a compacted heap and repeat the same allocations, so collection
   work falls in the same units on every pass and stays in the minimum. *)
let typical passes =
  match passes with
  | [] -> [||]
  | (_, u) :: _ ->
    Array.mapi (fun i _ -> List.fold_left (fun m (_, u) -> Float.min m u.(i)) infinity passes) u

(* The process's own high-water resident set, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The high-water resident set after set-up and the first pass.  Later
   passes run in a heap shaped by the earlier ones, where the resident
   set creeps up by an amount that varies from run to run. *)
let first_pass_rss_mb = ref 0.0

(* The host's own speed.  On a shared host it changes by 10% to 20%
   from one minute to the next, and the fastest repeat of a unit moves
   with it.  Over six compile runs in a row, the quartile spread of the
   unscaled [run_s] was 20%; of the fastest of each run's repeats of a
   0.5-ms loop that stays in the first-level cache and allocates
   nothing, 12%; of their ratio, 5%.  So [setup_s] and [run_s] are scaled to a host that
   runs that loop in [reference_nominal_s]: multiplied by
   [reference_nominal_s] over the loop's fastest time in the run.  The
   loop shares no code or data with the program, so the scaling leaves
   every change to the program in the scaled times. *)
let reference_nominal_s = 500e-6
let reference_samples = 5

(* A fixed permutation of 2048 slots (16 KB) to chase through. *)
let reference_slots =
  let a = Array.init 2048 Fun.id in
  let s = ref 12345 in
  for i = Array.length a - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let reference_loop () =
  let p = ref 0 and acc = ref 0 in
  for _ = 1 to 300_000 do
    p := reference_slots.(!p);
    acc := ((!acc * 31) + !p) land 0xffffff
  done;
  !acc

let reference_times = ref []

let sample_reference () =
  for _ = 1 to reference_samples do
    let t0 = now () in
    ignore (Sys.opaque_identity (reference_loop ()));
    reference_times := (now () -. t0) :: !reference_times
  done

(* The end-to-end times of a run, scaled to the reference host, after a
   line with the reference loop's fastest time and the unscaled times. *)
let time_metrics ~setup_s ~run_s ~requests =
  let fastest = List.fold_left Float.min infinity !reference_times in
  Printf.printf "reference loop %.1f us (fastest of %d); unscaled setup_s %.6f s, run_s %.6f s\n"
    (fastest *. 1e6) (List.length !reference_times) setup_s run_s;
  let scale = reference_nominal_s /. fastest in
  [ ("setup_s", setup_s *. scale); ("run_s", run_s *. scale);
    ("requests_per_s", float_of_int requests /. (run_s *. scale)) ]

(* Repeat [f] until [seconds] have elapsed and it has run [min_repeats]
   times, running [before] and sampling the reference loop ahead of each
   repeat.  Each repeat starts from a compacted heap, so none pays for
   collecting earlier garbage. *)
let for_seconds ~before seconds f =
  let t0 = now () in
  let rec loop n acc =
    before ();
    sample_reference ();
    Gc.compact ();
    let acc = f () :: acc in
    if n = 0 then first_pass_rss_mb := peak_rss_mb ();
    if n + 1 < min_repeats || now () -. t0 < seconds then loop (n + 1) acc
    else List.rev acc
  in
  loop 0 []

(* Set-up samples.  [make] runs once for the environment the passes
   use, then again [setup_samples] times before every pass, each of
   those environments thrown away.  Each sample starts from a
   compacted heap, so none pays for another's garbage.  Spread over the
   whole run, the samples see the host's fast and slow stretches in the
   proportion the run saw them; [setup_s] is their median. *)
type 'env setup = {
  env : 'env;
  resample : unit -> unit;
  times : float list ref;
}

let setup make =
  let times = ref [] in
  let sample () =
    Gc.compact ();
    let env, dt = timed make in
    times := dt :: !times;
    env
  in
  let resample () =
    for _ = 1 to setup_samples do
      ignore (sample ())
    done
  in
  { env = sample (); resample; times }

let setup_s s = median !(s.times)

let profiled f =
  Profile.reset ();
  Profile.enable ();
  let r = Fun.protect ~finally:Profile.disable f in
  (r, Profile.totals ())

(* Tracing off: plain passes of [pass] only.  Tracing on: rounds of a
   plain pass and a pass under [Profile].  Returns (plain passes,
   profiled passes, span totals of each profiled pass). *)
let passes ~setup ~trace seconds pass =
  let before = setup.resample in
  if not trace then (for_seconds ~before seconds pass, [], [])
  else begin
    let rounds =
      for_seconds ~before seconds (fun () ->
          let p = pass () in
          (p, profiled pass))
    in
    ( List.map fst rounds,
      List.map (fun (_, (p, _)) -> p) rounds,
      List.map (fun (_, (_, t)) -> t) rounds )
  end

let span_metrics totals_per_pass =
  List.map
    (fun s ->
      ( "span." ^ s ^ "_s",
        median
          (List.map
             (fun totals ->
               match List.assoc_opt s totals with
               | Some (_, secs) -> secs
               | None -> 0.0)
             totals_per_pass) ))
    span_names

(* The spans of the last profiled pass, for chrome://tracing or
   ui.perfetto.dev. *)
let write_chrome_trace workload =
  let dir = "perfbench/out" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir (workload ^ ".trace.json") in
  let oc = open_out path in
  output_string oc (Profile.to_chrome_json ());
  close_out oc;
  Printf.printf "chrome trace: %s\n" path

let overhead_pct ~plain ~profiled =
  ((total (typical profiled) /. total (typical plain)) -. 1.0) *. 100.0

type report = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* Code metrics of the programs a workload runs: #I, #R and the highest
   static per-cell write count. *)
let code_metrics programs =
  let count f = float_of_int (List.fold_left (fun a p -> a + f p) 0 programs) in
  [ ("instructions", count Program.length); ("rram_cells", count Program.num_cells);
    ( "max_cell_writes",
      float_of_int
        (List.fold_left
           (fun a p -> Array.fold_left max a (Program.static_write_counts p))
           0 programs) ) ]

(* Simulated cycles of one execution, over the programs. *)
let static_latency programs =
  let cycles = List.map (fun p -> float_of_int (Controller.static_cycles p)) programs in
  [ ("lat_p50_cycles", quantile 0.5 cycles); ("lat_p99_cycles", quantile 0.99 cycles) ]

let fresh_program name =
  let graph = (Suite.find name).Suite.build () in
  { Workload.label = name; graph; digest = Cache.digest_of graph }

(* ------------------------------------------------------------------ *)
(* compile: the paper's evaluation pipeline at -j 1 *)

type compiled = {
  bench : string;
  layers : string list;
      (* the layer of each timed unit, in order: alg1, alg2, then one unit
         per configuration compiled, per program analyzed and per grid
         scheduled *)
  full : Program.t;  (* the endurance-full program *)
  signatures : (string * (int * int * int array)) list;
      (* per configuration: #I, #R and per-cell writes, which must repeat
         exactly across passes *)
  nodes_in : int;
  nodes_out : int;
  groups : int;
  failures : (string * string) list;  (* configuration, reason *)
  verify_s : float;
}

(* One circuit through the pipeline.  With [verify_seed], every program
   is also checked on the machine after the timed units, so that no pass
   has to keep its programs alive for checking later. *)
let compile_bench ?verify_seed (bench, g) =
  let g1, alg1_s = timed (fun () -> Recipe.run Recipe.Algorithm1 ~effort:5 g) in
  let g2, alg2_s = timed (fun () -> Recipe.run Recipe.Algorithm2 ~effort:5 g) in
  let jobs =
    [ (g, Pipeline.naive); (g1, Pipeline.dac16); (g1, Pipeline.min_write);
      (g2, Pipeline.endurance_rewrite); (g2, Pipeline.endurance_full) ]
    @ List.map (fun cap -> (g2, Pipeline.with_cap cap Pipeline.endurance_full)) caps
  in
  (* one unit per call: short units let a unit's fastest repeat catch
     the host's short fast stretches *)
  let each f xs = List.split (List.map (fun x -> timed (fun () -> f x)) xs) in
  let results, compile_s =
    each (fun (graph, config) -> Pipeline.compile_rewritten config graph) jobs
  in
  let analyses, analyze_s =
    each
      (fun r ->
        Analyze.analyze ?max_writes:r.Pipeline.config.Pipeline.max_write r.Pipeline.program)
      results
  in
  let programs =
    List.map (fun r -> (Pipeline.config_name r.Pipeline.config, r.Pipeline.program)) results
  in
  let full = List.assoc "endurance-full" programs in
  (* per grid: the number of instruction groups, or why scheduling failed *)
  let schedules, schedule_s =
    each
      (fun cols ->
        let grid = Geometry.grid_for ~cols ~num_cells:(Program.num_cells full) in
        Result.bind (Geometry.schedule grid full) (fun s ->
            Result.map (fun () -> Geometry.num_groups s) (Geometry.validate full s)))
      geometry_cols
  in
  let analyzer_errors =
    List.concat
      (List.map2
         (fun (config, _) a ->
           if config = "endurance-full" then
             List.map (fun d -> (config, Analyze.diagnostic_to_string d)) (Analyze.errors a)
           else [])
         programs analyses)
  in
  let verify_failures, verify_s =
    match verify_seed with
    | None -> ([], 0.0)
    | Some seed ->
      timed (fun () ->
          List.concat
            (List.mapi
               (fun i (config, p) ->
                 let seed = Splitmix.derive seed (Hashtbl.hash (bench, i)) in
                 match Verify.check_random ~trials:verify_trials ~seed g p with
                 | Ok () -> []
                 | Error e -> [ (config, e) ])
               programs))
  in
  let units =
    [ ("alg1", alg1_s); ("alg2", alg2_s) ]
    @ List.concat_map
        (fun (layer, ts) -> List.map (fun t -> (layer, t)) ts)
        [ ("compile", compile_s); ("analyze", analyze_s); ("schedule", schedule_s) ]
  in
  ( { bench; full; layers = List.map fst units;
      signatures =
        List.map
          (fun (config, p) ->
            (config, (Program.length p, Program.num_cells p, Program.static_write_counts p)))
          programs;
      nodes_in = 2 * Mig.size g; nodes_out = Mig.size g1 + Mig.size g2;
      groups = List.fold_left (fun a r -> a + Result.value r ~default:0) 0 schedules;
      failures =
        analyzer_errors
        @ List.filter_map
            (function Ok _ -> None | Error e -> Some ("endurance-full", e))
            schedules
        @ verify_failures;
      verify_s },
    List.map snd units )

let run_compile ~seed ~seconds ~trace =
  let setup =
    setup (fun () -> List.map (fun name -> (name, (Suite.find name).Suite.build ())) compile_suite)
  in
  let graphs = setup.env in
  (* the first pass also verifies its programs, outside its timed units *)
  let verified = ref false in
  let pass () =
    let verify_seed = if !verified then None else Some seed in
    verified := true;
    let cs, units = List.split (List.map (compile_bench ?verify_seed) graphs) in
    (cs, Array.of_list (List.concat units))
  in
  let plain, profiled, totals = passes ~setup ~trace seconds pass in
  if trace then write_chrome_trace "compile";
  let first = fst (List.hd plain) in
  (* every pass must reproduce the first pass's programs *)
  let drifted =
    List.concat_map
      (fun (cs, _) ->
        List.concat
          (List.map2
             (fun a b ->
               List.filter_map
                 (fun ((config, x), (_, y)) ->
                   if x = y then None else Some (a.bench, config, "differs between passes"))
                 (List.combine a.signatures b.signatures))
             first cs))
      (plain @ profiled)
  in
  let failures =
    List.concat_map (fun c -> List.map (fun (config, e) -> (c.bench, config, e)) c.failures) first
    @ drifted
  in
  List.iter (fun (b, config, e) -> Printf.printf "FAIL %s/%s: %s\n" b config e) failures;
  let count f = List.fold_left (fun a c -> a + f c) 0 first in
  let attempted = count (fun c -> List.length c.signatures) in
  let failed =
    List.length (List.sort_uniq compare (List.map (fun (b, config, _) -> (b, config)) failures))
  in
  let per_unit = typical plain in
  let run_s = total per_unit in
  (* per unit: its circuit and its layer *)
  let labels = List.concat_map (fun c -> List.map (fun l -> (c.bench, l)) c.layers) first in
  let units_where keep =
    sum
      (List.filter_map
         (fun (label, t) -> if keep label then Some t else None)
         (List.combine labels (Array.to_list per_unit)))
  in
  let layer u = units_where (fun (_, l) -> l = u) in
  let unit_s bench u = units_where (fun (b, l) -> b = bench && l = u) in
  let full = List.map (fun c -> c.full) first in
  let metrics =
    if trace then
      [ ("benchgen.build_s", setup_s setup); ("rewrite.alg1_s", layer "alg1");
        ("rewrite.alg2_s", layer "alg2"); ("core.compile_s", layer "compile");
        ("core.verify_s", sum (List.map (fun c -> c.verify_s) first));
        ("analyze.analyze_s", layer "analyze"); ("geometry.schedule_s", layer "schedule");
        ("rewrite.nodes_in", float_of_int (count (fun c -> c.nodes_in)));
        ("rewrite.nodes_out", float_of_int (count (fun c -> c.nodes_out)));
        ("core.compiles", float_of_int attempted);
        ("geometry.groups", float_of_int (count (fun c -> c.groups)));
        ("trace.overhead_pct", overhead_pct ~plain ~profiled) ]
      @ List.concat_map
          (fun name ->
            [ ("rewrite.alg1_s." ^ name, unit_s name "alg1");
              ("rewrite.alg2_s." ^ name, unit_s name "alg2");
              ("core.compile_s." ^ name, unit_s name "compile") ])
          compile_suite
      @ span_metrics totals
    else
      time_metrics ~setup_s:(setup_s setup) ~run_s ~requests:attempted
      @ code_metrics full @ static_latency full
  in
  { attempted; failed; metrics }

(* ------------------------------------------------------------------ *)
(* lifetime layers: the horizon strategy x fault-rate grid, certified.
   Measured in the serve workload's traced run, on a fresh 2-domain pool
   for the pooled grids and on one domain for the per-cell timings. *)

(* The bench horizon configuration with its mix built afresh, once as
   is and once exec-only. *)
let lifetime_configs () =
  let base = Horizon.default_config in
  let mix =
    { base.Horizon.mix with
      Workload.programs =
        List.map (fun (p : Workload.program) -> fresh_program p.Workload.label)
          base.Horizon.mix.Workload.programs }
  in
  let base = { base with Horizon.mix } in
  [ ("default", base);
    ("exec-only", { base with Horizon.mix = { mix with Workload.compile_ratio = 0.0 } }) ]

(* One grid on the pool: per simulated cell its row (which must repeat
   exactly) and why it fails a check, if it does; then the times of the
   simulation and of the certification. *)
let lifetime_grid ~fault_seed pool (mix_name, cfg) =
  let strategies = Horizon.all_strategies in
  let cells, grid_s =
    timed (fun () -> Horizon.grid ~pool ~fault_seed cfg ~strategies ~fault_rates:lifetime_rates)
  in
  let lifetime = function Some e -> e | None -> infinity in
  let find st rate =
    List.find (fun (s, r, _) -> s = st && r = rate) cells |> fun (_, _, r) -> r
  in
  let outcomes, cert_s =
    timed (fun () ->
        let certs = Certify.grid ~fault_seed cfg ~strategies ~fault_rates:lifetime_rates in
        List.map
          (fun (st, rate, r) ->
            let escape =
              match Certify.find certs (Horizon.label r) with
              | None -> Some "no certificate"
              | Some c -> Result.fold ~ok:(fun () -> None) ~error:Option.some (Certify.check_result c r)
            in
            (* the combined strategy must strictly outlive the unmanaged one *)
            let none = find Horizon.No_leveling rate in
            let short_lived =
              st = Horizon.Start_gap_wolfram
              && (lifetime r.Horizon.r_ttff <= lifetime none.Horizon.r_ttff
                 || lifetime r.Horizon.r_half_life <= lifetime none.Horizon.r_half_life)
            in
            let failure =
              match escape with
              | Some e -> Some e
              | None when short_lived -> Some "start_gap+wolfram does not outlive none"
              | None -> None
            in
            ( Horizon.row_json r,
              Option.map (Printf.sprintf "%s mix, %s: %s" mix_name (Horizon.label r)) failure ))
          cells)
  in
  (outcomes, [ grid_s; cert_s ])

(* Every cell simulated and certified on one domain, each timed.  Spans
   recorded under the pool over-count (a domain waiting in a join runs
   other tasks inside its open span), so the per-cell numbers come from
   this sequential pass, not from [Profile]. *)
let sequential_cells ~fault_seed configs =
  let cells =
    List.concat_map
      (fun cfg ->
        List.concat_map
          (fun strategy ->
            List.map
              (fun rate ->
                let c =
                  { cfg with
                    Horizon.strategy;
                    fault_spec = Horizon.spec_of_rate ~seed:fault_seed rate }
                in
                let r, horizon_s = timed (fun () -> Horizon.run c) in
                let cert, certify_s = timed (fun () -> Certify.certify ~fault_seed c) in
                ((r, Certify.check_result cert r), (horizon_s, certify_s)))
              lifetime_rates)
          Horizon.all_strategies)
      (List.map snd configs)
  in
  let results, times = List.split cells in
  (results, Array.of_list (List.concat_map (fun (h, c) -> [ h; c ]) times))

(* [lifetime_rounds] pooled rounds of both grids, then as many
   sequential rounds; each timing is its fastest round. *)
let lifetime_layers ~seed =
  let fault_seed = Splitmix.derive seed 1 in
  let configs = lifetime_configs () in
  let rounds f = List.init lifetime_rounds (fun _ -> Gc.compact (); f ()) in
  let pool = Par.create ~jobs:lifetime_jobs () in
  let pooled =
    Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () ->
        rounds (fun () ->
            let grids = List.map (lifetime_grid ~fault_seed pool) configs in
            (List.concat_map fst grids, Array.of_list (List.concat_map snd grids))))
  in
  let cells = rounds (fun () -> sequential_cells ~fault_seed configs) in
  let first = fst (List.hd pooled) in
  let rows = List.map fst first in
  (* every round, pooled or sequential, must reproduce the first one's rows *)
  let drifted =
    List.length (List.filter (fun (p, _) -> List.map fst p <> rows) pooled)
    + List.length
        (List.filter (fun (c, _) -> List.map (fun (r, _) -> Horizon.row_json r) c <> rows) cells)
  in
  if drifted > 0 then Printf.printf "FAIL: %d lifetime rounds differ from the first\n" drifted;
  let failures = List.filter_map snd first in
  List.iter (Printf.printf "FAIL %s\n") failures;
  let grids = typical pooled and seq = typical cells in
  let horizon_s = List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list seq) in
  let certify_s = List.filteri (fun i _ -> i mod 2 = 1) (Array.to_list seq) in
  let results = fst (List.hd cells) in
  ( List.length first,
    List.length failures + drifted,
    [ ("horizon.cell_s_p50", median horizon_s); ("horizon.cell_s_sum", sum horizon_s);
      ("certify.cell_s_p50", median certify_s); ("certify.cell_s_sum", sum certify_s);
      (* units per grid: simulation, certification *)
      ("par.speedup", sum horizon_s /. (grids.(0) +. grids.(2)));
      ( "certify.escapes",
        float_of_int (List.length (List.filter (fun (_, ok) -> Result.is_error ok) results)) );
      ( "horizon.sampled_epochs",
        float_of_int (List.fold_left (fun a (r, _) -> a + r.Horizon.r_sampled_epochs) 0 results) ) ] )

(* ------------------------------------------------------------------ *)
(* serve: closed-loop replay, one client submitting 32-request batches *)

let chunks n xs =
  let rec go acc batch k = function
    | [] -> List.rev (if batch = [] then acc else List.rev batch :: acc)
    | x :: rest when k = n -> go (List.rev batch :: acc) [ x ] 1 rest
    | x :: rest -> go acc (x :: batch) (k + 1) rest
  in
  go [] [] 0 xs

type served = {
  missed : bool list;  (* per batch: did it compile a cache miss *)
  summary : Server.summary;
  lat_p50 : int;
  lat_p99 : int;
}

(* Per-execution cost of the machine and of write-verify, over the first
   few distinct input vectors each program is served with. *)
let execution_costs cfg programs batches =
  let reps = 20 in
  let machine_s = ref 0.0 and exec_s = ref 0.0 and runs = ref 0 in
  List.iter
    (fun ((p : Workload.program), prog) ->
      let vectors =
        List.concat_map
          (List.filter_map (function
            | Workload.Execute { digest; inputs } when digest = p.Workload.digest -> Some inputs
            | _ -> None))
          batches
        |> List.sort_uniq compare
        |> List.filteri (fun i _ -> i < 4)
      in
      let n = Program.num_cells prog and spares = cfg.Server.cell_spares in
      let fx = Faulty.create ~spec:cfg.Server.fault_spec (Crossbar.create (n + spares)) in
      let rm = Remap.create ~spares ~lines:n () in
      List.iter
        (fun inputs ->
          for _ = 1 to reps do
            let (), m = timed (fun () -> ignore (Controller.run prog ~inputs)) in
            let (), e = timed (fun () -> ignore (Exec.run ~verify:true fx rm prog ~inputs)) in
            machine_s := !machine_s +. m;
            exec_s := !exec_s +. e;
            incr runs
          done)
        vectors)
    programs;
  let us t = t *. 1e6 /. float_of_int (max 1 !runs) in
  [ ("machine.run_us", us !machine_s); ("fault.exec_us", us !exec_s) ]

let run_serve ~seed ~seconds ~trace =
  let cfg =
    { Server.default_config with
      Server.fault_spec = Fault_model.make ~transient:1e-4 ~seed:(Splitmix.derive seed 1) ();
      seed = Splitmix.derive seed 2 }
  in
  let generate_times = ref [] in
  let setup =
    setup (fun () ->
        (* the bench "steady" mix over the small suite, built afresh *)
        let mix =
          { Workload.programs = List.map (fun s -> fresh_program s.Suite.name) Suite.small_suite;
            zipf = 1.1; hot_fraction = 0.8; hot_pool = 4; compile_ratio = 0.05 }
        in
        let stream, dt =
          timed (fun () ->
              Workload.generate ~seed:(Splitmix.derive seed 3) ~requests:serve_requests mix)
        in
        generate_times := dt :: !generate_times;
        (* each pass serves on a fresh server; this one times the creation *)
        ignore (Server.create cfg);
        (mix, chunks serve_batch stream))
  in
  let mix, batches = setup.env in
  let pass () =
    let server = Server.create cfg in
    let missed, times =
      List.split
        (List.map
           (fun batch ->
             let responses, dt = timed (fun () -> Server.run server batch) in
             ( List.exists
                 (function Server.Compiled { cached = false; _ } -> true | _ -> false)
                 responses,
               dt ))
           batches)
    in
    let lat = Server.latency server in
    ( { missed; summary = Server.summary server; lat_p50 = Hgram.p50 lat;
        lat_p99 = Hgram.p99 lat },
      Array.of_list times )
  in
  let plain, profiled, totals = passes ~setup ~trace seconds pass in
  if trace then write_chrome_trace "serve";
  let first = fst (List.hd plain) in
  let s = first.summary in
  let drifted = List.length (List.filter (fun (p, _) -> p <> first) (plain @ profiled)) in
  if drifted > 0 then Printf.printf "FAIL: %d passes differ from the first\n" drifted;
  if s.Server.incorrect + s.Server.rejected > 0 then
    Printf.printf "FAIL: %d incorrect, %d rejected\n" s.Server.incorrect s.Server.rejected;
  let lifetime_cells, lifetime_failed, lifetime_metrics =
    if trace then lifetime_layers ~seed else (0, 0, [])
  in
  let failed = s.Server.incorrect + s.Server.rejected + drifted + lifetime_failed in
  let per_unit = typical plain in
  let run_s = total per_unit in
  let programs =
    List.map
      (fun (p : Workload.program) ->
        (p, (Pipeline.compile cfg.Server.pipeline p.Workload.graph).Pipeline.program))
      mix.Workload.programs
  in
  let metrics =
    if trace then begin
      let batch_ms = List.map (fun t -> t *. 1e3) (Array.to_list per_unit) in
      let hits = s.Server.cache_hits and misses = s.Server.cache_misses in
      [ ("serve.generate_s", median !generate_times);
        ("serve.batch_ms_p50", median batch_ms);
        (* the highest nearest-rank percentile with 10 batches beyond it *)
        ("serve.batch_ms_tail", List.nth (sorted batch_ms) (max 0 (List.length batch_ms - 11)));
        ( "serve.miss_batches_s",
          sum (List.mapi (fun i m -> if m then per_unit.(i) else 0.0) first.missed) );
        ("serve.cache_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
        ("serve.executes", float_of_int s.Server.executes);
        ("serve.re_runs", float_of_int s.Server.re_runs);
        ("serve.total_cycles", float_of_int s.Server.total_cycles);
        ("fault.verify_reads", float_of_int s.Server.exec_stats.Exec.verify_reads);
        ("fault.retries", float_of_int s.Server.exec_stats.Exec.retries);
        ("fault.remaps", float_of_int s.Server.exec_stats.Exec.remaps);
        ("trace.overhead_pct", overhead_pct ~plain ~profiled) ]
      @ execution_costs cfg programs batches
      @ lifetime_metrics @ span_metrics totals
    end
    else
      time_metrics ~setup_s:(setup_s setup) ~run_s ~requests:s.Server.requests
      @ code_metrics (List.map snd programs)
      @ [ ("lat_p50_cycles", float_of_int first.lat_p50);
          ("lat_p99_cycles", float_of_int first.lat_p99) ]
  in
  { attempted = s.Server.requests + lifetime_cells; failed; metrics }

(* ------------------------------------------------------------------ *)
(* Command line and report *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref 0 in
  let usage = "main.exe --workload compile|serve --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME compile or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to repeat the timed pass (required)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match !workload with
    | "compile" -> run_compile
    | "serve" -> run_serve
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    Printf.eprintf "--trace must be 0 or 1\n";
    exit 2
  end;
  if !seconds < 1 then begin
    Printf.eprintf "--seconds must be given, at least 1\n%s\n" usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let r = run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace in
  let metrics = if trace then r.metrics else ("peak_rss_mb", !first_pass_rss_mb) :: r.metrics in
  let catalogue = if trace then per_layer else end_to_end in
  let value name = Option.value (List.assoc_opt name metrics) ~default:0.0 in
  List.iter
    (fun (name, unit) -> Printf.printf "%-28s %16.6f %s\n" name (value name) unit)
    catalogue;
  Printf.printf "%-28s %16.6f share (%d of %d failed)\n" "error_rate"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ","
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Plim_util.Jsonx.quote name)
              (json_number (value name)) (Plim_util.Jsonx.quote unit))
          catalogue));
  exit (if r.failed = 0 then 0 else 1)
