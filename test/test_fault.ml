module Crossbar = Plim_rram.Crossbar
module Fault_model = Plim_fault.Fault_model
module Faulty = Plim_fault.Faulty
module Remap = Plim_fault.Remap
module Exec = Plim_fault.Exec
module Pipeline = Plim_core.Pipeline
module Program = Plim_isa.Program
module Controller = Plim_machine.Plim_controller

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- fault model -------------------------------------------------------- *)

let kinds_to_bools = List.map (fun (i, k) -> (i, k = Fault_model.Stuck_at_1))

let test_model_reproducible () =
  let spec = Fault_model.make ~sa0:0.05 ~sa1:0.05 ~seed:42 () in
  let s1 = Fault_model.sample_permanent spec ~cells:500 in
  let s2 = Fault_model.sample_permanent spec ~cells:500 in
  check_bool "some faults at 10%" true (List.length s1 > 0);
  Alcotest.(check (list (pair int bool)))
    "same spec, same faults" (kinds_to_bools s1) (kinds_to_bools s2);
  List.iter
    (fun (i, k) -> check_bool "cell_fault agrees" true (Fault_model.cell_fault spec i = Some k))
    s1;
  let other = Fault_model.make ~sa0:0.05 ~sa1:0.05 ~seed:43 () in
  check_bool "different seed, different faults" true
    (kinds_to_bools s1 <> kinds_to_bools (Fault_model.sample_permanent other ~cells:500))

let test_model_monotone () =
  (* coupled thresholds: doubling the rates only adds faults *)
  let spec = Fault_model.make ~sa0:0.02 ~sa1:0.01 ~seed:7 () in
  let low = Fault_model.sample_permanent spec ~cells:1000 in
  let high = Fault_model.sample_permanent (Fault_model.scale 2.0 spec) ~cells:1000 in
  check_bool "low rate faults survive scaling" true
    (List.for_all (fun (i, _) -> List.mem_assoc i high) low);
  check_bool "scaling adds faults" true (List.length high > List.length low)

let test_model_parse () =
  (match Fault_model.parse "sa0:0.01,sa1:0.005,transient:1e-4,growth:1e-6,seed:42" with
  | Ok s ->
    check_bool "sa0" true (s.Fault_model.sa0 = 0.01);
    check_bool "sa1" true (s.Fault_model.sa1 = 0.005);
    check_bool "transient" true (s.Fault_model.transient = 1e-4);
    check_bool "growth" true (s.Fault_model.transient_growth = 1e-6);
    check_int "seed" 42 s.Fault_model.seed
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault_model.parse "none" with
  | Ok s -> check_bool "none parses" true (Fault_model.is_none s)
  | Error e -> Alcotest.failf "parse none failed: %s" e);
  check_bool "junk rejected" true (Result.is_error (Fault_model.parse "sa2:0.1"));
  check_bool "bad rate rejected" true (Result.is_error (Fault_model.parse "sa0:1.5"))

(* --- faulty wrapper ----------------------------------------------------- *)

let test_injection_reproducible () =
  let spec = Fault_model.make ~sa0:0.04 ~sa1:0.04 ~seed:11 () in
  let fx1 = Faulty.create ~spec (Crossbar.create 300) in
  let fx2 = Faulty.create ~spec (Crossbar.create 300) in
  check_bool "nonempty" true (Faulty.injected fx1 > 0);
  Alcotest.(check (list (pair int bool)))
    "same wrapper faults" (Faulty.faulty_cells fx1) (Faulty.faulty_cells fx2)

let test_verify_detects_stuck () =
  (* a stuck cell is caught by read-back on the first conflicting write *)
  let faults =
    [ (1, Fault_model.Stuck_at_0); (3, Fault_model.Stuck_at_1);
      (6, Fault_model.Stuck_at_0) ]
  in
  let fx = Faulty.create ~faults (Crossbar.create 8) in
  check_int "all injected" 3 (Faulty.injected fx);
  List.iter
    (fun (i, kind) ->
      let conflicting = kind = Fault_model.Stuck_at_0 in
      Faulty.write fx i conflicting;
      check_bool "read-back exposes the fault" true (Faulty.read fx i <> conflicting))
    faults;
  check_int "all writes absorbed" 3 (Faulty.absorbed_writes fx);
  (* healthy cells pass read-back *)
  Faulty.write fx 0 true;
  check_bool "healthy read-back" true (Faulty.read fx 0)

let test_wearout_becomes_stuck () =
  (* endurance exhaustion degrades into a stuck-at fault instead of a
     Cell_failed crash *)
  let fx = Faulty.create (Crossbar.create ~endurance:2 2) in
  Faulty.write fx 0 true;
  Faulty.write fx 0 false;
  check_int "worn out" 1 (Faulty.worn_out fx);
  check_bool "stuck at last value" true (Faulty.stuck_at fx 0 = Some false);
  Faulty.write fx 0 true;   (* absorbed, no exception *)
  check_bool "still stuck" false (Faulty.read fx 0);
  check_bool "capacity halved" true (Faulty.capacity fx = 0.5)

(* --- fault-tolerant execution ------------------------------------------- *)

let adder4 = Helpers.adder4

let run_with ~faults ~spares ?spec () =
  let p, inputs, _ = Lazy.force adder4 in
  let rm = Remap.create ~spares ~lines:(Program.num_cells p) () in
  let base = Crossbar.create (Remap.num_physical rm) in
  let fx = Faulty.create ?spec ~faults base in
  Exec.run ~verify:true fx rm p ~inputs

let test_remap_preserves_results () =
  (* k stuck-at-LRS faults on program cells: the power-on scrub detects
     every one; with k spares the run completes correctly, with k - 1 the
     pool runs dry *)
  let _, _, reference = Lazy.force adder4 in
  for k = 0 to 3 do
    let faults = List.init k (fun i -> (i, Fault_model.Stuck_at_1)) in
    (match run_with ~faults ~spares:k () with
    | Exec.Completed outputs, stats ->
      Alcotest.(check (list (pair string bool)))
        (Printf.sprintf "correct with %d faults, %d spares" k k)
        reference outputs;
      check_int "every fault detected" k stats.Exec.detections;
      check_int "every detection repaired" k stats.Exec.remaps
    | Exec.Out_of_spares _, _ -> Alcotest.failf "pool dry with %d spares for %d faults" k k);
    if k > 0 then
      match run_with ~faults ~spares:(k - 1) () with
      | Exec.Out_of_spares _, stats ->
        check_int "partial repairs before exhaustion" (k - 1) stats.Exec.remaps
      | Exec.Completed _, _ ->
        Alcotest.failf "completed with %d faults but %d spares" k (k - 1)
  done

let test_faulty_spare_is_reverified () =
  (* the first spare handed out is itself stuck: repair must cascade to
     the next spare *)
  let p, _, reference = Lazy.force adder4 in
  let lines = Program.num_cells p in
  let faults = [ (0, Fault_model.Stuck_at_1); (lines, Fault_model.Stuck_at_1) ] in
  match run_with ~faults ~spares:2 () with
  | Exec.Completed outputs, stats ->
    Alcotest.(check (list (pair string bool))) "correct through faulty spare"
      reference outputs;
    check_int "both stuck lines detected" 2 stats.Exec.detections
  | Exec.Out_of_spares _, _ -> Alcotest.fail "pool dry despite a healthy second spare"

let test_transient_recovered_by_retry () =
  let _, _, reference = Lazy.force adder4 in
  let spec = Fault_model.make ~transient:0.2 ~seed:99 () in
  match run_with ~faults:[] ~spares:32 ~spec () with
  | Exec.Completed outputs, stats ->
    Alcotest.(check (list (pair string bool))) "correct despite transients"
      reference outputs;
    check_bool "retries happened" true (stats.Exec.retries > 0)
  | Exec.Out_of_spares _, _ -> Alcotest.fail "transients exhausted 32 spares"

let test_zero_fault_bit_identical () =
  (* no faults, verify off: the wrapped execution is indistinguishable
     from the bare controller — same outputs, same per-cell write counts *)
  let p, inputs, reference = Lazy.force adder4 in
  let rm = Remap.create ~lines:(Program.num_cells p) () in
  let base = Crossbar.create (Program.num_cells p) in
  let fx = Faulty.create base in
  (match Exec.run fx rm p ~inputs with
  | Exec.Completed outputs, stats ->
    Alcotest.(check (list (pair string bool))) "same outputs" reference outputs;
    check_int "no verify reads" 0 stats.Exec.verify_reads;
    check_int "no retries" 0 stats.Exec.retries
  | Exec.Out_of_spares _, _ -> Alcotest.fail "no faults, no spares needed");
  let _, xbar, _ = Controller.run p ~inputs in
  Alcotest.(check (array int)) "same write counts" (Crossbar.write_counts xbar)
    (Crossbar.write_counts base)

let test_oversized_remap_table () =
  (* a persistent shard's remap table outlives any one program: a table
     with more lines than the program has cells must execute identically,
     and a smaller table must still be refused *)
  let p, inputs, reference = Lazy.force adder4 in
  let lines = Program.num_cells p in
  let rm = Remap.create ~spares:2 ~lines:(lines + 16) () in
  let base = Crossbar.create (Remap.num_physical rm) in
  let fx = Faulty.create ~faults:[ (0, Fault_model.Stuck_at_1) ] base in
  (match Exec.run ~verify:true fx rm p ~inputs with
  | Exec.Completed outputs, stats ->
    Alcotest.(check (list (pair string bool))) "correct on oversized table"
      reference outputs;
    check_int "fault on a program line still repaired" 1 stats.Exec.remaps
  | Exec.Out_of_spares _, _ -> Alcotest.fail "spares available but pool dry");
  (* only the program's own lines are scrubbed or written *)
  let counts = Faulty.wear_counts fx in
  for l = lines to lines + 15 do
    check_int (Printf.sprintf "line %d beyond the program untouched" l) 0
      counts.(Remap.physical rm l)
  done;
  let small = Remap.create ~lines:(lines - 1) () in
  Alcotest.check_raises "undersized table refused"
    (Invalid_argument "Exec.run: remap table smaller than the program's cell count")
    (fun () ->
      let base = Crossbar.create (Remap.num_physical small) in
      ignore (Exec.run (Faulty.create base) small p ~inputs))

let qc = QCheck_alcotest.to_alcotest

(* property: under any injected fault set that fits in the spare budget,
   a verified run either completes with the reference outputs or runs out
   of spares — it never completes with wrong outputs *)
let verified_never_wrong =
  QCheck.Test.make ~count:50 ~name:"write-verify never completes incorrectly"
    QCheck.(pair (int_range 0 6) small_int)
    (fun (num_faults, seed) ->
      let p, _, reference = Lazy.force adder4 in
      let spec =
        Fault_model.make ~sa0:0.0 ~sa1:0.0 ~transient:0.05 ~seed ()
      in
      let faults =
        List.init num_faults (fun i ->
            ( (i * 7 + seed) mod Program.num_cells p,
              if (i + seed) mod 2 = 0 then Fault_model.Stuck_at_0
              else Fault_model.Stuck_at_1 ))
        |> List.sort_uniq compare
      in
      match run_with ~faults ~spares:num_faults ~spec () with
      | Exec.Completed outputs, _ -> outputs = reference
      | Exec.Out_of_spares _, _ -> true)

(* --- reference kernel oracle ---------------------------------------------- *)

module Splitmix = Plim_util.Splitmix
module Metrics = Plim_obs.Metrics
module I = Plim_isa.Instruction

(* Device traffic of the reference kernel, counted at every crossbar call
   the way the per-access metrics used to count it: an operation that
   raises [Cell_failed] is not counted. *)
type tally = { mutable reads : int; mutable writes : int; mutable loads : int }

(* The fault wrapper as it was before the allocation-free kernel: a
   stuck-at option per access, the transient probability recomputed on
   every write pulse and its draw taken as a float.  No metrics, no
   trace. *)
module Ref_faulty = struct
  type t = {
    base : Crossbar.t;
    stuck : Bytes.t;
    spec : Fault_model.spec;
    rng : Splitmix.t;
    tally : tally;
    injected : int;
    mutable num_stuck : int;
    mutable absorbed : int;
    mutable transients : int;
  }

  let create ~spec ~faults base =
    let n = Crossbar.size base in
    let stuck = Bytes.make n '\000' in
    let mark (i, kind) =
      Bytes.set stuck i
        (match kind with Fault_model.Stuck_at_0 -> '\001' | Fault_model.Stuck_at_1 -> '\002')
    in
    List.iter mark faults;
    List.iter mark (Fault_model.sample_permanent spec ~cells:n);
    let injected = ref 0 in
    Bytes.iter (fun c -> if c <> '\000' then incr injected) stuck;
    { base; stuck; spec;
      rng = Splitmix.create (spec.Fault_model.seed lxor 0x7F4A7C15);
      tally = { reads = 0; writes = 0; loads = 0 };
      injected = !injected; num_stuck = !injected; absorbed = 0; transients = 0 }

  let stuck_at t i =
    match Bytes.get t.stuck i with '\000' -> None | '\001' -> Some false | _ -> Some true

  let xread t i =
    let v = Crossbar.read t.base i in
    t.tally.reads <- t.tally.reads + 1;
    v

  let xwrite t i b =
    Crossbar.write t.base i b;
    t.tally.writes <- t.tally.writes + 1

  let read t i =
    match stuck_at t i with
    | Some v -> ignore (xread t i); v
    | None -> xread t i

  let mark_worn t i =
    if Bytes.get t.stuck i = '\000' then begin
      Bytes.set t.stuck i (if Crossbar.peek t.base i then '\002' else '\001');
      t.num_stuck <- t.num_stuck + 1
    end

  let absorb t = t.absorbed <- t.absorbed + 1

  let transient_fires t ~writes =
    let p = Fault_model.transient_probability t.spec ~writes in
    p > 0.0 && Splitmix.float t.rng < p

  let write t i b =
    match stuck_at t i with
    | Some _ -> absorb t
    | None ->
      let writes = Crossbar.writes t.base i in
      if transient_fires t ~writes then begin
        let prev = Crossbar.peek t.base i in
        if prev <> b then t.transients <- t.transients + 1;
        xwrite t i prev
      end
      else xwrite t i b;
      if Crossbar.failed t.base i then mark_worn t i

  let rm3 t ~p ~q i =
    match stuck_at t i with
    | Some _ -> absorb t
    | None ->
      let writes = Crossbar.writes t.base i in
      if transient_fires t ~writes then begin
        let prev = Crossbar.peek t.base i in
        if prev <> I.semantics ~a:p ~b:q ~z:prev then t.transients <- t.transients + 1;
        xwrite t i prev
      end
      else begin
        Crossbar.rm3 t.base ~p ~q i;
        t.tally.writes <- t.tally.writes + 1
      end;
      if Crossbar.failed t.base i then mark_worn t i

  let load t i b =
    match stuck_at t i with
    | Some _ -> absorb t
    | None -> (
      match Crossbar.load t.base i b with
      | () -> t.tally.loads <- t.tally.loads + 1
      | exception Crossbar.Cell_failed _ ->
        mark_worn t i;
        absorb t)

  let faulty_cells t =
    List.filter_map
      (fun i -> Option.map (fun v -> (i, v)) (stuck_at t i))
      (List.init (Crossbar.size t.base) Fun.id)
end

exception Ref_pool_dry of int

(* Exec.run as it was before the allocation-free kernel: a [put] and a
   [rewrite] closure allocated for every verified operation. *)
let ref_exec ?(verify = false) ?(max_retries = 2) ?(reset = true) fx rm (p : Program.t)
    ~inputs =
  let verify_reads = ref 0 and detections = ref 0 and remaps = ref 0 and retries = ref 0 in
  let verified l ~intended ~put ~rewrite =
    put (Remap.physical rm l);
    if verify then begin
      let rec check tries =
        incr verify_reads;
        let pa = Remap.physical rm l in
        if Ref_faulty.read fx pa <> intended then
          if tries < max_retries then begin
            incr retries;
            rewrite pa;
            check (tries + 1)
          end
          else begin
            incr detections;
            match Remap.retire rm l with
            | None -> raise (Ref_pool_dry l)
            | Some spare ->
              incr remaps;
              rewrite spare;
              check 0
          end
      in
      check 0
    end
  in
  let verified_load l v =
    verified l ~intended:v ~put:(fun pa -> Ref_faulty.load fx pa v)
      ~rewrite:(fun pa -> Ref_faulty.load fx pa v)
  in
  let pi_values =
    Array.map (fun (name, cell) -> (cell, List.assoc name inputs)) p.Program.pi_cells
  in
  let outcome =
    try
      if reset then
        for l = 0 to p.Program.num_cells - 1 do
          verified_load l false
        done;
      Array.iter (fun (cell, v) -> verified_load cell v) pi_values;
      let read_operand = function
        | I.Const v -> v
        | I.Cell c -> Ref_faulty.read fx (Remap.physical rm c)
      in
      Array.iter
        (fun (instr : I.t) ->
          let a = read_operand instr.I.a in
          let b = read_operand instr.I.b in
          let l = instr.I.z in
          if verify then begin
            let z = Ref_faulty.read fx (Remap.physical rm l) in
            let intended = I.semantics ~a ~b ~z in
            verified l ~intended
              ~put:(fun pa -> Ref_faulty.rm3 fx ~p:a ~q:b pa)
              ~rewrite:(fun pa -> Ref_faulty.write fx pa intended)
          end
          else Ref_faulty.rm3 fx ~p:a ~q:b (Remap.physical rm l))
        p.Program.instrs;
      Exec.Completed
        (Array.to_list
           (Array.map
              (fun (name, cell) -> (name, Ref_faulty.read fx (Remap.physical rm cell)))
              p.Program.po_cells))
    with Ref_pool_dry l -> Exec.Out_of_spares l
  in
  ( outcome,
    { Exec.verify_reads = !verify_reads; detections = !detections; remaps = !remaps;
      retries = !retries } )

let oracle_counters =
  [ "crossbar.reads"; "crossbar.writes"; "crossbar.loads"; "crossbar.cell_failures";
    "fault.verify_reads"; "fault.detections"; "fault.remaps"; "fault.absorbed_writes";
    "fault.transient_failures"; "fault.worn_stuck" ]

(* One random scenario: a random ISA program run 1..3 times on one wrapped
   crossbar by both kernels, from identical fault specs (sa0/sa1,
   transients with and without growth, optional endurance), explicit
   faults, spare budgets down to zero, verify on or off.  Everything
   observable must agree after every run, and the transient streams must
   end on the same next draw. *)
let compare_kernels seed =
  let rng = Splitmix.create seed in
  let pick xs = List.nth xs (Splitmix.int rng (List.length xs)) in
  let p = Helpers.random_program rng in
  let lines = Program.num_cells p in
  let spares = Splitmix.int rng 4 in
  let verify = Splitmix.int rng 4 > 0 in
  let reset = Splitmix.int rng 4 > 0 in
  let max_retries = Splitmix.int rng 4 in
  let endurance = if Splitmix.bool rng then None else Some (3 + Splitmix.int rng 30) in
  let spec =
    Fault_model.make ~sa0:(pick [ 0.0; 0.05; 0.2 ]) ~sa1:(pick [ 0.0; 0.05; 0.2 ])
      ~transient:(pick [ 0.0; 0.05; 0.3 ]) ~transient_growth:(pick [ 0.0; 0.0; 0.01 ])
      ~seed:(Splitmix.int rng 1_000_000) ()
  in
  let faults =
    List.init (Splitmix.int rng 3) (fun _ ->
        ( Splitmix.int rng (lines + spares),
          if Splitmix.bool rng then Fault_model.Stuck_at_0 else Fault_model.Stuck_at_1 ))
  in
  let fx = Faulty.create ~spec ~faults (Crossbar.create ?endurance (lines + spares)) in
  let rm = Remap.create ~spares ~lines () in
  let rfx = Ref_faulty.create ~spec ~faults (Crossbar.create ?endurance (lines + spares)) in
  let rrm = Remap.create ~spares ~lines () in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "seed %d: %s" seed m) fmt in
  let runs =
    List.init (1 + Splitmix.int rng 3) @@ fun run ->
      let inputs = Helpers.random_inputs rng p in
      let before = List.map Metrics.get oracle_counters in
      let outcome, stats = Exec.run ~verify ~max_retries ~reset fx rm p ~inputs in
      let delta = List.map2 (fun n b -> Metrics.get n - b) oracle_counters before in
      let r0 = { reads = rfx.Ref_faulty.tally.reads; writes = rfx.Ref_faulty.tally.writes;
                 loads = rfx.Ref_faulty.tally.loads }
      and failed0 = Crossbar.num_failed rfx.Ref_faulty.base
      and absorbed0 = rfx.Ref_faulty.absorbed
      and transients0 = rfx.Ref_faulty.transients
      and stuck0 = rfx.Ref_faulty.num_stuck
      and remaps0 = Remap.remaps rrm in
      let routcome, rstats = ref_exec ~verify ~max_retries ~reset rfx rrm p ~inputs in
      if outcome <> routcome then fail "run %d: outcomes differ" run;
      if stats <> rstats then fail "run %d: Exec.stats differ" run;
      let t = rfx.Ref_faulty.tally in
      let expected =
        [ t.reads - r0.reads; t.writes - r0.writes; t.loads - r0.loads;
          Crossbar.num_failed rfx.Ref_faulty.base - failed0; rstats.Exec.verify_reads;
          rstats.Exec.detections; Remap.remaps rrm - remaps0;
          rfx.Ref_faulty.absorbed - absorbed0; rfx.Ref_faulty.transients - transients0;
          rfx.Ref_faulty.num_stuck - stuck0 ]
      in
      List.iteri
        (fun k name ->
          if List.nth delta k <> List.nth expected k then
            fail "run %d: %s published %d, reference counted %d" run name (List.nth delta k)
              (List.nth expected k))
        oracle_counters;
      let base = Faulty.base fx and rbase = rfx.Ref_faulty.base in
      if Crossbar.write_counts base <> Crossbar.write_counts rbase then
        fail "run %d: wear differs" run;
      if Crossbar.transition_counts base <> Crossbar.transition_counts rbase then
        fail "run %d: transition counts differ" run;
      if List.init (Crossbar.size base) (Crossbar.peek base)
         <> List.init (Crossbar.size rbase) (Crossbar.peek rbase)
      then fail "run %d: cell states differ" run;
      if Faulty.faulty_cells fx <> Ref_faulty.faulty_cells rfx then
        fail "run %d: stuck cells differ" run;
      if Faulty.injected fx <> rfx.Ref_faulty.injected
         || Faulty.worn_out fx <> rfx.Ref_faulty.num_stuck - rfx.Ref_faulty.injected
         || Faulty.absorbed_writes fx <> rfx.Ref_faulty.absorbed
         || Faulty.transient_failures fx <> rfx.Ref_faulty.transients
      then fail "run %d: fault tallies differ" run;
      if List.init lines (Remap.physical rm) <> List.init lines (Remap.physical rrm)
         || Remap.spares_left rm <> Remap.spares_left rrm
      then fail "run %d: remap tables differ" run;
      (outcome, stats)
  in
  if Splitmix.next64 (Faulty.rng fx) <> Splitmix.next64 rfx.Ref_faulty.rng then
    fail "transient streams diverged";
  (spec, verify, fx, runs)

let kernel_oracle =
  QCheck.Test.make ~count:400 ~name:"exec kernel = reference kernel" QCheck.int
    (fun seed -> ignore (compare_kernels seed); true)

(* the oracle must reach every path it claims to cover *)
let test_oracle_coverage () =
  let seen = Hashtbl.create 8 in
  let note what b = if b then Hashtbl.replace seen what () in
  for seed = 0 to 399 do
    let spec, verify, fx, runs = compare_kernels seed in
    note "verify off" (not verify);
    note "growth" (spec.Fault_model.transient_growth > 0.0);
    note "transient failures" (Faulty.transient_failures fx > 0);
    note "worn out" (Faulty.worn_out fx > 0);
    note "absorbed" (Faulty.absorbed_writes fx > 0);
    List.iter
      (fun (outcome, stats) ->
        note "out of spares" (match outcome with Exec.Out_of_spares _ -> true | _ -> false);
        note "completed" (match outcome with Exec.Completed _ -> true | _ -> false);
        note "retries" (stats.Exec.retries > 0);
        note "remaps" (stats.Exec.remaps > 0))
      runs
  done;
  List.iter
    (fun what -> check_bool ("oracle scenarios reach: " ^ what) true (Hashtbl.mem seen what))
    [ "verify off"; "growth"; "transient failures"; "worn out"; "absorbed"; "out of spares";
      "completed"; "retries"; "remaps" ]

let () =
  Alcotest.run "fault"
    [ ( "fault-model",
        [ Alcotest.test_case "seeded sampling is reproducible" `Quick
            test_model_reproducible;
          Alcotest.test_case "fault sets are monotone in the rate" `Quick
            test_model_monotone;
          Alcotest.test_case "CLI spec parsing" `Quick test_model_parse ] );
      ( "faulty-wrapper",
        [ Alcotest.test_case "injection is reproducible" `Quick
            test_injection_reproducible;
          Alcotest.test_case "read-back exposes stuck cells" `Quick
            test_verify_detects_stuck;
          Alcotest.test_case "wear-out degrades to stuck-at" `Quick
            test_wearout_becomes_stuck ] );
      ( "fault-tolerant-exec",
        [ Alcotest.test_case "remap preserves results until spares exhausted" `Quick
            test_remap_preserves_results;
          Alcotest.test_case "faulty spares are re-verified" `Quick
            test_faulty_spare_is_reverified;
          Alcotest.test_case "transients recovered by retry" `Quick
            test_transient_recovered_by_retry;
          Alcotest.test_case "zero-fault wrapper is bit-identical" `Quick
            test_zero_fault_bit_identical;
          Alcotest.test_case "oversized remap table" `Quick
            test_oversized_remap_table;
          qc verified_never_wrong;
          Alcotest.test_case "reference oracle coverage" `Quick test_oracle_coverage;
          qc kernel_oracle ] ) ]
