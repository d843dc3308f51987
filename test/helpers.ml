(* Shared fixtures for the test suite.

   Everything here is deterministic: fixed seeds, fixed suite prefixes,
   fixed configs.  Modules not listed in the [names] field of test/dune
   are linked into every test executable, so these fixtures are available
   as [Helpers.*] without any stanza changes. *)

module I = Plim_isa.Instruction
module Program = Plim_isa.Program
module Pipeline = Plim_core.Pipeline
module Controller = Plim_machine.Plim_controller
module Workload = Plim_serve.Workload
module Server = Plim_serve.Server
module Suite = Plim_benchgen.Suite

(* substring check for JSON-shape assertions *)
let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- tiny hand-written programs ---------------------------------------- *)

(* NOT gate: z := 1; RM3(0, a, z) -> <0, !a, 1> = !a *)
let not_program () =
  Program.make
    ~instrs:[| I.set_const true 1; I.rm3 ~a:(I.Const false) ~b:(I.Cell 0) ~z:1 |]
    ~num_cells:2 ~pi_cells:[| ("a", 0) |] ~po_cells:[| ("y", 1) |]

(* COPY: z := 0; RM3(a, 0, z) -> <a, 1, 0> = a *)
let copy_program () =
  Program.make
    ~instrs:[| I.set_const false 1; I.rm3 ~a:(I.Cell 0) ~b:(I.Const false) ~z:1 |]
    ~num_cells:2 ~pi_cells:[| ("a", 0) |] ~po_cells:[| ("y", 1) |]

(* MAJ3 in place: cells a b z; RM3 needs !b available, so feed b
   complemented via a NOT into a temp first: full majority test *)
let maj_program () =
  Program.make
    ~instrs:
      [| I.set_const true 3;
         I.rm3 ~a:(I.Const false) ~b:(I.Cell 1) ~z:3; (* t := !b *)
         I.rm3 ~a:(I.Cell 0) ~b:(I.Cell 3) ~z:2 (* z <- <a, b, z> *) |]
    ~num_cells:4
    ~pi_cells:[| ("a", 0); ("b", 1); ("c", 2) |]
    ~po_cells:[| ("y", 2) |]

(* --- compiled 4-bit adder with a reference run -------------------------- *)

(* (program, inputs, reference outputs): one endurance_full compile shared
   by every test that needs a realistic program with a known-good answer *)
let adder4 =
  lazy
    (let g = Plim_benchgen.Arith.adder ~width:4 in
     let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
     let inputs =
       Array.to_list (Array.mapi (fun i (n, _) -> (n, i mod 3 <> 1)) p.Program.pi_cells)
     in
     let reference, _, _ = Controller.run p ~inputs in
     (p, inputs, reference))

let adder4_program () =
  let p, _, _ = Lazy.force adder4 in
  p

(* --- serve-layer fixtures ----------------------------------------------- *)

(* a small, fast program mix: the first four small-suite circuits *)
let specs4 = List.filteri (fun i _ -> i < 4) Suite.small_suite
let mix4 = Workload.mix_of_suite specs4

(* a small fleet with one spare, faults off, check on *)
let quiet_config =
  { Server.default_config with Server.shards = 3; spare_shards = 1; seed = 5 }

(* serve a stream on a fresh server, optionally on a [jobs]-wide pool *)
let run_server ?jobs cfg stream =
  let server = Server.create cfg in
  let responses =
    match jobs with
    | None -> Server.run server stream
    | Some jobs ->
      Plim_par.with_pool ~jobs (fun pool -> Server.run ~pool server stream)
  in
  (server, responses)

(* --- random ISA-level programs ------------------------------------------ *)

(* A random well-formed program written directly at the ISA level, no
   compiler involved: 2..12 cells, inputs and outputs bound to arbitrary
   (possibly shared) cells, up to 40 RM3s over constant and cell operands
   — including cells read before any write. *)
let random_program rng =
  let module Sm = Plim_util.Splitmix in
  let num_cells = 2 + Sm.int rng 11 in
  let operand () =
    if Sm.int rng 4 = 0 then I.Const (Sm.bool rng) else I.Cell (Sm.int rng num_cells)
  in
  let instrs =
    Array.init (Sm.int rng 41) (fun _ ->
        let a = operand () in
        let b = operand () in
        I.rm3 ~a ~b ~z:(Sm.int rng num_cells))
  in
  let bind prefix n = Array.init n (fun k -> (Printf.sprintf "%s%d" prefix k, Sm.int rng num_cells)) in
  let pi_cells = bind "x" (1 + Sm.int rng 4) in
  let po_cells = bind "y" (1 + Sm.int rng 3) in
  Program.make ~instrs ~num_cells ~pi_cells ~po_cells

let random_inputs rng (p : Program.t) =
  Array.to_list
    (Array.map (fun (name, _) -> (name, Plim_util.Splitmix.bool rng)) p.Program.pi_cells)
