module Program = Plim_isa.Program
module I = Plim_isa.Instruction
module Metrics = Plim_obs.Metrics
module Crossbar = Plim_rram.Crossbar

type stats = {
  verify_reads : int;
  detections : int;
  remaps : int;
  retries : int;
}

let zero_stats = { verify_reads = 0; detections = 0; remaps = 0; retries = 0 }

let add_stats a b =
  { verify_reads = a.verify_reads + b.verify_reads;
    detections = a.detections + b.detections;
    remaps = a.remaps + b.remaps;
    retries = a.retries + b.retries }

type outcome = Completed of (string * bool) list | Out_of_spares of int

exception Pool_dry of int

let m_verify_reads = Metrics.counter "fault.verify_reads"
let m_detections = Metrics.counter "fault.detections"

let run ?(verify = false) ?(max_retries = 2) ?(reset = true) fx rm (p : Program.t)
    ~inputs =
  if Remap.lines rm < p.Program.num_cells then
    invalid_arg "Exec.run: remap table smaller than the program's cell count";
  if Remap.num_physical rm > Faulty.size fx then
    invalid_arg "Exec.run: crossbar smaller than the remap table's physical space";
  let verify_reads = ref 0
  and detections = ref 0
  and remaps = ref 0
  and retries = ref 0 in
  (* Re-deposit the intended value on physical line [pa]: a load for
     scrub and input deposits, a plain write for RM3 results. *)
  let redeposit ~load pa v = if load then Faulty.load fx pa v else Faulty.write fx pa v in
  (* Write-verify after the raw operation on logical line [l]: read back,
     rewrite in place up to [max_retries] times, then retire the line onto
     a spare and re-verify there.  Allocation-free on the common path. *)
  let rec settle ~load l intended tries =
    incr verify_reads;
    let pa = Remap.physical rm l in
    if Faulty.read fx pa <> intended then
      if tries < max_retries then begin
        incr retries;
        redeposit ~load pa intended;
        settle ~load l intended (tries + 1)
      end
      else begin
        incr detections;
        match Remap.retire rm l with
        | None -> raise (Pool_dry l)
        | Some spare ->
          incr remaps;
          redeposit ~load spare intended;
          settle ~load l intended 0
      end
  in
  let verified_load l v =
    Faulty.load fx (Remap.physical rm l) v;
    if verify then settle ~load:true l v 0
  in
  (* Input-binding validation mirrors Plim_controller.run and happens before
     any array operation, so a bad binding never consumes spares. *)
  let bound = Hashtbl.create 16 in
  List.iter
    (fun (name, v) ->
      if Hashtbl.mem bound name then
        invalid_arg (Printf.sprintf "Exec.run: duplicate input %S" name);
      Hashtbl.add bound name v)
    inputs;
  let pi_values =
    Array.map
      (fun (name, cell) ->
        match Hashtbl.find_opt bound name with
        | Some v ->
          Hashtbl.remove bound name;
          (cell, v)
        | None -> invalid_arg (Printf.sprintf "Exec.run: missing input %S" name))
      p.Program.pi_cells
  in
  if Hashtbl.length bound > 0 then invalid_arg "Exec.run: unknown extra inputs";
  let operand = function
    | I.Const v -> v
    | I.Cell c -> Faulty.read fx (Remap.physical rm c)
  in
  let instrs = p.Program.instrs in
  let outcome =
    Crossbar.publishing (Faulty.base fx) @@ fun () ->
    try
      (* power-on reset / scrub: compiled programs assume all-HRS state *)
      if reset then
        for l = 0 to p.Program.num_cells - 1 do
          verified_load l false
        done;
      Array.iter (fun (cell, v) -> verified_load cell v) pi_values;
      (* instruction stream *)
      for k = 0 to Array.length instrs - 1 do
        let instr = instrs.(k) in
        let a = operand instr.I.a in
        let b = operand instr.I.b in
        let l = instr.I.z in
        if verify then begin
          let intended = I.semantics ~a ~b ~z:(Faulty.read fx (Remap.physical rm l)) in
          Faulty.rm3 fx ~p:a ~q:b (Remap.physical rm l);
          settle ~load:false l intended 0
        end
        else Faulty.rm3 fx ~p:a ~q:b (Remap.physical rm l)
      done;
      Completed
        (Array.to_list
           (Array.map
              (fun (name, cell) -> (name, Faulty.read fx (Remap.physical rm cell)))
              p.Program.po_cells))
    with Pool_dry l -> Out_of_spares l
  in
  (* verify traffic reaches the shared counters once per run *)
  if !verify_reads > 0 then Metrics.incr ~by:!verify_reads m_verify_reads;
  if !detections > 0 then Metrics.incr ~by:!detections m_detections;
  ( outcome,
    { verify_reads = !verify_reads;
      detections = !detections;
      remaps = !remaps;
      retries = !retries } )
