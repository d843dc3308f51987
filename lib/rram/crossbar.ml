module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

type t = {
  state : Bytes.t;                 (* 1 = LRS/logic 1 *)
  writes : int array;
  transitions : int array;
  failed : Bytes.t;
  budget : int;                    (* endurance; max_int = unlimited *)
  mutable observer : (cell:int -> writes:int -> unit) option;
  (* device traffic since the last [publish]: plain fields, so a cell
     access never touches the shared (atomic) metrics counters *)
  mutable reads : int;
  mutable counted_writes : int;
  mutable loads : int;
}

exception Cell_failed of int

let m_writes = Metrics.counter "crossbar.writes"
let m_reads = Metrics.counter "crossbar.reads"
let m_loads = Metrics.counter "crossbar.loads"
let m_failures = Metrics.counter "crossbar.cell_failures"

let create ?endurance n =
  if n < 0 then invalid_arg "Crossbar.create: negative size";
  { state = Bytes.make n '\000';
    writes = Array.make n 0;
    transitions = Array.make n 0;
    failed = Bytes.make n '\000';
    budget = Option.value endurance ~default:max_int;
    observer = None;
    reads = 0;
    counted_writes = 0;
    loads = 0 }

let publish t =
  if t.reads > 0 then Metrics.incr ~by:t.reads m_reads;
  if t.counted_writes > 0 then Metrics.incr ~by:t.counted_writes m_writes;
  if t.loads > 0 then Metrics.incr ~by:t.loads m_loads;
  t.reads <- 0;
  t.counted_writes <- 0;
  t.loads <- 0

let publishing t f = Fun.protect ~finally:(fun () -> publish t) f

let set_observer t obs = t.observer <- obs

let size t = Array.length t.writes

let check t i =
  if i < 0 || i >= size t then
    invalid_arg (Printf.sprintf "Crossbar: cell %d out of range (size %d)" i (size t))

let get t i = Bytes.unsafe_get t.state i <> '\000'

let read t i =
  check t i;
  t.reads <- t.reads + 1;
  get t i

let failed t i =
  check t i;
  Bytes.unsafe_get t.failed i <> '\000'

let peek t i =
  check t i;
  get t i

(* [i] is in range: every caller checks it first *)
let apply_write t i b =
  if Bytes.unsafe_get t.failed i <> '\000' then raise (Cell_failed i);
  let w = Array.unsafe_get t.writes i + 1 in
  Array.unsafe_set t.writes i w;
  t.counted_writes <- t.counted_writes + 1;
  (match t.observer with
   | Some f -> f ~cell:i ~writes:w
   | None -> ());
  if get t i <> b then
    Array.unsafe_set t.transitions i (Array.unsafe_get t.transitions i + 1);
  Bytes.unsafe_set t.state i (if b then '\001' else '\000');
  if Trace.enabled () then
    Trace.emit "crossbar.write" ~args:[ ("cell", Int i); ("value", Bool b); ("writes", Int w) ];
  if w >= t.budget then begin
    Bytes.unsafe_set t.failed i '\001';
    Metrics.incr m_failures;
    if Trace.enabled () then
      Trace.emit "crossbar.fail" ~args:[ ("cell", Int i); ("writes", Int w) ]
  end

let write t i b =
  check t i;
  apply_write t i b

let rm3 t ~p ~q i =
  check t i;
  let z = get t i in
  let nq = not q in
  apply_write t i ((p && nq) || (p && z) || (nq && z))

let load t i b =
  check t i;
  if Bytes.unsafe_get t.failed i <> '\000' then raise (Cell_failed i);
  t.loads <- t.loads + 1;
  Bytes.unsafe_set t.state i (if b then '\001' else '\000')

let writes t i =
  check t i;
  t.writes.(i)

let write_counts t = Array.copy t.writes

let total_writes t = Array.fold_left ( + ) 0 t.writes

let transitions t i =
  check t i;
  t.transitions.(i)

let transition_counts t = Array.copy t.transitions

let num_failed t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.failed;
  !n

let reset_counters t =
  Array.fill t.writes 0 (size t) 0;
  Array.fill t.transitions 0 (size t) 0
