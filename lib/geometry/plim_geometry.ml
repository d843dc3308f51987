(* Crossbar geometry: bounded rows x cols grid, row-major placement and
   row-parallel instruction grouping.  See the .mli for the model and
   its invariants.

   The scheduler is a plain list scheduler over the hazard DAG of the
   flat instruction stream.  Correctness leans on one structural fact:
   every hazard (RAW, WAW, WAR) between two instructions becomes an
   edge, so any two instructions that are simultaneously ready are
   hazard-free and may execute in the same group in either order.
   Grouping therefore only ever reorders independent instructions and
   the functional results stay byte-identical to the flat backend. *)

module Program = Plim_isa.Program
module Instruction = Plim_isa.Instruction
module Lazy_heap = Plim_util.Lazy_heap

type grid = { rows : int; cols : int }

let make ~rows ~cols =
  if rows < 1 || cols < 1 then
    Error (Printf.sprintf "geometry: bad grid %dx%d (both sides must be >= 1)" rows cols)
  else Ok { rows; cols }

let make_exn ~rows ~cols =
  match make ~rows ~cols with Ok g -> g | Error msg -> invalid_arg msg

let of_string s =
  match String.index_opt s 'x' with
  | None -> Error (Printf.sprintf "geometry: %S is not of the form ROWSxCOLS" s)
  | Some i -> (
    let rows = String.sub s 0 i in
    let cols = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt rows, int_of_string_opt cols) with
    | Some r, Some c -> make ~rows:r ~cols:c
    | _ -> Error (Printf.sprintf "geometry: %S is not of the form ROWSxCOLS" s))

let to_string g = Printf.sprintf "%dx%d" g.rows g.cols

let pp ppf g = Format.pp_print_string ppf (to_string g)

let area g = g.rows * g.cols

let grid_for ~cols ~num_cells =
  if cols < 1 then invalid_arg "Plim_geometry.grid_for: cols must be >= 1";
  if num_cells < 0 then invalid_arg "Plim_geometry.grid_for: negative num_cells";
  { rows = max 1 ((num_cells + cols - 1) / cols); cols }

let fits g ~num_cells = num_cells <= area g

let row_of g cell = cell / g.cols

let col_of g cell = cell mod g.cols

type schedule = {
  s_grid : grid;
  s_groups : int array array;
  s_cross_row : int;
}

(* Cells an instruction touches: Cell operands plus the destination
   (which RM3 both reads and writes). *)
let touched (i : Instruction.t) =
  let ops =
    List.filter_map
      (function Instruction.Const _ -> None | Instruction.Cell c -> Some c)
      [ i.Instruction.a; i.Instruction.b ]
  in
  i.Instruction.z :: ops

let reads = touched (* z is read-modify-write, so reads = touched *)

let write (i : Instruction.t) = i.Instruction.z

(* Does every touched cell of instruction [i] lie in row [r]? *)
let in_row g r i = List.for_all (fun c -> row_of g c = r) (touched i)

(* The single row of an instruction, or None if its cells span rows. *)
let home_row g i =
  match touched i with
  | [] -> assert false (* z is always present *)
  | c :: _ -> if in_row g (row_of g c) i then Some (row_of g c) else None

let schedule g (p : Program.t) =
  if not (fits g ~num_cells:(Program.num_cells p)) then
    Error
      (Printf.sprintf "geometry: program needs %d cells but grid %s has area %d"
         (Program.num_cells p) (to_string g) (area g))
  else begin
    let n = Array.length p.Program.instrs in
    let instr i = p.Program.instrs.(i) in
    (* hazard DAG: succs adjacency (possibly with duplicate edges; indeg
       counts every edge, and every edge is decremented exactly once) *)
    let succs = Array.make n [] in
    let indeg = Array.make n 0 in
    let add_edge u v =
      if u <> v then begin
        succs.(u) <- v :: succs.(u);
        indeg.(v) <- indeg.(v) + 1
      end
    in
    let last_write = Array.make (Program.num_cells p) (-1) in
    let readers_since = Array.make (Program.num_cells p) [] in
    for i = 0 to n - 1 do
      List.iter
        (fun c ->
          if last_write.(c) >= 0 then add_edge last_write.(c) i;
          readers_since.(c) <- i :: readers_since.(c))
        (reads (instr i));
      let z = write (instr i) in
      List.iter (fun r -> add_edge r i) readers_since.(z);
      last_write.(z) <- i;
      readers_since.(z) <- []
    done;
    (* list scheduling: the smallest ready instruction picks the group,
       which is every ready instruction confined to its row.  Ready
       instructions sit in a min-heap by index; those with a home row
       also sit in that row's bucket, so a group is one bucket. *)
    let home =
      Array.init n (fun i -> Option.value ~default:(-1) (home_row g (instr i)))
    in
    let rows_used = (Program.num_cells p + g.cols - 1) / g.cols in
    let buckets = Array.make (max 1 rows_used) [] in
    let heap = Lazy_heap.create ~capacity:n in
    let make_ready i =
      Lazy_heap.insert heap (i, 0, 0) i;
      if home.(i) >= 0 then buckets.(home.(i)) <- i :: buckets.(home.(i))
    in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then make_ready i
    done;
    let groups = ref [] in
    let cross_row = ref 0 in
    let scheduled = ref 0 in
    let rec drain () =
      match Lazy_heap.pop_min heap with
      | None -> ()
      | Some (_, first) ->
        let group =
          if home.(first) < 0 then begin
            incr cross_row;
            [| first |]
          end
          else begin
            let r = home.(first) in
            let members = Array.of_list buckets.(r) in
            buckets.(r) <- [];
            Array.sort Int.compare members;
            Array.iter (Lazy_heap.remove heap) members;
            members
          end
        in
        Array.iter
          (fun u ->
            List.iter
              (fun v ->
                indeg.(v) <- indeg.(v) - 1;
                if indeg.(v) = 0 then make_ready v)
              succs.(u))
          group;
        groups := group :: !groups;
        scheduled := !scheduled + Array.length group;
        drain ()
    in
    drain ();
    (* all hazard edges point forward in the flat stream, so the DAG is
       acyclic and list scheduling always drains it *)
    assert (!scheduled = n);
    Ok { s_grid = g; s_groups = Array.of_list (List.rev !groups); s_cross_row = !cross_row }
  end

let of_groups g (p : Program.t) groups =
  let n = Array.length p.Program.instrs in
  let cross_row = ref 0 in
  Array.iter
    (Array.iter (fun i ->
         if i >= 0 && i < n && home_row g p.Program.instrs.(i) = None then
           incr cross_row))
    groups;
  { s_grid = g;
    s_groups = Array.map Array.copy groups;
    s_cross_row = !cross_row }

let num_groups s = Array.length s.s_groups

let max_group_size s =
  Array.fold_left (fun acc g -> max acc (Array.length g)) 1 s.s_groups

let validate (p : Program.t) s =
  let ( let* ) = Result.bind in
  let g = s.s_grid in
  let n = Array.length p.Program.instrs in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* () =
    if fits g ~num_cells:(Program.num_cells p) then Ok ()
    else
      fail "area: %d cells exceed grid %s (area %d)" (Program.num_cells p)
        (to_string g) (area g)
  in
  (* permutation: every instruction index scheduled exactly once *)
  let group_of = Array.make n (-1) in
  let* () =
    try
      Array.iteri
        (fun gi members ->
          if Array.length members = 0 then failwith "empty group";
          Array.iter
            (fun i ->
              if i < 0 || i >= n then failwith (Printf.sprintf "index %d out of range" i);
              if group_of.(i) >= 0 then
                failwith (Printf.sprintf "instruction %d scheduled twice" i);
              group_of.(i) <- gi)
            members)
        s.s_groups;
      Array.iteri
        (fun i gi ->
          if gi < 0 then failwith (Printf.sprintf "instruction %d never scheduled" i))
        group_of;
      Ok ()
    with Failure m -> fail "coverage: %s" m
  in
  (* groups of two or more must be confined to one row *)
  let* () =
    let bad = ref None in
    Array.iteri
      (fun gi members ->
        if Array.length members > 1 && !bad = None then
          match home_row g p.Program.instrs.(members.(0)) with
          | None -> bad := Some gi
          | Some r ->
            if
              not
                (Array.for_all (fun i -> in_row g r p.Program.instrs.(i)) members)
            then bad := Some gi)
      s.s_groups;
    match !bad with
    | Some gi -> fail "row: group %d mixes rows (or contains a cross-row op)" gi
    | None -> Ok ()
  in
  (* hazard order: scanning the flat stream, every RAW/WAW/WAR pair must
     land in strictly increasing groups *)
  let* () =
    let last_write_group = Array.make (Program.num_cells p) (-1) in
    let max_reader_group = Array.make (Program.num_cells p) (-1) in
    let bad = ref None in
    for i = 0 to n - 1 do
      if !bad = None then begin
        let gi = group_of.(i) in
        let ins = p.Program.instrs.(i) in
        List.iter
          (fun c -> if gi <= last_write_group.(c) then bad := Some (i, c, "RAW"))
          (reads ins);
        let z = write ins in
        if gi <= max_reader_group.(z) then bad := Some (i, z, "WAR");
        List.iter
          (fun c -> max_reader_group.(c) <- max max_reader_group.(c) gi)
          (reads ins);
        last_write_group.(z) <- gi;
        max_reader_group.(z) <- gi
      end
    done;
    match !bad with
    | Some (i, c, kind) ->
      fail "hazard: instruction %d violates %s ordering on cell %d" i kind c
    | None -> Ok ()
  in
  let* () =
    if num_groups s <= n || n = 0 then Ok ()
    else fail "latency: %d groups exceed %d instructions" (num_groups s) n
  in
  Ok ()
