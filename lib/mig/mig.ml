module Vec = Plim_util.Vec
module Truth_table = Plim_logic.Truth_table

type signal = int
(* packed: node id * 2 + (1 if complemented) *)

type node_kind =
  | Const
  | Input of int
  | Maj of signal * signal * signal

(* tag values in the [tag] vector *)
let tag_const = 0
let tag_input = 1
let tag_maj = 2

(* Structural hash table over sorted child triples.  It is only ever
   probed, never iterated, so its bucket order cannot reach any output. *)
module Strash = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((a : int), (b : int), (c : int)) (a', b', c') =
    a = a' && b = b' && c = c'

  let hash ((a : int), b, c) =
    let h = (a * 0x9E3779B1) + b in
    let h = (h * 0x85EBCA77) + c in
    (h lxor (h lsr 29)) land max_int
end)

type t = {
  tag : int Vec.t;
  c0 : int Vec.t; (* maj: child signal / input: PI index *)
  c1 : int Vec.t;
  c2 : int Vec.t;
  strash : int Strash.t;
  input_names : string Vec.t;
  input_index : (string, int) Hashtbl.t; (* name -> PI index; never iterated *)
  input_nodes : int Vec.t;       (* PI index -> node id *)
  outs : (string * signal) Vec.t;
}

(* {1 Signals} *)

let signal node complemented = (node lsl 1) lor (if complemented then 1 else 0)
let node_of s = s lsr 1
let is_complemented s = s land 1 = 1
let not_ s = s lxor 1
let ( ~: ) = not_
let signal_equal (a : signal) b = a = b
let false_ = signal 0 false
let true_ = signal 0 true
let is_const s = node_of s = 0

(* {1 Construction} *)

let create () =
  let g =
    { tag = Vec.create ~dummy:tag_const ();
      c0 = Vec.create ~dummy:0 ();
      c1 = Vec.create ~dummy:0 ();
      c2 = Vec.create ~dummy:0 ();
      strash = Strash.create 1024;
      input_names = Vec.create ~dummy:"" ();
      input_index = Hashtbl.create 64;
      input_nodes = Vec.create ~dummy:0 ();
      outs = Vec.create ~dummy:("", 0) () }
  in
  (* node 0: the constant *)
  ignore (Vec.push g.tag tag_const);
  ignore (Vec.push g.c0 0);
  ignore (Vec.push g.c1 0);
  ignore (Vec.push g.c2 0);
  g

let new_node g tag c0 c1 c2 =
  let id = Vec.push g.tag tag in
  ignore (Vec.push g.c0 c0);
  ignore (Vec.push g.c1 c1);
  ignore (Vec.push g.c2 c2);
  id

let has_input g name = Hashtbl.mem g.input_index name

let add_input g name =
  if has_input g name then
    invalid_arg (Printf.sprintf "Mig.add_input: duplicate input %S" name);
  let pi = Vec.push g.input_names name in
  Hashtbl.add g.input_index name pi;
  let id = new_node g tag_input pi 0 0 in
  ignore (Vec.push g.input_nodes id);
  signal id false

let sort3 a b c =
  let a, b = if a <= b then (a, b) else (b, a) in
  let b, c = if b <= c then (b, c) else (c, b) in
  let a, b = if a <= b then (a, b) else (b, a) in
  (a, b, c)

(* Ω.M on a sorted triple; [None] when no reduction applies. *)
let reduce a b c =
  if a = b then Some a
  else if b = c then Some b
  else if node_of a = node_of b then Some c (* x and !x *)
  else if node_of b = node_of c then Some a
  else None

let maj g a b c =
  let a, b, c = sort3 a b c in
  match reduce a b c with
  | Some s -> s
  | None ->
    (match Strash.find_opt g.strash (a, b, c) with
    | Some id -> signal id false
    | None ->
      let id = new_node g tag_maj a b c in
      Strash.add g.strash (a, b, c) id;
      signal id false)

let lookup g a b c =
  let a, b, c = sort3 a b c in
  match reduce a b c with
  | Some s -> Some s
  | None ->
    (match Strash.find_opt g.strash (a, b, c) with
    | Some id -> Some (signal id false)
    | None -> None)

let and_ g a b = maj g a b false_
let or_ g a b = maj g a b true_
let xor g a b = or_ g (and_ g a (not_ b)) (and_ g (not_ a) b)
let mux g s a b = or_ g (and_ g s a) (and_ g (not_ s) b)

let add_output g name s = ignore (Vec.push g.outs (name, s))

(* {1 Inspection} *)

let num_nodes g = Vec.length g.tag
let num_inputs g = Vec.length g.input_names
let num_outputs g = Vec.length g.outs

let kind g id =
  let tag = Vec.get g.tag id in
  if tag = tag_const then Const
  else if tag = tag_input then Input (Vec.get g.c0 id)
  else Maj (Vec.get g.c0 id, Vec.get g.c1 id, Vec.get g.c2 id)

let input_name g pi = Vec.get g.input_names pi
let input_signal g pi = signal (Vec.get g.input_nodes pi) false
let outputs g = Vec.to_array g.outs
let input_names g = Vec.to_array g.input_names

let vec_equal eq a b =
  let n = Vec.length a in
  n = Vec.length b
  &&
  let rec go i = i >= n || (eq (Vec.get a i) (Vec.get b i) && go (i + 1)) in
  go 0

(* The strash and the name index are functions of these vectors, so they
   need no comparison of their own. *)
let equal g g' =
  let int_eq (x : int) y = x = y in
  vec_equal int_eq g.tag g'.tag
  && vec_equal int_eq g.c0 g'.c0
  && vec_equal int_eq g.c1 g'.c1
  && vec_equal int_eq g.c2 g'.c2
  && vec_equal String.equal g.input_names g'.input_names
  && vec_equal
       (fun (n, (s : signal)) (n', s') -> s = s' && String.equal n n')
       g.outs g'.outs

let reachable g =
  let n = num_nodes g in
  let mark = Array.make n false in
  Vec.iter (fun (_, s) -> mark.(node_of s) <- true) g.outs;
  for id = n - 1 downto 0 do
    if mark.(id) && Vec.get g.tag id = tag_maj then begin
      mark.(node_of (Vec.get g.c0 id)) <- true;
      mark.(node_of (Vec.get g.c1 id)) <- true;
      mark.(node_of (Vec.get g.c2 id)) <- true
    end
  done;
  mark

let iter_reachable_maj g f =
  let mark = reachable g in
  for id = 0 to num_nodes g - 1 do
    if mark.(id) && Vec.get g.tag id = tag_maj then f id
  done

let size g =
  let n = ref 0 in
  iter_reachable_maj g (fun _ -> incr n);
  !n

let num_complemented_edges g =
  let n = ref 0 in
  iter_reachable_maj g (fun id ->
      let count s = if is_complemented s && not (is_const s) then incr n in
      count (Vec.get g.c0 id);
      count (Vec.get g.c1 id);
      count (Vec.get g.c2 id));
  !n

let levels g =
  let n = num_nodes g in
  let lv = Array.make n 0 in
  for id = 0 to n - 1 do
    if Vec.get g.tag id = tag_maj then begin
      let l s = lv.(node_of s) in
      lv.(id) <-
        1 + max (l (Vec.get g.c0 id)) (max (l (Vec.get g.c1 id)) (l (Vec.get g.c2 id)))
    end
  done;
  lv

let depth g =
  let lv = levels g in
  Vec.fold_left (fun acc (_, s) -> max acc lv.(node_of s)) 0 g.outs

let fanout_counts g =
  let counts = Array.make (num_nodes g) 0 in
  iter_reachable_maj g (fun id ->
      let bump s = counts.(node_of s) <- counts.(node_of s) + 1 in
      bump (Vec.get g.c0 id);
      bump (Vec.get g.c1 id);
      bump (Vec.get g.c2 id));
  counts

let output_refs g =
  let refs = Array.make (num_nodes g) 0 in
  Vec.iter (fun (_, s) -> refs.(node_of s) <- refs.(node_of s) + 1) g.outs;
  refs

let fanouts g =
  let lists = Array.make (num_nodes g) [] in
  iter_reachable_maj g (fun id ->
      let add s =
        let c = node_of s in
        match lists.(c) with
        | parent :: _ when parent = id -> () (* children are distinct after Ω.M *)
        | l -> lists.(c) <- id :: l
      in
      add (Vec.get g.c0 id);
      add (Vec.get g.c1 id);
      add (Vec.get g.c2 id));
  Array.map (fun l -> Array.of_list (List.rev l)) lists

(* {1 Evaluation} *)

let node_values g pi_values =
  if Array.length pi_values <> num_inputs g then
    invalid_arg "Mig.node_values: input arity mismatch";
  let n = num_nodes g in
  let values = Array.make n false in
  let value_of s = values.(node_of s) <> is_complemented s in
  for id = 0 to n - 1 do
    let tag = Vec.get g.tag id in
    if tag = tag_input then values.(id) <- pi_values.(Vec.get g.c0 id)
    else if tag = tag_maj then begin
      let a = value_of (Vec.get g.c0 id)
      and b = value_of (Vec.get g.c1 id)
      and c = value_of (Vec.get g.c2 id) in
      values.(id) <- (a && b) || (a && c) || (b && c)
    end
  done;
  values

let eval g pi_values =
  let values = node_values g pi_values in
  Array.map
    (fun (_, s) -> values.(node_of s) <> is_complemented s)
    (Vec.to_array g.outs)

let output_tables g =
  let ni = num_inputs g in
  if ni > Truth_table.max_vars then
    invalid_arg "Mig.output_tables: too many inputs for exhaustive tables";
  let n = num_nodes g in
  let tables = Array.make n (Truth_table.const_ ni false) in
  let mark = reachable g in
  Vec.iteri (fun pi id -> tables.(id) <- Truth_table.var ni pi) g.input_nodes;
  for id = 0 to n - 1 do
    if mark.(id) && Vec.get g.tag id = tag_maj then begin
      let table_of s =
        let tt = tables.(node_of s) in
        if is_complemented s then Truth_table.not_ tt else tt
      in
      tables.(id) <-
        Truth_table.maj
          (table_of (Vec.get g.c0 id))
          (table_of (Vec.get g.c1 id))
          (table_of (Vec.get g.c2 id))
    end
  done;
  Array.map
    (fun (_, s) ->
      let tt = tables.(node_of s) in
      if is_complemented s then Truth_table.not_ tt else tt)
    (Vec.to_array g.outs)

(* {1 Copying} *)

let map_rebuild g ~rule =
  let g' = create () in
  let map = Array.make (num_nodes g) false_ in
  Vec.iteri
    (fun pi id -> map.(id) <- add_input g' (Vec.get g.input_names pi))
    g.input_nodes;
  let remap s =
    let m = map.(node_of s) in
    if is_complemented s then not_ m else m
  in
  iter_reachable_maj g (fun id ->
      let a = remap (Vec.get g.c0 id)
      and b = remap (Vec.get g.c1 id)
      and c = remap (Vec.get g.c2 id) in
      map.(id) <- rule g' ~old_id:id a b c);
  Vec.iter (fun (name, s) -> add_output g' name (remap s)) g.outs;
  g'

let cleanup g = map_rebuild g ~rule:(fun g' ~old_id:_ a b c -> maj g' a b c)

let copy g = cleanup g
