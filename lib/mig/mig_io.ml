type sink = { char : char -> unit; string : string -> unit; int : int -> unit }

(* The one [.mig] text emitter: [to_string] drives it into a buffer, the
   serve cache into a streaming hash. *)
let emit sink g =
  let operand s =
    if Mig.is_complemented s then sink.char '~';
    sink.int (Mig.node_of s)
  in
  sink.string "mig\n";
  Array.iteri
    (fun pi name ->
      sink.string ".input ";
      sink.int (Mig.node_of (Mig.input_signal g pi));
      sink.char ' ';
      sink.string name;
      sink.char '\n')
    (Mig.input_names g);
  Mig.iter_reachable_maj g (fun id ->
      match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        sink.string ".node ";
        sink.int id;
        sink.char ' ';
        operand a;
        sink.char ' ';
        operand b;
        sink.char ' ';
        operand c;
        sink.char '\n'
      | Mig.Const | Mig.Input _ -> assert false);
  Array.iter
    (fun (name, s) ->
      sink.string ".output ";
      sink.string name;
      sink.char ' ';
      operand s;
      sink.char '\n')
    (Mig.outputs g)

let to_string g =
  let buf = Buffer.create 4096 in
  emit
    { char = Buffer.add_char buf;
      string = Buffer.add_string buf;
      int = (fun n -> Buffer.add_string buf (string_of_int n)) }
    g;
  Buffer.contents buf

let fail line msg = failwith (Printf.sprintf "Mig_io.of_string: line %d: %s" line msg)

let of_string text =
  let g = Mig.create () in
  (* old node id -> signal in the new graph *)
  let map = Hashtbl.create 256 in
  Hashtbl.add map 0 Mig.false_;
  let parse_operand line tok =
    let compl_, tok =
      if String.length tok > 0 && tok.[0] = '~' then
        (true, String.sub tok 1 (String.length tok - 1))
      else (false, tok)
    in
    let id = try int_of_string tok with Failure _ -> fail line "bad operand" in
    match Hashtbl.find_opt map id with
    | Some s -> if compl_ then Mig.not_ s else s
    | None -> fail line (Printf.sprintf "operand references unknown node %d" id)
  in
  let lines = String.split_on_char '\n' text in
  let lineno = ref 0 in
  let header_seen = ref false in
  List.iter
    (fun raw ->
      incr lineno;
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else if not !header_seen then
        if line = "mig" then header_seen := true
        else fail !lineno "expected 'mig' header"
      else
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ ".input"; id; name ] ->
          let id = try int_of_string id with Failure _ -> fail !lineno "bad input id" in
          if Mig.has_input g name then
            fail !lineno (Printf.sprintf "duplicate input %S" name);
          Hashtbl.replace map id (Mig.add_input g name)
        | [ ".node"; id; a; b; c ] ->
          let id = try int_of_string id with Failure _ -> fail !lineno "bad node id" in
          let a = parse_operand !lineno a
          and b = parse_operand !lineno b
          and c = parse_operand !lineno c in
          Hashtbl.replace map id (Mig.maj g a b c)
        | [ ".output"; name; s ] ->
          Mig.add_output g name (parse_operand !lineno s)
        | _ -> fail !lineno "unrecognised line")
    lines;
  if not !header_seen then failwith "Mig_io.of_string: empty input";
  g

let to_dot ?(name = "mig") g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=BT;\n" name);
  Buffer.add_string buf "  n0 [label=\"0\", shape=box];\n";
  Array.iteri
    (fun pi input_name ->
      let id = Mig.node_of (Mig.input_signal g pi) in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=invtriangle];\n" id input_name))
    (Mig.input_names g);
  let edge src dst s =
    Buffer.add_string buf
      (Printf.sprintf "  n%d -> n%d%s;\n" src dst
         (if Mig.is_complemented s then " [style=dashed]" else ""))
  in
  Mig.iter_reachable_maj g (fun id ->
      Buffer.add_string buf (Printf.sprintf "  n%d [label=\"MAJ %d\"];\n" id id);
      match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        edge (Mig.node_of a) id a;
        edge (Mig.node_of b) id b;
        edge (Mig.node_of c) id c
      | Mig.Const | Mig.Input _ -> assert false);
  Array.iteri
    (fun i (oname, s) ->
      Buffer.add_string buf
        (Printf.sprintf "  o%d [label=\"%s\", shape=triangle];\n" i oname);
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> o%d%s;\n" (Mig.node_of s) i
           (if Mig.is_complemented s then " [style=dashed]" else "")))
    (Mig.outputs g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
