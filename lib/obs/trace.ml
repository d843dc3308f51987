type arg = Int of int | Float of float | Bool of bool | String of string

type event = {
  ts : float;
  name : string;
  args : (string * arg) list;
}

type sink =
  | Null
  | Memory of event Queue.t
  | Jsonl of out_channel
  | Custom of (event -> unit)

let current = ref Null

let set_sink s = current := s

let sink () = !current

let enabled () = match !current with Null -> false | _ -> true

(* JSON has no nan/inf (the printer writes null); %.17g round-trips
   every other float *)
let event_to_json e =
  let module Json = Plim_util.Json in
  let arg = function
    | Int i -> Json.Int i
    | Float f -> Json.fixed "%.17g" f
    | Bool v -> Json.Bool v
    | String s -> Json.Str s
  in
  Json.to_string
    (Json.Obj
       (("ts", Json.fixed "%.17g" e.ts)
       :: ("name", Json.Str e.name)
       :: List.map (fun (k, v) -> (k, arg v)) e.args))

(* Serializes sink writes: events may be emitted from pool domains
   (Plim_par tasks), and neither Queue.add nor channel output is
   domain-safe.  Null-sink emits stay lock-free. *)
let emit_lock = Mutex.create ()

let emit ?(args = []) name =
  match !current with
  | Null -> ()
  | s ->
    let e = { ts = Clock.now (); name; args } in
    Mutex.lock emit_lock;
    (match s with
    | Null -> ()
    | Memory q -> Queue.add e q
    | Jsonl oc ->
      output_string oc (event_to_json e);
      output_char oc '\n'
    | Custom f -> f e);
    Mutex.unlock emit_lock

let with_sink s f =
  let previous = !current in
  current := s;
  Fun.protect ~finally:(fun () -> current := previous) f

let with_memory f =
  let q = Queue.create () in
  let result = with_sink (Memory q) f in
  (result, List.of_seq (Queue.to_seq q))

let with_jsonl path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> with_sink (Jsonl oc) f)
