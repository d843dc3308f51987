module Mig = Plim_mig.Mig
module Mig_io = Plim_mig.Mig_io
module Pipeline = Plim_core.Pipeline
module Metrics = Plim_obs.Metrics

type entry = { label : string; source : Mig.t; result : Pipeline.result }

type t = {
  table : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let m_hits = Metrics.counter "serve.cache_hits"
let m_misses = Metrics.counter "serve.cache_misses"

(* Streams the [.mig] text through FNV-1a: the digest of
   [Mig_io.to_string graph] without building the string. *)
let digest_of graph =
  let module Fnv = Plim_util.Fnv in
  let h = Fnv.start () in
  Mig_io.emit { Mig_io.char = Fnv.add_char h; string = Fnv.add_string h; int = Fnv.add_int h }
    graph;
  Fnv.hex h

let create () = { table = Hashtbl.create 64; hits = 0; misses = 0 }

let find t digest = Hashtbl.find_opt t.table digest

let hit t digest =
  match Hashtbl.find_opt t.table digest with
  | Some _ as e ->
    t.hits <- t.hits + 1;
    Metrics.incr m_hits;
    e
  | None ->
    t.misses <- t.misses + 1;
    Metrics.incr m_misses;
    None

let record_hit t =
  t.hits <- t.hits + 1;
  Metrics.incr m_hits

let record_miss t =
  t.misses <- t.misses + 1;
  Metrics.incr m_misses

let add t ~digest entry =
  if not (Hashtbl.mem t.table digest) then Hashtbl.replace t.table digest entry

let hits t = t.hits
let misses t = t.misses
let size t = Hashtbl.length t.table

let entries t =
  Hashtbl.fold (fun d e acc -> (d, e) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
