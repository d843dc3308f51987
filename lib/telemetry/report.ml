(* Trajectory engine: diff two plim-bench result files (v1 or v2) and
   decide whether the newer one is a perf/endurance regression.

   Every tracked metric is a cost — instructions, devices, write
   maximum/stdev/tail, storage spans, wear skew — so "worse" always
   means "larger".  A metric regresses when it grows beyond BOTH the
   relative threshold and the absolute epsilon, which keeps identical
   runs at exactly zero regressions (the CI perf-gate invariant) while
   tolerating genuine noise when a human lowers the threshold to 0.

   Wall-clock phases deliberately do not gate: they vary run to run and
   between machines.  They are reported separately as context. *)

type delta = {
  benchmark : string;
  config : string;
  metric : string;
  baseline : float;
  current : float;
  change_pct : float;   (* (current - baseline) / baseline * 100; nan when
                           from_zero — growth from 0 has no percentage *)
  from_zero : bool;     (* baseline = 0 and current > 0 *)
  regression : bool;
}

type comparison = {
  baseline_path : string;
  current_path : string;
  baseline_schema : string;
  current_schema : string;
  threshold_pct : float;
  min_abs : float;
  deltas : delta list;            (* every compared metric, file order *)
  regressions : delta list;       (* worst (by change_pct) first *)
  improvements : delta list;      (* metrics that shrank beyond threshold *)
  baseline_only : string list;    (* benchmark/config keys that vanished *)
  current_only : string list;     (* keys with no baseline to compare *)
  new_metrics : string list;      (* metrics only the current file has *)
}

(* ------------------------------------------------------------------ *)
(* Row extraction: one row per benchmark x config (or per pseudo-benchmark
   row of the other arrays), metrics flattened to (name, value) pairs.
   v1 files simply lack the quantile and skew fields; only metrics present
   in BOTH files are compared, which is the whole v1 -> v2 migration
   story. *)

module Json = Plim_util.Json

type row = {
  r_benchmark : string;
  r_config : string;
  r_metrics : (string * float) list;
}

let str key j =
  Option.value ~default:"?" (Option.bind (Json.member key j) Json.to_str)

let list key j = Option.bind (Json.member key j) Json.to_list

(* a metric name is its dotted path into the row object *)
let metric j path =
  List.fold_left
    (fun acc key -> Option.bind acc (Json.member key))
    (Some j) (String.split_on_char '.' path)
  |> fun v -> Option.bind v Json.to_float

(* One row kind per result array: the array key, the (benchmark, config,
   metric object) keys of each element, and the cost metrics that gate.
   Every metric is a cost (larger = worse); better-larger quantities and
   wall-clock fields stay out of the lists:
   - serve rows (plim-serve/v1) drop wall_s / requests_per_sec, which
     vary run to run like the phase totals;
   - horizon rows (plim-horizon/v1) drop the ttff / half-life lifetimes,
     which would read as regressions when they improve;
   - cert rows (plim-cert/v1) gate the write ceiling, per-cell rate bound
     and levelling overhead (a larger one is a worse static guarantee),
     not the [-1]-when-unbounded lifetime brackets;
   - geometry rows gate group count, cross-row singletons, the widest
     group and the instruction count; area is fixed by the grid choice,
     which the key embeds.
   The table order is the row order, so deltas keep file order. *)
let kinds =
  let labelled prefix row = [ (prefix ^ ":" ^ str "label" row, prefix, row) ] in
  [ ( "benchmarks",
      (fun b ->
        List.map
          (fun c -> (str "name" b, str "config" c, c))
          (Option.value ~default:[] (list "configs" b))),
      [ "instructions"; "rram_cells"; "writes.total"; "writes.max"; "writes.stdev";
        "writes.p50"; "writes.p90"; "writes.p99"; "skew.gini"; "skew.max_mean";
        "storage.total_span"; "storage.max_span"; "dead_writes" ] );
    ( "serve",
      labelled "serve",
      [ "latency.p50"; "latency.p99"; "total_cycles"; "groups.p50"; "groups.p99";
        "groups.total"; "fleet.gini"; "fleet.max_mean"; "cache_misses"; "incorrect";
        "rejected" ] );
    ( "horizon",
      labelled "horizon",
      [ "capacity_loss"; "dead_shards"; "skew.gini"; "skew.max_mean"; "sampled_epochs" ] );
    ("cert", labelled "cert", [ "writes_upper"; "rate_cell_upper"; "overhead" ]);
    ( "geometry",
      (fun row ->
        let key = "geometry:" ^ str "benchmark" row ^ "@" ^ str "grid" row in
        [ (key, str "config" row, row) ]),
      [ "groups"; "cross_row"; "max_group"; "instructions" ] ) ]

let rows_of j =
  match list "benchmarks" j with
  | None -> Error "no \"benchmarks\" array (not a plim-bench file?)"
  | Some _ ->
    Ok
      (List.concat_map
         (fun (array_key, keys_of, metrics) ->
           List.concat_map
             (fun element ->
               List.map
                 (fun (benchmark, config, obj) ->
                   { r_benchmark = benchmark;
                     r_config = config;
                     r_metrics =
                       List.filter_map
                         (fun m -> Option.map (fun v -> (m, v)) (metric obj m))
                         metrics })
                 (keys_of element))
             (Option.value ~default:[] (list array_key j)))
         kinds)

let schema_of j =
  Option.value ~default:"unknown" (Option.bind (Json.member "schema" j) Json.to_str)

let key r = r.r_benchmark ^ "/" ^ r.r_config

let shrank d ~threshold_pct ~min_abs =
  d.baseline -. d.current > min_abs
  && d.current < d.baseline *. (1.0 -. (threshold_pct /. 100.0))

let rec keep n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: keep (n - 1) tl

(* ------------------------------------------------------------------ *)

let compare_json ?(threshold_pct = 2.0) ?(min_abs = 1e-9) ~baseline_path ~current_path
    baseline current =
  let ( let* ) = Result.bind in
  let* base_rows = rows_of baseline in
  let* cur_rows = rows_of current in
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace cur_tbl (key r) r) cur_rows;
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace base_tbl (key r) r) base_rows;
  let deltas =
    List.concat_map
      (fun br ->
        match Hashtbl.find_opt cur_tbl (key br) with
        | None -> []
        | Some cr ->
          List.filter_map
            (fun (metric, bv) ->
              match List.assoc_opt metric cr.r_metrics with
              | None -> None
              | Some cv ->
                (* A 0 -> x growth has no meaningful percentage: pinning it
                   to a sentinel (the old code used 100.0) made 0 -> 1e-6
                   outrank a genuine 80% regression in the report.  Mark it
                   [from_zero] and rank those deltas separately instead. *)
                let from_zero = bv = 0.0 && cv <> 0.0 in
                let change_pct =
                  if from_zero then Float.nan
                  else if bv = 0.0 then 0.0
                  else (cv -. bv) /. bv *. 100.0
                in
                let grew = cv -. bv > min_abs in
                let regression =
                  grew
                  && (if bv = 0.0 then true
                      else cv > bv *. (1.0 +. (threshold_pct /. 100.0)))
                in
                Some
                  { benchmark = br.r_benchmark;
                    config = br.r_config;
                    metric;
                    baseline = bv;
                    current = cv;
                    change_pct;
                    from_zero;
                    regression })
            br.r_metrics)
      base_rows
  in
  let regressions =
    (* Finite-percentage regressions rank first, worst growth on top;
       from-zero deltas follow as their own block, ordered by absolute
       growth.  They still gate — they just no longer masquerade as a
       "100%" regression above real percentage blow-ups. *)
    List.filter (fun d -> d.regression) deltas
    |> List.sort (fun a b ->
           match (a.from_zero, b.from_zero) with
           | false, false -> compare b.change_pct a.change_pct
           | true, true -> compare b.current a.current
           | false, true -> -1
           | true, false -> 1)
  in
  let improvements =
    List.filter (fun d -> shrank d ~threshold_pct ~min_abs) deltas
    |> List.sort (fun a b -> compare a.change_pct b.change_pct)
  in
  let baseline_only =
    List.filter_map
      (fun r -> if Hashtbl.mem cur_tbl (key r) then None else Some (key r))
      base_rows
  in
  let current_only =
    List.filter_map
      (fun r -> if Hashtbl.mem base_tbl (key r) then None else Some (key r))
      cur_rows
  in
  (* metrics the current file has but the baseline lacks, within matched
     rows: these cannot be compared yet, but silently dropping them would
     make a schema extension look like full coverage — report them as new
     so the next baseline refresh picks them up *)
  let new_metrics =
    List.concat_map
      (fun br ->
        match Hashtbl.find_opt cur_tbl (key br) with
        | None -> []
        | Some cr ->
          List.filter_map
            (fun (metric, _) ->
              if List.mem_assoc metric br.r_metrics then None
              else Some (key br ^ "/" ^ metric))
            cr.r_metrics)
      base_rows
  in
  Ok
    { baseline_path;
      current_path;
      baseline_schema = schema_of baseline;
      current_schema = schema_of current;
      threshold_pct;
      min_abs;
      deltas;
      regressions;
      improvements;
      baseline_only;
      current_only;
      new_metrics }

let compare_files ?threshold_pct ?min_abs ~baseline ~current () =
  let ( let* ) = Result.bind in
  let* bj = Json.parse_file baseline in
  let* cj = Json.parse_file current in
  compare_json ?threshold_pct ?min_abs ~baseline_path:baseline ~current_path:current bj
    cj

let has_regressions c = c.regressions <> []

(* ------------------------------------------------------------------ *)

let render ?(verbose = false) c =
  let b = Buffer.create 1024 in
  Printf.bprintf b "perf report: %s (%s) vs %s (%s)\n" c.current_path c.current_schema
    c.baseline_path c.baseline_schema;
  Printf.bprintf b "  %d metrics compared, threshold +%.2f%%\n" (List.length c.deltas)
    c.threshold_pct;
  let row d =
    Printf.bprintf b "  %-12s %-24s %-18s %12.6g -> %-12.6g %8s\n" d.benchmark
      d.config d.metric d.baseline d.current
      (if d.from_zero then "(from 0)" else Printf.sprintf "%+7.2f%%" d.change_pct)
  in
  if c.regressions <> [] then begin
    Printf.bprintf b "REGRESSIONS (%d):\n" (List.length c.regressions);
    List.iter row c.regressions
  end;
  if c.improvements <> [] then begin
    Printf.bprintf b "improvements (%d):\n" (List.length c.improvements);
    List.iter row (if verbose then c.improvements else keep 10 c.improvements);
    if (not verbose) && List.length c.improvements > 10 then
      Printf.bprintf b "  ... %d more (use --verbose)\n"
        (List.length c.improvements - 10)
  end;
  List.iter (Printf.bprintf b "  gone from current: %s\n") c.baseline_only;
  List.iter (Printf.bprintf b "  new in current: %s\n") c.current_only;
  List.iter (Printf.bprintf b "  new metric (no baseline yet): %s\n") c.new_metrics;
  Printf.bprintf b "%d regressions, %d improvements\n" (List.length c.regressions)
    (List.length c.improvements);
  Buffer.contents b

let to_json c =
  let open Json in
  let strings l = Arr (List.map (fun k -> Str k) l) in
  let delta d =
    Obj
      [ ("benchmark", Str d.benchmark); ("config", Str d.config); ("metric", Str d.metric);
        ("baseline", Float d.baseline); ("current", Float d.current);
        ("change_pct", if d.from_zero then Null else Float d.change_pct);
        ("from_zero", Bool d.from_zero) ]
  in
  Obj
    [ ("schema", Str "plim-report/v1"); ("baseline", Str c.baseline_path);
      ("current", Str c.current_path); ("threshold_pct", Float c.threshold_pct);
      ("compared", Int (List.length c.deltas));
      ("regressions", Arr (List.map delta c.regressions));
      ("improvements", Arr (List.map delta c.improvements));
      ("baseline_only", strings c.baseline_only); ("current_only", strings c.current_only);
      ("new_metrics", strings c.new_metrics) ]
