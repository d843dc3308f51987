module Mig = Plim_mig.Mig
module Obs = Plim_obs.Obs
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

type pass = Axioms.rule list

let m_passes = Metrics.counter "rewrite.passes"
let m_cycles = Metrics.counter "rewrite.cycles"

let run_pass_raw g rules =
  let fanout = Mig.fanout_counts g in
  let out_refs = Mig.output_refs g in
  let old_children = Array.make (Mig.num_nodes g) None in
  Mig.iter_reachable_maj g (fun id ->
      match Mig.kind g id with
      | Mig.Maj (a, b, c) -> old_children.(id) <- Some (a, b, c)
      | Mig.Const | Mig.Input _ -> ());
  let total_refs id = fanout.(id) + out_refs.(id) in
  Mig.map_rebuild g ~rule:(fun g' ~old_id a b c ->
      match old_children.(old_id) with
      | None -> Mig.maj g' a b c
      | Some (oa, ob, oc) ->
        let operand new_s old_s =
          { Axioms.s = new_s; old_fanout = total_refs (Mig.node_of old_s) }
        in
        Axioms.apply_first rules g' (operand a oa) (operand b ob) (operand c oc))

let run_pass ?(name = "pass") g rules =
  Obs.span "rewrite.pass" @@ fun () ->
  Metrics.incr m_passes;
  let size_before = Mig.size g in
  let g' = run_pass_raw g rules in
  if Trace.enabled () then
    Trace.emit "rewrite.pass"
      ~args:
        [ ("pass", String name); ("size_before", Int size_before);
          ("size_after", Int (Mig.size g')) ];
  g'

type recipe = No_rewriting | Algorithm1 | Algorithm2

let recipe_name = function
  | No_rewriting -> "none"
  | Algorithm1 -> "dac16"
  | Algorithm2 -> "endurance"

(* Algorithm 1 (DAC'16 [21]):
   1: Ω.M; Ω.D(R->L)   2: Ω.A; Ψ.C   3: Ω.M; Ω.D(R->L)
   4: Ω.I(R->L)(1-3)   5: Ω.I(R->L) *)
let algorithm1_cycle g =
  let g = run_pass ~name:"D(R->L)" g [ Axioms.distributivity_rl ] in
  let g =
    run_pass ~name:"A;psi.C" g
      [ Axioms.associativity; Axioms.complementary_associativity ]
  in
  let g = run_pass ~name:"D(R->L)" g [ Axioms.distributivity_rl ] in
  let g = run_pass ~name:"I(R->L)" g [ Axioms.inverter_propagation ] in
  run_pass ~name:"I(R->L)" g [ Axioms.inverter_propagation ]

(* Algorithm 2 (this paper):
   1: Ω.M; Ω.D(R->L)   2: Ω.I(1-3)   3: Ω.I   4: Ω.A
   5: Ω.I(1-3)         6: Ω.I        7: Ω.M; Ω.D(R->L)   8: Ω.I *)
let algorithm2_cycle g =
  let g = run_pass ~name:"D(R->L)" g [ Axioms.distributivity_rl ] in
  let g = run_pass ~name:"I(R->L)" g [ Axioms.inverter_propagation ] in
  let g = run_pass ~name:"I(R->L)" g [ Axioms.inverter_propagation ] in
  let g = run_pass ~name:"A" g [ Axioms.associativity ] in
  let g = run_pass ~name:"I(R->L)" g [ Axioms.inverter_propagation ] in
  let g = run_pass ~name:"I(R->L)" g [ Axioms.inverter_propagation ] in
  let g = run_pass ~name:"D(R->L)" g [ Axioms.distributivity_rl ] in
  run_pass ~name:"I(R->L)" g [ Axioms.inverter_propagation ]

let cycle = function
  | No_rewriting -> Fun.id
  | Algorithm1 -> algorithm1_cycle
  | Algorithm2 -> algorithm2_cycle

(* A cycle is a deterministic function of the graph's vectors, so once
   one returns a graph [Mig.equal] to its input every later cycle would
   too: stopping there gives the same graph as running all [effort]. *)
let cycles f ~effort g =
  let rec go n g =
    if n <= 0 then g
    else begin
      Metrics.incr m_cycles;
      let g' = f g in
      if Mig.equal g' g then g' else go (n - 1) g'
    end
  in
  Mig.cleanup (go (max 0 effort) g)

let algorithm1 ~effort g = cycles algorithm1_cycle ~effort g
let algorithm2 ~effort g = cycles algorithm2_cycle ~effort g

let run recipe ~effort g =
  Obs.span "rewrite.recipe" @@ fun () ->
  match recipe with
  | No_rewriting -> Mig.cleanup g
  | Algorithm1 -> algorithm1 ~effort g
  | Algorithm2 -> algorithm2 ~effort g
