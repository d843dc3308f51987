(** MIG rewriting recipes.

    [algorithm1] is the rewriting loop of the original PLiM compiler
    (Soeken et al., DAC'16 [21], reproduced as Algorithm 1 in the paper);
    [algorithm2] is the endurance-aware variant proposed by the paper
    (Algorithm 2): Ψ.C is dropped (it removes single complemented edges,
    which are *ideal* for RM3) and Ω.A is sandwiched between inverter-
    propagation passes to maximise the number of nodes with exactly one
    inverted child. *)

module Mig = Plim_mig.Mig

type pass = Axioms.rule list

val run_pass : ?name:string -> Mig.t -> pass -> Mig.t
(** One bottom-up rebuild applying the first matching rule per node
    (Ω.M always applies through the hash-consed constructor).  [name]
    labels the pass in emitted trace events (default ["pass"]). *)

type recipe = No_rewriting | Algorithm1 | Algorithm2

val pp_recipe : Format.formatter -> recipe -> unit
val recipe_name : recipe -> string

val cycle : recipe -> Mig.t -> Mig.t
(** One cycle of the recipe's passes, without the final cleanup.  The
    cycle of [No_rewriting] is the identity. *)

val run : recipe -> effort:int -> Mig.t -> Mig.t
(** [run recipe ~effort g] applies [effort] cycles of the recipe
    (the paper uses effort = 5) and returns a cleaned-up graph.
    [No_rewriting] returns a cleanup copy (the naive flow).

    The loop stops early after the first cycle whose result is
    {!Mig.equal} to its input.  That is exact: a cycle is a deterministic
    function of the graph's node vectors, inputs and outputs, so a graph
    it maps to itself is a fixpoint of every later cycle too, and the
    result is the graph [effort] cycles would give.  The
    [rewrite.cycles] counter counts the cycles actually run (at most
    [effort]). *)

val algorithm1 : effort:int -> Mig.t -> Mig.t
val algorithm2 : effort:int -> Mig.t -> Mig.t
