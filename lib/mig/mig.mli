(** Majority-Inverter Graphs (MIG, Amarù et al., DAC'14).

    A MIG is a DAG of 3-input majority nodes with optionally complemented
    edges.  It is the input representation of the PLiM compiler: every
    majority node maps to (at least) one RM3 instruction.

    Nodes are identified by dense integer ids; node 0 is the Boolean
    constant and ids are topologically ordered (children always precede
    parents).  The graph is hash-consed: structurally identical majority
    nodes are shared, and the trivial majority axiom Ω.M is applied on
    construction ([maj] never builds <x,x,y> or <x,!x,y>). *)

type t

type signal
(** A node reference with a polarity (complemented-edge) flag. *)

type node_kind =
  | Const                              (** node 0; plain signal = false *)
  | Input of int                       (** primary input, by PI index *)
  | Maj of signal * signal * signal    (** majority over three children *)

(** {1 Signals} *)

val signal : int -> bool -> signal
(** [signal node complemented]. *)

val node_of : signal -> int
val is_complemented : signal -> bool
val not_ : signal -> signal
val ( ~: ) : signal -> signal
(** Alias for [not_]. *)

val signal_equal : signal -> signal -> bool
val false_ : signal
val true_ : signal
val is_const : signal -> bool

(** {1 Construction} *)

val create : unit -> t

val add_input : t -> string -> signal
(** Declares a fresh primary input.
    @raise Invalid_argument if [name] is already an input; parsers check
    {!has_input} first to report the duplicate themselves. *)

val has_input : t -> string -> bool
(** Whether an input of this name exists, in O(1). *)

val maj : t -> signal -> signal -> signal -> signal
(** Hash-consed majority with Ω.M simplification. *)

val lookup : t -> signal -> signal -> signal -> signal option
(** Like [maj] but never inserts: returns the signal [maj] would return if
    it requires no fresh node (an Ω.M reduction or an existing strashed
    node), else [None].  Used by rewriting heuristics to test whether a
    transformation is free. *)

val and_ : t -> signal -> signal -> signal
val or_ : t -> signal -> signal -> signal
val xor : t -> signal -> signal -> signal
val mux : t -> signal -> signal -> signal -> signal
(** [mux t s a b] is [if s then a else b] (3 majority nodes). *)

val add_output : t -> string -> signal -> unit

(** {1 Inspection} *)

val num_nodes : t -> int
(** All allocated nodes including the constant, inputs and dead nodes. *)

val num_inputs : t -> int
val num_outputs : t -> int
val kind : t -> int -> node_kind
val input_name : t -> int -> string
val input_signal : t -> int -> signal
val outputs : t -> (string * signal) array
val input_names : t -> string array

val equal : t -> t -> bool
(** Structural equality: the same nodes (dead ones included) with the
    same ids and children, the same input names and the same outputs. *)

val size : t -> int
(** Number of majority nodes reachable from the outputs (the paper's node
    count metric). *)

val num_complemented_edges : t -> int
(** Complemented child edges of reachable majority nodes (PO polarities are
    not counted). *)

val depth : t -> int
(** Maximum level over outputs. *)

val levels : t -> int array
(** [levels t].(id) = 0 for constants/inputs, 1 + max child level for
    majority nodes (over all allocated nodes). *)

val fanout_counts : t -> int array
(** Per node: number of majority-node parent edges referencing it (over
    reachable nodes), not counting output references. *)

val output_refs : t -> int array
(** Per node: number of primary outputs referencing it. *)

val fanouts : t -> int array array
(** Per node: ids of reachable majority parents (with duplicates collapsed). *)

val reachable : t -> bool array
(** Per node: reachable from some output. *)

val iter_reachable_maj : t -> (int -> unit) -> unit
(** Topological (children-first) iteration over reachable majority nodes. *)

(** {1 Evaluation} *)

val eval : t -> bool array -> bool array
(** [eval t pi_values] returns output values, in output declaration order. *)

val output_tables : t -> Plim_logic.Truth_table.t array
(** Exhaustive truth tables of all outputs;
    @raise Invalid_argument when [num_inputs] exceeds
    {!Plim_logic.Truth_table.max_vars}. *)

(** {1 Copying} *)

val cleanup : t -> t
(** Rebuilds the graph keeping only nodes reachable from outputs. *)

val copy : t -> t

val map_rebuild :
  t -> rule:(t -> old_id:int -> signal -> signal -> signal -> signal) -> t
(** [map_rebuild t ~rule] rebuilds [t] bottom-up into a fresh graph.  For
    every reachable majority node its (already remapped) children are
    passed to [rule] together with the node's id in the old graph (so that
    rewriting heuristics can consult old-graph fanout information); [rule]
    must return the replacement signal in the new graph (typically via
    [maj] plus algebraic rewriting).  Inputs and output names/polarities
    are preserved. *)
