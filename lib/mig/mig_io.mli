(** Textual interchange for MIGs.

    Two formats:
    - a line-oriented [.mig] format with a printer and parser
      (round-trippable), and
    - Graphviz DOT export for visual inspection (complemented edges are
      drawn dashed). *)

val to_string : Mig.t -> string
(** Serialise in the [.mig] format:
    {v
    mig
    .input 1 a
    .input 2 b
    .node 4 1 ~2 0
    .output sum ~4
    v}
    Node operands are node ids, [~] marks a complemented edge, and id 0 is
    the constant false. *)

type sink = { char : char -> unit; string : string -> unit; int : int -> unit }
(** Where {!emit} sends the text: characters, strings, and integers in
    decimal. *)

val emit : sink -> Mig.t -> unit
(** The [.mig] printer itself: produce exactly the text of {!to_string}
    into [sink], without building it — e.g. into a streaming hash. *)

val of_string : string -> Mig.t
(** Parse the [.mig] format.
    @raise Failure on malformed input (with a line number). *)

val to_dot : ?name:string -> Mig.t -> string

val write_file : string -> Mig.t -> unit

val read_file : string -> Mig.t
