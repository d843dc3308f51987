(** The one JSON model of the repo: a value type, one compact printer
    and one reader.

    Every machine-readable artefact (bench result rows, serve / horizon
    / cert rows, lint reports, wear heatmaps, metrics expositions,
    trace events, Chrome traces, regression reports) is built as a
    {!t} and printed by {!to_string}; every artefact the repo reads back
    (result files, horizon rows) goes through {!parse}.

    Number formats:
    - [Int] prints in decimal;
    - [Float] prints as [%.6g] (the format of every float field of every
      schema); non-finite floats print as [null], since JSON has no
      [nan] or [inf];
    - [Lit] is a number literal the caller formatted itself.  It is
      reserved for the fields whose schema fixes another format —
      [phases[].total_s] ([%.6f]), Chrome [ts]/[dur] ([%.3f]) and trace
      JSONL floats ([%.17g]) — and is built through {!fixed} so the
      non-finite policy stays the same.  The reader never produces it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Lit of string

val fixed : (float -> string, unit, string) format -> float -> t
(** [fixed fmt x] is [Lit (Printf.sprintf fmt x)], or [Null] when [x]
    is not finite. *)

val to_string : t -> string
(** Compact JSON: no whitespace, object keys in list order.  Strings
    are escaped with the short escapes ["\"\\\n\t\r\b\012"], [\u00XX]
    for the remaining control bytes and every other byte verbatim
    (UTF-8 passes through), so [parse (to_string (Str s)) = Ok (Str s)]
    for every byte string [s]. *)

val to_string_rows : t -> string
(** {!to_string}, except that each element of an array-valued field of
    a top-level object starts a new line, and the array closes on a line
    of its own: the layout of the multi-row documents (bench results,
    Chrome traces), which keeps their diffs line-oriented.  Values other
    than objects print as {!to_string}. *)

(** {1 Reader} *)

exception Parse_error of string

val parse : string -> (t, string) result
(** Recursive-descent reader.  Objects keep their key order.  Number
    literals without a fraction or exponent that fit an OCaml [int]
    parse to [Int], every other number to [Float].  Nesting deeper than
    256 levels and anything but whitespace after the value are parse
    errors, reported with the byte offset. *)

val parse_exn : string -> t
(** @raise Parse_error with an offset-bearing message on malformed input. *)

val parse_file : string -> (t, string) result
(** Reads and parses a whole file; IO errors become [Error]. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_float : t -> float option
(** The value of an [Int] or a [Float]. *)

val to_str : t -> string option
val to_list : t -> t list option
