(** A JSON string literal for callers that assemble a document outside
    {!Json}: [quote s = Json.to_string (Json.Str s)], so
    [Json.parse (quote s) = Ok (Str s)] for every byte string [s].
    Everything the library emits is built as a {!Json.t} instead. *)

val quote : string -> string
(** The escaped form of the string wrapped in double quotes: a complete
    JSON string literal. *)
