let quote s = Json.to_string (Json.Str s)
