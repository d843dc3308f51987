(** FNV-1a 64-bit content digests.

    One shared implementation of the digest that keys content-addressed
    storage across the repo: the fuzzer's counterexample corpus
    ({!Plim_check.Corpus}) names files by it and the serve layer's
    compile cache ({!Plim_serve.Cache}) keys compiled programs by it, so
    both necessarily agree on what "the same MIG" means.

    FNV-1a is not cryptographic; it is a fast, stable, dependency-free
    64-bit hash with good dispersion over short ASCII texts — exactly
    the MIG serialisations it is fed.  The streaming interface hashes a
    text as it is produced, without building the string first; feeding
    bytes allocates nothing. *)

type state
(** A running hash. *)

val start : unit -> state
(** The hash of the empty text. *)

val add_char : state -> char -> unit
val add_string : state -> string -> unit

val add_int : state -> int -> unit
(** Feed the decimal text of the integer, exactly as [string_of_int]
    prints it. *)

val hex : state -> string
(** The hash so far as 16 lowercase hex characters. *)

val digest_int64 : string -> int64
(** Raw FNV-1a 64-bit hash of the byte string. *)

val digest_string : string -> string
(** The hash as 16 lowercase hex characters — the canonical textual
    digest used in corpus file names and cache keys. *)
