(** Deterministic splitmix64 pseudo-random number generator.

    All randomness in the project (random control benchmarks, verification
    vectors, property-test corpora) flows through this generator so that
    every experiment is reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val copy : t -> t

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive.
    Uniformity is exact (rejection sampling, no modulo bias); a rejected
    draw advances the state one extra step, with probability below
    [bound / 2^62] per call. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val below : t -> float -> bool
(** [below t p] is [float t < p]: the same draw, decided without boxing
    the float — a Bernoulli trial that allocates nothing. *)

val bits : t -> width:int -> bool array
(** [bits t ~width] is a uniform bit vector, LSB first. *)

val derive : int -> int -> int
(** [derive root i] is the seed of the [i]-th child stream of [root]: a
    pure function of [(root, i)] with well-separated internal states, so
    parallel tasks seeded per-index draw independently of scheduling,
    completion order and each other.  [i] must be non-negative. *)
