(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] record
   field would allocate a fresh box on every draw. *)
type t = Bytes.t

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 from Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators", OOPSLA'14. *)
let[@inline] step t =
  let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t = step t

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Rejection sampling over the top 62 bits (the conversion to OCaml's
     63-bit int stays non-negative).  A plain [x mod bound] overweights the
     residues below [2^62 mod bound]; draws at or above the largest multiple
     of [bound] are redrawn instead, so every residue is equally likely.
     Accepted draws produce the same value the pre-rejection implementation
     did, which keeps every seed-pinned stream (corpus entries, benchmark
     seeds) byte-stable: only the astronomically rare rejected draw
     (probability < bound / 2^62) advances the state one extra step. *)
  let tail = ((max_int mod bound) + 1) mod bound (* = 2^62 mod bound *) in
  let threshold = max_int - tail in
  let rec draw () =
    let x = Int64.to_int (Int64.shift_right_logical (step t) 2) in
    if x <= threshold then x mod bound else draw ()
  in
  draw ()

let bool t = Int64.logand (step t) 1L = 1L

let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (step t) 11) /. 9007199254740992.0 (* 2^53 *)

let float t = unit_float t

let below t p = unit_float t < p

let bits t ~width = Array.init width (fun _ -> bool t)

(* Derive the seed of an independent child stream: one splitmix64 step over
   the root seed offset by the (index+1)-th multiple of the golden-gamma
   increment.  Sibling indices land on well-separated states, so per-task
   streams never share a prefix with each other or with the root stream;
   the result depends only on (root, index), never on draw order. *)
let derive root i =
  if i < 0 then invalid_arg "Splitmix.derive: index must be non-negative";
  let t =
    of_state
      (Int64.add (Int64.of_int root) (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L))
  in
  Int64.to_int (Int64.shift_right_logical (step t) 2)
