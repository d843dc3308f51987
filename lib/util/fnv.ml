(* FNV-1a 64-bit: offset basis 0xcbf29ce484222325, prime 0x100000001b3.
   The running hash lives unboxed in 8 bytes, so feeding a byte
   allocates nothing. *)

type state = Bytes.t

let start () =
  let st = Bytes.create 8 in
  Bytes.set_int64_ne st 0 0xCBF29CE484222325L;
  st

let add_char st c =
  let h = Int64.logxor (Bytes.get_int64_ne st 0) (Int64.of_int (Char.code c)) in
  Bytes.set_int64_ne st 0 (Int64.mul h 0x100000001B3L)

let add_string st s =
  for i = 0 to String.length s - 1 do
    add_char st (String.unsafe_get s i)
  done

let rec add_digits st n =
  if n >= 10 then add_digits st (n / 10);
  add_char st (Char.unsafe_chr (48 + (n mod 10)))

let add_int st n = if n >= 0 then add_digits st n else add_string st (string_of_int n)

let value st = Bytes.get_int64_ne st 0

let hex st = Printf.sprintf "%016Lx" (value st)

let digest_int64 s =
  let st = start () in
  add_string st s;
  value st

let digest_string s =
  let st = start () in
  add_string st s;
  hex st
