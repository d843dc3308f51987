(** Binary min-heap with lazy deletion, specialised for scheduling problems
    where an element's key changes over time.

    Elements are integers (node or cell identifiers).  Each element carries a
    version stamp; re-inserting an element bumps its stamp and logically
    invalidates every older heap entry for it.  Stale entries are discarded
    when they surface at the top, giving O(log n) amortised updates without
    a decrease-key operation. *)

type key = int * int * int
(** Lexicographic priority (smaller = higher priority). *)

type t

val create : capacity:int -> t
(** [capacity] is the largest element id that will ever be inserted, plus
    one.  Used to size the stamp table. *)

val insert : t -> key -> int -> unit
(** [insert t key x] (re-)inserts element [x] with priority [key],
    invalidating any previous entry for [x]. *)

val remove : t -> int -> unit
(** Logically removes [x] (its entries become stale). *)

val pop_min : t -> (key * int) option
(** Removes and returns the live minimum, skipping stale entries. *)

val is_empty : t -> bool
(** True when no live element remains. *)

val live_count : t -> int
