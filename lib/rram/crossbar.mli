(** Behavioural model of an RRAM crossbar of bipolar resistive switches
    (BRS), the memory substrate of the PLiM computer (Gaillardon et al.,
    DATE'16).

    Each cell stores one bit as its resistance state (LRS = logic 1,
    HRS = logic 0).  The model tracks per-cell write counts — the metric
    the paper's endurance-management techniques balance — and an optional
    endurance budget after which a cell hard-fails (stuck at its last
    value).

    Device traffic (reads, counted writes, loads) is tallied in plain
    per-crossbar fields and reaches the process-wide [crossbar.reads],
    [crossbar.writes] and [crossbar.loads] counters only through
    {!publishing}, which every driver wraps around each run (normal or
    exceptional exit): a simulated cell access never touches a shared
    atomic.  [crossbar.cell_failures] is published as it happens.

    Two write-counting conventions are exposed:
    - [writes]: every write *operation* applied to the cell (the paper's
      metric: each executed RM3 instruction writes its destination once);
    - [transitions]: writes that actually toggled the resistance state,
      for device-physics-oriented ablations. *)

type t

exception Cell_failed of int
(** Raised (with the cell index) by {!write}, {!rm3} and {!load} when the
    addressed cell has exhausted its endurance budget and hard-failed.
    Campaigns and the {!Plim_fault} layer catch it precisely instead of a
    bare [Failure]. *)

val create : ?endurance:int -> int -> t
(** [create ?endurance n] is an array of [n] fresh cells in HRS (0). *)

val size : t -> int

val read : t -> int -> bool

val peek : t -> int -> bool
(** Current state without counting a read in the metrics — an
    observability back door for write-verify read-backs and fault
    wrappers, not a modelled array operation. *)

val write : t -> int -> bool -> unit
(** Plain memory write (controller off).  Counts one write.
    @raise Cell_failed if the cell has hard-failed. *)

val rm3 : t -> p:bool -> q:bool -> int -> unit
(** The intrinsic resistive-majority operation executed during a write
    cycle: [Z <- <P, !Q, Z>] where [Z] is the addressed cell's current
    state.  Counts one write on the cell. *)

val load : t -> int -> bool -> unit
(** Initialisation write used to deposit primary inputs before the
    computation starts; does not count toward write statistics (the paper
    measures computation writes only).
    @raise Cell_failed if the cell has hard-failed. *)

val set_observer : t -> (cell:int -> writes:int -> unit) option -> unit
(** Install (or clear, with [None]) the wear observer: a hook invoked
    synchronously on every {e counted} write — after the cell's write
    counter is bumped, before the endurance check — with the cell index
    and its new cumulative write count.  One observer per crossbar;
    telemetry samplers use it to snapshot wear without polling
    {!write_counts} on hot paths.  [load] (uncounted) never fires it. *)

val publishing : t -> (unit -> 'a) -> 'a
(** [publishing t f] runs [f ()], then adds the reads, writes and loads
    counted since the previous publication to the [crossbar.*] metrics
    counters and restarts the tally — also when [f] raises (e.g.
    {!Cell_failed}).  Every driver wraps each run in it. *)

val writes : t -> int -> int
val write_counts : t -> int array

val total_writes : t -> int
(** Sum of {!write_counts}, without copying the array. *)

val transitions : t -> int -> int
val transition_counts : t -> int array
val failed : t -> int -> bool
val num_failed : t -> int
val reset_counters : t -> unit
