(** Functional model of one CAM subarray.

    A subarray stores [rows] patterns of [cols] cells. Cells can hold a
    value, a ternary don't-care (TCAM), or a range (ACAM). A search
    compares query vectors against a window of active rows (selective
    row precharge) and yields one distance per (query, active row):

    - [`Hamming]: number of mismatching care cells;
    - [`Euclidean]: squared Euclidean distance over care cells (kept
      squared — monotone for ranking, and what the analog ML voltage
      encodes).

    For ACAM ranges the "distance" is the number of cells whose query
    element falls outside the stored range (0 = full range match).

    Every row is classified at write time into a kernel tier (see
    {!Kernel} and docs/KERNELS.md): binary rows take a 64-cells-per-word
    XOR+popcount path, small-integer rows a 16-cells-per-word nibble
    path, everything else the scalar per-cell loop. A per-subarray
    summary lets a search dispatch one whole-window kernel instead of
    re-classifying per row per query. Dispatch is wall-clock only:
    distances, match results, and the activity ledger are identical
    across tiers. *)

type t

val create : rows:int -> cols:int -> bits:int -> t

val rows : t -> int
val cols : t -> int

val with_kernel_cap :
  t -> [ `Binary | `Nibble | `Generic ] -> (unit -> 'a) -> 'a
(** [with_kernel_cap t cap f] runs [f] with the fastest kernel tier the
    dispatcher may use capped at [cap] ([`Binary], the default, allows
    all three; [`Generic] forces the scalar path), restoring the
    previous cap when [f] returns or raises. Results are byte-identical
    at every cap — this is a test and benchmark hook, not a tuning
    knob, and the scoped shape keeps a failing differential from
    leaking a lowered cap into later measurements. *)

val class_counts : t -> int * int * int
(** [(binary, nibble, generic)] row counts of the current contents. *)

val set_reuse_results : t -> bool -> unit
(** Turn the result-matrix arena on or off (default off). When on, a
    search whose (queries, rows) geometry matches the previous one
    overwrites and returns the same matrix instead of allocating a
    fresh one — callers must copy results they keep across searches.
    {!Simulator.alloc_subarray} enables it: every simulator consumer
    copies at the API boundary. Direct [Subarray] users that hold
    results across searches (differential tests do) must leave it
    off. *)

val write :
  t -> ?row_offset:int -> ?care:bool array array -> float array array ->
  unit
(** [write t data] programs [Array.length data] consecutive rows starting
    at [row_offset] (default 0). [care.(i).(j) = false] stores a ternary
    don't-care. @raise Invalid_argument on geometry mismatch. *)

val write_range :
  t -> row_offset:int -> lo:float array array -> hi:float array array ->
  unit
(** Program ACAM range cells. *)

val read_row : t -> int -> float array
(** Stored values of one row (don't-care cells read back as [nan],
    range cells as their lower bound). *)

val search :
  ?stats:Stats.t ->
  ?packs:Scratch.packs ->
  t ->
  queries:float array array ->
  row_offset:int ->
  rows:int ->
  metric:[ `Hamming | `Euclidean ] ->
  float array array
(** [search t ~queries ~row_offset ~rows ~metric] returns a
    [Q x rows] distance matrix for the active row window. The result is
    also latched as the subarray's last match-line state for {!read}.

    Large batches chunk across the ambient {!Parallel} pool (the
    cells are read-only during a search and each query owns its result
    row, so the matrix is identical for any jobs value). Hamming
    searches pack the query batch into [packs] when given — a caller
    that owns the batch keeps one pack record per batch, so the batch
    is packed once however many tiles search it (see
    {!Scratch.refresh}) — and into the domain's single fallback slot
    otherwise. When [stats] is given, per-tier row-dispatch counts are
    folded into it after the join (jobs-invariant).
    @raise Invalid_argument when the window or query width is out of
    bounds. *)

val search_range :
  ?stats:Stats.t -> ?packs:Scratch.packs -> t ->
  queries:float array array -> row_offset:int -> rows:int ->
  float array array
(** ACAM range match: violation counts per (query, row). *)

val search_threshold :
  ?stats:Stats.t ->
  ?packs:Scratch.packs ->
  t -> queries:float array array -> row_offset:int -> rows:int ->
  metric:[ `Hamming | `Euclidean ] -> threshold:float -> float array array
(** Threshold-match sensing: 1.0 for rows within [threshold] of the
    query, 0.0 otherwise (the TH scheme of Section II-B). Rows bail out
    as soon as the running mismatch count exceeds the threshold (the
    accumulators only grow, so the outcome is already decided); such
    early exits are tallied in [stats]. Only the 0/1 match matrix is
    latched for {!read} — intermediate distances are never published. *)

val read : t -> float array array
(** Last search result. @raise Invalid_argument before any search. *)
