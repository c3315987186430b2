(** The CAM-accelerator simulator: hierarchy allocation, functional
    search, and the energy ledger. Latency composition across the
    hierarchy is the IR interpreter's job; every call here returns its
    own {!Energy_model.cost} and accumulates energy into {!stats}. *)

type t

type id = private int
(** Handle to an allocated bank/mat/array/subarray. *)

exception Error of string

val create :
  ?tech:Tech.t -> ?defect_rate:float -> ?defect_seed:int -> ?trace:Trace.t ->
  Archspec.Spec.t -> t
(** Defaults to {!Tech.fefet_45nm}, no defects, no trace.

    [defect_rate] injects write-path cell faults with the given
    probability (binary cells flip; multi-bit cells store a random other
    level) — the unreliable-device regime of scaled FeFETs, for
    robustness studies. Deterministic given [defect_seed].

    [trace] records every device operation into the given ring buffer. *)

val spec : t -> Archspec.Spec.t
val tech : t -> Tech.t
val stats : t -> Stats.t

val set_query_hint : t -> int -> unit
(** Number of queries processed per allocation round; used to charge the
    per-query overhead energy of each allocated hierarchy level. *)

(** {1 Serve mode} — persistent-state sessions (see [docs/SERVING.md]).

    A one-shot run pays device allocation and stored-row writes on
    every execution. A serving session instead records those
    structural ops once and replays them for free on every later
    query batch:

    + {!start_recording} before the first execution ([Oneshot] cost
      semantics are unchanged when it is never called);
    + {!seal_recording} after it — allocation and write events freeze
      into a replay log;
    + {!rewind} before each subsequent execution of the {e same}
      module: allocations return the recorded handles without touching
      stats, overhead energy or the trace, and writes compare the
      incoming rows against the recorded payload, rewriting (and
      charging) only the row runs that changed — so an unchanged
      stored database serves every batch with zero write energy, and a
      session's [update_stored] pays exactly for the rows it
      replaced. *)

val start_recording : t -> unit
(** Begin logging allocation and write events. Must be called on a
    fresh simulator (before any allocation).
    @raise Error if already recording, sealed, or used. *)

val seal_recording : t -> unit
(** Freeze the recorded log; the simulator now replays it. Call after
    the first (recorded) execution, then {!rewind} before each replayed
    one. @raise Error unless recording. *)

val rewind : t -> unit
(** Reset the replay cursor to the start of the recorded log.
    @raise Error unless sealed. *)

val serving : t -> bool
(** [true] once {!seal_recording} has run — allocations and writes now
    replay instead of executing. *)

(** {1 Allocation} — raises {!Error} when exceeding the specified
    hierarchy capacity (mats per bank, etc.) or on invalid parents. *)

val alloc_bank : t -> rows:int -> cols:int -> id
val alloc_mat : t -> id -> id
val alloc_array : t -> id -> id
val alloc_subarray : t -> id -> id

(** {1 Device operations} *)

val write :
  t -> id -> row_offset:int -> float array array -> Energy_model.cost

val write_ternary :
  t -> id -> row_offset:int -> care:bool array array -> float array array ->
  Energy_model.cost
(** TCAM write with explicit don't-care mask. *)

val write_range :
  t -> id -> row_offset:int -> lo:float array array ->
  hi:float array array -> Energy_model.cost
(** ACAM range write: each cell stores a [lo, hi] acceptance interval
    (two bound planes, so the charge is double a plain write of the
    same geometry). Write-path defect injection does not apply — the
    digital flip model has no analogue for analog bound pairs. Replay
    semantics match {!write}: an unchanged bound table serves every
    batch for free; changed row runs are reprogrammed and charged. *)

val write_view :
  ?gen:Writegen.t ->
  t -> id -> row_offset:int -> rows:int -> cols:int -> float array ->
  off:int -> rs:int -> cs:int -> Energy_model.cost
(** [write_view t id ~row_offset ~rows ~cols data ~off ~rs ~cs] is
    {!write} with the payload addressed by stride math — element
    [(i, j)] lives at [data.(off + i*rs + j*cs)] — instead of a
    materialized matrix. Identical cost and replay semantics; the
    difference is allocation: a replayed write whose rows are unchanged
    (the steady state of a serving session, where [data] is an
    interpreter buffer's backing store) compares in place and allocates
    nothing, and changed row runs are materialized only as they are
    rewritten. Raw strides rather than a view closure because a
    closure-valued [int -> int -> float] boxes every element it
    returns.

    [gen], the write generations of [data] (see {!Writegen}), makes an
    unchanged replay O(rows): after a compare the write remembers the
    clock it compared at, and the next replay of the same view skips
    the element compare while no row of its window has been written
    since. The caller guarantees that every write into [data] is
    reported to [gen]. *)

val search :
  t ->
  id ->
  queries:float array array ->
  row_offset:int ->
  rows:int ->
  kind:[ `Exact | `Best | `Threshold | `Range ] ->
  metric:[ `Hamming | `Euclidean ] ->
  ?batch_extra:bool ->
  ?threshold:float ->
  ?packs:Scratch.packs ->
  unit ->
  Energy_model.cost
(** Performs the functional search (result latched in the subarray) and
    charges its cost. [`Best] latches raw distances; [`Threshold]
    latches 1/0 match flags against [threshold] (default 0, making it an
    exact match); [`Range] latches ACAM range-violation counts. [packs]
    is the caller's pack record for this query batch (see
    {!Subarray.search}). *)

val read : t -> id -> float array array
(** Last search result of a subarray, [Q x active_rows]. *)

val merge : t -> elems:int -> Energy_model.cost
(** Charge the cost of accumulating [elems] partial results. *)

val select_best :
  t -> dist:float array array -> k:int -> largest:bool ->
  (float array array * int array array) * Energy_model.cost
(** Top-k per query row over the merged distances via partial
    selection ({!Topk.select}, O(n·k)): returns ([values], [indices])
    of shape [Q x k]. Ties break toward the lower index, matching the
    software references. An empty distance matrix (zero queries or
    zero candidate columns) yields empty per-query results even when
    [k > 0]; only a non-empty matrix with [k] exceeding the candidate
    count raises.

    The returned matrices live in a per-domain arena and are
    overwritten by the next same-geometry call on this domain: copy
    what you keep (every interpreter wraps them into fresh result
    buffers at the cam.select boundary). *)
