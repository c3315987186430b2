(** Runtime semantics shared by the two interpreter engines.

    Both the tree-walking reference path ({!Machine}) and the
    closure-compiled threaded-code path ({!Compile}) evaluate ops by
    calling into this module, so the differential guarantee — byte-
    identical results, latency/energy and counters across engines and
    across [jobs] values — reduces to the engines agreeing on dispatch,
    not on arithmetic. *)

exception Runtime_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Runtime_error} with the formatted message. *)

(** {2 Per-dialect execution counters}

    One slot per dialect; both engines bump the defining dialect's slot
    exactly once per executed op, terminators included. The resulting
    [ops_executed] list is a deterministic, jobs-invariant proxy for
    interpreter work (wall clock cannot be gated exactly; this can). *)

val dialect_names : string array
(** Slot order of the counter arrays; the trailing entry is ["other"]. *)

val n_dialects : int

val dialect_index : string -> int
(** Counter slot for a qualified op name (["scf.for"] -> the ["scf"]
    slot); names outside the known dialects land in ["other"]. *)

val fresh_counts : unit -> int array
(** A zeroed counter array of {!n_dialects} slots. *)

val merge_counts : into:int array -> int array -> unit
(** Slot-wise sum. Sums commute, so merging per-chunk counters in any
    order is deterministic. *)

val counts_list : int array -> (string * int) list
(** Non-zero counters as a [(dialect, count)] list sorted by name. *)

val total_count : int array -> int

(** {2 Outcome} *)

type outcome = {
  results : Rtval.t list;
  latency : float;
  ops_executed : (string * int) list;
      (** per-dialect executed-op counts, sorted by dialect name;
          identical across engines and for any jobs value *)
}

(** {2 Query-row cache}

    Rows extracted from recent query operands, keyed on the window
    geometry over a {e physical} backing store — (backing array,
    offset, shape, strides). A partitioned search issues one
    [cam.search] per tile; each distinct window extracts its rows once,
    and its entry owns the packed forms of those rows (a
    [Camsim.Scratch.packs] record), so a window searched by T tiles is
    packed once per refill rather than T times. Geometry keying lets
    fresh view boxes over a session's persistent query buffer hit
    across batches. A write into a backing store marks its entries
    stale rather than dropping them: the next hit refills the cached
    rows from the new contents in place. A fixed-capacity ring with
    move-to-front on hit, so tiled searches stop at entry 0 instead of
    walking the whole cache. The cache only affects extraction and
    packing work, never results, so engines with different hit
    patterns stay byte-identical.

    The cache also keeps the write generations
    ({!Camsim.Writegen}) of backings registered with {!track}: every
    write reported through {!invalidate} or {!invalidate_row} advances
    them, and {!cam_write} hands them to the simulator so that the
    replay of an unchanged stored window skips its element compare. *)
module Qcache : sig
  type t

  val capacity : int

  val create : unit -> t

  val clear : t -> unit
  (** Drop every entry, and count every tracked backing as written:
      the caller is about to write where this cache cannot see (the
      private caches of data-parallel loop chunks). Registrations made
      with {!track} stay. *)

  val length : t -> int

  val position : t -> Rtval.t -> int
  (** Logical position of the live entry for this value's window
      geometry, [-1] when absent or stale (front is position 0).
      Exposed for tests. *)

  val rows_cached : t -> Rtval.t -> float array array
  (** Like [Rtval.to_rows], memoized on the value's window geometry.
      Values without a float-array backing (scalars, handles) bypass
      the cache. *)

  val invalidate : t -> float array -> unit
  (** Mark entries whose backing store is (physically) this array as
      stale — called after every write into a buffer — and, when the
      backing is tracked, advance its whole-backing generation. A stale
      entry's rows are refilled from the current contents on its next
      hit. *)

  val track : t -> float array -> row_len:int -> unit
  (** Keep write generations for this backing, in rows of [row_len]
      elements (no-op when already tracked). From here on every write
      into it must be reported to this cache. *)

  val invalidate_row : t -> float array -> row:int -> unit
  (** {!invalidate} for a write confined to one row of a tracked
      backing: only that row's generation advances. *)
end

(** {2 scf.parallel analysis predicates}

    Structural building blocks of the loop-independence analysis,
    shared so the tree-walker's runtime check and the compiler's
    compile-time check classify exactly the same bodies. *)

val has_prefix : string -> string -> bool

val allowed_op : string -> bool
(** Op names a data-parallel loop body may contain (pure host ops:
    arith, memref, nested scf). *)

val collect_ops : Ir.Op.t list -> Ir.Op.region -> Ir.Op.t list
(** All ops nested under a region (any depth), prepended to the
    accumulator. *)

(** {2 Torch-level tensor helpers (value semantics)} *)

val transpose_t : Rtval.tensor -> int -> int -> Rtval.tensor
val matmul_t : Rtval.tensor -> Rtval.tensor -> Rtval.tensor

val ew2 :
  string -> (float -> float -> float) -> Rtval.tensor -> Rtval.tensor ->
  Rtval.tensor
(** Elementwise binop with the interpreter's broadcast rules; the
    string names the op in failure messages. *)

val div3_t : Rtval.tensor -> Rtval.tensor -> Rtval.tensor -> Rtval.tensor
(** Fused cosine division: [x.(i).(j) / (nq.(i) * ns.(j))]. *)

val norm_t : Rtval.tensor -> p:int -> dim:int -> keepdim:bool -> Rtval.tensor

val topk_t :
  Rtval.tensor -> k:int -> dim:int -> largest:bool ->
  Rtval.tensor * Rtval.tensor

val scores_of :
  Dialects.Cim.metric -> float array array -> float array array ->
  float array array
(** Similarity scores at the cim software level; Hamming goes through
    the same bit-packed kernel tiers as the subarray simulator. *)

val topk_rows :
  float array array -> k:int -> largest:bool ->
  float array array * float array array

(** {2 cim / cam structural helpers} *)

val merge_horizontal : Rtval.tensor -> Rtval.tensor -> Rtval.tensor
val merge_vertical : Rtval.tensor -> Rtval.tensor -> offset:int -> Rtval.tensor
val slice_t : Rtval.tensor -> offsets:int list -> sizes:int list -> Rtval.tensor

val buffer_accumulate : string -> Rtval.buffer -> Rtval.buffer -> unit
(** In-place elementwise accumulate of two equally-shaped rank-2
    buffers; the string names the op in failure messages. *)

val rows_accumulate : string -> Rtval.buffer -> float array array -> unit
(** {!buffer_accumulate} with the part given as rows (a subarray's
    latched result, read in place): the same shape check and the same
    additions, without first copying the rows into a buffer. *)

val cam_write :
  Qcache.t -> Camsim.Simulator.t -> Camsim.Simulator.id -> row_offset:int ->
  Rtval.t -> Camsim.Energy_model.cost
(** [cam.write_value] dispatch shared by the engines: rank-2 buffers
    and tensors go through {!Camsim.Simulator.write_view} as an element
    view over their storage (allocation-free when a serving replay
    finds the rows unchanged, and compare-free when the cache tracks
    the backing and no row of the window was written since the last
    compare); anything else materializes rows and uses the plain
    write. *)

val cam_search :
  Qcache.t -> Camsim.Simulator.t -> Camsim.Simulator.id -> Rtval.t ->
  row_offset:int -> rows:int -> kind:[ `Exact | `Best | `Threshold | `Range ] ->
  metric:[ `Hamming | `Euclidean ] -> ?batch_extra:bool -> ?threshold:float ->
  unit -> Camsim.Energy_model.cost
(** [cam.search] dispatch shared by the engines: the query operand's
    rows and their pack record come from its cache entry. *)

val scalar_of : string -> Rtval.t -> float
(** Scalar or index operand coerced to float; fails with
    ["<what>: expected a scalar"] otherwise. *)
