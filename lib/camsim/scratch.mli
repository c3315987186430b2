(** Per-domain scratch arenas for the simulator hot path.

    One record per domain (via [Domain.DLS]), grown to the high-water
    mark and reused across searches and batches, so steady-state
    serving performs no per-query allocation for query packs, dispatch
    counters, or top-k buffers (see docs/KERNELS.md). Arenas are
    acquired on the domain that dispatches an operation; parallel row
    tiles only write disjoint per-query slots of the captured arrays,
    so worker domains never contend. Purely a reuse mechanism — every
    value computed through an arena is identical to a fresh-allocation
    run. *)

type packs = {
  mutable p_queries : float array array;
  mutable p_cols : int;
  mutable nq : Kernel.flat;
  mutable nq_has : Bytes.t;
  mutable bq : Kernel.flat;
  mutable bq_has : Bytes.t;
  mutable bq_filled : bool;
}
(** Packed forms of one query batch at one subarray width: flat nibble
    and binary packs ([nq]/[bq], one [fnwords_for]/[fbwords_for] run
    per query) with per-query flags ([nq_has]/[bq_has] = ['\001'] when
    the query packed). Keyed on the batch's physical identity plus the
    width. The owner of a query batch — the interpreter's query-row
    cache entry — keeps one record per batch, so a batch searched by
    many tiles is packed once per refill of its rows. *)

type t = {
  slot : packs;
  mutable kb : int array;
  mutable kn : int array;
  mutable kg : int array;
  mutable ke : int array;
  mutable order : int array;
  mutable sel_q : int;
  mutable sel_k : int;
  mutable sel_values : float array array;
  mutable sel_indices : int array array;
}

val get : unit -> t
(** The calling domain's arena record. *)

val create_packs : unit -> packs
(** An empty pack record; the first {!refresh} fills it. *)

val refresh : packs -> cols:int -> float array array -> unit
(** Make the record describe this query batch at width [cols]: nothing
    to do when it already does (same batch, physically, and same
    width), otherwise the nibble side is repacked and the binary side
    left for {!ensure_binary}. *)

val packs_for : cols:int -> float array array -> packs
(** The domain's single fallback slot, refreshed for this batch — for
    searches whose caller owns no packs. A hit only when consecutive
    searches pass the same batch. *)

val ensure_binary : packs -> unit
(** Fill [bq]/[bq_has] for the batch the record currently describes. *)

val counters : t -> n:int -> unit
(** Zero the first [n] slots of [kb]/[kn]/[kg]/[ke], growing them as
    needed. *)

val order_buffer : t -> n:int -> int array
(** Scratch index buffer of at least [n] slots for top-k selection. *)

val select_buffers : t -> q:int -> k:int -> float array array * int array array
(** Top-k result arenas for a [q x k] selection, reused while the
    geometry holds. Callers must copy rows out before the next
    selection of the same geometry on this domain. *)
