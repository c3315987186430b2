(** Query-serving sessions: compile once, write stored rows once, then
    serve unlimited query batches against a pinned simulator.

    A one-shot [C4cam.Driver.run_cam] pays the whole setup — the
    compilation pipeline, device allocation, and writing every stored
    row — on each call. A session amortizes all three: {!create}
    compiles (or fetches the artifact from {!Artifact_cache}), builds
    one simulator, and pins the stored rows; each {!query} then re-runs
    only the search phase, replaying the recorded device setup for free
    (see [Camsim.Simulator]'s serve mode and [docs/SERVING.md]).

    Determinism: serving N batches one at a time produces byte-identical
    values/indices and summed activity counters to one concatenated
    [run_cam] call — modulo the single write charge, which the session
    pays once instead of N times. The determinism gate in CI holds this
    across jobs values and both interpreter engines. *)

type t

exception Serve_error of string

val create :
  ?config:C4cam.Driver.Run_config.t ->
  ?artifact:C4cam.Driver.compiled * [ `Hit | `Miss ] ->
  spec:Archspec.Spec.t ->
  stored:float array array ->
  string ->
  t
(** [create ?config ~spec ~stored source] compiles [source] for [spec]
    (reusing the {!Artifact_cache} on a repeat pair) and pins [stored]
    — which must have the kernel's [n] rows — into a fresh simulator
    built from [config]. Device allocation and the stored-row writes
    happen lazily, during the first {!query}, and are recorded so later
    batches replay them for free.

    A caller that already consulted {!Artifact_cache.lookup} — say, to
    learn the kernel's shapes before building [stored] — passes the
    result as [artifact]; the session then skips its own lookup and
    reports that status, so {!cache_status} and the profile's
    [artifact_cache_hit] reflect the process's first sight of the
    [(source, spec)] pair rather than an always-hit re-lookup.

    With [config.profile], compile-time passes (on a cache miss) and,
    after every {!query}, the cumulative simulator + serving sections
    are folded into the collector.

    @raise Serve_error when [stored] has the wrong row count.
    @raise C4cam.Driver.Compile_error as {!C4cam.Driver.compile}. *)

val query : t -> float array array -> C4cam.Driver.run_result
(** Serve one batch. The batch's row count must be a positive multiple
    of the kernel's query arity [q]; an oversized batch is split into
    [q]-row chunks executed in order against the shared simulator (each
    chunk's row-level work still fans out across the ambient [Parallel]
    domain pool, like any simulator search). Returned
    [values]/[indices]/[scores] are the chunk results concatenated in
    input order; [latency] is this call's simulated time, [energy] this
    call's simulated energy delta, and [stats] the session's cumulative
    ledger.

    @raise Serve_error on an empty or non-multiple batch size. *)

val update_stored : t -> row:int -> float array -> unit
(** Replace one pinned stored row in place. The physical device write
    happens lazily on the next {!query}: replay compares the pinned
    rows against what the device holds and rewrites (and charges for)
    only the changed rows. Also invalidates the session's query-row
    cache, which may hold rows of the stale buffer, and advances the
    row's write generation, so that only the stored windows covering
    this row are compared on that replay (see [docs/SERVING.md]).
    @raise Serve_error on a bad row index or width. *)

(** {1 Introspection} *)

type stats = {
  batches : int;  (** {!query} calls served *)
  queries_served : int;  (** total query rows across all batches *)
  wall_clock_s : float;  (** host time spent inside {!query} *)
  queries_per_s : float;  (** [queries_served /. wall_clock_s] *)
  sim_latency_s : float;  (** summed simulated latency *)
  sim_energy_j : float;  (** cumulative simulated energy *)
  write_energy_j : float;
      (** cumulative write energy — the session-wide setup charge, paid
          once, plus any {!update_stored} rewrites *)
  write_ops : int;
  cache : [ `Hit | `Miss ];  (** how {!create} got the artifact *)
  ops_executed : (string * int) list;  (** cumulative, merged by name *)
  alloc_minor_words_per_query : float;
      (** GC pressure of the steady-state hot path: minor-heap words
          allocated inside {!query} per query row, on the dispatching
          domain, over every batch after the first (setup) one.
          Deterministic for a fixed build at [jobs = 1] and gated in CI
          (see docs/OBSERVABILITY.md); 0 until a second batch runs. *)
}

val stats : t -> stats
val compiled : t -> C4cam.Driver.compiled

val serve_section : t -> Instrument.Profile.serve
(** The session's current serve section with the scheduler and shard
    fields at their single-session defaults. When the session's config
    carries a profile collector, the cumulative simulator section is
    folded into it as a side effect. [Backend] uses this so the server
    can overlay scheduler fields before installing the section. *)

val run_config : t -> C4cam.Driver.Run_config.t
(** The run configuration the session executes under (as resolved at
    {!create}); [Server] folds its combined metrics into this config's
    collector. *)

val cache_status : t -> [ `Hit | `Miss ]
val simulator : t -> Camsim.Simulator.t
val qcache : t -> Interp.Ops.Qcache.t
val stored_value : t -> Interp.Rtval.t
(** The pinned stored buffer ({!update_stored} mutates it in place). *)
