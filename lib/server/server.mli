(** A concurrent serving front-end over one {!Serve.Session}: many
    logical clients submit query batches from any domain; a dedicated
    scheduler domain coalesces them into subarray-width micro-batches,
    runs each through the session (and the session's domain pool), and
    demultiplexes per-client results.

    {2 Determinism contract}

    Query rows are row-independent on the simulator: a row's
    values/indices depend only on that row and the stored set, never on
    which other rows share its micro-batch. So for {e any} interleaving
    of client submissions, each client's demuxed results are
    byte-identical to the same requests served one at a time through a
    private session ([bench/stress_serve.exe] replays seeded arrival
    schedules against that reference in CI, across a clients x jobs x
    engine matrix). Host-side metrics (latency percentiles, fill
    ratios under a timed window) are the only schedule-dependent
    outputs.

    {2 Fairness}

    Micro-batches are assembled round-robin over clients with pending
    work, one request per client per turn — a client streaming
    thousands of requests cannot starve one submitting a single query;
    per-client completion order always matches per-client submission
    order. See [docs/SERVING.md]. *)

type t

type client
(** One logical caller's handle. Handles are cheap; a TCP connection,
    a thread of a host application, or a bench workload each hold one.
    A client's requests complete in its submission order. *)

type ticket
(** An in-flight request; redeem with {!await}. *)

exception Server_error of string  (** malformed request / bad config *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style raiser for {!Server_error} (shared with the wire
    front-ends). *)

exception Overloaded
(** Raised by {!submit} under [`Fail_fast] backpressure when admitting
    the request would push the queue past [queue_cap]. *)

exception Paused_full
(** Raised by {!submit} under [`Block] backpressure when admitting the
    request would push the queue past [queue_cap] while the scheduler
    is paused and the caller is the domain that paused it ({!pause},
    or {!create} under [start_paused]). Only the scheduler frees room,
    so the caller would wait for its own {!resume}: the request is not
    enqueued, and the caller may {!resume} and submit it again.
    Submitters on other domains still block until some domain
    resumes. *)

exception Stopped  (** the server was {!stop}ped *)

type backpressure = [ `Block | `Fail_fast ]

type config = {
  batch_rows : int;
      (** micro-batch row capacity; rounded up to a multiple of the
          kernel's query arity [q]. Default [4 * q]. *)
  window_s : float;
      (** batching window: with pending rows below [batch_rows], the
          scheduler waits this long for more arrivals before
          dispatching. [0.] dispatches immediately (default). *)
  queue_cap : int;
      (** backpressure bound on queued (undispatched) rows; default
          256 *)
  backpressure : backpressure;
      (** what {!submit} does at the bound: block until room ([`Block],
          default) or raise {!Overloaded} ([`Fail_fast]) *)
  jobs : int;
      (** domain-pool width the scheduler executes batches under
          (default 1) *)
  start_paused : bool;
      (** hold the scheduler until {!resume} — lets a caller enqueue a
          known workload and get deterministic coalescing (the bench
          smoke serve workload relies on this); default false *)
}

val default_config : config

val create : ?config:config -> Serve.Session.t -> t
(** Wrap [session] and spawn the scheduler domain. The server owns the
    session from here on: concurrent direct [Session.query] calls on it
    would race the scheduler. Equivalent to
    [create_on (Serve.Backend.of_session session)]. *)

val create_on : ?config:config -> Serve.Backend.t -> t
(** Like {!create} over any serving backend — in particular
    [Serve.Sharded_store.backend], which puts the micro-batching
    scheduler in front of a multi-simulator store
    (see [docs/SHARDING.md]). The scheduler domain owns the backend
    from here on. *)

val connect : t -> client
(** Register a new logical client. @raise Stopped after {!stop}. *)

val submit : client -> float array array -> ticket
(** Enqueue one request of [1..] query rows of the kernel's width [d].
    Rows need not be a multiple of the kernel arity [q] — the scheduler
    coalesces requests and pads the final partial chunk (padding rows
    are discarded on demux and never reach any response).
    @raise Server_error on an empty request or wrong row width
    @raise Overloaded under [`Fail_fast] backpressure at the cap
    @raise Paused_full under [`Block] backpressure at the cap when the
    caller paused the server
    @raise Stopped after {!stop}. *)

type response = {
  r_values : float array array;  (** per request row: [k] values *)
  r_indices : int array array;
  r_scores : float array array option;
  r_batch_seq : int;  (** which micro-batch served it (0-based) *)
  r_latency_s : float;  (** submit-to-completion wall time *)
}

val await : ticket -> response
(** Block until the request is served. Re-raises the batch's failure
    (e.g. [Serve.Session.Serve_error]) if its micro-batch failed. *)

val rpc : client -> float array array -> response
(** [submit] then [await]. *)

val pause : t -> unit
val resume : t -> unit

val drain : t -> unit
(** Block until every queued request has been served and no batch is in
    flight. The server must not be paused (a paused server with pending
    work never drains). *)

val stop : t -> unit
(** Drain outstanding requests (even when paused), shut the scheduler
    domain down and join it. Idempotent; subsequent {!submit}s raise
    {!Stopped}. *)

(** {1 Metrics} *)

type stats = {
  batches_coalesced : int;  (** micro-batches dispatched *)
  rows_served : int;  (** real query rows served (padding excluded) *)
  rows_padded : int;  (** padding rows added to fill q-chunks *)
  requests_served : int;
  clients_connected : int;
  batch_fill : float;  (** [rows_served / batches_coalesced] *)
  queue_hwm : int;  (** queued-row high-water mark *)
  lat_p50_s : float;  (** submit-to-completion percentiles *)
  lat_p99_s : float;
  session : Serve.Session.stats;  (** the wrapped session's ledger *)
}

val stats : t -> stats

val fold_profile : t -> unit
(** Overwrite the serve section of the session config's collector (if
    any) with the combined session + server metrics. The scheduler also
    does this after every batch, so profiles read mid-serve are
    current. *)

val session : t -> Serve.Session.t
(** The wrapped session — only safe to touch after {!stop} (or
    while provably idle); the scheduler domain owns it otherwise.
    @raise Server_error when the server fronts a non-session backend
    ({!create_on} with a sharded store). *)
