exception Serve_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Serve_error s)) fmt

type stats = {
  batches : int;
  queries_served : int;
  wall_clock_s : float;
  queries_per_s : float;
  sim_latency_s : float;
  sim_energy_j : float;
  write_energy_j : float;
  write_ops : int;
  cache : [ `Hit | `Miss ];
  ops_executed : (string * int) list;
  alloc_minor_words_per_query : float;
}

type t = {
  s_compiled : C4cam.Driver.compiled;
  s_cache : [ `Hit | `Miss ];
  s_config : C4cam.Driver.Run_config.t;
  s_sim : Camsim.Simulator.t;
  s_qcache : Interp.Ops.Qcache.t;
  s_stored : Interp.Rtval.t;  (** always a [Buffer] over [s_buf] *)
  s_buf : Interp.Rtval.buffer;
  s_qbuf : Interp.Rtval.buffer;
      (** persistent [q x d] query buffer; chunks are blitted in so the
          operand's backing (and the query-row cache's key) stays
          stable across batches *)
  s_qval : Interp.Rtval.t;  (** always a [Buffer] over [s_qbuf] *)
  mutable s_sealed : bool;  (** device setup recorded and replayable *)
  mutable s_batches : int;
  mutable s_queries : int;
  mutable s_wall : float;
  mutable s_latency : float;  (** summed simulated latency *)
  mutable s_ops : (string * int) list;  (** cumulative, merged *)
  mutable s_alloc_words : float;
      (** minor words allocated inside {!query}, steady-state batches
          only (the first batch — compile + device setup — is warm-up) *)
  mutable s_alloc_queries : int;  (** query rows behind [s_alloc_words] *)
}

let compiled t = t.s_compiled
let run_config t = t.s_config
let cache_status t = t.s_cache
let simulator t = t.s_sim
let qcache t = t.s_qcache
let stored_value t = t.s_stored

let create ?(config = C4cam.Driver.Run_config.default) ?artifact ~spec
    ~stored source =
  let compiled, cache =
    match artifact with
    | Some pair -> pair
    | None ->
        Artifact_cache.lookup
          ?profile:config.C4cam.Driver.Run_config.profile ~spec source
  in
  if Array.length stored <> compiled.info.n then
    fail "expected %d stored rows, got %d" compiled.info.n
      (Array.length stored);
  let sim = C4cam.Driver.create_sim config compiled.spec in
  Camsim.Simulator.set_query_hint sim compiled.info.q;
  (* Device allocation and the stored-row writes happen inside the first
     executed batch; record them so every later batch replays them for
     free (and [update_stored] rewrites only changed rows). *)
  Camsim.Simulator.start_recording sim;
  let buf = Interp.Rtval.buffer_of_rows stored in
  let qbuf =
    Interp.Rtval.fresh_buffer [ compiled.info.q; compiled.info.d ]
  in
  (* Write generations of the pinned rows (row r of the row-major
     buffer is one generation row): a replayed write of a window whose
     rows nobody wrote since its last compare skips the compare. *)
  let qcache = Interp.Ops.Qcache.create () in
  Interp.Ops.Qcache.track qcache buf.Interp.Rtval.b_data
    ~row_len:(max 1 compiled.info.d);
  {
    s_compiled = compiled;
    s_cache = cache;
    s_config = config;
    s_sim = sim;
    s_qcache = qcache;
    s_stored = Interp.Rtval.Buffer buf;
    s_buf = buf;
    s_qbuf = qbuf;
    s_qval = Interp.Rtval.Buffer qbuf;
    s_sealed = false;
    s_batches = 0;
    s_queries = 0;
    s_wall = 0.;
    s_latency = 0.;
    s_ops = [];
    s_alloc_words = 0.;
    s_alloc_queries = 0;
  }

let merge_counts a b =
  List.fold_left
    (fun acc (k, n) ->
      match List.assoc_opt k acc with
      | Some m -> (k, m + n) :: List.remove_assoc k acc
      | None -> (k, n) :: acc)
    a b
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let stats t =
  let s = Camsim.Simulator.stats t.s_sim in
  {
    batches = t.s_batches;
    queries_served = t.s_queries;
    wall_clock_s = t.s_wall;
    queries_per_s =
      (if t.s_wall > 0. then float_of_int t.s_queries /. t.s_wall else 0.);
    sim_latency_s = t.s_latency;
    sim_energy_j = Camsim.Stats.total_energy s;
    write_energy_j = s.e_write;
    write_ops = s.n_write_ops;
    cache = t.s_cache;
    ops_executed = t.s_ops;
    alloc_minor_words_per_query =
      (if t.s_alloc_queries > 0 then
         t.s_alloc_words /. float_of_int t.s_alloc_queries
       else 0.);
  }

(* The session's serve section with scheduler fields zeroed: folds the
   simulator stats as a side effect when profiling is on, then builds
   the record. [fold_profile] installs it directly; the server (via
   [Backend]) overlays its scheduler fields before installing. *)
let serve_section t =
  let st = stats t in
  (match t.s_config.C4cam.Driver.Run_config.profile with
  | None -> ()
  | Some p ->
      C4cam.Driver.fold_sim_stats p ~latency:st.sim_latency_s
        ~energy:st.sim_energy_j ~ops_executed:st.ops_executed
        (Camsim.Simulator.stats t.s_sim));
  {
    Instrument.Profile.batches = st.batches;
    queries_served = st.queries_served;
    serve_wall_s = st.wall_clock_s;
    queries_per_s = st.queries_per_s;
    serve_write_energy_j = st.write_energy_j;
    artifact_cache_hit = (st.cache = `Hit);
    alloc_minor_words_per_query = st.alloc_minor_words_per_query;
    (* a bare session has no scheduler in front of it; the server
       overwrites these with its own fold *)
    batches_coalesced = 0;
    batch_fill = 0.;
    queue_hwm = 0;
    lat_p50_s = 0.;
    lat_p99_s = 0.;
    (* and it is a single simulator — the sharded store is the one
       that populates these *)
    shards = 1;
    rows_stored = 0;
    rows_free = 0;
    shard_fanout_wall_s = 0.;
    shard_merge_wall_s = 0.;
  }

let fold_profile t =
  match t.s_config.C4cam.Driver.Run_config.profile with
  | None -> ()
  | Some p -> Instrument.Collect.set_serve p (serve_section t)

(* One [q]-row chunk against the shared simulator. The first chunk ever
   executes for real under recording (allocations + stored writes
   charged once); every later chunk rewinds the recording and replays
   the setup for free, paying only for its searches. *)
let run_chunk t chunk =
  if t.s_sealed then Camsim.Simulator.rewind t.s_sim;
  (* Blit the chunk into the session's persistent query buffer and pass
     that as the operand: the stable backing lets the query-row cache
     refill its extracted rows in place instead of re-extracting per
     batch. Rows of unexpected width (the interpreter's job to reject)
     fall back to a fresh wrap. *)
  let { C4cam.Driver.q; d; _ } = t.s_compiled.info in
  let uniform =
    Array.length chunk = q
    &&
    let rec go i = i = q || (Array.length chunk.(i) = d && go (i + 1)) in
    go 0
  in
  let query_value =
    if uniform then begin
      let dst = t.s_qbuf.Interp.Rtval.b_data in
      for i = 0 to q - 1 do
        Array.blit chunk.(i) 0 dst (i * d) d
      done;
      Interp.Ops.Qcache.invalidate t.s_qcache dst;
      Some t.s_qval
    end
    else None
  in
  let r =
    try
      C4cam.Driver.execute ~config:t.s_config ~sim:t.s_sim
        ~qcache:t.s_qcache ?query_value t.s_compiled ~queries:chunk
        ~stored_value:t.s_stored
    with C4cam.Driver.Compile_error e -> raise (Serve_error e)
  in
  if not t.s_sealed then begin
    Camsim.Simulator.seal_recording t.s_sim;
    t.s_sealed <- true
  end;
  r

let query t batch =
  let q = t.s_compiled.info.q in
  let total = Array.length batch in
  if total = 0 || total mod q <> 0 then
    fail "batch size %d is not a positive multiple of the kernel's %d \
          queries"
      total q;
  let t0 = Instrument.Collect.now () in
  let w0 = Gc.minor_words () in
  let sim_stats = Camsim.Simulator.stats t.s_sim in
  let e0 = Camsim.Stats.total_energy sim_stats in
  let n_chunks = total / q in
  (* Chunks run in order against the one simulator — the determinism
     contract needs the same event sequence as the concatenated
     one-shot run; row-level search work inside each chunk still fans
     out across the ambient Parallel pool. *)
  let results =
    List.init n_chunks (fun i ->
        run_chunk t (Array.sub batch (i * q) q))
  in
  let latency =
    List.fold_left
      (fun acc (r : C4cam.Driver.run_result) -> acc +. r.latency)
      0. results
  in
  let energy = Camsim.Stats.total_energy sim_stats -. e0 in
  let ops =
    List.fold_left
      (fun acc (r : C4cam.Driver.run_result) ->
        merge_counts acc r.ops_executed)
      [] results
  in
  (* a single-chunk batch (the common serving shape) returns the
     chunk's arrays directly instead of re-concatenating them *)
  let cat f =
    match results with
    | [ r ] -> f r
    | _ -> Array.concat (List.map f results)
  in
  let out =
    {
      C4cam.Driver.values = cat (fun r -> r.C4cam.Driver.values);
      indices = cat (fun r -> r.C4cam.Driver.indices);
      scores =
        (match results with
        | { C4cam.Driver.scores = Some _; _ } :: _ ->
            Some
              (cat (fun r ->
                   Option.value r.C4cam.Driver.scores ~default:[||]))
        | _ -> None);
      latency;
      energy;
      power = (if latency > 0. then energy /. latency else 0.);
      stats = sim_stats;
      ops_executed = ops;
    }
  in
  (* GC-pressure counter: minor words this call allocated on the
     dispatching domain, steady-state batches only — the first batch
     pays compile + device setup and is excluded as warm-up. *)
  if t.s_batches > 0 then begin
    t.s_alloc_words <- t.s_alloc_words +. (Gc.minor_words () -. w0);
    t.s_alloc_queries <- t.s_alloc_queries + total
  end;
  t.s_batches <- t.s_batches + 1;
  t.s_queries <- t.s_queries + total;
  t.s_latency <- t.s_latency +. latency;
  t.s_ops <- merge_counts t.s_ops ops;
  t.s_wall <- t.s_wall +. Float.max 0. (Instrument.Collect.now () -. t0);
  fold_profile t;
  out

let update_stored t ~row values =
  let { C4cam.Driver.n; d; _ } = t.s_compiled.info in
  if row < 0 || row >= n then
    fail "update_stored: row %d out of bounds (stored has %d rows)" row n;
  if Array.length values <> d then
    fail "update_stored: expected %d values, got %d" d
      (Array.length values);
  Array.blit values 0 t.s_buf.Interp.Rtval.b_data
    (t.s_buf.Interp.Rtval.b_offset + (row * d))
    d;
  (* The query-row cache may hold rows of the stale buffer; the row's
     write generation advances, so the next replay compares the
     windows that cover it (and only those). *)
  Interp.Ops.Qcache.invalidate_row t.s_qcache t.s_buf.Interp.Rtval.b_data
    ~row
