(* Serving sessions: the batch-split determinism contract, one-time
   setup cost, incremental stored updates and the compiled-artifact
   cache (docs/SERVING.md). *)

module Session = Serve.Session
module Cache = Serve.Artifact_cache

let spec = Tutil.spec32

let config_for engine =
  C4cam.Driver.Run_config.(default |> with_engine engine)

let hdc_data ~q ~dims ~classes ?(seed = 23) () =
  Workloads.Hdc.synthetic ~seed ~noise:0.15 ~dims ~n_classes:classes
    ~n_queries:q ~bits:1 ()

(* ---- batch-split vs concatenated differential -------------------------- *)

(* Serving N batches of q queries must produce byte-identical
   values/indices and the same summed activity counters as one
   concatenated q*N one-shot run — modulo the single write charge
   (sessions pay allocation + writes once, so search_ops is the only
   counter that scales with N). Held across the jobs x engine matrix. *)
let test_split_vs_concatenated () =
  let q = 4 and n_batches = 4 and dims = 128 and classes = 10 in
  let total = q * n_batches in
  let data = hdc_data ~q:total ~dims ~classes () in
  let reference =
    Parallel.run ~jobs:1 @@ fun _ ->
    let c =
      C4cam.Driver.compile ~spec
        (C4cam.Kernels.hdc_dot ~q:total ~dims ~classes ~k:1)
    in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
  in
  let session_src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  List.iter
    (fun jobs ->
      List.iter
        (fun engine ->
          Parallel.run ~jobs @@ fun _pool ->
          let what =
            Printf.sprintf "jobs %d engine %s" jobs
              (match engine with
              | `Compiled -> "compiled"
              | `Treewalk -> "treewalk")
          in
          let session =
            Session.create ~config:(config_for engine) ~spec
              ~stored:data.stored session_src
          in
          (* one oversized batch: the session splits it into q-row
             chunks internally *)
          let r = Session.query session data.queries in
          Alcotest.(check Tutil.rows_testable)
            (what ^ ": values") reference.values r.values;
          Alcotest.(check Tutil.int_rows_testable)
            (what ^ ": indices") reference.indices r.indices;
          let a = reference.stats
          and b = Camsim.Simulator.stats (Session.simulator session) in
          let check_int name want got =
            Alcotest.(check int) (what ^ ": " ^ name) want got
          in
          check_int "query_cycles" a.n_query_cycles b.n_query_cycles;
          check_int "write_ops" a.n_write_ops b.n_write_ops;
          check_int "banks" a.n_banks b.n_banks;
          check_int "mats" a.n_mats b.n_mats;
          check_int "arrays" a.n_arrays b.n_arrays;
          check_int "subarrays" a.n_subarrays b.n_subarrays;
          check_int "kernel_binary" a.n_kernel_binary b.n_kernel_binary;
          check_int "kernel_nibble" a.n_kernel_nibble b.n_kernel_nibble;
          check_int "kernel_generic" a.n_kernel_generic b.n_kernel_generic;
          check_int "kernel_early_exit" a.n_kernel_early_exit
            b.n_kernel_early_exit;
          (* one search op per tile per chunk instead of per call *)
          check_int "search_ops" (n_batches * a.n_search_ops)
            b.n_search_ops;
          (* the write charge is identical, paid exactly once *)
          Tutil.check_float ~eps:0. (what ^ ": e_write") a.e_write
            b.e_write)
        [ `Compiled; `Treewalk ])
    [ 1; 4 ];
  (* batch-at-a-time serving agrees with the single split call *)
  let one_by_one =
    Parallel.run ~jobs:1 @@ fun _ ->
    let session =
      Session.create ~config:(config_for `Compiled) ~spec
        ~stored:data.stored session_src
    in
    Array.concat
      (List.init n_batches (fun i ->
           (Session.query session (Array.sub data.queries (i * q) q))
             .indices))
  in
  Alcotest.(check Tutil.int_rows_testable)
    "per-batch calls" reference.indices one_by_one

(* ---- write energy charged once, via the profile counters --------------- *)

let test_write_energy_once () =
  let q = 4 and dims = 128 and classes = 10 and n_batches = 8 in
  let data = hdc_data ~q:(q * n_batches) ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  (* what one batch costs end to end (its own fresh simulator) *)
  let oneshot =
    let c = C4cam.Driver.compile ~spec src in
    C4cam.Driver.run_cam c
      ~queries:(Array.sub data.queries 0 q)
      ~stored:data.stored
  in
  let collector = Instrument.Collect.create () in
  let config =
    C4cam.Driver.Run_config.(default |> with_profile collector)
  in
  Cache.clear ();
  let session = Session.create ~config ~spec ~stored:data.stored src in
  for i = 0 to n_batches - 1 do
    ignore (Session.query session (Array.sub data.queries (i * q) q))
  done;
  let p = Instrument.Collect.profile collector in
  (match p.serve with
  | None -> Alcotest.fail "expected a serve section in the profile"
  | Some s ->
      Alcotest.(check int) "batches" n_batches s.batches;
      Alcotest.(check int) "queries served" (q * n_batches)
        s.queries_served;
      Alcotest.(check bool) "first session misses the cache" false
        s.artifact_cache_hit;
      (* the whole point: 8 batches, one write charge *)
      Tutil.check_float ~eps:0. "write energy charged once"
        oneshot.stats.e_write s.serve_write_energy_j);
  (match p.sim with
  | None -> Alcotest.fail "expected a sim section in the profile"
  | Some s ->
      Alcotest.(check int) "write ops not repeated"
        oneshot.stats.n_write_ops s.write_ops;
      Alcotest.(check int) "devices allocated once"
        oneshot.stats.n_subarrays s.subarrays);
  (* a second session on the same (source, spec) skips the pipeline:
     its collector records no passes, and the serve section says hit *)
  let collector2 = Instrument.Collect.create () in
  let config2 =
    C4cam.Driver.Run_config.(default |> with_profile collector2)
  in
  let session2 = Session.create ~config:config2 ~spec ~stored:data.stored src in
  ignore (Session.query session2 (Array.sub data.queries 0 q));
  let p2 = Instrument.Collect.profile collector2 in
  Alcotest.(check int) "cache hit: no passes re-run" 0
    (List.length p2.passes);
  match p2.serve with
  | Some s -> Alcotest.(check bool) "cache hit reported" true
                s.artifact_cache_hit
  | None -> Alcotest.fail "expected a serve section"

(* ---- incremental stored updates ---------------------------------------- *)

let test_update_stored () =
  (* dims <= cols and classes <= rows, so the whole stored set is one
     tile: setup is exactly one write op, and replacing one row must
     cost exactly one more. *)
  let q = 2 and dims = 32 and classes = 4 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  Cache.clear ();
  let session =
    Session.create ~config:(config_for `Compiled) ~spec ~stored:data.stored
      src
  in
  ignore (Session.query session data.queries);
  let stats = Camsim.Simulator.stats (Session.simulator session) in
  Alcotest.(check int) "one-tile setup: one write op" 1 stats.n_write_ops;
  (* the update lands in the query-pack cache's backing store, so any
     cached pack of the pinned buffer must be dropped *)
  let qc = Session.qcache session in
  ignore (Interp.Ops.Qcache.rows_cached qc (Session.stored_value session));
  Alcotest.(check bool) "pinned buffer cached" true
    (Interp.Ops.Qcache.position qc (Session.stored_value session) >= 0);
  let replacement = Array.init dims (fun i -> float_of_int ((i + 1) mod 2)) in
  Session.update_stored session ~row:2 replacement;
  Alcotest.(check int) "query-pack cache invalidated" (-1)
    (Interp.Ops.Qcache.position qc (Session.stored_value session));
  (* the next batch rewrites only the changed row *)
  let r = Session.query session data.queries in
  let stats = Camsim.Simulator.stats (Session.simulator session) in
  Alcotest.(check int) "one changed row, one extra write op" 2
    stats.n_write_ops;
  (* and serves results identical to a fresh run over the new rows *)
  let stored' = Array.copy data.stored in
  stored'.(2) <- replacement;
  let fresh =
    let c = C4cam.Driver.compile ~spec src in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:stored'
  in
  Alcotest.(check Tutil.rows_testable) "values after update" fresh.values
    r.values;
  Alcotest.(check Tutil.int_rows_testable) "indices after update"
    fresh.indices r.indices;
  (* rewriting identical rows is free *)
  Session.update_stored session ~row:2 replacement;
  ignore (Session.query session data.queries);
  let stats = Camsim.Simulator.stats (Session.simulator session) in
  Alcotest.(check int) "unchanged rows cost nothing" 2 stats.n_write_ops

(* ---- replay write generations ------------------------------------------ *)

(* A replayed write skips comparing a stored window whose rows nobody
   wrote since its last compare (Camsim.Writegen). Every writer must
   therefore advance the generations. Mutate through
   [Session.update_stored] and through an IR [memref.store] into the
   stored operand; the results must match a fresh run over the mutated
   rows, and the write ledger must match a twin whose every replay
   compares every window. *)
let test_replay_generations () =
  let q = 4 and dims = 96 and classes = 64 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let make () =
    Session.create ~config:(config_for `Compiled) ~spec ~stored:data.stored
      src
  in
  let s = make () and twin = make () in
  let stored = Array.map Array.copy data.stored in
  let check_step what =
    (* clearing the twin's cache counts every tracked row as written *)
    Interp.Ops.Qcache.clear (Session.qcache twin);
    let r = Session.query s data.queries in
    let rt = Session.query twin data.queries in
    let fresh =
      C4cam.Driver.run_cam (C4cam.Driver.compile ~spec src)
        ~queries:data.queries ~stored
    in
    Alcotest.(check Tutil.rows_testable) (what ^ ": values") fresh.values
      r.values;
    Alcotest.(check Tutil.int_rows_testable) (what ^ ": indices")
      fresh.indices r.indices;
    Alcotest.(check Tutil.rows_testable) (what ^ ": twin values") rt.values
      r.values;
    let a = Camsim.Simulator.stats (Session.simulator s)
    and b = Camsim.Simulator.stats (Session.simulator twin) in
    Alcotest.(check int) (what ^ ": write ops") b.n_write_ops a.n_write_ops;
    if a.e_write <> b.e_write then
      Alcotest.failf "%s: e_write %.17g vs twin %.17g" what a.e_write
        b.e_write;
    a.n_write_ops
  in
  let update row values =
    stored.(row) <- values;
    Session.update_stored s ~row values;
    Session.update_stored twin ~row values
  in
  let flipped row = Array.map (fun v -> 1. -. v) stored.(row) in
  let w0 = check_step "setup" in
  let w1 = check_step "steady" in
  Alcotest.(check int) "steady batch writes nothing" w0 w1;
  update 5 (flipped 5);
  let w2 = check_step "row 5 flipped" in
  (* 96 dims over 32-column subarrays: one row spans 3 windows *)
  Alcotest.(check int) "one row rewritten in each of its 3 windows" (w1 + 3)
    w2;
  update 35 (Array.copy stored.(35));
  let w3 = check_step "row 35 rewritten unchanged" in
  Alcotest.(check int) "unchanged contents cost nothing" w2 w3;
  update 35 (flipped 35);
  update 6 (flipped 6);
  ignore (check_step "rows 6 and 35 flipped");
  (* an IR store into the stored operand is a writer the session never
     sees: the interpreter reports it through the query-row cache *)
  let m =
    Ir.Parser.parse_module
      {|func @f(%0: memref<2x32xf32>, %1: memref<32x32xf32>, %2: index,
         %3: f32) -> (memref<2x32xf32>) {
  %4 = "arith.constant"() {value = 0} : () -> index
  "memref.store"(%3, %1, %2, %4)
    : (f32, memref<32x32xf32>, index, index) -> ()
  %5 = "memref.alloc"() : () -> memref<2x32xf32>
  %6 = "cam.alloc_bank"() {rows = 32, cols = 32} : () -> !cam.bank_id
  %7 = "cam.alloc_mat"(%6) : (!cam.bank_id) -> !cam.mat_id
  %8 = "cam.alloc_array"(%7) : (!cam.mat_id) -> !cam.array_id
  %9 = "cam.alloc_subarray"(%8) : (!cam.array_id) -> !cam.subarray_id
  "cam.write_value"(%9, %1, %4)
    : (!cam.subarray_id, memref<32x32xf32>, index) -> ()
  "cam.search"(%9, %0, %4) {kind = #best, metric = #hamming, rows = 32}
    : (!cam.subarray_id, memref<2x32xf32>, index) -> ()
  %10 = "cam.read"(%9) {queries = 2, rows = 32}
    : (!cam.subarray_id) -> memref<2x32xf32>
  "cam.merge_partial"(%5, %10) {direction = #horizontal, kind = #add}
    : (memref<2x32xf32>, memref<2x32xf32>) -> ()
  "func.return"(%5) : (memref<2x32xf32>) -> ()
}
|}
  in
  let rng = Rng.create 9 in
  let bits n =
    Array.init n (fun _ -> Array.init 32 (fun _ -> float (Rng.int rng 2)))
  in
  let queries = Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows (bits 2)) in
  let rows0 = bits 32 in
  (* [tracked] keeps generations of its stored backing; [plain] does not
     and compares every replay *)
  let side ~tracked =
    let sim = Camsim.Simulator.create spec in
    Camsim.Simulator.start_recording sim;
    let buf = Interp.Rtval.buffer_of_rows rows0 in
    let qcache = Interp.Ops.Qcache.create () in
    if tracked then
      Interp.Ops.Qcache.track qcache buf.Interp.Rtval.b_data ~row_len:32;
    (sim, buf, qcache)
  in
  let a = side ~tracked:true and b = side ~tracked:false in
  let run (sim, buf, qcache) ~first row value =
    if not first then Camsim.Simulator.rewind sim;
    let o =
      Interp.Machine.run ~sim ~qcache m "f"
        [ queries; Interp.Rtval.Buffer buf; Interp.Rtval.Index row;
          Interp.Rtval.Scalar value ]
    in
    if first then Camsim.Simulator.seal_recording sim;
    match o.Interp.Machine.results with
    | [ Interp.Rtval.Buffer r ] -> Interp.Rtval.buffer_rows r
    | _ -> Alcotest.fail "expected one buffer result"
  in
  let current = Array.map Array.copy rows0 in
  List.iteri
    (fun i (row, flip) ->
      let value = if flip then 1. -. current.(row).(0) else current.(row).(0) in
      current.(row).(0) <- value;
      let what = Printf.sprintf "store %d (row %d, flip %b)" i row flip in
      let ra = run a ~first:(i = 0) row value
      and rb = run b ~first:(i = 0) row value in
      Alcotest.(check Tutil.rows_testable) (what ^ ": vs untracked") rb ra;
      let (sa, _, _) = a and (sb, _, _) = b in
      if Camsim.Simulator.stats sa <> Camsim.Simulator.stats sb then
        Alcotest.failf "%s: simulator ledger differs from untracked" what;
      (* and the distances are those of a fresh one-shot run *)
      let fresh = Camsim.Simulator.create spec in
      let fbuf = Interp.Rtval.buffer_of_rows current in
      let o =
        Interp.Machine.run ~sim:fresh m "f"
          [ queries; Interp.Rtval.Buffer fbuf; Interp.Rtval.Index row;
            Interp.Rtval.Scalar value ]
      in
      match o.Interp.Machine.results with
      | [ Interp.Rtval.Buffer r ] ->
          Alcotest.(check Tutil.rows_testable) (what ^ ": vs fresh")
            (Interp.Rtval.buffer_rows r) ra
      | _ -> Alcotest.fail "expected one buffer result")
    [ (0, false); (0, false); (5, true); (5, false); (31, true); (31, true) ]

(* ---- update_stored reclassification across the jobs x engine matrix ---- *)

(* Replacing pinned rows with rows of a different kernel class (binary
   -> nibble, binary -> generic float) exercises the in-place flat-pack
   rewrite and class-summary maintenance under serve replay: every
   (jobs, engine) combination must serve byte-identical results to a
   fresh one-shot run over the updated rows. *)
let test_update_reclassification_matrix () =
  let q = 4 and dims = 64 and classes = 8 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let nibble_row = Array.init dims (fun i -> float_of_int (i mod 16)) in
  let float_row =
    Array.init dims (fun i -> 0.25 +. float_of_int (i mod 3))
  in
  let stored' = Array.copy data.stored in
  stored'.(1) <- nibble_row;
  stored'.(3) <- float_row;
  let reference =
    Parallel.run ~jobs:1 @@ fun _ ->
    let c = C4cam.Driver.compile ~spec src in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:stored'
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun engine ->
          Parallel.run ~jobs @@ fun _pool ->
          let what =
            Printf.sprintf "jobs %d engine %s" jobs
              (match engine with
              | `Compiled -> "compiled"
              | `Treewalk -> "treewalk")
          in
          let session =
            Session.create ~config:(config_for engine) ~spec
              ~stored:data.stored src
          in
          ignore (Session.query session data.queries);
          Session.update_stored session ~row:1 nibble_row;
          Session.update_stored session ~row:3 float_row;
          let r = Session.query session data.queries in
          Alcotest.(check Tutil.rows_testable)
            (what ^ ": values") reference.values r.values;
          Alcotest.(check Tutil.int_rows_testable)
            (what ^ ": indices") reference.indices r.indices)
        [ `Compiled; `Treewalk ])
    [ 1; 4 ]

(* ---- steady-state GC pressure ------------------------------------------ *)

(* The zero-allocation-hot-path contract: after the first (setup)
   batch, a binary-tier serving session runs in reused flat buffers
   and per-domain arenas, so its per-query minor-word rate stays an
   order of magnitude under the pre-flat baseline (~52k words/query).
   Measured at jobs = 1, where [Gc.minor_words] covers the whole
   dispatching domain deterministically. The bound is deliberately
   loose (2x the observed steady state) so it trips on a regression
   that re-grows per-batch allocation, not on compiler noise. *)
let test_steady_state_alloc () =
  Parallel.run ~jobs:1 @@ fun _pool ->
  let q = 8 and dims = 256 and classes = 10 and n_batches = 6 in
  let data = hdc_data ~q:(q * n_batches) ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let session =
    Session.create ~config:(config_for `Compiled) ~spec ~stored:data.stored
      src
  in
  for i = 0 to n_batches - 1 do
    ignore (Session.query session (Array.sub data.queries (i * q) q))
  done;
  let st = Session.stats session in
  Alcotest.(check bool) "counter engaged" true
    (st.alloc_minor_words_per_query > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "steady-state alloc bounded (%.0f words/query)"
       st.alloc_minor_words_per_query)
    true
    (st.alloc_minor_words_per_query < 1500.)

(* ---- the compiled-artifact cache --------------------------------------- *)

let test_artifact_cache () =
  let q = 2 and dims = 32 and classes = 4 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  Cache.clear ();
  Alcotest.(check int) "cache empty" 0 (Cache.length ());
  let a =
    Session.create ~config:(config_for `Compiled) ~spec ~stored:data.stored
      src
  in
  Alcotest.(check bool) "first create misses" true
    (Session.cache_status a = `Miss);
  let b =
    Session.create ~config:(config_for `Compiled) ~spec ~stored:data.stored
      src
  in
  Alcotest.(check bool) "second create hits" true
    (Session.cache_status b = `Hit);
  Alcotest.(check int) "one artifact cached" 1 (Cache.length ());
  (* the hit returns the very artifact the miss inserted *)
  Alcotest.(check bool) "same compiled artifact" true
    (Session.compiled a == Session.compiled b);
  (* a different spec is a different key *)
  let spec16 = Archspec.Spec.square 16 Archspec.Spec.Base in
  let c =
    Session.create ~config:(config_for `Compiled) ~spec:spec16
      ~stored:data.stored src
  in
  Alcotest.(check bool) "different spec misses" true
    (Session.cache_status c = `Miss);
  Alcotest.(check int) "two artifacts cached" 2 (Cache.length ());
  (* both sessions serve (shared artifact, private simulators) *)
  let ra = Session.query a data.queries and rb = Session.query b data.queries in
  Alcotest.(check Tutil.int_rows_testable) "shared artifact serves"
    ra.indices rb.indices

(* ---- the cache under a thundering herd ---------------------------------- *)

(* N domains race [Session.create] on the same (source, spec): the
   single-flight cache must run the pipeline exactly once, and every
   session must hold the very same artifact. *)
let test_artifact_cache_race () =
  let q = 2 and dims = 32 and classes = 4 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  Cache.clear ();
  let before = Cache.compiles () in
  let n = 8 in
  let gate = Atomic.make 0 in
  let racers =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            (* line the domains up so the lookups genuinely collide *)
            Atomic.incr gate;
            while Atomic.get gate < n do
              Domain.cpu_relax ()
            done;
            Session.create ~config:(config_for `Compiled) ~spec
              ~stored:data.stored src))
  in
  let sessions = List.map Domain.join racers in
  Alcotest.(check int) "pipeline ran exactly once" 1
    (Cache.compiles () - before);
  Alcotest.(check int) "one artifact cached" 1 (Cache.length ());
  let first = Session.compiled (List.hd sessions) in
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d shares the artifact" i)
        true
        (Session.compiled s == first))
    sessions;
  (* every racer serves, and they agree *)
  let r0 = Session.query (List.hd sessions) data.queries in
  List.iter
    (fun s ->
      let r = Session.query s data.queries in
      Alcotest.(check Tutil.int_rows_testable) "racers agree" r0.indices
        r.indices)
    (List.tl sessions)

(* ---- rejected batches --------------------------------------------------- *)

let test_bad_batch () =
  let q = 4 and dims = 32 and classes = 4 in
  let data = hdc_data ~q ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let session =
    Session.create ~config:(config_for `Compiled) ~spec ~stored:data.stored
      src
  in
  let rejects what batch =
    match Session.query session batch with
    | _ -> Alcotest.failf "%s: expected Serve_error" what
    | exception Session.Serve_error _ -> ()
  in
  rejects "empty" [||];
  rejects "not a multiple" (Array.sub data.queries 0 3);
  match
    Session.create ~config:(config_for `Compiled) ~spec
      ~stored:(Array.sub data.stored 0 2) src
  with
  | _ -> Alcotest.fail "wrong stored row count: expected Serve_error"
  | exception Session.Serve_error _ -> ()

(* ---- the scoped kernel cap (satellite of the same API pass) ------------ *)

let test_with_kernel_cap_scoped () =
  let rows = 8 and cols = 32 in
  let rng = Rng.create 5151 in
  let s = Camsim.Subarray.create ~rows ~cols ~bits:1 in
  Camsim.Subarray.write s
    (Array.init rows (fun _ ->
         Array.init cols (fun _ -> float_of_int (Rng.int rng 2))));
  let queries =
    [| Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) |]
  in
  let dispatched_generic () =
    let stats = Camsim.Stats.create () in
    ignore
      (Camsim.Subarray.search ~stats s ~queries ~row_offset:0 ~rows
         ~metric:`Hamming);
    stats.n_kernel_generic > 0
  in
  Alcotest.(check bool) "binary tier by default" false
    (dispatched_generic ());
  Alcotest.(check bool) "generic inside the scope" true
    (Camsim.Subarray.with_kernel_cap s `Generic dispatched_generic);
  Alcotest.(check bool) "restored after the scope" false
    (dispatched_generic ());
  (* restored even when the body raises *)
  (try
     Camsim.Subarray.with_kernel_cap s `Generic (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after an exception" false
    (dispatched_generic ())

let () =
  Alcotest.run "serve"
    [
      ( "sessions",
        [
          Alcotest.test_case "split vs concatenated differential" `Quick
            test_split_vs_concatenated;
          Alcotest.test_case "write energy charged once" `Quick
            test_write_energy_once;
          Alcotest.test_case "update_stored" `Quick test_update_stored;
          Alcotest.test_case "replay write generations" `Quick
            test_replay_generations;
          Alcotest.test_case "update_stored reclassification matrix"
            `Quick test_update_reclassification_matrix;
          Alcotest.test_case "steady-state GC pressure" `Quick
            test_steady_state_alloc;
          Alcotest.test_case "artifact cache" `Quick test_artifact_cache;
          Alcotest.test_case "artifact cache under a thundering herd"
            `Quick test_artifact_cache_race;
          Alcotest.test_case "bad batches rejected" `Quick test_bad_batch;
        ] );
      ( "kernel cap",
        [
          Alcotest.test_case "with_kernel_cap is scoped" `Quick
            test_with_kernel_cap_scoped;
        ] );
    ]
