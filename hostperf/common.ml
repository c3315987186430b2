(* Shared plumbing of the host-performance benchmark: the clock, the
   machine-speed reference, sample statistics, the end-to-end and
   per-layer metric sets, set-up repetition, the camsim probes and the
   one-line JSON result. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ---- sample statistics ------------------------------------------------ *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let rank n p =
  max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float n))))

let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  if Array.length a = 0 then 0. else a.(rank (Array.length a) p - 1)

let median xs = percentile xs 50.

(* The highest whole percentile that leaves at least ten samples above
   its rank — the tail a run of [n] samples can support. *)
let tail_percentile n =
  let rec go p =
    if p <= 50 || n - rank n (float p) >= 10 then p else go (p - 1)
  in
  go 99

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float (Array.length xs)

(* ---- metrics and the result line -------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let json_number v =
  if not (Float.is_finite v) then invalid_arg "json_number: not finite";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let show { name; value; unit } =
  Printf.sprintf "%-30s %24s %s" name (json_number value) unit

(* The last stdout line: exactly correct / attempted / failed / metrics. *)
let emit ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun { name; value; unit } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    correct attempted failed
    (String.concat ", " body)

(* What a workload run hands back to [Main]. *)
type outcome = {
  correct : bool;  (** every output check passed *)
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(* ---- the machine's speed --------------------------------------------- *)

(* On a shared host the same code runs up to twice as fast at one moment
   as at the next, in spells of seconds to minutes, so wall time alone
   measures the host as much as the program. A fixed reference loop,
   timed between the ops of every timed phase, tracks that speed. An
   op's wall time scaled by [ref_loop_ms] over the reference loop's time
   measured around the op is its time in reference milliseconds
   (ref_ms): milliseconds on a machine where the loop takes exactly
   [ref_loop_ms]. The loop is sized to take about that long on a 2-vCPU
   Xeon virtual machine, so ref_ms read close to ms there. *)

let ref_loop_ms = 0.15

(* A single cycle through 32 Ki slots (Sattolo's shuffle with a fixed
   generator), for a dependent-load chase that misses L1. *)
let chase =
  let a = Array.init 32768 Fun.id in
  let x = ref 12345 in
  for i = 32767 downto 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let dot_a = Array.init 1024 (fun i -> float (i land 7))
let dot_b = Array.init 1024 (fun i -> float ((i * 3) land 5))
let stream = Bytes.make (1 lsl 19) '\001'
let sink = ref 0

(* Integer arithmetic, a pointer chase, a float dot product and a
   strided read over 512 KB; allocates nothing, so it never runs the
   program's GC work. *)
let reference_loop () =
  let x = ref 0 in
  for i = 1 to 20_000 do
    x := !x + ((i * 7) lxor (i lsr 3))
  done;
  let j = ref 0 in
  for _ = 1 to 14_000 do
    j := chase.(!j)
  done;
  let s = ref 0. in
  for _ = 1 to 14 do
    for i = 0 to 1023 do
      s := !s +. (dot_a.(i) *. dot_b.(i))
    done
  done;
  let b = ref 0 in
  for i = 0 to (Bytes.length stream / 32) - 1 do
    b := !b + Char.code (Bytes.get stream (i * 32))
  done;
  sink := !x + !j + int_of_float !s + !b

(* The reference loop's times over one timed phase. Probe 0 runs before
   the first op; the work timed between probes [j] and [j + 1] is
   scaled by [scale] [j]. *)
type speed = { mutable probes : float array; mutable n : int }

let speed () = { probes = Array.make 256 0.; n = 0 }

(* The loop runs three times and the last run is timed: the first two
   bring its data back into the caches the program's ops evicted, so the
   probe measures the host's speed and not the program's footprint. *)
let probe sp =
  reference_loop ();
  reference_loop ();
  let (), dt = time reference_loop in
  if sp.n = Array.length sp.probes then
    sp.probes <- Array.append sp.probes (Array.make sp.n 0.);
  sp.probes.(sp.n) <- dt;
  sp.n <- sp.n + 1

(* Wall time to ref time for the work between probes [j] and [j + 1]:
   the median over the two probes before and the two after it. *)
let scale sp j =
  let lo = max 0 (j - 1) and hi = min (sp.n - 1) (j + 2) in
  ref_loop_ms *. 1e-3 /. median (Array.sub sp.probes lo (hi - lo + 1))

(* [xs.(i)] scaled as the work between probes [marks.(i)] and the next. *)
let scaled sp ~marks xs = Array.mapi (fun i x -> x *. scale sp marks.(i)) xs

let loop_us sp = 1e6 *. median (Array.sub sp.probes 0 sp.n)

(* [f ()] and its time in reference seconds, from probes just before and
   just after it. *)
let ref_time f =
  let sp = speed () in
  probe sp;
  let x, dt = time f in
  probe sp;
  (x, dt *. scale sp 0)

let sum xs = Array.fold_left ( +. ) 0. xs

(* ---- one timed phase and its end-to-end metrics ----------------------- *)

type phase = {
  ops : int;  (** ops completed *)
  failed : int;  (** ops whose output check failed or that raised *)
  wall_s : float;  (** time of the timed phase *)
  latencies_ms : float array;  (** one per latency sample *)
  ref_wall_s : float;  (** [wall_s] in reference seconds *)
  ref_latencies_ms : float array;  (** [latencies_ms] in ref_ms *)
  ref_loop_us : float;  (** median measured time of the reference loop *)
  sample_what : string;  (** what one latency sample is *)
  sim_latency_s : float;  (** summed simulated latency of the phase *)
  sim_energy_j : float;
  sim_rows : int;  (** query rows behind the two sums *)
}

let heap_peak_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let tail_note p =
  let n = Array.length p.latencies_ms in
  Printf.sprintf "latency_tail_ref_ms is p%d of %d samples (%s)"
    (tail_percentile n) n p.sample_what

(* The same figures in plain wall time, and the speed they were taken
   at. *)
let wall_note p =
  let n = Array.length p.latencies_ms in
  let tail = tail_percentile n in
  Printf.sprintf
    "wall clock: %.2f ops/s, p50 %.3f ms, p%d %.3f ms; reference loop \
     %.1f us (nominal %.0f us)"
    (float p.ops /. p.wall_s)
    (median p.latencies_ms) tail
    (percentile p.latencies_ms (float tail))
    p.ref_loop_us (ref_loop_ms *. 1e3)

let end_to_end ~setup_s p =
  let n = Array.length p.latencies_ms in
  let metric name unit value = { name; value; unit } in
  [
    metric "throughput_per_ref_s" "1/ref_s" (float p.ops /. p.ref_wall_s);
    metric "latency_p50_ref_ms" "ref_ms" (median p.ref_latencies_ms);
    metric "latency_tail_ref_ms" "ref_ms"
      (percentile p.ref_latencies_ms (float (tail_percentile n)));
    metric "setup_s" "s" setup_s;
    metric "heap_peak_mb" "MB" (heap_peak_mb ());
    metric "sim_latency_per_query_s" "sim_s"
      (p.sim_latency_s /. float p.sim_rows);
    metric "sim_energy_per_query_j" "J" (p.sim_energy_j /. float p.sim_rows);
    metric "success_ratio" "1" (float (p.ops - p.failed) /. float p.ops);
  ]

(* The simulated figures of a traced phase must equal the untraced
   phase's bit for bit. *)
let same_sim a b =
  Int64.equal
    (Int64.bits_of_float a.sim_latency_s)
    (Int64.bits_of_float b.sim_latency_s)
  && Int64.equal
       (Int64.bits_of_float a.sim_energy_j)
       (Int64.bits_of_float b.sim_energy_j)
  && a.sim_rows = b.sim_rows

(* ---- set-up repetitions ----------------------------------------------- *)

(* Run [setup] [reps] times, keeping the last instance; every
   repetition starts from a compacted heap, which also releases the
   instance before it. Returns the kept instance and the median set-up
   time in reference seconds. *)
let repeated_setup ~reps ~setup =
  let times = Array.make reps 0. in
  let rec go i =
    Gc.compact ();
    let x, dt = ref_time setup in
    times.(i) <- dt;
    if i = reps - 1 then x else go (i + 1)
  in
  let x = go 0 in
  (x, median times)

(* ---- GC deltas -------------------------------------------------------- *)

let gc_mark () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* Minor words allocated and major collections since [gc_mark]. *)
let gc_since (w0, m0) =
  let w1, m1 = gc_mark () in
  (w1 -. w0, m1 - m0)

(* ---- the per-layer metrics of a traced run ---------------------------- *)

(* Every traced run reports this whole set, in this order. A layer a
   workload leaves idle reads 0: it did no work there. *)
let per_layer_units =
  [
    ("workloads.gen_ms", "ms");
    ("frontend.parse_ms", "ms");
    ("passes.compile_ms", "ms");
    ("passes.torch_to_cim_ms", "ms");
    ("passes.cim_fuse_ms", "ms");
    ("passes.cim_partition_ms", "ms");
    ("passes.cam_map_ms", "ms");
    ("passes.canonicalize_ms", "ms");
    ("passes.cam_ops", "count");
    ("interp.run_ms", "ms");
    ("interp.ops_per_query", "count");
    ("camsim.dispatches_per_query", "count");
    ("camsim.search_us", "us");
    ("camsim.write_us_per_row", "us");
    ("camsim.search_ops", "count");
    ("camsim.write_ops", "count");
    ("serve.fanout_ms_per_batch", "ms");
    ("serve.merge_ms_per_batch", "ms");
    ("serve.mutation_us", "us");
    ("serve.first_query_s", "s");
    ("serve.session_ms_per_batch", "ms");
    ("server.batches", "count");
    ("server.batch_fill", "rows");
    ("server.rows_padded_ratio", "1");
    ("server.lat_p50_ms", "ms");
    ("server.stats_ms", "ms");
    ("server.latency_growth", "1");
    ("tcp.parse_us", "us");
    ("tcp.format_us", "us");
    ("tcp.wire_ms", "ms");
    ("gc.minor_words_per_query", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_throughput_pct", "%");
    ("trace.overhead_p50_pct", "%");
    ("host.ref_loop_us", "us");
    ("host.wall_throughput_per_s", "1/s");
    ("host.wall_latency_p50_ms", "ms");
  ]

let per_layer values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_units) then
        invalid_arg ("unknown per-layer metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      {
        name;
        unit;
        value = Option.value (List.assoc_opt name values) ~default:0.;
      })
    per_layer_units

let pass_metrics =
  [
    ("passes.torch_to_cim_ms", "torch-to-cim");
    ("passes.cim_fuse_ms", "cim-fuse-ops");
    ("passes.cim_partition_ms", "cim-partition");
    ("passes.cam_map_ms", "cam-map");
    ("passes.canonicalize_ms", "canonicalize");
  ]

(* Frontend and per-pass milliseconds from a compile profile, plus the
   op count of the final cam IR. A pass that runs twice (canonicalize)
   is summed. *)
let compile_layers (prof : Instrument.Profile.t) =
  let pass_ms name =
    List.fold_left
      (fun acc (e : Instrument.Profile.pass_entry) ->
        if e.pass_name = name then acc +. (e.duration_s *. 1e3) else acc)
      0. prof.passes
  in
  ("frontend.parse_ms", prof.frontend_s *. 1e3)
  :: ( "passes.cam_ops",
       match List.rev prof.passes with
       | last :: _ -> float last.ops_after
       | [] -> 0. )
  :: List.map (fun (key, pass) -> (key, pass_ms pass)) pass_metrics

(* ---- isolated camsim probes ------------------------------------------- *)

(* Segment [i] of a row set: a 32-cell slice, walking rows first, then
   column offsets. *)
let segment rows i =
  let n = Array.length rows in
  let d = Array.length rows.(0) in
  Array.sub rows.(i mod n) (32 * (i / n mod (d / 32))) 32

(* [Camsim.Subarray.write] and [search] on a 32x32 binary subarray
   holding the workload's own rows; every search gets fresh query
   arrays, so no identity-keyed pack cache can hit. Returns the median
   microseconds per written row and per 16-query search. *)
let subarray_probe ~rows ~queries =
  let sa = Camsim.Subarray.create ~rows:32 ~cols:32 ~bits:1 in
  let data =
    Array.init 200 (fun w ->
        Array.init 32 (fun r -> segment rows ((w * 32) + r)))
  in
  let write_us =
    Array.map
      (fun d ->
        snd (time (fun () -> Camsim.Subarray.write sa d)) *. 1e6 /. 32.)
      data
  in
  Camsim.Subarray.write sa data.(0);
  let batches =
    Array.init 500 (fun s ->
        Array.init 16 (fun r -> segment queries ((s * 16) + r)))
  in
  let search_us =
    Array.map
      (fun queries ->
        1e6
        *. snd
             (time (fun () ->
                  Camsim.Subarray.search sa ~queries ~row_offset:0 ~rows:32
                    ~metric:`Hamming)))
      batches
  in
  [
    ("camsim.write_us_per_row", median write_us);
    ("camsim.search_us", median search_us);
  ]

(* ---- the outcome of a run --------------------------------------------- *)

(* Tracing overhead: how much slower the traced phase ran than the
   untraced one on the same inputs, in percent. *)
let overhead ~untraced:u ~traced:t =
  let tput p = float p.ops /. p.ref_wall_s in
  [
    ("trace.overhead_throughput_pct", 100. *. ((tput u /. tput t) -. 1.));
    ( "trace.overhead_p50_pct",
      100.
      *. ((median t.ref_latencies_ms /. median u.ref_latencies_ms) -. 1.) );
  ]

(* The untraced phase in plain wall time, and the speed it ran at. *)
let host_layers p =
  [
    ("host.ref_loop_us", p.ref_loop_us);
    ("host.wall_throughput_per_s", float p.ops /. p.wall_s);
    ("host.wall_latency_p50_ms", median p.latencies_ms);
  ]

(* The end-to-end set of the untraced phase [p]; or, when [traced] is
   given, the per-layer set of the traced phase it runs on the same
   inputs afterwards. [gc] is [p]'s {!gc_since}. *)
let outcome ~setup_s ~gc ?traced p =
  let e2e = end_to_end ~setup_s p in
  let notes = [ tail_note p; wall_note p ] in
  match traced with
  | None ->
      {
        correct = p.failed = 0;
        attempted = p.ops;
        failed = p.failed;
        metrics = e2e;
        notes;
      }
  | Some traced ->
      let t, layers = traced () in
      let same = same_sim p t in
      let failed = p.failed + t.failed in
      let words, majors = gc in
      let show_all tag ms = List.map (fun x -> tag ^ show x) ms in
      {
        correct = failed = 0 && same;
        attempted = p.ops + t.ops;
        failed;
        metrics =
          per_layer
            (layers
            @ ("gc.minor_words_per_query", words /. float p.sim_rows)
              :: ("gc.major_collections", float majors)
              :: overhead ~untraced:p ~traced:t
            @ host_layers p);
        notes =
          notes
          @ Printf.sprintf "traced sim_* equal to untraced: %b" same
            :: show_all "untraced " e2e
          @ show_all "traced   " (end_to_end ~setup_s t);
      }
