(* dse-sweep: the designer's loop of the paper (Section IV-C, Fig. 8).
   One op is one [C4cam.Dse.measure] call for the registry's hdc
   workload at the smoke shape (64 queries x 2048 dims x 10 classes),
   walking the 20-point grid of square subarrays (sides 16..256, four
   optimization targets each) over and over, every point on a freshly
   seeded data set. Each point generates data, compiles from
   TorchScript and runs a one-shot simulation that writes every stored
   row before searching. *)

module Reg = Workloads.Registry

let grid =
  Array.of_list
    (List.concat_map
       (fun side ->
         List.map
           (fun opt -> Archspec.Spec.square side opt)
           Archspec.Spec.[ Base; Power; Density; Power_density ])
       [ 16; 32; 64; 128; 256 ])

let entry = Reg.find_exn "hdc"

let base_shape =
  { entry.Reg.default_shape with Reg.queries = 64; dims = 2048 }

(* Fixed work per run: whole passes over the grid, 4 per requested
   second (about the rate the parent of this benchmark sustains on a
   2-core machine). *)
let ops_for ~seconds = Array.length grid * max 2 (4 * seconds)

(* Op [i]: grid point [i mod 20] on the [i]-th data seed drawn from the
   run's seed. *)
let plan ~seed ~n =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      (grid.(i mod Array.length grid), Rng.int rng (1 lsl 30)))

let shape_of data_seed = { base_shape with Reg.seed = data_seed }

type point = { latency : float; energy : float; accuracy : float }

let measure (spec, data_seed) =
  let m = C4cam.Dse.measure ~spec ~shape:(shape_of data_seed) entry in
  {
    latency = m.C4cam.Dse.latency;
    energy = m.C4cam.Dse.energy;
    accuracy = m.C4cam.Dse.accuracy;
  }

(* The output check: the hdc data puts every query far closer to its own
   prototype than to any other, so each point must classify all of its
   queries as the generator labelled them. *)
let point_ok p = p.accuracy = 1.0

(* Time [op] on every planned point, with the reference loop timed
   after each; [op] returns the point and whatever else the caller keeps
   per point. *)
let timed_phase ops op =
  let n = Array.length ops in
  let lat = Array.make n 0. in
  let sp = Common.speed () in
  Gc.compact ();
  Common.probe sp;
  let results =
    Array.mapi
      (fun i o ->
        let r, dt = Common.time (fun () -> op o) in
        lat.(i) <- dt *. 1e3;
        Common.probe sp;
        r)
      ops
  in
  let ref_lat = Common.scaled sp ~marks:(Array.init n Fun.id) lat in
  let points = Array.map fst results in
  let sum f = Array.fold_left (fun a p -> a +. f p) 0. points in
  ( {
      Common.ops = n;
      failed =
        Array.fold_left
          (fun a p -> if point_ok p then a else a + 1)
          0 points;
      wall_s = Common.sum lat *. 1e-3;
      latencies_ms = lat;
      ref_wall_s = Common.sum ref_lat *. 1e-3;
      ref_latencies_ms = ref_lat;
      ref_loop_us = Common.loop_us sp;
      sample_what = "one Dse.measure call each";
      sim_latency_s = sum (fun p -> p.latency);
      sim_energy_j = sum (fun p -> p.energy);
      sim_rows = n * base_shape.Reg.queries;
    },
    Array.map snd results )

(* Set-up: one warm-up point, checked but kept out of timing. *)
let setup ~seed () =
  if not (point_ok (measure (grid.(0), seed))) then
    failwith "dse-sweep: the warm-up point misclassified"

(* ---- the traced phase ------------------------------------------------ *)

let generator =
  match entry.Reg.exec with Reg.Kernel mk -> mk | _ -> assert false

(* The steps [Dse.measure] takes for a Kernel entry — generator,
   [Driver.compile ~profile], [Driver.run_cam] — each timed from here.
   Returns the point with its layer times in milliseconds and its
   counters. *)
let traced_point (spec, data_seed) =
  let shape = shape_of data_seed in
  let spec = entry.Reg.fix_spec shape spec in
  let ki, gen_s = Common.time (fun () -> generator shape spec) in
  let collector = Instrument.Collect.create () in
  let compiled, compile_s =
    Common.time (fun () ->
        C4cam.Driver.compile ~profile:collector ~spec ki.Reg.ki_source)
  in
  let r, run_s =
    Common.time (fun () ->
        C4cam.Driver.run_cam compiled ~queries:ki.Reg.ki_queries
          ~stored:ki.Reg.ki_stored)
  in
  let st = r.C4cam.Driver.stats in
  let times =
    ("workloads.gen_ms", gen_s *. 1e3)
    :: ("passes.compile_ms", compile_s *. 1e3)
    :: ("interp.run_ms", run_s *. 1e3)
    :: Common.compile_layers (Instrument.Collect.profile collector)
  in
  let counts =
    [
      ( "interp.ops_per_query",
        List.fold_left
          (fun a (_, n) -> a + n)
          0 r.C4cam.Driver.ops_executed );
      ( "camsim.dispatches_per_query",
        st.Camsim.Stats.n_kernel_binary + st.n_kernel_nibble
        + st.n_kernel_generic );
      ("camsim.search_ops", st.n_search_ops);
      ("camsim.write_ops", st.n_write_ops);
    ]
  in
  let point =
    {
      latency = r.C4cam.Driver.latency;
      energy = r.C4cam.Driver.energy;
      accuracy =
        Reg.accuracy ~expected:ki.Reg.ki_labels
          (ki.Reg.ki_predict r.C4cam.Driver.indices);
    }
  in
  (point, (times, counts))

(* Layer times are means per point. Counters are per query row, except
   the two simulator counts, which are totals. *)
let traced ops =
  let p, per_point = timed_phase ops traced_point in
  let times = Array.map fst per_point in
  let counts = Array.map snd per_point in
  let total key =
    Array.fold_left (fun a c -> a +. float (List.assoc key c)) 0. counts
  in
  let rows = float p.sim_rows in
  let spec, data_seed = ops.(0) in
  let ki = generator (shape_of data_seed) spec in
  let layers =
    List.map
      (fun (key, _) ->
        (key, Common.mean (Array.map (List.assoc key) times)))
      times.(0)
    @ [
        ("interp.ops_per_query", total "interp.ops_per_query" /. rows);
        ( "camsim.dispatches_per_query",
          total "camsim.dispatches_per_query" /. rows );
        ("camsim.search_ops", total "camsim.search_ops");
        ("camsim.write_ops", total "camsim.write_ops");
      ]
    @ Common.subarray_probe ~rows:ki.Reg.ki_stored
        ~queries:ki.Reg.ki_queries
  in
  (p, layers)

(* ---- the run ---------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let ops = plan ~seed ~n:(ops_for ~seconds) in
  let (), setup_s =
    Common.repeated_setup ~reps:25 ~setup:(setup ~seed)
  in
  let g0 = Common.gc_mark () in
  let p, _ = timed_phase ops (fun o -> (measure o, ())) in
  let gc = Common.gc_since g0 in
  Common.outcome ~setup_s ~gc p
    ?traced:(if trace then Some (fun () -> traced ops) else None)
