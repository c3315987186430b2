(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section IV) from the compiled code running on the CAM
   simulator, plus Bechamel micro-benchmarks of the compiler itself.

     dune exec bench/main.exe            -- all paper experiments
     dune exec bench/main.exe -- fig8a   -- a single section
     dune exec bench/main.exe -- micro   -- Bechamel compiler benches

   Workload scale: the paper evaluates HDC on the 10k-image MNIST test
   set and KNN on the ~5.8k-image pneumonia set. We keep the paper's
   data geometry (8192 HDC dims and 10 classes; 1024 KNN features and
   5120 stored patterns) but use 256 HDC queries / 8 KNN queries per
   run — every reported metric is linear in the query count, so ratios
   and shapes are unaffected. *)

let sizes = [ 16; 32; 64; 128; 256 ]

(* ---- shared workloads (deterministic) -------------------------------- *)

let hdc_data =
  lazy
    (Workloads.Hdc.synthetic ~seed:11 ~noise:0.15 ~dims:8192 ~n_classes:10
       ~n_queries:256 ~bits:1 ())

let hdc_data_2bit =
  lazy
    (Workloads.Hdc.synthetic ~seed:13 ~noise:0.15 ~dims:8192 ~n_classes:10
       ~n_queries:256 ~bits:2 ())

let knn_data =
  lazy
    (let ds =
       Workloads.Dataset.pneumonia_like ~seed:7 ~n_features:1024
         ~samples_per_class:2600 ()
     in
     let train, test = Workloads.Dataset.split ~seed:3 ds ~train_fraction:0.99 in
     (* exactly 5120 stored patterns, 8 test queries *)
     let train =
       {
         train with
         features = Array.sub train.features 0 5120;
         labels = Array.sub train.labels 0 5120;
       }
     in
     let queries = Array.sub test.features 0 8 in
     let labels = Array.sub test.labels 0 8 in
     (train, queries, labels))

let geomean = function
  | [] -> 1.0 (* neutral: an empty set deviates by 0% *)
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. l
        /. float_of_int (List.length l))

let section name = Printf.printf "\n===== %s =====\n\n" name

(* ---- E10: IR at each abstraction level (Figures 4-6) ----------------- *)

let ir_stages () =
  section "ir_stages: IR after each lowering stage (Figures 4, 5, 6)";
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  let small = C4cam.Kernels.hdc_dot ~q:10 ~dims:128 ~classes:10 ~k:1 in
  Printf.printf "TorchScript input:\n%s\n" small;
  let c = C4cam.Driver.compile ~spec small in
  List.iter
    (fun (stage, text) ->
      Printf.printf "---- %s IR ----\n%s\n" stage
        (if String.length text > 4000 then String.sub text 0 4000 ^ "...\n"
         else text))
    (C4cam.Driver.stage_texts c)

(* ---- E1/E2: validation against the hand-crafted mapping (Fig. 7) ----- *)

let validation () =
  section
    "fig7: validation against the hand-crafted mapping (32xC subarrays)";
  let run_one ~bits c_cols =
    let data = Lazy.force (if bits = 1 then hdc_data else hdc_data_2bit) in
    let spec =
      Archspec.Spec.with_optimization
        { (Archspec.Spec.square 32 Archspec.Spec.Base) with
          cols = c_cols; bits }
        Archspec.Spec.Base
    in
    let m = C4cam.Dse.hdc ~spec ~data () in
    let manual =
      C4cam.Validate.manual_similarity ~spec
        ~queries:(Array.length data.queries) ~stored_rows:10 ~dims:8192
        ~k:1 ()
    in
    (spec, m, manual)
  in
  let lat_devs = ref [] and en_devs = ref [] in
  let rows =
    List.concat_map
      (fun bits ->
        List.map
          (fun c ->
            let _spec, m, manual = run_one ~bits c in
            let dev_l = Float.abs (m.latency -. manual.latency) /. manual.latency in
            let dev_e = Float.abs (m.energy -. manual.energy) /. manual.energy in
            lat_devs := dev_l :: !lat_devs;
            en_devs := dev_e :: !en_devs;
            [
              Printf.sprintf "%d-bit 32x%d" bits c;
              C4cam.Report.si_time m.latency;
              C4cam.Report.si_time manual.latency;
              Printf.sprintf "%.2f%%" (dev_l *. 100.);
              C4cam.Report.si_energy m.energy;
              C4cam.Report.si_energy manual.energy;
              Printf.sprintf "%.2f%%" (dev_e *. 100.);
            ])
          [ 16; 32; 64; 128 ])
      [ 1; 2 ]
  in
  print_string
    (C4cam.Report.table
       ~headers:
         [ "config"; "C4CAM lat"; "manual lat"; "dev"; "C4CAM energy";
           "manual energy"; "dev" ]
       rows);
  Printf.printf
    "\ngeomean deviation: latency %.2f%% (paper: 0.9%%), energy %.2f%% \
     (paper: 5.5%%)\n"
    (geomean (List.map (fun d -> 1. +. d) !lat_devs) *. 100. -. 100.)
    (geomean (List.map (fun d -> 1. +. d) !en_devs) *. 100. -. 100.)

(* ---- E3: GPU comparison ---------------------------------------------- *)

let gpu_comparison () =
  section "gpu_comparison: end-to-end HDC vs NVIDIA Quadro RTX 6000 model";
  let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
  let r =
    C4cam.Dse.gpu_comparison_hdc ~spec ~data:(Lazy.force hdc_data) ()
  in
  print_string
    (C4cam.Report.table
       ~headers:[ "metric"; "GPU"; "CAM (C4CAM)"; "improvement" ]
       [
         [
           "execution time";
           C4cam.Report.si_time r.gpu_latency;
           C4cam.Report.si_time r.cam_latency;
           Printf.sprintf "%.1fx (paper: 48x)" r.speedup;
         ];
         [
           "energy";
           C4cam.Report.si_energy r.gpu_energy;
           C4cam.Report.si_energy r.cam_energy;
           Printf.sprintf "%.1fx (paper: 46.8x)" r.energy_improvement;
         ];
       ])

(* ---- E4: Table I — subarray counts ------------------------------------ *)

let table1 () =
  section "table1: subarrays used to implement HDC (8192 dims, 10 classes)";
  let count opt side =
    let spec = Archspec.Spec.square side opt in
    let batches = Passes.Cim_partition.batches_for spec ~stored_rows:10 in
    let m =
      Passes.Cam_map.mapping_of spec ~row_chunks:1
        ~col_chunks:(8192 / side) ~batches
    in
    m.slots
  in
  let paper_based = [ 512; 256; 128; 64; 32 ] in
  let paper_density = [ 512; 86; 22; 6; 2 ] in
  let rows =
    [
      "cam-based"
      :: List.map (fun s -> string_of_int (count Archspec.Spec.Base s)) sizes;
      "cam-density"
      :: List.map
           (fun s -> string_of_int (count Archspec.Spec.Density s))
           sizes;
      "paper cam-based" :: List.map string_of_int paper_based;
      "paper cam-density" :: List.map string_of_int paper_density;
    ]
  in
  print_string
    (C4cam.Report.table
       ~headers:
         ("config" :: List.map (fun s -> Printf.sprintf "%dx%d" s s) sizes)
       rows)

(* ---- E5-E7: Figure 8 — DSE over subarray size x optimization --------- *)

let configs =
  Archspec.Spec.[ Base; Power; Density; Power_density ]

let fig8_measurements =
  lazy
    (let data = Lazy.force hdc_data in
     List.map
       (fun side ->
         ( side,
           List.map
             (fun opt ->
               (opt, C4cam.Dse.hdc ~spec:(Archspec.Spec.square side opt) ~data ()))
             configs ))
       sizes)

let fig8 ~title ~value ~fmt () =
  section title;
  let ms = Lazy.force fig8_measurements in
  let rows =
    List.map
      (fun (side, per_cfg) ->
        let base = value (List.assoc Archspec.Spec.Base per_cfg) in
        Printf.sprintf "%dx%d" side side
        :: List.concat_map
             (fun opt ->
               let v = value (List.assoc opt per_cfg) in
               [ fmt v; Printf.sprintf "(%.2fx)" (v /. base) ])
             configs)
      ms
  in
  print_string
    (C4cam.Report.table
       ~headers:
         ("subarray"
         :: List.concat_map
              (fun opt ->
                [ "cam-" ^ Archspec.Spec.optimization_to_string opt; "vs base" ])
              configs)
       rows)

let fig8a = fig8 ~title:"fig8a: HDC energy vs subarray size and optimization"
    ~value:(fun (m : C4cam.Dse.measurement) -> m.energy)
    ~fmt:C4cam.Report.si_energy

let fig8b = fig8 ~title:"fig8b: HDC latency vs subarray size and optimization"
    ~value:(fun (m : C4cam.Dse.measurement) -> m.latency)
    ~fmt:C4cam.Report.si_time

let fig8c = fig8 ~title:"fig8c: HDC power vs subarray size and optimization"
    ~value:(fun (m : C4cam.Dse.measurement) -> m.power)
    ~fmt:C4cam.Report.si_power

(* ---- E8: Table II — KNN EDP and power --------------------------------- *)

let table2 () =
  section "table2: KNN execution (5120 stored x 1024 features, k=7)";
  let train, queries, labels = Lazy.force knn_data in
  let measure opt side =
    C4cam.Dse.knn ~spec:(Archspec.Spec.square side opt) ~train ~queries
      ~labels ~k:7 ()
  in
  let row opt name =
    let ms = List.map (measure opt) sizes in
    [
      (name ^ " EDP")
      :: List.map
           (fun (m : C4cam.Dse.measurement) ->
             Printf.sprintf "%.3e J.s" m.edp)
           ms;
      (name ^ " power")
      :: List.map
           (fun (m : C4cam.Dse.measurement) -> C4cam.Report.si_power m.power)
           ms;
    ]
  in
  let rows = row Archspec.Spec.Base "cam-based" @ row Archspec.Spec.Power "cam-power" in
  print_string
    (C4cam.Report.table
       ~headers:
         ("metric" :: List.map (fun s -> Printf.sprintf "%dx%d" s s) sizes)
       rows)

(* ---- E9: Figure 9 — iso-capacity -------------------------------------- *)

let fig9 () =
  section
    "fig9: iso-capacity (2^16 cells per array; subarrays-per-array varies)";
  let data = Lazy.force hdc_data in
  let iso_configs =
    Archspec.Spec.[ Base; Density; Power_density ]
  in
  let rows =
    List.map
      (fun side ->
        Printf.sprintf "%dx%d" side side
        :: List.concat_map
             (fun opt ->
               let spec = C4cam.Dse.iso_capacity_spec ~side opt in
               let m = C4cam.Dse.hdc ~spec ~data () in
               [
                 C4cam.Report.si_time m.latency;
                 C4cam.Report.si_energy m.energy;
                 C4cam.Report.si_power m.power;
               ])
             iso_configs)
      sizes
  in
  print_string
    (C4cam.Report.table
       ~headers:
         ("subarray"
         :: List.concat_map
              (fun opt ->
                let n = Archspec.Spec.optimization_to_string opt in
                [ n ^ " lat"; n ^ " energy"; n ^ " power" ])
              iso_configs)
       rows)

(* ---- iso-area companion to Figure 9 ----------------------------------- *)

let iso_area () =
  section
    "iso_area: chip area of the iso-capacity setups (they are NOT \
     iso-area; Section IV-C2)";
  let tech = Camsim.Tech.fefet_45nm in
  let rows =
    List.map
      (fun side ->
        let spec = C4cam.Dse.iso_capacity_spec ~side Archspec.Spec.Base in
        [
          Printf.sprintf "%dx%d" side side;
          string_of_int spec.subarrays_per_array;
          Printf.sprintf "%.4f mm2" (Camsim.Area_model.bank_area tech ~spec);
          Printf.sprintf "%.1f%%"
            (Camsim.Area_model.peripheral_fraction tech ~spec *. 100.);
        ])
      sizes
  in
  print_string
    (C4cam.Report.table
       ~headers:
         [ "subarray"; "subarrays/array"; "area per bank"; "peripherals" ]
       rows);
  print_endline
    "\nSmaller subarrays at fixed capacity need more peripherals, so the\n\
     iso-capacity systems grow in area as the subarray shrinks — exactly\n\
     the paper's caveat."

(* ---- ablations of the design decisions in DESIGN.md ------------------- *)

let ablation () =
  section "ablation: design-decision ablations";
  let data =
    Workloads.Hdc.synthetic ~seed:11 ~noise:0.15 ~dims:2048 ~n_classes:10
      ~n_queries:64 ~bits:1 ()
  in
  let src = C4cam.Kernels.hdc_dot ~q:64 ~dims:2048 ~classes:10 ~k:1 in

  (* 1. Backend: structured-IR interpreter vs flat-ISA VM. *)
  let c = C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base) src in
  let a = C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored in
  let b = C4cam.Driver.run_vm c ~queries:data.queries ~stored:data.stored in
  Printf.printf
    "backend:    interpreter %s / %s  vs  VM %s / %s  (identical: %b)\n"
    (C4cam.Report.si_time a.latency)
    (C4cam.Report.si_energy a.energy)
    (C4cam.Report.si_time b.latency)
    (C4cam.Report.si_energy b.energy)
    (a.latency = b.latency && a.energy = b.energy && a.indices = b.indices);

  (* 2. cam-power as a spec access mode vs as a standalone IR rewrite on
     base-mapped code: the latency composition must be identical. *)
  let via_spec =
    let c = C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 Archspec.Spec.Power) src in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
  in
  let via_pass =
    let c = C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base) src in
    let rewritten = Ir.Pass.run Passes.Cam_opt.power (C4cam.Driver.clone_module c.cam_ir) in
    let c = { c with cam_ir = rewritten } in
    C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored
  in
  Printf.printf
    "cam-power:  via spec %s  vs  via IR rewrite %s  (identical: %b)\n"
    (C4cam.Report.si_time via_spec.latency)
    (C4cam.Report.si_time via_pass.latency)
    (via_spec.latency = via_pass.latency);

  (* 3. The batch-switch penalty behind the cam-density latency curve. *)
  let density_with tech =
    let spec = Archspec.Spec.square 256 Archspec.Spec.Density in
    let config = C4cam.Driver.Run_config.(default |> with_tech tech) in
    (C4cam.Dse.hdc ~config ~spec ~data ()).latency
  in
  let on = density_with Camsim.Tech.fefet_45nm in
  let off =
    density_with
      { Camsim.Tech.fefet_45nm with t_batch_switch = 0.; t_batch_switch_per_col = 0. }
  in
  Printf.printf
    "batch cost: density@256x256 latency %s with the row-decoder switch \
     penalty, %s without (%.2fx)\n"
    (C4cam.Report.si_time on) (C4cam.Report.si_time off) (on /. off)

(* ---- CAM vs crossbar (the sibling device dialect of Figure 3) --------- *)

let crossbar () =
  section
    "crossbar: similarity search on TCAM vs score-matmul on a ReRAM \
     crossbar";
  let data = Lazy.force hdc_data in
  let q = Array.length data.queries in
  let dims = Array.length data.stored.(0) in
  let classes = Array.length data.stored in
  let cam =
    C4cam.Dse.hdc ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base) ~data ()
  in
  let xspec = { Xbar.default_spec with tile_rows = 128; tile_cols = classes } in
  let xc =
    C4cam.Driver.compile_crossbar ~xspec
      (C4cam.Kernels.matmul ~m:q ~k:dims ~n:classes)
  in
  let weights =
    Array.init dims (fun d ->
        Array.init classes (fun c -> data.stored.(c).(d)))
  in
  let xr = C4cam.Driver.run_crossbar xc ~inputs:data.queries ~weights in
  print_string
    (C4cam.Report.table
       ~headers:[ "fabric"; "latency"; "energy"; "EDP" ]
       [
         [
           "TCAM 32x32 (C4CAM)";
           C4cam.Report.si_time cam.latency;
           C4cam.Report.si_energy cam.energy;
           Printf.sprintf "%.2e J.s" (cam.energy *. cam.latency);
         ];
         [
           "ReRAM crossbar + host top-1";
           C4cam.Report.si_time xr.x_latency;
           C4cam.Report.si_energy xr.x_energy;
           Printf.sprintf "%.2e J.s" (xr.x_energy *. xr.x_latency);
         ];
       ]);
  Printf.printf "\nCAM advantage: %.1fx latency, %.1fx EDP\n"
    (xr.x_latency /. cam.latency)
    (xr.x_energy *. xr.x_latency /. (cam.energy *. cam.latency))

(* ---- robustness under device defects ----------------------------------- *)

let robustness () =
  section
    "robustness: HDC accuracy under write-path cell defects (unreliable \
     scaled FeFETs)";
  (* deliberately hard setting (short vectors, 30%% query noise) so the
     degradation curve is visible *)
  let data =
    Workloads.Hdc.synthetic ~seed:11 ~noise:0.30 ~dims:512 ~n_classes:10
      ~n_queries:128 ~bits:1 ()
  in
  let src = C4cam.Kernels.hdc_dot ~q:128 ~dims:512 ~classes:10 ~k:1 in
  let c = C4cam.Driver.compile ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base) src in
  let rows =
    List.map
      (fun rate ->
        let r =
          C4cam.Driver.run_cam
            ~config:
              C4cam.Driver.Run_config.(default |> with_defects ~seed:5 rate)
            c ~queries:data.queries ~stored:data.stored
        in
        let correct = ref 0 in
        Array.iteri
          (fun i (row : int array) ->
            if row.(0) = data.query_labels.(i) then incr correct)
          r.indices;
        [
          Printf.sprintf "%.0f%%" (rate *. 100.);
          Printf.sprintf "%.1f%%"
            (float_of_int !correct /. 128. *. 100.);
        ])
      [ 0.; 0.02; 0.05; 0.10; 0.20; 0.30; 0.40; 0.45 ]
  in
  print_string
    (C4cam.Report.table ~headers:[ "defect rate"; "HDC accuracy" ] rows);
  print_endline
    "\nHyperdimensional representations degrade gracefully: accuracy\n\
     stays high well past 10% stuck cells — the associative-memory\n\
     robustness the CAM-HDC literature reports."

(* ---- autotuner --------------------------------------------------------- *)

let autotune () =
  section "autotune: best architecture per objective (compile-and-run search)";
  let data =
    Workloads.Hdc.synthetic ~seed:11 ~noise:0.15 ~dims:2048 ~n_classes:10
      ~n_queries:64 ~bits:1 ()
  in
  let candidates = C4cam.Autotune.evaluate_hdc ~data () in
  Printf.printf "evaluated %d candidates (5 sizes x 4 optimizations)\n\n"
    (List.length candidates);
  let rows =
    List.map
      (fun obj ->
        let c = C4cam.Autotune.best obj candidates in
        [
          C4cam.Autotune.objective_to_string obj;
          c.measurement.config;
          C4cam.Report.si_time c.measurement.latency;
          C4cam.Report.si_energy c.measurement.energy;
          C4cam.Report.si_power c.measurement.power;
          Printf.sprintf "%.4f mm2" c.area_mm2;
        ])
      C4cam.Autotune.
        [ Min_latency; Min_energy; Min_power; Min_edp; Min_area ]
  in
  print_string
    (C4cam.Report.table
       ~headers:[ "objective"; "winner"; "latency"; "energy"; "power"; "area" ]
       rows);
  let front =
    C4cam.Autotune.pareto
      (fun c -> c.measurement.latency)
      (fun c -> c.measurement.power)
      candidates
  in
  Printf.printf "\nlatency/power Pareto front (%d of %d candidates):\n"
    (List.length front) (List.length candidates);
  List.iter
    (fun (c : C4cam.Autotune.candidate) ->
      Printf.printf "  %-28s %10s  %10s\n" c.measurement.config
        (C4cam.Report.si_time c.measurement.latency)
        (C4cam.Report.si_power c.measurement.power))
    front

(* ---- E11: functional accuracy ----------------------------------------- *)

let accuracy () =
  section "accuracy: CAM functional results vs software references";
  (* HDC with the full encode/train pipeline on synthetic MNIST-like data *)
  let ds =
    Workloads.Dataset.mnist_like ~seed:5 ~n_features:64 ~n_classes:10
      ~samples_per_class:30 ()
  in
  let train, test = Workloads.Dataset.split ~seed:9 ds ~train_fraction:0.7 in
  let config = { Workloads.Hdc.default_config with dims = 2048; levels = 8 } in
  let im, model = Workloads.Hdc.train config train in
  let sw_acc = Workloads.Hdc.accuracy_ref model im test in
  let encoded_queries =
    Array.map (Workloads.Hdc.encode config im) test.features
  in
  let data =
    {
      Workloads.Hdc.stored = model.class_hvs;
      queries = encoded_queries;
      query_labels = test.labels;
    }
  in
  let m =
    C4cam.Dse.hdc ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base) ~data ()
  in
  Printf.printf "HDC (trained pipeline, 2048 dims): software %.1f%%, CAM %.1f%%\n"
    (sw_acc *. 100.) (m.accuracy *. 100.);
  (* KNN on a small pneumonia-like dataset *)
  let ds2 =
    Workloads.Dataset.pneumonia_like ~seed:17 ~n_features:256
      ~samples_per_class:280 ()
  in
  let train2, test2 = Workloads.Dataset.split ~seed:21 ds2 ~train_fraction:0.94 in
  let train2 =
    {
      train2 with
      Workloads.Dataset.features = Array.sub train2.features 0 512;
      labels = Array.sub train2.labels 0 512;
    }
  in
  let queries = Array.sub test2.features 0 16 in
  let labels = Array.sub test2.labels 0 16 in
  let sw =
    let correct = ref 0 in
    Array.iteri
      (fun i q ->
        if Workloads.Knn.classify ~train:train2 ~k:7 q = labels.(i) then
          incr correct)
      queries;
    float_of_int !correct /. float_of_int (Array.length queries)
  in
  let m2 =
    C4cam.Dse.knn ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base)
      ~train:train2 ~queries ~labels ~k:7 ()
  in
  Printf.printf "KNN (512 stored, 256 features, k=7): software %.1f%%, CAM %.1f%%\n"
    (sw *. 100.) (m2.accuracy *. 100.)

(* ---- smoke: the fast machine-readable suite behind the CI gate -------- *)

(* Small, deterministic workloads chosen to cover every execution
   family of the workload registry (compiled kernels, direct device
   workloads are covered by their own test suites, ACAM range search)
   and three optimization targets in a few seconds;
   bench/check_regression.ml diffs the emitted JSON against
   bench/baseline.json. Workloads are resolved by name through
   Workloads.Registry — the smoke suite holds no per-workload kernel
   or data construction of its own. *)

module Reg = Workloads.Registry

let smoke ?json ?jobs ?(shards = 4) ?(precompile = true) () =
  section "smoke: fast deterministic suite (the CI regression gate)";
  (* engine selection for every run below, as a per-run config rather
     than process-global state *)
  let engine : C4cam.Driver.Run_config.engine =
    if precompile then `Compiled else `Treewalk
  in
  let config =
    C4cam.Driver.Run_config.(default |> with_engine engine)
  in
  Parallel.run ?jobs @@ fun pool ->
  let jobs = Parallel.jobs pool in
  let wall_start = Instrument.Collect.now () in
  Printf.printf "jobs: %d\nprecompile: %b\n" jobs precompile;
  (* the smoke shape of each registry workload: entry defaults with the
     historical smoke-suite overrides *)
  let hdc_shape =
    { (Reg.find_exn "hdc").Reg.default_shape with
      Reg.queries = 64; dims = 2048 }
  in
  (* the HDC data/kernel instance behind the serve and profile blocks
     below (64 queries over 2048 dims, seed 11) *)
  let hdc_base_instance ~q =
    match (Reg.find_exn "hdc").Reg.exec with
    | Reg.Kernel mk ->
        mk
          { hdc_shape with Reg.queries = q }
          (Archspec.Spec.square 32 Archspec.Spec.Base)
    | _ -> assert false
  in
  let data_wide = hdc_base_instance ~q:64 in
  let measure ?(opt = Archspec.Spec.Base) name shape =
    C4cam.Dse.measure ~config
      ~spec:(Archspec.Spec.square 32 opt)
      ~shape (Reg.find_exn name)
  in
  let workloads =
    [
      ("hdc-32x32-base", measure "hdc" hdc_shape);
      ("hdc-32x32-power", measure ~opt:Archspec.Spec.Power "hdc" hdc_shape);
      ( "hdc-32x32-density",
        measure ~opt:Archspec.Spec.Density "hdc" hdc_shape );
      ( "knn-32x32-base",
        measure "knn" (Reg.find_exn "knn").Reg.default_shape );
      ( "mlp-32x32-base",
        measure "mlp" (Reg.find_exn "mlp").Reg.default_shape );
      ( "range-filter-32x32-base",
        measure "range-filter" (Reg.find_exn "range-filter").Reg.default_shape
      );
    ]
  in
  (* The DSE sweep workload: 12 candidate configurations evaluated
     through Dse.registry_sweep, i.e. across the domain pool when
     jobs > 1. Its wall-clock is the speedup demonstrator; every
     simulated metric and counter below must stay byte-identical for
     any jobs value. *)
  let dse_specs =
    List.concat_map
      (fun side ->
        List.map
          (fun opt -> Archspec.Spec.square side opt)
          Archspec.Spec.[ Base; Power; Density; Power_density ])
      [ 16; 32; 64 ]
  in
  let dse_start = Instrument.Collect.now () in
  let dse_ms =
    C4cam.Dse.registry_sweep ~config ~specs:dse_specs ~shape:hdc_shape
      (Reg.find_exn "hdc")
  in
  let dse_wall = Instrument.Collect.now () -. dse_start in
  let dse_workloads =
    List.map2
      (fun (spec : Archspec.Spec.t) m ->
        ( Printf.sprintf "dse-%dx%d-%s" spec.rows spec.cols
            (Archspec.Spec.optimization_to_string spec.optimization),
          m ))
      dse_specs dse_ms
  in
  let workloads = workloads @ dse_workloads in
  print_string
    (C4cam.Report.table
       ~headers:
         [ "workload"; "latency"; "energy"; "power"; "accuracy";
           "kernels b/n/g/ee" ]
       (List.map
          (fun (name, (m : C4cam.Dse.measurement)) ->
            [
              name;
              C4cam.Report.si_time m.latency;
              C4cam.Report.si_energy m.energy;
              C4cam.Report.si_power m.power;
              Printf.sprintf "%.4f" m.accuracy;
              Printf.sprintf "%d/%d/%d/%d" m.kernel_binary m.kernel_nibble
                m.kernel_generic m.kernel_early_exit;
            ])
          workloads));
  Printf.printf "\ndse sweep: %d candidates in %.3f s wall-clock (jobs=%d)\n"
    (List.length dse_specs) dse_wall jobs;
  (* The serving workload: the same 64 HDC queries served through one
     persistent session as 8 batches of 8 — compiled artifact and
     simulator reused across batches, device setup replayed, write
     energy charged once. Every simulated metric below is deterministic;
     only queries_per_s is wall-clock (and stripped by the determinism
     gate). *)
  let serve_session, serve_stats, serve_accuracy =
    let q = 8 and n_batches = 8 in
    let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
    let src = (hdc_base_instance ~q).Reg.ki_source in
    let session =
      Serve.Session.create ~config ~spec
        ~stored:data_wide.Reg.ki_stored src
    in
    let correct = ref 0 in
    for i = 0 to n_batches - 1 do
      let r =
        Serve.Session.query session
          (Array.sub data_wide.Reg.ki_queries (i * q) q)
      in
      Array.iteri
        (fun j (row : int array) ->
          if row.(0) = data_wide.Reg.ki_labels.((i * q) + j) then
            incr correct)
        r.indices
    done;
    ( session,
      Serve.Session.stats session,
      float_of_int !correct /. float_of_int (q * n_batches) )
  in
  Printf.printf
    "serve-hdc-32x32-base: %d batches, %d queries, latency %s, energy %s \
     (writes %s, once), accuracy %.4f, GC %.0f minor words/query (steady \
     state)\n"
    serve_stats.Serve.Session.batches serve_stats.queries_served
    (C4cam.Report.si_time serve_stats.sim_latency_s)
    (C4cam.Report.si_energy serve_stats.sim_energy_j)
    (C4cam.Report.si_energy serve_stats.write_energy_j)
    serve_accuracy serve_stats.alloc_minor_words_per_query;
  (* The concurrent-server workload: the same 64 queries again, now as 8
     clients x 8 single-row requests through the micro-batching
     scheduler (batch capacity 16 rows). Everything is enqueued while
     the scheduler is paused, so the round-robin coalescing — and with
     it batches_coalesced / batch_fill / queue_hwm — is deterministic
     and exact-gated; only the latency percentiles are host wall-clock
     (stripped by the determinism gate). *)
  let server_session, server_result, server_accuracy =
    let n_clients = 8 and per_client = 8 in
    let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
    let src = (hdc_base_instance ~q:8).Reg.ki_source in
    let session =
      Serve.Session.create ~config ~spec
        ~stored:data_wide.Reg.ki_stored src
    in
    let server =
      Server.create
        ~config:
          {
            Server.default_config with
            batch_rows = 16;
            queue_cap = 64;
            jobs;
            start_paused = true;
          }
        session
    in
    let clients = Array.init n_clients (fun _ -> Server.connect server) in
    (* request j of client c is query row j*8+c, so round-robin turns
       replay the 64 rows in order, 16 to a micro-batch *)
    let tickets =
      List.concat
        (List.init per_client (fun j ->
             List.init n_clients (fun c ->
                 ( (j * n_clients) + c,
                   Server.submit clients.(c)
                     [| data_wide.Reg.ki_queries.((j * n_clients) + c) |] ))))
    in
    Server.resume server;
    let correct = ref 0 in
    List.iter
      (fun (row, tk) ->
        let r = Server.await tk in
        if r.Server.r_indices.(0).(0) = data_wide.Reg.ki_labels.(row) then
          incr correct)
      tickets;
    Server.stop server;
    ( session,
      Server.stats server,
      float_of_int !correct /. float_of_int (n_clients * per_client) )
  in
  Printf.printf
    "server-hdc-32x32-base: %d micro-batches, fill %.2f queries/batch, \
     queue high-water %d rows, %d requests from %d clients, accuracy %.4f\n"
    server_result.Server.batches_coalesced server_result.Server.batch_fill
    server_result.Server.queue_hwm server_result.Server.requests_served
    server_result.Server.clients_connected server_accuracy;
  (* The sharded-store workloads: a store partitioned across [shards]
     private simulators (default 4), queried through the fan-out /
     top-k merge path, with online mutations mid-run — deletes,
     slot-reusing re-inserts and an in-place update. Every simulated
     metric below is deterministic for a fixed shard count;
     results_digest (the bit pattern of every merged distance and
     external id) is additionally shard- and jobs-invariant, which the
     CI shard-determinism leg holds shards 1 vs 4 to. Two sizes: 512
     rows x 64 dims, and 4096 rows x [d] dims, the scale at which the
     sharded path's per-query allocation shows (1,024 subarrays per
     shard at d = 1024). *)
  let sharded_run ~name ~rows ~d ~seed ~n_batches ~mutated =
    let q = 8 and k = 3 in
    let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
    let n_queries = q * n_batches in
    let sdata =
      Workloads.Hdc.synthetic ~seed ~noise:0.05 ~dims:d ~n_classes:rows
        ~n_queries ~bits:1 ()
    in
    let store =
      Serve.Sharded_store.create ~config ~spec ~q ~d ~k ~shards
        ~capacity:rows ()
    in
    Array.iter
      (fun row -> ignore (Serve.Sharded_store.insert store row))
      sdata.stored;
    (* external id currently serving class [l]; inserts above were in
       class order, so initially the identity *)
    let expected = Array.init rows Fun.id in
    let buf = Buffer.create 4096 in
    let correct = ref 0 in
    let serve_batch i =
      let r =
        Serve.Sharded_store.query store (Array.sub sdata.queries (i * q) q)
      in
      Array.iteri
        (fun j (ids : int array) ->
          if ids.(0) = expected.(sdata.query_labels.((i * q) + j)) then
            incr correct;
          Array.iter
            (fun id -> Buffer.add_int64_be buf (Int64.of_int id))
            ids;
          Array.iter
            (fun v -> Buffer.add_int64_be buf (Int64.bits_of_float v))
            r.Serve.Sharded_store.values.(j))
        r.Serve.Sharded_store.indices
    in
    let half = n_batches / 2 in
    for i = 0 to half - 1 do
      serve_batch i
    done;
    (* online mutations: free some slots, re-insert the same rows (the
       FIFO allocator hands back the just-freed slots under fresh
       external ids), rewrite one row in place — then keep serving *)
    let deleted, updated = mutated in
    List.iter
      (fun id ->
        Serve.Sharded_store.delete store id;
        expected.(id) <- Serve.Sharded_store.insert store sdata.stored.(id))
      deleted;
    Serve.Sharded_store.update store updated sdata.stored.(updated);
    for i = half to n_batches - 1 do
      serve_batch i
    done;
    let accuracy = float_of_int !correct /. float_of_int n_queries in
    let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    let st = Serve.Sharded_store.stats store in
    Printf.printf
      "%s: %d shards, %d rows live (%d slots free), %d batches, latency \
       %s, energy %s, accuracy %.4f, digest %s, GC %.0f minor words/query \
       (steady state)\n"
      name st.Serve.Sharded_store.shards st.rows_stored st.rows_free
      st.session.Serve.Session.batches
      (C4cam.Report.si_time st.session.Serve.Session.sim_latency_s)
      (C4cam.Report.si_energy st.session.Serve.Session.sim_energy_j)
      accuracy (String.sub digest 0 12)
      st.session.Serve.Session.alloc_minor_words_per_query;
    (name, store, st, accuracy, digest)
  in
  let sharded_small =
    sharded_run ~name:"serve-sharded-hdc-32x32-base" ~rows:512 ~d:64
      ~seed:23 ~n_batches:6 ~mutated:([ 7; 129; 350 ], 200)
  in
  let sharded_large =
    sharded_run ~name:"serve-sharded-hdc-4096-32x32-base" ~rows:4096
      ~d:1024 ~seed:29 ~n_batches:4 ~mutated:([ 11; 2050; 4000 ], 1500)
  in
  (* The MLP serving workload (EXPERIMENTS.md X8): the layer-2
     prototype-search kernel behind one persistent session, 3 batches
     of 16 pre-encoded layer-1 codes — the prototype writes are charged
     once, so energy per inference falls with every batch. The layer-1
     TCAM pass (the registry entry's pre-stage) already paid for
     encoding the query pool on the simulated device; its cost is
     reported separately and folded into energy/inference. *)
  let mlp_session, mlp_pre, mlp_accuracy, mlp_digest, mlp_served =
    let q = 16 and n_batches = 3 in
    let entry = Reg.find_exn "mlp" in
    let mk =
      match entry.Reg.exec with Reg.Kernel mk -> mk | _ -> assert false
    in
    let shape = { entry.Reg.default_shape with Reg.queries = q } in
    let spec =
      entry.Reg.fix_spec shape (Archspec.Spec.square 32 Archspec.Spec.Base)
    in
    let ki = mk shape spec in
    (* a second instance only for its wider query pool; training is
       deterministic in the data config, so codes and prototypes agree *)
    let wide = mk { shape with Reg.queries = q * n_batches } spec in
    let session =
      Serve.Session.create ~config ~spec ~stored:ki.Reg.ki_stored
        ki.Reg.ki_source
    in
    let buf = Buffer.create 1024 in
    let correct = ref 0 in
    for i = 0 to n_batches - 1 do
      let r =
        Serve.Session.query session
          (Array.sub wide.Reg.ki_queries (i * q) q)
      in
      Array.iteri
        (fun j (row : int array) ->
          if row.(0) = wide.Reg.ki_labels.((i * q) + j) then incr correct;
          Buffer.add_int64_be buf (Int64.of_int row.(0)))
        r.indices
    done;
    ( session,
      Option.get wide.Reg.ki_pre,
      float_of_int !correct /. float_of_int (q * n_batches),
      Digest.to_hex (Digest.string (Buffer.contents buf)),
      q * n_batches )
  in
  let mlp_stats = Serve.Session.stats mlp_session in
  Printf.printf
    "serve-mlp-32x32-base: %d batches, %d inferences, latency %s, energy %s \
     (layer-1 tcam %s, prototype writes %s once), %s/inference, accuracy \
     %.4f, digest %s\n"
    mlp_stats.Serve.Session.batches mlp_stats.queries_served
    (C4cam.Report.si_time mlp_stats.sim_latency_s)
    (C4cam.Report.si_energy mlp_stats.sim_energy_j)
    (C4cam.Report.si_energy mlp_pre.Reg.pre_energy)
    (C4cam.Report.si_energy mlp_stats.write_energy_j)
    (C4cam.Report.si_energy
       ((mlp_stats.sim_energy_j +. mlp_pre.Reg.pre_energy)
       /. float_of_int mlp_served))
    mlp_accuracy
    (String.sub mlp_digest 0 12);
  (* The range-store workload (EXPERIMENTS.md X9): the ACAM anomaly
     filter served through Serve.Range_store across [shards] shards —
     the box table is programmed once ([cam.write_range] replayed for
     free on later batches), one box is widened mid-run (its owning
     shard recharges just that row on the next batch), and every
     answer is checked against the host oracle recomputed on the
     mutated bounds. results_digest hashes every merged match id and
     violation-count bit pattern and is shard- and jobs-invariant,
     which the CI shard-determinism leg relies on. *)
  let range_store, range_accuracy, range_digest =
    let q = 16 and n_batches = 4 in
    let entry = Reg.find_exn "range-filter" in
    let mk =
      match entry.Reg.exec with Reg.Range mk -> mk | _ -> assert false
    in
    let shape = { entry.Reg.default_shape with Reg.queries = q * n_batches } in
    let ri = mk shape in
    let store =
      Serve.Range_store.create
        ~config ~shards:(min shards shape.Reg.rows) ~q ~lo:ri.Reg.ri_lo
        ~hi:ri.Reg.ri_hi ()
    in
    (* host-side copy of the bounds, mutated in lockstep with the
       store, so the oracle below always reflects the live table *)
    let lo = Array.map Array.copy ri.Reg.ri_lo
    and hi = Array.map Array.copy ri.Reg.ri_hi in
    let buf = Buffer.create 2048 in
    let correct = ref 0 in
    let serve_batch i =
      let batch = Array.sub ri.Reg.ri_queries (i * q) q in
      let r = Serve.Range_store.query store batch in
      Array.iteri
        (fun j m ->
          if m = Workloads.Range_filter.oracle ~lo ~hi batch.(j) then
            incr correct;
          Buffer.add_int64_be buf (Int64.of_int m);
          Buffer.add_int64_be buf
            (Int64.bits_of_float r.Serve.Range_store.values.(j).(0)))
        r.Serve.Range_store.matches
    in
    for i = 0 to 1 do
      serve_batch i
    done;
    (* widen box 3 into a slab that catches more of the unit cube; the
       owning shard reprograms (and recharges) that one row on the
       next batch *)
    let row = 3 in
    lo.(row) <- Array.make shape.Reg.dims 0.1;
    hi.(row) <- Array.make shape.Reg.dims 0.9;
    Serve.Range_store.update_box store ~row ~lo:lo.(row) ~hi:hi.(row);
    for i = 2 to n_batches - 1 do
      serve_batch i
    done;
    ( store,
      float_of_int !correct /. float_of_int (q * n_batches),
      Digest.to_hex (Digest.string (Buffer.contents buf)) )
  in
  let range_stats = Serve.Range_store.stats range_store in
  Printf.printf
    "serve-range-filter-32x32-base: %d shards, %d boxes, %d batches, \
     latency %s, energy %s (range writes %s), accuracy %.4f, digest %s\n"
    (Serve.Range_store.shards range_store)
    (Serve.Range_store.boxes range_store)
    range_stats.Serve.Session.batches
    (C4cam.Report.si_time range_stats.Serve.Session.sim_latency_s)
    (C4cam.Report.si_energy range_stats.Serve.Session.sim_energy_j)
    (C4cam.Report.si_energy range_stats.Serve.Session.write_energy_j)
    range_accuracy
    (String.sub range_digest 0 12);
  (* The placement workload: the three-stage RecSys pipeline (GEMV
     feature projection, Euclidean scoring, top-1 selection) placed by
     the Energy-objective cost model across crossbar, CAM and host,
     next to the three single-backend mappings. The chosen assignment
     and its modeled latency/energy are exact-gated, as is the count
     of single mappings the mixed plan beats — the heterogeneous win
     is a regression gate, not a demo. Recommendations are
     byte-identical across all executable placements (asserted). *)
  let place_auto, place_singles, place_wins =
    let rdata =
      Workloads.Recsys.generate ~seed:29 ~users:16 ~features:256 ~items:256
        ~classes:10 ()
    in
    let spec = Archspec.Spec.square 32 Archspec.Spec.Base in
    let auto_config =
      config
      |> C4cam.Driver.Run_config.with_placement `Auto
      |> C4cam.Driver.Run_config.with_place_objective Passes.Placement.Energy
    in
    let auto =
      C4cam.Hetero.run_recsys ~config:auto_config ~spec ~data:rdata ~k:1 ()
    in
    let stages = C4cam.Hetero.recsys_stages rdata ~k:1 in
    let singles =
      List.map
        (fun dev ->
          C4cam.Hetero.run_recsys ~config ~spec ~data:rdata ~k:1
            ~assignment:(Passes.Placement.single stages dev) ())
        Passes.Placement.[ Cam; Xbar; Host ]
    in
    List.iter
      (fun (s : C4cam.Hetero.recsys_outcome) ->
        if s.rc_indices <> auto.rc_indices || s.rc_values <> auto.rc_values
        then
          failwith
            ("placement determinism violation: " ^ s.rc_placement
           ^ " disagrees with " ^ auto.rc_placement))
      singles;
    let wins =
      List.length
        (List.filter
           (fun (s : C4cam.Hetero.recsys_outcome) ->
             auto.rc_energy < s.rc_energy)
           singles)
    in
    (auto, singles, wins)
  in
  print_newline ();
  print_string
    (C4cam.Report.table
       ~headers:
         [ "recsys placement"; "latency"; "energy"; "moved"; "accuracy" ]
       (List.map
          (fun (o : C4cam.Hetero.recsys_outcome) ->
            [
              o.rc_placement;
              C4cam.Report.si_time o.rc_latency;
              C4cam.Report.si_energy o.rc_energy;
              Printf.sprintf "%d B" o.rc_moved_bytes;
              Printf.sprintf "%.4f" o.rc_accuracy;
            ])
          (place_auto :: place_singles)));
  Printf.printf
    "place-auto-recsys-32x32: chose %s (%d candidates), beats %d/%d \
     single-backend mappings on energy\n"
    place_auto.rc_placement place_auto.rc_candidates place_wins
    (List.length place_singles);
  (* compile-time breakdown of the reference HDC kernel, end-to-end *)
  let collector = Instrument.Collect.create () in
  Instrument.Collect.set_jobs collector jobs;
  let c =
    C4cam.Driver.compile ~profile:collector
      ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base)
      data_wide.Reg.ki_source
  in
  ignore
    (C4cam.Driver.run_cam
       ~config:
         { config with C4cam.Driver.Run_config.profile = Some collector }
       c ~queries:data_wide.Reg.ki_queries
       ~stored:data_wide.Reg.ki_stored);
  let profile = Instrument.Collect.profile collector in
  Printf.printf "\n%s" (Instrument.Profile.to_table profile);
  match json with
  | None -> ()
  | Some file ->
      let workload_json (name, (m : C4cam.Dse.measurement)) =
        Instrument.Json.Assoc
          [
            ("name", Instrument.Json.String name);
            ("config", Instrument.Json.String m.config);
            ("latency_s", Instrument.Json.Float m.latency);
            ("energy_j", Instrument.Json.Float m.energy);
            ("power_w", Instrument.Json.Float m.power);
            ("edp_js", Instrument.Json.Float m.edp);
            ("accuracy", Instrument.Json.Float m.accuracy);
            ("subarrays", Instrument.Json.Int m.subarrays);
            ("banks", Instrument.Json.Int m.banks);
            ("search_ops", Instrument.Json.Int m.search_ops);
            ("query_cycles", Instrument.Json.Int m.query_cycles);
            ("write_ops", Instrument.Json.Int m.write_ops);
            ("kernel_binary", Instrument.Json.Int m.kernel_binary);
            ("kernel_nibble", Instrument.Json.Int m.kernel_nibble);
            ("kernel_generic", Instrument.Json.Int m.kernel_generic);
            ("kernel_early_exit", Instrument.Json.Int m.kernel_early_exit);
            ("n_ops_executed", Instrument.Json.Int m.n_ops_executed);
          ]
      in
      (* The serving workload carries the standard gated fields plus its
         own: "batches" is exact-gated by check_regression, while
         "queries_per_s" is host wall-clock and stripped by the
         determinism gate. *)
      let serve_json =
        let s =
          Camsim.Simulator.stats (Serve.Session.simulator serve_session)
        in
        let st = serve_stats in
        Instrument.Json.Assoc
          [
            ("name", Instrument.Json.String "serve-hdc-32x32-base");
            ( "config",
              Instrument.Json.String
                (C4cam.Dse.config_name
                   (Archspec.Spec.square 32 Archspec.Spec.Base)) );
            ("latency_s", Instrument.Json.Float st.sim_latency_s);
            ("energy_j", Instrument.Json.Float st.sim_energy_j);
            ( "power_w",
              Instrument.Json.Float
                (if st.sim_latency_s > 0. then
                   st.sim_energy_j /. st.sim_latency_s
                 else 0.) );
            ( "edp_js",
              Instrument.Json.Float (st.sim_energy_j *. st.sim_latency_s) );
            ("accuracy", Instrument.Json.Float serve_accuracy);
            ("subarrays", Instrument.Json.Int s.n_subarrays);
            ("banks", Instrument.Json.Int s.n_banks);
            ("search_ops", Instrument.Json.Int s.n_search_ops);
            ("query_cycles", Instrument.Json.Int s.n_query_cycles);
            ("write_ops", Instrument.Json.Int s.n_write_ops);
            ("kernel_binary", Instrument.Json.Int s.n_kernel_binary);
            ("kernel_nibble", Instrument.Json.Int s.n_kernel_nibble);
            ("kernel_generic", Instrument.Json.Int s.n_kernel_generic);
            ("kernel_early_exit", Instrument.Json.Int s.n_kernel_early_exit);
            ( "n_ops_executed",
              Instrument.Json.Int
                (List.fold_left
                   (fun acc (_, n) -> acc + n)
                   0 st.ops_executed) );
            ("batches", Instrument.Json.Int st.batches);
            ("queries_per_s", Instrument.Json.Float st.queries_per_s);
            (* deterministic only at jobs=1, where the dispatching
               domain does all the allocating; check_regression gates
               it when the jobs values match the baseline's *)
            ( "alloc_minor_words_per_query",
              Instrument.Json.Float st.alloc_minor_words_per_query );
          ]
      in
      (* The concurrent-server workload: the scheduler's coalescing
         counters are exact-gated (deterministic by the paused-enqueue
         protocol above); the latency percentiles are host wall-clock
         and stripped by the determinism gate. *)
      let server_json =
        let s =
          Camsim.Simulator.stats (Serve.Session.simulator server_session)
        in
        let st = server_result in
        let ss = st.Server.session in
        Instrument.Json.Assoc
          [
            ("name", Instrument.Json.String "server-hdc-32x32-base");
            ( "config",
              Instrument.Json.String
                (C4cam.Dse.config_name
                   (Archspec.Spec.square 32 Archspec.Spec.Base)) );
            ("latency_s", Instrument.Json.Float ss.sim_latency_s);
            ("energy_j", Instrument.Json.Float ss.sim_energy_j);
            ( "power_w",
              Instrument.Json.Float
                (if ss.sim_latency_s > 0. then
                   ss.sim_energy_j /. ss.sim_latency_s
                 else 0.) );
            ( "edp_js",
              Instrument.Json.Float (ss.sim_energy_j *. ss.sim_latency_s) );
            ("accuracy", Instrument.Json.Float server_accuracy);
            ("subarrays", Instrument.Json.Int s.n_subarrays);
            ("banks", Instrument.Json.Int s.n_banks);
            ("search_ops", Instrument.Json.Int s.n_search_ops);
            ("query_cycles", Instrument.Json.Int s.n_query_cycles);
            ("write_ops", Instrument.Json.Int s.n_write_ops);
            ("kernel_binary", Instrument.Json.Int s.n_kernel_binary);
            ("kernel_nibble", Instrument.Json.Int s.n_kernel_nibble);
            ("kernel_generic", Instrument.Json.Int s.n_kernel_generic);
            ("kernel_early_exit", Instrument.Json.Int s.n_kernel_early_exit);
            ( "n_ops_executed",
              Instrument.Json.Int
                (List.fold_left
                   (fun acc (_, n) -> acc + n)
                   0 ss.ops_executed) );
            ("batches", Instrument.Json.Int ss.batches);
            ("queries_per_s", Instrument.Json.Float ss.queries_per_s);
            ( "batches_coalesced",
              Instrument.Json.Int st.Server.batches_coalesced );
            ("batch_fill", Instrument.Json.Float st.Server.batch_fill);
            ("queue_hwm", Instrument.Json.Int st.Server.queue_hwm);
            ("lat_p50_s", Instrument.Json.Float st.Server.lat_p50_s);
            ("lat_p99_s", Instrument.Json.Float st.Server.lat_p99_s);
            ( "alloc_minor_words_per_query",
              Instrument.Json.Float ss.alloc_minor_words_per_query );
          ]
      in
      (* The sharded-store workloads: simulated metrics are exact-gated
         for a fixed shard count (shards itself and rows_stored are
         exact); results_digest is shard- and jobs-invariant, the key
         the shard-determinism CI leg compares across configurations.
         The fan-out/merge wall clocks are stripped by the determinism
         gate, and alloc_w/q is only gated between runs with the same
         shard count (the merge tree's footprint scales with it). *)
      let sharded_json (name, sharded_store, st, sharded_accuracy, sharded_digest)
          =
        let dev = Serve.Sharded_store.device_stats sharded_store in
        let ss = st.Serve.Sharded_store.session in
        Instrument.Json.Assoc
          [
            ("name", Instrument.Json.String name);
            ( "config",
              Instrument.Json.String
                (C4cam.Dse.config_name
                   (Archspec.Spec.square 32 Archspec.Spec.Base)) );
            ( "latency_s",
              Instrument.Json.Float ss.Serve.Session.sim_latency_s );
            ("energy_j", Instrument.Json.Float ss.Serve.Session.sim_energy_j);
            ( "power_w",
              Instrument.Json.Float
                (if ss.Serve.Session.sim_latency_s > 0. then
                   ss.Serve.Session.sim_energy_j
                   /. ss.Serve.Session.sim_latency_s
                 else 0.) );
            ( "edp_js",
              Instrument.Json.Float
                (ss.Serve.Session.sim_energy_j
                *. ss.Serve.Session.sim_latency_s) );
            ("accuracy", Instrument.Json.Float sharded_accuracy);
            ("subarrays", Instrument.Json.Int dev.Camsim.Stats.n_subarrays);
            ("banks", Instrument.Json.Int dev.Camsim.Stats.n_banks);
            ("search_ops", Instrument.Json.Int dev.Camsim.Stats.n_search_ops);
            ( "query_cycles",
              Instrument.Json.Int dev.Camsim.Stats.n_query_cycles );
            ("write_ops", Instrument.Json.Int dev.Camsim.Stats.n_write_ops);
            ( "kernel_binary",
              Instrument.Json.Int dev.Camsim.Stats.n_kernel_binary );
            ( "kernel_nibble",
              Instrument.Json.Int dev.Camsim.Stats.n_kernel_nibble );
            ( "kernel_generic",
              Instrument.Json.Int dev.Camsim.Stats.n_kernel_generic );
            ( "kernel_early_exit",
              Instrument.Json.Int dev.Camsim.Stats.n_kernel_early_exit );
            ( "n_ops_executed",
              Instrument.Json.Int
                (List.fold_left
                   (fun acc (_, n) -> acc + n)
                   0 ss.Serve.Session.ops_executed) );
            ("batches", Instrument.Json.Int ss.Serve.Session.batches);
            ( "queries_per_s",
              Instrument.Json.Float ss.Serve.Session.queries_per_s );
            ("shards", Instrument.Json.Int st.Serve.Sharded_store.shards);
            ("rows_stored", Instrument.Json.Int st.rows_stored);
            ("results_digest", Instrument.Json.String sharded_digest);
            ( "alloc_minor_words_per_query",
              Instrument.Json.Float
                ss.Serve.Session.alloc_minor_words_per_query );
            ("shard_fanout_wall_s", Instrument.Json.Float st.fanout_wall_s);
            ("shard_merge_wall_s", Instrument.Json.Float st.merge_wall_s);
          ]
      in
      (* The MLP serving workload: standard gated fields plus the
         pre-stage (layer-1 TCAM) cost and the amortized energy per
         inference — all simulated, so pre_energy_j and
         energy_per_inference_j are exact-gated alongside the digest
         and accuracy. *)
      let mlp_serve_json =
        let s =
          Camsim.Simulator.stats (Serve.Session.simulator mlp_session)
        in
        let st = mlp_stats in
        Instrument.Json.Assoc
          [
            ("name", Instrument.Json.String "serve-mlp-32x32-base");
            ( "config",
              Instrument.Json.String
                (C4cam.Dse.config_name
                   (Archspec.Spec.square 32 Archspec.Spec.Base)) );
            ("latency_s", Instrument.Json.Float st.sim_latency_s);
            ("energy_j", Instrument.Json.Float st.sim_energy_j);
            ( "power_w",
              Instrument.Json.Float
                (if st.sim_latency_s > 0. then
                   st.sim_energy_j /. st.sim_latency_s
                 else 0.) );
            ( "edp_js",
              Instrument.Json.Float (st.sim_energy_j *. st.sim_latency_s) );
            ("accuracy", Instrument.Json.Float mlp_accuracy);
            ("subarrays", Instrument.Json.Int s.n_subarrays);
            ("banks", Instrument.Json.Int s.n_banks);
            ("search_ops", Instrument.Json.Int s.n_search_ops);
            ("query_cycles", Instrument.Json.Int s.n_query_cycles);
            ("write_ops", Instrument.Json.Int s.n_write_ops);
            ("kernel_binary", Instrument.Json.Int s.n_kernel_binary);
            ("kernel_nibble", Instrument.Json.Int s.n_kernel_nibble);
            ("kernel_generic", Instrument.Json.Int s.n_kernel_generic);
            ("kernel_early_exit", Instrument.Json.Int s.n_kernel_early_exit);
            ( "n_ops_executed",
              Instrument.Json.Int
                (List.fold_left
                   (fun acc (_, n) -> acc + n)
                   0 st.ops_executed) );
            ("batches", Instrument.Json.Int st.batches);
            ("queries_per_s", Instrument.Json.Float st.queries_per_s);
            ("pre_latency_s", Instrument.Json.Float mlp_pre.Reg.pre_latency);
            ("pre_energy_j", Instrument.Json.Float mlp_pre.Reg.pre_energy);
            ( "energy_per_inference_j",
              Instrument.Json.Float
                ((st.sim_energy_j +. mlp_pre.Reg.pre_energy)
                /. float_of_int mlp_served) );
            ("results_digest", Instrument.Json.String mlp_digest);
            ( "alloc_minor_words_per_query",
              Instrument.Json.Float st.alloc_minor_words_per_query );
          ]
      in
      (* The range-store workload: simulated metrics exact-gated for a
         fixed shard count; results_digest is shard- and jobs-invariant
         (the shard-determinism CI leg compares it across shard
         counts), and accuracy is the host-oracle agreement across the
         mid-run box mutation. *)
      let range_json =
        let st = range_stats in
        let dev = Serve.Range_store.device_stats range_store in
        Instrument.Json.Assoc
          [
            ( "name",
              Instrument.Json.String "serve-range-filter-32x32-base" );
            ( "config",
              Instrument.Json.String
                (C4cam.Dse.config_name
                   (Archspec.Spec.square 32 Archspec.Spec.Base)) );
            ( "latency_s",
              Instrument.Json.Float st.Serve.Session.sim_latency_s );
            ("energy_j", Instrument.Json.Float st.Serve.Session.sim_energy_j);
            ( "power_w",
              Instrument.Json.Float
                (if st.Serve.Session.sim_latency_s > 0. then
                   st.Serve.Session.sim_energy_j
                   /. st.Serve.Session.sim_latency_s
                 else 0.) );
            ( "edp_js",
              Instrument.Json.Float
                (st.Serve.Session.sim_energy_j
                *. st.Serve.Session.sim_latency_s) );
            ("accuracy", Instrument.Json.Float range_accuracy);
            ("subarrays", Instrument.Json.Int dev.Camsim.Stats.n_subarrays);
            ("banks", Instrument.Json.Int dev.Camsim.Stats.n_banks);
            ("search_ops", Instrument.Json.Int dev.Camsim.Stats.n_search_ops);
            ( "query_cycles",
              Instrument.Json.Int dev.Camsim.Stats.n_query_cycles );
            ("write_ops", Instrument.Json.Int dev.Camsim.Stats.n_write_ops);
            ( "kernel_binary",
              Instrument.Json.Int dev.Camsim.Stats.n_kernel_binary );
            ( "kernel_nibble",
              Instrument.Json.Int dev.Camsim.Stats.n_kernel_nibble );
            ( "kernel_generic",
              Instrument.Json.Int dev.Camsim.Stats.n_kernel_generic );
            ( "kernel_early_exit",
              Instrument.Json.Int dev.Camsim.Stats.n_kernel_early_exit );
            ( "n_ops_executed",
              Instrument.Json.Int
                (List.fold_left
                   (fun acc (_, n) -> acc + n)
                   0 st.Serve.Session.ops_executed) );
            ("batches", Instrument.Json.Int st.Serve.Session.batches);
            ( "queries_per_s",
              Instrument.Json.Float st.Serve.Session.queries_per_s );
            ( "shards",
              Instrument.Json.Int (Serve.Range_store.shards range_store) );
            ( "write_energy_j",
              Instrument.Json.Float st.Serve.Session.write_energy_j );
            ("results_digest", Instrument.Json.String range_digest);
          ]
      in
      (* The placement workload: modeled split totals as the headline
         latency/energy (banded like every workload), the CAM score
         stage's activity counters (the score ran there under the
         chosen assignment), and the placement-specific exact gates —
         the chosen assignment string, its exact modeled costs, and
         the number of single-backend mappings it beats. *)
      let place_json =
        let o = place_auto in
        let s =
          match o.rc_cam with
          | Some (r : C4cam.Driver.run_result) -> r.stats
          | None -> Camsim.Stats.create ()
        in
        let ops =
          match o.rc_cam with
          | Some r ->
              List.fold_left (fun acc (_, n) -> acc + n) 0 r.ops_executed
          | None -> 0
        in
        Instrument.Json.Assoc
          [
            ("name", Instrument.Json.String "place-auto-recsys-32x32");
            ( "config",
              Instrument.Json.String
                (C4cam.Dse.config_name
                   (Archspec.Spec.square 32 Archspec.Spec.Base)) );
            ("latency_s", Instrument.Json.Float o.rc_latency);
            ("energy_j", Instrument.Json.Float o.rc_energy);
            ( "power_w",
              Instrument.Json.Float
                (if o.rc_latency > 0. then o.rc_energy /. o.rc_latency
                 else 0.) );
            ("edp_js", Instrument.Json.Float (o.rc_energy *. o.rc_latency));
            ("accuracy", Instrument.Json.Float o.rc_accuracy);
            ("subarrays", Instrument.Json.Int s.Camsim.Stats.n_subarrays);
            ("banks", Instrument.Json.Int s.Camsim.Stats.n_banks);
            ("search_ops", Instrument.Json.Int s.Camsim.Stats.n_search_ops);
            ( "query_cycles",
              Instrument.Json.Int s.Camsim.Stats.n_query_cycles );
            ("write_ops", Instrument.Json.Int s.Camsim.Stats.n_write_ops);
            ( "kernel_binary",
              Instrument.Json.Int s.Camsim.Stats.n_kernel_binary );
            ( "kernel_nibble",
              Instrument.Json.Int s.Camsim.Stats.n_kernel_nibble );
            ( "kernel_generic",
              Instrument.Json.Int s.Camsim.Stats.n_kernel_generic );
            ( "kernel_early_exit",
              Instrument.Json.Int s.Camsim.Stats.n_kernel_early_exit );
            ("n_ops_executed", Instrument.Json.Int ops);
            ("placement", Instrument.Json.String o.rc_placement);
            ("placement_wins", Instrument.Json.Int place_wins);
            ( "placement_candidates",
              Instrument.Json.Int o.rc_candidates );
            ("placement_latency_s", Instrument.Json.Float o.rc_latency);
            ("placement_energy_j", Instrument.Json.Float o.rc_energy);
            ( "placement_moved_bytes",
              Instrument.Json.Int o.rc_moved_bytes );
          ]
      in
      let doc =
        Instrument.Json.Assoc
          [
            ("schema_version", Instrument.Json.Int 1);
            ("jobs", Instrument.Json.Int jobs);
            ("precompile", Instrument.Json.Bool precompile);
            ( "wall_clock_s",
              Instrument.Json.Float (Instrument.Collect.now () -. wall_start)
            );
            ("dse_wall_clock_s", Instrument.Json.Float dse_wall);
            ( "workloads",
              Instrument.Json.List
                (List.map workload_json workloads
                @ [ serve_json; server_json ]
                @ List.map sharded_json [ sharded_small; sharded_large ]
                @ [ mlp_serve_json; range_json; place_json ]) );
            ("compile", Instrument.Profile.to_json profile);
          ]
      in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc (Instrument.Json.to_string doc));
      Printf.printf "wrote %s\n" file

(* ---- Bechamel micro-benchmarks: one Test.make per table/figure ------- *)

(* A pure scf loop nest over scalar arithmetic, built from textual IR:
   the dispatch-overhead workload behind the [interp_dispatch] group.
   [shape] gives the trip count of each nesting level, outermost
   first. The body only touches one f64 cell, so the two engines spend
   their whole run in op dispatch — exactly what the closure compiler
   removes. *)
let loop_nest_module shape =
  let buf = Buffer.create 512 in
  let fresh = ref 0 in
  let v () =
    let n = !fresh in
    incr fresh;
    n
  in
  let arg = v () in
  Buffer.add_string buf
    (Printf.sprintf "func @bench(%%%d: memref<1xf64>) {\n" arg);
  let zero = v () in
  Buffer.add_string buf
    (Printf.sprintf
       "  %%%d = \"arith.constant\"() {value = 0} : () -> index\n" zero);
  let one = v () in
  Buffer.add_string buf
    (Printf.sprintf
       "  %%%d = \"arith.constant\"() {value = 1} : () -> index\n" one);
  let rec nest = function
    | [] ->
        let l = v () in
        Buffer.add_string buf
          (Printf.sprintf
             "  %%%d = \"memref.load\"(%%%d, %%%d) : (memref<1xf64>, index) \
              -> f64\n"
             l arg zero);
        let s = v () in
        Buffer.add_string buf
          (Printf.sprintf
             "  %%%d = \"arith.mulf\"(%%%d, %%%d) : (f64, f64) -> f64\n" s l
             l);
        Buffer.add_string buf
          (Printf.sprintf
             "  \"memref.store\"(%%%d, %%%d, %%%d) : (f64, memref<1xf64>, \
              index) -> ()\n"
             s arg zero)
    | iters :: inner ->
        let ub = v () in
        Buffer.add_string buf
          (Printf.sprintf
             "  %%%d = \"arith.constant\"() {value = %d} : () -> index\n" ub
             iters);
        Buffer.add_string buf
          (Printf.sprintf "  \"scf.for\"(%%%d, %%%d, %%%d) ({\n" zero ub one);
        let iv = v () in
        Buffer.add_string buf (Printf.sprintf "  ^(%%%d: index):\n" iv);
        let t = v () in
        Buffer.add_string buf
          (Printf.sprintf
             "  %%%d = \"arith.addi\"(%%%d, %%%d) : (index, index) -> index\n"
             t iv one);
        nest inner;
        Buffer.add_string buf "  }) : (index, index, index) -> ()\n"
  in
  nest shape;
  Buffer.add_string buf "  \"func.return\"() : () -> ()\n}\n";
  Ir.Parser.parse_module (Buffer.contents buf)

let micro () =
  section "micro: Bechamel benchmarks of the compiler (one per experiment)";
  let open Bechamel in
  let spec32 = Archspec.Spec.square 32 Archspec.Spec.Base in
  let hdc_src = C4cam.Kernels.hdc_dot ~q:16 ~dims:1024 ~classes:10 ~k:1 in
  let knn_src = C4cam.Kernels.knn_euclidean ~q:4 ~dims:256 ~n:128 ~k:3 in
  let compile_test name spec src =
    Test.make ~name
      (Staged.stage (fun () -> ignore (C4cam.Driver.compile ~spec src)))
  in
  let small_data =
    Workloads.Hdc.synthetic ~dims:1024 ~n_classes:10 ~n_queries:16 ~bits:1 ()
  in
  let compiled = C4cam.Driver.compile ~spec:spec32 hdc_src in
  let tests =
    Test.make_grouped ~name:"c4cam"
      [
        compile_test "fig7_validation_compile" spec32 hdc_src;
        Test.make ~name:"fig8_dse_compile_and_run"
          (Staged.stage (fun () ->
               ignore
                 (C4cam.Driver.run_cam compiled ~queries:small_data.queries
                    ~stored:small_data.stored)));
        compile_test "table1_density_mapping"
          (Archspec.Spec.square 32 Archspec.Spec.Density)
          hdc_src;
        compile_test "table2_knn_compile"
          { (Archspec.Spec.square 32 Archspec.Spec.Base) with
            cam_kind = Archspec.Spec.Mcam }
          knn_src;
        compile_test "fig9_iso_capacity_compile"
          (C4cam.Dse.iso_capacity_spec ~side:32 Archspec.Spec.Base)
          hdc_src;
        Test.make ~name:"fig4_frontend_parse"
          (Staged.stage (fun () ->
               ignore (Frontend.Tsparser.parse_program hdc_src)));
        (* the distance-kernel tiers of docs/KERNELS.md, pitted against
           each other on identical binary data via the kernel cap (the
           results are byte-identical; only the dispatch differs) *)
        Test.make_grouped ~name:"search_kernels"
          (List.concat_map
             (fun cols ->
               let rows = 512 and q = 32 in
               let rng = Workloads.Prng.create (1000 + cols) in
               let mk n =
                 Array.init n (fun _ ->
                     Array.init cols (fun _ ->
                         float_of_int (Workloads.Prng.int rng 2)))
               in
               let stored = mk rows in
               let queries = mk q in
               List.map
                 (fun (tier, cap) ->
                   let sub = Camsim.Subarray.create ~rows ~cols ~bits:1 in
                   Camsim.Subarray.write sub stored;
                   Test.make ~name:(Printf.sprintf "%s_%d" tier cols)
                     (Staged.stage (fun () ->
                          Camsim.Subarray.with_kernel_cap sub cap
                            (fun () ->
                              ignore
                                (Camsim.Subarray.search sub ~queries
                                   ~row_offset:0 ~rows ~metric:`Hamming)))))
                 [
                   ("binary", `Binary); ("nibble", `Nibble);
                   ("generic", `Generic);
                 ])
             [ 32; 64; 128 ]);
        (* GC pressure of the zero-allocation hot path: the
           minor-words column is the headline number here — the
           flat-storage kernels and scratch arenas exist to hold it
           near zero in steady state (docs/KERNELS.md). One leg
           re-searches a subarray whose result matrix lives in the
           arena; one serves steady-state session batches. *)
        Test.make_grouped ~name:"alloc_pressure"
          [
            (let rows = 512 and cols = 64 and q = 32 in
             let rng = Workloads.Prng.create 7001 in
             let mk n =
               Array.init n (fun _ ->
                   Array.init cols (fun _ ->
                       float_of_int (Workloads.Prng.int rng 2)))
             in
             let sub = Camsim.Subarray.create ~rows ~cols ~bits:1 in
             Camsim.Subarray.write sub (mk rows);
             Camsim.Subarray.set_reuse_results sub true;
             let queries = mk q in
             Test.make ~name:"search_binary_steady"
               (Staged.stage (fun () ->
                    ignore
                      (Camsim.Subarray.search sub ~queries ~row_offset:0
                         ~rows ~metric:`Hamming))));
            (let q = 8 in
             let serve_data =
               Workloads.Hdc.synthetic ~seed:31 ~dims:512 ~n_classes:10
                 ~n_queries:q ~bits:1 ()
             in
             let session =
               Serve.Session.create ~spec:spec32
                 ~stored:serve_data.stored
                 (C4cam.Kernels.hdc_dot ~q ~dims:512 ~classes:10 ~k:1)
             in
             (* warm up: compile + device setup happen outside the
                measured steady state *)
             ignore (Serve.Session.query session serve_data.queries);
             Test.make ~name:"serve_batch_steady"
               (Staged.stage (fun () ->
                    ignore (Serve.Session.query session serve_data.queries))));
          ];
        (* the closure-compiled engine vs the tree-walking reference on
           pure scf loop nests: same module, same simulated result, only
           the dispatch machinery differs (docs/INTERPRETER.md). The
           name encodes nest depth and total innermost iterations. *)
        Test.make_grouped ~name:"interp_dispatch"
          (List.concat_map
             (fun (depth, total, shape) ->
               let m = loop_nest_module shape in
               let args =
                 [ Interp.Rtval.Buffer (Interp.Rtval.fresh_buffer [ 1 ]) ]
               in
               (* warm the per-domain memo so the compiled leg measures
                  dispatch, not the one-time compilation *)
               ignore (Interp.Machine.run ~precompile:true m "bench" args);
               List.map
                 (fun (leg, pre) ->
                   Test.make
                     ~name:(Printf.sprintf "%s_depth%d_%d" leg depth total)
                     (Staged.stage (fun () ->
                          ignore
                            (Interp.Machine.run ~precompile:pre m "bench"
                               args))))
                 [ ("compiled", true); ("treewalk", false) ])
             [
               (1, 64, [ 64 ]); (1, 256, [ 256 ]);
               (2, 64, [ 8; 8 ]); (2, 256, [ 16; 16 ]);
               (3, 64, [ 4; 4; 4 ]); (3, 256, [ 8; 8; 4 ]);
             ]);
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> C4cam.Report.si_time (e /. 1e9)
        | _ -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  print_string
    (C4cam.Report.table ~headers:[ "benchmark"; "time/run" ]
       (List.sort compare !rows))

(* ---- main -------------------------------------------------------------- *)

let all_sections =
  [
    ("ir_stages", ir_stages);
    ("fig7", validation);
    ("gpu_comparison", gpu_comparison);
    ("table1", table1);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig8c", fig8c);
    ("table2", table2);
    ("fig9", fig9);
    ("iso_area", iso_area);
    ("ablation", ablation);
    ("robustness", robustness);
    ("crossbar", crossbar);
    ("autotune", autotune);
    ("accuracy", accuracy);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) all_sections
  | "smoke" :: rest ->
      let usage () =
        prerr_endline
          "usage: main.exe -- smoke [--json [FILE]] [--jobs N] \
           [--shards N] [--no-precompile]";
        exit 2
      in
      let starts_dash s = String.length s >= 2 && String.sub s 0 2 = "--" in
      let rec parse json jobs shards precompile = function
        | [] -> (json, jobs, shards, precompile)
        | "--json" :: f :: tl when not (starts_dash f) ->
            parse (Some f) jobs shards precompile tl
        | "--json" :: tl ->
            parse (Some "BENCH_smoke.json") jobs shards precompile tl
        | "--jobs" :: n :: tl -> (
            match int_of_string_opt n with
            | Some n -> parse json (Some n) shards precompile tl
            | None -> usage ())
        | "--shards" :: n :: tl -> (
            match int_of_string_opt n with
            | Some n when n >= 1 -> parse json jobs (Some n) precompile tl
            | _ -> usage ())
        | "--no-precompile" :: tl -> parse json jobs shards false tl
        | _ -> usage ()
      in
      let json, jobs, shards, precompile = parse None None None true rest in
      smoke ?json ?jobs ?shards ~precompile ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name all_sections with
          | Some f -> f ()
          | None when name = "micro" -> micro ()
          | None ->
              Printf.eprintf
                "unknown section %s (available: %s, micro, smoke)\n" name
                (String.concat ", " (List.map fst all_sections)))
        names
