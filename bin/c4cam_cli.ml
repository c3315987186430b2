(* The c4cam command-line compiler driver.

     c4cam workloads
     c4cam compile --workload mlp --stage cam
     c4cam run     --workload range-filter --size 32
     c4cam serve   --workload knn --batches 4
     c4cam sweep   --workload hdc --dims 8192
     c4cam passes

   Workloads are resolved by name through Workloads.Registry (kernel
   source, data, oracle and shape defaults in one record); --kernel
   FILE bypasses the registry and compiles a TorchScript file directly,
   with HDC-style synthetic data on the compiled shapes. *)

open Cmdliner
module Reg = Workloads.Registry

let read_file path = In_channel.with_open_text path In_channel.input_all

(* ---- shared options ---------------------------------------------------- *)

let kernel_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "kernel"; "k" ] ~docv:"FILE"
        ~doc:"TorchScript kernel to compile (default: built-in HDC).")

let arch_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "arch" ] ~docv:"FILE"
        ~doc:"Architecture specification file (key = value lines).")

let size_arg =
  Arg.(
    value & opt int 32
    & info [ "size" ] ~docv:"N" ~doc:"Square subarray side (default 32).")

let opt_arg =
  let parse s =
    match s with
    | "base" | "latency" -> Ok Archspec.Spec.Base
    | "power" -> Ok Archspec.Spec.Power
    | "density" | "utilization" -> Ok Archspec.Spec.Density
    | "power+density" -> Ok Archspec.Spec.Power_density
    | _ -> Error (`Msg ("unknown optimization: " ^ s))
  in
  let print fmt o =
    Format.pp_print_string fmt (Archspec.Spec.optimization_to_string o)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Archspec.Spec.Base
    & info [ "opt" ] ~docv:"TARGET"
        ~doc:"Optimization target: base|power|density|power+density.")

let workload_arg =
  Arg.(
    value & opt string "hdc"
    & info [ "workload"; "w" ] ~docv:"NAME"
        ~doc:"Workload to resolve from the registry (run $(b,c4cam \
              workloads) for the list); ignored when --kernel names a \
              TorchScript file.")

let queries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "queries"; "q" ] ~docv:"N"
        ~doc:"Number of query rows (default: the workload's).")

let dims_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "dims"; "d" ] ~docv:"N"
        ~doc:"Vector dimensionality (default: the workload's).")

let classes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "classes"; "c" ] ~docv:"N"
        ~doc:"Stored row count — classes, prototypes or boxes (default: \
              the workload's).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:"Data seed (default: the workload's).")

let find_workload name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None ->
      Printf.eprintf "c4cam: unknown workload %s (known: %s)\n" name
        (String.concat ", " Workloads.Registry.names);
      exit 1

(* CLI flags override the entry's default shape only where given. *)
let shape_of (entry : Workloads.Registry.entry) ~queries ~dims ~classes
    ~seed =
  let d = entry.Workloads.Registry.default_shape in
  {
    d with
    Workloads.Registry.queries =
      Option.value queries ~default:d.Workloads.Registry.queries;
    dims = Option.value dims ~default:d.Workloads.Registry.dims;
    rows = Option.value classes ~default:d.Workloads.Registry.rows;
    seed = Option.value seed ~default:d.Workloads.Registry.seed;
  }

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Domain-pool width for parallel simulation and sweeps \
              (default: the C4CAM_JOBS environment variable, else 1; \
              results are identical for any value).")

(* --jobs N > 0 wins; otherwise fall back to C4CAM_JOBS / 1. *)
let with_jobs jobs f =
  let jobs = if jobs > 0 then jobs else Parallel.default_jobs () in
  Parallel.run ~jobs (fun pool -> f (Parallel.jobs pool))

let no_precompile_arg =
  Arg.(
    value & flag
    & info [ "no-precompile" ]
        ~doc:"Execute with the tree-walking reference interpreter instead \
              of the closure-compiled engine. Results, latency/energy and \
              activity counters are identical either way; only wall-clock \
              time differs (see docs/INTERPRETER.md).")

let engine_of no_precompile : C4cam.Driver.Run_config.engine =
  if no_precompile then `Treewalk else `Compiled

let config_of ?collector ~no_precompile () =
  {
    C4cam.Driver.Run_config.default with
    profile = collector;
    engine = engine_of no_precompile;
  }

let spec_of ~arch ~size ~opt =
  match arch with
  | Some path -> (
      match Archspec.Spec.load path with
      | Ok s -> Ok (Archspec.Spec.with_optimization s opt)
      | Error e -> Error ("bad architecture spec: " ^ e))
  | None -> Ok (Archspec.Spec.square size opt)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("c4cam: " ^ msg);
      exit 1

(* ---- profiling options (shared by compile and run) --------------------- *)

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Collect per-pass timings, IR deltas and rewrite counters and \
              print the profile table to stderr.")

let profile_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE"
        ~doc:"Write the collected profile to $(docv) as JSON.")

let collector_for ~profile ~profile_json =
  if profile || Option.is_some profile_json then
    Some (Instrument.Collect.create ())
  else None

let emit_profile ~profile ~profile_json collector =
  match collector with
  | None -> ()
  | Some c ->
      let p = Instrument.Collect.profile c in
      if profile then prerr_string (Instrument.Profile.to_table p);
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc ->
              Out_channel.output_string oc
                (Instrument.Json.to_string (Instrument.Profile.to_json p))))
        profile_json

let handle_errors f =
  try f () with
  | C4cam.Driver.Compile_error msg ->
      prerr_endline ("c4cam: compile error: " ^ msg);
      exit 1
  | C4cam.Acam.Range_error msg ->
      prerr_endline ("c4cam: range error: " ^ msg);
      exit 1
  | Serve.Range_store.Store_error msg ->
      prerr_endline ("c4cam: serve error: " ^ msg);
      exit 1
  | Invalid_argument msg ->
      prerr_endline ("c4cam: " ^ msg);
      exit 1
  | Sys_error msg ->
      prerr_endline ("c4cam: " ^ msg);
      exit 1

(* ---- compile ------------------------------------------------------------ *)

let stage_arg =
  Arg.(
    value & opt string "cam"
    & info [ "stage" ] ~docv:"STAGE"
        ~doc:"IR to print: torch, cim, cam or all.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace-passes" ]
        ~doc:"Print the IR after the frontend and after every pass.")

let compile_cmd =
  let run kernel workload arch size opt queries dims classes seed stage
      trace profile profile_json =
    handle_errors (fun () ->
        let spec0 = or_die (spec_of ~arch ~size ~opt) in
        let collector = collector_for ~profile ~profile_json in
        let compile_source ~spec src =
          if trace then
            let _, entries =
              C4cam.Driver.compile_traced ?profile:collector ~spec src
            in
            List.iter
              (fun (name, text) ->
                Printf.printf "---- after %s ----\n%s\n" name text)
              entries
          else
            let c = C4cam.Driver.compile ?profile:collector ~spec src in
            let stages = C4cam.Driver.stage_texts c in
            match stage with
            | "all" ->
                List.iter
                  (fun (name, text) ->
                    Printf.printf "---- %s ----\n%s\n" name text)
                  stages
            | s -> (
                match List.assoc_opt s stages with
                | Some text -> print_string text
                | None ->
                    prerr_endline
                      "c4cam: --stage must be torch, cim, cam or all";
                    exit 1)
        in
        (match kernel with
        | Some path -> compile_source ~spec:spec0 (read_file path)
        | None -> (
            let entry = find_workload workload in
            let shape = shape_of entry ~queries ~dims ~classes ~seed in
            let spec = entry.Reg.fix_spec shape spec0 in
            match entry.Reg.exec with
            | Reg.Kernel mk ->
                compile_source ~spec (mk shape spec).Reg.ki_source
            | Reg.Range _ ->
                (* built directly at the cam level: no frontend stages *)
                let c =
                  C4cam.Acam.compile ~spec ~q:shape.Reg.queries
                    ~boxes:shape.Reg.rows ~dims:shape.Reg.dims
                in
                print_string (Ir.Printer.module_to_string c.C4cam.Acam.ra_modul)
            | Reg.Direct _ ->
                prerr_endline
                  ("c4cam: workload " ^ entry.Reg.name
                 ^ " drives the simulator directly; there is no kernel IR \
                    to print");
                exit 1));
        emit_profile ~profile ~profile_json collector)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a kernel and print the IR")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg $ stage_arg
      $ trace_arg $ profile_arg $ profile_json_arg)

(* ---- run ---------------------------------------------------------------- *)

let backend_arg =
  Arg.(
    value & opt string "interp"
    & info [ "backend" ] ~docv:"B"
        ~doc:"Execution backend: interp (structured-IR interpreter), vm \
              (flat runtime ISA), or a placement — cam (all-CAM placed \
              run), xbar (crossbar scores, host select), host (host \
              replica) or auto (cost-model choice under --objective). \
              All backends return identical results.")

let place_objective_arg =
  Arg.(
    value & opt string "energy"
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:"Placement objective for --backend auto (and the place \
              command): latency | energy | edp.")

let place_objective_of objective =
  match Passes.Placement.objective_of_string objective with
  | Ok o -> o
  | Error e ->
      prerr_endline ("c4cam: " ^ e);
      exit 1

let correct_of ~predict ~labels indices =
  let got = predict indices in
  let correct = ref 0 in
  Array.iteri (fun i g -> if g = labels.(i) then incr correct) got;
  !correct

let top1 indices = Array.map (fun (row : int array) -> row.(0)) indices

(* Run an already-compiled kernel on the chosen backend and print the
   standard report, scoring with the workload's prediction decoder. *)
let exec_compiled ~config ~collector ~profile ~profile_json ~objective
    ~backend ~spec (c : C4cam.Driver.compiled) ~stored ~queries ~labels
    ~predict ~(pre : Reg.pre_stage option) =
  let kernel_line () =
    Printf.printf "kernel   : %d queries x %d dims vs %d stored (%s)\n"
      c.info.q c.info.d c.info.n
      (C4cam.Dse.config_name spec);
    Option.iter
      (fun (p : Reg.pre_stage) ->
        Printf.printf "pre      : %s, %s, %s (device work before the run)\n"
          p.Reg.pre_label
          (C4cam.Report.si_time p.Reg.pre_latency)
          (C4cam.Report.si_energy p.Reg.pre_energy))
      pre
  in
  let accuracy_line indices =
    Printf.printf "accuracy : %d/%d against the workload oracle\n"
      (correct_of ~predict ~labels indices)
      (Array.length labels)
  in
  match backend with
  | "interp" | "vm" ->
      let r =
        (if backend = "interp" then C4cam.Driver.run_cam
         else C4cam.Driver.run_vm)
          ~config c ~queries ~stored
      in
      emit_profile ~profile ~profile_json collector;
      kernel_line ();
      Printf.printf "latency  : %s\n" (C4cam.Report.si_time r.latency);
      Printf.printf "energy   : %s\n" (C4cam.Report.si_energy r.energy);
      Printf.printf "power    : %s\n" (C4cam.Report.si_power r.power);
      accuracy_line r.indices;
      Printf.printf "%s\n" (Camsim.Stats.to_string r.stats)
  | "cam" | "xbar" | "host" | "auto" ->
      let placement =
        match backend with
        | "cam" -> `Cam
        | "xbar" -> `Fixed (Passes.Placement.Xbar, Passes.Placement.Host)
        | "host" -> `Fixed (Passes.Placement.Host, Passes.Placement.Host)
        | _ -> `Auto
      in
      let config =
        config
        |> C4cam.Driver.Run_config.with_placement placement
        |> C4cam.Driver.Run_config.with_place_objective
             (place_objective_of objective)
      in
      let pr = C4cam.Hetero.run_placed ~config c ~queries ~stored in
      emit_profile ~profile ~profile_json collector;
      kernel_line ();
      Printf.printf "placement: %s (%d candidates, objective %s)\n"
        pr.pr_placement pr.pr_candidates objective;
      List.iter
        (fun (name, dev, (cost : Passes.Placement.cost)) ->
          Printf.printf "  %-6s on %-4s : %s, %s\n" name
            (Passes.Placement.device_name dev)
            (C4cam.Report.si_time cost.latency)
            (C4cam.Report.si_energy cost.energy))
        pr.pr_stage_costs;
      if pr.pr_moved_bytes > 0 then
        Printf.printf "  move %8d B : %s, %s\n" pr.pr_moved_bytes
          (C4cam.Report.si_time pr.pr_movement.latency)
          (C4cam.Report.si_energy pr.pr_movement.energy);
      Printf.printf "latency  : %s\n" (C4cam.Report.si_time pr.pr_latency);
      Printf.printf "energy   : %s\n" (C4cam.Report.si_energy pr.pr_energy);
      accuracy_line pr.pr_indices
  | b ->
      prerr_endline ("c4cam: unknown backend " ^ b);
      exit 1

let interp_only ~backend entry what =
  if backend <> "interp" then begin
    Printf.eprintf "c4cam: workload %s %s; only --backend interp applies\n"
      entry.Reg.name what;
    exit 1
  end

let run_cmd =
  let run kernel workload arch size opt queries dims classes seed backend
      objective profile profile_json jobs no_precompile =
    handle_errors (fun () ->
        with_jobs jobs @@ fun jobs ->
        let spec0 = or_die (spec_of ~arch ~size ~opt) in
        let collector = collector_for ~profile ~profile_json in
        Option.iter (fun c -> Instrument.Collect.set_jobs c jobs) collector;
        let config = config_of ?collector ~no_precompile () in
        let exec = exec_compiled ~config ~collector ~profile ~profile_json
            ~objective ~backend
        in
        match kernel with
        | Some path ->
            (* explicit TorchScript file: HDC-style synthetic data on the
               compiled shapes, top-1 row as the prediction *)
            let c =
              C4cam.Driver.compile ?profile:collector ~spec:spec0
                (read_file path)
            in
            let data =
              Workloads.Hdc.synthetic
                ~seed:(Option.value seed ~default:11)
                ~dims:c.info.d ~n_classes:c.info.n ~n_queries:c.info.q
                ~bits:spec0.bits ()
            in
            exec ~spec:spec0 c ~stored:data.stored ~queries:data.queries
              ~labels:data.query_labels ~predict:top1 ~pre:None
        | None -> (
            let entry = find_workload workload in
            let shape = shape_of entry ~queries ~dims ~classes ~seed in
            let spec = entry.Reg.fix_spec shape spec0 in
            match entry.Reg.exec with
            | Reg.Kernel mk ->
                let ki = mk shape spec in
                let c =
                  C4cam.Driver.compile ?profile:collector ~spec
                    ki.Reg.ki_source
                in
                exec ~spec c ~stored:ki.Reg.ki_stored
                  ~queries:ki.Reg.ki_queries ~labels:ki.Reg.ki_labels
                  ~predict:ki.Reg.ki_predict ~pre:ki.Reg.ki_pre
            | Reg.Direct dr ->
                interp_only ~backend entry "drives the simulator directly";
                let o = dr shape spec in
                emit_profile ~profile ~profile_json collector;
                Printf.printf
                  "kernel   : %d queries, direct device workload (%s)\n"
                  o.Reg.do_queries
                  (C4cam.Dse.config_name spec);
                Printf.printf "energy   : %s\n"
                  (C4cam.Report.si_energy o.Reg.do_energy);
                Printf.printf
                  "accuracy : %.1f%% against the workload oracle\n"
                  (o.Reg.do_accuracy *. 100.);
                Printf.printf "%s\n" (Camsim.Stats.to_string o.Reg.do_stats)
            | Reg.Range mk ->
                interp_only ~backend entry "executes as an ACAM module";
                let ri = mk shape in
                let c =
                  C4cam.Acam.compile ~spec ~q:shape.Reg.queries
                    ~boxes:shape.Reg.rows ~dims:shape.Reg.dims
                in
                let r =
                  C4cam.Acam.run ~config c ~lo:ri.Reg.ri_lo ~hi:ri.Reg.ri_hi
                    ~queries:ri.Reg.ri_queries
                in
                emit_profile ~profile ~profile_json collector;
                Printf.printf
                  "kernel   : %d queries x %d dims vs %d boxes (acam \
                   range, %s)\n"
                  shape.Reg.queries shape.Reg.dims shape.Reg.rows
                  (C4cam.Dse.config_name spec);
                Printf.printf "latency  : %s\n"
                  (C4cam.Report.si_time r.C4cam.Acam.latency);
                Printf.printf "energy   : %s\n"
                  (C4cam.Report.si_energy r.C4cam.Acam.energy);
                Printf.printf "power    : %s\n"
                  (C4cam.Report.si_power r.C4cam.Acam.power);
                let inside =
                  Array.fold_left
                    (fun a m -> if m >= 0 then a + 1 else a)
                    0 r.C4cam.Acam.matches
                in
                Printf.printf "matched  : %d/%d queries inside a box\n"
                  inside shape.Reg.queries;
                Printf.printf "accuracy : %d/%d against the host oracle\n"
                  (correct_of
                     ~predict:(fun _ -> r.C4cam.Acam.matches)
                     ~labels:ri.Reg.ri_expected r.C4cam.Acam.indices)
                  (Array.length ri.Reg.ri_expected);
                Printf.printf "%s\n"
                  (Camsim.Stats.to_string r.C4cam.Acam.stats)))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute on the CAM simulator")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg $ backend_arg
      $ place_objective_arg $ profile_arg $ profile_json_arg $ jobs_arg
      $ no_precompile_arg)

(* ---- place: print the placement candidate table without running --------- *)

let place_cmd =
  let run arch size opt queries dims classes features metric topk objective =
    handle_errors (fun () ->
        let queries = Option.value queries ~default:16 in
        let dims = Option.value dims ~default:1024 in
        let classes = Option.value classes ~default:10 in
        let metric =
          match metric with
          | "dot" -> Dialects.Cim.Dot
          | "cosine" -> Dialects.Cim.Cosine
          | "euclidean" -> Dialects.Cim.Euclidean
          | "hamming" -> Dialects.Cim.Hamming
          | m ->
              prerr_endline ("c4cam: unknown metric " ^ m);
              exit 1
        in
        let spec = or_die (spec_of ~arch ~size ~opt) in
        (* Euclidean distances need the multi-bit analog cell. *)
        let spec =
          if metric = Dialects.Cim.Euclidean then
            { spec with cam_kind = Archspec.Spec.Mcam }
          else spec
        in
        let stages =
          (if features > 0 then
             [ Passes.Placement.Gemv { m = queries; k = features; n = dims } ]
           else [])
          @ [
              Passes.Placement.Score
                { q = queries; n = classes; d = dims; metric };
              Passes.Placement.Select { q = queries; n = classes; k = topk };
            ]
        in
        let models = Passes.Placement.default_models spec in
        print_string
          (Passes.Placement.table
             ~objective:(place_objective_of objective)
             models stages))
  in
  let features_arg =
    Arg.(
      value & opt int 0
      & info [ "features" ] ~docv:"N"
          ~doc:"Prepend a GEMV feature-projection stage ($(docv) input \
                features per query; default 0: no GEMV stage).")
  in
  let metric_arg =
    Arg.(
      value & opt string "dot"
      & info [ "metric" ] ~docv:"M"
          ~doc:"Similarity metric of the score stage: dot | cosine | \
                euclidean | hamming.")
  in
  let topk_arg =
    Arg.(
      value & opt int 1
      & info [ "topk" ] ~docv:"K" ~doc:"Results per query row (default 1).")
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Price every legal device assignment of a kernel's stage \
          pipeline and print the candidate table (no execution)")
    Term.(
      const run $ arch_arg $ size_arg $ opt_arg $ queries_arg $ dims_arg
      $ classes_arg $ features_arg $ metric_arg $ topk_arg
      $ place_objective_arg)

(* ---- serve: persistent session over query batches ---------------------- *)

(* Newline-delimited query input: each non-empty line is one query row of
   whitespace-separated floats; rows are grouped into q-row batches. *)
let read_query_batches ~q ~d ic =
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then begin
         let row =
           String.split_on_char ' ' line
           |> List.filter (fun s -> s <> "")
           |> List.map (fun s ->
                  match float_of_string_opt s with
                  | Some v -> v
                  | None ->
                      prerr_endline ("c4cam: bad query value: " ^ s);
                      exit 1)
           |> Array.of_list
         in
         if Array.length row <> d then begin
           Printf.eprintf "c4cam: query row has %d values, expected %d\n"
             (Array.length row) d;
           exit 1
         end;
         rows := row :: !rows
       end
     done
   with End_of_file -> ());
  let rows = Array.of_list (List.rev !rows) in
  let total = Array.length rows in
  if total = 0 || total mod q <> 0 then begin
    Printf.eprintf
      "c4cam: read %d query rows; need a positive multiple of %d\n" total q;
    exit 1
  end;
  List.init (total / q) (fun i -> Array.sub rows (i * q) q)

(* Shared knobs of the micro-batching scheduler (serve --clients and
   serve-tcp). *)
let server_config_args =
  let batch_rows_arg =
    Arg.(
      value & opt int 0
      & info [ "batch-rows" ] ~docv:"N"
          ~doc:"Micro-batch row capacity (default: 4x the kernel's query \
                arity; rounded up to a multiple of it).")
  in
  let window_arg =
    Arg.(
      value & opt float 0.
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Batching window: with a partially filled batch the \
                scheduler waits this long for more arrivals before \
                dispatching (default 0: dispatch immediately).")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-cap" ] ~docv:"ROWS"
          ~doc:"Backpressure bound on queued rows (default 256).")
  in
  let fail_fast_arg =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:"Reject submissions at the queue cap instead of blocking.")
  in
  let mk batch_rows window queue_cap fail_fast jobs =
    {
      Server.default_config with
      batch_rows;
      window_s = window;
      queue_cap;
      backpressure = (if fail_fast then `Fail_fast else `Block);
      jobs;
    }
  in
  Term.(
    const mk $ batch_rows_arg $ window_arg $ queue_cap_arg $ fail_fast_arg)

(* Enqueue every batch on a server created paused, round-robin over
   [handles], then start the scheduler; returns (request index, ticket)
   pairs. With every request queued before the scheduler runs, the
   coalescing is deterministic. Batches that outgrow the queue cap
   cannot all wait on a scheduler only this caller can resume:
   [Server.submit] raises [Paused_full] instead, so the scheduler
   starts early and the batch is submitted again, blocking for room. *)
let submit_all server handles batches =
  let clients = Array.length handles in
  let tickets =
    List.mapi
      (fun i batch ->
        let c = handles.(i mod clients) in
        let tk =
          try Server.submit c batch
          with Server.Paused_full ->
            Server.resume server;
            Server.submit c batch
        in
        (i, tk))
      batches
  in
  Server.resume server;
  tickets

let print_server_stats (st : Server.stats) =
  Printf.printf
    "server   : %d micro-batches, fill %.2f queries/batch, queue \
     high-water %d rows\n"
    st.batches_coalesced st.batch_fill st.queue_hwm;
  Printf.printf "latency  : p50 %s / p99 %s submit-to-done (host)\n"
    (C4cam.Report.si_time st.lat_p50_s)
    (C4cam.Report.si_time st.lat_p99_s)

let print_session_stats (s : Serve.Session.stats) c spec =
  Printf.printf "kernel   : %d queries x %d dims vs %d stored (%s)\n"
    c.C4cam.Driver.info.C4cam.Driver.q c.C4cam.Driver.info.d
    c.C4cam.Driver.info.n
    (C4cam.Dse.config_name spec);
  Printf.printf "served   : %d batches, %d queries (%.0f queries/s)\n"
    s.Serve.Session.batches s.queries_served s.queries_per_s;
  Printf.printf "latency  : %s simulated\n"
    (C4cam.Report.si_time s.sim_latency_s);
  Printf.printf "energy   : %s (writes %s, charged once)\n"
    (C4cam.Report.si_energy s.sim_energy_j)
    (C4cam.Report.si_energy s.write_energy_j);
  Printf.printf "artifact : cache %s\n"
    (match s.cache with `Hit -> "hit" | `Miss -> "miss")

(* ---- sharded-store serving (serve --shards / --store-rows) ------------- *)

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:"Partition the stored rows across $(docv) independent \
              simulator shards; > 1 (or --store-rows) switches serve to \
              the sharded HDC store (see docs/SHARDING.md).")

let store_rows_arg =
  Arg.(
    value & opt int 0
    & info [ "store-rows" ] ~docv:"M"
        ~doc:"Row capacity of the sharded store (enables sharded-store \
              mode; default: --classes when --shards > 1).")

let topk_arg =
  Arg.(
    value & opt int 3
    & info [ "topk" ] ~docv:"K"
        ~doc:"Results per query row in sharded-store mode (default 3).")

let print_store_stats (st : Serve.Sharded_store.stats) spec ~q ~d ~k =
  Printf.printf "kernel   : %d queries x %d dims, top-%d host merge (%s)\n"
    q d k (C4cam.Dse.config_name spec);
  Printf.printf "store    : %d shards, %d/%d rows stored (%d slots free)\n"
    st.Serve.Sharded_store.shards st.rows_stored st.capacity st.rows_free;
  Array.iteri
    (fun i (si : Serve.Sharded_store.shard_info) ->
      Printf.printf "  shard %-3d: %d rows, %d free, %d writes, %s\n" i
        si.Serve.Sharded_store.info_rows si.info_free si.info_write_ops
        (C4cam.Report.si_energy si.info_energy_j))
    st.per_shard;
  let s = st.session in
  Printf.printf "served   : %d batches, %d queries (%.0f queries/s)\n"
    s.Serve.Session.batches s.queries_served s.queries_per_s;
  Printf.printf "latency  : %s simulated (slowest shard per batch)\n"
    (C4cam.Report.si_time s.sim_latency_s);
  Printf.printf "energy   : %s (writes %s, changed rows only)\n"
    (C4cam.Report.si_energy s.sim_energy_j)
    (C4cam.Report.si_energy s.write_energy_j);
  Printf.printf "fan-out  : %s wall, merge %s wall\n"
    (C4cam.Report.si_time st.fanout_wall_s)
    (C4cam.Report.si_time st.merge_wall_s);
  Printf.printf "artifact : cache %s\n"
    (match s.cache with `Hit -> "hit" | `Miss -> "miss")

(* Build a store of [rows] synthetic prototypes (external id = class
   label) and return it with the matching noisy query rows. *)
let make_store ~config ~spec ~q ~d ~k ~shards ~rows ~seed ~n_queries =
  try
    let store =
      Serve.Sharded_store.create ~config ~spec ~q ~d ~k ~shards
        ~capacity:rows ()
    in
    let data =
      Workloads.Hdc.synthetic ~seed ~dims:d ~n_classes:rows ~n_queries
        ~bits:spec.Archspec.Spec.bits ()
    in
    Array.iter
      (fun r -> ignore (Serve.Sharded_store.insert store r))
      data.Workloads.Hdc.stored;
    (store, data.Workloads.Hdc.queries)
  with
  | Serve.Sharded_store.Store_error msg | Serve.Session.Serve_error msg ->
      prerr_endline ("c4cam: serve error: " ^ msg);
      exit 1

let top_line (indices : int array array) =
  Array.to_list indices
  |> List.map (fun (row : int array) -> string_of_int row.(0))
  |> String.concat " "

(* Slice [nb] q-row batches out of a generated query pool, wrapping
   around when the workload produced fewer rows than requested. *)
let batches_from_pool ~q ~nb pool =
  let n = Array.length pool in
  List.init nb (fun i -> Array.init q (fun j -> pool.(((i * q) + j) mod n)))

let print_range_store_stats store spec ~q =
  let s = Serve.Range_store.stats store in
  Printf.printf
    "kernel   : %d queries x %d dims vs %d boxes (acam range, %s)\n" q
    (Serve.Range_store.dims store)
    (Serve.Range_store.boxes store)
    (C4cam.Dse.config_name spec);
  Printf.printf "store    : %d shards\n" (Serve.Range_store.shards store);
  Printf.printf "served   : %d batches, %d queries (%.0f queries/s)\n"
    s.Serve.Session.batches s.queries_served s.queries_per_s;
  Printf.printf "latency  : %s simulated (slowest shard per batch)\n"
    (C4cam.Report.si_time s.sim_latency_s);
  Printf.printf "energy   : %s (range writes %s, charged once)\n"
    (C4cam.Report.si_energy s.sim_energy_j)
    (C4cam.Report.si_energy s.write_energy_j)

let print_pre_stage = function
  | None -> ()
  | Some (p : Reg.pre_stage) ->
      Printf.printf "pre      : %s, %s, %s (device work before serving)\n"
        p.Reg.pre_label
        (C4cam.Report.si_time p.Reg.pre_latency)
        (C4cam.Report.si_energy p.Reg.pre_energy)

let serve_cmd =
  let run kernel workload arch size opt queries dims classes seed batches
      input clients shards store_rows topk server_config profile
      profile_json jobs no_precompile =
    handle_errors (fun () ->
        with_jobs jobs @@ fun jobs ->
        let spec = or_die (spec_of ~arch ~size ~opt) in
        let collector = collector_for ~profile ~profile_json in
        Option.iter (fun c -> Instrument.Collect.set_jobs c jobs) collector;
        let config = config_of ?collector ~no_precompile () in
        let nb = max 1 batches in
        let entry =
          match kernel with
          | Some _ -> None
          | None -> Some (find_workload workload)
        in
        match entry with
        | Some ({ Reg.exec = Reg.Range mk; _ } as e) ->
            (* range workload: a pinned box table behind the (optionally
               sharded) range store *)
            let shape = shape_of e ~queries ~dims ~classes ~seed in
            let q = shape.Reg.queries in
            let ri = mk { shape with Reg.queries = q * nb } in
            let config = C4cam.Driver.Run_config.with_shards shards config in
            let store =
              Serve.Range_store.create ~config ~spec ~q ~lo:ri.Reg.ri_lo
                ~hi:ri.Reg.ri_hi ()
            in
            let query_batches =
              match input with
              | Some "-" -> read_query_batches ~q ~d:shape.Reg.dims stdin
              | Some path ->
                  In_channel.with_open_text path
                    (read_query_batches ~q ~d:shape.Reg.dims)
              | None -> batches_from_pool ~q ~nb ri.Reg.ri_queries
            in
            if clients > 0 then begin
              let server =
                Server.create_on
                  ~config:
                    { (server_config jobs) with Server.start_paused = true }
                  (Serve.Range_store.backend store)
              in
              let handles =
                Array.init clients (fun _ -> Server.connect server)
              in
              let tickets = submit_all server handles query_batches in
              List.iter
                (fun (i, tk) ->
                  let r = Server.await tk in
                  Printf.printf
                    "request %d: matched [%s] (client %d, micro-batch %d)\n"
                    i
                    (top_line r.Server.r_indices)
                    (i mod clients) r.Server.r_batch_seq)
                tickets;
              Server.stop server;
              emit_profile ~profile ~profile_json collector;
              let st = Server.stats server in
              print_range_store_stats store spec ~q;
              Printf.printf "clients  : %d\n" clients;
              print_server_stats st
            end
            else begin
              List.iteri
                (fun i batch ->
                  let r = Serve.Range_store.query store batch in
                  Printf.printf "batch %d: matched [%s] (%s, %s)\n" i
                    (top_line r.Serve.Range_store.indices)
                    (C4cam.Report.si_time r.Serve.Range_store.latency)
                    (C4cam.Report.si_energy r.Serve.Range_store.energy))
                query_batches;
              emit_profile ~profile ~profile_json collector;
              print_range_store_stats store spec ~q
            end
        | Some { Reg.exec = Reg.Direct _; name; _ } ->
            Printf.eprintf
              "c4cam: workload %s drives the simulator directly and is \
               not servable\n"
              name;
            exit 1
        | _ when shards > 1 || store_rows > 0 ->
            (* sharded-store mode: the workload kernel is ignored, the
               store compiles its own scores-form kernel *)
            let q = Option.value queries ~default:16 in
            let d = Option.value dims ~default:1024 in
            let rows =
              if store_rows > 0 then store_rows
              else Option.value classes ~default:10
            in
            let seed = Option.value seed ~default:11 in
            let config = C4cam.Driver.Run_config.with_shards shards config in
            let store, qdata =
              make_store ~config ~spec ~q ~d ~k:topk ~shards ~rows ~seed
                ~n_queries:(q * nb)
            in
            let query_batches =
              match input with
              | Some "-" -> read_query_batches ~q ~d stdin
              | Some path ->
                  In_channel.with_open_text path (read_query_batches ~q ~d)
              | None ->
                  List.init nb (fun i -> Array.sub qdata (i * q) q)
            in
            (if clients > 0 then begin
               let server =
                 Server.create_on
                   ~config:
                     { (server_config jobs) with Server.start_paused = true }
                   (Serve.Sharded_store.backend store)
               in
               let handles =
                 Array.init clients (fun _ -> Server.connect server)
               in
               let tickets = submit_all server handles query_batches in
               List.iter
                 (fun (i, tk) ->
                   let r = Server.await tk in
                   Printf.printf
                     "request %d: top-1 [%s] (client %d, micro-batch %d)\n"
                     i
                     (top_line r.Server.r_indices)
                     (i mod clients) r.Server.r_batch_seq)
                 tickets;
               Server.stop server;
               emit_profile ~profile ~profile_json collector;
               let st = Server.stats server in
               print_store_stats
                 (Serve.Sharded_store.stats store)
                 spec ~q ~d ~k:topk;
               Printf.printf "clients  : %d\n" clients;
               print_server_stats st
             end
             else begin
               List.iteri
                 (fun i batch ->
                   let r =
                     try Serve.Sharded_store.query store batch
                     with Serve.Sharded_store.Store_error msg ->
                       prerr_endline ("c4cam: serve error: " ^ msg);
                       exit 1
                   in
                   Printf.printf "batch %d: top-1 [%s] (%s, %s)\n" i
                     (top_line r.Serve.Sharded_store.indices)
                     (C4cam.Report.si_time r.Serve.Sharded_store.latency)
                     (C4cam.Report.si_energy r.Serve.Sharded_store.energy))
                 query_batches;
               emit_profile ~profile ~profile_json collector;
               print_store_stats
                 (Serve.Sharded_store.stats store)
                 spec ~q ~d ~k:topk
             end)
        | _ ->
        let spec, session, query_batches, pre =
          try
            match kernel with
            | Some path ->
                (* Probe the artifact first so synthetic data and the
                   input reader agree with the kernel's shapes, then hand
                   the probe's result to the session — its status
                   reflects this process's first sight of the
                   (source, spec) pair, and on a miss the compile passes
                   land in the collector. *)
                let src = read_file path in
                let (c, _) as artifact =
                  Serve.Artifact_cache.lookup ?profile:collector ~spec src
                in
                let data =
                  Workloads.Hdc.synthetic
                    ~seed:(Option.value seed ~default:11)
                    ~dims:c.info.d ~n_classes:c.info.n
                    ~n_queries:(c.info.q * nb) ~bits:spec.bits ()
                in
                let qbatches =
                  match input with
                  | Some "-" ->
                      read_query_batches ~q:c.info.q ~d:c.info.d stdin
                  | Some path ->
                      In_channel.with_open_text path
                        (read_query_batches ~q:c.info.q ~d:c.info.d)
                  | None ->
                      List.init nb (fun i ->
                          Array.sub data.queries (i * c.info.q) c.info.q)
                in
                let session =
                  Serve.Session.create ~config ~artifact ~spec
                    ~stored:data.stored src
                in
                (spec, session, qbatches, None)
            | None ->
                let e = Option.get entry in
                let mk =
                  match e.Reg.exec with
                  | Reg.Kernel mk -> mk
                  | _ -> assert false
                in
                let shape = shape_of e ~queries ~dims ~classes ~seed in
                let spec = e.Reg.fix_spec shape spec in
                let ki = mk shape spec in
                (* a second, wider instance supplies distinct query rows
                   for every batch; source and stored rows come from the
                   serving instance *)
                let pool =
                  (mk { shape with Reg.queries = shape.Reg.queries * nb }
                     spec)
                    .Reg.ki_queries
                in
                let q = shape.Reg.queries in
                let d = Array.length ki.Reg.ki_queries.(0) in
                let qbatches =
                  match input with
                  | Some "-" -> read_query_batches ~q ~d stdin
                  | Some path ->
                      In_channel.with_open_text path
                        (read_query_batches ~q ~d)
                  | None -> batches_from_pool ~q ~nb pool
                in
                let artifact =
                  Serve.Artifact_cache.lookup ?profile:collector ~spec
                    ki.Reg.ki_source
                in
                let session =
                  Serve.Session.create ~config ~artifact ~spec
                    ~stored:ki.Reg.ki_stored ki.Reg.ki_source
                in
                (spec, session, qbatches, ki.Reg.ki_pre)
          with Serve.Session.Serve_error msg ->
            prerr_endline ("c4cam: serve error: " ^ msg);
            exit 1
        in
        print_pre_stage pre;
        (if clients > 0 then begin
           (* route through the micro-batching scheduler: all requests
              are enqueued across [clients] handles before the scheduler
              starts, so the coalescing (and hence this command's
              output) is deterministic *)
           let server =
             Server.create
               ~config:
                 { (server_config jobs) with Server.start_paused = true }
               session
           in
           let handles =
             Array.init clients (fun _ -> Server.connect server)
           in
           let tickets = submit_all server handles query_batches in
           List.iter
             (fun (i, tk) ->
               let r = Server.await tk in
               let top =
                 Array.to_list r.Server.r_indices
                 |> List.map (fun (row : int array) ->
                        string_of_int row.(0))
                 |> String.concat " "
               in
               Printf.printf
                 "request %d: top-1 [%s] (client %d, micro-batch %d)\n" i
                 top (i mod clients) r.Server.r_batch_seq)
             tickets;
           Server.stop server;
           emit_profile ~profile ~profile_json collector;
           let st = Server.stats server in
           print_session_stats st.Server.session
             (Serve.Session.compiled session)
             spec;
           Printf.printf "clients  : %d\n" clients;
           print_server_stats st
         end
         else begin
           List.iteri
             (fun i batch ->
               let r = Serve.Session.query session batch in
               let top =
                 Array.to_list r.C4cam.Driver.indices
                 |> List.map (fun (row : int array) ->
                        string_of_int row.(0))
                 |> String.concat " "
               in
               Printf.printf "batch %d: top-1 [%s] (%s, %s)\n" i top
                 (C4cam.Report.si_time r.latency)
                 (C4cam.Report.si_energy r.energy))
             query_batches;
           emit_profile ~profile ~profile_json collector;
           print_session_stats
             (Serve.Session.stats session)
             (Serve.Session.compiled session)
             spec
         end))
  in
  let batches_arg =
    Arg.(
      value & opt int 8
      & info [ "batches"; "b" ] ~docv:"N"
          ~doc:"Synthetic batches to serve when no --input is given \
                (default 8).")
  in
  let input_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"FILE"
          ~doc:"Newline-delimited query rows (one row of space-separated \
                floats per line, grouped into q-row batches); '-' reads \
                stdin.")
  in
  let clients_arg =
    Arg.(
      value & opt int 0
      & info [ "clients" ] ~docv:"N"
          ~doc:"Serve the batches through the concurrent front-end's \
                micro-batching scheduler, spread round-robin over $(docv) \
                client handles (default 0: query the session directly).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Create a persistent session and serve query batches against it")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg $ batches_arg
      $ input_arg $ clients_arg $ shards_arg $ store_rows_arg $ topk_arg
      $ server_config_args $ profile_arg $ profile_json_arg $ jobs_arg
      $ no_precompile_arg)

(* ---- serve-tcp: the newline-delimited wire front-end -------------------- *)

let serve_tcp_cmd =
  let run kernel workload arch size opt queries dims classes seed port
      shards store_rows topk server_config profile profile_json jobs
      no_precompile =
    handle_errors (fun () ->
        with_jobs jobs @@ fun jobs ->
        let spec = or_die (spec_of ~arch ~size ~opt) in
        let collector = collector_for ~profile ~profile_json in
        Option.iter (fun c -> Instrument.Collect.set_jobs c jobs) collector;
        let config = config_of ?collector ~no_precompile () in
        let entry =
          match kernel with
          | Some _ -> None
          | None -> Some (find_workload workload)
        in
        let serve_loop server summarize =
          let listener =
            try Tcp.listen ~port server
            with Server.Server_error msg ->
              prerr_endline ("c4cam: " ^ msg);
              exit 1
          in
          Printf.printf "listening on 127.0.0.1:%d\n%!" (Tcp.port listener);
          (* serve until stdin closes (^D, or the driving process hanging
             up), then shut down in order: wire, scheduler, summary *)
          (try
             while true do
               ignore (input_line stdin)
             done
           with End_of_file -> ());
          Tcp.shutdown listener;
          Server.stop server;
          emit_profile ~profile ~profile_json collector;
          let st = Server.stats server in
          summarize st;
          Printf.printf "clients  : %d connections\n"
            (Tcp.connections_served listener);
          print_server_stats st
        in
        match entry with
        | Some ({ Reg.exec = Reg.Range mk; _ } as e) ->
            let shape = shape_of e ~queries ~dims ~classes ~seed in
            let q = shape.Reg.queries in
            let ri = mk shape in
            let config = C4cam.Driver.Run_config.with_shards shards config in
            let store =
              Serve.Range_store.create ~config ~spec ~q ~lo:ri.Reg.ri_lo
                ~hi:ri.Reg.ri_hi ()
            in
            let server =
              Server.create_on ~config:(server_config jobs)
                (Serve.Range_store.backend store)
            in
            serve_loop server (fun _st ->
                print_range_store_stats store spec ~q)
        | Some { Reg.exec = Reg.Direct _; name; _ } ->
            Printf.eprintf
              "c4cam: workload %s drives the simulator directly and is \
               not servable\n"
              name;
            exit 1
        | _ when shards > 1 || store_rows > 0 ->
            let q = Option.value queries ~default:16 in
            let d = Option.value dims ~default:1024 in
            let rows =
              if store_rows > 0 then store_rows
              else Option.value classes ~default:10
            in
            let seed = Option.value seed ~default:11 in
            let config = C4cam.Driver.Run_config.with_shards shards config in
            let store, _ =
              make_store ~config ~spec ~q ~d ~k:topk ~shards ~rows ~seed
                ~n_queries:q
            in
            let server =
              Server.create_on ~config:(server_config jobs)
                (Serve.Sharded_store.backend store)
            in
            serve_loop server (fun _st ->
                print_store_stats
                  (Serve.Sharded_store.stats store)
                  spec ~q ~d ~k:topk)
        | _ ->
        let spec, session, pre =
          try
            match kernel with
            | Some path ->
                let src = read_file path in
                let (c, _) as artifact =
                  Serve.Artifact_cache.lookup ?profile:collector ~spec src
                in
                let data =
                  Workloads.Hdc.synthetic
                    ~seed:(Option.value seed ~default:11)
                    ~dims:c.info.d ~n_classes:c.info.n ~n_queries:c.info.q
                    ~bits:spec.bits ()
                in
                ( spec,
                  Serve.Session.create ~config ~artifact ~spec
                    ~stored:data.stored src,
                  None )
            | None ->
                let e = Option.get entry in
                let mk =
                  match e.Reg.exec with
                  | Reg.Kernel mk -> mk
                  | _ -> assert false
                in
                let shape = shape_of e ~queries ~dims ~classes ~seed in
                let spec = e.Reg.fix_spec shape spec in
                let ki = mk shape spec in
                let artifact =
                  Serve.Artifact_cache.lookup ?profile:collector ~spec
                    ki.Reg.ki_source
                in
                ( spec,
                  Serve.Session.create ~config ~artifact ~spec
                    ~stored:ki.Reg.ki_stored ki.Reg.ki_source,
                  ki.Reg.ki_pre )
          with Serve.Session.Serve_error msg ->
            prerr_endline ("c4cam: serve error: " ^ msg);
            exit 1
        in
        print_pre_stage pre;
        let server = Server.create ~config:(server_config jobs) session in
        serve_loop server (fun st ->
            print_session_stats st.Server.session
              (Serve.Session.compiled session)
              spec))
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to bind on 127.0.0.1 (default 0: let the kernel \
                pick an ephemeral port; it is printed on startup).")
  in
  Cmd.v
    (Cmd.info "serve-tcp"
       ~doc:
         "Serve the kernel over newline-delimited TCP until stdin closes")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg $ port_arg
      $ shards_arg $ store_rows_arg $ topk_arg $ server_config_args
      $ profile_arg $ profile_json_arg $ jobs_arg $ no_precompile_arg)

(* ---- asm: print the flat runtime ISA -------------------------------------- *)

let asm_cmd =
  let run kernel workload arch size opt queries dims classes seed =
    handle_errors (fun () ->
        let spec0 = or_die (spec_of ~arch ~size ~opt) in
        let src, spec =
          match kernel with
          | Some path -> (read_file path, spec0)
          | None -> (
              let entry = find_workload workload in
              let shape = shape_of entry ~queries ~dims ~classes ~seed in
              let spec = entry.Reg.fix_spec shape spec0 in
              match entry.Reg.exec with
              | Reg.Kernel mk -> ((mk shape spec).Reg.ki_source, spec)
              | Reg.Range _ | Reg.Direct _ ->
                  prerr_endline
                    ("c4cam: workload " ^ entry.Reg.name
                   ^ " has no flat-ISA lowering (compiled kernels only)");
                  exit 1)
        in
        let c = C4cam.Driver.compile ~spec src in
        print_string (Vm.Isa.to_string (C4cam.Driver.to_vm c)))
  in
  Cmd.v
    (Cmd.info "asm"
       ~doc:"Compile and print the flat runtime-ISA listing (llvm stage)")
    Term.(
      const run $ kernel_arg $ workload_arg $ arch_arg $ size_arg $ opt_arg
      $ queries_arg $ dims_arg $ classes_arg $ seed_arg)

(* ---- tune ------------------------------------------------------------------ *)

let tune_cmd =
  let run queries dims classes objective jobs no_precompile =
    handle_errors (fun () ->
        with_jobs jobs @@ fun _jobs ->
        let data =
          Workloads.Hdc.synthetic ~seed:11
            ~dims:(Option.value dims ~default:1024)
            ~n_classes:(Option.value classes ~default:10)
            ~n_queries:(Option.value queries ~default:16)
            ~bits:1 ()
        in
        let config = config_of ~no_precompile () in
        let candidates = C4cam.Autotune.evaluate_hdc ~config ~data () in
        let obj =
          match objective with
          | "latency" -> C4cam.Autotune.Min_latency
          | "energy" -> C4cam.Autotune.Min_energy
          | "power" -> C4cam.Autotune.Min_power
          | "edp" -> C4cam.Autotune.Min_edp
          | "area" -> C4cam.Autotune.Min_area
          | o ->
              prerr_endline ("c4cam: unknown objective " ^ o);
              exit 1
        in
        let c = C4cam.Autotune.best obj candidates in
        Printf.printf "best for %s: %s\n"
          (C4cam.Autotune.objective_to_string obj)
          c.measurement.config;
        Printf.printf
          "latency %s | energy %s | power %s | area %.4f mm2\n\
           spec:\n%s"
          (C4cam.Report.si_time c.measurement.latency)
          (C4cam.Report.si_energy c.measurement.energy)
          (C4cam.Report.si_power c.measurement.power)
          c.area_mm2
          (Archspec.Spec.to_string c.spec))
  in
  let objective_arg =
    Arg.(
      value & opt string "edp"
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:"latency | energy | power | edp | area.")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Search the architecture grid for the best configuration")
    Term.(
      const run $ queries_arg $ dims_arg $ classes_arg $ objective_arg
      $ jobs_arg $ no_precompile_arg)

(* ---- sweep --------------------------------------------------------------- *)

let sweep_cmd =
  let run workload queries dims classes seed jobs no_precompile =
    handle_errors (fun () ->
        with_jobs jobs @@ fun _jobs ->
        let entry = find_workload workload in
        let shape = shape_of entry ~queries ~dims ~classes ~seed in
        let config = config_of ~no_precompile () in
        let specs =
          List.concat_map
            (fun side ->
              List.map
                (Archspec.Spec.square side)
                Archspec.Spec.[ Base; Power; Density; Power_density ])
            [ 16; 32; 64; 128; 256 ]
        in
        let measurements =
          C4cam.Dse.registry_sweep ~config ~specs ~shape entry
        in
        let rows =
          List.map
            (fun (m : C4cam.Dse.measurement) ->
              [
                m.config;
                C4cam.Report.si_time m.latency;
                C4cam.Report.si_energy m.energy;
                C4cam.Report.si_power m.power;
                string_of_int m.subarrays;
                string_of_int m.banks;
                Printf.sprintf "%.0f%%" (m.accuracy *. 100.);
              ])
            measurements
        in
        print_string
          (C4cam.Report.table
             ~headers:
               [ "config"; "latency"; "energy"; "power"; "subarrays";
                 "banks"; "accuracy" ]
             rows))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Design-space exploration of a registry workload over sizes and \
          optimizations")
    Term.(
      const run $ workload_arg $ queries_arg $ dims_arg $ classes_arg
      $ seed_arg $ jobs_arg $ no_precompile_arg)

(* ---- workloads: list the registry ----------------------------------------- *)

let workloads_cmd =
  let run () =
    List.iter
      (fun (e : Reg.entry) ->
        let s = e.Reg.default_shape in
        Printf.printf "%-13s %s\n%-13s   default: %d queries x %d dims vs \
                       %d rows, k=%d, seed %d\n"
          e.Reg.name e.Reg.summary "" s.Reg.queries s.Reg.dims s.Reg.rows
          s.Reg.k s.Reg.seed)
      Reg.all
  in
  Cmd.v
    (Cmd.info "workloads"
       ~doc:"List the registered workloads and their default shapes")
    Term.(const run $ const ())

(* ---- passes --------------------------------------------------------------- *)

let passes_cmd =
  let run () =
    List.iter print_endline Passes.Pipelines.names
  in
  Cmd.v (Cmd.info "passes" ~doc:"List the available passes") Term.(const run $ const ())

let () =
  let doc = "C4CAM: a compiler for CAM-based in-memory accelerators" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "c4cam" ~doc)
          [
            compile_cmd; run_cmd; place_cmd; serve_cmd; serve_tcp_cmd;
            asm_cmd; sweep_cmd; tune_cmd; workloads_cmd;
            passes_cmd;
          ]))
