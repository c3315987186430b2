(* The host-performance benchmark of the C4CAM stack.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (dse-sweep, sharded-hdc or serve-tcp) on inputs
   generated from the seed, at a fixed amount of work scaled by the
   seconds, single-domain ([Parallel.run ~jobs:1]). Prints notes and
   every metric by name and unit, then, as the last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With
   [--trace 0] the metrics are the end-to-end set, with [--trace 1]
   the per-layer set of a traced run: an untraced and a traced phase on
   the same inputs, each at half the work, so the run takes about as
   long as an untraced one. Exits 1 when an output check failed, 2 on a
   usage error. *)

let workloads =
  [
    ("dse-sweep", Dse_sweep.run);
    ("sharded-hdc", Sharded_hdc.run);
    ("serve-tcp", Serve_tcp.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (dse-sweep|sharded-hdc|serve-tcp) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let int_of s =
    match int_of_string_opt s with Some n -> n | None -> usage ()
  in
  let rec parse = function
    | "--workload" :: w :: tl ->
        workload := w;
        parse tl
    | "--seed" :: n :: tl ->
        seed := Some (int_of n);
        parse tl
    | "--seconds" :: n :: tl ->
        seconds := Some (int_of n);
        parse tl
    | "--trace" :: (("0" | "1") as t) :: tl ->
        trace := Some (t = "1");
        parse tl
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace when seconds >= 1 ->
      let work = if trace then max 1 ((seconds + 1) / 2) else seconds in
      let o =
        Parallel.run ~jobs:1 (fun _ -> run ~seed ~seconds:work ~trace)
      in
      Printf.printf "workload %s, seed %d, seconds %d, trace %b\n" !workload
        seed seconds trace;
      List.iter print_endline o.Common.notes;
      List.iter (fun m -> print_endline ("  " ^ Common.show m)) o.metrics;
      Common.emit ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
        o.metrics;
      if not o.correct then exit 1
  | _ -> usage ()
