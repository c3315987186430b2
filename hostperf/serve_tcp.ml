(* serve-tcp: the networked serving path. [Tcp.listen ~port:0] over
   [Server.create] on a [Serve.Session] for the registry hdc kernel
   (10 classes x 1024 dims, q = 16). One connection runs a closed loop
   — send one single-row request, wait for its reply, send the next. A
   run is a number of epochs, each a fresh server driven through a
   fixed number of requests. One op is one request round trip. *)

module Reg = Workloads.Registry

let spec = Archspec.Spec.square 32 Archspec.Spec.Base
let entry = Reg.find_exn "hdc"
(* One connection, so every batch is one request. With two, how many
   requests a batch coalesced swung with the host's scheduling (2761 to
   2868 batches per 5120 requests) and, through the per-batch stats work
   that grows with requests served, moved the p99 between 7 and 13 ms
   from one run of the same code to the next. *)
let connections = 1

(* Fixed work per run: one epoch of 5120 requests per 7.5 requested
   seconds (about the rate the parent of this benchmark sustains on one
   CPU of a 2-core machine). The per-server count never changes, so the
   latency growth with requests served (see README.md) shows at the
   same point in every epoch; a multiple of q lets the sim replay fill
   whole chunks. *)
let requests_per_server = 5120
let epochs_for ~seconds = max 1 (seconds * 2 / 15)

(* Set-ups per run: one per epoch, plus extra ones up to this count so
   the median set-up time rests on enough samples. *)
let min_setups = 25

let generator =
  match entry.Reg.exec with Reg.Kernel mk -> mk | _ -> assert false

let kernel_instance ~seed =
  generator { entry.Reg.default_shape with Reg.seed } spec

(* ---- seeded requests and the host oracle ------------------------------ *)

type request = { line : string; expected : int }

(* The class with the largest dot product, the lowest index on a tie. *)
let dot_top1 stored row =
  let dot s =
    let v = ref 0. in
    Array.iteri (fun j x -> v := !v +. (x *. row.(j))) s;
    !v
  in
  let dots = Array.map dot stored in
  let best = ref 0 in
  Array.iteri (fun c v -> if v > dots.(!best) then best := c) dots;
  !best

(* The next request row from [rng]: one class prototype with 15% of
   its cells re-drawn. A stream replays exactly from the same
   generator. *)
let next_row rng ~stored =
  let d = Array.length stored.(0) in
  let row = Array.copy stored.(Rng.int rng (Array.length stored)) in
  for _ = 1 to d * 15 / 100 do
    row.(Rng.int rng d) <- float (Rng.int rng 2)
  done;
  row

let line_of row =
  let b = Buffer.create (2 * Array.length row) in
  Array.iteri
    (fun j x ->
      if j > 0 then Buffer.add_char b ' ';
      Buffer.add_string b
        (if x = 0. then "0"
         else if x = 1. then "1"
         else Printf.sprintf "%.17g" x))
    row;
  Buffer.contents b

let requests rng ~stored n =
  Array.init n (fun _ ->
      let row = next_row rng ~stored in
      { line = line_of row; expected = dot_top1 stored row })

(* The top-1 index of an [ok] reply, [None] for anything else. *)
let reply_top1 line =
  match String.split_on_char ' ' line with
  | [ "ok"; hit ] -> (
      match String.index_opt hit ':' with
      | Some i -> int_of_string_opt (String.sub hit 0 i)
      | None -> None)
  | _ -> None

(* ---- one live server -------------------------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type inst = {
  session : Serve.Session.t;
  server : Server.t;
  listener : Tcp.listener;
  conns : conn array;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
  }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let round_trip c r =
  send c r.line;
  reply_top1 (input_line c.ic) = Some r.expected

let teardown inst =
  Array.iter (fun c -> Unix.close c.fd) inst.conns;
  Tcp.shutdown inst.listener;
  Server.stop inst.server

let plain_compile (ki : Reg.kernel_instance) =
  Serve.Artifact_cache.lookup ~spec ki.ki_source

(* Set-up: generate the classes, compile and pin them in a session, start
   the server and the listener, connect, and send one warm-up request
   per connection — the first programs the device. [compile] fetches
   the compiled kernel; the traced run passes one that times it.
   Returns the instance and the first round trip's seconds. *)
let setup ?(compile = plain_compile) ~seed ~warm () =
  let ki = kernel_instance ~seed in
  let session =
    Serve.Session.create ~artifact:(compile ki) ~spec ~stored:ki.ki_stored
      ki.ki_source
  in
  let server = Server.create session in
  let listener = Tcp.listen ~port:0 server in
  let conns =
    Array.init connections (fun _ -> connect (Tcp.port listener))
  in
  let ok, first_s = Common.time (fun () -> round_trip conns.(0) warm) in
  let rest = Array.sub conns 1 (connections - 1) in
  if not (ok && Array.for_all (fun c -> round_trip c warm) rest) then
    failwith "serve-tcp: a warm-up reply disagrees with the oracle";
  ({ session; server; listener; conns }, first_s)

(* ---- one epoch -------------------------------------------------------- *)

(* Requests per segment: after each segment the loop lets the replies
   in flight arrive, times the reference loop on the idle server and
   goes on. *)
let segment = 64

(* The connections in one closed loop: each sends its next request as
   soon as its reply has arrived, up to the end of the segment. Returns
   the phase (its sim figures still empty) and every reply line. *)
let phase inst reqs =
  let n = Array.length reqs in
  let lat = Array.make n 0. and replies = Array.make n "" in
  let segments = (n + segment - 1) / segment in
  let seg_wall = Array.make segments 0. in
  let failed = ref 0 and next = ref 0 and completed = ref 0 in
  let seg_end = ref (min n segment) in
  let inflight = Array.make connections (-1, 0.) in
  let issue i =
    if !next < !seg_end then begin
      inflight.(i) <- (!next, Common.now ());
      send inst.conns.(i) reqs.(!next).line;
      incr next
    end
    else inflight.(i) <- (-1, 0.)
  in
  let fds = Array.to_list (Array.map (fun c -> c.fd) inst.conns) in
  let sp = Common.speed () in
  Gc.compact ();
  Common.probe sp;
  let seg_t0 = ref (Common.now ()) in
  Array.iteri (fun i _ -> issue i) inst.conns;
  while !completed < n do
    let ready, _, _ = Unix.select fds [] [] (-1.) in
    Array.iteri
      (fun i c ->
        let r, sent = inflight.(i) in
        if r >= 0 && List.mem c.fd ready then begin
          let line = input_line c.ic in
          lat.(r) <- (Common.now () -. sent) *. 1e3;
          replies.(r) <- line;
          if reply_top1 line <> Some reqs.(r).expected then incr failed;
          incr completed;
          issue i
        end)
      inst.conns;
    if !completed = !seg_end then begin
      seg_wall.((!completed - 1) / segment) <- Common.now () -. !seg_t0;
      Common.probe sp;
      seg_end := min n (!seg_end + segment);
      seg_t0 := Common.now ();
      Array.iteri (fun i _ -> issue i) inst.conns
    end
  done;
  let marks = Array.init n (fun r -> r / segment) in
  ( {
      Common.ops = n;
      failed = !failed;
      wall_s = Common.sum seg_wall;
      latencies_ms = lat;
      ref_wall_s =
        Common.sum
          (Common.scaled sp ~marks:(Array.init segments Fun.id) seg_wall);
      ref_latencies_ms = Common.scaled sp ~marks lat;
      ref_loop_us = Common.loop_us sp;
      sample_what = "one request round trip each";
      sim_latency_s = 0.;
      sim_energy_j = 0.;
      sim_rows = 0;
    },
    replies )

(* The simulated cost of the run's query rows, served densely in q-row
   chunks through a private session on the same kernel. The server's
   coalescing depends on the schedule; this replay does not, so its
   figures are exact for a seed. *)
type replay = {
  r_session : Serve.Session.t;
  mutable r_latency : float;
  mutable r_energy : float;
  mutable r_rows : int;
}

let replay_create ~seed =
  let ki = kernel_instance ~seed in
  {
    r_session = Serve.Session.create ~spec ~stored:ki.ki_stored ki.ki_source;
    r_latency = 0.;
    r_energy = 0.;
    r_rows = 0;
  }

(* Replay [n] rows of a request stream, regenerated chunk by chunk
   from a copy of the generator the requests came from. *)
let replay_add rp rng ~stored n =
  let q = (Serve.Session.compiled rp.r_session).info.q in
  for _ = 1 to n / q do
    let r =
      Serve.Session.query rp.r_session
        (Array.init q (fun _ -> next_row rng ~stored))
    in
    rp.r_latency <- rp.r_latency +. r.latency;
    rp.r_energy <- rp.r_energy +. r.energy;
    rp.r_rows <- rp.r_rows + q
  done

(* ---- the epochs of a run ---------------------------------------------- *)

(* Run [epochs] fresh servers, each set up (timed), driven through its
   own fresh requests and torn down. [observe inst first_s reqs go]
   runs one epoch through [go] and may read the live server around it.
   Returns the merged phase with its sim figures, the median set-up
   time and what [observe] returned per epoch. *)
let run_epochs ?compile ~seed ~epochs ~observe () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stored = (kernel_instance ~seed).ki_stored in
  let rng = Rng.create (seed + 2) in
  let warm = (requests (Rng.split rng 0) ~stored 1).(0) in
  let setups = ref [] in
  let timed_setup () =
    Serve.Artifact_cache.clear ();
    Gc.compact ();
    let x, dt = Common.ref_time (setup ?compile ~seed ~warm) in
    setups := dt :: !setups;
    x
  in
  for _ = 1 to min_setups - epochs do
    teardown (fst (timed_setup ()))
  done;
  let rp = replay_create ~seed in
  let results =
    List.init epochs (fun e ->
        let reqs =
          requests (Rng.split rng (e + 1)) ~stored requests_per_server
        in
        let inst, first_s = timed_setup () in
        let (p, _), seen =
          observe inst first_s reqs (fun () -> phase inst reqs)
        in
        teardown inst;
        replay_add rp (Rng.split rng (e + 1)) ~stored requests_per_server;
        (p, seen))
  in
  let phases = List.map fst results in
  let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
  let merged =
    {
      Common.ops = sum (fun p -> p.Common.ops);
      failed = sum (fun p -> p.Common.failed);
      wall_s = List.fold_left (fun a p -> a +. p.Common.wall_s) 0. phases;
      latencies_ms =
        Array.concat (List.map (fun p -> p.Common.latencies_ms) phases);
      ref_wall_s =
        List.fold_left (fun a p -> a +. p.Common.ref_wall_s) 0. phases;
      ref_latencies_ms =
        Array.concat (List.map (fun p -> p.Common.ref_latencies_ms) phases);
      ref_loop_us =
        Common.median
          (Array.of_list (List.map (fun p -> p.Common.ref_loop_us) phases));
      sample_what =
        Printf.sprintf "one request round trip each, %d servers of %d"
          epochs requests_per_server;
      sim_latency_s = rp.r_latency;
      sim_energy_j = rp.r_energy;
      sim_rows = rp.r_rows;
    }
  in
  (merged, Common.median (Array.of_list !setups), List.map snd results)

(* ---- the traced phase ------------------------------------------------- *)

let decile_p50 lat d =
  let n = Array.length lat in
  Common.median (Array.sub lat (d * n / 10) (n / 10))

(* A response record rebuilt from an [ok] reply line, for the codec
   probe. *)
let response_of_line line =
  match String.split_on_char ' ' line with
  | [ "ok"; hit ] -> (
      match String.split_on_char ':' hit with
      | [ i; v ] ->
          Some
            {
              Server.r_values = [| [| float_of_string v |] |];
              r_indices = [| [| int_of_string i |] |];
              r_scores = None;
              r_batch_seq = 0;
              r_latency_s = 0.;
            }
      | _ -> None)
  | _ -> None

(* Codec probes on an epoch's own lines: mean seconds of
   [Tcp.parse_request] per request and of [Tcp.format_response] per
   reply, and the number of replies that do not format back to
   themselves. *)
let codec_probe reqs replies =
  let parse_s =
    Array.map
      (fun r -> snd (Common.time (fun () -> Tcp.parse_request r.line)))
      reqs
  in
  let bad = ref 0 in
  let format_s =
    Array.map
      (fun line ->
        match response_of_line line with
        | None ->
            incr bad;
            0.
        | Some resp ->
            let s, dt = Common.time (fun () -> Tcp.format_response resp) in
            if s <> line then incr bad;
            dt)
      replies
  in
  (Common.mean parse_s, Common.mean format_s, !bad)

(* Per-epoch layer figures, read from the live server and session around
   the epoch. *)
let observe_layers inst first_s reqs go =
  let dev () =
    let s = Camsim.Simulator.stats (Serve.Session.simulator inst.session) in
    Camsim.Stats.
      ( s.n_kernel_binary + s.n_kernel_nibble + s.n_kernel_generic,
        s.n_search_ops,
        s.n_write_ops )
  in
  let st0 = Server.stats inst.server in
  let disp0, search0, write0 = dev () in
  let (((p : Common.phase), replies) as result) = go () in
  let st1, stats_s = Common.time (fun () -> Server.stats inst.server) in
  let disp1, search1, write1 = dev () in
  let parse_s, format_s, bad = codec_probe reqs replies in
  let rows = float (st1.rows_served - st0.rows_served) in
  let padded = float (st1.rows_padded - st0.rows_padded) in
  let batches = float (st1.batches_coalesced - st0.batches_coalesced) in
  let sess f = f st1.session -. f st0.session in
  let ops (s : Serve.Session.stats) =
    float (List.fold_left (fun a (_, n) -> a + n) 0 s.ops_executed)
  in
  let layers =
    [
      ("interp.ops_per_query", sess ops /. rows);
      ("camsim.dispatches_per_query", float (disp1 - disp0) /. rows);
      ("camsim.search_ops", float (search1 - search0));
      ("camsim.write_ops", float (write1 - write0));
      ("serve.first_query_s", first_s);
      ( "serve.session_ms_per_batch",
        1e3
        *. sess (fun s -> s.wall_clock_s)
        /. sess (fun s -> float s.batches) );
      ("server.batches", batches);
      ("server.batch_fill", rows /. batches);
      ("server.rows_padded_ratio", padded /. (rows +. padded));
      ("server.lat_p50_ms", st1.lat_p50_s *. 1e3);
      ("server.stats_ms", stats_s *. 1e3);
      ( "server.latency_growth",
        decile_p50 p.latencies_ms 9 /. decile_p50 p.latencies_ms 0 );
      ("tcp.parse_us", parse_s *. 1e6);
      ("tcp.format_us", format_s *. 1e6);
      ( "tcp.wire_ms",
        Common.median p.latencies_ms -. (st1.lat_p50_s *. 1e3) );
    ]
  in
  (result, (layers, bad))

(* The mean over [samples] of each key's value, or the sum for the keys
   in [summed]. *)
let combine ?(summed = []) samples =
  let n = float (List.length samples) in
  List.map
    (fun (key, _) ->
      let total =
        List.fold_left (fun a ls -> a +. List.assoc key ls) 0. samples
      in
      (key, if List.mem key summed then total else total /. n))
    (List.hd samples)

(* The same epochs on fresh servers, with every set-up's compile timed
   and profiled and the layer figures of every epoch averaged (counts
   summed). *)
let traced ~seed ~epochs =
  let compiles = ref [] in
  let compile (ki : Reg.kernel_instance) =
    let collector = Instrument.Collect.create () in
    let artifact, dt =
      Common.time (fun () ->
          Serve.Artifact_cache.lookup ~profile:collector ~spec ki.ki_source)
    in
    compiles :=
      (("passes.compile_ms", dt *. 1e3)
      :: Common.compile_layers (Instrument.Collect.profile collector))
      :: !compiles;
    artifact
  in
  let ki, gen_s = Common.time (fun () -> kernel_instance ~seed) in
  let p, _, seen =
    run_epochs ~compile ~seed ~epochs ~observe:observe_layers ()
  in
  let bad = List.fold_left (fun a (_, b) -> a + b) 0 seen in
  let probe_queries =
    let rng = Rng.create seed in
    Array.init 256 (fun _ -> next_row rng ~stored:ki.ki_stored)
  in
  let layers =
    (("workloads.gen_ms", gen_s *. 1e3) :: combine !compiles)
    @ combine
        ~summed:[ "server.batches"; "camsim.search_ops"; "camsim.write_ops" ]
        (List.map fst seen)
    @ Common.subarray_probe ~rows:ki.ki_stored ~queries:probe_queries
  in
  ({ p with failed = p.failed + bad }, layers)

(* ---- the run ---------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let epochs = epochs_for ~seconds in
  (* GC figures of the timed epochs only *)
  let observe _ _ _ go =
    let g0 = Common.gc_mark () in
    let r = go () in
    (r, Common.gc_since g0)
  in
  let p, setup_s, gcs = run_epochs ~seed ~epochs ~observe () in
  let gc =
    List.fold_left (fun (w, m) (w', m') -> (w +. w', m + m')) (0., 0) gcs
  in
  Common.outcome ~setup_s ~gc p
    ?traced:(if trace then Some (fun () -> traced ~seed ~epochs) else None)
