(* The concurrent serving front-end: micro-batch demux against a
   sequential reference, round-robin fairness, backpressure in both
   modes, shutdown semantics, the TCP wire protocol, and a miniature
   of the CI concurrency-stress matrix (docs/SERVING.md). *)

module Session = Serve.Session
module Cache = Serve.Artifact_cache

let spec = Tutil.spec32

let config_for engine =
  C4cam.Driver.Run_config.(default |> with_engine engine)

let hdc_data ~q ~dims ~classes ?(seed = 23) () =
  Workloads.Hdc.synthetic ~seed ~noise:0.15 ~dims ~n_classes:classes
    ~n_queries:q ~bits:1 ()

(* Pad rows to a multiple of [q] the way the scheduler does (repeat the
   last row), query, slice the padding back off: the per-request
   reference every test compares server responses against. *)
let reference session ~q rows =
  let n = Array.length rows in
  let rem = n mod q in
  let padded =
    if rem = 0 then rows
    else Array.append rows (Array.make (q - rem) rows.(n - 1))
  in
  let r = Session.query session padded in
  (Array.sub r.C4cam.Driver.values 0 n, Array.sub r.C4cam.Driver.indices 0 n)

let check_response what (want_values, want_indices)
    (r : Server.response) =
  Alcotest.(check Tutil.rows_testable) (what ^ ": values") want_values
    r.Server.r_values;
  Alcotest.(check Tutil.int_rows_testable) (what ^ ": indices")
    want_indices r.Server.r_indices

(* ---- demux + padding vs the sequential reference ----------------------- *)

let test_demux () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:24 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let refs =
    Session.create ~config:(config_for `Compiled) ~spec ~stored:data.stored
      src
  in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          batch_rows = 8;
          queue_cap = 64;
          start_paused = true;
        }
      (Session.create ~config:(config_for `Compiled) ~spec
         ~stored:data.stored src)
  in
  let c1 = Server.connect server
  and c2 = Server.connect server
  and c3 = Server.connect server in
  (* request sizes straddle the arity: 1, 2, 5, 3, 4 rows *)
  let slice off len = Array.sub data.queries off len in
  let requests =
    [
      (c1, slice 0 1); (c1, slice 1 2); (c2, slice 3 5); (c3, slice 8 3);
      (c3, slice 11 4);
    ]
  in
  let tickets =
    List.map (fun (c, rows) -> (Server.submit c rows, rows)) requests
  in
  Server.resume server;
  List.iteri
    (fun i (tk, rows) ->
      check_response
        (Printf.sprintf "request %d" i)
        (reference refs ~q rows) (Server.await tk))
    tickets;
  Server.drain server;
  Server.stop server;
  let st = Server.stats server in
  Alcotest.(check int) "rows served" 15 st.Server.rows_served;
  Alcotest.(check int) "requests served" 5 st.Server.requests_served;
  (* paused enqueue makes the coalescing deterministic: round-robin
     packs [c1#1 c2#1 c1#2] (8 rows), then [c3#1 c3#2] (7 + 1 pad) *)
  Alcotest.(check int) "micro-batches" 2 st.Server.batches_coalesced;
  Alcotest.(check int) "padding rows" 1 st.Server.rows_padded;
  Alcotest.(check int) "queue high-water" 15 st.Server.queue_hwm;
  Tutil.check_float ~eps:1e-9 "fill ratio" 7.5 st.Server.batch_fill;
  Alcotest.(check bool) "p99 >= p50 >= 0" true
    (st.Server.lat_p99_s >= st.Server.lat_p50_s
    && st.Server.lat_p50_s >= 0.)

(* ---- round-robin fairness ---------------------------------------------- *)

let test_fairness () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:16 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:
        { Server.default_config with queue_cap = 64; start_paused = true }
      (Session.create ~config:(config_for `Compiled) ~spec
         ~stored:data.stored src)
  in
  let heavy = Server.connect server and light = Server.connect server in
  let row i = [| data.queries.(i mod 16) |] in
  let heavy_tickets =
    List.init 12 (fun i -> Server.submit heavy (row i))
  in
  let light_ticket = Server.submit light (row 0) in
  Server.resume server;
  (* the single-query client rides the first micro-batch despite twelve
     queued requests ahead of it *)
  Alcotest.(check int) "light client in batch 0" 0
    (Server.await light_ticket).Server.r_batch_seq;
  let seqs =
    List.map (fun tk -> (Server.await tk).Server.r_batch_seq) heavy_tickets
  in
  Alcotest.(check bool) "per-client completion in submission order" true
    (List.sort compare seqs = seqs);
  Server.stop server;
  let st = Server.stats server in
  (* 13 rows at batch_rows = 4*q = 16: everything fits in one batch *)
  Alcotest.(check int) "one micro-batch" 1 st.Server.batches_coalesced;
  Alcotest.(check int) "padded to the arity" 3 st.Server.rows_padded

(* ---- backpressure ------------------------------------------------------ *)

let test_backpressure_fail_fast () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          queue_cap = 4;
          backpressure = `Fail_fast;
          start_paused = true;
        }
      (Session.create ~config:(config_for `Compiled) ~spec
         ~stored:data.stored src)
  in
  let c = Server.connect server in
  let row i = [| data.queries.(i mod 8) |] in
  let tickets = List.init 4 (fun i -> Server.submit c (row i)) in
  (match Server.submit c (row 4) with
  | _ -> Alcotest.fail "expected Overloaded at the queue cap"
  | exception Server.Overloaded -> ());
  Server.resume server;
  List.iter (fun tk -> ignore (Server.await tk)) tickets;
  (* room again once the queue drained *)
  ignore (Server.rpc c (row 4));
  Server.stop server;
  Alcotest.(check int) "five requests served" 5
    (Server.stats server).Server.requests_served

let test_backpressure_block () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:
        { Server.default_config with queue_cap = 4; start_paused = true }
      (Session.create ~config:(config_for `Compiled) ~spec
         ~stored:data.stored src)
  in
  let c = Server.connect server in
  let row i = [| data.queries.(i mod 8) |] in
  (* the queue holds 4 rows; the 10-request submitter must block until
     the scheduler makes room, so resume from here *)
  let submitter =
    Domain.spawn (fun () ->
        let tickets = List.init 10 (fun i -> Server.submit c (row i)) in
        List.map Server.await tickets)
  in
  Unix.sleepf 0.05;
  Server.resume server;
  let responses = Domain.join submitter in
  Alcotest.(check int) "all ten served" 10 (List.length responses);
  Server.stop server;
  Alcotest.(check int) "none dropped" 10
    (Server.stats server).Server.requests_served

(* A caller that paused the server (here: created it under
   [start_paused]) and then fills the queue past its cap under [`Block]
   would wait for room that only its own [resume] can make. [submit]
   must raise [Paused_full] instead. The scenario runs on its own
   domain under a watchdog, so a regression fails the test instead of
   hanging the suite. *)
let test_paused_full () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let row i = [| data.queries.(i mod 8) |] in
  let server_cell = Atomic.make None and outcome = Atomic.make None in
  let worker =
    Domain.spawn (fun () ->
        let server =
          Server.create
            ~config:
              { Server.default_config with queue_cap = 4; start_paused = true }
            (Session.create ~config:(config_for `Compiled) ~spec
               ~stored:data.stored src)
        in
        Atomic.set server_cell (Some server);
        let c = Server.connect server in
        let tickets = List.init 4 (fun i -> Server.submit c (row i)) in
        Atomic.set outcome
          (Some
             (match Server.submit c (row 4) with
             | _ -> `Enqueued
             | exception Server.Paused_full -> `Raised));
        (* the refused request was not enqueued: resume and submit it
           again, blocking for room as usual *)
        Server.resume server;
        let last = Server.submit c (row 4) in
        List.iter (fun tk -> ignore (Server.await tk)) (tickets @ [ last ]);
        Server.stop server;
        (Server.stats server).Server.requests_served)
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  (match Atomic.get outcome with
  | Some `Raised -> ()
  | Some `Enqueued ->
      Alcotest.fail "submit past the cap of a paused server enqueued"
  | None ->
      (* free the blocked submitter so the domain can be joined *)
      Option.iter Server.resume (Atomic.get server_cell);
      Alcotest.fail "submit to its own paused, full server blocked");
  Alcotest.(check int) "five requests served" 5 (Domain.join worker)

(* ---- shutdown ---------------------------------------------------------- *)

let test_stop () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      ~config:{ Server.default_config with start_paused = true }
      (Session.create ~config:(config_for `Compiled) ~spec
         ~stored:data.stored src)
  in
  let c = Server.connect server in
  let tickets =
    List.init 3 (fun i -> Server.submit c [| data.queries.(i) |])
  in
  (* stop drains even a paused server: queued work is served, not lost *)
  Server.stop server;
  List.iter (fun tk -> ignore (Server.await tk)) tickets;
  (match Server.submit c [| data.queries.(0) |] with
  | _ -> Alcotest.fail "expected Stopped"
  | exception Server.Stopped -> ());
  (match Server.connect server with
  | _ -> Alcotest.fail "expected Stopped"
  | exception Server.Stopped -> ());
  Server.stop server (* idempotent *)

(* ---- malformed requests ------------------------------------------------ *)

let test_bad_requests () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      (Session.create ~config:(config_for `Compiled) ~spec
         ~stored:data.stored src)
  in
  let c = Server.connect server in
  let rejects what rows =
    match Server.submit c rows with
    | _ -> Alcotest.failf "%s: expected Server_error" what
    | exception Server.Server_error _ -> ()
  in
  rejects "empty request" [||];
  rejects "wrong width" [| Array.make (dims + 1) 0. |];
  ignore (Server.rpc c [| data.queries.(0) |]);
  Server.stop server

(* ---- the TCP front-end ------------------------------------------------- *)

let test_tcp () =
  let q = 4 and dims = 32 and classes = 8 in
  let data = hdc_data ~q:8 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  let server =
    Server.create
      (Session.create ~config:(config_for `Compiled) ~spec
         ~stored:data.stored src)
  in
  let listener = Tcp.listen ~port:0 server in
  let port = Tcp.port listener in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  let row_text row =
    String.concat " "
      (Array.to_list (Array.map (Printf.sprintf "%.17g") row))
  in
  (* a 2-row request round-trips to exactly the in-process response *)
  let rows = Array.sub data.queries 0 2 in
  let local = Server.connect server in
  let want = Tcp.format_response (Server.rpc local rows) in
  let got =
    send (row_text rows.(0) ^ " ; " ^ row_text rows.(1))
  in
  Alcotest.(check string) "wire response matches in-process" want got;
  (* the codec round-trips its own output *)
  Alcotest.(check Tutil.rows_testable) "parse . format = id" rows
    (Tcp.parse_request (row_text rows.(0) ^ ";" ^ row_text rows.(1)));
  (* malformed lines answer err and keep the connection alive *)
  let e = send "1 2 nope" in
  Alcotest.(check bool) "parse error reported"
    true
    (String.length e >= 4 && String.sub e 0 4 = "err ");
  let e = send "1 2 3" in
  Alcotest.(check bool) "width error reported" true
    (String.length e >= 4 && String.sub e 0 4 = "err ");
  let got2 = send (row_text rows.(0) ^ " ; " ^ row_text rows.(1)) in
  Alcotest.(check string) "still serving after errors" want got2;
  Unix.close sock;
  Tcp.shutdown listener;
  Tcp.shutdown listener (* idempotent *);
  Alcotest.(check int) "one connection accepted" 1
    (Tcp.connections_served listener);
  Server.stop server

(* ---- the stress matrix in miniature ------------------------------------ *)

(* Concurrent submitter domains against the sequential reference,
   across the jobs x engine matrix the CI stress job runs at scale:
   every client's results must be byte-identical to its own requests
   served one at a time through a private session. *)
let test_mini_stress () =
  let q = 4 and dims = 32 and classes = 8 in
  let n_clients = 3 and n_requests = 5 in
  let data = hdc_data ~q:32 ~dims ~classes () in
  let src = C4cam.Kernels.hdc_dot ~q ~dims ~classes ~k:1 in
  List.iter
    (fun jobs ->
      List.iter
        (fun engine ->
          let what =
            Printf.sprintf "jobs %d engine %s" jobs
              (match engine with
              | `Compiled -> "compiled"
              | `Treewalk -> "treewalk")
          in
          (* fixed per-client request streams (seeded sizes/offsets) *)
          let streams =
            Array.init n_clients (fun c ->
                let rng = Rng.create (7919 * (c + 1)) in
                Array.init n_requests (fun _ ->
                    let len = 1 + Rng.int rng 6 in
                    let off = Rng.int rng (32 - len) in
                    Array.sub data.queries off len))
          in
          let refs =
            Session.create ~config:(config_for engine) ~spec
              ~stored:data.stored src
          in
          let want =
            Array.map (Array.map (reference refs ~q)) streams
          in
          let server =
            Server.create
              ~config:
                { Server.default_config with jobs; queue_cap = 64 }
              (Session.create ~config:(config_for engine) ~spec
                 ~stored:data.stored src)
          in
          let clients =
            Array.init n_clients (fun _ -> Server.connect server)
          in
          let submitters =
            Array.mapi
              (fun c client ->
                Domain.spawn (fun () ->
                    let rng = Rng.create (104729 * (c + 1)) in
                    Array.map
                      (fun rows ->
                        if Rng.int rng 3 = 0 then
                          Unix.sleepf (float_of_int (Rng.int rng 3) /. 1000.);
                        Server.rpc client rows)
                      streams.(c)))
              clients
          in
          let got = Array.map Domain.join submitters in
          Server.stop server;
          Array.iteri
            (fun c responses ->
              Array.iteri
                (fun i r ->
                  check_response
                    (Printf.sprintf "%s client %d request %d" what c i)
                    want.(c).(i) r)
                responses)
            got)
        [ `Compiled; `Treewalk ])
    [ 1; 4 ]

let () =
  Alcotest.run "server"
    [
      ( "scheduler",
        [
          Alcotest.test_case "demux vs sequential reference" `Quick
            test_demux;
          Alcotest.test_case "round-robin fairness" `Quick test_fairness;
          Alcotest.test_case "fail-fast backpressure" `Quick
            test_backpressure_fail_fast;
          Alcotest.test_case "blocking backpressure" `Quick
            test_backpressure_block;
          Alcotest.test_case "paused and full raises" `Quick
            test_paused_full;
          Alcotest.test_case "stop drains and rejects" `Quick test_stop;
          Alcotest.test_case "malformed requests" `Quick test_bad_requests;
        ] );
      ("tcp", [ Alcotest.test_case "wire round-trip" `Quick test_tcp ]);
      ( "stress",
        [
          Alcotest.test_case "mini concurrency matrix" `Quick
            test_mini_stress;
        ] );
    ]
