(* Smoke tests of the pieces behind the CLI that are not covered
   elsewhere: kernel templates, traced compilation, and one run of the
   binary itself. *)

let test_kernel_templates_compile () =
  List.iter
    (fun (name, src, spec) ->
      match C4cam.Driver.compile ~spec src with
      | _ -> ()
      | exception C4cam.Driver.Compile_error e ->
          Alcotest.failf "%s: %s" name e)
    [
      ( "hdc",
        C4cam.Kernels.hdc_dot ~q:2 ~dims:64 ~classes:4 ~k:1,
        Tutil.spec32 );
      ("hdc paper", C4cam.Kernels.hdc_dot_paper, Tutil.spec32);
      ( "knn",
        C4cam.Kernels.knn_euclidean ~q:2 ~dims:32 ~n:16 ~k:2,
        { Tutil.spec32 with cam_kind = Archspec.Spec.Mcam } );
      ( "cosine",
        C4cam.Kernels.cosine_scores ~q:2 ~dims:32 ~n:8,
        Tutil.spec32 );
    ]

let test_compile_traced_entries () =
  let _, entries =
    C4cam.Driver.compile_traced ~spec:Tutil.spec32
      (C4cam.Kernels.hdc_dot ~q:2 ~dims:64 ~classes:4 ~k:1)
  in
  let names = List.map fst entries in
  Alcotest.(check bool) "starts at the frontend" true
    (List.hd names = "frontend");
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [ "torch-to-cim"; "cim-fuse-ops"; "cim-partition"; "cam-map" ];
  (* every snapshot parses back *)
  List.iter
    (fun (name, text) ->
      match Ir.Parser.parse_module text with
      | _ -> ()
      | exception Ir.Parser.Parse_error e ->
          Alcotest.failf "%s snapshot does not parse: %s" name e)
    entries

let test_traced_equals_untraced () =
  (* Value ids are globally fresh, so compare structure, not text. *)
  let src = C4cam.Kernels.hdc_dot ~q:3 ~dims:64 ~classes:4 ~k:1 in
  let a = C4cam.Driver.compile ~spec:Tutil.spec32 src in
  let b, _ = C4cam.Driver.compile_traced ~spec:Tutil.spec32 src in
  let shape (m : Ir.Func_ir.modul) =
    let names = ref [] in
    Ir.Walk.iter_module (fun op -> names := op.Ir.Op.op_name :: !names) m;
    List.rev !names
  in
  Alcotest.(check (list string)) "same cam op structure" (shape a.cam_ir)
    (shape b.cam_ir)

let test_stage_texts_complete () =
  let c =
    C4cam.Driver.compile ~spec:Tutil.spec32
      (C4cam.Kernels.hdc_dot ~q:2 ~dims:64 ~classes:4 ~k:1)
  in
  Alcotest.(check (list string)) "three stages"
    [ "torch"; "cim"; "cam" ]
    (List.map fst (C4cam.Driver.stage_texts c))

(* [c4cam serve --clients] queues every batch on a paused server before
   starting it. 17 batches of 16 rows exceed the default 256-row queue
   cap, which once hung the command forever; it must now serve every
   request and exit. The binary runs as a child process under a
   watchdog, so a regression fails here instead of hanging the suite. *)
let test_serve_overfull_queue () =
  let exe = Filename.concat (Filename.concat ".." "bin") "c4cam_cli.exe" in
  let out = Filename.temp_file "c4cam_serve" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--workload"; "hdc"; "--batches"; "17"; "--clients";
         "8" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "c4cam serve --batches 17 --clients 8 did not exit"
    | _, status -> status
  in
  let status = wait () in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let requests =
    List.length
      (List.filter
         (fun l -> String.length l > 8 && String.sub l 0 8 = "request ")
         (String.split_on_char '\n' text))
  in
  Alcotest.(check int) "every request served" 17 requests

let () =
  Alcotest.run "cli"
    [
      ( "driver surface",
        [
          Alcotest.test_case "kernel templates" `Quick
            test_kernel_templates_compile;
          Alcotest.test_case "traced entries" `Quick
            test_compile_traced_entries;
          Alcotest.test_case "traced = untraced" `Quick
            test_traced_equals_untraced;
          Alcotest.test_case "stage texts" `Quick test_stage_texts_complete;
        ] );
      ( "binary",
        [
          Alcotest.test_case "serve past the queue cap exits" `Quick
            test_serve_overfull_queue;
        ] );
    ]
