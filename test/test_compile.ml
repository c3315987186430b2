(* Differential proof obligations for the closure-compiled interpreter
   engine (lib/interp/compile.ml): the compiled threaded-code path and
   the tree-walking reference must be byte-identical in everything but
   wall-clock time — results, simulated latency, energy, activity
   counters, and failure messages — across jobs values. Plus regression
   tests for the slot renaming and the query-row cache.
   See docs/INTERPRETER.md. *)

open Ir

let rec rtval_eq (a : Interp.Rtval.t) (b : Interp.Rtval.t) =
  match (a, b) with
  | Tensor t, Tensor u -> t.t_shape = u.t_shape && t.t_data = u.t_data
  | Buffer p, Buffer q ->
      Interp.Rtval.buffer_rows p = Interp.Rtval.buffer_rows q
  | Index i, Index j -> i = j
  | Scalar x, Scalar y -> Float.equal x y
  | Boolean x, Boolean y -> x = y
  | Unit, Unit -> true
  | Tensor _, _ | Buffer _, _ | Index _, _ | Scalar _, _ | Boolean _, _
  | Handle _, _ | Xtile _, _ | Unit, _ ->
      ignore rtval_eq;
      false

let check_outcome what (a : Interp.Machine.outcome)
    (b : Interp.Machine.outcome) =
  if a.latency <> b.latency then
    Alcotest.failf "%s: latency %.17g vs %.17g" what a.latency b.latency;
  Alcotest.(check (list (pair string int)))
    (what ^ ": ops_executed") a.ops_executed b.ops_executed;
  if List.length a.results <> List.length b.results then
    Alcotest.failf "%s: result arity differs" what;
  List.iteri
    (fun i (x, y) ->
      if not (rtval_eq x y) then
        Alcotest.failf "%s: result %d differs" what i)
    (List.combine a.results b.results)

(* ---- randomized loop-nest modules ------------------------------------ *)

(* A random scf nest over one shared memref: each level is scf.for or
   scf.parallel with a random trip count; the innermost body
   loads/updates/stores the cell indexed by its induction variable. The
   generator only emits ops both engines support, so the only degrees of
   freedom under test are dispatch, slot renaming, the independence
   analysis and the parallel schedule. *)
let random_nest_src rng =
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
  let fresh = ref 0 in
  let v () =
    let n = !fresh in
    incr fresh;
    n
  in
  let depth = 1 + Workloads.Prng.int rng 3 in
  let shape = List.init depth (fun _ -> 1 + Workloads.Prng.int rng 5) in
  let width = List.fold_left max 1 shape in
  let arg = v () in
  add (Printf.sprintf "func @bench(%%%d: memref<%dxf64>) {\n" arg width);
  let zero = v () in
  add
    (Printf.sprintf "  %%%d = \"arith.constant\"() {value = 0} : () -> index\n"
       zero);
  let one = v () in
  add
    (Printf.sprintf "  %%%d = \"arith.constant\"() {value = 1} : () -> index\n"
       one);
  let rec nest iv = function
    | [] ->
        let l = v () in
        add
          (Printf.sprintf
             "  %%%d = \"memref.load\"(%%%d, %%%d) : (memref<%dxf64>, index) \
              -> f64\n"
             l arg iv width);
        let s = v () in
        let binop =
          match Workloads.Prng.int rng 3 with
          | 0 -> "arith.addf"
          | 1 -> "arith.mulf"
          | _ -> "arith.subf"
        in
        add
          (Printf.sprintf "  %%%d = \"%s\"(%%%d, %%%d) : (f64, f64) -> f64\n"
             s binop l l);
        add
          (Printf.sprintf
             "  \"memref.store\"(%%%d, %%%d, %%%d) : (f64, memref<%dxf64>, \
              index) -> ()\n"
             s arg iv width)
    | iters :: inner ->
        let kind =
          if Workloads.Prng.int rng 2 = 0 then "scf.for" else "scf.parallel"
        in
        let ub = v () in
        add
          (Printf.sprintf
             "  %%%d = \"arith.constant\"() {value = %d} : () -> index\n" ub
             iters);
        add (Printf.sprintf "  \"%s\"(%%%d, %%%d, %%%d) ({\n" kind zero ub one);
        let level_iv = v () in
        add (Printf.sprintf "  ^(%%%d: index):\n" level_iv);
        nest level_iv inner;
        add "  }) : (index, index, index) -> ()\n"
  in
  nest zero shape;
  add
    (Printf.sprintf
       "  %%%d = \"memref.load\"(%%%d, %%%d) : (memref<%dxf64>, index) -> \
        f64\n"
       (v ()) arg zero width);
  add (Printf.sprintf "  \"func.return\"(%%%d) : (f64) -> ()\n" (!fresh - 1));
  add "}\n";
  (Parser.parse_module (Buffer.contents buf), width)

let run_nest m width ~precompile =
  (* a fresh deterministic rank-1 buffer per run: the nest mutates it *)
  let b = Interp.Rtval.fresh_buffer [ width ] in
  for i = 0 to width - 1 do
    Interp.Rtval.buffer_set b [ i ] (float_of_int (i + 1))
  done;
  let outcome =
    Interp.Machine.run ~precompile m "bench" [ Interp.Rtval.Buffer b ]
  in
  (outcome, [| Array.init width (fun i -> Interp.Rtval.buffer_get b [ i ]) |])

let test_random_nests () =
  for seed = 1 to 25 do
    let rng = Workloads.Prng.create (100 + seed) in
    let m, width = random_nest_src rng in
    let what jobs = Printf.sprintf "seed %d jobs %d" seed jobs in
    List.iter
      (fun jobs ->
        Parallel.run ~jobs @@ fun _pool ->
        let tree, tree_buf = run_nest m width ~precompile:false in
        let compiled, compiled_buf = run_nest m width ~precompile:true in
        check_outcome (what jobs) tree compiled;
        Alcotest.(check Tutil.rows_testable)
          (what jobs ^ ": buffer") tree_buf compiled_buf)
      [ 1; 4 ]
  done

(* ---- end-to-end kernels through the driver --------------------------- *)

let test_hdc_kernel () =
  let data =
    Workloads.Hdc.synthetic ~seed:11 ~noise:0.15 ~dims:256 ~n_classes:6
      ~n_queries:8 ~bits:1 ()
  in
  let c =
    C4cam.Driver.compile ~spec:Tutil.spec32
      (C4cam.Kernels.hdc_dot ~q:8 ~dims:256 ~classes:6 ~k:2)
  in
  let run ~precompile =
    let engine : C4cam.Driver.Run_config.engine =
      if precompile then `Compiled else `Treewalk
    in
    let config = C4cam.Driver.Run_config.(default |> with_engine engine) in
    C4cam.Driver.run_cam ~config c ~queries:data.queries
      ~stored:data.stored
  in
  let reference = Parallel.run ~jobs:1 (fun _ -> run ~precompile:true) in
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _pool ->
      List.iter
        (fun precompile ->
          let what = Printf.sprintf "jobs %d precompile %b" jobs precompile in
          let r = run ~precompile in
          Alcotest.(check Tutil.rows_testable)
            (what ^ ": values") reference.values r.values;
          Alcotest.(check Tutil.int_rows_testable)
            (what ^ ": indices") reference.indices r.indices;
          if r.latency <> reference.latency then
            Alcotest.failf "%s: latency drifted" what;
          if r.energy <> reference.energy then
            Alcotest.failf "%s: energy drifted" what;
          if r.stats <> reference.stats then
            Alcotest.failf "%s: simulator stats drifted" what;
          Alcotest.(check (list (pair string int)))
            (what ^ ": ops_executed") reference.ops_executed r.ops_executed)
        [ true; false ])
    [ 1; 4 ]

let test_knn_kernel () =
  let ds =
    Workloads.Dataset.pneumonia_like ~seed:17 ~n_features:64
      ~samples_per_class:40 ()
  in
  let queries = Array.sub ds.features 0 4 in
  let spec = { Tutil.spec32 with cam_kind = Archspec.Spec.Mcam } in
  let c =
    C4cam.Driver.compile ~spec
      (C4cam.Kernels.knn_euclidean ~q:4 ~dims:64 ~n:64 ~k:3)
  in
  let stored = Array.sub ds.features 0 64 in
  let run ~precompile =
    let engine : C4cam.Driver.Run_config.engine =
      if precompile then `Compiled else `Treewalk
    in
    let config = C4cam.Driver.Run_config.(default |> with_engine engine) in
    C4cam.Driver.run_cam ~config c ~queries ~stored
  in
  let a = run ~precompile:true and b = run ~precompile:false in
  Alcotest.(check Tutil.int_rows_testable) "indices" a.indices b.indices;
  Alcotest.(check Tutil.rows_testable) "values" a.values b.values;
  if a.latency <> b.latency || a.energy <> b.energy then
    Alcotest.fail "latency/energy drifted between engines";
  Alcotest.(check (list (pair string int)))
    "ops_executed" a.ops_executed b.ops_executed

(* ---- failure parity --------------------------------------------------- *)

let outcome_of m =
  match Interp.Machine.run ~precompile:false m "f" [] with
  | _ -> Error "no exception"
  | exception e -> Ok (Printexc.to_string e)

let compiled_outcome_of m =
  match Interp.Machine.run ~precompile:true m "f" [] with
  | _ -> Error "no exception"
  | exception e -> Ok (Printexc.to_string e)

let test_failure_parity () =
  let cases =
    [
      (* unsupported op: dispatch failure *)
      "func @f() {\n  %0 = \"torch.bogus\"() : () -> index\n}";
      (* decode failure: the compiler defers the missing-attribute
         exception to execution time, so both engines fail identically *)
      "func @f() {\n  %0 = \"arith.constant\"() : () -> index\n}";
      (* runtime type failure inside a region *)
      "func @f() {\n\
      \  %0 = \"arith.constant\"() {value = 0} : () -> index\n\
      \  %1 = \"arith.constant\"() {value = 2} : () -> index\n\
      \  \"scf.for\"(%0, %1, %0) ({\n\
       ^(%2: index):\n\
      \  %3 = \"arith.addi\"(%2, %2) : (index, index) -> index\n\
       }) : (index, index, index) -> ()\n\
       }";
    ]
  in
  List.iteri
    (fun i src ->
      let m = Parser.parse_module src in
      let tree = outcome_of m in
      let compiled = compiled_outcome_of m in
      Alcotest.(check (result string string))
        (Printf.sprintf "case %d" i) tree compiled)
    cases

let test_dead_malformed_op_silent () =
  (* a malformed op after the terminator is dead code: neither engine
     may decode (and so fail on) it *)
  let src =
    "func @f() {\n\
    \  \"func.return\"() : () -> ()\n\
    \  %0 = \"arith.constant\"() : () -> index\n\
     }"
  in
  let m = Parser.parse_module src in
  List.iter
    (fun precompile ->
      match Interp.Machine.run ~precompile m "f" [] with
      | { results = []; _ } -> ()
      | _ -> Alcotest.fail "expected an empty result list"
      | exception e ->
          Alcotest.failf "dead op raised (precompile %b): %s" precompile
            (Printexc.to_string e))
    [ true; false ]

(* ---- slot renaming regressions ---------------------------------------- *)

(* A block argument that shadows the function argument (same SSA id):
   Hashtbl.replace semantics mean the loop's last binding is what a use
   after the loop observes — the slot renaming must reproduce exactly
   that, mapping both values to one slot. *)
let test_shadowed_block_arg () =
  let arg = Value.fresh Types.Index in
  let shadow = Value.with_id arg.id Types.Index in
  let b = Builder.create () in
  let const n = Builder.op1 b ~attrs:[ ("value", Attr.Int n) ] "arith.constant" Types.Index in
  let lb = const 0 and ub = const 5 and step = const 1 in
  let body =
    [ Op.create "arith.addi" ~operands:[ shadow; shadow ] ~results:[ Value.fresh Types.Index ] ]
  in
  Builder.op0 b
    ~operands:[ lb; ub; step ]
    ~regions:[ Op.region ~args:[ shadow ] body ]
    "scf.for";
  Builder.op0 b ~operands:[ arg ] "func.return";
  let m =
    Func_ir.modul
      [ Func_ir.func "f" ~args:[ arg ] ~ret:[ Types.Index ] (Builder.finish b) ]
  in
  List.iter
    (fun precompile ->
      match Interp.Machine.run ~precompile m "f" [ Interp.Rtval.Index 99 ] with
      | { results = [ Interp.Rtval.Index 4 ]; _ } -> ()
      | { results = [ Interp.Rtval.Index n ]; _ } ->
          Alcotest.failf "precompile %b: saw %d, want the last binding 4"
            precompile n
      | _ -> Alcotest.fail "bad result shape")
    [ true; false ]

(* cim.execute yields out of a nested region; the yielded values bind to
   the op's results in both engines. *)
let test_nested_region_yield () =
  let src =
    "func @f() {\n\
    \  %0 = \"arith.constant\"() {value = 20} : () -> index\n\
    \  %1 = \"cim.execute\"() ({\n\
    \  %2 = \"arith.constant\"() {value = 3} : () -> index\n\
    \  %3 = \"arith.addi\"(%2, %2) : (index, index) -> index\n\
    \  \"cim.yield\"(%3) : (index) -> ()\n\
     }) : () -> index\n\
    \  %4 = \"arith.addi\"(%1, %0) : (index, index) -> index\n\
    \  \"func.return\"(%4) : (index) -> ()\n\
     }"
  in
  let m = Parser.parse_module src in
  let a = Interp.Machine.run ~precompile:true m "f" [] in
  let b = Interp.Machine.run ~precompile:false m "f" [] in
  check_outcome "nested yield" b a;
  match a.results with
  | [ Interp.Rtval.Index 26 ] -> ()
  | _ -> Alcotest.fail "expected 26"

(* ---- the query-row cache ---------------------------------------------- *)

let qrows n = Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows [| [| n |] |])

let test_qcache_ring () =
  let q = Interp.Ops.Qcache.create () in
  Alcotest.(check int) "empty" 0 (Interp.Ops.Qcache.length q);
  let vs = Array.init (Interp.Ops.Qcache.capacity + 4) (fun i -> qrows (float_of_int i)) in
  Array.iter (fun v -> ignore (Interp.Ops.Qcache.rows_cached q v)) vs;
  Alcotest.(check int) "bounded" Interp.Ops.Qcache.capacity
    (Interp.Ops.Qcache.length q);
  (* the first entries were evicted; the newest is at the front *)
  Alcotest.(check int) "oldest evicted" (-1)
    (Interp.Ops.Qcache.position q vs.(0));
  Alcotest.(check int) "newest at front" 0
    (Interp.Ops.Qcache.position q vs.(Array.length vs - 1))

let test_qcache_move_to_front () =
  let q = Interp.Ops.Qcache.create () in
  let vs = Array.init 6 (fun i -> qrows (float_of_int i)) in
  Array.iter (fun v -> ignore (Interp.Ops.Qcache.rows_cached q v)) vs;
  Alcotest.(check int) "starts at the back" 5
    (Interp.Ops.Qcache.position q vs.(0));
  (* a hit is physical: same rows array comes back, entry moves to 0 *)
  let r1 = Interp.Ops.Qcache.rows_cached q vs.(0) in
  let r2 = Interp.Ops.Qcache.rows_cached q vs.(0) in
  Alcotest.(check bool) "physically memoized" true (r1 == r2);
  Alcotest.(check int) "hit moved to front" 0
    (Interp.Ops.Qcache.position q vs.(0));
  Alcotest.(check int) "displaced by one" 1
    (Interp.Ops.Qcache.position q vs.(5))

let test_qcache_invalidate () =
  let q = Interp.Ops.Qcache.create () in
  let b = Interp.Rtval.buffer_of_rows [| [| 1.; 2. |] |] in
  let v = Interp.Rtval.Buffer b in
  ignore (Interp.Ops.Qcache.rows_cached q v);
  Alcotest.(check int) "cached" 0 (Interp.Ops.Qcache.position q v);
  Interp.Ops.Qcache.invalidate q b.Interp.Rtval.b_data;
  Alcotest.(check int) "dropped after write" (-1)
    (Interp.Ops.Qcache.position q v)

(* ---- read→merge fusion -------------------------------------------- *)

(* One subarray, one tile: write the stored rows, search, read, merge.
   [between] goes between the read and the merge; [tail] after the
   merge. *)
let tile_src ~between ~tail =
  Printf.sprintf
    {|func @f(%%0: memref<2x32xf32>, %%1: memref<32x32xf32>,
         %%2: memref<2x32xf32>) -> (memref<2x32xf32>) {
  %%3 = "memref.alloc"() : () -> memref<2x32xf32>
  %%4 = "arith.constant"() {value = 0} : () -> index
  %%5 = "cam.alloc_bank"() {rows = 32, cols = 32} : () -> !cam.bank_id
  %%6 = "cam.alloc_mat"(%%5) : (!cam.bank_id) -> !cam.mat_id
  %%7 = "cam.alloc_array"(%%6) : (!cam.mat_id) -> !cam.array_id
  %%8 = "cam.alloc_subarray"(%%7) : (!cam.array_id) -> !cam.subarray_id
  "cam.write_value"(%%8, %%1, %%4)
    : (!cam.subarray_id, memref<32x32xf32>, index) -> ()
  "cam.search"(%%8, %%0, %%4) {kind = #best, metric = #hamming, rows = 32}
    : (!cam.subarray_id, memref<2x32xf32>, index) -> ()
  %%9 = "cam.read"(%%8) {queries = 2, rows = 32} : (!cam.subarray_id) -> memref<2x32xf32>
%s  "cam.merge_partial"(%%3, %%9) {direction = #horizontal, kind = #add}
    : (memref<2x32xf32>, memref<2x32xf32>) -> ()
%s  "func.return"(%%3) : (memref<2x32xf32>) -> ()
}
|}
    between tail

let test_read_merge_fusion () =
  let rng = Rng.create 5 in
  let bits n =
    Array.init n (fun _ -> Array.init 32 (fun _ -> float (Rng.int rng 2)))
  in
  let queries = bits 2 and stored = bits 32 and other = bits 2 in
  let second_search =
    {|  "cam.search"(%8, %2, %4) {kind = #best, metric = #hamming, rows = 32}
    : (!cam.subarray_id, memref<2x32xf32>, index) -> ()
|}
  and second_merge =
    {|  "cam.merge_partial"(%3, %9) {direction = #horizontal, kind = #add}
    : (memref<2x32xf32>, memref<2x32xf32>) -> ()
|}
  in
  List.iter
    (fun (what, between, tail, fused) ->
      let m = Parser.parse_module (tile_src ~between ~tail) in
      Alcotest.(check int) (what ^ ": fused reads") fused
        (Interp.Compile.fused_reads (Func_ir.find_func_exn m "f"));
      let run ~precompile =
        let sim = Camsim.Simulator.create Tutil.spec32 in
        let args =
          List.map
            (fun rows -> Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows rows))
            [ queries; stored; other ]
        in
        let o = Interp.Machine.run ~sim ~precompile m "f" args in
        (o, Camsim.Simulator.stats sim)
      in
      let tree, tree_stats = run ~precompile:false in
      let comp, comp_stats = run ~precompile:true in
      check_outcome what tree comp;
      if tree_stats <> comp_stats then
        Alcotest.failf "%s: simulator stats differ" what)
    [
      ("one use", "", "", 1);
      ("two uses", "", second_merge, 0);
      (* a search between them relatches the subarray: the merge must
         see the rows the read copied, not the new latch *)
      ("search in between", second_search, "", 0);
    ]

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        [
          Alcotest.test_case "random scf nests, jobs 1 and 4" `Quick
            test_random_nests;
          Alcotest.test_case "hdc kernel end to end" `Quick test_hdc_kernel;
          Alcotest.test_case "knn kernel end to end" `Quick test_knn_kernel;
          Alcotest.test_case "failure parity" `Quick test_failure_parity;
          Alcotest.test_case "dead malformed op stays silent" `Quick
            test_dead_malformed_op_silent;
          Alcotest.test_case "read-merge fusion" `Quick
            test_read_merge_fusion;
        ] );
      ( "slots",
        [
          Alcotest.test_case "shadowed block arg shares its slot" `Quick
            test_shadowed_block_arg;
          Alcotest.test_case "nested-region yield" `Quick
            test_nested_region_yield;
        ] );
      ( "qcache",
        [
          Alcotest.test_case "bounded ring with eviction" `Quick
            test_qcache_ring;
          Alcotest.test_case "move-to-front on hit" `Quick
            test_qcache_move_to_front;
          Alcotest.test_case "invalidate by backing store" `Quick
            test_qcache_invalidate;
        ] );
    ]
