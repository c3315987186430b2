(* The tree-walking reference engine, and the public entry point that
   dispatches between it and the closure-compiled engine (Compile).

   This walker re-interprets the region tree on every execution — op
   names string-match, attributes decode, operands resolve through a
   hashtable, per iteration. It stays as the executable specification
   the compiled engine is differentially tested against
   (test/test_compile.ml); production paths run compiled unless
   [--no-precompile] asks otherwise. *)

type outcome = Ops.outcome = {
  results : Rtval.t list;
  latency : float;
  ops_executed : (string * int) list;
}

exception Runtime_error = Ops.Runtime_error

let fail = Ops.fail

type state = {
  env : (int, Rtval.t) Hashtbl.t;
  sim : Camsim.Simulator.t option;
  xsim : Xbar.t option;
  qcache : Ops.Qcache.t;
  counts : int array; (* per-dialect executed-op counters *)
  counts_mu : Mutex.t; (* guards merges of per-chunk counters *)
}

let sim st =
  match st.sim with
  | Some s -> s
  | None -> fail "cam ops need a simulator (pass ~sim to Machine.run)"

let xsim st =
  match st.xsim with
  | Some s -> s
  | None -> fail "crossbar ops need a crossbar (pass ~xsim to Machine.run)"

let lookup st (v : Ir.Value.t) =
  match Hashtbl.find_opt st.env v.id with
  | Some r -> r
  | None -> fail "use of unbound value %s" (Ir.Value.name v)

let bind st (v : Ir.Value.t) r = Hashtbl.replace st.env v.id r

let operand st op i = lookup st (Ir.Op.operand op i)

let attr_i op key = Ir.Attr.as_int (Ir.Op.attr_exn op key)
let attr_b op key = Ir.Attr.as_bool (Ir.Op.attr_exn op key)

(* ---------- scf.parallel independence analysis ------------------------ *)

(* A region body qualifies for the data-parallel path only when (a) it
   contains nothing but pure host ops — arith, memref, nested scf — so
   no iteration touches simulator state or charges latency/energy, and
   (b) every memref.store provably lands either in an iteration-local
   alloc or in a window of an outer buffer that is disjoint across
   iterations (affine-injective in the induction variable). Anything
   else — in particular every real cam/crossbar kernel — falls back to
   the sequential loop, preserving allocation and accumulation order
   exactly. The analysis is semi-dynamic: loop-invariant free values
   are resolved through the runtime environment, so subview offsets
   computed from bound indices still analyze as affine. The compiled
   engine ports this check to compile time (Compile.analyze_independence)
   with the dynamic residue evaluated against its slot environment. *)

let region_independent st ~step (r : Ir.Op.region) =
  match r.blocks with
  | [ blk ] when List.length blk.block_args = 1 ->
      let ind = (List.hd blk.block_args).Ir.Value.id in
      let ops = Ops.collect_ops [] r in
      List.for_all (fun (o : Ir.Op.t) -> Ops.allowed_op o.op_name) ops
      &&
      let definer : (int, Ir.Op.t) Hashtbl.t = Hashtbl.create 64 in
      let inside : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      Hashtbl.replace inside ind ();
      List.iter
        (fun (o : Ir.Op.t) ->
          List.iter
            (fun (res : Ir.Value.t) ->
              Hashtbl.replace definer res.id o;
              Hashtbl.replace inside res.id ())
            o.results;
          List.iter
            (fun (rg : Ir.Op.region) ->
              List.iter
                (fun (b : Ir.Op.block) ->
                  List.iter
                    (fun (a : Ir.Value.t) -> Hashtbl.replace inside a.id ())
                    b.block_args)
                rg.blocks)
            o.regions)
        ops;
      let is_inside id = Hashtbl.mem inside id in
      (* A loop-invariant value with a known Index binding can act as a
         constant coefficient. *)
      let known (v : Ir.Value.t) =
        if is_inside v.id then
          match Hashtbl.find_opt definer v.id with
          | Some d when String.equal d.op_name "arith.constant" -> (
              match Ir.Op.attr d "value" with
              | Some (Ir.Attr.Int i) -> Some i
              | _ -> None)
          | _ -> None
        else
          match Hashtbl.find_opt st.env v.id with
          | Some (Rtval.Index n) -> Some n
          | _ -> None
      in
      (* Multiplier of the induction variable: [Some m] means the value
         is provably [m * i + c] with c constant across iterations;
         [None] means unknown (treated as unsafe). *)
      let rec mult (v : Ir.Value.t) =
        if v.id = ind then Some 1
        else if not (is_inside v.id) then Some 0
        else
          match Hashtbl.find_opt definer v.id with
          | None -> None (* a nested block argument *)
          | Some d -> (
              let m i = mult (Ir.Op.operand d i) in
              match d.op_name with
              | "arith.constant" -> Some 0
              | "arith.addi" -> (
                  match (m 0, m 1) with
                  | Some a, Some b -> Some (a + b)
                  | _ -> None)
              | "arith.subi" -> (
                  match (m 0, m 1) with
                  | Some a, Some b -> Some (a - b)
                  | _ -> None)
              | "arith.muli" -> (
                  match (m 0, m 1) with
                  | Some 0, Some 0 -> Some 0
                  | ma, mb -> (
                      match
                        ( known (Ir.Op.operand d 0), mb,
                          known (Ir.Op.operand d 1), ma )
                      with
                      | Some c, Some mb', _, _ -> Some (c * mb')
                      | _, _, Some c, Some ma' -> Some (ma' * c)
                      | _ -> None))
              | "arith.divi" | "arith.remi" -> (
                  match (m 0, m 1) with Some 0, Some 0 -> Some 0 | _ -> None)
              | _ -> None)
      in
      let other_ops_reference ?(except = []) id =
        List.exists
          (fun (o : Ir.Op.t) ->
            (not (List.memq o except))
            && List.exists (fun (v : Ir.Value.t) -> v.id = id) o.operands)
          ops
      in
      let store_safe (s : Ir.Op.t) =
        let base = Ir.Op.operand s 1 in
        match Hashtbl.find_opt definer base.id with
        | Some d when String.equal d.op_name "memref.alloc" ->
            (* iteration-local scratch: each iteration re-allocs its own *)
            true
        | Some d when String.equal d.op_name "memref.subview" -> (
            let outer = Ir.Op.operand d 0 in
            (not (is_inside outer.id))
            && (not (other_ops_reference ~except:[ d ] outer.id))
            &&
            let offsets = List.tl d.operands in
            match Ir.Op.attr d "sizes" with
            | Some sizes_attr -> (
                let sizes = Ir.Attr.as_ints sizes_attr in
                (* disjoint if, in some dimension, consecutive windows
                   advance by at least the window extent *)
                try
                  List.exists2
                    (fun off size ->
                      match mult off with
                      | Some m -> m <> 0 && abs m * step >= size
                      | None -> false)
                    offsets sizes
                with Invalid_argument _ -> false)
            | None -> false)
        | Some _ -> false
        | None ->
            (* direct store to an outer buffer: sound only when this is
               the sole op touching it and the written cell is an
               injective function of the iteration *)
            (not (is_inside base.id))
            && (not (other_ops_reference ~except:[ s ] base.id))
            && List.exists
                 (fun idx ->
                   match mult idx with Some m -> m <> 0 | None -> false)
                 (List.tl (List.tl s.operands))
      in
      List.for_all
        (fun (o : Ir.Op.t) ->
          (not (String.equal o.op_name "memref.store")) || store_safe o)
        ops
  | _ -> false

(* ---------------------------------------------------------------------- *)

let rec exec_ops st (ops : Ir.Op.t list) :
    [ `Return of Rtval.t list | `Yield of Rtval.t list | `Fall ] * float =
  match ops with
  | [] -> (`Fall, 0.)
  | op :: rest -> (
      match exec_op st op with
      | `Terminated r, lat -> (r, lat)
      | `Next, lat ->
          let r, lat' = exec_ops st rest in
          (r, lat +. lat'))

and run_region st (r : Ir.Op.region) args_vals :
    [ `Return of Rtval.t list | `Yield of Rtval.t list | `Fall ] * float =
  match r.blocks with
  | [ blk ] ->
      List.iter2 (fun v rv -> bind st v rv) blk.block_args args_vals;
      exec_ops st blk.body
  | _ -> fail "only single-block regions are executable"

and exec_op st (op : Ir.Op.t) :
    [ `Next
    | `Terminated of
      [ `Return of Rtval.t list | `Yield of Rtval.t list | `Fall ] ]
    * float =
  let di = Ops.dialect_index op.op_name in
  st.counts.(di) <- st.counts.(di) + 1;
  let bind1 r = bind st (Ir.Op.result op) r in
  let t i = Rtval.as_tensor (operand st op i) in
  match op.op_name with
  (* ---- terminators ---- *)
  | "func.return" ->
      (`Terminated (`Return (List.map (lookup st) op.operands)), 0.)
  | "cim.yield" | "scf.yield" ->
      (`Terminated (`Yield (List.map (lookup st) op.operands)), 0.)
  (* ---- torch / cim compute twins ---- *)
  | "torch.transpose" | "cim.transpose" ->
      (match Ir.Attr.as_ints (Ir.Op.attr_exn op "dims") with
      | [ d0; d1 ] -> bind1 (Rtval.Tensor (Ops.transpose_t (t 0) d0 d1))
      | _ -> fail "transpose: bad dims");
      (`Next, 0.)
  | "torch.matmul" | "torch.mm" | "cim.matmul" | "cim.mm" ->
      bind1 (Rtval.Tensor (Ops.matmul_t (t 0) (t 1)));
      (`Next, 0.)
  | "torch.sub" | "cim.sub" ->
      bind1 (Rtval.Tensor (Ops.ew2 "sub" ( -. ) (t 0) (t 1)));
      (`Next, 0.)
  | "torch.div" | "cim.div" ->
      (match op.operands with
      | [ _; _ ] -> bind1 (Rtval.Tensor (Ops.ew2 "div" ( /. ) (t 0) (t 1)))
      | [ _; _; _ ] -> bind1 (Rtval.Tensor (Ops.div3_t (t 0) (t 1) (t 2)))
      | _ -> fail "div: 2 or 3 operands expected");
      (`Next, 0.)
  | "torch.norm" | "cim.norm" ->
      bind1
        (Rtval.Tensor
           (Ops.norm_t (t 0) ~p:(attr_i op "p") ~dim:(attr_i op "dim")
              ~keepdim:
                (match Ir.Op.attr op "keepdim" with
                | Some a -> Ir.Attr.as_bool a
                | None -> false)));
      (`Next, 0.)
  | "torch.topk" | "cim.topk" ->
      let values, indices =
        Ops.topk_t (t 0) ~k:(attr_i op "k") ~dim:(attr_i op "dim")
          ~largest:(attr_b op "largest")
      in
      bind st (Ir.Op.result_n op 0) (Rtval.Tensor values);
      bind st (Ir.Op.result_n op 1) (Rtval.Tensor indices);
      (`Next, 0.)
  (* ---- cim programming model ---- *)
  | "cim.acquire" ->
      bind1 Rtval.Unit;
      (`Next, 0.)
  | "cim.release" -> (`Next, 0.)
  | "cim.execute" -> (
      match op.regions with
      | [ r ] -> (
          match run_region st r [] with
          | `Yield vs, lat ->
              List.iter2 (fun v rv -> bind st v rv) op.results vs;
              (`Next, lat)
          | (`Return _ | `Fall), _ -> fail "execute region must yield")
      | _ -> fail "execute needs one region")
  | "cim.zeros" ->
      bind1 (Rtval.zeros_tensor (Ir.Types.shape (Ir.Op.result op).ty));
      (`Next, 0.)
  | "cim.reshape" ->
      let x = t 0 in
      bind1
        (Rtval.Tensor
           { x with t_shape = Ir.Types.shape (Ir.Op.result op).ty });
      (`Next, 0.)
  | "cim.slice" ->
      let offsets = Ir.Attr.as_ints (Ir.Op.attr_exn op "offsets") in
      let sizes = Ir.Attr.as_ints (Ir.Op.attr_exn op "sizes") in
      bind1 (Rtval.Tensor (Ops.slice_t (t 0) ~offsets ~sizes));
      (`Next, 0.)
  | "cim.similarity" | "cim.similarity_scores" ->
      let metric = Dialects.Cim.metric_of_attr (Ir.Op.attr_exn op "metric") in
      let scores =
        Ops.scores_of metric (Rtval.tensor_rows (t 0)) (Rtval.tensor_rows (t 1))
      in
      if String.equal op.op_name "cim.similarity_scores" then
        bind1 (Rtval.tensor_of_rows scores)
      else begin
        let values, indices =
          Ops.topk_rows scores ~k:(attr_i op "k") ~largest:(attr_b op "largest")
        in
        bind st (Ir.Op.result_n op 0) (Rtval.tensor_of_rows values);
        bind st (Ir.Op.result_n op 1) (Rtval.tensor_of_rows indices)
      end;
      (`Next, 0.)
  | "cim.similarity_partial" ->
      let metric = Dialects.Cim.metric_of_attr (Ir.Op.attr_exn op "metric") in
      bind1
        (Rtval.tensor_of_rows
           (Ops.scores_of metric (Rtval.tensor_rows (t 0))
              (Rtval.tensor_rows (t 1))));
      (`Next, 0.)
  | "cim.merge_partial" -> (
      match Ir.Attr.as_sym (Ir.Op.attr_exn op "direction") with
      | "horizontal" ->
          bind1 (Rtval.Tensor (Ops.merge_horizontal (t 0) (t 1)));
          (`Next, 0.)
      | "vertical" ->
          bind1
            (Rtval.Tensor
               (Ops.merge_vertical (t 0) (t 1) ~offset:(attr_i op "offset")));
          (`Next, 0.)
      | d -> fail "merge_partial: unknown direction %s" d)
  | "cim.select_best" ->
      (* accepts tensors (cim level) and buffers (the host-loops path) *)
      let scores = Rtval.to_rows (operand st op 0) in
      let values, indices =
        Ops.topk_rows scores ~k:(attr_i op "k") ~largest:(attr_b op "largest")
      in
      bind st (Ir.Op.result_n op 0) (Rtval.tensor_of_rows values);
      bind st (Ir.Op.result_n op 1) (Rtval.tensor_of_rows indices);
      (`Next, 0.)
  | "cim.partitioned_similarity" -> (
      match op.regions with
      | [ r ] -> (
          match run_region st r [] with
          | `Yield vs, lat ->
              List.iter2 (fun v rv -> bind st v rv) op.results vs;
              (`Next, lat)
          | (`Return _ | `Fall), _ ->
              fail "partitioned_similarity region must yield")
      | _ -> fail "partitioned_similarity needs its region")
  (* ---- arith ---- *)
  | "arith.constant" ->
      (match (Ir.Op.attr_exn op "value", (Ir.Op.result op).ty) with
      | Ir.Attr.Int i, Ir.Types.Index -> bind1 (Rtval.Index i)
      | Ir.Attr.Int i, _ -> bind1 (Rtval.Scalar (float_of_int i))
      | Ir.Attr.Float f, _ -> bind1 (Rtval.Scalar f)
      | _ -> fail "constant: unsupported value");
      (`Next, 0.)
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divi" | "arith.remi"
    ->
      let a = Rtval.as_index (operand st op 0) in
      let b = Rtval.as_index (operand st op 1) in
      let v =
        match op.op_name with
        | "arith.addi" -> a + b
        | "arith.subi" -> a - b
        | "arith.muli" -> a * b
        | "arith.divi" ->
            if b = 0 then fail "divi: division by zero" else a / b
        | _ -> if b = 0 then fail "remi: division by zero" else a mod b
      in
      bind1 (Rtval.Index v);
      (`Next, 0.)
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" ->
      let a = Ops.scalar_of op.op_name (operand st op 0) in
      let b = Ops.scalar_of op.op_name (operand st op 1) in
      let v =
        match op.op_name with
        | "arith.addf" -> a +. b
        | "arith.subf" -> a -. b
        | "arith.mulf" -> a *. b
        | _ -> a /. b
      in
      bind1 (Rtval.Scalar v);
      (`Next, 0.)
  | "arith.cmpf" ->
      let scalar i =
        match operand st op i with
        | Rtval.Scalar f -> f
        | _ -> fail "cmpf: expected a scalar"
      in
      let a = scalar 0 and b = scalar 1 in
      let r =
        match Dialects.Arith.pred_of_attr (Ir.Op.attr_exn op "pred") with
        | Dialects.Arith.Lt -> a < b
        | Le -> a <= b
        | Eq -> a = b
        | Ne -> a <> b
        | Gt -> a > b
        | Ge -> a >= b
      in
      bind1 (Rtval.Boolean r);
      (`Next, 0.)
  | "arith.select" ->
      bind1
        (if Rtval.as_bool (operand st op 0) then operand st op 1
         else operand st op 2);
      (`Next, 0.)
  | "arith.cmpi" ->
      let a = Rtval.as_index (operand st op 0) in
      let b = Rtval.as_index (operand st op 1) in
      let r =
        match Dialects.Arith.pred_of_attr (Ir.Op.attr_exn op "pred") with
        | Dialects.Arith.Lt -> a < b
        | Le -> a <= b
        | Eq -> a = b
        | Ne -> a <> b
        | Gt -> a > b
        | Ge -> a >= b
      in
      bind1 (Rtval.Boolean r);
      (`Next, 0.)
  (* ---- scf ---- *)
  | "scf.for" | "scf.parallel" ->
      let lb = Rtval.as_index (operand st op 0) in
      let ub = Rtval.as_index (operand st op 1) in
      let step = Rtval.as_index (operand st op 2) in
      if step <= 0 then fail "loop: non-positive step";
      let parallel = String.equal op.op_name "scf.parallel" in
      let r = match op.regions with [ r ] -> r | _ -> fail "loop region" in
      let n = if ub <= lb then 0 else (ub - lb + step - 1) / step in
      if
        parallel && n > 1
        && Parallel.current_jobs () > 1
        && region_independent st ~step r
      then begin
        (* Data-parallel path: iterations are proven independent, so
           each chunk runs against a private snapshot of the environment
           (copied once per chunk, not once per iteration — iterations
           of an independent body rebind everything they read before
           use, so a chunk-shared copy is indistinguishable from a
           per-iteration copy) and reports its latency by index; the
           fold below merges them in iteration order. Per-chunk counters
           merge under the parent's mutex — sums commute, so the totals
           are schedule-independent. *)
        Ops.Qcache.clear st.qcache;
        let lats = Array.make n 0. in
        Parallel.parallel_for_chunks ~lo:0 ~hi:n (fun ~lo ~hi ->
            let child =
              {
                st with
                env = Hashtbl.copy st.env;
                qcache = Ops.Qcache.create ();
                counts = Ops.fresh_counts ();
              }
            in
            for idx = lo to hi - 1 do
              let res, lat =
                run_region child r [ Rtval.Index (lb + (idx * step)) ]
              in
              (match res with
              | `Fall | `Yield [] -> ()
              | `Yield _ -> fail "loops do not yield values"
              | `Return _ -> fail "cannot return from inside a loop");
              lats.(idx) <- lat
            done;
            Mutex.lock st.counts_mu;
            Ops.merge_counts ~into:st.counts child.counts;
            Mutex.unlock st.counts_mu);
        (`Next, Array.fold_left Float.max 0. lats)
      end
      else begin
        let total = ref 0. in
        let i = ref lb in
        while !i < ub do
          let res, lat = run_region st r [ Rtval.Index !i ] in
          (match res with
          | `Fall | `Yield [] -> ()
          | `Yield _ -> fail "loops do not yield values"
          | `Return _ -> fail "cannot return from inside a loop");
          if parallel then total := Float.max !total lat
          else total := !total +. lat;
          i := !i + step
        done;
        (`Next, !total)
      end
  | "scf.if" -> (
      let cond = Rtval.as_bool (operand st op 0) in
      match op.regions with
      | [ then_r ] ->
          if cond then (
            let res, lat = run_region st then_r [] in
            (match res with
            | `Fall | `Yield [] -> ()
            | _ -> fail "if region must not produce values");
            (`Next, lat))
          else (`Next, 0.)
      | [ then_r; else_r ] ->
          let res, lat = run_region st (if cond then then_r else else_r) [] in
          (match res with
          | `Fall | `Yield [] -> ()
          | _ -> fail "if region must not produce values");
          (`Next, lat)
      | _ -> fail "if needs one or two regions")
  (* ---- memref ---- *)
  | "memref.alloc" ->
      bind1 (Rtval.Buffer (Rtval.fresh_buffer (Ir.Types.shape (Ir.Op.result op).ty)));
      (`Next, 0.)
  | "memref.load" ->
      let base = Rtval.as_buffer (operand st op 0) in
      let indices =
        List.map
          (fun (v : Ir.Value.t) -> Rtval.as_index (lookup st v))
          (List.tl op.operands)
      in
      bind1 (Rtval.Scalar (Rtval.buffer_get base indices));
      (`Next, 0.)
  | "memref.store" ->
      let value =
        match operand st op 0 with
        | Rtval.Scalar f -> f
        | Rtval.Index n -> float_of_int n
        | _ -> fail "store: expected a scalar value"
      in
      let base = Rtval.as_buffer (operand st op 1) in
      let indices =
        List.map
          (fun (v : Ir.Value.t) -> Rtval.as_index (lookup st v))
          (List.tl (List.tl op.operands))
      in
      Rtval.buffer_set base indices value;
      Ops.Qcache.invalidate st.qcache base.b_data;
      (`Next, 0.)
  | "memref.subview" ->
      let base = Rtval.as_buffer (operand st op 0) in
      let offsets =
        List.map
          (fun (v : Ir.Value.t) -> Rtval.as_index (lookup st v))
          (List.tl op.operands)
      in
      let sizes = Ir.Attr.as_ints (Ir.Op.attr_exn op "sizes") in
      bind1 (Rtval.Buffer (Rtval.buffer_view base ~offsets ~sizes));
      (`Next, 0.)
  (* ---- cam ---- *)
  | "cam.alloc_bank" ->
      bind1
        (Rtval.Handle
           (Camsim.Simulator.alloc_bank (sim st) ~rows:(attr_i op "rows")
              ~cols:(attr_i op "cols")));
      (`Next, 0.)
  | "cam.alloc_mat" ->
      bind1
        (Rtval.Handle
           (Camsim.Simulator.alloc_mat (sim st)
              (Rtval.as_handle (operand st op 0))));
      (`Next, 0.)
  | "cam.alloc_array" ->
      bind1
        (Rtval.Handle
           (Camsim.Simulator.alloc_array (sim st)
              (Rtval.as_handle (operand st op 0))));
      (`Next, 0.)
  | "cam.alloc_subarray" ->
      bind1
        (Rtval.Handle
           (Camsim.Simulator.alloc_subarray (sim st)
              (Rtval.as_handle (operand st op 0))));
      (`Next, 0.)
  | "cam.write_value" ->
      let handle = Rtval.as_handle (operand st op 0) in
      let row_offset = Rtval.as_index (operand st op 2) in
      let cost =
        Ops.cam_write st.qcache (sim st) handle ~row_offset (operand st op 1)
      in
      (`Next, cost.Camsim.Energy_model.latency)
  | "cam.write_range" ->
      let handle = Rtval.as_handle (operand st op 0) in
      let lo = Rtval.to_rows (operand st op 1) in
      let hi = Rtval.to_rows (operand st op 2) in
      let row_offset = Rtval.as_index (operand st op 3) in
      let cost =
        Camsim.Simulator.write_range (sim st) handle ~row_offset ~lo ~hi
      in
      (`Next, cost.Camsim.Energy_model.latency)
  | "cam.search" ->
      let handle = Rtval.as_handle (operand st op 0) in
      let qv = operand st op 1 in
      let row_offset = Rtval.as_index (operand st op 2) in
      let kind =
        match
          Dialects.Cam.search_kind_of_attr (Ir.Op.attr_exn op "kind")
        with
        | Dialects.Cam.Exact -> `Exact
        | Best -> `Best
        | Threshold -> `Threshold
        | Range -> `Range
      in
      let metric =
        match
          Dialects.Cam.search_metric_of_attr (Ir.Op.attr_exn op "metric")
        with
        | Dialects.Cam.Hamming -> `Hamming
        | Euclidean -> `Euclidean
      in
      let batch_extra =
        match Ir.Op.attr op "batch_extra" with
        | Some a -> Ir.Attr.as_bool a
        | None -> false
      in
      let threshold =
        match Ir.Op.attr op "threshold" with
        | Some a -> Ir.Attr.as_float a
        | None -> 0.
      in
      let cost =
        Ops.cam_search st.qcache (sim st) handle qv ~row_offset
          ~rows:(attr_i op "rows") ~kind ~metric ~batch_extra ~threshold ()
      in
      (`Next, cost.Camsim.Energy_model.latency)
  | "cam.read" ->
      let handle = Rtval.as_handle (operand st op 0) in
      bind1 (Rtval.Buffer (Rtval.buffer_of_rows (Camsim.Simulator.read (sim st) handle)));
      (`Next, 0.)
  | "cam.merge_partial" ->
      let dst = Rtval.as_buffer (operand st op 0) in
      let part = Rtval.as_buffer (operand st op 1) in
      Ops.buffer_accumulate "cam.merge_partial" dst part;
      Ops.Qcache.invalidate st.qcache dst.b_data;
      let cost =
        Camsim.Simulator.merge (sim st) ~elems:(Rtval.numel dst.b_shape)
      in
      (`Next, cost.Camsim.Energy_model.latency)
  | "cam.select_best" ->
      let dist = Rtval.to_rows (operand st op 0) in
      let (values, indices), cost =
        Camsim.Simulator.select_best (sim st) ~dist ~k:(attr_i op "k")
          ~largest:(attr_b op "largest")
      in
      bind st (Ir.Op.result_n op 0) (Rtval.Buffer (Rtval.buffer_of_rows values));
      bind st
        (Ir.Op.result_n op 1)
        (Rtval.Buffer
           (Rtval.buffer_of_rows
              (Array.map (Array.map float_of_int) indices)));
      (`Next, cost.Camsim.Energy_model.latency)
  (* ---- crossbar ---- *)
  | "crossbar.alloc_tile" ->
      bind1 (Rtval.Xtile (Xbar.alloc_tile (xsim st)));
      (`Next, 0.)
  | "crossbar.write" ->
      let tile = Rtval.as_xtile (operand st op 0) in
      let block = Rtval.to_rows (operand st op 1) in
      let cost = Xbar.write (xsim st) tile block in
      (`Next, cost.Xbar.latency)
  | "crossbar.gemv" ->
      let tile = Rtval.as_xtile (operand st op 0) in
      let inputs = Rtval.to_rows (operand st op 1) in
      let out, cost = Xbar.gemv (xsim st) tile inputs in
      bind1 (Rtval.Buffer (Rtval.buffer_of_rows out));
      (`Next, cost.Xbar.latency)
  | "crossbar.accumulate" ->
      let dst = Rtval.as_buffer (operand st op 0) in
      let part = Rtval.as_buffer (operand st op 1) in
      Ops.buffer_accumulate "crossbar.accumulate" dst part;
      Ops.Qcache.invalidate st.qcache dst.b_data;
      (`Next, 0.)
  | name -> fail "unsupported op %s" name

(* ---------- entry point ------------------------------------------------ *)

let run_tree ?sim ?xsim ?qcache (fn : Ir.Func_ir.func) args =
  let st =
    {
      env = Hashtbl.create 256;
      sim;
      xsim;
      qcache =
        (match qcache with Some q -> q | None -> Ops.Qcache.create ());
      counts = Ops.fresh_counts ();
      counts_mu = Mutex.create ();
    }
  in
  List.iter2 (fun v rv -> bind st v rv) fn.Ir.Func_ir.fn_args args;
  match exec_ops st fn.fn_body.body with
  | `Return results, latency ->
      { results; latency; ops_executed = Ops.counts_list st.counts }
  | (`Yield _ | `Fall), _ ->
      fail "@%s finished without returning" fn.Ir.Func_ir.fn_name

let run ?sim ?xsim ?qcache ?(precompile = true) (m : Ir.Func_ir.modul)
    fn_name args =
  let fn =
    match Ir.Func_ir.find_func m fn_name with
    | Some f -> f
    | None -> fail "no function @%s in the module" fn_name
  in
  if List.length fn.fn_args <> List.length args then
    fail "@%s expects %d arguments, got %d" fn_name
      (List.length fn.fn_args) (List.length args);
  if precompile then Compile.run_fn ?sim ?xsim ?qcache fn args
  else run_tree ?sim ?xsim ?qcache fn args
