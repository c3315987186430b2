(* The closure-compiling interpreter engine.

   [Machine]'s tree-walker re-does per-op work on every execution: it
   string-matches the op name, walks attribute assoc lists, and resolves
   every operand through an (int, Rtval.t) hashtable — per iteration of
   every loop. This module does all of that exactly once per function:
   each op compiles to an OCaml closure (threaded code) over a [ctx]
   whose environment is a flat [Rtval.t array] indexed by dense slots,
   so executing an op is an indirect call plus a few array reads.

   Design rules that keep the two engines byte-identical:

   - Slots reproduce the tree-walker's [Hashtbl.replace] environment:
     every SSA id maps to exactly one slot for the whole function, so
     shadowed or duplicated ids overwrite the same cell in both engines.
     Slots start at a sentinel ([unbound]) and reads check it, so "use
     of unbound value" surfaces with the same message at the same point.
   - Failure timing is preserved: attribute decoding happens at compile
     time, but a decode error is captured and re-raised only when the op
     would have executed (dead malformed ops stay silent, as in the
     tree-walker).
   - The scf.parallel independence analysis runs at compile time;
     conditions that depend on runtime values (loop-invariant offsets,
     the step) compile to residual closures evaluated per execution, so
     the classification matches the tree-walker's semi-dynamic check.
   - Per-dialect execution counters are bumped once per executed op,
     terminators included, exactly like the tree-walker.

   Compilation memoizes per domain keyed on the first body op's uid (see
   Ir.Op.uid); the IR is treated as frozen once a function has run. *)

(* Physical sentinel marking a slot that has no binding yet. Never
   exposed; every read compares with (==) against it. *)
let unbound : Rtval.t = Rtval.Scalar Float.nan

type ctx = {
  slots : Rtval.t array;
  sim : Camsim.Simulator.t option;
  xsim : Xbar.t option;
  qcache : Ops.Qcache.t;
  counts : int array;
  counts_mu : Mutex.t; (* guards merges of per-chunk counters *)
}

type flow = Creturn of Rtval.t list | Cyield of Rtval.t list | Cfall

type cop = ctx -> float
(* executes the op: binds results into slots, returns simulated latency *)

type cterm =
  | Tfall
  | Tyield of (ctx -> Rtval.t) array * int (* getters, counter slot *)
  | Treturn of (ctx -> Rtval.t) array * int

type cblk = {
  arg_slots : int array;
  body : cop array; (* ops up to (not including) the first terminator *)
  dials : int array; (* counter slot per body op *)
  term : cterm;
}

type creg =
  | Cblk of cblk
  | Cbad of string (* executing this region fails (multi-block) *)

(* ---------- compile-time environment ---------------------------------- *)

type cenv = {
  tbl : (int, int) Hashtbl.t;
  mutable n_slots : int;
  uses : (int, int) Hashtbl.t; (* operand occurrences per value id *)
  defs : (int, int) Hashtbl.t; (* definitions per value id *)
  fused : (int, unit) Hashtbl.t; (* cam.read results merged in place *)
}

let slot cenv (v : Ir.Value.t) =
  match Hashtbl.find_opt cenv.tbl v.Ir.Value.id with
  | Some s -> s
  | None ->
      let s = cenv.n_slots in
      cenv.n_slots <- s + 1;
      Hashtbl.add cenv.tbl v.Ir.Value.id s;
      s

let def = slot

let use cenv (v : Ir.Value.t) : ctx -> Rtval.t =
  let s = slot cenv v in
  let nm = Ir.Value.name v in
  fun ctx ->
    let r = Array.unsafe_get ctx.slots s in
    if r == unbound then Ops.fail "use of unbound value %s" nm else r

let use_index cenv v =
  let g = use cenv v in
  fun ctx -> Rtval.as_index (g ctx)

let use_tensor cenv v =
  let g = use cenv v in
  fun ctx -> Rtval.as_tensor (g ctx)

let use_buffer cenv v =
  let g = use cenv v in
  fun ctx -> Rtval.as_buffer (g ctx)

let use_handle cenv v =
  let g = use cenv v in
  fun ctx -> Rtval.as_handle (g ctx)

let set ctx s r = Array.unsafe_set ctx.slots s r

let simx ctx =
  match ctx.sim with
  | Some s -> s
  | None -> Ops.fail "cam ops need a simulator (pass ~sim to Machine.run)"

let xsimx ctx =
  match ctx.xsim with
  | Some s -> s
  | None -> Ops.fail "crossbar ops need a crossbar (pass ~xsim to Machine.run)"

let attr_i op key = Ir.Attr.as_int (Ir.Op.attr_exn op key)
let attr_b op key = Ir.Attr.as_bool (Ir.Op.attr_exn op key)

(* ---------- runtime scaffolding ---------------------------------------- *)

(* Argument-count mismatches surface as the tree-walker's
   [List.iter2] error. *)
let bind_args ctx (slots : int array) (args : Rtval.t array) =
  let n = Array.length slots in
  if Array.length args <> n then invalid_arg "List.iter2";
  for i = 0 to n - 1 do
    set ctx slots.(i) args.(i)
  done

let bind_results ctx (slots : int array) (vs : Rtval.t list) =
  let n = Array.length slots in
  let rec go i = function
    | [] -> if i <> n then invalid_arg "List.iter2"
    | v :: tl ->
        if i >= n then invalid_arg "List.iter2"
        else begin
          set ctx slots.(i) v;
          go (i + 1) tl
        end
  in
  go 0 vs

(* left-to-right, like the tree-walker's List.map over operands *)
let eval_list (gs : (ctx -> Rtval.t) array) ctx =
  let n = Array.length gs in
  let rec go i = if i = n then [] else
    let v = gs.(i) ctx in
    v :: go (i + 1)
  in
  go 0

let run_cblk ctx (b : cblk) (args : Rtval.t array) : flow * float =
  bind_args ctx b.arg_slots args;
  let counts = ctx.counts in
  let lat = ref 0. in
  let body = b.body and dials = b.dials in
  for i = 0 to Array.length body - 1 do
    let d = Array.unsafe_get dials i in
    counts.(d) <- counts.(d) + 1;
    lat := !lat +. (Array.unsafe_get body i) ctx
  done;
  match b.term with
  | Tfall -> (Cfall, !lat)
  | Tyield (gs, d) ->
      counts.(d) <- counts.(d) + 1;
      (Cyield (eval_list gs ctx), !lat)
  | Treturn (gs, d) ->
      counts.(d) <- counts.(d) + 1;
      (Creturn (eval_list gs ctx), !lat)

let run_creg ctx (rg : creg) args =
  match rg with Cbad msg -> Ops.fail "%s" msg | Cblk b -> run_cblk ctx b args

let check_loop_flow = function
  | Cfall | Cyield [] -> ()
  | Cyield _ -> Ops.fail "loops do not yield values"
  | Creturn _ -> Ops.fail "cannot return from inside a loop"

let check_if_flow = function
  | Cfall | Cyield [] -> ()
  | _ -> Ops.fail "if region must not produce values"

(* ---------- scf.parallel independence, compiled ------------------------ *)

(* Compile-time port of Machine.region_independent: structural
   disqualifications (disallowed ops, unsafe store shapes) resolve to
   [Never] here, once; conditions the tree-walker resolves through the
   runtime environment — loop-invariant coefficients, the step — become
   residual closures evaluated per loop execution, reading the same
   bindings through slots that the tree-walker reads through its
   hashtable. *)

type indep = Never | Maybe of (ctx -> step:int -> bool)

let analyze_independence cenv (r : Ir.Op.region) : indep =
  match r.Ir.Op.blocks with
  | [ blk ] when List.length blk.Ir.Op.block_args = 1 ->
      let ind = (List.hd blk.Ir.Op.block_args).Ir.Value.id in
      let ops = Ops.collect_ops [] r in
      if not (List.for_all (fun (o : Ir.Op.t) -> Ops.allowed_op o.op_name) ops)
      then Never
      else begin
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
        (* A loop-invariant value with a known Index binding can act as
           a constant coefficient; outside values are read through their
           slot at loop-execution time. *)
        let known (v : Ir.Value.t) : ctx -> int option =
          if is_inside v.id then
            match Hashtbl.find_opt definer v.id with
            | Some d when String.equal d.op_name "arith.constant" -> (
                match Ir.Op.attr d "value" with
                | Some (Ir.Attr.Int i) -> fun _ -> Some i
                | _ -> fun _ -> None)
            | _ -> fun _ -> None
          else begin
            let s = slot cenv v in
            fun ctx ->
              match ctx.slots.(s) with
              | Rtval.Index n -> Some n
              | _ -> None
          end
        in
        (* Multiplier of the induction variable: [Some m] means the
           value is provably [m * i + c] with c constant across
           iterations; [None] means unknown (treated as unsafe). *)
        let memo : (int, ctx -> int option) Hashtbl.t = Hashtbl.create 16 in
        let rec mult (v : Ir.Value.t) : ctx -> int option =
          match Hashtbl.find_opt memo v.Ir.Value.id with
          | Some f -> f
          | None ->
              let f = mult_raw v in
              Hashtbl.replace memo v.Ir.Value.id f;
              f
        and mult_raw (v : Ir.Value.t) =
          if v.id = ind then fun _ -> Some 1
          else if not (is_inside v.id) then fun _ -> Some 0
          else
            match Hashtbl.find_opt definer v.id with
            | None -> fun _ -> None (* a nested block argument *)
            | Some d -> (
                match d.op_name with
                | "arith.constant" -> fun _ -> Some 0
                | "arith.addi" | "arith.subi" ->
                    let ma = mult (Ir.Op.operand d 0) in
                    let mb = mult (Ir.Op.operand d 1) in
                    let sub = String.equal d.op_name "arith.subi" in
                    fun ctx -> (
                      match (ma ctx, mb ctx) with
                      | Some a, Some b -> Some (if sub then a - b else a + b)
                      | _ -> None)
                | "arith.muli" ->
                    let ma = mult (Ir.Op.operand d 0) in
                    let mb = mult (Ir.Op.operand d 1) in
                    let ka = known (Ir.Op.operand d 0) in
                    let kb = known (Ir.Op.operand d 1) in
                    fun ctx -> (
                      match (ma ctx, mb ctx) with
                      | Some 0, Some 0 -> Some 0
                      | ma', mb' -> (
                          match (ka ctx, mb', kb ctx, ma') with
                          | Some c, Some mb'', _, _ -> Some (c * mb'')
                          | _, _, Some c, Some ma'' -> Some (ma'' * c)
                          | _ -> None))
                | "arith.divi" | "arith.remi" ->
                    let ma = mult (Ir.Op.operand d 0) in
                    let mb = mult (Ir.Op.operand d 1) in
                    fun ctx -> (
                      match (ma ctx, mb ctx) with
                      | Some 0, Some 0 -> Some 0
                      | _ -> None)
                | _ -> fun _ -> None)
        in
        let other_ops_reference ?(except = []) id =
          List.exists
            (fun (o : Ir.Op.t) ->
              (not (List.memq o except))
              && List.exists (fun (v : Ir.Value.t) -> v.id = id) o.operands)
            ops
        in
        (* [None] = statically unsafe; [Some f] = safe iff [f] holds at
           loop execution time. *)
        let store_check (s : Ir.Op.t) : (ctx -> step:int -> bool) option =
          let base = Ir.Op.operand s 1 in
          match Hashtbl.find_opt definer base.id with
          | Some d when String.equal d.op_name "memref.alloc" ->
              (* iteration-local scratch: each iteration re-allocs its own *)
              Some (fun _ ~step:_ -> true)
          | Some d when String.equal d.op_name "memref.subview" ->
              let outer = Ir.Op.operand d 0 in
              if
                is_inside outer.id
                || other_ops_reference ~except:[ d ] outer.id
              then None
              else (
                let offsets = List.tl d.operands in
                match Ir.Op.attr d "sizes" with
                | Some sizes_attr ->
                    let sizes = Ir.Attr.as_ints sizes_attr in
                    if List.length offsets <> List.length sizes then None
                    else
                      (* disjoint if, in some dimension, consecutive
                         windows advance by at least the window extent *)
                      let pairs =
                        List.map2
                          (fun off size -> (mult off, size))
                          offsets sizes
                      in
                      Some
                        (fun ctx ~step ->
                          List.exists
                            (fun (m, size) ->
                              match m ctx with
                              | Some m -> m <> 0 && abs m * step >= size
                              | None -> false)
                            pairs)
                | None -> None)
          | Some _ -> None
          | None ->
              (* direct store to an outer buffer: sound only when this
                 is the sole op touching it and the written cell is an
                 injective function of the iteration *)
              if is_inside base.id || other_ops_reference ~except:[ s ] base.id
              then None
              else
                let idxs = List.map mult (List.tl (List.tl s.operands)) in
                if idxs = [] then None
                else
                  Some
                    (fun ctx ~step:_ ->
                      List.exists
                        (fun m ->
                          match m ctx with Some m -> m <> 0 | None -> false)
                        idxs)
        in
        let stores =
          List.filter
            (fun (o : Ir.Op.t) -> String.equal o.op_name "memref.store")
            ops
        in
        let rec gather acc = function
          | [] -> Some (List.rev acc)
          | s :: tl -> (
              match store_check s with
              | None -> None
              | Some f -> gather (f :: acc) tl)
        in
        match gather [] stores with
        | None -> Never
        | Some checks ->
            Maybe
              (fun ctx ~step -> List.for_all (fun f -> f ctx ~step) checks)
      end
  | _ -> Never

(* ---------- read→merge fusion ------------------------------------------ *)

(* A tile of a partitioned search ends in [%p = cam.read %s] followed by
   [cam.merge_partial %dst, %p]. Copying the latched Q x rows matrix
   into a fresh buffer only to add it into [%dst] is pure host
   overhead, so the pair fuses when that copy cannot be observed: [%p]
   is defined once and used once, by the part operand of a
   cam.merge_partial later in the same block, and no op between them is
   — or contains — a cam op that could change the subarray's latched
   rows. Both ops still execute and are counted; only the copy goes.
   The decision is made here, at compile time, and the tree-walker
   (which never fuses) stays the oracle. *)

let rec iter_ops f (ops : Ir.Op.t list) =
  List.iter
    (fun (o : Ir.Op.t) ->
      f o;
      List.iter
        (fun (r : Ir.Op.region) ->
          List.iter (fun (b : Ir.Op.block) -> iter_ops f b.Ir.Op.body) r.blocks)
        o.regions)
    ops

let bump tbl id =
  Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))

(* Operand and definition counts of every value in a function body. *)
let count_values cenv (fn : Ir.Func_ir.func) =
  List.iter (fun (v : Ir.Value.t) -> bump cenv.defs v.id) fn.Ir.Func_ir.fn_args;
  iter_ops
    (fun o ->
      List.iter (fun (v : Ir.Value.t) -> bump cenv.uses v.id) o.operands;
      List.iter (fun (v : Ir.Value.t) -> bump cenv.defs v.id) o.results;
      List.iter
        (fun (r : Ir.Op.region) ->
          List.iter
            (fun (b : Ir.Op.block) ->
              List.iter
                (fun (v : Ir.Value.t) -> bump cenv.defs v.id)
                b.Ir.Op.block_args)
            r.blocks)
        o.regions)
    fn.Ir.Func_ir.fn_body.Ir.Op.body

let is_cam (o : Ir.Op.t) = Ops.has_prefix "cam." o.op_name

let mark_fused cenv (body : Ir.Op.t list) =
  let count tbl (v : Ir.Value.t) =
    Option.value ~default:0 (Hashtbl.find_opt tbl v.id)
  in
  (* does the merge come before any op that could disturb the latch? *)
  let rec reaches (p : Ir.Value.t) = function
    | [] -> false
    | (o : Ir.Op.t) :: rest -> (
        match o.op_name, o.operands with
        | "cam.merge_partial", [ dst; part ] ->
            part.Ir.Value.id = p.id && dst.Ir.Value.id <> p.id
        | _ ->
            (not (is_cam o))
            && (not (List.exists is_cam (List.fold_left Ops.collect_ops [] o.regions)))
            && reaches p rest)
  in
  let rec go = function
    | [] -> ()
    | (o : Ir.Op.t) :: rest ->
        (match o.op_name, o.results with
        | "cam.read", [ p ]
          when count cenv.uses p = 1 && count cenv.defs p = 1 && reaches p rest
          ->
            Hashtbl.replace cenv.fused p.id ()
        | _ -> ());
        go rest
  in
  go body

(* ---------- the op compiler -------------------------------------------- *)

let is_terminator = function
  | "func.return" | "scf.yield" | "cim.yield" -> true
  | _ -> false

let rec compile_op cenv (op : Ir.Op.t) : cop =
  try compile_op_inner cenv op
  with (Ops.Runtime_error _ | Invalid_argument _ | Failure _) as e ->
    (* decoding failed at compile time; the tree-walker raises the same
       error only when the op executes — defer it to execution time so
       dead malformed ops stay silent *)
    fun _ -> raise e

and compile_op_inner cenv (op : Ir.Op.t) : cop =
  let def1 () = def cenv (Ir.Op.result op) in
  let opnd i = Ir.Op.operand op i in
  match op.op_name with
  (* ---- torch / cim compute twins ---- *)
  | "torch.transpose" | "cim.transpose" ->
      let g = use_tensor cenv (opnd 0) in
      let d0, d1 =
        match Ir.Attr.as_ints (Ir.Op.attr_exn op "dims") with
        | [ d0; d1 ] -> (d0, d1)
        | _ -> Ops.fail "transpose: bad dims"
      in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.transpose_t (g ctx) d0 d1));
        0.
  | "torch.matmul" | "torch.mm" | "cim.matmul" | "cim.mm" ->
      let a = use_tensor cenv (opnd 0) in
      let b = use_tensor cenv (opnd 1) in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.matmul_t (a ctx) (b ctx)));
        0.
  | "torch.sub" | "cim.sub" ->
      let a = use_tensor cenv (opnd 0) in
      let b = use_tensor cenv (opnd 1) in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.ew2 "sub" ( -. ) (a ctx) (b ctx)));
        0.
  | "torch.div" | "cim.div" -> (
      match op.operands with
      | [ _; _ ] ->
          let a = use_tensor cenv (opnd 0) in
          let b = use_tensor cenv (opnd 1) in
          let s = def1 () in
          fun ctx ->
            set ctx s (Rtval.Tensor (Ops.ew2 "div" ( /. ) (a ctx) (b ctx)));
            0.
      | [ _; _; _ ] ->
          let x = use_tensor cenv (opnd 0) in
          let nq = use_tensor cenv (opnd 1) in
          let ns = use_tensor cenv (opnd 2) in
          let s = def1 () in
          fun ctx ->
            set ctx s (Rtval.Tensor (Ops.div3_t (x ctx) (nq ctx) (ns ctx)));
            0.
      | _ -> Ops.fail "div: 2 or 3 operands expected")
  | "torch.norm" | "cim.norm" ->
      let g = use_tensor cenv (opnd 0) in
      let p = attr_i op "p" and dim = attr_i op "dim" in
      let keepdim =
        match Ir.Op.attr op "keepdim" with
        | Some a -> Ir.Attr.as_bool a
        | None -> false
      in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.norm_t (g ctx) ~p ~dim ~keepdim));
        0.
  | "torch.topk" | "cim.topk" ->
      let g = use_tensor cenv (opnd 0) in
      let k = attr_i op "k" and dim = attr_i op "dim" in
      let largest = attr_b op "largest" in
      let s0 = def cenv (Ir.Op.result_n op 0) in
      let s1 = def cenv (Ir.Op.result_n op 1) in
      fun ctx ->
        let values, indices = Ops.topk_t (g ctx) ~k ~dim ~largest in
        set ctx s0 (Rtval.Tensor values);
        set ctx s1 (Rtval.Tensor indices);
        0.
  (* ---- cim programming model ---- *)
  | "cim.acquire" ->
      let s = def1 () in
      fun ctx ->
        set ctx s Rtval.Unit;
        0.
  | "cim.release" -> fun _ -> 0.
  | "cim.execute" | "cim.partitioned_similarity" -> (
      let yield_msg, region_msg =
        if String.equal op.op_name "cim.execute" then
          ("execute region must yield", "execute needs one region")
        else
          ( "partitioned_similarity region must yield",
            "partitioned_similarity needs its region" )
      in
      match op.regions with
      | [ r ] ->
          let rg = compile_region cenv r in
          let res_slots = Array.of_list (List.map (def cenv) op.results) in
          fun ctx -> (
            match run_creg ctx rg [||] with
            | Cyield vs, lat ->
                bind_results ctx res_slots vs;
                lat
            | (Creturn _ | Cfall), _ -> Ops.fail "%s" yield_msg)
      | _ -> fun _ -> Ops.fail "%s" region_msg)
  | "cim.zeros" ->
      let shape = Ir.Types.shape (Ir.Op.result op).Ir.Value.ty in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.zeros_tensor shape);
        0.
  | "cim.reshape" ->
      let g = use_tensor cenv (opnd 0) in
      let shape = Ir.Types.shape (Ir.Op.result op).Ir.Value.ty in
      let s = def1 () in
      fun ctx ->
        let x = g ctx in
        set ctx s (Rtval.Tensor { x with t_shape = shape });
        0.
  | "cim.slice" ->
      let g = use_tensor cenv (opnd 0) in
      let offsets = Ir.Attr.as_ints (Ir.Op.attr_exn op "offsets") in
      let sizes = Ir.Attr.as_ints (Ir.Op.attr_exn op "sizes") in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Tensor (Ops.slice_t (g ctx) ~offsets ~sizes));
        0.
  | "cim.similarity" ->
      let metric = Dialects.Cim.metric_of_attr (Ir.Op.attr_exn op "metric") in
      let a = use_tensor cenv (opnd 0) in
      let b = use_tensor cenv (opnd 1) in
      let k = attr_i op "k" and largest = attr_b op "largest" in
      let s0 = def cenv (Ir.Op.result_n op 0) in
      let s1 = def cenv (Ir.Op.result_n op 1) in
      fun ctx ->
        let scores =
          Ops.scores_of metric
            (Rtval.tensor_rows (a ctx))
            (Rtval.tensor_rows (b ctx))
        in
        let values, indices = Ops.topk_rows scores ~k ~largest in
        set ctx s0 (Rtval.tensor_of_rows values);
        set ctx s1 (Rtval.tensor_of_rows indices);
        0.
  | "cim.similarity_scores" | "cim.similarity_partial" ->
      let metric = Dialects.Cim.metric_of_attr (Ir.Op.attr_exn op "metric") in
      let a = use_tensor cenv (opnd 0) in
      let b = use_tensor cenv (opnd 1) in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.tensor_of_rows
             (Ops.scores_of metric
                (Rtval.tensor_rows (a ctx))
                (Rtval.tensor_rows (b ctx))));
        0.
  | "cim.merge_partial" -> (
      match Ir.Attr.as_sym (Ir.Op.attr_exn op "direction") with
      | "horizontal" ->
          let a = use_tensor cenv (opnd 0) in
          let b = use_tensor cenv (opnd 1) in
          let s = def1 () in
          fun ctx ->
            set ctx s (Rtval.Tensor (Ops.merge_horizontal (a ctx) (b ctx)));
            0.
      | "vertical" ->
          let g = use_tensor cenv (opnd 0) in
          let part = use_tensor cenv (opnd 1) in
          let offset = attr_i op "offset" in
          let s = def1 () in
          fun ctx ->
            set ctx s
              (Rtval.Tensor (Ops.merge_vertical (g ctx) (part ctx) ~offset));
            0.
      | d -> Ops.fail "merge_partial: unknown direction %s" d)
  | "cim.select_best" ->
      (* accepts tensors (cim level) and buffers (the host-loops path) *)
      let g = use cenv (opnd 0) in
      let k = attr_i op "k" and largest = attr_b op "largest" in
      let s0 = def cenv (Ir.Op.result_n op 0) in
      let s1 = def cenv (Ir.Op.result_n op 1) in
      fun ctx ->
        let scores = Rtval.to_rows (g ctx) in
        let values, indices = Ops.topk_rows scores ~k ~largest in
        set ctx s0 (Rtval.tensor_of_rows values);
        set ctx s1 (Rtval.tensor_of_rows indices);
        0.
  (* ---- arith ---- *)
  | "arith.constant" ->
      let v =
        match (Ir.Op.attr_exn op "value", (Ir.Op.result op).Ir.Value.ty) with
        | Ir.Attr.Int i, Ir.Types.Index -> Rtval.Index i
        | Ir.Attr.Int i, _ -> Rtval.Scalar (float_of_int i)
        | Ir.Attr.Float f, _ -> Rtval.Scalar f
        | _ -> Ops.fail "constant: unsupported value"
      in
      let s = def1 () in
      fun ctx ->
        set ctx s v;
        0.
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divi" | "arith.remi"
    -> (
      let a = use_index cenv (opnd 0) in
      let b = use_index cenv (opnd 1) in
      let s = def1 () in
      match op.op_name with
      | "arith.addi" ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            set ctx s (Rtval.Index (av + bv));
            0.
      | "arith.subi" ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            set ctx s (Rtval.Index (av - bv));
            0.
      | "arith.muli" ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            set ctx s (Rtval.Index (av * bv));
            0.
      | "arith.divi" ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            if bv = 0 then Ops.fail "divi: division by zero";
            set ctx s (Rtval.Index (av / bv));
            0.
      | _ ->
          fun ctx ->
            let av = a ctx in
            let bv = b ctx in
            if bv = 0 then Ops.fail "remi: division by zero";
            set ctx s (Rtval.Index (av mod bv));
            0.)
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" ->
      let what = op.op_name in
      let ga = use cenv (opnd 0) in
      let gb = use cenv (opnd 1) in
      let f : float -> float -> float =
        match op.op_name with
        | "arith.addf" -> ( +. )
        | "arith.subf" -> ( -. )
        | "arith.mulf" -> ( *. )
        | _ -> ( /. )
      in
      let s = def1 () in
      fun ctx ->
        let a = Ops.scalar_of what (ga ctx) in
        let b = Ops.scalar_of what (gb ctx) in
        set ctx s (Rtval.Scalar (f a b));
        0.
  | "arith.cmpf" ->
      let ga = use cenv (opnd 0) in
      let gb = use cenv (opnd 1) in
      let scal g ctx =
        match g ctx with
        | Rtval.Scalar f -> f
        | _ -> Ops.fail "cmpf: expected a scalar"
      in
      let cmp : float -> float -> bool =
        match Dialects.Arith.pred_of_attr (Ir.Op.attr_exn op "pred") with
        | Dialects.Arith.Lt -> ( < )
        | Le -> ( <= )
        | Eq -> ( = )
        | Ne -> ( <> )
        | Gt -> ( > )
        | Ge -> ( >= )
      in
      let s = def1 () in
      fun ctx ->
        let a = scal ga ctx in
        let b = scal gb ctx in
        set ctx s (Rtval.Boolean (cmp a b));
        0.
  | "arith.cmpi" ->
      let a = use_index cenv (opnd 0) in
      let b = use_index cenv (opnd 1) in
      let cmp : int -> int -> bool =
        match Dialects.Arith.pred_of_attr (Ir.Op.attr_exn op "pred") with
        | Dialects.Arith.Lt -> ( < )
        | Le -> ( <= )
        | Eq -> ( = )
        | Ne -> ( <> )
        | Gt -> ( > )
        | Ge -> ( >= )
      in
      let s = def1 () in
      fun ctx ->
        let av = a ctx in
        let bv = b ctx in
        set ctx s (Rtval.Boolean (cmp av bv));
        0.
  | "arith.select" ->
      let c = use cenv (opnd 0) in
      let a = use cenv (opnd 1) in
      let b = use cenv (opnd 2) in
      let s = def1 () in
      fun ctx ->
        set ctx s (if Rtval.as_bool (c ctx) then a ctx else b ctx);
        0.
  (* ---- scf ---- *)
  | "scf.for" | "scf.parallel" -> (
      let parallel = String.equal op.op_name "scf.parallel" in
      let lbg = use_index cenv (opnd 0) in
      let ubg = use_index cenv (opnd 1) in
      let stepg = use_index cenv (opnd 2) in
      match op.regions with
      | [ r ] ->
          let indep =
            if parallel then analyze_independence cenv r else Never
          in
          let rg = compile_region cenv r in
          fun ctx ->
            let lb = lbg ctx in
            let ub = ubg ctx in
            let step = stepg ctx in
            if step <= 0 then Ops.fail "loop: non-positive step";
            let n = if ub <= lb then 0 else (ub - lb + step - 1) / step in
            if
              parallel && n > 1
              && Parallel.current_jobs () > 1
              && (match indep with
                 | Never -> false
                 | Maybe f -> f ctx ~step)
            then begin
              (* Data-parallel path: iterations are proven independent,
                 so each chunk runs against a private snapshot of the
                 slots (copied once per chunk, not per iteration) and
                 reports latency by index; the fold below merges them
                 in iteration order. Per-chunk counters merge under the
                 parent's mutex — sums commute, so the totals are
                 schedule-independent. *)
              Ops.Qcache.clear ctx.qcache;
              let lats = Array.make n 0. in
              Parallel.parallel_for_chunks ~lo:0 ~hi:n (fun ~lo ~hi ->
                  let child =
                    {
                      ctx with
                      slots = Array.copy ctx.slots;
                      qcache = Ops.Qcache.create ();
                      counts = Ops.fresh_counts ();
                    }
                  in
                  for idx = lo to hi - 1 do
                    let fl, lat =
                      run_creg child rg [| Rtval.Index (lb + (idx * step)) |]
                    in
                    check_loop_flow fl;
                    lats.(idx) <- lat
                  done;
                  Mutex.lock ctx.counts_mu;
                  Ops.merge_counts ~into:ctx.counts child.counts;
                  Mutex.unlock ctx.counts_mu);
              Array.fold_left Float.max 0. lats
            end
            else begin
              let total = ref 0. in
              let i = ref lb in
              while !i < ub do
                let fl, lat = run_creg ctx rg [| Rtval.Index !i |] in
                check_loop_flow fl;
                if parallel then total := Float.max !total lat
                else total := !total +. lat;
                i := !i + step
              done;
              !total
            end
      | _ ->
          fun ctx ->
            let _ = lbg ctx in
            let _ = ubg ctx in
            let step = stepg ctx in
            if step <= 0 then Ops.fail "loop: non-positive step";
            Ops.fail "loop region")
  | "scf.if" -> (
      let c = use cenv (opnd 0) in
      match op.regions with
      | [ then_r ] ->
          let rt = compile_region cenv then_r in
          fun ctx ->
            if Rtval.as_bool (c ctx) then begin
              let fl, lat = run_creg ctx rt [||] in
              check_if_flow fl;
              lat
            end
            else 0.
      | [ then_r; else_r ] ->
          let rt = compile_region cenv then_r in
          let re = compile_region cenv else_r in
          fun ctx ->
            let fl, lat =
              run_creg ctx (if Rtval.as_bool (c ctx) then rt else re) [||]
            in
            check_if_flow fl;
            lat
      | _ ->
          fun ctx ->
            let _ = Rtval.as_bool (c ctx) in
            Ops.fail "if needs one or two regions")
  (* ---- memref ---- *)
  | "memref.alloc" ->
      let shape = Ir.Types.shape (Ir.Op.result op).Ir.Value.ty in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Buffer (Rtval.fresh_buffer shape));
        0.
  | "memref.load" ->
      let bg = use_buffer cenv (opnd 0) in
      let idxs = List.map (use_index cenv) (List.tl op.operands) in
      let s = def1 () in
      fun ctx ->
        let base = bg ctx in
        let indices = List.map (fun g -> g ctx) idxs in
        set ctx s (Rtval.Scalar (Rtval.buffer_get base indices));
        0.
  | "memref.store" ->
      let vg = use cenv (opnd 0) in
      let bg = use_buffer cenv (opnd 1) in
      let idxs = List.map (use_index cenv) (List.tl (List.tl op.operands)) in
      fun ctx ->
        let value =
          match vg ctx with
          | Rtval.Scalar f -> f
          | Rtval.Index n -> float_of_int n
          | _ -> Ops.fail "store: expected a scalar value"
        in
        let base = bg ctx in
        let indices = List.map (fun g -> g ctx) idxs in
        Rtval.buffer_set base indices value;
        Ops.Qcache.invalidate ctx.qcache base.Rtval.b_data;
        0.
  | "memref.subview" ->
      let bg = use_buffer cenv (opnd 0) in
      let offs = List.map (use_index cenv) (List.tl op.operands) in
      let sizes = Ir.Attr.as_ints (Ir.Op.attr_exn op "sizes") in
      let s = def1 () in
      fun ctx ->
        let base = bg ctx in
        let offsets = List.map (fun g -> g ctx) offs in
        set ctx s (Rtval.Buffer (Rtval.buffer_view base ~offsets ~sizes));
        0.
  (* ---- cam ---- *)
  | "cam.alloc_bank" ->
      let rows = attr_i op "rows" and cols = attr_i op "cols" in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.Handle (Camsim.Simulator.alloc_bank (simx ctx) ~rows ~cols));
        0.
  | "cam.alloc_mat" ->
      let g = use_handle cenv (opnd 0) in
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Handle (Camsim.Simulator.alloc_mat (simx ctx) (g ctx)));
        0.
  | "cam.alloc_array" ->
      let g = use_handle cenv (opnd 0) in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.Handle (Camsim.Simulator.alloc_array (simx ctx) (g ctx)));
        0.
  | "cam.alloc_subarray" ->
      let g = use_handle cenv (opnd 0) in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.Handle (Camsim.Simulator.alloc_subarray (simx ctx) (g ctx)));
        0.
  | "cam.write_value" ->
      let hg = use_handle cenv (opnd 0) in
      let dg = use cenv (opnd 1) in
      let og = use_index cenv (opnd 2) in
      fun ctx ->
        let handle = hg ctx in
        let row_offset = og ctx in
        let cost =
          Ops.cam_write ctx.qcache (simx ctx) handle ~row_offset (dg ctx)
        in
        cost.Camsim.Energy_model.latency
  | "cam.write_range" ->
      let hg = use_handle cenv (opnd 0) in
      let lg = use cenv (opnd 1) in
      let gg = use cenv (opnd 2) in
      let og = use_index cenv (opnd 3) in
      fun ctx ->
        let handle = hg ctx in
        let lo = Rtval.to_rows (lg ctx) in
        let hi = Rtval.to_rows (gg ctx) in
        let row_offset = og ctx in
        let cost =
          Camsim.Simulator.write_range (simx ctx) handle ~row_offset ~lo ~hi
        in
        cost.Camsim.Energy_model.latency
  | "cam.search" ->
      let hg = use_handle cenv (opnd 0) in
      let qg = use cenv (opnd 1) in
      let og = use_index cenv (opnd 2) in
      let kind =
        match Dialects.Cam.search_kind_of_attr (Ir.Op.attr_exn op "kind") with
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
      (* options built once, so the optional arguments allocate
         nothing per search *)
      let batch_extra =
        Some
          (match Ir.Op.attr op "batch_extra" with
          | Some a -> Ir.Attr.as_bool a
          | None -> false)
      in
      let threshold =
        Some
          (match Ir.Op.attr op "threshold" with
          | Some a -> Ir.Attr.as_float a
          | None -> 0.)
      in
      let rows = attr_i op "rows" in
      fun ctx ->
        let handle = hg ctx in
        let qv = qg ctx in
        let row_offset = og ctx in
        let cost =
          Ops.cam_search ctx.qcache (simx ctx) handle qv ~row_offset ~rows
            ~kind ~metric ?batch_extra ?threshold ()
        in
        cost.Camsim.Energy_model.latency
  | "cam.read" when Hashtbl.mem cenv.fused (Ir.Op.result op).Ir.Value.id ->
      (* read→merge fusion (see [mark_fused]): the read still executes
         — and fails before any search, like the unfused read — but
         binds its handle instead of a copy of the latched rows; the
         merge reads the rows from the subarray *)
      let g = use cenv (opnd 0) in
      let s = def1 () in
      fun ctx ->
        let hv = g ctx in
        let h = Rtval.as_handle hv in
        ignore (Camsim.Simulator.read (simx ctx) h);
        set ctx s hv;
        0.
  | "cam.read" ->
      let g = use_handle cenv (opnd 0) in
      let s = def1 () in
      fun ctx ->
        set ctx s
          (Rtval.Buffer
             (Rtval.buffer_of_rows (Camsim.Simulator.read (simx ctx) (g ctx))));
        0.
  | "cam.merge_partial" when Hashtbl.mem cenv.fused (opnd 1).Ir.Value.id ->
      let dg = use_buffer cenv (opnd 0) in
      let hg = use_handle cenv (opnd 1) in
      fun ctx ->
        let dst = dg ctx in
        let sim = simx ctx in
        Ops.rows_accumulate "cam.merge_partial" dst
          (Camsim.Simulator.read sim (hg ctx));
        Ops.Qcache.invalidate ctx.qcache dst.Rtval.b_data;
        let cost =
          Camsim.Simulator.merge sim ~elems:(Rtval.numel dst.Rtval.b_shape)
        in
        cost.Camsim.Energy_model.latency
  | "cam.merge_partial" ->
      let dg = use_buffer cenv (opnd 0) in
      let pg = use_buffer cenv (opnd 1) in
      fun ctx ->
        let dst = dg ctx in
        let part = pg ctx in
        Ops.buffer_accumulate "cam.merge_partial" dst part;
        Ops.Qcache.invalidate ctx.qcache dst.Rtval.b_data;
        let cost =
          Camsim.Simulator.merge (simx ctx) ~elems:(Rtval.numel dst.Rtval.b_shape)
        in
        cost.Camsim.Energy_model.latency
  | "cam.select_best" ->
      let g = use cenv (opnd 0) in
      let k = attr_i op "k" and largest = attr_b op "largest" in
      let s0 = def cenv (Ir.Op.result_n op 0) in
      let s1 = def cenv (Ir.Op.result_n op 1) in
      fun ctx ->
        let dist = Rtval.to_rows (g ctx) in
        let (values, indices), cost =
          Camsim.Simulator.select_best (simx ctx) ~dist ~k ~largest
        in
        set ctx s0 (Rtval.Buffer (Rtval.buffer_of_rows values));
        set ctx s1
          (Rtval.Buffer
             (Rtval.buffer_of_rows (Array.map (Array.map float_of_int) indices)));
        cost.Camsim.Energy_model.latency
  (* ---- crossbar ---- *)
  | "crossbar.alloc_tile" ->
      let s = def1 () in
      fun ctx ->
        set ctx s (Rtval.Xtile (Xbar.alloc_tile (xsimx ctx)));
        0.
  | "crossbar.write" ->
      let tg = use cenv (opnd 0) in
      let bg = use cenv (opnd 1) in
      fun ctx ->
        let tile = Rtval.as_xtile (tg ctx) in
        let block = Rtval.to_rows (bg ctx) in
        let cost = Xbar.write (xsimx ctx) tile block in
        cost.Xbar.latency
  | "crossbar.gemv" ->
      let tg = use cenv (opnd 0) in
      let ig = use cenv (opnd 1) in
      let s = def1 () in
      fun ctx ->
        let tile = Rtval.as_xtile (tg ctx) in
        let inputs = Rtval.to_rows (ig ctx) in
        let out, cost = Xbar.gemv (xsimx ctx) tile inputs in
        set ctx s (Rtval.Buffer (Rtval.buffer_of_rows out));
        cost.Xbar.latency
  | "crossbar.accumulate" ->
      let dg = use_buffer cenv (opnd 0) in
      let pg = use_buffer cenv (opnd 1) in
      fun ctx ->
        let dst = dg ctx in
        let part = pg ctx in
        Ops.buffer_accumulate "crossbar.accumulate" dst part;
        Ops.Qcache.invalidate ctx.qcache dst.Rtval.b_data;
        0.
  | name -> fun _ -> Ops.fail "unsupported op %s" name

and compile_region cenv (r : Ir.Op.region) : creg =
  match r.Ir.Op.blocks with
  | [ blk ] -> Cblk (compile_block cenv blk)
  | _ -> Cbad "only single-block regions are executable"

and compile_block cenv (blk : Ir.Op.block) : cblk =
  let arg_slots =
    Array.of_list (List.map (def cenv) blk.Ir.Op.block_args)
  in
  (* ops past the first terminator are dead in both engines: the
     tree-walker stops there, so we do not compile them at all *)
  let rec split acc = function
    | [] -> (List.rev acc, None)
    | (op : Ir.Op.t) :: rest ->
        if is_terminator op.op_name then (List.rev acc, Some op)
        else split (op :: acc) rest
  in
  let body_ops, term_op = split [] blk.Ir.Op.body in
  mark_fused cenv body_ops;
  let body = Array.of_list (List.map (compile_op cenv) body_ops) in
  let dials =
    Array.of_list
      (List.map (fun (o : Ir.Op.t) -> Ops.dialect_index o.op_name) body_ops)
  in
  let term =
    match term_op with
    | None -> Tfall
    | Some top ->
        let gs = Array.of_list (List.map (use cenv) top.operands) in
        let d = Ops.dialect_index top.op_name in
        if String.equal top.op_name "func.return" then Treturn (gs, d)
        else Tyield (gs, d)
  in
  { arg_slots; body; dials; term }

(* ---------- whole functions, memoized ---------------------------------- *)

type cfunc = {
  cf_fn : Ir.Func_ir.func; (* physical identity for cache validation *)
  cf_n_ops : int; (* cheap guard against in-place IR mutation *)
  cf_nslots : int;
  cf_args : int array;
  cf_body : cblk;
  cf_fused : int; (* cam.read ops fused into their merge *)
}

let block_num_ops (b : Ir.Op.block) =
  List.fold_left (fun acc o -> acc + Ir.Op.num_ops o) 0 b.Ir.Op.body

let compile_func (fn : Ir.Func_ir.func) : cfunc =
  let cenv =
    {
      tbl = Hashtbl.create 256;
      n_slots = 0;
      uses = Hashtbl.create 256;
      defs = Hashtbl.create 256;
      fused = Hashtbl.create 16;
    }
  in
  count_values cenv fn;
  let cf_args = Array.of_list (List.map (def cenv) fn.Ir.Func_ir.fn_args) in
  let cf_body = compile_block cenv fn.Ir.Func_ir.fn_body in
  {
    cf_fn = fn;
    cf_n_ops = block_num_ops fn.Ir.Func_ir.fn_body;
    cf_nslots = cenv.n_slots;
    cf_args;
    cf_body;
    cf_fused = Hashtbl.length cenv.fused;
  }

(* Per-domain memo keyed on the first body op's uid (process-unique, so
   no cross-module collisions); validated against the function's
   physical identity and total op count. Repeated Machine.run calls on
   the same compiled module (autotune, benchmarks) amortize compilation
   to a hashtable hit. *)
let memo_limit = 64

let memo : (int, cfunc) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let compiled_of (fn : Ir.Func_ir.func) =
  match fn.Ir.Func_ir.fn_body.Ir.Op.body with
  | [] -> compile_func fn
  | first :: _ -> (
      let key = first.Ir.Op.uid in
      let tbl = Domain.DLS.get memo in
      match Hashtbl.find_opt tbl key with
      | Some cf
        when cf.cf_fn == fn
             && cf.cf_n_ops = block_num_ops fn.Ir.Func_ir.fn_body ->
          cf
      | _ ->
          let cf = compile_func fn in
          if Hashtbl.length tbl >= memo_limit then Hashtbl.reset tbl;
          Hashtbl.replace tbl key cf;
          cf)

let fused_reads fn = (compiled_of fn).cf_fused

let run_fn ?sim ?xsim ?qcache (fn : Ir.Func_ir.func) (args : Rtval.t list) :
    Ops.outcome =
  let cf = compiled_of fn in
  let ctx =
    {
      slots = Array.make (max 1 cf.cf_nslots) unbound;
      sim;
      xsim;
      qcache =
        (match qcache with Some q -> q | None -> Ops.Qcache.create ());
      counts = Ops.fresh_counts ();
      counts_mu = Mutex.create ();
    }
  in
  List.iteri (fun i v -> set ctx cf.cf_args.(i) v) args;
  match run_cblk ctx cf.cf_body [||] with
  | Creturn results, latency ->
      { Ops.results; latency; ops_executed = Ops.counts_list ctx.counts }
  | (Cyield _ | Cfall), _ ->
      Ops.fail "@%s finished without returning" fn.Ir.Func_ir.fn_name
