type outcome = { results : Interp.Rtval.t list; latency : float }

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

type frame = { f_mode : Isa.mode; mutable f_acc : float }

let run ?sim ?(fuel = 100_000_000) (p : Isa.program) args =
  let sim () =
    match sim with
    | Some s -> s
    | None -> fail "cam instructions need a simulator"
  in
  let regs = Array.make (max 1 p.n_regs) Interp.Rtval.Unit in
  (if List.length p.arg_regs <> List.length args then
     fail "@%s expects %d arguments, got %d" p.entry
       (List.length p.arg_regs) (List.length args));
  List.iter2 (fun r v -> regs.(r) <- v) p.arg_regs args;
  (* label -> instruction index *)
  let labels = Hashtbl.create 32 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Isa.Label l -> Hashtbl.replace labels l i
      | _ -> ())
    p.instrs;
  let target l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> fail "undefined label L%d" l
  in
  (* timing: a stack of open segments (root + one per open iteration)
     and a stack of frames *)
  let segments = ref [ 0. ] in
  let frames : frame list ref = ref [] in
  let charge (c : Camsim.Energy_model.cost) =
    match !segments with
    | s :: rest -> segments := (s +. c.latency) :: rest
    | [] -> fail "no open timing segment"
  in
  let idx r =
    match regs.(r) with
    | Interp.Rtval.Index i -> i
    | _ -> fail "r%d: expected an index" r
  in
  let buf r =
    match regs.(r) with
    | Interp.Rtval.Buffer b -> b
    | _ -> fail "r%d: expected a buffer" r
  in
  let handle r =
    match regs.(r) with
    | Interp.Rtval.Handle h -> h
    | _ -> fail "r%d: expected a device handle" r
  in
  (* tracks no backings, so every replayed write compares its window *)
  let qcache = Interp.Ops.Qcache.create () in
  let pc = ref 0 in
  let steps = ref 0 in
  let result = ref None in
  let n = Array.length p.instrs in
  while !result = None && !pc < n do
    incr steps;
    if !steps > fuel then fail "fuel exhausted after %d instructions" fuel;
    let next = !pc + 1 in
    (match p.instrs.(!pc) with
    | Isa.Label _ -> pc := next
    | Isa.Const (d, v) ->
        regs.(d) <- Interp.Rtval.Index v;
        pc := next
    | Isa.Binop (op, d, a, b) ->
        let a = idx a and b = idx b in
        let v =
          match op with
          | Isa.Add -> a + b
          | Isa.Sub -> a - b
          | Isa.Mul -> a * b
          | Isa.Div -> if b = 0 then fail "division by zero" else a / b
          | Isa.Rem -> if b = 0 then fail "remainder by zero" else a mod b
        in
        regs.(d) <- Interp.Rtval.Index v;
        pc := next
    | Isa.Cmp (pred, d, a, b) ->
        let a = idx a and b = idx b in
        let v =
          match pred with
          | Isa.Lt -> a < b
          | Isa.Le -> a <= b
          | Isa.Eq -> a = b
          | Isa.Ne -> a <> b
          | Isa.Gt -> a > b
          | Isa.Ge -> a >= b
        in
        regs.(d) <- Interp.Rtval.Boolean v;
        pc := next
    | Isa.Jump l -> pc := target l
    | Isa.Branch (c, t, e) -> (
        match regs.(c) with
        | Interp.Rtval.Boolean true -> pc := target t
        | Interp.Rtval.Boolean false -> pc := target e
        | _ -> fail "branch condition is not a boolean")
    | Isa.Alloc_buf (d, dims) ->
        regs.(d) <- Interp.Rtval.Buffer (Interp.Rtval.fresh_buffer dims);
        pc := next
    | Isa.Subview (d, base, offs, sizes) ->
        regs.(d) <-
          Interp.Rtval.Buffer
            (Interp.Rtval.buffer_view (buf base)
               ~offsets:(List.map idx offs) ~sizes);
        pc := next
    | Isa.Cam_alloc_bank (d, rows, cols) ->
        regs.(d) <-
          Interp.Rtval.Handle (Camsim.Simulator.alloc_bank (sim ()) ~rows ~cols);
        pc := next
    | Isa.Cam_alloc_mat (d, parent) ->
        regs.(d) <-
          Interp.Rtval.Handle (Camsim.Simulator.alloc_mat (sim ()) (handle parent));
        pc := next
    | Isa.Cam_alloc_array (d, parent) ->
        regs.(d) <-
          Interp.Rtval.Handle
            (Camsim.Simulator.alloc_array (sim ()) (handle parent));
        pc := next
    | Isa.Cam_alloc_subarray (d, parent) ->
        regs.(d) <-
          Interp.Rtval.Handle
            (Camsim.Simulator.alloc_subarray (sim ()) (handle parent));
        pc := next
    | Isa.Cam_write (s, data, off) ->
        charge
          (Interp.Ops.cam_write qcache (sim ()) (handle s) ~row_offset:(idx off)
             (Interp.Rtval.Buffer (buf data)));
        pc := next
    | Isa.Cam_search (s, q, off, params) ->
        charge
          (Camsim.Simulator.search (sim ()) (handle s)
             ~queries:(Interp.Rtval.buffer_rows (buf q))
             ~row_offset:(idx off) ~rows:params.s_rows ~kind:params.s_kind
             ~metric:params.s_metric ~batch_extra:params.s_batch_extra
             ~threshold:params.s_threshold ());
        pc := next
    | Isa.Cam_read (d, s) ->
        regs.(d) <-
          Interp.Rtval.Buffer
            (Interp.Rtval.buffer_of_rows
               (Camsim.Simulator.read (sim ()) (handle s)));
        pc := next
    | Isa.Cam_merge (d, part) ->
        let dst = buf d and part = buf part in
        Interp.Ops.buffer_accumulate "cam.merge" dst part;
        charge
          (Camsim.Simulator.merge (sim ())
             ~elems:(Interp.Rtval.numel dst.b_shape));
        pc := next
    | Isa.Cam_select (vd, id_, dist, k, largest) ->
        let (values, indices), cost =
          Camsim.Simulator.select_best (sim ())
            ~dist:(Interp.Rtval.buffer_rows (buf dist))
            ~k ~largest
        in
        regs.(vd) <-
          Interp.Rtval.Buffer (Interp.Rtval.buffer_of_rows values);
        regs.(id_) <-
          Interp.Rtval.Buffer
            (Interp.Rtval.buffer_of_rows
               (Array.map (Array.map float_of_int) indices));
        charge cost;
        pc := next
    | Isa.Frame_enter mode ->
        frames := { f_mode = mode; f_acc = 0. } :: !frames;
        pc := next
    | Isa.Iter_begin ->
        segments := 0. :: !segments;
        pc := next
    | Isa.Iter_end ->
        (match (!segments, !frames) with
        | s :: rest, f :: _ ->
            segments := rest;
            f.f_acc <-
              (match f.f_mode with
              | Isa.Par -> Float.max f.f_acc s
              | Isa.Seq -> f.f_acc +. s)
        | _ -> fail "iter.end without an open iteration");
        pc := next
    | Isa.Frame_exit ->
        (match (!frames, !segments) with
        | f :: fr, s :: sr ->
            frames := fr;
            segments := (s +. f.f_acc) :: sr
        | _ -> fail "frame.exit without an open frame");
        pc := next
    | Isa.Ret rs -> result := Some (List.map (fun r -> regs.(r)) rs));
    ()
  done;
  match (!result, !segments, !frames) with
  | Some results, [ latency ], [] -> { results; latency }
  | Some _, _, _ -> fail "unbalanced timing frames at return"
  | None, _, _ -> fail "@%s fell off the end without returning" p.entry
