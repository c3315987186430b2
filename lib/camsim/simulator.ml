type id = int

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type node =
  | Bank of { rows : int; cols : int; mutable mats : int }
  | Mat of { bank : id; mutable arrays : int }
  | Array_ of { mat : id; mutable subarrays : int }
  | Sub of { array_ : id; sub : Subarray.t }

(* The structural ops a serving session records on its first execution
   and replays on every later one. Write data is the pre-defect payload
   (deep-copied), so a replay can tell a genuinely changed row from the
   same row arriving again.

   A write replayed through [write_view] also remembers the view it last
   compared against [w_data] — the backing's write generations, the
   clock they read then, and the stride geometry. While no generation
   in the window has moved since, the view still equals [w_data] and
   the compare can be skipped ([w_gen == Writegen.none] means no such
   memo). *)
type serve_event =
  | Ev_alloc of id
  | Ev_write of {
      w_id : id;
      w_row_offset : int;
      w_data : float array array;
      w_care : bool array array option;
      mutable w_gen : Writegen.t;
      mutable w_seen : int;
      mutable w_off : int;
      mutable w_rs : int;
      mutable w_cs : int;
    }
  | Ev_write_range of {
      r_id : id;
      r_row_offset : int;
      r_lo : float array array;
      r_hi : float array array;
    }

type serve_mode =
  | Oneshot
  | Recording of serve_event list ref (* reversed *)
  | Replaying of { events : serve_event array; mutable cursor : int }

type t = {
  sim_spec : Archspec.Spec.t;
  sim_tech : Tech.t;
  sim_stats : Stats.t;
  nodes : (id, node) Hashtbl.t;
  mutable next_id : int;
  mutable query_hint : int;
  defect_rate : float;
  defect_rng : Rng.t;
  trace : Trace.t option;
  mutable serve : serve_mode;
}

let create ?(tech = Tech.fefet_45nm) ?(defect_rate = 0.)
    ?(defect_seed = 1) ?trace spec =
  (match Archspec.Spec.validate spec with
  | Ok () -> ()
  | Error e -> err "invalid architecture spec: %s" e);
  if defect_rate < 0. || defect_rate >= 1. then
    err "defect rate must be in [0, 1)";
  {
    sim_spec = spec;
    sim_tech = tech;
    sim_stats = Stats.create ();
    nodes = Hashtbl.create 256;
    next_id = 0;
    query_hint = 1;
    defect_rate;
    defect_rng = Rng.create defect_seed;
    trace;
    serve = Oneshot;
  }

(* ---- serve mode (record / replay) ------------------------------------- *)

let start_recording t =
  match t.serve with
  | Oneshot ->
      if t.next_id <> 0 then
        err "start_recording: the simulator has already allocated devices";
      t.serve <- Recording (ref [])
  | Recording _ | Replaying _ -> err "start_recording: already recording"

let seal_recording t =
  match t.serve with
  | Recording log ->
      let events = Array.of_list (List.rev !log) in
      t.serve <- Replaying { events; cursor = Array.length events }
  | Oneshot -> err "seal_recording: the simulator is not recording"
  | Replaying _ -> err "seal_recording: already sealed"

let rewind t =
  match t.serve with
  | Replaying r -> r.cursor <- 0
  | Oneshot | Recording _ ->
      err "rewind: the recording has not been sealed"

let serving t = match t.serve with Replaying _ -> true | _ -> false

let log_event t ev =
  match t.serve with Recording log -> log := ev :: !log | _ -> ()

let next_event t =
  match t.serve with
  | Replaying r when r.cursor < Array.length r.events ->
      let ev = r.events.(r.cursor) in
      r.cursor <- r.cursor + 1;
      ev
  | Replaying _ ->
      err "serve replay diverged: more device setup ops than were recorded"
  | Oneshot | Recording _ -> err "next_event: not replaying"

let record t event =
  match t.trace with Some tr -> Trace.record tr event | None -> ()

(* Hot-path call sites test this before building their event record, so
   an untraced simulator (the serving default) never allocates one. *)
let tracing t = t.trace <> None

(* Stuck-at / flipped-cell injection on the write path: with probability
   [defect_rate] a binary cell stores the opposite value; a multi-bit
   cell stores a random other level. Models the unreliable scaled FeFETs
   that motivate robustness studies (HDGIM). *)
let inject_defects t data =
  if t.defect_rate = 0. then data
  else
    let max_val = (1 lsl t.sim_spec.bits) - 1 in
    Array.map
      (Array.map (fun v ->
           if not (Rng.bool t.defect_rng t.defect_rate) then v
           else if v = 0. then 1.
           else if v = 1. && max_val = 1 then 0.
           else if Float.is_integer v && v >= 0. && v <= float_of_int max_val
           then float_of_int (Rng.int t.defect_rng (max_val + 1))
           else -. v))
      data

let spec t = t.sim_spec
let tech t = t.sim_tech
let stats t = t.sim_stats
let set_query_hint t q = t.query_hint <- max 1 q

let fresh t node =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.nodes id node;
  id

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> err "unknown device handle %d" id

let charge_overhead t level =
  let c =
    Energy_model.level_overhead t.sim_tech ~level ~queries:t.query_hint
  in
  t.sim_stats.e_overhead <- t.sim_stats.e_overhead +. c.energy

(* During replay an allocation op consumes the recorded event and hands
   back the existing node: no stats, no overhead charge, no trace — the
   device was built once, on the recorded first execution. *)
let replayed_alloc t what pred =
  match next_event t with
  | Ev_alloc id when pred (node t id) -> id
  | Ev_alloc _ | Ev_write _ | Ev_write_range _ ->
      err "serve replay diverged at a %s allocation" what

let alloc_bank t ~rows ~cols =
  if serving t then
    replayed_alloc t "bank" (function Bank _ -> true | _ -> false)
  else begin
    (match t.sim_spec.max_banks with
    | Some b when t.sim_stats.n_banks >= b ->
        err "bank allocation exceeds the configured %d banks" b
    | _ -> ());
    if rows <> t.sim_spec.rows || cols <> t.sim_spec.cols then
      err "bank geometry %dx%d disagrees with the architecture spec %dx%d"
        rows cols t.sim_spec.rows t.sim_spec.cols;
    t.sim_stats.n_banks <- t.sim_stats.n_banks + 1;
    charge_overhead t `Bank;
    let id = fresh t (Bank { rows; cols; mats = 0 }) in
    record t (Trace.Alloc { level = "bank"; id });
    log_event t (Ev_alloc id);
    id
  end

let alloc_mat t bank_id =
  if serving t then
    replayed_alloc t "mat" (function Mat _ -> true | _ -> false)
  else
    match node t bank_id with
    | Bank b ->
        if b.mats >= t.sim_spec.mats_per_bank then
          err "mat allocation exceeds %d mats per bank"
            t.sim_spec.mats_per_bank;
        b.mats <- b.mats + 1;
        t.sim_stats.n_mats <- t.sim_stats.n_mats + 1;
        charge_overhead t `Mat;
        let id = fresh t (Mat { bank = bank_id; arrays = 0 }) in
        record t (Trace.Alloc { level = "mat"; id });
        log_event t (Ev_alloc id);
        id
    | Mat _ | Array_ _ | Sub _ ->
        err "alloc_mat: handle %d is not a bank" bank_id

let alloc_array t mat_id =
  if serving t then
    replayed_alloc t "array" (function Array_ _ -> true | _ -> false)
  else
    match node t mat_id with
    | Mat m ->
        if m.arrays >= t.sim_spec.arrays_per_mat then
          err "array allocation exceeds %d arrays per mat"
            t.sim_spec.arrays_per_mat;
        m.arrays <- m.arrays + 1;
        t.sim_stats.n_arrays <- t.sim_stats.n_arrays + 1;
        charge_overhead t `Array;
        let id = fresh t (Array_ { mat = mat_id; subarrays = 0 }) in
        record t (Trace.Alloc { level = "array"; id });
        log_event t (Ev_alloc id);
        id
    | Bank _ | Array_ _ | Sub _ ->
        err "alloc_array: handle %d is not a mat" mat_id

let alloc_subarray t array_id =
  if serving t then
    replayed_alloc t "subarray" (function Sub _ -> true | _ -> false)
  else
    match node t array_id with
    | Array_ a ->
        if a.subarrays >= t.sim_spec.subarrays_per_array then
          err "subarray allocation exceeds %d subarrays per array"
            t.sim_spec.subarrays_per_array;
        a.subarrays <- a.subarrays + 1;
        t.sim_stats.n_subarrays <- t.sim_stats.n_subarrays + 1;
        let sub =
          Subarray.create ~rows:t.sim_spec.rows ~cols:t.sim_spec.cols
            ~bits:t.sim_spec.bits
        in
        (* every simulator consumer copies search results at the API
           boundary, so the subarray may reuse its result matrix *)
        Subarray.set_reuse_results sub true;
        let id = fresh t (Sub { array_ = array_id; sub }) in
        record t (Trace.Alloc { level = "subarray"; id });
        log_event t (Ev_alloc id);
        id
    | Bank _ | Mat _ | Sub _ ->
        err "alloc_subarray: handle %d is not an array" array_id

let subarray t id =
  match node t id with
  | Sub s -> s.sub
  | Bank _ | Mat _ | Array_ _ -> err "handle %d is not a subarray" id

let write_cost t rows =
  Energy_model.write t.sim_tech ~bits:t.sim_spec.bits ~cols:t.sim_spec.cols
    ~rows

let perform_write t id ~row_offset ?care data =
  let sub = subarray t id in
  Subarray.write sub ~row_offset ?care (inject_defects t data);
  if tracing t then
    record t (Trace.Write { sub = id; rows = Array.length data; row_offset });
  let c = write_cost t (Array.length data) in
  t.sim_stats.e_write <- t.sim_stats.e_write +. c.energy;
  t.sim_stats.n_write_ops <- t.sim_stats.n_write_ops + 1;
  c

(* A replayed write compares the incoming rows against the recorded
   payload and rewrites (and charges) only the maximal runs of rows
   that actually changed — the incremental path behind a session's
   [update_stored]. An unchanged write is free: the cells already hold
   this data from the recorded execution. *)
let replay_write t id ~row_offset ?care data =
  match next_event t with
  | Ev_write w
    when w.w_id = id
         && w.w_row_offset = row_offset
         && Array.length w.w_data = Array.length data ->
      (* this path may rewrite [w_data]: drop the view memo *)
      w.w_gen <- Writegen.none;
      let n = Array.length data in
      let care_row (c : bool array array option) i =
        match c with Some c -> Some c.(i) | None -> None
      in
      let row_changed i =
        data.(i) <> w.w_data.(i) || care_row care i <> care_row w.w_care i
      in
      let cost = ref Energy_model.zero in
      let i = ref 0 in
      while !i < n do
        if row_changed !i then begin
          let j = ref (!i + 1) in
          while !j < n && row_changed !j do incr j done;
          let len = !j - !i in
          let chunk = Array.sub data !i len in
          let care_chunk = Option.map (fun c -> Array.sub c !i len) care in
          let c =
            perform_write t id ~row_offset:(row_offset + !i) ?care:care_chunk
              chunk
          in
          (* refresh the log so the next replay sees the new contents *)
          for r = !i to !j - 1 do
            w.w_data.(r) <- Array.copy data.(r);
            match (w.w_care, care) with
            | Some wc, Some cc -> wc.(r) <- Array.copy cc.(r)
            | _ -> ()
          done;
          cost := Energy_model.add !cost c;
          i := !j
        end
        else incr i
      done;
      !cost
  | Ev_write _ | Ev_alloc _ | Ev_write_range _ ->
      err "serve replay diverged at a write"

let write t id ~row_offset data =
  if serving t then replay_write t id ~row_offset data
  else begin
    (match t.serve with
    | Recording _ ->
        log_event t
          (Ev_write
             {
               w_id = id;
               w_row_offset = row_offset;
               w_data = Array.map Array.copy data;
               w_care = None;
               w_gen = Writegen.none;
               w_seen = 0;
               w_off = 0;
               w_rs = 0;
               w_cs = 0;
             })
    | Oneshot | Replaying _ -> ());
    perform_write t id ~row_offset data
  end

let write_ternary t id ~row_offset ~care data =
  if serving t then replay_write t id ~row_offset ~care data
  else begin
    (match t.serve with
    | Recording _ ->
        log_event t
          (Ev_write
             {
               w_id = id;
               w_row_offset = row_offset;
               w_data = Array.map Array.copy data;
               w_care = Some (Array.map Array.copy care);
               w_gen = Writegen.none;
               w_seen = 0;
               w_off = 0;
               w_rs = 0;
               w_cs = 0;
             })
    | Oneshot | Replaying _ -> ());
    perform_write t id ~row_offset ~care data
  end

(* An ACAM range write programs two bound planes per cell (lower and
   upper reference voltages), so it costs two plain writes of the same
   geometry. Defects are not injected: the binary/multi-level flip
   model of [inject_defects] has no analogue for analog bound pairs. *)
let perform_write_range t id ~row_offset ~lo ~hi =
  let sub = subarray t id in
  Subarray.write_range sub ~row_offset ~lo ~hi;
  if tracing t then
    record t (Trace.Write { sub = id; rows = Array.length lo; row_offset });
  let c = write_cost t (Array.length lo) in
  let c = Energy_model.add c c in
  t.sim_stats.e_write <- t.sim_stats.e_write +. c.energy;
  t.sim_stats.n_write_ops <- t.sim_stats.n_write_ops + 1;
  c

(* Same incremental semantics as [replay_write]: only the row runs
   whose bound pair changed are reprogrammed (and charged). *)
let replay_write_range t id ~row_offset ~lo ~hi =
  match next_event t with
  | Ev_write_range w
    when w.r_id = id
         && w.r_row_offset = row_offset
         && Array.length w.r_lo = Array.length lo ->
      let n = Array.length lo in
      let row_changed i = lo.(i) <> w.r_lo.(i) || hi.(i) <> w.r_hi.(i) in
      let cost = ref Energy_model.zero in
      let i = ref 0 in
      while !i < n do
        if row_changed !i then begin
          let j = ref (!i + 1) in
          while !j < n && row_changed !j do incr j done;
          let len = !j - !i in
          let c =
            perform_write_range t id ~row_offset:(row_offset + !i)
              ~lo:(Array.sub lo !i len) ~hi:(Array.sub hi !i len)
          in
          for r = !i to !j - 1 do
            w.r_lo.(r) <- Array.copy lo.(r);
            w.r_hi.(r) <- Array.copy hi.(r)
          done;
          cost := Energy_model.add !cost c;
          i := !j
        end
        else incr i
      done;
      !cost
  | Ev_write_range _ | Ev_write _ | Ev_alloc _ ->
      err "serve replay diverged at a range write"

let write_range t id ~row_offset ~lo ~hi =
  if serving t then replay_write_range t id ~row_offset ~lo ~hi
  else begin
    (match t.serve with
    | Recording _ ->
        log_event t
          (Ev_write_range
             {
               r_id = id;
               r_row_offset = row_offset;
               r_lo = Array.map Array.copy lo;
               r_hi = Array.map Array.copy hi;
             })
    | Oneshot | Replaying _ -> ());
    perform_write_range t id ~row_offset ~lo ~hi
  end

(* [write_view] writes rows addressed by stride math over a flat
   backing store ([data.(off + i*rs + j*cs)]) without materializing
   them first. Off the replay path it must materialize anyway — the
   recording log and the defect injector take row arrays — but a
   replayed unchanged write, the steady state of a serving session,
   compares elements straight out of the backing and allocates
   nothing: a closure-valued view would box every float it returns —
   or, given the backing's write generations, skips the compare
   altogether. *)

(* Whether view row [i] differs from the recorded row [wdata.(i)]
   ([always] when a recorded care mask forces a rewrite). Element
   compares use [Float.compare]: like the polymorphic structural
   compare of [replay_write] — and unlike [<>] — it treats two nans as
   equal, so don't-care nan payloads don't force a rewrite every
   batch. A top-level loop rather than a closure, so the steady-state
   compare allocates nothing. *)
let view_row_changed ~always (wdata : float array array) (data : float array)
    ~off ~rs ~cols ~cs i =
  always
  ||
  let wr = wdata.(i) in
  Array.length wr <> cols
  ||
  let base = off + (i * rs) in
  let j = ref 0 in
  while
    !j < cols
    && Float.compare (Array.unsafe_get wr !j)
         (Array.unsafe_get data (base + (!j * cs)))
       = 0
  do
    incr j
  done;
  !j < cols

let materialize_view (data : float array) ~off ~rs ~cols ~cs i len =
  Array.init len (fun r ->
      let base = off + ((i + r) * rs) in
      Array.init cols (fun j -> data.(base + (j * cs))))

let replay_write_view ?gen t id ~row_offset ~rows ~cols data ~off ~rs ~cs =
  match next_event t with
  | Ev_write w
    when w.w_id = id
         && w.w_row_offset = row_offset
         && Array.length w.w_data = rows ->
      (* the flat extent of the window, for the generation check *)
      let lo = off and hi = off + ((rows - 1) * rs) + ((cols - 1) * cs) in
      let unchanged =
        match gen with
        | Some g ->
            (* same generations, backing and view geometry as the
               memo (a memo leaves every [w_data] row [cols] wide) *)
            w.w_gen == g
            && Writegen.backing g == data
            && w.w_off = off && w.w_rs = rs && w.w_cs = cs
            && (rows = 0 || Array.length w.w_data.(0) = cols)
            && Writegen.unchanged_since g ~seen:w.w_seen ~lo ~hi
        | None -> false
      in
      if unchanged then Energy_model.zero
      else begin
        (* A recorded care mask means the original would see
           [Some _ <> None] and rewrite the row, so mirror that. *)
        let always = match w.w_care with Some _ -> true | None -> false in
        let cost = ref Energy_model.zero in
        let i = ref 0 in
        let wdata = w.w_data in
        while !i < rows do
          if view_row_changed ~always wdata data ~off ~rs ~cols ~cs !i then begin
            let j = ref (!i + 1) in
            while
              !j < rows
              && view_row_changed ~always wdata data ~off ~rs ~cols ~cs !j
            do
              incr j
            done;
            let len = !j - !i in
            let chunk = materialize_view data ~off ~rs ~cols ~cs !i len in
            let c = perform_write t id ~row_offset:(row_offset + !i) chunk in
            (* refresh the log so the next replay sees the new contents;
               the chunk rows are fresh, so no defensive copy is needed
               (the subarray stores cells, not the arrays) *)
            for r = !i to !j - 1 do
              w.w_data.(r) <- chunk.(r - !i)
            done;
            cost := Energy_model.add !cost c;
            i := !j
          end
          else incr i
        done;
        (* [w_data] now equals the view: remember the generations it
           was compared at *)
        (match gen with
        | Some g when (not always) && rs >= 0 && cs >= 0
                      && Writegen.backing g == data ->
            w.w_gen <- g;
            w.w_seen <- Writegen.now g;
            w.w_off <- off;
            w.w_rs <- rs;
            w.w_cs <- cs
        | _ -> w.w_gen <- Writegen.none);
        !cost
      end
  | Ev_write _ | Ev_alloc _ | Ev_write_range _ ->
      err "serve replay diverged at a write"

let write_view ?gen t id ~row_offset ~rows ~cols data ~off ~rs ~cs =
  if serving t then
    replay_write_view ?gen t id ~row_offset ~rows ~cols data ~off ~rs ~cs
  else
    write t id ~row_offset
      (Array.init rows (fun i ->
           let base = off + (i * rs) in
           Array.init cols (fun j -> data.(base + (j * cs)))))

let search t id ~queries ~row_offset ~rows ~kind ~metric
    ?(batch_extra = false) ?(threshold = 0.) ?packs () =
  let sub = subarray t id in
  let stats = t.sim_stats in
  (match kind with
  | `Range ->
      ignore
        (Subarray.search_range ~stats ?packs sub ~queries ~row_offset ~rows)
  | `Threshold ->
      ignore
        (Subarray.search_threshold ~stats ?packs sub ~queries ~row_offset
           ~rows ~metric ~threshold)
  | `Exact | `Best ->
      ignore
        (Subarray.search ~stats ?packs sub ~queries ~row_offset ~rows ~metric));
  if tracing t then
    record t
      (Trace.Search
         {
           sub = id;
           queries = Array.length queries;
           rows;
           row_offset;
           kind =
             (match kind with
             | `Exact -> "exact"
             | `Best -> "best"
             | `Threshold -> "threshold"
             | `Range -> "range");
         });
  let q = Array.length queries in
  let c =
    Energy_model.search t.sim_tech ~bits:t.sim_spec.bits
      ~cols:t.sim_spec.cols ~active_rows:rows
      ~physical_rows:t.sim_spec.rows ~kind ~queries:q ~batch_extra ()
  in
  t.sim_stats.e_search <- t.sim_stats.e_search +. c.energy;
  t.sim_stats.n_search_ops <- t.sim_stats.n_search_ops + 1;
  t.sim_stats.n_query_cycles <- t.sim_stats.n_query_cycles + q;
  c

let read t id = Subarray.read (subarray t id)

let merge t ~elems =
  if tracing t then record t (Trace.Merge { elems });
  let c = Energy_model.merge t.sim_tech ~elems in
  t.sim_stats.e_merge <- t.sim_stats.e_merge +. c.energy;
  c

let select_best t ~dist ~k ~largest =
  if tracing t then record t (Trace.Select { queries = Array.length dist; k });
  let q = Array.length dist in
  let n = if q = 0 then 0 else Array.length dist.(0) in
  (* An empty distance matrix (no queries, or no candidate rows) has a
     well-defined answer — nothing selected — even when k > 0; only a
     non-empty matrix with too few candidates is a caller error. *)
  if n > 0 && k > n then
    err "select_best: k=%d exceeds %d candidates" k n;
  let k = if n = 0 then 0 else k in
  (* result matrices and the selection-order buffer come from the
     domain's arena: callers copy what they keep (the interpreters wrap
     results into fresh buffers at the cam.select boundary) *)
  let sc = Scratch.get () in
  let values, indices = Scratch.select_buffers sc ~q ~k in
  let order = Scratch.order_buffer sc ~n:k in
  for qi = 0 to q - 1 do
    let row = dist.(qi) in
    let cmp a b =
      let va = row.(a) and vb = row.(b) in
      let c = if largest then compare vb va else compare va vb in
      if c <> 0 then c else compare a b
    in
    Topk.select_into ~buf:order ~n ~k ~cmp;
    let vrow = values.(qi) and irow = indices.(qi) in
    for j = 0 to k - 1 do
      let o = Array.unsafe_get order j in
      Array.unsafe_set vrow j (Array.unsafe_get row o);
      Array.unsafe_set irow j o
    done
  done;
  let c =
    Energy_model.select t.sim_tech ~elems_per_query:(max n 1) ~k ~queries:q
  in
  t.sim_stats.e_select <- t.sim_stats.e_select +. c.energy;
  ((values, indices), c)
