(* Cell kinds of the flat storage, one byte per cell. *)
let k_value = '\000'
let k_dont_care = '\001'
let k_range = '\002'

type t = {
  n_rows : int;
  n_cols : int;
  bits : int;
  (* Flat cell storage: one byte of cell kind plus the value (or range
     low) and range high per cell, indexed [row * n_cols + col]. Float
     arrays are unboxed, so the scalar kernels below read and compare
     without allocating. *)
  ck : Bytes.t;
  clo : float array;
  chi : float array;
  (* Flat packed payloads for the Hamming fast paths, [fbw]/[fnw]
     immediate int words per row (see Kernel): binary rows (all cells
     in {0,1}) and nibble rows (integer cells in [0,16)). A row's
     window is only meaningful when its class says so — binary rows
     keep both packs, nibble rows the nibble pack. *)
  fbw : int;
  fnw : int;
  bpack : Kernel.flat;
  npack : Kernel.flat;
  (* Kernel class per row plus summary counts, maintained at write
     time, so a search classifies a whole row window in O(rows) — O(1)
     for uniform subarrays — and dispatches one kernel per window
     instead of matching per row per query. *)
  classes : Kernel.cls array;
  mutable n_class_binary : int;
  mutable n_class_nibble : int;
  mutable n_class_generic : int;
  (* Highest kernel tier the dispatcher may use; [`Binary] (the
     default) allows all three. Test/bench hook: every tier must
     produce byte-identical results. *)
  mutable kernel_cap : [ `Binary | `Nibble | `Generic ];
  mutable last : float array array option;
  (* Result-matrix arena: when [reuse_results] is on (the simulator
     enables it — every consumer above copies at the API boundary) a
     search with the same (queries, rows) geometry overwrites the
     previous matrix instead of allocating a fresh one. *)
  mutable reuse_results : bool;
  mutable res : float array array;
  mutable res_q : int;
  mutable res_rows : int;
}

let create ~rows ~cols ~bits =
  if rows < 1 || cols < 1 then invalid_arg "Subarray.create: empty geometry";
  let fbw = Kernel.fbwords_for cols and fnw = Kernel.fnwords_for cols in
  {
    n_rows = rows;
    n_cols = cols;
    bits;
    ck = Bytes.make (rows * cols) k_value;
    clo = Array.make (rows * cols) 0.;
    chi = Array.make (rows * cols) 0.;
    fbw;
    fnw;
    bpack = Array.make (rows * fbw) 0;
    npack = Array.make (rows * fnw) 0;
    classes = Array.make rows Kernel.Generic;
    n_class_binary = 0;
    n_class_nibble = 0;
    n_class_generic = rows;
    kernel_cap = `Binary;
    last = None;
    reuse_results = false;
    res = [||];
    res_q = -1;
    res_rows = -1;
  }

let rows t = t.n_rows
let cols t = t.n_cols
let set_reuse_results t on = t.reuse_results <- on

let with_kernel_cap t cap f =
  let prev = t.kernel_cap in
  t.kernel_cap <- cap;
  Fun.protect ~finally:(fun () -> t.kernel_cap <- prev) f

let class_counts t =
  (t.n_class_binary, t.n_class_nibble, t.n_class_generic)

(* --- row classification ------------------------------------------------ *)

let set_row_class t r cls =
  let old = t.classes.(r) in
  if old <> cls then begin
    (match old with
    | Kernel.Binary -> t.n_class_binary <- t.n_class_binary - 1
    | Kernel.Nibble -> t.n_class_nibble <- t.n_class_nibble - 1
    | Kernel.Generic -> t.n_class_generic <- t.n_class_generic - 1);
    (match cls with
    | Kernel.Binary -> t.n_class_binary <- t.n_class_binary + 1
    | Kernel.Nibble -> t.n_class_nibble <- t.n_class_nibble + 1
    | Kernel.Generic -> t.n_class_generic <- t.n_class_generic + 1);
    t.classes.(r) <- cls
  end

(* Class of a row window: a uniform class dispatches one whole-window
   kernel; [Generic] means mixed (or truly generic) and falls back to
   per-row dispatch. The summary counts answer uniform subarrays
   without touching the per-row array. *)
let window_class t ~row_offset ~rows =
  if t.n_class_binary = t.n_rows then Kernel.Binary
  else if t.n_class_generic = t.n_rows then Kernel.Generic
  else begin
    let cls = ref Kernel.Binary in
    (try
       for r = row_offset to row_offset + rows - 1 do
         match Array.unsafe_get t.classes r with
         | Kernel.Generic ->
             cls := Kernel.Generic;
             raise Exit
         | Kernel.Nibble -> cls := Kernel.Nibble
         | Kernel.Binary -> ()
       done
     with Exit -> ());
    !cls
  end

let cap_class cap cls =
  match (cap, cls) with
  | `Binary, c -> c
  | `Nibble, Kernel.Binary -> Kernel.Nibble
  | `Nibble, c -> c
  | `Generic, _ -> Kernel.Generic

(* --- writes ----------------------------------------------------------- *)

let check_window t ~row_offset ~rows =
  if row_offset < 0 || rows < 1 || row_offset + rows > t.n_rows then
    invalid_arg
      (Printf.sprintf "Subarray: row window [%d, %d) out of [0, %d)"
         row_offset (row_offset + rows) t.n_rows)

let write t ?(row_offset = 0) ?care data =
  let n = Array.length data in
  check_window t ~row_offset ~rows:n;
  Array.iteri
    (fun i row ->
      if Array.length row > t.n_cols then
        invalid_arg "Subarray.write: row wider than the subarray";
      let r = row_offset + i in
      let base = r * t.n_cols in
      let all_care = ref true in
      Array.iteri
        (fun j v ->
          match care with
          | Some m when not m.(i).(j) ->
              all_care := false;
              Bytes.unsafe_set t.ck (base + j) k_dont_care
          | _ ->
              Bytes.unsafe_set t.ck (base + j) k_value;
              Array.unsafe_set t.clo (base + j) v)
        row;
      (* binary-packable rows are a subset of nibble-packable ones *)
      let nibble =
        !all_care
        && Kernel.pack_nibble_at ~cols:t.n_cols row t.npack ~off:(r * t.fnw)
      in
      let binary =
        nibble
        && Kernel.pack_binary_at ~cols:t.n_cols row t.bpack ~off:(r * t.fbw)
      in
      set_row_class t r
        (if binary then Kernel.Binary
         else if nibble then Kernel.Nibble
         else Kernel.Generic))
    data

let write_range t ~row_offset ~lo ~hi =
  let n = Array.length lo in
  if Array.length hi <> n then
    invalid_arg "Subarray.write_range: lo/hi row count mismatch";
  check_window t ~row_offset ~rows:n;
  Array.iteri
    (fun i lo_row ->
      let hi_row = hi.(i) in
      if Array.length lo_row <> Array.length hi_row then
        invalid_arg "Subarray.write_range: lo/hi width mismatch";
      let r = row_offset + i in
      let base = r * t.n_cols in
      Array.iteri
        (fun j l ->
          Bytes.set t.ck (base + j) k_range;
          t.clo.(base + j) <- l;
          t.chi.(base + j) <- hi_row.(j))
        lo_row;
      set_row_class t r Kernel.Generic)
    lo

let read_row t r =
  if r < 0 || r >= t.n_rows then invalid_arg "Subarray.read_row";
  let base = r * t.n_cols in
  Array.init t.n_cols (fun j ->
      match Bytes.unsafe_get t.ck (base + j) with
      | c when c = k_dont_care -> Float.nan
      | _ -> t.clo.(base + j))

(* --- scalar (generic) row kernels -------------------------------------- *)

(* All scalar kernels walk the flat cell storage from [base]; reads,
   float compares and the int/float accumulators allocate nothing. *)

let hamming_row t ~base query width =
  let ck = t.ck and clo = t.clo and chi = t.chi in
  let d = ref 0 in
  for j = 0 to width - 1 do
    match Bytes.unsafe_get ck (base + j) with
    | '\000' ->
        if Array.unsafe_get clo (base + j) <> Array.unsafe_get query j then
          incr d
    | '\001' -> ()
    | _ ->
        let q = Array.unsafe_get query j in
        if q < Array.unsafe_get clo (base + j)
           || q > Array.unsafe_get chi (base + j)
        then incr d
  done;
  float_of_int !d

let euclidean_row t ~base query width =
  let ck = t.ck and clo = t.clo and chi = t.chi in
  let d = ref 0. in
  for j = 0 to width - 1 do
    match Bytes.unsafe_get ck (base + j) with
    | '\000' ->
        let diff =
          Array.unsafe_get clo (base + j) -. Array.unsafe_get query j
        in
        d := !d +. (diff *. diff)
    | '\001' -> ()
    | _ ->
        let q = Array.unsafe_get query j in
        let lo = Array.unsafe_get clo (base + j) in
        if q < lo then d := !d +. ((lo -. q) *. (lo -. q))
        else begin
          let hi = Array.unsafe_get chi (base + j) in
          if q > hi then d := !d +. ((q -. hi) *. (q -. hi))
        end
  done;
  !d

(* Threshold variants: stop as soon as the running count/sum exceeds
   the threshold — both accumulators only grow (float addition of
   non-negative terms is monotone under rounding), so the match outcome
   is already decided. Results use the Kernel.th_* bit encoding (match,
   early) so a threshold sweep allocates no tuples. *)
let hamming_row_threshold t ~base query width ~threshold =
  let ck = t.ck and clo = t.clo and chi = t.chi in
  let d = ref 0 in
  let code = ref 0 in
  (try
     for j = 0 to width - 1 do
       (match Bytes.unsafe_get ck (base + j) with
       | '\000' ->
           if Array.unsafe_get clo (base + j) <> Array.unsafe_get query j
           then incr d
       | '\001' -> ()
       | _ ->
           let q = Array.unsafe_get query j in
           if q < Array.unsafe_get clo (base + j)
              || q > Array.unsafe_get chi (base + j)
           then incr d);
       if float_of_int !d > threshold then begin
         if j < width - 1 then code := Kernel.th_early;
         raise Exit
       end
     done
   with Exit -> ());
  if float_of_int !d <= threshold then !code lor Kernel.th_match else !code

let euclidean_row_threshold t ~base query width ~threshold =
  let ck = t.ck and clo = t.clo and chi = t.chi in
  let d = ref 0. in
  let code = ref 0 in
  (try
     for j = 0 to width - 1 do
       (match Bytes.unsafe_get ck (base + j) with
       | '\000' ->
           let diff =
             Array.unsafe_get clo (base + j) -. Array.unsafe_get query j
           in
           d := !d +. (diff *. diff)
       | '\001' -> ()
       | _ ->
           let q = Array.unsafe_get query j in
           let lo = Array.unsafe_get clo (base + j) in
           if q < lo then d := !d +. ((lo -. q) *. (lo -. q))
           else begin
             let hi = Array.unsafe_get chi (base + j) in
             if q > hi then d := !d +. ((q -. hi) *. (q -. hi))
           end);
       if !d > threshold then begin
         if j < width - 1 then code := Kernel.th_early;
         raise Exit
       end
     done
   with Exit -> ());
  if !d <= threshold then !code lor Kernel.th_match else !code

(* --- searches ---------------------------------------------------------- *)

(* Below this many distance evaluations a batch is dispatched
   sequentially: the pool's locking overhead would dominate. *)
let parallel_threshold = 256

(* Rows per block of the cache-blocked fast paths: a tile of queries
   sweeps one block at a time so its packed words stay hot. *)
let row_block = 128

(* Fold the per-query dispatch tallies into the stats ledger after the
   join (per-query slots, so parallel tiles never contend and the
   totals are identical for any jobs value). *)
let fold_counters stats (sc : Scratch.t) ~n =
  match stats with
  | None -> ()
  | Some (s : Stats.t) ->
      let sum a =
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := !acc + Array.unsafe_get a i
        done;
        !acc
      in
      s.n_kernel_binary <- s.n_kernel_binary + sum sc.Scratch.kb;
      s.n_kernel_nibble <- s.n_kernel_nibble + sum sc.Scratch.kn;
      s.n_kernel_generic <- s.n_kernel_generic + sum sc.Scratch.kg;
      s.n_kernel_early_exit <- s.n_kernel_early_exit + sum sc.Scratch.ke

(* Run [fill_tile qlo qhi] over the query batch, chunked into query
   tiles across the ambient pool when the batch is big enough. Tile
   geometry only affects the schedule: every result and counter slot
   is owned by its query index. *)
let dispatch_tiles ~q_count ~rows fill_tile =
  let j = Parallel.current_jobs () in
  if q_count * rows >= parallel_threshold && j > 1 then begin
    let tile = max 1 (q_count / (4 * j)) in
    let n_tiles = (q_count + tile - 1) / tile in
    Parallel.parallel_for ~lo:0 ~hi:n_tiles (fun ti ->
        fill_tile (ti * tile) (min q_count ((ti + 1) * tile)))
  end
  else fill_tile 0 q_count

let check_queries t queries =
  Array.iter
    (fun q ->
      if Array.length q > t.n_cols then
        invalid_arg "Subarray.search: query wider than the subarray")
    queries

(* The result matrix: a fresh allocation normally; the arena when the
   simulator turned on reuse and the geometry matches. Every slot is
   overwritten by the fill, so no zeroing is needed. *)
let acquire_results t ~q_count ~rows =
  if t.reuse_results && t.res_q = q_count && t.res_rows = rows then t.res
  else begin
    let m = Array.init q_count (fun _ -> Array.make rows 0.) in
    if t.reuse_results then begin
      t.res <- m;
      t.res_q <- q_count;
      t.res_rows <- rows
    end;
    m
  end

(* Classify the window and pack the queries — into the caller's
   [packs] when it owns the batch's packs, else into the domain's
   fallback slot. [None] when every row must take the scalar path
   (non-Hamming metric or a [`Generic] cap); otherwise the capped
   window class, the packs, and whether the binary tier may be used.
   All packing happens before the parallel region. *)
let classify ?packs t ~queries ~row_offset ~rows ~metric =
  let cap = t.kernel_cap in
  if metric <> `Hamming || cap = `Generic then None
  else begin
    let wcls = cap_class cap (window_class t ~row_offset ~rows) in
    let packs =
      match packs with
      | Some p ->
          Scratch.refresh p ~cols:t.n_cols queries;
          p
      | None -> Scratch.packs_for ~cols:t.n_cols queries
    in
    let use_b =
      cap = `Binary
      && (wcls = Kernel.Binary
         || (wcls = Kernel.Generic && t.n_class_binary > 0))
    in
    if use_b then Scratch.ensure_binary packs;
    Some (wcls, packs, use_b)
  end

(* Kernel.pop32, repeated so that it inlines into the loops below:
   the cross-module call costs more than the popcount itself. *)
let[@inline] pop32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

(* Binary Hamming distances of the packed query at [qoff] against the
   window rows [lo, hi), into [out]. The kernel is inlined and
   specialised for one payload word (cols <= 32: the second word of
   each pair is zero on both sides) and for two (cols <= 64); wider
   rows take Kernel.hamming_binary_flat. Distances are the same
   integers on every path. *)
let fill_binary t (pq : Kernel.flat) ~qoff ~row_offset ~lo ~hi
    (out : float array) =
  let bp = t.bpack and fbw = t.fbw in
  if t.n_cols <= 32 then begin
    let q0 = Array.unsafe_get pq qoff in
    for i = lo to hi - 1 do
      Array.unsafe_set out i
        (float_of_int
           (pop32 (q0 lxor Array.unsafe_get bp ((row_offset + i) * fbw))))
    done
  end
  else if fbw = 2 then begin
    let q0 = Array.unsafe_get pq qoff
    and q1 = Array.unsafe_get pq (qoff + 1) in
    for i = lo to hi - 1 do
      let r = (row_offset + i) * 2 in
      Array.unsafe_set out i
        (float_of_int
           (pop32 (q0 lxor Array.unsafe_get bp r)
           + pop32 (q1 lxor Array.unsafe_get bp (r + 1))))
    done
  end
  else
    for i = lo to hi - 1 do
      Array.unsafe_set out i
        (float_of_int
           (Kernel.hamming_binary_flat pq ~qoff bp
              ~roff:((row_offset + i) * fbw) ~iwords:fbw))
    done

let distances ?stats ?packs t ~queries ~row_offset ~rows ~metric =
  check_window t ~row_offset ~rows;
  check_queries t queries;
  let q_count = Array.length queries in
  let cls = classify ?packs t ~queries ~row_offset ~rows ~metric in
  let sc = Scratch.get () in
  Scratch.counters sc ~n:q_count;
  let kb = sc.Scratch.kb and kn = sc.Scratch.kn and kg = sc.Scratch.kg in
  let result = acquire_results t ~q_count ~rows in
  let fbw = t.fbw and fnw = t.fnw in
  let fill_tile qlo qhi =
    match cls with
    | Some (((Kernel.Binary | Kernel.Nibble) as wcls), packs, use_b) ->
        (* one whole-window kernel per query, cache-blocked over rows *)
        let b = ref 0 in
        while !b < rows do
          let hi = min rows (!b + row_block) in
          for qi = qlo to qhi - 1 do
            let out = result.(qi) in
            if
              wcls = Kernel.Binary && use_b
              && Bytes.unsafe_get packs.Scratch.bq_has qi = '\001'
            then begin
              kb.(qi) <- kb.(qi) + (hi - !b);
              fill_binary t packs.Scratch.bq ~qoff:(qi * fbw) ~row_offset
                ~lo:!b ~hi out
            end
            else if Bytes.unsafe_get packs.Scratch.nq_has qi = '\001' then begin
              kn.(qi) <- kn.(qi) + (hi - !b);
              let pq = packs.Scratch.nq and qoff = qi * fnw in
              for i = !b to hi - 1 do
                Array.unsafe_set out i
                  (float_of_int
                     (Kernel.hamming_nibble_flat pq ~qoff t.npack
                        ~roff:((row_offset + i) * fnw) ~iwords:fnw))
              done
            end
            else begin
              (* partial-width or unpackable query *)
              kg.(qi) <- kg.(qi) + (hi - !b);
              let query = queries.(qi) in
              let width = Array.length query in
              for i = !b to hi - 1 do
                out.(i) <-
                  hamming_row t ~base:((row_offset + i) * t.n_cols) query
                    width
              done
            end
          done;
          b := hi
        done
    | Some (Kernel.Generic, packs, use_b) ->
        (* mixed window: dispatch per row, packed rows still take their
           kernels when the query packs allow *)
        for qi = qlo to qhi - 1 do
          let query = queries.(qi) in
          let width = Array.length query in
          let out = result.(qi) in
          let has_bq =
            use_b && Bytes.unsafe_get packs.Scratch.bq_has qi = '\001'
          in
          let has_nq = Bytes.unsafe_get packs.Scratch.nq_has qi = '\001' in
          for i = 0 to rows - 1 do
            let r = row_offset + i in
            out.(i) <-
              (match Array.unsafe_get t.classes r with
              | Kernel.Binary when has_bq ->
                  kb.(qi) <- kb.(qi) + 1;
                  float_of_int
                    (Kernel.hamming_binary_flat packs.Scratch.bq
                       ~qoff:(qi * fbw) t.bpack ~roff:(r * fbw) ~iwords:fbw)
              | (Kernel.Binary | Kernel.Nibble) when has_nq ->
                  kn.(qi) <- kn.(qi) + 1;
                  float_of_int
                    (Kernel.hamming_nibble_flat packs.Scratch.nq
                       ~qoff:(qi * fnw) t.npack ~roff:(r * fnw) ~iwords:fnw)
              | _ ->
                  kg.(qi) <- kg.(qi) + 1;
                  hamming_row t ~base:(r * t.n_cols) query width)
          done
        done
    | None ->
        (* scalar everything: Euclidean, or a [`Generic] cap *)
        for qi = qlo to qhi - 1 do
          let query = queries.(qi) in
          let width = Array.length query in
          let out = result.(qi) in
          kg.(qi) <- kg.(qi) + rows;
          match metric with
          | `Euclidean ->
              for i = 0 to rows - 1 do
                out.(i) <-
                  euclidean_row t ~base:((row_offset + i) * t.n_cols) query
                    width
              done
          | `Hamming ->
              for i = 0 to rows - 1 do
                out.(i) <-
                  hamming_row t ~base:((row_offset + i) * t.n_cols) query
                    width
              done
        done
  in
  dispatch_tiles ~q_count ~rows fill_tile;
  fold_counters stats sc ~n:q_count;
  result

let search ?stats ?packs t ~queries ~row_offset ~rows ~metric =
  let result = distances ?stats ?packs t ~queries ~row_offset ~rows ~metric in
  t.last <- Some result;
  result

let search_range ?stats ?packs t ~queries ~row_offset ~rows =
  (* Range match is Hamming-style violation counting, which the generic
     path already implements through the [Range] cell case. *)
  search ?stats ?packs t ~queries ~row_offset ~rows ~metric:`Hamming

let search_threshold ?stats ?packs t ~queries ~row_offset ~rows ~metric
    ~threshold =
  check_window t ~row_offset ~rows;
  check_queries t queries;
  let q_count = Array.length queries in
  let cls = classify ?packs t ~queries ~row_offset ~rows ~metric in
  let sc = Scratch.get () in
  Scratch.counters sc ~n:q_count;
  let kb = sc.Scratch.kb
  and kn = sc.Scratch.kn
  and kg = sc.Scratch.kg
  and ke = sc.Scratch.ke in
  let matches = acquire_results t ~q_count ~rows in
  let fbw = t.fbw and fnw = t.fnw in
  let fill_tile qlo qhi =
    for qi = qlo to qhi - 1 do
      let query = queries.(qi) in
      let width = Array.length query in
      let out = matches.(qi) in
      let store i code =
        if code land Kernel.th_early <> 0 then ke.(qi) <- ke.(qi) + 1;
        out.(i) <- (if code land Kernel.th_match <> 0 then 1. else 0.)
      in
      match cls with
      | Some (Kernel.Binary, packs, use_b)
        when use_b && Bytes.unsafe_get packs.Scratch.bq_has qi = '\001' ->
          kb.(qi) <- kb.(qi) + rows;
          let pq = packs.Scratch.bq and qoff = qi * fbw in
          for i = 0 to rows - 1 do
            store i
              (Kernel.hamming_binary_flat_threshold pq ~qoff t.bpack
                 ~roff:((row_offset + i) * fbw) ~iwords:fbw ~threshold)
          done
      | Some (Kernel.Nibble, packs, _)
        when Bytes.unsafe_get packs.Scratch.nq_has qi = '\001' ->
          kn.(qi) <- kn.(qi) + rows;
          let pq = packs.Scratch.nq and qoff = qi * fnw in
          for i = 0 to rows - 1 do
            store i
              (Kernel.hamming_nibble_flat_threshold pq ~qoff t.npack
                 ~roff:((row_offset + i) * fnw) ~iwords:fnw ~threshold)
          done
      | _ ->
          (* Euclidean, mixed window, partial-width or unpackable
             query: the per-row packed kernels don't early-exit, so use
             the scalar threshold loop throughout — counters attribute
             these rows to the generic tier *)
          kg.(qi) <- kg.(qi) + rows;
          (match metric with
          | `Euclidean ->
              for i = 0 to rows - 1 do
                store i
                  (euclidean_row_threshold t
                     ~base:((row_offset + i) * t.n_cols) query width
                     ~threshold)
              done
          | `Hamming ->
              for i = 0 to rows - 1 do
                store i
                  (hamming_row_threshold t
                     ~base:((row_offset + i) * t.n_cols) query width
                     ~threshold)
              done)
    done
  in
  dispatch_tiles ~q_count ~rows fill_tile;
  fold_counters stats sc ~n:q_count;
  (* only the 0/1 match matrix is ever latched — the intermediate
     distances stay private to the kernels *)
  t.last <- Some matches;
  matches

let read t =
  match t.last with
  | Some r -> r
  | None -> invalid_arg "Subarray.read: no search has been performed"
