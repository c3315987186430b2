(* Runtime semantics shared by the two interpreter engines: the
   tree-walking reference path (Machine) and the closure-compiled
   threaded-code path (Compile). Everything here is engine-agnostic —
   value-level tensor math, the similarity scorers, the query-row cache
   and the per-dialect execution counters — so the differential
   guarantee "both engines byte-identical" reduces to the engines
   agreeing on dispatch, not on arithmetic. *)

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* ---------- per-dialect execution counters ---------------------------- *)

(* One slot per dialect the interpreter can meet; [n_ops_executed] is a
   deterministic, jobs-invariant proxy for interpreter work (wall-clock
   gating cannot give us that). Both engines bump a slot exactly once
   per executed op, terminators included. *)

let dialect_names =
  [| "arith"; "cam"; "cim"; "crossbar"; "func"; "memref"; "scf"; "torch";
     "other" |]

let n_dialects = Array.length dialect_names

(* Char-dispatch on the qualified name; interpreter op names always come
   from the dialects above, anything else lands in "other". *)
let dialect_index op_name =
  if String.length op_name < 2 then n_dialects - 1
  else
    match String.unsafe_get op_name 0 with
    | 'a' -> 0
    | 'c' -> (
        match String.unsafe_get op_name 1 with
        | 'a' -> 1
        | 'i' -> 2
        | _ -> 3)
    | 'f' -> 4
    | 'm' -> 5
    | 's' -> 6
    | 't' -> 7
    | _ -> n_dialects - 1

let fresh_counts () = Array.make n_dialects 0

(* Int sums commute, so merging per-chunk counters in any order is
   deterministic; a mutex around the merge only prevents lost updates. *)
let merge_counts ~into src =
  for i = 0 to n_dialects - 1 do
    into.(i) <- into.(i) + src.(i)
  done

let counts_list counts =
  let acc = ref [] in
  for i = n_dialects - 1 downto 0 do
    if counts.(i) > 0 then acc := (dialect_names.(i), counts.(i)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let total_count counts = Array.fold_left ( + ) 0 counts

(* ---------- outcome ---------------------------------------------------- *)

type outcome = {
  results : Rtval.t list;
  latency : float;
  ops_executed : (string * int) list;
      (** per-dialect executed-op counts, sorted by dialect name;
          identical across engines and for any jobs value *)
}

(* ---------- the query-row cache ---------------------------------------- *)

(* Rows extracted from recent query operands, keyed on the window
   geometry over a physical backing store. A partitioned search issues
   T cam.search ops over the same query buffer; each distinct window
   extracts its rows once, and its entry owns the packed forms of those
   rows, so the kernels pack each window once per refill instead of once
   per search. Entries carry the backing store so writes can invalidate
   them.

   Layout: a fixed-capacity ring with move-to-front on hit, replacing
   the former assoc list + List.filter. Tiled searches touch the same
   key T times in a row, so after the first probe the hit is entry 0 and
   the scan stops immediately instead of walking the whole list.

   The cache also holds the write generations (Camsim.Writegen) of the
   backings its owner registered with [track]: every write it hears of
   through [invalidate] or [invalidate_row] advances them, which lets a
   replayed cam.write_value of an unchanged window skip its compare. *)
module Qcache = struct
  (* Must cover one partitioned kernel's worth of distinct tile
     geometries: a 2048-column buffer split over 32-column subarrays is
     64 views, and a capacity below that thrashes — every batch misses
     every tile and re-extracts the whole buffer. Entries are a few
     dozen words each plus their packs, so the bound is about
     staleness, not memory. *)
  let capacity = 128

  (* An entry is keyed on the window geometry over a physical backing
     store — (backing, offset, shape, strides) — not on the [Rtval]
     box. A serving session keeps one persistent query buffer across
     batches, but each execution may wrap it in fresh view boxes
     ([memref.subview] builds a new record per run); geometry keying
     makes those hit, so the steady state re-extracts nothing. *)
  type entry = {
    e_back : float array; (* compared physically *)
    e_off : int;
    e_shape : int list;
    e_strides : int list; (* [] for tensors *)
    mutable e_rows : float array array;
    mutable e_stale : bool;
    (* packs of [e_rows]; an option built once, so passing it to the
       simulator's optional argument allocates nothing per search *)
    e_packs : Camsim.Scratch.packs option;
  }

  type t = {
    mutable len : int;
    mutable head : int; (* physical slot of logical entry 0 *)
    entries : entry option array;
    (* write generations of tracked backings, as the options handed to
       Simulator.write_view (built once, like [e_packs]) *)
    mutable gens : Camsim.Writegen.t option list;
  }

  let create () =
    { len = 0; head = 0; entries = Array.make capacity None; gens = [] }

  let rec gen_of gens (data : float array) =
    match gens with
    | [] -> None
    | (Some g as o) :: _ when Camsim.Writegen.backing g == data -> o
    | _ :: tl -> gen_of tl data

  let writegen t data = gen_of t.gens data

  let track t data ~row_len =
    match gen_of t.gens data with
    | Some _ -> ()
    | None -> t.gens <- Some (Camsim.Writegen.create data ~row_len) :: t.gens

  let clear t =
    t.len <- 0;
    t.head <- 0;
    (* release the cached arrays *)
    Array.fill t.entries 0 capacity None;
    (* the caller is about to write where this cache cannot see (the
       private caches of data-parallel loop chunks), so every tracked
       backing counts as written *)
    List.iter (Option.iter Camsim.Writegen.touch_all) t.gens

  let phys t i = (t.head + i) mod capacity
  let length t = t.len

  let matches e back off shape strides =
    e.e_back == back && e.e_off = off && e.e_shape = shape
    && e.e_strides = strides

  let find_geom t back off shape strides =
    let rec go i =
      if i >= t.len then -1
      else
        match t.entries.(phys t i) with
        | Some e when matches e back off shape strides -> i
        | _ -> go (i + 1)
    in
    go 0

  (* Logical position of the live entry for [v], or -1; a stale entry
     (backing written since it was cached) counts as absent. *)
  let position t (v : Rtval.t) =
    let probe back off shape strides =
      let i = find_geom t back off shape strides in
      if i < 0 then -1
      else
        match t.entries.(phys t i) with
        | Some e when not e.e_stale -> i
        | _ -> -1
    in
    match v with
    | Rtval.Buffer b ->
        probe b.Rtval.b_data b.Rtval.b_offset b.Rtval.b_shape
          b.Rtval.b_strides
    | Rtval.Tensor tn -> probe tn.Rtval.t_data 0 tn.Rtval.t_shape []
    | _ -> -1

  (* Move the hit at logical [i] to the front so the next probe for the
     same batch stops at entry 0, and return it. *)
  let promote t i =
    if i > 0 then begin
      let e = t.entries.(phys t i) in
      for j = i downto 1 do
        t.entries.(phys t j) <- t.entries.(phys t (j - 1))
      done;
      t.entries.(phys t 0) <- e
    end;
    match t.entries.(phys t 0) with Some e -> e | None -> assert false

  let insert t entry =
    t.head <- (t.head + capacity - 1) mod capacity;
    t.entries.(t.head) <- Some entry;
    if t.len < capacity then t.len <- t.len + 1

  (* Refresh a stale entry from the value's current contents. The rows
     get a fresh outer array (sharing the refilled row storage): pack
     records key on the outer array's physical identity, so the fresh
     spine is what tells the entry's packs — and the simulator's
     fallback slot — that the contents changed. The inner rows are
     refilled in place — per batch this allocates one small spine
     instead of the whole matrix. *)
  let refill e (v : Rtval.t) =
    match v with
    | Rtval.Buffer
        { b_shape = [ r; c ]; b_strides = [ s0; s1 ]; b_offset; b_data } ->
        let rows = Array.copy e.e_rows in
        for i = 0 to r - 1 do
          let row = rows.(i) in
          let base = b_offset + (i * s0) in
          for j = 0 to c - 1 do
            Array.unsafe_set row j (Array.unsafe_get b_data (base + (j * s1)))
          done
        done;
        e.e_rows <- rows
    | _ -> e.e_rows <- Rtval.to_rows v

  (* The live entry for [v]'s window geometry over [back]: a hit
     (refilled first when stale) or a fresh insertion. *)
  let entry t (v : Rtval.t) back off shape strides =
    let i = find_geom t back off shape strides in
    if i >= 0 then begin
      let e = promote t i in
      if e.e_stale then begin
        refill e v;
        e.e_stale <- false
      end;
      e
    end
    else begin
      let e =
        {
          e_back = back;
          e_off = off;
          e_shape = shape;
          e_strides = strides;
          e_rows = Rtval.to_rows v;
          e_stale = false;
          e_packs = Some (Camsim.Scratch.create_packs ());
        }
      in
      insert t e;
      e
    end

  (* The entry for [v]: cached when [v] has a float-array backing;
     scalars and handles get an uncached one-off entry (and no packs)
     so their failure surfaces from [Rtval.to_rows] as before. *)
  let entry_of t (v : Rtval.t) =
    match v with
    | Rtval.Buffer b ->
        entry t v b.Rtval.b_data b.Rtval.b_offset b.Rtval.b_shape
          b.Rtval.b_strides
    | Rtval.Tensor tn -> entry t v tn.Rtval.t_data 0 tn.Rtval.t_shape []
    | _ ->
        {
          e_back = [||];
          e_off = 0;
          e_shape = [];
          e_strides = [];
          e_rows = Rtval.to_rows v;
          e_stale = false;
          e_packs = None;
        }

  (* Like [Rtval.to_rows], but memoized on the value's window geometry
     so repeated searches over one query batch share the extracted
     arrays. *)
  let rows_cached t (v : Rtval.t) = (entry_of t v).e_rows

  let mark_stale t (data : float array) =
    for i = 0 to t.len - 1 do
      match t.entries.(phys t i) with
      | Some e when e.e_back == data -> e.e_stale <- true
      | _ -> ()
    done

  (* Mark cache entries whose backing store was just written. Stale
     entries keep their slot and row storage — the next hit refills in
     place — so a session's steady write-then-search cycle neither
     churns entries nor reallocates row matrices. *)
  let invalidate t (data : float array) =
    mark_stale t data;
    match gen_of t.gens data with
    | Some g -> Camsim.Writegen.touch_all g
    | None -> ()

  let invalidate_row t (data : float array) ~row =
    mark_stale t data;
    match gen_of t.gens data with
    | Some g -> Camsim.Writegen.touch_row g row
    | None -> ()
end

(* ---------- scf.parallel analysis predicates -------------------------- *)

(* Structural building blocks of the independence analysis, shared so
   the tree-walker's runtime check and the compiler's compile-time
   check classify exactly the same bodies. *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let allowed_op name =
  has_prefix "arith." name
  || List.mem name
       [
         "memref.load"; "memref.store"; "memref.subview"; "memref.alloc";
         "scf.yield"; "scf.for"; "scf.if"; "scf.parallel";
       ]

let rec collect_ops acc (r : Ir.Op.region) =
  List.fold_left
    (fun acc (blk : Ir.Op.block) ->
      List.fold_left
        (fun acc (op : Ir.Op.t) ->
          List.fold_left collect_ops (op :: acc) op.regions)
        acc blk.body)
    acc r.blocks

(* ---------- torch-level helpers (value semantics) -------------------- *)

let norm_dim rank d = if d < 0 then rank + d else d

let transpose_t (t : Rtval.tensor) d0 d1 =
  let rank = List.length t.t_shape in
  let d0 = norm_dim rank d0 and d1 = norm_dim rank d1 in
  let shape = Array.of_list t.t_shape in
  let out_shape = Array.copy shape in
  out_shape.(d0) <- shape.(d1);
  out_shape.(d1) <- shape.(d0);
  let in_strides = Array.of_list (Rtval.row_major_strides t.t_shape) in
  let out_shape_l = Array.to_list out_shape in
  let out = Array.make (Rtval.numel out_shape_l) 0. in
  let idx = Array.make rank 0 in
  let n = Array.length out in
  let rec fill pos linear =
    if pos = rank then begin
      (* map output index to input index by swapping d0/d1 *)
      let src = ref 0 in
      for k = 0 to rank - 1 do
        let i =
          if k = d0 then idx.(d1) else if k = d1 then idx.(d0) else idx.(k)
        in
        src := !src + (in_strides.(k) * i)
      done;
      out.(linear) <- t.t_data.(!src)
    end
    else
      for i = 0 to out_shape.(pos) - 1 do
        idx.(pos) <- i;
        fill (pos + 1) ((linear * out_shape.(pos)) + i)
      done
  in
  if n > 0 then fill 0 0;
  { Rtval.t_shape = out_shape_l; t_data = out }

let matmul_t (a : Rtval.tensor) (b : Rtval.tensor) =
  match (a.t_shape, b.t_shape) with
  | [ m; k ], [ k'; n ] when k = k' ->
      let out = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        for l = 0 to k - 1 do
          let av = a.t_data.((i * k) + l) in
          if av <> 0. then
            for j = 0 to n - 1 do
              out.((i * n) + j) <-
                out.((i * n) + j) +. (av *. b.t_data.((l * n) + j))
            done
        done
      done;
      { Rtval.t_shape = [ m; n ]; t_data = out }
  | _ -> fail "matmul: rank-2 shapes required"

let ew2 name f (a : Rtval.tensor) (b : Rtval.tensor) =
  match (a.t_shape, b.t_shape) with
  | s1, s2 when s1 = s2 ->
      {
        Rtval.t_shape = s1;
        t_data = Array.mapi (fun i x -> f x b.t_data.(i)) a.t_data;
      }
  | [ n; d ], [ 1; d' ] when d = d' ->
      let out = Array.make (n * d) 0. in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          out.((i * d) + j) <- f a.t_data.((i * d) + j) b.t_data.(j)
        done
      done;
      { Rtval.t_shape = [ n; d ]; t_data = out }
  | [ 1; d ], [ n; d' ] when d = d' ->
      let out = Array.make (n * d) 0. in
      for i = 0 to n - 1 do
        for j = 0 to d - 1 do
          out.((i * d) + j) <- f a.t_data.(j) b.t_data.((i * d) + j)
        done
      done;
      { Rtval.t_shape = [ n; d ]; t_data = out }
  | [ q; 1; d ], [ n; d' ] when d = d' ->
      (* batched KNN broadcast: [Q,1,D] op [N,D] -> [Q,N,D] *)
      let out = Array.make (q * n * d) 0. in
      for qi = 0 to q - 1 do
        for i = 0 to n - 1 do
          for j = 0 to d - 1 do
            out.((((qi * n) + i) * d) + j) <-
              f a.t_data.((qi * d) + j) b.t_data.((i * d) + j)
          done
        done
      done;
      { Rtval.t_shape = [ q; n; d ]; t_data = out }
  | [ q; n ], [ q'; 1 ] when q = q' ->
      let out = Array.make (q * n) 0. in
      for i = 0 to q - 1 do
        for j = 0 to n - 1 do
          out.((i * n) + j) <- f a.t_data.((i * n) + j) b.t_data.(i)
        done
      done;
      { Rtval.t_shape = [ q; n ]; t_data = out }
  | [ q; n ], [ 1; n' ] when n = n' ->
      let out = Array.make (q * n) 0. in
      for i = 0 to q - 1 do
        for j = 0 to n - 1 do
          out.((i * n) + j) <- f a.t_data.((i * n) + j) b.t_data.(j)
        done
      done;
      { Rtval.t_shape = [ q; n ]; t_data = out }
  | _ -> fail "%s: unsupported broadcast" name

(* fused cosine division: x / (nq[i] * ns[j]) *)
let div3_t (x : Rtval.tensor) (nq : Rtval.tensor) (ns : Rtval.tensor) =
  let q, n =
    match x.t_shape with
    | [ q; n ] -> (q, n)
    | _ -> fail "div3: rank-2 scores required"
  in
  if Array.length nq.t_data <> q || Array.length ns.t_data <> n then
    fail "div3: norm lengths disagree with the score matrix";
  let out = Array.make (q * n) 0. in
  for i = 0 to q - 1 do
    for j = 0 to n - 1 do
      out.((i * n) + j) <-
        x.t_data.((i * n) + j) /. (nq.t_data.(i) *. ns.t_data.(j))
    done
  done;
  { Rtval.t_shape = [ q; n ]; t_data = out }

let norm_t (t : Rtval.tensor) ~p ~dim ~keepdim =
  let rank = List.length t.t_shape in
  let dim = norm_dim rank dim in
  let shape = Array.of_list t.t_shape in
  let outer = ref 1 and inner = ref 1 in
  for i = 0 to dim - 1 do
    outer := !outer * shape.(i)
  done;
  for i = dim + 1 to rank - 1 do
    inner := !inner * shape.(i)
  done;
  let d = shape.(dim) in
  let out = Array.make (!outer * !inner) 0. in
  let pf = float_of_int p in
  for o = 0 to !outer - 1 do
    for i = 0 to !inner - 1 do
      let acc = ref 0. in
      for l = 0 to d - 1 do
        let v = Float.abs t.t_data.((((o * d) + l) * !inner) + i) in
        acc := !acc +. (v ** pf)
      done;
      out.((o * !inner) + i) <- !acc ** (1. /. pf)
    done
  done;
  let out_shape =
    List.concat
      (List.mapi
         (fun i s ->
           if i = dim then if keepdim then [ 1 ] else [] else [ s ])
         (Array.to_list shape))
  in
  { Rtval.t_shape = out_shape; t_data = out }

let topk_t (t : Rtval.tensor) ~k ~dim ~largest =
  let rank = List.length t.t_shape in
  let dim = norm_dim rank dim in
  if dim <> rank - 1 then fail "topk: only the last dimension is supported";
  let rows, n =
    match t.t_shape with
    | [ n ] -> (1, n)
    | [ r; n ] -> (r, n)
    | _ -> fail "topk: rank-1 or rank-2 tensor required"
  in
  let values = Array.make (rows * k) 0. in
  let indices = Array.make (rows * k) 0. in
  for r = 0 to rows - 1 do
    let slice = Array.sub t.t_data (r * n) n in
    let cmp a b =
      let va = slice.(a) and vb = slice.(b) in
      let c = if largest then compare vb va else compare va vb in
      if c <> 0 then c else compare a b
    in
    (* partial selection: the index-tiebreak makes cmp a total order,
       so this equals the full-sort prefix at O(n*k) *)
    let order = Camsim.Topk.select ~n ~k ~cmp in
    for j = 0 to k - 1 do
      values.((r * k) + j) <- slice.(order.(j));
      indices.((r * k) + j) <- float_of_int order.(j)
    done
  done;
  let out_shape =
    match t.t_shape with [ _ ] -> [ k ] | _ -> [ rows; k ]
  in
  ( { Rtval.t_shape = out_shape; t_data = values },
    { Rtval.t_shape = out_shape; t_data = indices } )

(* Similarity scores at the cim software level. *)
let rec scores_of metric (query : float array array) (stored : float array array)
    =
  match metric with
  | Dialects.Cim.Hamming -> hamming_scores query stored
  | _ ->
      let q = Array.length query and n = Array.length stored in
      let out = Array.make_matrix q n 0. in
      for i = 0 to q - 1 do
        for j = 0 to n - 1 do
          out.(i).(j) <-
            (match metric with
            | Dialects.Cim.Dot -> dot_arrays query.(i) stored.(j)
            | Dialects.Cim.Cosine -> cosine_arrays query.(i) stored.(j)
            | Dialects.Cim.Euclidean -> eucl_sq_arrays query.(i) stored.(j)
            | Dialects.Cim.Hamming -> hamming_arrays query.(i) stored.(j))
        done
      done;
      out

(* Hamming mirrors the subarray kernel tiers (docs/KERNELS.md): each
   row packs once per batch, pairs of equal width sharing a tier go
   through the bit-packed kernels, everything else falls back to the
   scalar loop. The packed counts equal the scalar mismatch counts
   bit-for-bit, so results never depend on the dispatch. *)
and hamming_scores query stored =
  let pack rows =
    Array.map
      (fun r ->
        let cols = Array.length r in
        ( cols,
          Camsim.Kernel.pack_binary ~cols r,
          Camsim.Kernel.pack_nibble ~cols r ))
      rows
  in
  let qp = pack query and sp = pack stored in
  let q = Array.length query and n = Array.length stored in
  let out = Array.make_matrix q n 0. in
  for i = 0 to q - 1 do
    let qc, qb, qn = qp.(i) in
    for j = 0 to n - 1 do
      let sc, sb, sn = sp.(j) in
      out.(i).(j) <-
        (if qc <> sc then hamming_arrays query.(i) stored.(j)
         else
           match (qb, sb) with
           | Some a, Some b ->
               float_of_int
                 (Camsim.Kernel.hamming_binary a b
                    ~words:(Camsim.Kernel.bwords_for qc))
           | _ -> (
               match (qn, sn) with
               | Some a, Some b ->
                   float_of_int
                     (Camsim.Kernel.hamming_nibble a b
                        ~words:(Camsim.Kernel.nwords_for qc))
               | _ -> hamming_arrays query.(i) stored.(j)))
    done
  done;
  out

and dot_arrays a b =
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

and eucl_sq_arrays a b =
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    s := !s +. (d *. d)
  done;
  !s

and hamming_arrays a b =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> b.(i) then incr s
  done;
  float_of_int !s

and cosine_arrays a b =
  let d = dot_arrays a b in
  let na = sqrt (dot_arrays a a) and nb = sqrt (dot_arrays b b) in
  if na = 0. || nb = 0. then 0. else d /. (na *. nb)

let topk_rows matrix ~k ~largest =
  let q = Array.length matrix in
  let values = Array.make_matrix q k 0. in
  let indices = Array.make_matrix q k 0. in
  for i = 0 to q - 1 do
    let row = matrix.(i) in
    let n = Array.length row in
    let cmp a b =
      let va = row.(a) and vb = row.(b) in
      let c = if largest then compare vb va else compare va vb in
      if c <> 0 then c else compare a b
    in
    let order = Camsim.Topk.select ~n ~k ~cmp in
    for j = 0 to k - 1 do
      values.(i).(j) <- row.(order.(j));
      indices.(i).(j) <- float_of_int order.(j)
    done
  done;
  (values, indices)

(* ---------- cim / cam structural helpers ------------------------------- *)

let merge_horizontal (a : Rtval.tensor) (b : Rtval.tensor) =
  {
    a with
    Rtval.t_data = Array.mapi (fun i x -> x +. b.Rtval.t_data.(i)) a.Rtval.t_data;
  }

let merge_vertical (g : Rtval.tensor) (part : Rtval.tensor) ~offset =
  let q, n =
    match g.t_shape with
    | [ q; n ] -> (q, n)
    | _ -> fail "merge vertical: rank-2 global"
  in
  let pn =
    match part.t_shape with
    | [ _; pn ] -> pn
    | _ -> fail "merge vertical: rank-2 partial"
  in
  let out = Array.copy g.t_data in
  for i = 0 to q - 1 do
    for j = 0 to pn - 1 do
      out.((i * n) + offset + j) <- part.t_data.((i * pn) + j)
    done
  done;
  { Rtval.t_shape = [ q; n ]; t_data = out }

let slice_t (x : Rtval.tensor) ~offsets ~sizes =
  match (x.Rtval.t_shape, offsets, sizes) with
  | [ _; c ], [ o0; o1 ], [ s0; s1 ] ->
      let out = Array.make (s0 * s1) 0. in
      for i = 0 to s0 - 1 do
        Array.blit x.t_data (((o0 + i) * c) + o1) out (i * s1) s1
      done;
      { Rtval.t_shape = [ s0; s1 ]; t_data = out }
  | _ -> fail "slice: rank-2 tensors only"

(* in-place elementwise accumulate of two equally-shaped rank-2 buffers
   (cam.merge_partial / crossbar.accumulate) *)
let buffer_accumulate what (dst : Rtval.buffer) (part : Rtval.buffer) =
  match (dst.b_shape, part.b_shape, dst.b_strides, part.b_strides) with
  | [ q; r ], [ q'; r' ], [ ds0; ds1 ], [ ps0; ps1 ] when q = q' && r = r' ->
      (* direct stride math: the [buffer_get]/[buffer_set] index lists
         would allocate 6 words per element on this hot path *)
      let dd = dst.b_data and pd = part.b_data in
      for i = 0 to q - 1 do
        let db = dst.b_offset + (i * ds0) and pb = part.b_offset + (i * ps0) in
        for j = 0 to r - 1 do
          let di = db + (j * ds1) in
          Array.unsafe_set dd di
            (Array.unsafe_get dd di
            +. Array.unsafe_get pd (pb + (j * ps1)))
        done
      done
  | _ -> fail "%s: shape mismatch" what

(* [buffer_accumulate] with the part given as rows — a subarray's
   latched match-line matrix, read in place by the fused
   cam.read→cam.merge_partial pair; same shape check, same additions
   in the same order *)
let rows_accumulate what (dst : Rtval.buffer) (rows : float array array) =
  let q' = Array.length rows in
  let r' = if q' = 0 then 0 else Array.length rows.(0) in
  match (dst.b_shape, dst.b_strides) with
  | [ q; r ], [ ds0; ds1 ] when q = q' && r = r' ->
      let dd = dst.b_data in
      for i = 0 to q - 1 do
        let db = dst.b_offset + (i * ds0) and row = rows.(i) in
        for j = 0 to r - 1 do
          let di = db + (j * ds1) in
          Array.unsafe_set dd di (Array.unsafe_get dd di +. row.(j))
        done
      done
  | _ -> fail "%s: shape mismatch" what

(* cam.write dispatch shared by the engines: rank-2 buffers and tensors
   hand the simulator a strided window over their storage instead of
   materialized rows, so a replayed unchanged write (the steady state
   of a serving session) allocates nothing — and, over a backing the
   cache tracks, skips its compare while the window's rows are
   unwritten. *)
let cam_write qcache sim handle ~row_offset (v : Rtval.t) =
  match v with
  | Rtval.Buffer
      { b_shape = [ rows; cols ]; b_strides = [ s0; s1 ]; b_offset; b_data }
    ->
      Camsim.Simulator.write_view
        ?gen:(Qcache.writegen qcache b_data)
        sim handle ~row_offset ~rows ~cols b_data ~off:b_offset ~rs:s0 ~cs:s1
  | Rtval.Tensor { t_shape = [ rows; cols ]; t_data } ->
      Camsim.Simulator.write_view sim handle ~row_offset ~rows ~cols t_data
        ~off:0 ~rs:cols ~cs:1
  | _ -> Camsim.Simulator.write sim handle ~row_offset (Rtval.to_rows v)

(* cam.search dispatch shared by the engines: the query operand's rows
   and their packs come from the cache entry of its window, so a window
   searched by many tiles is extracted and packed once per refill. *)
let cam_search qcache sim handle (v : Rtval.t) ~row_offset ~rows ~kind
    ~metric ?batch_extra ?threshold () =
  let e = Qcache.entry_of qcache v in
  Camsim.Simulator.search sim handle ~queries:e.Qcache.e_rows ~row_offset
    ~rows ~kind ~metric ?batch_extra ?threshold ?packs:e.Qcache.e_packs ()

let scalar_of what (v : Rtval.t) =
  match v with
  | Rtval.Scalar f -> f
  | Rtval.Index n -> float_of_int n
  | _ -> fail "%s: expected a scalar" what
