(* Per-domain scratch arenas for the simulator hot path.

   One record per domain (via DLS), grown to the high-water mark and
   reused, so steady-state serving — same batch geometry every time —
   performs no per-batch allocation here. Domain-local means worker
   domains never race on an arena: a search acquires the arenas on the
   domain that dispatches it, and the parallel row tiles only write
   per-query slots of arrays captured from that arena. *)

(* Packed forms of one query batch at one subarray width: flat
   binary/nibble packs plus per-query "packed" flags. Keyed on the
   batch's physical identity plus the width, so a record describes
   whatever batch it was last refreshed for. *)
type packs = {
  mutable p_queries : float array array;
  mutable p_cols : int;
  mutable nq : Kernel.flat; (* Array.length queries x fnwords_for cols *)
  mutable nq_has : Bytes.t; (* '\001' when the query packed *)
  mutable bq : Kernel.flat;
  mutable bq_has : Bytes.t;
  mutable bq_filled : bool; (* binary side is packed lazily *)
}

type t = {
  (* fallback pack slot for searches whose caller owns no packs *)
  slot : packs;
  (* per-query kernel-dispatch tally slots, zeroed on acquire *)
  mutable kb : int array;
  mutable kn : int array;
  mutable kg : int array;
  mutable ke : int array;
  (* top-k: selection-order buffer and result arenas *)
  mutable order : int array;
  mutable sel_q : int;
  mutable sel_k : int;
  mutable sel_values : float array array;
  mutable sel_indices : int array array;
}

let create_packs () =
  {
    p_queries = [||];
    p_cols = -1;
    nq = [||];
    nq_has = Bytes.empty;
    bq = [||];
    bq_has = Bytes.empty;
    bq_filled = false;
  }

let create () =
  {
    slot = create_packs ();
    kb = [||];
    kn = [||];
    kg = [||];
    ke = [||];
    order = [||];
    sel_q = -1;
    sel_k = -1;
    sel_values = [||];
    sel_indices = [||];
  }

let key : t Domain.DLS.key = Domain.DLS.new_key create
let get () = Domain.DLS.get key

let grow_ints a n = if Array.length a >= n then a else Array.make n 0

(* Make [p] describe [queries] at width [cols]: a hit when it already
   does (same batch, physically, and same width), otherwise the nibble
   side is repacked and the binary side marked unfilled. *)
let refresh p ~cols queries =
  if not (p.p_queries == queries && p.p_cols = cols) then begin
    let q = Array.length queries in
    let fnw = Kernel.fnwords_for cols in
    p.nq <- grow_ints p.nq (q * fnw);
    p.bq <- grow_ints p.bq (q * Kernel.fbwords_for cols);
    if Bytes.length p.nq_has < q then begin
      p.nq_has <- Bytes.make q '\000';
      p.bq_has <- Bytes.make q '\000'
    end;
    for qi = 0 to q - 1 do
      Bytes.unsafe_set p.nq_has qi
        (if Kernel.pack_nibble_at ~cols queries.(qi) p.nq ~off:(qi * fnw)
         then '\001'
         else '\000')
    done;
    p.bq_filled <- false;
    p.p_queries <- queries;
    p.p_cols <- cols
  end

let packs_for ~cols queries =
  let p = (get ()).slot in
  refresh p ~cols queries;
  p

(* Fill the binary packs for the current batch; a batch searched only
   against nibble windows never pays for them. *)
let ensure_binary p =
  if not p.bq_filled then begin
    let queries = p.p_queries and cols = p.p_cols in
    let fbw = Kernel.fbwords_for cols in
    for qi = 0 to Array.length queries - 1 do
      Bytes.unsafe_set p.bq_has qi
        (if Kernel.pack_binary_at ~cols queries.(qi) p.bq ~off:(qi * fbw)
         then '\001'
         else '\000')
    done;
    p.bq_filled <- true
  end

(* Zeroed per-query dispatch counters of at least [n] slots. *)
let counters t ~n =
  t.kb <- grow_ints t.kb n;
  t.kn <- grow_ints t.kn n;
  t.kg <- grow_ints t.kg n;
  t.ke <- grow_ints t.ke n;
  Array.fill t.kb 0 n 0;
  Array.fill t.kn 0 n 0;
  Array.fill t.kg 0 n 0;
  Array.fill t.ke 0 n 0

let order_buffer t ~n =
  t.order <- grow_ints t.order n;
  t.order

(* Top-k result arenas: reused while the (queries, k) geometry holds.
   Consumers copy the rows out at the API boundary (see
   Simulator.select_best). *)
let select_buffers t ~q ~k =
  if not (t.sel_q = q && t.sel_k = k) then begin
    t.sel_values <- Array.init q (fun _ -> Array.make k 0.);
    t.sel_indices <- Array.init q (fun _ -> Array.make k 0);
    t.sel_q <- q;
    t.sel_k <- k
  end;
  (t.sel_values, t.sel_indices)
