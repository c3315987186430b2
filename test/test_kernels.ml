(* Tiered distance kernels (docs/KERNELS.md): the packed binary/nibble
   kernels against the scalar reference, write-time row classification,
   cap-differential equality on randomized mixed-class contents, stats
   invariance across jobs values, and executor agreement. *)

module K = Camsim.Kernel
module S = Camsim.Subarray

(* exact structural equality — the kernel contract is byte-identical
   results, not epsilon-close ones *)
let check_exact name want got =
  Alcotest.(check bool) (name ^ " byte-identical") true (want = got)

(* ---- the packed primitives -------------------------------------------- *)

let naive_popcount w =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical w i) 1L = 1L then incr c
  done;
  !c

let test_popcount () =
  Alcotest.(check int) "zero" 0 (K.popcount64 0L);
  Alcotest.(check int) "all ones" 64 (K.popcount64 (-1L));
  Alcotest.(check int) "one bit" 1 (K.popcount64 Int64.min_int);
  let rng = Rng.create 17 in
  for _ = 1 to 500 do
    let w = Rng.next_int64 rng in
    Alcotest.(check int) "random word" (naive_popcount w) (K.popcount64 w)
  done

let test_packability () =
  Alcotest.(check bool) "15 packs" true (K.nibble_packable 15.);
  Alcotest.(check bool) "16 does not" false (K.nibble_packable 16.);
  Alcotest.(check bool) "negative does not" false (K.nibble_packable (-1.));
  Alcotest.(check bool) "fraction does not" false (K.nibble_packable 0.5);
  Alcotest.(check bool) "nan does not" false (K.nibble_packable Float.nan);
  Alcotest.(check bool) "neg zero packs" true (K.nibble_packable (-0.));
  let binary = [| 0.; 1.; 1.; 0. |] in
  Alcotest.(check bool) "binary row packs both ways" true
    (K.pack_binary ~cols:4 binary <> None
    && K.pack_nibble ~cols:4 binary <> None);
  Alcotest.(check bool) "width mismatch rejected" true
    (K.pack_binary ~cols:5 binary = None && K.pack_nibble ~cols:5 binary = None);
  Alcotest.(check bool) "nibble row is not binary" true
    (K.pack_binary ~cols:2 [| 1.; 7. |] = None
    && K.pack_nibble ~cols:2 [| 1.; 7. |] <> None)

let scalar_hamming a b =
  let d = ref 0 in
  Array.iteri (fun i v -> if v <> b.(i) then incr d) a;
  !d

let prop_packed_hamming ~maxval =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "packed hamming = scalar (values < %d)" maxval)
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 130)
           (pair (list (int_range 0 (maxval - 1))) int)))
    (fun (cols, (seed_vals, seed)) ->
      ignore seed_vals;
      let rng = Rng.create seed in
      let mk () =
        Array.init cols (fun _ -> float_of_int (Rng.int rng maxval))
      in
      let a = mk () and b = mk () in
      let want = scalar_hamming a b in
      let packed =
        if maxval = 2 then
          match (K.pack_binary ~cols a, K.pack_binary ~cols b) with
          | Some pa, Some pb ->
              K.hamming_binary pa pb ~words:(K.bwords_for cols)
          | _ -> -1
        else
          match (K.pack_nibble ~cols a, K.pack_nibble ~cols b) with
          | Some pa, Some pb ->
              K.hamming_nibble pa pb ~words:(K.nwords_for cols)
          | _ -> -1
      in
      packed = want)

let prop_threshold_kernels =
  QCheck.Test.make ~count:300 ~name:"threshold kernels decide like the full distance"
    (QCheck.make QCheck.Gen.(pair (int_range 1 100) (pair int (int_range 0 40))))
    (fun (cols, (seed, th)) ->
      let threshold = float_of_int th in
      let rng = Rng.create seed in
      let mk m = Array.init cols (fun _ -> float_of_int (Rng.int rng m)) in
      let a2 = mk 2 and b2 = mk 2 in
      let a16 = mk 16 and b16 = mk 16 in
      let bin =
        match (K.pack_binary ~cols a2, K.pack_binary ~cols b2) with
        | Some pa, Some pb ->
            let words = K.bwords_for cols in
            let m, _early = K.hamming_binary_threshold pa pb ~words ~threshold in
            m = (K.hamming_binary pa pb ~words <= int_of_float threshold)
        | _ -> false
      in
      let nib =
        match (K.pack_nibble ~cols a16, K.pack_nibble ~cols b16) with
        | Some pa, Some pb ->
            let words = K.nwords_for cols in
            let m, _early = K.hamming_nibble_threshold pa pb ~words ~threshold in
            m = (K.hamming_nibble pa pb ~words <= int_of_float threshold)
        | _ -> false
      in
      bin && nib)

(* ---- every binary width, deterministically ------------------------------ *)

(* The binary window fill inlines its kernel, specialised for one
   payload word (cols <= 32) and two (cols <= 64), with the general
   flat loop above that. Every width from 1 to 130 — each word
   boundary and both sides of it — must give the scalar kernel's
   distances ([`Generic] cap, i.e. hamming_row) and a naive count, on
   full and offset windows, through the domain's fallback pack slot
   and through a caller-owned pack record that is refreshed when the
   batch changes. A random width sample can miss one specialisation. *)
let test_binary_widths () =
  let rng = Rng.create 41 in
  let bits n cols =
    Array.init n (fun _ -> Array.init cols (fun _ -> float (Rng.int rng 2)))
  in
  for cols = 1 to 130 do
    let n_rows = 40 in
    let sub = S.create ~rows:n_rows ~cols ~bits:1 in
    let stored = bits n_rows cols in
    S.write sub stored;
    let packs = Camsim.Scratch.create_packs () in
    List.iter
      (fun (row_offset, rows) ->
        (* two batches through the same pack record: the second must
           not be scored with the first one's packs *)
        List.iter
          (fun queries ->
            let what =
              Printf.sprintf "cols %d window [%d, %d)" cols row_offset
                (row_offset + rows)
            in
            let naive =
              Array.map
                (fun q ->
                  Array.init rows (fun i ->
                      float (scalar_hamming q stored.(row_offset + i))))
                queries
            in
            let scalar =
              S.with_kernel_cap sub `Generic (fun () ->
                  S.search sub ~queries ~row_offset ~rows ~metric:`Hamming)
            in
            check_exact (what ^ " scalar") naive scalar;
            let stats = Camsim.Stats.create () in
            let slot =
              S.search ~stats sub ~queries ~row_offset ~rows ~metric:`Hamming
            in
            check_exact (what ^ " fallback slot") naive slot;
            Alcotest.(check int) (what ^ " binary tier")
              (Array.length queries * rows) stats.n_kernel_binary;
            let owned =
              S.search ~packs sub ~queries ~row_offset ~rows ~metric:`Hamming
            in
            check_exact (what ^ " owned packs") naive owned)
          [ bits 5 cols; bits 5 cols ])
      [ (0, n_rows); (3, 17) ]
  done

(* ---- write-time classification ---------------------------------------- *)

let test_classification () =
  let s = S.create ~rows:6 ~cols:8 ~bits:4 in
  check_exact "fresh subarray all generic" (0, 0, 6) (S.class_counts s);
  let row v = Array.make 8 v in
  S.write s [| row 0.; row 1. |];
  check_exact "binary rows" (2, 0, 4) (S.class_counts s);
  S.write s ~row_offset:2 [| row 7. |];
  check_exact "nibble row" (2, 1, 3) (S.class_counts s);
  S.write s ~row_offset:3 [| row 0.5 |];
  check_exact "float row stays generic" (2, 1, 3) (S.class_counts s);
  S.write_range s ~row_offset:4 ~lo:[| row 0. |] ~hi:[| row 3. |];
  check_exact "range row stays generic" (2, 1, 3) (S.class_counts s);
  S.write s ~row_offset:5 ~care:[| Array.make 8 false |] [| row 1. |];
  check_exact "dont-care row stays generic" (2, 1, 3) (S.class_counts s);
  (* reclassification on overwrite *)
  S.write s ~row_offset:2 [| row 1. |];
  check_exact "nibble promoted to binary" (3, 0, 3) (S.class_counts s);
  S.write s [| Array.sub (row 1.) 0 4 |];
  check_exact "partial-width row demoted to generic" (2, 0, 4)
    (S.class_counts s)

(* ---- cap differential on randomized mixed-class contents -------------- *)

(* One subarray per row-class mix, identical contents searched at cap
   [`Binary] (full dispatch) and cap [`Generic] (scalar path): search,
   search_range and search_threshold must agree exactly, for full and
   partial-width queries, on every latch. *)
let mixed_subarray rng ~rows ~cols =
  let s = S.create ~rows ~cols ~bits:4 in
  for r = 0 to rows - 1 do
    match Rng.int rng 5 with
    | 0 ->
        S.write s ~row_offset:r
          [| Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) |]
    | 1 ->
        S.write s ~row_offset:r
          [| Array.init cols (fun _ -> float_of_int (Rng.int rng 16)) |]
    | 2 ->
        S.write s ~row_offset:r
          [| Array.init cols (fun _ -> Rng.gaussian rng) |]
    | 3 ->
        S.write s ~row_offset:r
          ~care:[| Array.init cols (fun _ -> Rng.bool rng 0.7) |]
          [| Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) |]
    | _ ->
        let lo = Array.init cols (fun _ -> float_of_int (Rng.int rng 8)) in
        let hi = Array.map (fun l -> l +. float_of_int (Rng.int rng 8)) lo in
        S.write_range s ~row_offset:r ~lo:[| lo |] ~hi:[| hi |]
  done;
  s

let mixed_queries rng ~n ~cols =
  Array.init n (fun i ->
      let width = if i mod 4 = 3 then 1 + Rng.int rng (cols - 1) else cols in
      match Rng.int rng 3 with
      | 0 -> Array.init width (fun _ -> float_of_int (Rng.int rng 2))
      | 1 -> Array.init width (fun _ -> float_of_int (Rng.int rng 16))
      | _ -> Array.init width (fun _ -> Rng.gaussian rng))

let test_cap_differential () =
  let rng = Rng.create 9001 in
  for trial = 0 to 11 do
    let rng = Rng.split rng trial in
    let rows = 4 + Rng.int rng 28 and cols = 1 + Rng.int rng 90 in
    let s = mixed_subarray rng ~rows ~cols in
    let queries = mixed_queries rng ~n:(2 + Rng.int rng 8) ~cols in
    let row_offset = Rng.int rng rows in
    let win = 1 + Rng.int rng (rows - row_offset) in
    let on_caps f =
      let run cap =
        S.with_kernel_cap s cap (fun () ->
            let r = f () in
            (r, S.read s))
      in
      let want = run `Generic in
      List.iter
        (fun cap ->
          check_exact
            (Printf.sprintf "trial %d cap differential" trial)
            want (run cap))
        [ `Nibble; `Binary ]
    in
    List.iter
      (fun metric ->
        on_caps (fun () ->
            S.search s ~queries ~row_offset ~rows:win ~metric);
        List.iter
          (fun threshold ->
            on_caps (fun () ->
                S.search_threshold s ~queries ~row_offset ~rows:win ~metric
                  ~threshold))
          [ 0.; 2.5; float_of_int (cols / 2); float_of_int cols ])
      [ `Hamming; `Euclidean ];
    on_caps (fun () -> S.search_range s ~queries ~row_offset ~rows:win)
  done

(* Flat-storage coherence across overwrites: the packed row buffers and
   class summary are updated in place on every write, so rewriting rows
   with different classes mid-stream must keep every kernel tier in
   exact agreement with the scalar reference — across jobs values, for
   all three search flavours. *)
let test_rewrite_differential () =
  List.iter
    (fun jobs ->
      Parallel.run ~jobs @@ fun _pool ->
      let rng = Rng.create (31337 + jobs) in
      for trial = 0 to 7 do
        let rng = Rng.split rng trial in
        let rows = 4 + Rng.int rng 28 and cols = 1 + Rng.int rng 90 in
        let s = mixed_subarray rng ~rows ~cols in
        let queries = mixed_queries rng ~n:(2 + Rng.int rng 8) ~cols in
        let check name f =
          let want = S.with_kernel_cap s `Generic f in
          check_exact (Printf.sprintf "%s jobs %d trial %d" name jobs trial)
            want (f ())
        in
        let sweep () =
          check "search" (fun () ->
              S.search s ~queries ~row_offset:0 ~rows ~metric:`Hamming);
          check "range" (fun () ->
              S.search_range s ~queries ~row_offset:0 ~rows);
          check "threshold" (fun () ->
              S.search_threshold s ~queries ~row_offset:0 ~rows
                ~metric:`Hamming
                ~threshold:(float_of_int (cols / 2)))
        in
        sweep ();
        (* reclassify a handful of rows in place and sweep again *)
        for _ = 0 to 5 do
          let r = Rng.int rng rows in
          S.write s ~row_offset:r
            [|
              (match Rng.int rng 3 with
              | 0 -> Array.init cols (fun _ -> float_of_int (Rng.int rng 2))
              | 1 -> Array.init cols (fun _ -> float_of_int (Rng.int rng 16))
              | _ -> Array.init cols (fun _ -> Rng.gaussian rng));
            |]
        done;
        sweep ()
      done)
    [ 1; 4 ]

(* ---- stats: dispatch counters ------------------------------------------ *)

let binary_fixture ?(cols = 32) () =
  let rows = 64 in
  let rng = Rng.create 4242 in
  let s = S.create ~rows ~cols ~bits:1 in
  for r = 0 to rows - 1 do
    S.write s ~row_offset:r
      [| Array.init cols (fun _ -> float_of_int (Rng.int rng 2)) |]
  done;
  let queries =
    Array.init 16 (fun _ ->
        Array.init cols (fun _ -> float_of_int (Rng.int rng 2)))
  in
  (s, queries, rows)

let counters (st : Camsim.Stats.t) =
  ( st.n_kernel_binary, st.n_kernel_nibble, st.n_kernel_generic,
    st.n_kernel_early_exit )

let test_counters_jobs_invariant () =
  let s, queries, rows = binary_fixture () in
  let run jobs =
    Parallel.run ~jobs @@ fun _pool ->
    let stats = Camsim.Stats.create () in
    let r = S.search ~stats s ~queries ~row_offset:0 ~rows ~metric:`Hamming in
    (r, counters stats)
  in
  let r1, c1 = run 1 and r4, c4 = run 4 in
  check_exact "distance matrix across jobs" r1 r4;
  check_exact "dispatch counters across jobs" c1 c4;
  let b, n, g, e = c1 in
  Alcotest.(check int) "every row binary-dispatched" (16 * rows) b;
  Alcotest.(check int) "no nibble rows" 0 n;
  Alcotest.(check int) "no generic rows" 0 g;
  Alcotest.(check int) "no early exits outside threshold search" 0 e

let test_early_exit_counter () =
  (* multiple packed words per row, so a tight threshold can bail with
     words still unread (a 32-col row is one word — never "early") *)
  let s, queries, rows = binary_fixture ~cols:256 () in
  let run threshold =
    let stats = Camsim.Stats.create () in
    let m =
      S.search_threshold ~stats s ~queries ~row_offset:0 ~rows
        ~metric:`Hamming ~threshold
    in
    (m, counters stats)
  in
  let _, (_, _, _, tight) = run 0. in
  Alcotest.(check bool) "tight threshold exits early" true (tight > 0);
  let _, (_, _, _, loose) = run 1e9 in
  Alcotest.(check int) "unreachable threshold never exits early" 0 loose;
  (* and the early exits never change the published matches *)
  let m_fast, _ = run 3. in
  let m_ref, _ = S.with_kernel_cap s `Generic (fun () -> run 3.) in
  check_exact "threshold matches across caps" m_ref m_fast

(* ---- executors: cam interpreter vs flat-ISA VM ------------------------- *)

let test_executors_agree () =
  List.iter
    (fun bits ->
      let data =
        Workloads.Hdc.synthetic ~seed:77 ~dims:256 ~n_classes:6 ~n_queries:8
          ~bits ()
      in
      let c =
        C4cam.Driver.compile
          ~spec:(Archspec.Spec.square 32 Archspec.Spec.Base)
          (C4cam.Kernels.hdc_dot ~q:8 ~dims:256 ~classes:6 ~k:1)
      in
      let a = C4cam.Driver.run_cam c ~queries:data.queries ~stored:data.stored in
      let b = C4cam.Driver.run_vm c ~queries:data.queries ~stored:data.stored in
      let what s = Printf.sprintf "%d-bit %s" bits s in
      Alcotest.(check Tutil.int_rows_testable)
        (what "indices") a.indices b.indices;
      check_exact (what "values") a.values b.values;
      check_exact (what "latency") a.latency b.latency;
      check_exact (what "energy") a.energy b.energy)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "kernels"
    [
      ( "primitives",
        [
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "packability" `Quick test_packability;
        ] );
      ( "classification",
        [ Alcotest.test_case "row classes" `Quick test_classification ] );
      ( "differential",
        [
          Alcotest.test_case "cap differential (mixed rows)" `Quick
            test_cap_differential;
          Alcotest.test_case "rewrite differential (reclassification)"
            `Quick test_rewrite_differential;
          Alcotest.test_case "executors agree" `Quick test_executors_agree;
          Alcotest.test_case "binary kernel at every width 1..130" `Quick
            test_binary_widths;
        ] );
      ( "stats",
        [
          Alcotest.test_case "jobs-invariant counters" `Quick
            test_counters_jobs_invariant;
          Alcotest.test_case "early-exit counter" `Quick
            test_early_exit_counter;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest (prop_packed_hamming ~maxval:2);
          QCheck_alcotest.to_alcotest (prop_packed_hamming ~maxval:16);
          QCheck_alcotest.to_alcotest prop_threshold_kernels;
        ] );
    ]
