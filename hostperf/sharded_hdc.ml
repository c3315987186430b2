(* sharded-hdc: the baseline store of the roadmap. [Serve.Sharded_store]
   holds 4096 binary rows x 1024 dims across 4 shards (q = 16, k = 3)
   and one caller drives it in a closed loop. Before every query batch
   a seeded mutation mix runs — one update, one delete and one insert
   that reuses the freed slot — and every batch is a fresh set of query
   arrays. One op is one query row; each batch is timed. *)

let q = 16
let d = 1024
let k = 3
let shards = 4
let capacity = 4096
let spec = Archspec.Spec.square 32 Archspec.Spec.Base

(* Fixed work per run: 6 batches per requested second, so that a run
   with its set-ups and checks lasts about that long at the rate the
   parent of this benchmark sustains on a 2-core machine. *)
let batches_for ~seconds = max 20 (6 * seconds)

(* ---- the host mirror behind the output check -------------------------- *)

(* Rows as 32-bit words, so a brute-force Hamming scan is cheap. *)
let words = d / 32

let pack (row : float array) =
  Array.init words (fun w ->
      let x = ref 0 in
      for b = 0 to 31 do
        if row.((w * 32) + b) <> 0. then x := !x lor (1 lsl b)
      done;
      !x)

let unpack (p : int array) =
  Array.init d (fun j -> float ((p.(j / 32) lsr (j mod 32)) land 1))

let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let hamming a b =
  let s = ref 0 in
  for w = 0 to words - 1 do
    s := !s + popcount (a.(w) lxor b.(w))
  done;
  !s

(* The live rows as the bench sees them: slot [j] of [ids] holds an
   external id, [rows] maps ids to packed contents. *)
type mirror = { ids : int array; rows : (int, int array) Hashtbl.t }

(* Top-k of one query over the mirror, ordered by (distance, id). *)
let oracle m query =
  let all =
    Array.map (fun id -> (hamming query (Hashtbl.find m.rows id), id)) m.ids
  in
  Array.sort compare all;
  Array.sub all 0 k

(* Rows of a batch whose ids or distances differ from the oracle. *)
let check m batch (r : Serve.Sharded_store.result) =
  let bad = ref 0 in
  Array.iteri
    (fun i row ->
      let agrees j (dist, id) =
        r.indices.(i).(j) = id && r.values.(i).(j) = float dist
      in
      let want = oracle m (pack row) in
      if not (List.for_all Fun.id (List.mapi agrees (Array.to_list want)))
      then incr bad)
    batch;
  !bad

(* ---- seeded inputs ---------------------------------------------------- *)

let random_row rng = Array.init d (fun _ -> float (Rng.int rng 2))

(* A query: a live row with a tenth of its cells re-drawn. *)
let noisy_query rng m =
  let row = unpack (Hashtbl.find m.rows m.ids.(Rng.int rng capacity)) in
  for _ = 1 to d / 10 do
    row.(Rng.int rng d) <- float (Rng.int rng 2)
  done;
  row

type mutation = {
  upd_slot : int;
  upd_row : float array;
  del_slot : int;
  ins_row : float array;
}

let draw_mutation rng =
  let upd_slot = Rng.int rng capacity in
  let upd_row = random_row rng in
  let del_slot = Rng.int rng capacity in
  { upd_slot; upd_row; del_slot; ins_row = random_row rng }

(* ---- one live store --------------------------------------------------- *)

type inst = {
  store : Serve.Sharded_store.t;
  mirror : mirror;
  rng : Rng.t;  (** mutations and queries *)
  sample : Rng.t;  (** which batches the oracle checks *)
}

(* Apply a mutation to the store, timing each call, then to the mirror.
   Returns the seconds of the three calls. *)
let mutate inst mu =
  let ids = inst.mirror.ids in
  let upd_id = ids.(mu.upd_slot) and del_id = ids.(mu.del_slot) in
  let store = inst.store in
  let (), t_upd =
    Common.time (fun () ->
        Serve.Sharded_store.update store upd_id mu.upd_row)
  in
  let (), t_del =
    Common.time (fun () -> Serve.Sharded_store.delete store del_id)
  in
  let new_id, t_ins =
    Common.time (fun () -> Serve.Sharded_store.insert store mu.ins_row)
  in
  Hashtbl.replace inst.mirror.rows upd_id (pack mu.upd_row);
  Hashtbl.remove inst.mirror.rows del_id;
  Hashtbl.replace inst.mirror.rows new_id (pack mu.ins_row);
  ids.(mu.del_slot) <- new_id;
  [ t_upd; t_del; t_ins ]

let fresh_batch inst =
  Array.init q (fun _ -> noisy_query inst.rng inst.mirror)

(* A set-up batch: timed as a whole, always checked. *)
let warm_up_query inst =
  let batch = fresh_batch inst in
  let r, dt =
    Common.time (fun () -> Serve.Sharded_store.query inst.store batch)
  in
  if check inst.mirror batch r > 0 then
    failwith "sharded-hdc: a warm-up batch disagrees with the oracle";
  dt

let plain_create () =
  Serve.Sharded_store.create ~spec ~q ~d ~k ~shards ~capacity ()

(* Set-up: generate the rows, build and fill the store, then two warm-up
   batches: the first programs every shard's device lazily, the second
   is a steady-state batch behind a mutation mix. [create] builds the
   empty store; the traced run passes one that times the compile.
   Returns the store, the generator's and the first batch's seconds,
   and the generated rows. *)
let setup ?(create = plain_create) ~seed () =
  let stored, gen_s =
    Common.time (fun () ->
        (Workloads.Hdc.synthetic ~seed ~dims:d ~n_classes:capacity
           ~n_queries:0 ~bits:1 ())
          .Workloads.Hdc.stored)
  in
  let store = create () in
  let ids = Array.map (Serve.Sharded_store.insert store) stored in
  let rows = Hashtbl.create capacity in
  Array.iteri (fun i id -> Hashtbl.replace rows id (pack stored.(i))) ids;
  let rng = Rng.create (seed + 1) in
  let inst =
    { store; mirror = { ids; rows }; rng; sample = Rng.split rng 1 }
  in
  let first_s = warm_up_query inst in
  ignore (mutate inst (draw_mutation rng));
  ignore (warm_up_query inst);
  (inst, gen_s, first_s, stored)

(* ---- the timed phase -------------------------------------------------- *)

(* [batches] mutation mixes and query batches. Only the store calls are
   timed, and the reference loop after them; input generation and the
   oracle check of a seeded quarter of the batches run between them.
   Returns the phase, the seconds of every mutation call and the last
   batch. *)
let phase inst ~batches =
  let lat = Array.make batches 0. and wall = Array.make batches 0. in
  let failed = ref 0 and mutation_s = ref [] and last = ref [||] in
  let sim_l = ref 0. and sim_e = ref 0. in
  let sp = Common.speed () in
  Gc.compact ();
  Common.probe sp;
  for b = 0 to batches - 1 do
    let mu = draw_mutation inst.rng in
    let batch = fresh_batch inst in
    let ts = mutate inst mu in
    let r, dt =
      Common.time (fun () ->
          try Some (Serve.Sharded_store.query inst.store batch) with
          | Serve.Sharded_store.Store_error _
          | Serve.Session.Serve_error _
          ->
            None)
    in
    Common.probe sp;
    lat.(b) <- dt *. 1e3;
    wall.(b) <- List.fold_left ( +. ) dt ts;
    mutation_s := ts @ !mutation_s;
    last := batch;
    match r with
    | None -> failed := !failed + q
    | Some r ->
        sim_l := !sim_l +. r.latency;
        sim_e := !sim_e +. r.energy;
        if Rng.int inst.sample 4 = 0 then
          failed := !failed + check inst.mirror batch r
  done;
  let marks = Array.init batches Fun.id in
  ( {
      Common.ops = batches * q;
      failed = !failed;
      wall_s = Common.sum wall;
      latencies_ms = lat;
      ref_wall_s = Common.sum (Common.scaled sp ~marks wall);
      ref_latencies_ms = Common.scaled sp ~marks lat;
      ref_loop_us = Common.loop_us sp;
      sample_what = "one 16-row Sharded_store.query batch each";
      sim_latency_s = !sim_l;
      sim_energy_j = !sim_e;
      sim_rows = batches * q;
    },
    Array.of_list !mutation_s,
    !last )

(* ---- the traced phase ------------------------------------------------- *)

(* A fresh store driven through the same inputs, with the compile timed
   and profiled at set-up and the store's own counters read around the
   phase. [create] compiles the scores-form kernel the store builds for
   its shards (one per 1024 rows here) before the store finds it in the
   artifact cache. *)
let traced ~seed ~batches =
  Serve.Artifact_cache.clear ();
  let collector = Instrument.Collect.create () in
  let compile_s = ref 0. in
  let create () =
    let source =
      C4cam.Kernels.hdc_dot_scores ~q ~dims:d ~classes:(capacity / shards)
    in
    compile_s :=
      snd
        (Common.time (fun () ->
             Serve.Artifact_cache.lookup ~profile:collector ~spec source));
    plain_create ()
  in
  Gc.compact ();
  let inst, gen_s, first_s, stored = setup ~create ~seed () in
  let st0 = Serve.Sharded_store.stats inst.store in
  let dev0 = Serve.Sharded_store.device_stats inst.store in
  let p, mutation_s, last = phase inst ~batches in
  let st1 = Serve.Sharded_store.stats inst.store in
  let dev1 = Serve.Sharded_store.device_stats inst.store in
  let per_batch f = 1e3 *. (f st1 -. f st0) /. float batches in
  let rows = float p.sim_rows in
  let dev f = float (f dev1 - f dev0) in
  let ops (s : Serve.Sharded_store.stats) =
    List.fold_left (fun a (_, n) -> a + n) 0 s.session.ops_executed
  in
  let layers =
    [
      ("workloads.gen_ms", gen_s *. 1e3);
      ("passes.compile_ms", !compile_s *. 1e3);
      ("interp.ops_per_query", float (ops st1 - ops st0) /. rows);
      ( "camsim.dispatches_per_query",
        (dev (fun s -> s.Camsim.Stats.n_kernel_binary)
        +. dev (fun s -> s.n_kernel_nibble)
        +. dev (fun s -> s.n_kernel_generic))
        /. rows );
      ("camsim.search_ops", dev (fun s -> s.n_search_ops));
      ("camsim.write_ops", dev (fun s -> s.n_write_ops));
      ("serve.fanout_ms_per_batch", per_batch (fun s -> s.fanout_wall_s));
      ("serve.merge_ms_per_batch", per_batch (fun s -> s.merge_wall_s));
      ( "serve.session_ms_per_batch",
        per_batch (fun s -> s.session.wall_clock_s) );
      ("serve.mutation_us", 1e6 *. Common.mean mutation_s);
      ("serve.first_query_s", first_s);
    ]
    @ Common.compile_layers (Instrument.Collect.profile collector)
    @ Common.subarray_probe ~rows:stored ~queries:last
  in
  (p, layers)

(* ---- the run ---------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let batches = batches_for ~seconds in
  let inst, setup_s =
    Common.repeated_setup ~reps:3
      ~setup:(fun () ->
        Serve.Artifact_cache.clear ();
        let inst, _, _, _ = setup ~seed () in
        inst)
  in
  let g0 = Common.gc_mark () in
  let p, _, _ = phase inst ~batches in
  let gc = Common.gc_since g0 in
  Common.outcome ~setup_s ~gc p
    ?traced:(if trace then Some (fun () -> traced ~seed ~batches) else None)
