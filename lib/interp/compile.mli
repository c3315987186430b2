(** The closure-compiling interpreter engine.

    Pre-compiles a function's region tree into arrays of OCaml closures
    (threaded code): op-name dispatch, attribute decoding and operand
    resolution happen once per op at compile time, SSA values are
    renamed to dense integer slots so the environment is a flat
    [Rtval.t array], and the [scf.parallel] independence analysis is
    resolved at compile time down to a residual runtime check.
    Compilation is memoized per domain on {!Ir.Op.uid}, so repeated runs
    of the same module pay it once; the IR is treated as frozen once a
    function has run.

    Semantics are byte-identical to the tree-walking reference engine in
    {!Machine} — results, simulated latency/energy, per-dialect
    execution counters, and failure messages all match; only wall-clock
    time differs. [test/test_compile.ml] holds the differential proof
    obligations. *)

val run_fn :
  ?sim:Camsim.Simulator.t -> ?xsim:Xbar.t -> ?qcache:Ops.Qcache.t ->
  Ir.Func_ir.func -> Rtval.t list -> Ops.outcome
(** Compile (or fetch from the memo) and execute one function. The
    caller has already resolved the function and checked arity —
    [Machine.run] is the public entry point. [qcache] lets a serving
    session keep one query-pack cache alive across executions
    (default: a fresh cache per run).
    @raise Ops.Runtime_error exactly where the tree-walker would.

    Engine selection is per call: [Machine.run]'s [?precompile]
    (default: compiled) or [Driver.Run_config.engine] — there is no
    process-global flag to mutate. *)

val fused_reads : Ir.Func_ir.func -> int
(** How many [cam.read] ops of the function the compiler fuses into the
    [cam.merge_partial] that consumes them (see docs/INTERPRETER.md):
    the read still executes and is counted, but the merge accumulates
    straight from the subarray's latched rows instead of a copy.
    Compiles (or fetches from the memo) like {!run_fn}. *)
