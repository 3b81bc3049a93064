(** The pass-pipeline engine: one typed implementation of the paper's
    optimize → map → characterize → verify flow, shared by every driver.

    A {e pass} is a named transform over a flow {!ctx} (AIG, mapped
    netlist, STA results, diagnostics).  Scripts compose ABC-style from a
    parsed spec string, e.g.

    {[ "b; rw; rf; map(cut=6,timing); sta; lint" ]}

    The engine owns
    - the shared library cache ({!Cell_lib.cached}) so each family is
      elaborated and characterized exactly once per process,
    - an observability layer recording one {!sample} per executed pass
      (wall time, node/level/area/delay deltas, library-cache hits),
      renderable human-readable, as TSV and as JSON,
    - a {!Runner} fanning job arrays across {!Domain}s with deterministic,
      sequential-identical output ordering, and a {!run_matrix} driver for
      the benchmark × family sweep. *)

exception Flow_error of string
(** Raised on engine misuse (e.g. [sta] before [map]).  Script errors —
    syntax, unknown passes or arguments, bad argument values — are
    reported by {!parse_script} as [Error _] instead. *)

(** {1 Configuration and context} *)

(** The settings that span several passes or drive the runner.  A pass's
    own parameters live only in the script, as its arguments, and each
    pass owns their defaults (see {!passes}). *)
type config = {
  family : Cell_netlist.family;  (** default target of [map] *)
  seed : int64;
      (** default pattern seed of [verify] and [fault]; the seed of [cec]'s
          random simulation *)
  conflict_budget : int option;
      (** SAT conflict cap for [lint]'s functional fallback, the [fault]
          pass's ATPG and [cec] ([fault(budget=N)] and [cec(budget=N)]
          override it); exhaustion degrades to a Warning diagnostic
          ([None] = solver default / unbounded lint solves) *)
  isolate : bool;
      (** catch per-pass exceptions: a raising pass becomes a
          [flow-pass-crash] Error diagnostic and aborts only its own
          pipeline (default [false]: exceptions propagate) *)
  pass_budget_s : float option;
      (** wall-clock budget per pass; overruns add a [flow-pass-budget]
          Warning (the pass still completes — there is no preemption) *)
  jobs : int;
      (** within-circuit domains for the per-node analyses of the
          cut-based synthesis passes and of the mapper's match-arena
          construction (default 1).  Output is byte-identical for every
          value; see {!Par}.  Distinct from
          {!Runner.map_jobs}'s across-circuit fan-out — a driver should
          use one or the other, not both. *)
}

val default_config : config

type ctx = {
  name : string;                  (** circuit tag used in reports *)
  family : Cell_netlist.family;   (** target family of the next [map] *)
  aig : Aig.t;                    (** current logic network *)
  golden : Aig.t option;          (** the AIG the mapping was derived from *)
  lib : Cell_lib.t option;        (** library of the last [map] *)
  mapped : Mapped.t option;
  sta : Sta.t option;
  placement : Fabric.placement option;
  fault : Gate_fault.summary option;  (** result of the last [fault] pass *)
  testability : Testability.summary option;
      (** result of the last [testability] pass *)
  diags : Diag.t list;            (** accumulated findings, oldest first *)
  verified : bool option;         (** result of the last [verify] *)
  lib_cache : [ `Hit | `Miss ] option;
      (** library-cache outcome of the last [map] *)
  cut_stats : Cut.stats option;
      (** cut-enumeration counters of the last pass that enumerated cuts *)
  sat_stats : Solver.stats option;
      (** SAT-solver counters of the last pass that issued solver queries *)
}

val init : ?family:Cell_netlist.family -> name:string -> Aig.t -> ctx

val diags_since : ctx -> ctx -> Diag.t list
(** [diags_since before after]: the findings added between the two
    contexts (diagnostics are append-only). *)

(** {1 Scripts} *)

type step = private {
  pass : string;
  args : (string * string option) list;
      (** [key=value] or bare [flag] arguments, in source order *)
}
(** A parsed step; only {!parse_script} makes one, so its arguments are
    known to be valid. *)

val parse_script : string -> (step list, string) result
(** Splits on [;], each step [name], [name(arg,key=value,...)] or ABC-style
    [name -flag].  Every script error is reported here, naming the pass and
    the argument: unknown pass names and argument keys, and bad argument
    values — a malformed number, a flag given a value, an unknown family,
    cost or synth mode, and out-of-range values ([map(cut=K)] outside
    2..6, [rf(cut=K)] below 2, non-positive [place] dimensions or [cec]
    budget, a negative [sleep(s=S)]). *)

val parse_script_exn : string -> step list
(** Raises {!Flow_error}. *)

val script_to_string : step list -> string
val step_to_string : step -> string

val split_at_map : step list -> step list * step list
(** [(prefix, suffix)] around the first [map] step: the prefix is
    family-independent (pure AIG transforms and AIG lint), so a matrix
    driver hoists it and runs it once per benchmark. *)

val passes : (string * string) list
(** [(name, one-line description)] of every registered pass, listing its
    arguments and their defaults. *)

(** {1 Per-pass metrics} *)

type gc_delta = {
  gd_minor_words : float;   (** words allocated in the minor heap *)
  gd_major_words : float;   (** words allocated in / promoted to the major heap *)
  gd_compactions : int;
}
(** Allocation pressure of one pass: deltas of {!Gc.minor_words} and of
    {!Gc.counters}' major words taken around the pass body in the domain
    that ran it, exact at any size (with [config.jobs] > 1 the allocations
    of the pass's own worker domains are not included — compare runs at
    like [jobs]). *)

type sample = {
  sm_circuit : string;
  sm_family : string;     (** short family name, ["-"] while unmapped *)
  sm_pass : string;       (** rendered step, e.g. ["map(cut=6)"] *)
  sm_wall_s : float;
  sm_ands_before : int;
  sm_ands_after : int;
  sm_depth_before : int;
  sm_depth_after : int;
  sm_mapped : Mapped.stats option;  (** set when the pass (re)built the mapping *)
  sm_sta_ps : float option;         (** set by [sta]: absolute critical delay *)
  sm_cache : [ `Hit | `Miss ] option;
      (** library-cache outcome when the pass fetched a library *)
  sm_cut : Cut.stats option;
      (** cut-engine hot-path counters when the pass enumerated cuts
          ([map] and the cut-based synthesis passes) *)
  sm_fault : Gate_fault.summary option;
      (** fault-coverage summary when the pass ran fault analysis *)
  sm_testability : Testability.summary option;
      (** static-testability summary when the pass ran the analysis *)
  sm_sat : Solver.stats option;
      (** SAT-solver effort when the pass issued solver queries ([lint]
          cover verification, [cec] and [fault] ATPG) *)
  sm_gc : gc_delta option;
      (** allocation deltas of the pass ([None] only for the crash sample
          of an isolated failing pass) *)
  sm_new_diags : int;     (** findings added by the pass *)
}

val render_samples : sample list -> string
(** Human-readable per-pass table with node/depth/area/delay deltas. *)

val samples_tsv_header : string
val sample_to_tsv : sample -> string
val samples_to_json : sample list -> string

(** {1 Running} *)

val run : ?config:config -> step list -> ctx -> ctx * sample list
(** Applies the steps in order; each executed pass contributes one
    {!sample} (in order).  With [config.isolate] a raising pass is
    converted into a [flow-pass-crash] Error diagnostic (plus a
    [flow-passes-skipped] note for the steps not run) and the function
    returns normally; with [config.pass_budget_s] slow passes add a
    [flow-pass-budget] Warning. *)

val summary_line : ctx -> string
(** One deterministic report line: [name/family gates=… area=… levels=…
    delay=… ps=… sta-ps=…] (falls back to AIG statistics while unmapped). *)

(** {1 Deterministic parallel runner} *)

module Runner : sig
  val recommended_domains : unit -> int

  val map_jobs : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
    (** [map_jobs ~domains f jobs] applies [f] to every job, fanning the
        array across [domains] {!Domain}s (default 1 = in-process, no
        spawn).  Jobs are claimed dynamically from an atomic counter;
        results always return in input order, so output built from them is
        byte-identical to a sequential run.  The first job exception (in
        input order) is re-raised after all domains join. *)
end

type bench_result = {
  br_bench : string;
  br_ctx0 : ctx;
      (** context after the hoisted family-independent prefix; its [diags]
          are shared by every family (use {!diags_since} against it to get
          one family's own findings) *)
  br_prefix_samples : sample list;
      (** metrics of the hoisted family-independent prefix *)
  br_per_family : (Cell_netlist.family * ctx * sample list) list;
      (** per family: final context and suffix metrics, in input order *)
}

val run_matrix :
  ?domains:int ->
  ?config:config ->
  ?on_result:(bench_result -> unit) ->
  script:step list ->
  families:Cell_netlist.family list ->
  Bench_suite.entry list ->
  bench_result array
(** The benchmark × family sweep: per benchmark, build the circuit, run the
    family-independent script prefix once, then run the [map]-onward suffix
    once per family.  Benchmarks fan out across [domains]; the needed
    libraries are pre-warmed in the calling domain so the cache is
    populated exactly once.  Results are in input order regardless of
    [domains].

    With [config.isolate], a crash anywhere in one benchmark (including its
    circuit builder) yields a [flow-bench-crash] / [flow-pass-crash] Error
    diagnostic in that benchmark's result while every other matrix cell
    completes.  [on_result] is called once per finished benchmark {e in the
    worker domain that ran it} (completion order, not input order) — guard
    shared state with a mutex; used for checkpointing. *)

val matrix_samples : bench_result array -> sample list
(** All samples of a sweep, flattened in deterministic (bench-major,
    prefix-then-family) order. *)

(** {1 Checkpoint / resume for long matrix runs} *)

module Checkpoint : sig
  type entry = {
    ck_bench : string;
    ck_lines : string list;  (** the report lines the driver printed *)
    ck_diags : Diag.t list;
    ck_samples : sample list;
  }

  val save : string -> entry list -> unit
  (** Atomic (write-to-temp + rename) snapshot. *)

  val load : string -> entry list
  (** [[]] when the file is missing, truncated or not a checkpoint —
      resume then simply recomputes everything. *)

  val of_result : bench_result -> lines:string list -> entry
  (** Plain-data projection of one finished benchmark (all its diags and
      samples plus the rendered [lines]). *)

  val mem : entry list -> string -> bool
end
