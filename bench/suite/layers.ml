(* The metric dictionary and the per-repeat accumulator of per-layer
   metrics.

   Names and units here are the ones BENCHMARK.json lists; the smoke test
   checks the two agree.  A per-layer metric a workload does not exercise
   reads 0 (the verify workload runs no refactor, the flow workloads
   serve no jobs). *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("area", "cell-area");
    ("delay_tau", "tau");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
  ]

let per_layer =
  [
    ("cell_lib.characterize_ms", "ms");
    ("circuits.build_ms", "ms");
    ("synth.balance_ms", "ms");
    ("synth.rewrite_ms", "ms");
    ("synth.refactor_ms", "ms");
    ("synth.ands_saved", "count");
    ("cut.built", "count");
    ("cut.dominated", "count");
    ("cut.sign_rejects", "count");
    ("cut.tt_merges", "count");
    ("cut.keep_ratio", "ratio");
    ("mapper.cuts_ms", "ms");
    ("mapper.match_ms", "ms");
    ("mapper.required_ms", "ms");
    ("mapper.recover_ms", "ms");
    ("mapper.extract_ms", "ms");
    ("mapper.cpu_ms", "ms");
    ("mapper.probes", "count");
    ("mapper.reevals", "count");
    ("mapper.skips", "count");
    ("mapper.skip_ratio", "ratio");
    ("par.cpu_per_wall", "ratio");
    ("sta.analyze_ms", "ms");
    ("cec.check_ms", "ms");
    ("cec.undecided", "count");
    ("sat.solves", "count");
    ("sat.conflicts", "count");
    ("sat.propagations", "count");
    ("sat.learned", "count");
    ("sat.props_per_ms", "1/ms");
    ("fault.analyze_ms", "ms");
    ("fault.faults", "count");
    ("fault.sim_detected", "count");
    ("fault.atpg_detected", "count");
    ("fault.unknown", "count");
    ("fault.sim_drop_ratio", "ratio");
    ("fault.coverage_pct", "%");
    ("cio.parse_ms", "ms");
    ("job.compute_p50_ms", "ms");
    ("server.fresh_latency_p50_ms", "ms");
    ("server.cached_latency_p50_ms", "ms");
    ("server.variant_latency_p50_ms", "ms");
    ("server.overhead_p50_ms", "ms");
    ("server.open_loop_p90_ms", "ms");
    ("server.capacity_jobs_per_s", "jobs/s");
    ("server.cache_hit_ratio", "ratio");
    ("server.coalesced", "count");
    ("server.retries", "count");
    ("server.crashes", "count");
    ("server.queue_depth_max", "count");
    ("server.worker_busy_ratio", "ratio");
    ("loadgen.lag_p99_ms", "ms");
    ("trace.overhead_pct", "%");
    ("trace.unattributed_pct", "%");
  ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let get (t : t) k = Option.value (Hashtbl.find_opt t k) ~default:0.0
let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
let set (t : t) k v = Hashtbl.replace t k v
let ratio n d = if d = 0.0 then 0.0 else n /. d

(* Runs [f] under a span called [name] and adds its wall time to the
   metric [name ^ "_ms"]. *)
let timed (t : t) ?rid name f =
  let t0 = Measure.now () in
  let r = Span.with_ ?rid name f in
  add t (name ^ "_ms") (1000.0 *. (Measure.now () -. t0));
  r

let to_list (t : t) = Hashtbl.fold (fun k v l -> (k, v) :: l) t []

(* Per-name median over a list of per-repeat metric lists. *)
let median_by_name (rows : (string * float) list list) =
  let names =
    List.concat_map (List.map fst) rows |> List.sort_uniq compare
  in
  List.map
    (fun n ->
      ( n,
        Measure.median
          (List.map
             (fun r -> Option.value (List.assoc_opt n r) ~default:0.0)
             rows) ))
    names

(* What one workload run reports. *)
type outcome = {
  attempted : int;
  failed : int;
  inputs : string list;  (** the circuits the workload ran *)
  samples : int;  (** timed repeats (flow) or serial requests (serve) *)
  e2e : (string * float) list;  (** every [end_to_end] metric *)
  layers : (string * float) list;  (** per-layer metrics; [] untraced *)
  self_ms : (string * float) list;  (** median self time per span name *)
  spans : (int * Span.t list) list;  (** traced span groups *)
}
