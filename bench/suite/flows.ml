(* The three batch workloads: circuits through synthesis, mapping, STA
   and (verify) CEC + fault ATPG, the way flow.exe runs them, driven here
   through each layer's public functions so every call can be timed,
   counted and traced.

   Every repeat runs in a freshly forked child, so the synthesis form
   cache and the NPN memo start cold each time, as they do for a
   flow.exe user; the parent only holds the characterized libraries.
   Correctness checks run after each circuit's timed section. *)

type pass = B | Rw | Rw_z | Rf | Rf_z

type spec = {
  circuits : string list;
  toy : string list;  (** the smoke-test and digest-check circuits *)
  families : Cell_netlist.family list;
  passes : pass list;
  script : string;  (** [passes] and the later steps as a Flow script *)
  jobs : int;
  verify : bool;  (** run [Cec.check] and [Gate_fault.analyze] *)
}

(* [Synth.resyn2rs] and [Synth.light], pass by pass. *)
let resyn2rs = [ Rw; Rf; B; Rw; Rw_z; B; Rf_z; Rw_z; B ]
let light = [ Rw; B ]

(* des and i10 alone take 63% of the full 15-circuit flow (9.1 of 14.4 s
   on the 2-CPU recording host); without them one repeat fits the
   measuring window several times. *)
let table3 =
  {
    circuits =
      List.filter (fun n -> n <> "des" && n <> "i10") Bench_suite.names;
    toy = [ "add-16"; "t481" ];
    families = Cell_netlist.[ Tg_static; Tg_pseudo; Cmos ];
    passes = resyn2rs;
    script = "resyn2rs; map; sta";
    jobs = 1;
    verify = false;
  }

let scale ~jobs =
  {
    circuits = [ "mult-64"; "crypto-8" ];
    toy = [ "mult-8"; "crypto-1" ];
    families = [ Cell_netlist.Tg_static ];
    passes = [ B; Rw ];
    script = "b; rw; map; sta";
    jobs;
    verify = false;
  }

(* C6288 is left out because its multiplier miter ran for minutes
   without a verdict, i10 because it alone takes 49 s, C7552 and C5315
   because together they take 8 s, more than the window allows per
   repeat. *)
let verify =
  {
    circuits = [ "C1355"; "C1908"; "t481"; "C3540"; "dalu"; "add-64"; "i18" ];
    toy = [ "add-16"; "t481" ];
    families = [ Cell_netlist.Tg_static ];
    passes = light;
    script = "light; map; sta; cec; fault";
    jobs = 1;
    verify = true;
  }

type op = {
  rid : string;
  ms : float;  (** timed section only *)
  ok : bool;
  area : float;
  delay_tau : float;  (** STA critical delay over the family's tau *)
}

type repeat = {
  wall_s : float;
  rss_kb : int;
  ops : op list;
  layer_values : (string * float) list;
  rspans : Span.t list;
}

(* Rewrite/refactor and map are the calls that run [jobs] domains; their
   CPU over wall shows whether the extra domains work or spin. *)
let par_timed layers f =
  let c0 = Measure.cpu_s () and w0 = Measure.now () in
  let r = f () in
  Layers.add layers "par.cpu_s" (Measure.cpu_s () -. c0);
  Layers.add layers "par.wall_s" (Measure.now () -. w0);
  r

let synth_pass layers ~jobs ~stats aig = function
  | B -> Layers.timed layers "synth.balance" (fun () -> Synth.balance aig)
  | (Rw | Rw_z) as p ->
      par_timed layers (fun () ->
          Layers.timed layers "synth.rewrite" (fun () ->
              Synth.rewrite ~zero_gain:(p = Rw_z) ~stats ~jobs aig))
  | (Rf | Rf_z) as p ->
      par_timed layers (fun () ->
          Layers.timed layers "synth.refactor" (fun () ->
              Synth.refactor ~zero_gain:(p = Rf_z) ~stats ~jobs aig))

(* The mapper's phase breakdown as (name, ms). *)
let phases (p : Mapper.phase_ms) =
  Mapper.
    [
      ("cuts", p.pm_cuts_ms); ("match", p.pm_match_ms);
      ("required", p.pm_required_ms); ("recover", p.pm_recover_ms);
      ("extract", p.pm_extract_ms);
    ]

let map_one layers ~jobs ~rid fam aig =
  let lib = Cell_lib.cached fam in
  let params = { Mapper.default_params with Mapper.jobs } in
  let phase = Mapper.phase_ms_create () in
  let c0 = Measure.cpu_s () in
  let mapped, st =
    par_timed layers (fun () ->
        Span.with_ ~rid "mapper.map" (fun () ->
            let t0 = Measure.now () in
            let r = Mapper.map_with_stats ~params ~phase lib aig in
            (* the mapper reports its phases as totals: lay them out as
               consecutive child spans from the call's start *)
            ignore
              (List.fold_left
                 (fun t (name, ms) ->
                   let t' = t +. (ms /. 1000.0) in
                   ignore (Span.add ~rid ("mapper." ^ name) t t');
                   t')
                 t0 (phases phase));
            r))
  in
  Layers.add layers "mapper.cpu_ms" (1000.0 *. (Measure.cpu_s () -. c0));
  List.iter
    (fun (name, ms) -> Layers.add layers ("mapper." ^ name ^ "_ms") ms)
    (phases phase);
  (mapped, st)

let add_cut_stats layers (s : Cut.stats) =
  let f k v = Layers.add layers k (float_of_int v) in
  f "cut.built" s.Cut.built;
  f "cut.dominated" s.Cut.dominated;
  f "cut.sign_rejects" s.Cut.sign_rejects;
  f "cut.tt_merges" s.Cut.tt_merges;
  f "mapper.probes" s.Cut.probes;
  f "mapper.reevals" s.Cut.reevals;
  f "mapper.skips" s.Cut.reeval_skips

(* The seed of the timed CEC and fault calls: flow.exe's default, not the
   run's.  The seed decides how much of the fault list random simulation
   leaves to ATPG, and with it verify's time: over five seeds wall_s
   spread by 8% and latency_p90_ms by 9%, over five runs of one seed by
   2%. *)
let verify_seed = Flow.default_config.Flow.seed

(* One circuit through the workload; [tamper] corrupts each mapped
   netlist (the smoke test's negative fixture, [Fun.id] otherwise). *)
let run_op spec ~seed ~tamper layers (e : Bench_suite.entry) =
  let rid = e.Bench_suite.name in
  let stats = Cut.stats_create () in
  let sat = Solver.stats_create () in
  let t0 = Measure.now () in
  let aig, per_family =
    Span.with_ ~rid "op" (fun () ->
        let aig =
          Layers.timed layers ~rid "circuits.build" e.Bench_suite.build
        in
        let opt =
          List.fold_left
            (synth_pass layers ~jobs:spec.jobs ~stats)
            aig spec.passes
        in
        Layers.add layers "synth.ands_saved"
          (float_of_int (Aig.num_ands aig - Aig.num_ands opt));
        ( aig,
          List.map
            (fun fam ->
              let mapped, st = map_one layers ~jobs:spec.jobs ~rid fam opt in
              add_cut_stats layers st;
              let mapped = tamper mapped in
              let sta =
                Layers.timed layers ~rid "sta.analyze" (fun () ->
                    Sta.analyze mapped)
              in
              let verdicts =
                if not spec.verify then None
                else
                  let v =
                    Layers.timed layers ~rid "cec.check" (fun () ->
                        Cec.check ~seed:verify_seed ~stats:sat opt
                          (Mapped.to_aig mapped))
                  in
                  let _, summary =
                    Layers.timed layers ~rid "fault.analyze" (fun () ->
                        Gate_fault.analyze ~seed:verify_seed ~stats:sat mapped)
                  in
                  Some (v, summary)
              in
              (mapped, sta, verdicts))
            spec.families ))
  in
  let ms = 1000.0 *. (Measure.now () -. t0) in
  add_cut_stats layers stats;
  let f k v = Layers.add layers k (float_of_int v) in
  f "sat.solves" sat.Solver.sat_solves;
  f "sat.conflicts" sat.Solver.sat_conflicts;
  f "sat.propagations" sat.Solver.sat_propagations;
  f "sat.learned" sat.Solver.sat_learned;
  let checks =
    List.map
      (fun (mapped, _, verdicts) ->
        match verdicts with
        | None -> Experiments.verify_by_simulation ~seed aig mapped
        | Some (v, (s : Gate_fault.summary)) ->
            if v = Cec.Undecided then f "cec.undecided" 1;
            f "fault.faults" s.Gate_fault.g_total;
            f "fault.sim_detected" s.Gate_fault.g_sim;
            f "fault.atpg_detected" s.Gate_fault.g_atpg;
            f "fault.unknown" s.Gate_fault.g_unknown;
            v = Cec.Equivalent && s.Gate_fault.g_unknown = 0)
      per_family
  in
  let sum g = List.fold_left (fun a x -> a +. g x) 0.0 per_family in
  {
    rid;
    ms;
    ok = List.for_all Fun.id checks;
    area = sum (fun (m, _, _) -> (Mapped.stats m).Mapped.area);
    delay_tau = sum (fun (_, s, _) -> Sta.norm_delay s);
  }

let derive layers =
  let g = Layers.get layers and r = Layers.ratio in
  let set = Layers.set layers in
  set "cut.keep_ratio" (r (g "cut.built" -. g "cut.dominated") (g "cut.built"));
  set "mapper.skip_ratio"
    (r (g "mapper.skips") (g "mapper.reevals" +. g "mapper.skips"));
  set "par.cpu_per_wall" (r (g "par.cpu_s") (g "par.wall_s"));
  set "sat.props_per_ms"
    (r (g "sat.propagations") (g "cec.check_ms" +. g "fault.analyze_ms"));
  set "fault.sim_drop_ratio" (r (g "fault.sim_detected") (g "fault.faults"));
  set "fault.coverage_pct"
    (100.0
    *. r (g "fault.sim_detected" +. g "fault.atpg_detected") (g "fault.faults"))

let repeat spec ~seed ~traced ~tamper entries =
  Span.reset ~enabled:traced;
  let layers = Layers.create () in
  let ops = List.map (run_op spec ~seed ~tamper layers) entries in
  derive layers;
  {
    wall_s = List.fold_left (fun a o -> a +. o.ms) 0.0 ops /. 1000.0;
    rss_kb = Measure.self_rss_kb ();
    ops;
    layer_values = Layers.to_list layers;
    rspans = Span.take ();
  }

let digest_of aig mapped =
  Digest.to_hex
    (Digest.string (Blif.to_string aig ^ "\000" ^ Blif.mapped_to_string mapped))

(* Outside the timed window: the pass sequence above must give the same
   netlists as Flow.run on [spec.script]. *)
let same_as_flow spec ~seed (e : Bench_suite.entry) =
  let steps = Flow.parse_script_exn spec.script in
  let stats = Cut.stats_create () and layers = Layers.create () in
  let aig = e.Bench_suite.build () in
  let opt =
    List.fold_left (synth_pass layers ~jobs:spec.jobs ~stats) aig spec.passes
  in
  List.for_all
    (fun fam ->
      let mapped, _ = map_one layers ~jobs:spec.jobs ~rid:"" fam opt in
      let config =
        { Flow.default_config with Flow.family = fam; jobs = spec.jobs; seed }
      in
      let ctx, _ =
        Flow.run ~config steps
          (Flow.init ~family:fam ~name:e.Bench_suite.name aig)
      in
      match (ctx.Flow.golden, ctx.Flow.mapped) with
      | Some g, Some m -> digest_of g m = digest_of opt mapped
      | _ -> false)
    spec.families

let setup spec () =
  let t0 = Measure.now () in
  List.iter (fun f -> ignore (Cell_lib.cached f)) spec.families;
  Measure.now () -. t0

(* Repeats until the next one would end past [seconds] (at least
   [min_repeats]); with [traced], every other repeat records spans. *)
let repeats spec ~seed ~seconds ~traced ~tamper entries =
  let t_start = Measure.now () in
  let min_repeats = if traced then 2 else 1 in
  let rec loop k acc took =
    let elapsed = Measure.now () -. t_start in
    let est = if took = [] then 0.0 else Measure.median took in
    if k >= min_repeats && elapsed +. est > seconds then List.rev acc
    else begin
      let traced_k = traced && k mod 2 = 1 in
      let t0 = Measure.now () in
      let r =
        Measure.in_child (fun () ->
            repeat spec ~seed ~traced:traced_k ~tamper entries)
      in
      Result.iter_error
        (Printf.eprintf "benchmark: repeat %d failed: %s\n%!" k)
        r;
      loop (k + 1) ((traced_k, r) :: acc) ((Measure.now () -. t0) :: took)
    end
  in
  loop 0 [] []

(* The workload's wall time: per circuit the median over [reps], summed,
   so a hiccup in one circuit of one repeat does not move it. *)
let op_medians reps =
  match reps with
  | [] -> []
  | r :: _ ->
      List.mapi
        (fun i (o : op) ->
          Measure.median (List.map (fun r -> (List.nth r.ops i).ms) reps)
          |> fun ms -> (o.rid, ms))
        r.ops

let sum_ms l = List.fold_left (fun a (_, ms) -> a +. ms) 0.0 l /. 1000.0

let run spec ~toy ~seed ~seconds ~traced ~setup_samples ~tamper =
  let entries =
    List.map Bench_suite.find (if toy then spec.toy else spec.circuits)
  in
  (* cold set-ups in children first: the parent's own is the last sample,
     and its libraries are the ones every repeat inherits *)
  let child_setups =
    List.init (setup_samples - 1) (fun _ -> Measure.in_child (setup spec))
    |> List.filter_map Result.to_option
  in
  let setup_s = Measure.median (setup spec () :: child_setups) in
  let reps = repeats spec ~seed ~seconds ~traced ~tamper entries in
  let check =
    let n = Int64.of_int (List.length spec.toy) in
    Bench_suite.find
      (List.nth spec.toy (Int64.to_int (Int64.unsigned_rem seed n)))
  in
  let same =
    match Measure.in_child (fun () -> same_as_flow spec ~seed check) with
    | Ok same -> same
    | Error m ->
        prerr_endline ("benchmark: Flow.run comparison failed: " ^ m);
        false
  in
  if not same then
    Printf.eprintf
      "benchmark: the pass sequence of %S differs from Flow.run on %s\n%!"
      spec.script check.Bench_suite.name;
  let n_ops = List.length entries in
  let failed =
    List.fold_left
      (fun a (_, r) ->
        match r with
        | Error _ -> a + n_ops
        | Ok r -> a + List.length (List.filter (fun o -> not o.ok) r.ops))
      (if same then 0 else 1)
      reps
  in
  let ok_reps ~traced:t =
    List.filter_map (function t', Ok r when t = t' -> Some r | _ -> None) reps
  in
  let untraced = ok_reps ~traced:false and traced_reps = ok_reps ~traced:true in
  let per_op = op_medians untraced in
  let lat = List.map snd per_op in
  let q p = Measure.quantile p lat in
  let first_ops = match untraced with r :: _ -> r.ops | [] -> [] in
  let total f = List.fold_left (fun a o -> a +. f o) 0.0 first_ops in
  let e2e =
    [
      ("wall_s", sum_ms per_op);
      ("setup_s", setup_s);
      (* the largest any repeat reached: with [jobs] > 1 the collector's
         timing varies and a median would flip between its modes *)
      ( "peak_rss_mb",
        List.fold_left
          (fun m r -> max m (float_of_int r.rss_kb /. 1024.0))
          0.0 untraced );
      ("area", total (fun o -> o.area));
      ("delay_tau", total (fun o -> o.delay_tau));
      ("latency_p50_ms", q 0.5);
      ("latency_p90_ms", q 0.9);
    ]
  in
  let self_rows = List.map (fun r -> Span.self_ms r.rspans) traced_reps in
  let layers =
    if not traced then []
    else
      let unattributed (r, selfs) =
        100.0
        *. Layers.ratio
             (Option.value (List.assoc_opt "op" selfs) ~default:0.0)
             (1000.0 *. r.wall_s)
      in
      ("cell_lib.characterize_ms", 1000.0 *. setup_s)
      :: ( "trace.overhead_pct",
           100.0
           *. (Layers.ratio (sum_ms (op_medians traced_reps)) (sum_ms per_op)
              -. 1.0) )
      :: ( "trace.unattributed_pct",
           Measure.median
             (List.map unattributed (List.combine traced_reps self_rows)) )
      :: Layers.median_by_name (List.map (fun r -> r.layer_values) traced_reps)
  in
  {
    Layers.attempted = (n_ops * List.length reps) + 1;
    failed;
    inputs =
      List.map (fun (e : Bench_suite.entry) -> e.Bench_suite.name) entries;
    samples = List.length reps;
    e2e;
    layers;
    self_ms = Layers.median_by_name self_rows;
    spans = List.mapi (fun i r -> (i, r.rspans)) traced_reps;
  }
