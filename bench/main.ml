(* Benchmark harness: one section per paper artifact.

   Each section (Table 1, Table 2, Table 3, Figure 6) first prints the
   reproduced rows (computed vs published) and then registers a bechamel
   micro-benchmark timing the kernel that produces it.  Ablation sections
   cover the design choices called out in DESIGN.md §6.

     dune exec bench/main.exe                 (fast benchmark subset)
     FULL=1 dune exec bench/main.exe          (all 15 benchmarks)  *)

open Bechamel
open Toolkit

let fast_subset = Cli_common.fast_subset

let full = Sys.getenv_opt "FULL" <> None

let benches = if full then None else Some fast_subset

(* benchmarks fan out across domains; results are input-ordered, so the
   printout is identical at any JOBS value *)
let jobs =
  match Sys.getenv_opt "JOBS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
  | None -> Flow.Runner.recommended_domains ()

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---------------- reproduction printout ---------------- *)

let print_reproduction () =
  hr "Table 1 - the 46-function catalog (vs 7 CMOS-expressible)";
  Printf.printf "catalog: %d gates, CMOS subset: %d\n"
    (List.length Catalog.all)
    (List.length Catalog.cmos_subset);

  hr "Expressive power: single-cell coverage of all k-support functions";
  List.iter
    (fun lib ->
      List.iter
        (fun k ->
          let r = Coverage.analyze lib k in
          Printf.printf
            "  %-20s k=%d  free %3d/%3d (%.0f%%)  with-inverters %3d (%.0f%%)  NPN %d/%d\n"
            (Cell_lib.name lib) k r.Coverage.covered_free r.Coverage.total
            (100.0 *. float_of_int r.Coverage.covered_free
             /. float_of_int r.Coverage.total)
            r.Coverage.covered_any
            (100.0 *. float_of_int r.Coverage.covered_any
             /. float_of_int r.Coverage.total)
            r.Coverage.npn_classes_covered r.Coverage.npn_classes_total)
        (if full then [ 2; 3; 4 ] else [ 2; 3 ]))
    [ Core.library `Tg_static; Core.library `Cmos ];

  hr "Table 2 - library characterization averages (computed | paper)";
  let paper_avgs =
    [ (Cell_netlist.Tg_static, (9.1, 12.3, 11.3, 9.0));
      (Cell_netlist.Tg_pseudo, (5.6, 8.5, 15.6, 12.0));
      (Cell_netlist.Pass_pseudo, (3.7, 11.5, 32.5, 24.1));
      (Cell_netlist.Cmos, (4.9, 12.7, 9.1, 9.0)) ]
  in
  List.iter
    (fun (fam, (pt, pa, pw, pv)) ->
      let t, a, w, v = Charlib.averages (Charlib.characterize_catalog fam) in
      Printf.printf
        "%-20s T %.1f|%.1f  A %.1f|%.1f  FO4w %.1f|%.1f  FO4a %.1f|%.1f\n"
        (Cell_netlist.family_name fam) t pt a pa w pw v pv)
    paper_avgs;

  hr "Fault dictionaries - transistor-level defects per family (DESIGN.md §11)";
  print_endline Cell_fault.summary_header;
  List.iter
    (fun fam ->
      let reports = Cell_fault.analyze_family fam in
      print_endline (Cell_fault.summary_line (Cell_fault.summarize fam reports)))
    Cell_netlist.all_families;
  Printf.printf "gate-level stuck-at (add-16, static): %s\n"
    (let ctx =
       Flow.init ~name:"add-16" ((Bench_suite.find "add-16").Bench_suite.build ())
     in
     let ctx, _ =
       Flow.run (Flow.parse_script_exn "synth(light); map(family=static)") ctx
     in
     let _, s = Gate_fault.analyze ~rounds:8 (Option.get ctx.Flow.mapped) in
     Gate_fault.summary_line s);

  hr (Printf.sprintf "Table 3 - mapping results%s"
        (if full then "" else " (fast subset; FULL=1 for all 15)"));
  let rows =
    let opts = Experiments.default_options in
    let libs = Experiments.libraries opts in
    let entries =
      match benches with
      | None -> Bench_suite.all
      | Some names -> List.map Bench_suite.find names
    in
    Array.to_list
      (Flow.Runner.map_jobs ~domains:jobs
         (Experiments.run_bench opts libs)
         (Array.of_list entries))
  in
  Printf.printf
    "%-8s %-7s %6s %9s %7s %8s %9s %9s   (paper: gates area levels delay ps)\n"
    "bench" "lib" "gates" "area" "levels" "delay" "ps" "sta-ps";
  List.iter
    (fun (r : Experiments.t3_row) ->
      let paper =
        try Some (Paper_data.table3_find r.Experiments.bench)
        with Not_found -> None
      in
      let line name (c : Experiments.t3_cell) pick =
        let s = c.Experiments.stats in
        Printf.printf "%-8s %-7s %6d %9.1f %7d %8.1f %9.1f %9.1f"
          r.Experiments.bench
          name s.Mapped.gates s.Mapped.area s.Mapped.levels s.Mapped.norm_delay
          s.Mapped.abs_delay_ps s.Mapped.sta_abs_delay_ps;
        (match Option.map pick paper with
        | Some (p : Paper_data.mapping_result) ->
            Printf.printf "   (%d %.0f %d %.1f %.1f)" p.Paper_data.gates
              p.Paper_data.area p.Paper_data.levels p.Paper_data.norm_delay
              p.Paper_data.abs_delay_ps
        | None -> ());
        print_newline ()
      in
      line "static" r.Experiments.static_r (fun p -> p.Paper_data.static);
      line "pseudo" r.Experiments.pseudo_r (fun p -> p.Paper_data.pseudo);
      line "cmos" r.Experiments.cmos_r (fun p -> p.Paper_data.cmos_map))
    rows;
  Printf.printf "\naggregates (computed | paper):\n";
  let paper_of = function
    | "gate_reduction_static" -> Some 0.386
    | "area_reduction_static" -> Some 0.377
    | "area_reduction_pseudo" -> Some 0.645
    | "level_reduction_static" -> Some 0.415
    | "level_reduction_pseudo" -> Some 0.404
    | "speedup_static" -> Some 6.9
    | "speedup_pseudo" -> Some 5.8
    | _ -> None
  in
  List.iter
    (fun (k, v) ->
      match paper_of k with
      | Some p -> Printf.printf "  %-24s %6.3f | %.3f\n" k v p
      | None -> Printf.printf "  %-24s %6.3f |\n" k v)
    (Experiments.summarize rows);

  hr "Figure 6 - CMOS/CNTFET absolute delay ratio";
  List.iter
    (fun (r : Experiments.t3_row) ->
      let cm = r.Experiments.cmos_r.Experiments.stats.Mapped.abs_delay_ps in
      let st = r.Experiments.static_r.Experiments.stats.Mapped.abs_delay_ps in
      let ps = r.Experiments.pseudo_r.Experiments.stats.Mapped.abs_delay_ps in
      let paper =
        List.find_opt
          (fun (n, _, _) -> n = r.Experiments.bench)
          Paper_data.fig6_speedups
      in
      match paper with
      | Some (_, a, b) ->
          Printf.printf
            "  %-8s static %5.2fx (paper %5.2fx)  pseudo %5.2fx (paper %5.2fx)\n"
            r.Experiments.bench (cm /. st) a (cm /. ps) b
      | None ->
          Printf.printf "  %-8s static %5.2fx  pseudo %5.2fx\n"
            r.Experiments.bench (cm /. st) (cm /. ps))
    rows;

  hr "STA - load-aware delay vs the published unit-load convention";
  Printf.printf
    "%-8s %-7s %10s %10s %10s   (unit-load FO4 | load-aware STA | paper)\n"
    "bench" "lib" "ps" "sta-ps" "paper-ps";
  List.iter
    (fun (r : Experiments.t3_row) ->
      let paper =
        try Some (Paper_data.table3_find r.Experiments.bench)
        with Not_found -> None
      in
      let line name (c : Experiments.t3_cell) pick =
        let s = c.Experiments.stats in
        let pub =
          match Option.map pick paper with
          | Some (p : Paper_data.mapping_result) ->
              Printf.sprintf "%10.1f" p.Paper_data.abs_delay_ps
          | None -> Printf.sprintf "%10s" "-"
        in
        Printf.printf "%-8s %-7s %10.1f %10.1f %s\n" r.Experiments.bench name
          s.Mapped.abs_delay_ps s.Mapped.sta_abs_delay_ps pub
      in
      line "static" r.Experiments.static_r (fun p -> p.Paper_data.static);
      line "cmos" r.Experiments.cmos_r (fun p -> p.Paper_data.cmos_map))
    rows;
  let assoc k l = try List.assoc k l with Not_found -> nan in
  let sums = Experiments.summarize rows in
  Printf.printf
    "\n  speedup vs CMOS: unit-load static %.2fx pseudo %.2fx | STA static \
     %.2fx pseudo %.2fx | paper 6.9x / 5.8x\n"
    (assoc "speedup_static" sums)
    (assoc "speedup_pseudo" sums)
    (assoc "sta_speedup_static" sums)
    (assoc "sta_speedup_pseudo" sums);

  hr "STA-backed timing-driven mapping (static library)";
  Printf.printf "%-8s %10s %10s %12s %12s\n" "bench" "delay" "delay(tm)"
    "sta-delay" "sta-delay(tm)";
  let map_stats ctx script =
    let ctx', _ = Flow.run (Flow.parse_script_exn script) ctx in
    Mapped.stats (Option.get ctx'.Flow.mapped)
  in
  List.iter
    (fun bench ->
      let e = Bench_suite.find bench in
      let ctx = Flow.init ~name:bench (e.Bench_suite.build ()) in
      let ctx, _ = Flow.run (Flow.parse_script_exn "resyn2rs") ctx in
      let s0 = map_stats ctx "map(family=static)" in
      let s1 = map_stats ctx "map(family=static,timing)" in
      Printf.printf "%-8s %10.1f %10.1f %12.1f %12.1f%s\n" bench
        s0.Mapped.norm_delay s1.Mapped.norm_delay s0.Mapped.sta_norm_delay
        s1.Mapped.sta_norm_delay
        (if s1.Mapped.sta_norm_delay < s0.Mapped.sta_norm_delay -. 1e-9 then
           "  <- improved"
         else ""))
    (match benches with
    | Some l -> l
    | None -> List.map (fun (e : Bench_suite.entry) -> e.Bench_suite.name)
                Bench_suite.all)

(* ---------------- static testability (DESIGN.md §12) ---------------- *)

let print_testability () =
  let entries =
    match benches with
    | None -> Bench_suite.all
    | Some names -> List.map Bench_suite.find names
  in
  let mapped_of ?(cost = "area") fam (e : Bench_suite.entry) =
    let ctx = Flow.init ~family:fam ~name:e.Bench_suite.name (e.Bench_suite.build ()) in
    let ctx, _ =
      Flow.run
        (Flow.parse_script_exn (Printf.sprintf "synth(light); map(cost=%s)" cost))
        ctx
    in
    (Option.get ctx.Flow.mapped, Option.get ctx.Flow.golden)
  in

  hr "Static testability - SCOAP / collapsing / redundancy per family (DESIGN.md §12)";
  let rows =
    Array.to_list
      (Flow.Runner.map_jobs ~domains:jobs
         (fun ((fam, e) : Cell_netlist.family * Bench_suite.entry) ->
           let m, _ = mapped_of fam e in
           let t = Testability.analyze m in
           Printf.sprintf "%-10s %-12s %s" e.Bench_suite.name
             (Cell_netlist.family_name fam)
             (Testability.summary_line t.Testability.summary))
         (Array.of_list
            (List.concat_map
               (fun fam -> List.map (fun e -> (fam, e)) entries)
               Cell_netlist.all_families)))
  in
  List.iter print_endline rows;

  hr "Testability-driven mapping (tg-pseudo): map(cost=testability) vs map";
  (* random-pattern detection under a tight pattern budget is where mapping
     choices show before coverage saturates; ATPG is capped at one conflict
     so the sim-only detection fraction is the metric *)
  let rounds = 2 and budget = 1 in
  Printf.printf
    "%-8s %7s %8s %8s %9s %9s %8s %5s   (sim-detected%% of %d x 64 patterns)\n"
    "bench" "det%" "det%(tb)" "delta" "area" "area(tb)" "darea%" "cec" rounds;
  let cells =
    Array.to_list
      (Flow.Runner.map_jobs ~domains:jobs
         (fun (e : Bench_suite.entry) ->
           let fam = Cell_netlist.Tg_pseudo in
           let m0, _ = mapped_of fam e in
           let m1, golden = mapped_of ~cost:"testability" fam e in
           let det m =
             let _, s =
               Gate_fault.analyze ~rounds ~conflict_budget:budget m
             in
             ( 100.0 *. float_of_int s.Gate_fault.g_sim
               /. float_of_int s.Gate_fault.g_total,
               s.Gate_fault.g_total )
           in
           let d0, n0 = det m0 and d1, n1 = det m1 in
           let a0 = (Mapped.stats m0).Mapped.area
           and a1 = (Mapped.stats m1).Mapped.area in
           let cec =
             match
               Cec.check ~conflict_budget:200_000 golden (Mapped.to_aig m1)
             with
             | Cec.Equivalent -> "ok"
             | Cec.Inequivalent _ -> "FAIL"
             | Cec.Undecided -> "?"
           in
           (e.Bench_suite.name, d0, n0, d1, n1, a0, a1, cec))
         (Array.of_list entries))
  in
  let sum0 = ref 0.0 and sum1 = ref 0.0 and asum = ref 0.0 in
  List.iter
    (fun (name, d0, _, d1, _, a0, a1, cec) ->
      sum0 := !sum0 +. d0;
      sum1 := !sum1 +. d1;
      asum := !asum +. (100.0 *. (a1 -. a0) /. a0);
      Printf.printf "%-8s %7.3f %8.3f %+8.3f %9.1f %9.1f %+7.2f%% %5s\n" name
        d0 d1 (d1 -. d0) a0 a1
        (100.0 *. (a1 -. a0) /. a0)
        cec)
    cells;
  let n = float_of_int (List.length cells) in
  Printf.printf
    "mean     %7.3f %8.3f %+8.3f %28s %+7.2f%%\n"
    (!sum0 /. n) (!sum1 /. n)
    ((!sum1 -. !sum0) /. n)
    "" (!asum /. n)

(* ---------------- ablations ---------------- *)

let print_ablations () =
  let aig = Synth.resyn2rs (Ecc.c1355_like ()) in

  hr "Ablation: mapper cut size K (C1355, static library)";
  let flow_stats ctx script =
    let ctx', _ = Flow.run (Flow.parse_script_exn script) ctx in
    Mapped.stats (Option.get ctx'.Flow.mapped)
  in
  let c1355_ctx = Flow.init ~name:"C1355" aig in
  List.iter
    (fun k ->
      let s = flow_stats c1355_ctx (Printf.sprintf "map(family=static,cut=%d)" k) in
      Printf.printf "  K=%d  gates=%d area=%.1f levels=%d delay=%.1f\n" k
        s.Mapped.gates s.Mapped.area s.Mapped.levels s.Mapped.norm_delay)
    [ 3; 4; 5; 6 ];

  hr "Ablation: free output polarity (C1355, static library)";
  List.iter
    (fun free ->
      let opts =
        { Experiments.default_options with
          Experiments.free_output_polarity = free }
      in
      let lib_s, _, _ = Experiments.libraries opts in
      let m = Mapper.map lib_s aig in
      let s = Mapped.stats m in
      Printf.printf "  free-polarity=%-5b gates=%d area=%.1f delay=%.1f\n" free
        s.Mapped.gates s.Mapped.area s.Mapped.norm_delay)
    [ true; false ];

  hr "Ablation: synthesis effort (t481, static library)";
  let raw = Logic_gen.t481_like () in
  List.iter
    (fun (name, mode) ->
      let s =
        flow_stats
          (Flow.init ~name:"t481" raw)
          (Printf.sprintf "synth(%s); map(family=static)" mode)
      in
      Printf.printf "  %-10s gates=%d area=%.1f levels=%d delay=%.1f\n" name
        s.Mapped.gates s.Mapped.area s.Mapped.levels s.Mapped.norm_delay)
    [ ("none", "none"); ("light", "light"); ("resyn2rs", "full") ];

  hr "Ablation: characterization source (C1355)";
  List.iter
    (fun (name, src) ->
      let opts =
        { Experiments.default_options with Experiments.char_source = src }
      in
      let lib_s, _, _ = Experiments.libraries opts in
      let m = Mapper.map lib_s aig in
      let s = Mapped.stats m in
      Printf.printf "  %-10s gates=%d area=%.1f delay=%.1f\n" name
        s.Mapped.gates s.Mapped.area s.Mapped.norm_delay)
    [ ("computed", Experiments.Computed); ("published", Experiments.Published) ]

(* ---------------- bechamel timing ---------------- *)

let timing_tests () =
  let adder16 = Synth.resyn2rs (Arith.adder 16) in
  let lib_static = Core.library `Tg_static in
  let lib_cmos = Core.library `Cmos in
  let t481 = Logic_gen.t481_like () in
  let mult = Arith.multiplier 8 in
  [
    (* Table 2 kernel: full electrical characterization of all families *)
    Test.make ~name:"table2/characterize-catalog"
      (Staged.stage (fun () ->
           List.iter
             (fun fam -> ignore (Charlib.characterize_catalog fam))
             Cell_netlist.all_families));
    (* Table 3 kernels *)
    Test.make ~name:"table3/map-add16-static"
      (Staged.stage (fun () -> ignore (Mapper.map lib_static adder16)));
    Test.make ~name:"table3/map-add16-cmos"
      (Staged.stage (fun () -> ignore (Mapper.map lib_cmos adder16)));
    Test.make ~name:"table3/synth-t481"
      (Staged.stage (fun () -> ignore (Synth.resyn2rs t481)));
    (* Figure 6 kernel: a full flow *)
    Test.make ~name:"fig6/flow-mult8-static"
      (Staged.stage (fun () ->
           ignore (Mapper.map lib_static (Synth.light mult))));
    (* the same flow through the pass-pipeline engine (script dispatch,
       library cache, per-pass sampling overhead included) *)
    Test.make ~name:"fig6/flow-engine-mult8-static"
      (Staged.stage
         (let script = Flow.parse_script_exn "light; map(family=static)" in
          fun () -> ignore (Flow.run script (Flow.init ~name:"mult8" mult))));
    (* supporting engines *)
    Test.make ~name:"engine/npn-canonical-4var"
      (Staged.stage
         (let rng = Rand64.create 5L in
          fun () -> ignore (Npn.canonical 4 (Rand64.next rng))));
    Test.make ~name:"engine/cut-enum-add16"
      (Staged.stage (fun () ->
           ignore (Cut.compute_packed adder16 ~k:6 ~limit:12)));
    Test.make ~name:"engine/cec-adder8"
      (Staged.stage (fun () ->
           let a = Arith.adder 8 and b = Synth.resyn2rs (Arith.adder 8) in
           match Cec.check a b with
           | Cec.Equivalent -> ()
           | _ -> failwith "cec"));
  ]

let run_timings () =
  hr "bechamel timings";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
  in
  let tests = Test.make_grouped ~name:"cntfet" (timing_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort compare
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-36s %14.1f ns/run\n" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n" name)
        rows)
    merged

let () =
  let t0 = Unix.gettimeofday () in
  print_reproduction ();
  print_testability ();
  print_ablations ();
  run_timings ();
  Printf.printf "\ntotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
