(* Static-timing-analysis CLI — a thin wrapper over the Flow engine.

   Runs the "synth; map; sta" script across the benchmark x family matrix
   and reports load-aware arrival/required/slack times, the stage-by-stage
   critical path, per-endpoint timing, and slack histograms — human-readable
   or TSV.

   Examples:
     sta --bench add-16 --family static --report path
     sta --family all --report endpoints --tsv
     sta --bench C6288 --timing-map --report path,histogram *)

let prog = "sta"
let benches = ref []
let families = ref "static"
let synth_mode = ref "light"
let reports = ref "summary"
let tsv = ref false
let po_fanout = ref 4.0
let unit_loads = ref false
let timing_map = ref false
let cut_size = ref 6
let jobs = ref 1

let specs =
  [
    ( "--bench",
      Arg.String (fun s -> benches := s :: !benches),
      "NAME restrict to one benchmark (repeatable; default all 15)" );
    ( "--family",
      Arg.Set_string families,
      "FAMS libraries, comma-separated subset of \
       static,pseudo,pass-pseudo,pass-static,cmos or 'all' (default \
       static)" );
    ( "--synth",
      Arg.Set_string synth_mode,
      "MODE optimization before mapping: none|light|full (default light)" );
    ( "--report",
      Arg.Set_string reports,
      "KINDS comma-separated subset of summary,path,endpoints,histogram \
       (default summary)" );
    ("--tsv", Arg.Set tsv, " machine-readable tab-separated reports");
    ( "--po-fanout",
      Arg.Set_float po_fanout,
      "N reference loads on each primary output (default 4)" );
    ( "--unit-loads",
      Arg.Set unit_loads,
      " fixed FO4 delay per cell (the legacy Table 3 convention)" );
    ( "--timing-map",
      Arg.Set timing_map,
      " map with the STA-backed load-aware delay cost" );
    ("--cut-size", Arg.Set_int cut_size, "K mapper cut size (default 6)");
    ( "--jobs",
      Arg.Set_int jobs,
      "N fan benchmarks across N domains (default 1; output is identical \
       at any N)" );
  ]

let usage = "sta [options]  (see --help)"

let () =
  Arg.parse (Arg.align specs)
    (fun a -> Cli_common.usage_die ~prog ("unexpected argument " ^ a))
    usage;
  Result.iter_error (Cli_common.usage_die ~prog)
    (Flow.check_cut_size ~arg:"--cut-size" !cut_size);
  let entries = Cli_common.bench_entries ~prog !benches in
  let kinds = String.split_on_char ',' !reports in
  List.iter
    (fun k ->
      if not (List.mem k [ "summary"; "path"; "endpoints"; "histogram" ])
      then Cli_common.usage_die ~prog ("unknown report kind " ^ k))
    kinds;
  let fams = Cli_common.parse_families ~prog !families in
  let script =
    Flow.parse_script_exn
      (Cli_common.synth_steps ~prog !synth_mode ^ "; map; sta")
  in
  let config =
    {
      Flow.default_config with
      cut_size = !cut_size;
      timing = !timing_map;
      po_fanout = !po_fanout;
      unit_loads = !unit_loads;
    }
  in
  let results =
    Flow.run_matrix ~domains:!jobs ~config ~script ~families:fams entries
  in
  Array.iter
    (fun (r : Flow.bench_result) ->
      List.iter
        (fun (fam, (ctx : Flow.ctx), _) ->
          let m = Option.get ctx.Flow.mapped in
          let sta = Option.get ctx.Flow.sta in
          let tag =
            Printf.sprintf "%s/%s" r.Flow.br_bench
              (Cell_netlist.family_name fam)
          in
          List.iter
            (fun kind ->
              match kind with
              | "summary" ->
                  if !tsv then
                    Printf.printf "%s\t%d\t%d\t%.3f\t%.3f\n" tag
                      (Array.length m.Mapped.instances)
                      (Array.length sta.Sta.endpoints)
                      (Sta.norm_delay sta) (Sta.abs_delay_ps sta)
                  else Printf.printf "%s — %s\n" tag (Sta.summary sta)
              | "path" ->
                  if not !tsv then Printf.printf "%s —\n" tag;
                  print_string (Sta.render_path ~tsv:!tsv sta)
              | "endpoints" ->
                  if not !tsv then Printf.printf "%s —\n" tag;
                  print_string (Sta.render_endpoints ~tsv:!tsv sta)
              | "histogram" ->
                  if not !tsv then Printf.printf "%s —\n" tag;
                  print_string (Sta.render_histogram ~tsv:!tsv sta)
              | _ -> ())
            kinds)
        r.Flow.br_per_family)
    results
