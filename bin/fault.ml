(* Fault-injection CLI (DESIGN.md §11).

   Two granularities:
   - `fault --catalog`: transistor-level fault dictionary of every catalog
     cell for the selected families (exhaustive switch-level simulation of
     each fault site), with the function-morph report the polarity gates
     make interesting.  `--md` emits the committed FAULTS.md document.
   - `fault --bench NAME`: gate-level stuck-at fault simulation + SAT ATPG
     over the mapped benchmark, with coverage summary per family.
   - `fault --bench NAME --testability`: the *static* analysis instead —
     SCOAP scores, fault collapsing and redundancy identification
     (Testability), no simulation or SAT. *)

let prog = "fault"
let catalog = ref false
let benches = ref []
let families = ref "all"
let synth_mode = ref "light"
let cut_size = ref 6
let rounds = ref 32
let seed = ref "2026"
let conflict_budget = ref 100_000
let tsv = ref false
let md = ref false
let morphs = ref false
let testability = ref false
let no_learn = ref false
let cost = ref "area"
let out = ref ""

let specs =
  [
    ( "--catalog",
      Arg.Set catalog,
      " transistor-level fault dictionary of the catalog cells" );
    ( "--bench",
      Arg.String (fun s -> benches := s :: !benches),
      "NAME gate-level stuck-at analysis of a mapped benchmark (repeatable)"
    );
    ( "--family",
      Arg.Set_string families,
      "FAMS comma-separated families or 'all' (default all)" );
    ( "--synth",
      Arg.Set_string synth_mode,
      "MODE optimization before mapping: none|light|full (default light)" );
    ("--cut-size", Arg.Set_int cut_size, "K mapper cut size (default 6)");
    ( "--rounds",
      Arg.Set_int rounds,
      "N 64-pattern random rounds before ATPG (default 32)" );
    ("--seed", Arg.Set_string seed, "N pattern seed (default 2026)");
    ( "--conflict-budget",
      Arg.Set_int conflict_budget,
      "N SAT conflicts per ATPG target before Unknown (default 100000)" );
    ("--tsv", Arg.Set tsv, " machine-readable per-fault output");
    ("--md", Arg.Set md, " markdown fault-dictionary document (FAULTS.md)");
    ("--morphs", Arg.Set morphs, " list every function-morphing fault");
    ( "--testability",
      Arg.Set testability,
      " static testability analysis of the mapped benchmark (SCOAP, \
       collapsing, redundancy) instead of fault simulation" );
    ( "--no-learn",
      Arg.Set no_learn,
      " testability: skip static learning (forward constants only)" );
    ( "--cost",
      Arg.Set_string cost,
      "KIND mapper covering cost: area|testability (default area)" );
    ("--out", Arg.Set_string out, "FILE write the report there");
  ]

let usage = "fault (--catalog | --bench NAME) [options]  (see --help)"

let with_out f =
  match !out with
  | "" -> f stdout
  | path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let catalog_report fams oc =
  let per_family =
    List.map
      (fun fam ->
        let reports = Cell_fault.analyze_family fam in
        (fam, reports, Cell_fault.summarize fam reports))
      fams
  in
  if !md then output_string oc (Cell_fault.render_markdown per_family)
  else if !tsv then begin
    let all_reports = List.concat_map (fun (_, r, _) -> r) per_family in
    output_string oc (Cell_fault.reports_tsv all_reports);
    output_char oc '\n'
  end
  else begin
    Printf.fprintf oc "%s\n" Cell_fault.summary_header;
    List.iter
      (fun (_, _, s) -> Printf.fprintf oc "%s\n" (Cell_fault.summary_line s))
      per_family;
    if !morphs then
      List.iter
        (fun (fam, reports, _) ->
          let lines = Cell_fault.morph_lines reports in
          if lines <> [] then begin
            Printf.fprintf oc "\n%s function morphs (%d):\n"
              (Cell_netlist.family_name fam)
              (List.length lines);
            List.iter (fun l -> Printf.fprintf oc "  %s\n" l) lines
          end)
        per_family
  end

(* The benchmarks are mapped by the flow's own "synth; map" script; the
   --synth, --cut-size and --cost flags become its steps and arguments. *)
let map_script () =
  (* the cost name is pasted into the script: a ',' would add arguments *)
  if String.exists (fun c -> c = ',' || c = ';') !cost then
    Cli_common.usage_die ~prog ("unknown --cost " ^ !cost);
  let script =
    Printf.sprintf "%s; map(cut=%d,cost=%s)"
      (Cli_common.synth_steps ~prog !synth_mode)
      !cut_size !cost
  in
  match Flow.parse_script script with
  | Ok steps -> steps
  | Error msg -> Cli_common.usage_die ~prog msg

let bench_report ~script entries fams seed oc =
  Array.iter
    (fun (r : Flow.bench_result) ->
      List.iter
        (fun (fam, (ctx : Flow.ctx), _) ->
          let mapped = Option.get ctx.Flow.mapped in
          let header () =
            Printf.fprintf oc "# %s %s\n" r.Flow.br_bench
              (Cell_netlist.family_name fam)
          in
          let summary_line line =
            Printf.fprintf oc "%-10s %-12s %s\n" r.Flow.br_bench
              (Cell_netlist.family_name fam)
              line
          in
          if !testability then begin
            let t = Testability.analyze ~learn:(not !no_learn) mapped in
            if !tsv then begin
              header ();
              output_string oc (Testability.to_tsv mapped t);
              output_char oc '\n'
            end
            else summary_line (Testability.summary_line t.Testability.summary)
          end
          else begin
            let results, summary =
              Gate_fault.analyze ~rounds:!rounds ~seed
                ~conflict_budget:!conflict_budget mapped
            in
            if !tsv then begin
              header ();
              output_string oc (Gate_fault.results_tsv mapped results);
              output_char oc '\n'
            end
            else summary_line (Gate_fault.summary_line summary)
          end)
        r.Flow.br_per_family)
    (Flow.run_matrix ~script ~families:fams entries)

let () =
  Arg.parse (Arg.align specs)
    (fun a -> Cli_common.usage_die ~prog ("unexpected argument " ^ a))
    usage;
  if !rounds < 0 then
    Cli_common.usage_die ~prog
      (Printf.sprintf "--rounds expects at least 0, got %d" !rounds);
  if !conflict_budget < 1 then
    Cli_common.usage_die ~prog
      (Printf.sprintf "--conflict-budget expects at least 1, got %d"
         !conflict_budget);
  let script = map_script () in
  let seed =
    try Int64.of_string !seed
    with _ -> Cli_common.usage_die ~prog ("bad --seed " ^ !seed)
  in
  let fams = Cli_common.parse_families ~prog !families in
  if (not !catalog) && !benches = [] then
    Cli_common.usage_die ~prog "nothing to do: pass --catalog and/or --bench";
  with_out (fun oc ->
      if !catalog then catalog_report fams oc;
      if !benches <> [] then begin
        let entries = Cli_common.bench_entries ~prog !benches in
        if !catalog && not !tsv then output_char oc '\n';
        bench_report ~script entries fams seed oc
      end)
