(* The unified flow driver: one entry point for the whole
   optimize → map → characterize → verify pipeline.

   Examples:
     flow --script "b; rw; rf; map(cut=6,timing); sta; lint" --bench add-16
     flow --family all --jobs 4 --metrics tsv --metrics-out flow-metrics.tsv
     flow --input circuit.blif --family pseudo
     flow --script "synth(light); map; fault" --checkpoint sweep.ck
     flow --list-passes *)

let prog = "flow"
let script = ref "synth(light); map; sta; lint"
let benches = ref []
let inputs = ref []
let families = ref "static"
let jobs = ref 1
let seed = ref "2026"
let conflict_budget = ref 0
let pass_budget = ref 0.0
let no_isolate = ref false
let checkpoint = ref ""
let metrics = ref ""
let metrics_out = ref ""
let list_passes = ref false
let quiet = ref false

let specs =
  [
    ( "--script",
      Arg.Set_string script,
      "S pass script, ';'-separated (default \"synth(light); map; sta; \
       lint\")" );
    ( "--bench",
      Arg.String (fun s -> benches := s :: !benches),
      "NAME restrict to one benchmark (repeatable; default all 15)" );
    ( "--input",
      Arg.String (fun s -> inputs := s :: !inputs),
      "FILE add a circuit from a .blif or .bench file (repeatable; a \
       malformed file becomes an input-parse error while the other circuits \
       still run)" );
    ( "--family",
      Arg.Set_string families,
      "FAMS map targets, comma-separated subset of \
       static,pseudo,pass-pseudo,pass-static,cmos or 'all' (default static)"
    );
    ( "--jobs",
      Arg.Set_int jobs,
      "N domains (default 1; 0 = all cores; output is identical at any N). \
       Several (benchmark, family) jobs fan across domains; a single job \
       instead parallelizes within the circuit (synthesis candidate \
       analysis and the mapper's match arena)" );
    ( "--seed",
      Arg.Set_string seed,
      "N pattern seed of verify and fault unless the step sets seed=N, and \
       of cec (default 2026)" );
    ( "--conflict-budget",
      Arg.Set_int conflict_budget,
      "N SAT conflict cap for lint, fault ATPG and cec unless the step sets \
       budget=N (cec: for the whole check; 0 = default budgets, negative is \
       a usage error; exhaustion degrades to a Warning)" );
    ( "--pass-budget",
      Arg.Set_float pass_budget,
      "S wall-clock budget per pass in seconds; overruns add a \
       flow-pass-budget Warning (0 = off)" );
    ( "--no-isolate",
      Arg.Set no_isolate,
      " let a crashing pass abort the whole run instead of becoming a \
       flow-pass-crash diagnostic" );
    ( "--checkpoint",
      Arg.Set_string checkpoint,
      "FILE save each finished benchmark there and skip benchmarks already \
       saved (resume a long matrix run after an interruption)" );
    ( "--metrics",
      Arg.Set_string metrics,
      "MODE per-pass metrics: human, tsv or json" );
    ( "--metrics-out",
      Arg.Set_string metrics_out,
      "FILE write the metrics there instead of stdout" );
    ("--list-passes", Arg.Set list_passes, " list the registered passes and exit");
    ("--quiet", Arg.Set quiet, " print only the summary lines");
  ]

let usage =
  "flow [options]\n\n\
   A pass's parameters are arguments in the script, each with its own\n\
   default, e.g. \"synth(light); map(cut=5,timing); sta(po=2,unit)\".\n\
   --list-passes lists every pass with its arguments and defaults.  A bad\n\
   argument value is a usage error, reported before anything runs.\n\n\
   Exit codes:\n\
  \  0  clean run (no Error diagnostics)\n\
  \  1  findings: Error diagnostics such as lint or verification failures\n\
  \  2  usage error (bad flag, script, argument value, family or benchmark\n\
  \     name)\n\
  \  3  crash: a pass or benchmark crashed and was isolated\n\
  \     (flow-pass-crash / flow-bench-crash / flow-driver-crash)\n\
  \  130 interrupted\n\nOptions:"

(* ---- --input circuits ---------------------------------------------- *)

let load_input path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      match String.lowercase_ascii (Filename.extension path) with
      | ".blif" -> Blif.read ~file:path ic
      | ".bench" -> Bench_fmt.read ~file:path ic
      | ext ->
          failwith
            (Printf.sprintf "unknown input format %S (expected .blif or .bench)"
               ext))

(* Parse every --input eagerly: a malformed or unreadable file becomes an
   [input-parse] error diagnostic and the remaining circuits still run. *)
let input_circuits paths =
  List.fold_left
    (fun (entries, diags) path ->
      let diag fmt =
        Printf.ksprintf
          (fun msg ->
            ( entries,
              diags
              @ [ Diag.errorf ~rule:"input-parse" (Diag.Circuit path) "%s" msg ]
            ))
          fmt
      in
      match load_input path with
      | aig ->
          let name = Filename.remove_extension (Filename.basename path) in
          ( entries
            @ [
                {
                  Bench_suite.name;
                  description = path;
                  build = (fun () -> aig);
                };
              ],
            diags )
      | exception Parse_error.Error e -> diag "%s" (Parse_error.to_string e)
      | exception Sys_error msg -> diag "%s" msg
      | exception Failure msg -> diag "%s" msg)
    ([], []) paths

(* ---- per-benchmark plain-data projection --------------------------- *)
(* Fresh results and checkpoint-replayed benchmarks flow through the same
   (lines, diags, samples) shape, so resumed runs print identically. *)

let result_lines ~has_map (r : Flow.bench_result) =
  if has_map then
    List.map (fun (_, ctx, _) -> Flow.summary_line ctx) r.Flow.br_per_family
  else [ Flow.summary_line r.Flow.br_ctx0 ]

let main () =
  Arg.parse (Arg.align specs)
    (fun a -> Cli_common.usage_die ~prog ("unexpected argument " ^ a))
    usage;
  if !list_passes then begin
    List.iter (fun (n, doc) -> Printf.printf "%-10s %s\n" n doc) Flow.passes;
    exit 0
  end;
  let steps =
    match Flow.parse_script !script with
    | Ok s -> s
    | Error msg -> Cli_common.usage_die ~prog msg
  in
  (match !metrics with
  | "" | "human" | "tsv" | "json" -> ()
  | m -> Cli_common.usage_die ~prog ("unknown metrics mode " ^ m));
  if !conflict_budget < 0 then
    Cli_common.usage_die ~prog
      (Printf.sprintf "--conflict-budget expects at least 0, got %d"
         !conflict_budget);
  let fams = Cli_common.parse_families ~prog !families in
  let input_entries, input_diags = input_circuits (List.rev !inputs) in
  let entries =
    (* --input without --bench means "just these circuits" *)
    if !benches = [] && (input_entries <> [] || input_diags <> []) then
      input_entries
    else Cli_common.bench_entries ~prog !benches @ input_entries
  in
  let seed =
    try Int64.of_string !seed
    with _ -> Cli_common.usage_die ~prog ("bad --seed " ^ !seed)
  in
  (* [--jobs n] with several (benchmark, family) jobs fans whole jobs
     across domains (the historic behavior); with exactly one job the
     fan-out is useless, so the domains move inside the circuit instead.
     Either way output is byte-identical to a sequential run. *)
  let njobs =
    if !jobs = 0 then Flow.Runner.recommended_domains () else max 1 !jobs
  in
  let single_job = List.length entries * List.length fams <= 1 in
  let within = if single_job then njobs else 1 in
  let config =
    {
      Flow.default_config with
      jobs = within;
      seed;
      conflict_budget =
        (if !conflict_budget > 0 then Some !conflict_budget else None);
      isolate = not !no_isolate;
      pass_budget_s = (if !pass_budget > 0.0 then Some !pass_budget else None);
    }
  in
  let domains = if single_job then 1 else njobs in
  let has_map = snd (Flow.split_at_map steps) <> [] in
  let run_fresh ?on_result todo =
    try Flow.run_matrix ~domains ~config ?on_result ~script:steps ~families:fams
          todo
    with Flow.Flow_error msg -> Cli_common.usage_die ~prog msg
  in
  let to_entry r =
    Flow.Checkpoint.of_result r ~lines:(result_lines ~has_map r)
  in
  (* One checkpoint entry per benchmark, in request order: replayed from the
     checkpoint file when present, computed (and saved) otherwise. *)
  let per_bench =
    if !checkpoint = "" then
      Array.to_list (run_fresh entries) |> List.map to_entry
    else begin
      let saved = Flow.Checkpoint.load !checkpoint in
      let todo =
        List.filter
          (fun (e : Bench_suite.entry) ->
            not (Flow.Checkpoint.mem saved e.Bench_suite.name))
          entries
      in
      let store = ref saved in
      let lock = Mutex.create () in
      let on_result r =
        let entry = to_entry r in
        Mutex.protect lock (fun () ->
            store := !store @ [ entry ];
            Flow.Checkpoint.save !checkpoint !store)
      in
      ignore (run_fresh ~on_result todo);
      let final = !store in
      List.filter_map
        (fun (e : Bench_suite.entry) ->
          List.find_opt
            (fun (ck : Flow.Checkpoint.entry) ->
              ck.Flow.Checkpoint.ck_bench = e.Bench_suite.name)
            final)
        entries
    end
  in
  (* deterministic report: one summary line per benchmark x family (just
     one per benchmark when the script never maps) *)
  List.iter
    (fun (ck : Flow.Checkpoint.entry) ->
      List.iter print_endline ck.Flow.Checkpoint.ck_lines)
    per_bench;
  (* findings, if any *)
  let diags =
    input_diags
    @ List.concat_map
        (fun (ck : Flow.Checkpoint.entry) -> ck.Flow.Checkpoint.ck_diags)
        per_bench
    |> Diag.sort
  in
  if (not !quiet) && diags <> [] then begin
    print_newline ();
    List.iter (fun d -> Format.printf "%a@." Diag.pp d) diags
  end;
  (* per-pass metrics *)
  (if !metrics <> "" then
     let samples =
       List.concat_map
         (fun (ck : Flow.Checkpoint.entry) -> ck.Flow.Checkpoint.ck_samples)
         per_bench
     in
     let text =
       match !metrics with
       | "human" -> Flow.render_samples samples
       | "tsv" ->
           Flow.samples_tsv_header ^ "\n"
           ^ String.concat "\n" (List.map Flow.sample_to_tsv samples)
           ^ "\n"
       | _ -> Flow.samples_to_json samples
     in
     match !metrics_out with
     | "" -> print_string text
     | path ->
         let oc = open_out path in
         Fun.protect
           ~finally:(fun () -> close_out oc)
           (fun () -> output_string oc text)
     );
  (* Crash diagnostics get their own exit code so callers (CI, the serve
     supervisor's smoke tests) can tell "the design has findings" from
     "the tool itself broke and the isolation machinery caught it".
     Crash takes precedence over findings. *)
  let crash_rules =
    [ "flow-pass-crash"; "flow-bench-crash"; "flow-driver-crash" ]
  in
  let crashed =
    List.exists (fun (d : Diag.t) -> List.mem d.Diag.rule crash_rules) diags
  in
  exit (if crashed then 3 else if Diag.has_errors diags then 1 else 0)

(* Anything that still escapes (a crashing pass under --no-isolate, a full
   disk while checkpointing, ...) is reported as a diagnostic line, never a
   backtrace. *)
let () =
  try main ()
  with
  | Sys.Break ->
      prerr_endline (prog ^ ": interrupted");
      exit 130
  | exn ->
      Format.eprintf "%a@." Diag.pp
        (Diag.errorf ~rule:"flow-driver-crash" (Diag.Circuit prog) "%s"
           (Printexc.to_string exn));
      exit 3
