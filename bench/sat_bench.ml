(* SAT benchmark: times the two SAT workloads the flow runs — the
   sweeping CEC (golden AIG vs its re-expanded mapping) and the fault-ATPG
   sweep (one miter, an assumption query per surviving fault) — and
   writes wall times and solver counters to BENCH_sat.json.

   Each (benchmark, task) measurement runs in a forked child process:
   solver instances keep arenas and learnt databases on the major heap,
   and one measurement's leftovers would tax the next.  The child
   synthesizes and maps the benchmark before the timed region, which
   holds the SAT task alone.  Two rounds of random fault simulation run
   before the ATPG sweep; on a circuit where they detect every fault (the
   adders), the row is measured again with none, so every row times SAT
   work.  Each row records the median wall time of its repeats with the
   min and max beside it.  The solver's differential tests live in
   test/test_sat.ml and test/test_fault.ml.

     dune exec bench/sat_bench.exe                    (fast subset, static)
     dune exec bench/sat_bench.exe -- --full --all-families
     dune exec bench/sat_bench.exe -- --bench t481 --repeat 5 --out my.json *)

let prog = "sat_bench"
let full = ref false
let benches = ref []
let out = ref "BENCH_sat.json"
let repeat = ref 3
let family = ref "static"
let all_families = ref false
let rounds = ref 2
let cec_only = ref false
let budget = ref 0

let specs =
  [
    ("--full", Arg.Set full, " run all 15 benchmarks (default: fast subset)");
    ( "--bench",
      Arg.String (fun s -> benches := s :: !benches),
      "NAME restrict to one benchmark (repeatable)" );
    ( "--out",
      Arg.Set_string out,
      "FILE output JSON path (default BENCH_sat.json)" );
    ( "--repeat",
      Arg.Set_int repeat,
      "N timing repetitions; rows record their min, median and max \
       (default 3)" );
    ( "--family",
      Arg.Set_string family,
      "F mapping target family (default static)" );
    ( "--all-families",
      Arg.Set all_families,
      " run every family (the full benchmark x family matrix)" );
    ( "--rounds",
      Arg.Set_int rounds,
      "N random fault-sim rounds before ATPG (default 2); a row where \
       they detect every fault runs none, so every fault reaches the SAT \
       sweep" );
    ( "--cec-only",
      Arg.Set cec_only,
      " skip the ATPG measurement" );
    ( "--conflict-budget",
      Arg.Set_int budget,
      "N cap each ATPG fault query and each CEC check at N conflicts \
       (default unbounded)" );
  ]

type measurement = {
  ms : float array;  (** every repeat's wall time, ascending *)
  st : Solver.stats;
  payload : string;
      (** CEC: the verdict word; ATPG: one status char per fault
          (S/A/R/U = sim-detected / ATPG-detected / redundant / unknown) *)
}

type row = {
  bench : string;
  fam : string;
  faults : int;
  rounds : int;  (** fault-simulation rounds before the ATPG sweep *)
  survivors : int;  (** faults left to the ATPG sweep *)
  cec : measurement;
  atpg : measurement;
}

(* Runs [f] in a forked child; the child prints one line to a pipe and
   exits, the parent returns the line. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (match f () with
      | line ->
          output_string oc (line ^ "\n");
          flush oc;
          exit 0
      | exception e ->
          prerr_endline (Printexc.to_string e);
          exit 2)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      match (snd (Unix.waitpid [] pid), line) with
      | Unix.WEXITED 0, Some line -> line
      | _ ->
          Printf.eprintf "%s: child measurement failed\n" prog;
          exit 2)

(* [n] timed runs of [task], which fills a fresh stats record and returns
   the payload string; [prepare] runs once, untimed, and hands [task] its
   input.  Counters come from the last run (the workloads are
   deterministic, so every run counts the same). *)
let measure n prepare task =
  let line =
    in_child (fun () ->
        let input = prepare () in
        let times = ref [] and last = ref None in
        for _ = 1 to n do
          let stats = Solver.stats_create () in
          let t0 = Unix.gettimeofday () in
          let payload = task input stats in
          times := (1000.0 *. (Unix.gettimeofday () -. t0)) :: !times;
          last := Some (stats, payload)
        done;
        let st, payload = Option.get !last in
        Printf.sprintf "%s %d %d %d %d %d %d %s"
          (String.concat "," (List.map (Printf.sprintf "%.6f") !times))
          st.Solver.sat_solves st.Solver.sat_conflicts st.Solver.sat_decisions
          st.Solver.sat_propagations st.Solver.sat_restarts
          st.Solver.sat_learned payload)
  in
  Scanf.sscanf line "%s %d %d %d %d %d %d %s"
    (fun times solves conflicts decisions propagations restarts learned
         payload ->
      let st = Solver.stats_create () in
      st.Solver.sat_solves <- solves;
      st.Solver.sat_conflicts <- conflicts;
      st.Solver.sat_decisions <- decisions;
      st.Solver.sat_propagations <- propagations;
      st.Solver.sat_restarts <- restarts;
      st.Solver.sat_learned <- learned;
      let ms =
        String.split_on_char ',' times
        |> List.map float_of_string |> Array.of_list
      in
      Array.sort compare ms;
      { ms; st; payload })

let median m = m.ms.(Array.length m.ms / 2)

let verdict_word = function
  | Cec.Equivalent -> "equivalent"
  | Cec.Inequivalent _ -> "inequivalent"
  | Cec.Undecided -> "undecided"

let status_char = function
  | Gate_fault.Detected_sim -> 'S'
  | Gate_fault.Detected_atpg _ -> 'A'
  | Gate_fault.Redundant -> 'R'
  | Gate_fault.Unknown -> 'U'

let count c s = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 s

let run_bench lib fam_name (e : Bench_suite.entry) =
  let build () =
    let opt = Synth.resyn2rs (e.Bench_suite.build ()) in
    (opt, Mapper.map lib opt)
  in
  let cb = if !budget > 0 then Some !budget else None in
  let cec (opt, m) stats =
    verdict_word
      (Cec.check ?conflict_budget:cb ~stats opt (Mapped.to_aig m))
  in
  let atpg rounds =
    measure !repeat build (fun (_, m) stats ->
        let results, _ =
          Gate_fault.analyze ~rounds ~seed:2026L ?conflict_budget:cb ~stats m
        in
        String.init (Array.length results) (fun i ->
            status_char results.(i).Gate_fault.status))
  in
  let survivors m = String.length m.payload - count 'S' m.payload in
  (* where the rounds detect every fault, the sweep gets all of them *)
  let rounds, atpg =
    if !cec_only then
      (!rounds, { ms = [| 0.0 |]; st = Solver.stats_create (); payload = "" })
    else
      let m = atpg !rounds in
      if survivors m = 0 && !rounds > 0 then (0, atpg 0) else (!rounds, m)
  in
  {
    bench = e.Bench_suite.name;
    fam = fam_name;
    faults = String.length atpg.payload;
    rounds;
    survivors = survivors atpg;
    cec = measure !repeat build cec;
    atpg;
  }

let json_measurement b m =
  Printf.bprintf b
    "{\"ms\": %.3f, \"min_ms\": %.3f, \"max_ms\": %.3f, \"solves\": %d, \
     \"conflicts\": %d, \"decisions\": %d, \"propagations\": %d, \
     \"restarts\": %d, \"learned\": %d}"
    (median m) m.ms.(0)
    m.ms.(Array.length m.ms - 1)
    m.st.Solver.sat_solves m.st.Solver.sat_conflicts
    m.st.Solver.sat_decisions m.st.Solver.sat_propagations
    m.st.Solver.sat_restarts m.st.Solver.sat_learned

let () =
  Arg.parse (Arg.align specs)
    (fun a -> Cli_common.usage_die ~prog ("unexpected argument " ^ a))
    "sat_bench [options]";
  let fams =
    if !all_families then
      Cli_common.parse_families ~prog "all"
    else
      match Cli_common.family_of_name !family with
      | Some f -> [ f ]
      | None -> Cli_common.usage_die ~prog ("unknown --family " ^ !family)
  in
  let entries =
    if !benches <> [] then Cli_common.bench_entries ~prog !benches
    else if !full then Bench_suite.all
    else Cli_common.bench_entries ~prog Cli_common.fast_subset
  in
  let nproc = Cli_common.nproc () in
  let rows =
    List.concat_map
      (fun fam ->
        (* characterize before forking so the children inherit the lib *)
        let lib = Cell_lib.cached fam in
        let fam_name = Cli_common.family_arg_name fam in
        List.map
          (fun (e : Bench_suite.entry) ->
            let row = run_bench lib fam_name e in
            Printf.printf
              "%-10s %-12s cec %s %8.2fms | atpg %8.2fms survivors=%d \
               unk=%d\n%!"
              row.bench row.fam row.cec.payload (median row.cec)
              (median row.atpg) row.survivors
              (count 'U' row.atpg.payload);
            row)
          entries)
      fams
  in
  let sum f = List.fold_left (fun a row -> a +. f row) 0.0 rows in
  let tot_cec = sum (fun r -> median r.cec) in
  let tot_atpg = sum (fun r -> median r.atpg) in
  Printf.printf "total (medians): cec=%.2fms | atpg=%.2fms\n" tot_cec tot_atpg;
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "{\n  \"suite\": \"%s\",\n  \"families\": [%s],\n  \
     \"conflict_budget\": %d,\n  \"rows\": [\n"
    (if !benches <> [] then "custom" else if !full then "full" else "fast")
    (String.concat ", "
       (List.map
          (fun f -> "\"" ^ Cli_common.family_arg_name f ^ "\"")
          fams))
    !budget;
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    {\"bench\": \"%s\", \"family\": \"%s\", \"nproc\": %d, \
         \"repeat\": %d, \"faults\": %d, \"fault_rounds\": %d, \
         \"survivors\": %d, \"cec_verdict\": \"%s\", \"atpg_unknown\": %d,\n\
        \     \"cec\": "
        row.bench row.fam nproc !repeat row.faults row.rounds row.survivors
        row.cec.payload
        (count 'U' row.atpg.payload);
      json_measurement b row.cec;
      Buffer.add_string b ",\n     \"atpg\": ";
      json_measurement b row.atpg;
      Buffer.add_string b "}")
    rows;
  Printf.bprintf b
    "\n  ],\n  \"total\": {\"cec_ms\": %.3f, \"atpg_ms\": %.3f}\n}\n"
    tot_cec tot_atpg;
  let oc = open_out !out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "wrote %s\n" !out
