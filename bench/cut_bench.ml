(* Cut-engine benchmark: times the synth+map hot path under the packed
   engine against the reference (seed) engine, checks the results are
   identical, and writes the measurements — wall times, speedups, and the
   packed engine's hot-path counters — to BENCH_cut.json.

   Each (benchmark, engine) measurement runs in a forked child process:
   the packed engine keeps persistent memo caches alive on the major heap,
   and timing both engines in one process would tax the reference run
   with the GC pressure of the packed one.  The children report wall
   time, the engine's counters, and a digest of the results; the parent
   checks the digests agree.

     dune exec bench/cut_bench.exe                     (fast subset)
     dune exec bench/cut_bench.exe -- --full           (all 15 benchmarks)
     dune exec bench/cut_bench.exe -- --bench C1908 --out my.json --repeat 5 *)

let prog = "cut_bench"
let full = ref false
let benches = ref []
let out = ref "BENCH_cut.json"
let repeat = ref 3
let family = ref "static"

let specs =
  [
    ("--full", Arg.Set full, " run all 15 benchmarks (default: fast subset)");
    ( "--bench",
      Arg.String (fun s -> benches := s :: !benches),
      "NAME restrict to one benchmark (repeatable)" );
    ( "--out",
      Arg.Set_string out,
      "FILE output JSON path (default BENCH_cut.json)" );
    ( "--repeat",
      Arg.Set_int repeat,
      "N timing repetitions, best-of-N (default 3)" );
    ( "--family",
      Arg.Set_string family,
      "F mapping target family (default static)" );
  ]

type measurement = {
  ms : float;
  stats : Cut.stats;
  rss_kb : int;  (** child's peak RSS in kB; -1 where unavailable *)
  digest : string;  (** of the optimized AIG and the mapped netlist *)
}

type row = { bench : string; ands : int; r : measurement; p : measurement }

let run_engine lib aig engine stats =
  let opt = Synth.resyn2rs ~engine ~stats aig in
  let params = { Mapper.default_params with Mapper.engine } in
  let mapped, _ = Mapper.map_with_stats ~params lib opt in
  (opt, mapped)

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

let measure lib (e : Bench_suite.entry) engine n =
  let line =
    in_child (fun () ->
        let aig = e.Bench_suite.build () in
        let best = ref infinity and last = ref None in
        for _ = 1 to n do
          let stats = Cut.stats_create () in
          let t0 = Unix.gettimeofday () in
          let r = run_engine lib aig engine stats in
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt;
          last := Some (stats, r)
        done;
        let stats, (opt, mapped) = Option.get !last in
        (* [No_sharing] expands aliasing, so structurally equal results
           serialize identically regardless of how they were built *)
        let digest =
          Digest.to_hex
            (Digest.string
               (Marshal.to_string
                  (Blif.to_string opt, mapped)
                  [ Marshal.No_sharing ]))
        in
        let rss =
          match Cli_common.peak_rss_kb () with Some v -> v | None -> -1
        in
        Printf.sprintf "%.6f %d %d %d %d %d %d %d %s" (1000.0 *. !best)
          stats.Cut.built stats.Cut.dominated stats.Cut.sign_rejects
          stats.Cut.tt_merges stats.Cut.refills stats.Cut.probes rss digest)
  in
  Scanf.sscanf line "%f %d %d %d %d %d %d %d %s"
    (fun ms built dominated sign_rejects tt_merges refills probes rss_kb
         digest ->
      let stats = Cut.stats_create () in
      stats.Cut.built <- built;
      stats.Cut.dominated <- dominated;
      stats.Cut.sign_rejects <- sign_rejects;
      stats.Cut.tt_merges <- tt_merges;
      stats.Cut.refills <- refills;
      stats.Cut.probes <- probes;
      { ms; stats; rss_kb; digest })

let () =
  Arg.parse (Arg.align specs)
    (fun a -> Cli_common.usage_die ~prog ("unexpected argument " ^ a))
    "cut_bench [options]";
  let fam =
    match Cli_common.family_of_name !family with
    | Some f -> f
    | None -> Cli_common.usage_die ~prog ("unknown --family " ^ !family)
  in
  (* characterize the library before forking so the children inherit it *)
  let lib = Cell_lib.cached fam in
  let entries =
    if !benches <> [] then Cli_common.bench_entries ~prog !benches
    else if !full then Bench_suite.all
    else Cli_common.bench_entries ~prog Cli_common.fast_subset
  in
  let rows =
    List.map
      (fun (e : Bench_suite.entry) ->
        let r = measure lib e Cut.Reference !repeat in
        let p = measure lib e Cut.Packed !repeat in
        let ands = Aig.num_ands (e.Bench_suite.build ()) in
        let row = { bench = e.Bench_suite.name; ands; r; p } in
        (* sign_rejects per built cut: the large-circuit enumeration-tail
           indicator (des was the profiled outlier at ~2.6) *)
        let ratio =
          if p.stats.Cut.built = 0 then 0.0
          else
            float_of_int p.stats.Cut.sign_rejects
            /. float_of_int p.stats.Cut.built
        in
        Printf.printf
          "%-10s ands=%-6d ref=%8.2fms packed=%8.2fms x%.2f sr/built=%.2f %s\n%!"
          row.bench row.ands r.ms p.ms (r.ms /. p.ms) ratio
          (if r.digest = p.digest then "identical" else "DIFFERS");
        row)
      entries
  in
  let tot_ref = List.fold_left (fun a row -> a +. row.r.ms) 0.0 rows in
  let tot_packed = List.fold_left (fun a row -> a +. row.p.ms) 0.0 rows in
  let all_identical = List.for_all (fun row -> row.r.digest = row.p.digest) rows in
  Printf.printf "total: ref=%.2fms packed=%.2fms speedup=x%.2f %s\n" tot_ref
    tot_packed (tot_ref /. tot_packed)
    (if all_identical then "(all outputs identical)" else "(OUTPUT MISMATCH)");
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n  \"suite\": \"%s\",\n  \"family\": \"%s\",\n  \"script\": \
     \"resyn2rs; map\",\n  \"repeat\": %d,\n  \"rows\": [\n"
    (if !benches <> [] then "custom" else if !full then "full" else "fast")
    (Cli_common.family_arg_name fam)
    !repeat;
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string b ",\n";
      let json_rss v = if v < 0 then "null" else string_of_int v in
      let ratio =
        if row.p.stats.Cut.built = 0 then 0.0
        else
          float_of_int row.p.stats.Cut.sign_rejects
          /. float_of_int row.p.stats.Cut.built
      in
      Printf.bprintf b
        "    {\"bench\": \"%s\", \"ands\": %d, \"ref_ms\": %.3f, \
         \"packed_ms\": %.3f, \"speedup\": %.3f, \"identical\": %b, \
         \"ref_peak_rss_kb\": %s, \"packed_peak_rss_kb\": %s, \
         \"cut\": {\"built\": %d, \"dominated\": %d, \"sign_rejects\": %d, \
         \"sign_reject_ratio\": %.3f, \"tt_merges\": %d, \"refills\": %d, \
         \"probes\": %d}}"
        row.bench row.ands row.r.ms row.p.ms
        (row.r.ms /. row.p.ms)
        (row.r.digest = row.p.digest)
        (json_rss row.r.rss_kb) (json_rss row.p.rss_kb)
        row.p.stats.Cut.built row.p.stats.Cut.dominated
        row.p.stats.Cut.sign_rejects ratio row.p.stats.Cut.tt_merges
        row.p.stats.Cut.refills row.p.stats.Cut.probes)
    rows;
  Printf.bprintf b
    "\n  ],\n  \"total\": {\"ref_ms\": %.3f, \"packed_ms\": %.3f, \
     \"speedup\": %.3f, \"identical\": %b}\n}\n"
    tot_ref tot_packed (tot_ref /. tot_packed) all_identical;
  let oc = open_out !out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "wrote %s\n" !out;
  exit (if all_identical then 0 else 1)
