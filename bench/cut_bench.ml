(* Cut-engine benchmark: times the synth+map hot path ([resyn2rs; map])
   and writes the measurements — wall time, peak RSS and the cut
   enumeration's hot-path counters — to BENCH_cut.json.

   Each benchmark is measured in a forked child process, so the form
   cache and the major heap one row leaves behind do not tax the next.
   The child reports wall time, the counters and its peak RSS.  The
   engines' differential tests live in test/test_cut.ml.

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
}

type row = { bench : string; ands : int; m : measurement }

(* Synthesis and mapping counters both go into [stats]. *)
let run lib aig stats =
  let opt = Synth.resyn2rs ~stats aig in
  let _, map_stats = Mapper.map_with_stats lib opt in
  Cut.stats_add stats map_stats

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

let measure lib (e : Bench_suite.entry) n =
  let line =
    in_child (fun () ->
        let aig = e.Bench_suite.build () in
        let best = ref infinity and last = ref None in
        for _ = 1 to n do
          let stats = Cut.stats_create () in
          let t0 = Unix.gettimeofday () in
          run lib aig stats;
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt;
          last := Some stats
        done;
        let stats = Option.get !last in
        let rss =
          match Cli_common.peak_rss_kb () with Some v -> v | None -> -1
        in
        Printf.sprintf "%.6f %d %d %d %d %d %d %d" (1000.0 *. !best)
          stats.Cut.built stats.Cut.dominated stats.Cut.sign_rejects
          stats.Cut.tt_merges stats.Cut.refills stats.Cut.probes rss)
  in
  Scanf.sscanf line "%f %d %d %d %d %d %d %d"
    (fun ms built dominated sign_rejects tt_merges refills probes rss_kb ->
      let stats = Cut.stats_create () in
      stats.Cut.built <- built;
      stats.Cut.dominated <- dominated;
      stats.Cut.sign_rejects <- sign_rejects;
      stats.Cut.tt_merges <- tt_merges;
      stats.Cut.refills <- refills;
      stats.Cut.probes <- probes;
      { ms; stats; rss_kb })

(* sign_rejects per built cut: subset walks the signature pre-filter
   saved per candidate kept *)
let sign_reject_ratio st =
  if st.Cut.built = 0 then 0.0
  else float_of_int st.Cut.sign_rejects /. float_of_int st.Cut.built

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
        let m = measure lib e !repeat in
        let ands = Aig.num_ands (e.Bench_suite.build ()) in
        let row = { bench = e.Bench_suite.name; ands; m } in
        Printf.printf "%-10s ands=%-6d %8.2fms sr/built=%.2f\n%!" row.bench
          row.ands m.ms
          (sign_reject_ratio m.stats);
        row)
      entries
  in
  let total = List.fold_left (fun a row -> a +. row.m.ms) 0.0 rows in
  Printf.printf "total: %.2fms\n" total;
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
      let st = row.m.stats in
      Printf.bprintf b
        "    {\"bench\": \"%s\", \"ands\": %d, \"ms\": %.3f, \
         \"peak_rss_kb\": %s, \"cut\": {\"built\": %d, \"dominated\": %d, \
         \"sign_rejects\": %d, \"sign_reject_ratio\": %.3f, \"tt_merges\": \
         %d, \"refills\": %d, \"probes\": %d}}"
        row.bench row.ands row.m.ms
        (if row.m.rss_kb < 0 then "null" else string_of_int row.m.rss_kb)
        st.Cut.built st.Cut.dominated st.Cut.sign_rejects
        (sign_reject_ratio st) st.Cut.tt_merges st.Cut.refills st.Cut.probes)
    rows;
  Printf.bprintf b "\n  ],\n  \"total\": {\"ms\": %.3f}\n}\n" total;
  let oc = open_out !out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "wrote %s\n" !out
