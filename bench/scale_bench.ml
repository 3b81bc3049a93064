(* Million-node scale benchmark: builds the parameterized large circuits
   (wide array multipliers/dividers, deep Feistel rounds), runs the
   [b; rw; map] pipeline at several within-circuit domain counts, and
   writes BENCH_scale.json — construction throughput (nodes/sec), wall
   time per phase, the mapper's internal phase breakdown and node
   re-evaluation count, peak RSS, and the parallel speedup curve with a
   byte-identical-output check across all domain counts.

   Each (circuit, jobs) measurement runs in a forked child so peak RSS
   (VmHWM) is attributable to that configuration alone.

     dune exec bench/scale_bench.exe
     dune exec bench/scale_bench.exe -- --circuits mult-336 --jobs-list 1
     dune exec bench/scale_bench.exe -- --jobs-list 1,2,4 --out scale.json
     dune exec bench/scale_bench.exe -- --tsv mapper-phases.tsv *)

let prog = "scale_bench"
let circuits = ref "mult-128,div-96,crypto-512"
let jobs_list = ref "1,2,4"
let out = ref "BENCH_scale.json"
let tsv = ref ""
let family = ref "static"

let specs =
  [
    ( "--circuits",
      Arg.Set_string circuits,
      "CS comma-separated bench names, static or parameterized \
       (default mult-128,div-96,crypto-512; mult-336 is ~10^6 nodes)" );
    ( "--jobs-list",
      Arg.Set_string jobs_list,
      "JS comma-separated within-circuit domain counts (default 1,2,4)" );
    ( "--out",
      Arg.Set_string out,
      "FILE output JSON path (default BENCH_scale.json)" );
    ( "--tsv",
      Arg.Set_string tsv,
      "FILE also write the mapper-phase breakdown as TSV (one row per \
       circuit x jobs)" );
    ( "--family",
      Arg.Set_string family,
      "F mapping target family (default static)" );
  ]

type measurement = {
  jobs : int;
  build_ms : float;
  ands : int;
  bal_ms : float;
  rw_ms : float;
  map_ms : float;
  (* the mapper's internal wall-clock breakdown (Mapper.phase_ms) *)
  cuts_ms : float;
  match_ms : float;
  required_ms : float;
  recover_ms : float;
  extract_ms : float;
  reevals : int;   (** (node, sweep) matching evaluations *)
  rss_kb : int;  (** child's peak RSS in kB; -1 where unavailable *)
  digest : string;  (** of the optimized AIG and the mapped netlist *)
}

let total m = m.bal_ms +. m.rw_ms +. m.map_ms

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

let measure lib (e : Bench_suite.entry) jobs =
  let line =
    in_child (fun () ->
        let t0 = Unix.gettimeofday () in
        let aig = e.Bench_suite.build () in
        let t1 = Unix.gettimeofday () in
        let ands = Aig.num_ands aig in
        let bal = Synth.balance aig in
        let t2 = Unix.gettimeofday () in
        let opt = Synth.rewrite ~jobs bal in
        let t3 = Unix.gettimeofday () in
        let params = { Mapper.default_params with Mapper.jobs } in
        let phase = Mapper.phase_ms_create () in
        let mapped, stats = Mapper.map_with_stats ~params ~phase lib opt in
        let t4 = Unix.gettimeofday () in
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
        Printf.sprintf
          "%.6f %d %.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f %d %d %s"
          (1000.0 *. (t1 -. t0))
          ands
          (1000.0 *. (t2 -. t1))
          (1000.0 *. (t3 -. t2))
          (1000.0 *. (t4 -. t3))
          phase.Mapper.pm_cuts_ms phase.Mapper.pm_match_ms
          phase.Mapper.pm_required_ms phase.Mapper.pm_recover_ms
          phase.Mapper.pm_extract_ms stats.Cut.reevals rss digest)
  in
  Scanf.sscanf line "%f %d %f %f %f %f %f %f %f %f %d %d %s"
    (fun build_ms ands bal_ms rw_ms map_ms cuts_ms match_ms required_ms
         recover_ms extract_ms reevals rss_kb digest ->
      {
        jobs; build_ms; ands; bal_ms; rw_ms; map_ms; cuts_ms; match_ms;
        required_ms; recover_ms; extract_ms; reevals; rss_kb; digest;
      })

let parse_ints ~what s =
  String.split_on_char ',' s
  |> List.filter (fun x -> x <> "")
  |> List.map (fun x ->
         match int_of_string_opt (String.trim x) with
         | Some v when v >= 1 -> v
         | _ -> Cli_common.usage_die ~prog ("bad " ^ what ^ " " ^ x))

let () =
  Arg.parse (Arg.align specs)
    (fun a -> Cli_common.usage_die ~prog ("unexpected argument " ^ a))
    "scale_bench [options]";
  let fam =
    match Cli_common.family_of_name !family with
    | Some f -> f
    | None -> Cli_common.usage_die ~prog ("unknown --family " ^ !family)
  in
  let names =
    String.split_on_char ',' !circuits
    |> List.filter (fun x -> x <> "")
    |> List.map String.trim
  in
  let jl = parse_ints ~what:"--jobs-list" !jobs_list in
  if jl = [] then Cli_common.usage_die ~prog "--jobs-list is empty";
  (* characterize the library before forking so the children inherit it *)
  let lib = Cell_lib.cached fam in
  (* resolve one name at a time: [bench_entries] reverses its repeatable
     --bench accumulator, but --circuits is already in presentation order *)
  let entries =
    List.concat_map (fun n -> Cli_common.bench_entries ~prog [ n ]) names
  in
  let cpus = Cli_common.nproc () in
  if cpus = 1 && List.exists (fun j -> j > 1) jl then
    prerr_endline
      ("\n" ^ prog
     ^ ": *** WARNING: this host has 1 online cpu (nproc) — every jobs>1 \
        run time-slices its domains on one core, so the recorded speedup \
        curve measures parallel OVERHEAD, not parallel speedup. Do not \
        read these numbers as scaling results. ***\n");
  let rows =
    List.map
      (fun (e : Bench_suite.entry) ->
        let ms = List.map (measure lib e) jl in
        let base = List.hd ms in
        let identical =
          List.for_all (fun m -> m.digest = base.digest) ms
        in
        let nps = float_of_int base.ands /. (base.build_ms /. 1000.0) in
        List.iter
          (fun m ->
            Printf.printf
              "%-12s ands=%-8d jobs=%d build=%8.1fms (%.0f nodes/s) \
               b=%8.1fms rw=%8.1fms map=%8.1fms (cuts=%.0f match=%.0f \
               req=%.0f recover=%.0f extract=%.0f) rss=%dkB x%.2f %s\n%!"
              e.Bench_suite.name m.ands m.jobs m.build_ms nps m.bal_ms
              m.rw_ms m.map_ms m.cuts_ms m.match_ms m.required_ms
              m.recover_ms m.extract_ms m.rss_kb
              (total base /. total m)
              (if m.digest = base.digest then "identical" else "DIFFERS"))
          ms;
        (e.Bench_suite.name, ms, identical, nps))
      entries
  in
  let all_identical = List.for_all (fun (_, _, i, _) -> i) rows in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n  \"script\": \"b; rw; map\",\n  \"family\": \"%s\",\n  \
     \"cpus\": %d,\n  \"note\": \"speedups are wall-clock vs the first \
     jobs entry; every run row repeats the recording host's online cpu \
     count (nproc) — on cpus=1 hosts the jobs>1 rows measure parallel \
     overhead, not speedup; byte-identical output is asserted across all \
     jobs values\",\n  \"rows\": [\n"
    (Cli_common.family_arg_name fam)
    cpus;
  List.iteri
    (fun i (name, ms, identical, nps) ->
      if i > 0 then Buffer.add_string b ",\n";
      let base = List.hd ms in
      Printf.bprintf b
        "    {\"bench\": \"%s\", \"ands\": %d, \"build_ms\": %.3f, \
         \"nodes_per_sec\": %.0f, \"identical\": %b, \"runs\": [\n"
        name base.ands base.build_ms nps identical;
      List.iteri
        (fun j m ->
          if j > 0 then Buffer.add_string b ",\n";
          let json_rss v = if v < 0 then "null" else string_of_int v in
          Printf.bprintf b
            "      {\"jobs\": %d, \"cpus\": %d, \"balance_ms\": %.3f, \
             \"rewrite_ms\": %.3f, \"map_ms\": %.3f, \"map_cuts_ms\": \
             %.3f, \"map_match_ms\": %.3f, \"map_required_ms\": %.3f, \
             \"map_recover_ms\": %.3f, \"map_extract_ms\": %.3f, \
             \"match_reevals\": %d, \"total_ms\": %.3f, \"speedup\": %.3f, \
             \"peak_rss_kb\": %s}"
            m.jobs cpus m.bal_ms m.rw_ms m.map_ms m.cuts_ms m.match_ms
            m.required_ms m.recover_ms m.extract_ms m.reevals (total m)
            (total base /. total m)
            (json_rss m.rss_kb))
        ms;
      Buffer.add_string b "\n    ]}")
    rows;
  Printf.bprintf b "\n  ],\n  \"identical\": %b\n}\n" all_identical;
  let oc = open_out !out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "wrote %s\n" !out;
  if !tsv <> "" then begin
    let oc = open_out !tsv in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          "#bench\tands\tjobs\tcpus\tmap_ms\tcuts_ms\tmatch_ms\t\
           required_ms\trecover_ms\textract_ms\tmatch_reevals\n";
        List.iter
          (fun (name, ms, _, _) ->
            List.iter
              (fun m ->
                Printf.fprintf oc
                  "%s\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%d\n"
                  name m.ands m.jobs cpus m.map_ms m.cuts_ms m.match_ms
                  m.required_ms m.recover_ms m.extract_ms m.reevals)
              ms)
          rows);
    Printf.printf "wrote %s\n" !tsv
  end;
  exit (if all_identical then 0 else 1)
