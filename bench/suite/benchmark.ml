(* The repository benchmark: four seeded workloads over the whole
   synthesis stack, their end-to-end and per-layer metrics, and the
   comparison of two commits.  See bench/suite/README.md.

     dune exec bench/suite/benchmark.exe -- run --seed 1 --workload table3
     dune exec bench/suite/benchmark.exe -- run --seed 1 --trace t.json \
       --out r.jsonl
     dune exec bench/suite/benchmark.exe -- run --smoke
     dune exec bench/suite/benchmark.exe -- compare parent.jsonl change.jsonl *)

let prog = "benchmark"
let all_workloads = [ "table3"; "scale"; "verify"; "serve" ]

let usage =
  "benchmark run [--workload W]... [--seed N] [--seconds S]\n\
  \                [--trace 0|1|FILE] [--out FILE] [--out-dir DIR]\n\
  \                [--spec FILE] [--smoke]\n\
   benchmark compare PARENT CHANGE [--spec FILE] [--json FILE]"

let die msg =
  prerr_endline (prog ^ ": " ^ msg);
  exit 2

(* Each workload runs in its own child process, so its set-up starts from
   nothing even when an earlier workload of the same invocation already
   characterized the libraries. *)
let run_workload name ~nproc ~toy ~seed ~seconds ~traced ~out_dir ~tamper =
  let setup_samples = if toy then 1 else 3 in
  let flows spec () =
    Flows.run spec ~toy ~seed ~seconds ~traced ~setup_samples ~tamper
  in
  let body =
    match name with
    | "table3" -> flows Flows.table3
    | "scale" -> flows (Flows.scale ~jobs:(min 2 nproc))
    | "verify" -> flows Flows.verify
    | _ ->
        fun () ->
          Serve.run ~toy ~seed ~seconds ~traced ~setup_samples
            ~workers:(min 2 nproc) ~out_dir
  in
  match Measure.in_child body with
  | Ok o -> o
  | Error m ->
      prerr_endline (prog ^ ": " ^ name ^ ": " ^ m);
      exit 1

(* Every dictionary metric, zero where the workload has no such layer. *)
let fill dict values =
  List.map
    (fun (n, u) -> (n, u, Option.value (List.assoc_opt n values) ~default:0.0))
    dict

let num f = Json_codec.Num f
let metrics_json rows =
  Json_codec.Obj
    (List.map
       (fun (n, u, v) ->
         (n, Json_codec.Obj [ ("value", num v); ("unit", Json_codec.Str u) ]))
       rows)

(* ---------------- run ---------------- *)

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string;
  mutable out : string;
  mutable out_dir : string;
  mutable spec : string;
  mutable smoke : bool;
}

let provenance ~nproc ~seed ~seconds =
  [
    ("nproc", num (float_of_int nproc));
    ("ocaml", Json_codec.Str Sys.ocaml_version);
    ("commit", Json_codec.Str (Measure.commit ()));
    ("seed", num (float_of_int seed));
    ("seconds", num seconds);
  ]

let smoke_check (spec : Spec.t) name (o : Layers.outcome) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let check dict values (m : Spec.metric) ~nonzero =
    match List.assoc_opt m.Spec.name dict with
    | None -> fail "%s: metric %s is not produced" name m.Spec.name
    | Some u when u <> m.Spec.unit_ ->
        fail "%s: %s has unit %s, BENCHMARK.json says %s" name m.Spec.name u
          m.Spec.unit_
    | Some _ ->
        let v = Option.value (List.assoc_opt m.Spec.name values) ~default:0.0 in
        if nonzero && v <= 0.0 then
          fail "%s: %s is not positive" name m.Spec.name
  in
  List.iter
    (check Layers.end_to_end o.Layers.e2e ~nonzero:true)
    spec.Spec.end_to_end;
  List.iter
    (check Layers.per_layer o.Layers.layers ~nonzero:false)
    spec.Spec.per_layer;
  if o.Layers.failed > 0 then
    fail "%s: %d operations failed" name o.Layers.failed;
  (match List.assoc_opt "trace.unattributed_pct" o.Layers.layers with
  | Some u when name <> "serve" && u > 5.0 ->
      fail "%s: %.1f%% of traced wall time is outside every layer span" name u
  | _ -> ());
  List.rev !problems

(* A netlist with an injected stuck-at fault must count as failed on the
   simulation check (table3) and the CEC check (verify). *)
let negative_fixture ~nproc ~out_dir =
  let tamper m = Gate_fault.inject m (Gate_fault.faults_of m).(0) in
  List.filter_map
    (fun w ->
      let o =
        run_workload w ~nproc ~toy:true ~seed:1L ~seconds:0.0 ~traced:false
          ~out_dir ~tamper
      in
      if o.Layers.failed = 0 then
        Some (w ^ ": a corrupted netlist passed the correctness checks")
      else None)
    [ "table3"; "verify" ]

let run_cmd o =
  let nproc = Measure.nproc () in
  if nproc < 2 then
    prerr_endline
      ("\n" ^ prog
     ^ ": *** WARNING: this host has " ^ string_of_int nproc
     ^ " online cpu (nproc). The scale workload's 2 domains and the serve \
        workload's 2 workers time-slice one core: their numbers measure \
        time slicing, not parallelism. ***\n");
  let toy = o.smoke in
  let traced = o.smoke || o.trace <> "0" in
  let seconds = if o.smoke then 0.0 else o.seconds in
  let seed = Int64.of_int o.seed in
  Measure.mkdir_p o.out_dir;
  let spec = if o.smoke then Some (Spec.load o.spec) else None in
  let workloads =
    if o.workloads = [] then all_workloads else List.rev o.workloads
  in
  List.iter
    (fun w ->
      if not (List.mem w all_workloads) then die ("unknown workload " ^ w))
    workloads;
  let prov = provenance ~nproc ~seed:o.seed ~seconds in
  Printf.printf "# nproc=%d ocaml=%s commit=%s seed=%d seconds=%g\n%!" nproc
    Sys.ocaml_version (Measure.commit ()) o.seed seconds;
  let problems = ref [] and all_correct = ref true and groups = ref [] in
  List.iteri
    (fun wi w ->
      let out =
        run_workload w ~nproc ~toy ~seed ~seconds ~traced ~out_dir:o.out_dir
          ~tamper:Fun.id
      in
      let e2e = fill Layers.end_to_end out.Layers.e2e in
      let layers =
        if traced then fill Layers.per_layer out.Layers.layers else []
      in
      Printf.printf "# %s samples=%d attempted=%d failed=%d\n" w
        out.Layers.samples out.Layers.attempted out.Layers.failed;
      if not o.smoke then
        List.iter
          (fun (n, u, v) -> Printf.printf "%s %s %.6g %s\n" w n v u)
          (e2e @ layers);
      if traced && not o.smoke then begin
        let total =
          List.fold_left (fun a (_, v) -> a +. v) 0.0 out.Layers.self_ms
        in
        List.iter
          (fun (n, v) ->
            Printf.printf "# %s self %-24s %10.1f ms %5.1f%%\n" w n v
              (100.0 *. Layers.ratio v total))
          (List.sort (fun (_, a) (_, b) -> compare b a) out.Layers.self_ms);
        groups :=
          List.map (fun (i, s) -> ((1000 * wi) + i, s)) out.Layers.spans
          @ !groups
      end;
      let correct = out.Layers.failed = 0 in
      if not correct then all_correct := false;
      Option.iter (fun s -> problems := !problems @ smoke_check s w out) spec;
      let result =
        Json_codec.Obj
          ([
             ("workload", Json_codec.Str w);
             ("traced", Json_codec.Bool traced);
           ]
          @ prov
          @ [
              ( "circuits",
                Json_codec.Arr
                  (List.map (fun c -> Json_codec.Str c) out.Layers.inputs) );
              ("samples", num (float_of_int out.Layers.samples));
              ("correct", Json_codec.Bool correct);
              ("attempted", num (float_of_int out.Layers.attempted));
              ("failed", num (float_of_int out.Layers.failed));
              ("metrics", metrics_json e2e);
              ("layers", metrics_json layers);
              ( "self_ms",
                Json_codec.Obj
                  (List.map (fun (n, v) -> (n, num v)) out.Layers.self_ms) );
            ])
      in
      if o.out <> "" then begin
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 o.out
        in
        output_string oc (Json_codec.to_string result ^ "\n");
        close_out oc
      end;
      (* last on stdout: the one-line summary BENCHMARK.json's command
         promises, with the end-to-end metrics, or the per-layer ones
         when traced *)
      print_endline
        (Json_codec.to_string
           (Json_codec.Obj
              [
                ("correct", Json_codec.Bool correct);
                ("attempted", num (float_of_int out.Layers.attempted));
                ("failed", num (float_of_int out.Layers.failed));
                ( "metrics",
                  metrics_json (if o.trace = "0" then e2e else layers) );
              ])))
    workloads;
  if traced && not o.smoke then begin
    let path =
      if o.trace = "1" then
        Filename.concat o.out_dir
          (Printf.sprintf "trace-%s-%d.json"
             (String.concat "+" workloads)
             o.seed)
      else o.trace
    in
    Span.write_chrome path (List.rev !groups);
    Printf.eprintf "%s: trace written to %s\n%!" prog path
  end;
  if o.smoke then
    problems := !problems @ negative_fixture ~nproc ~out_dir:o.out_dir;
  List.iter (fun p -> prerr_endline (prog ^ ": smoke: " ^ p)) !problems;
  if !all_correct && !problems = [] then 0 else 1

let () =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = 24.0;
      trace = "0";
      out = "";
      out_dir = "bench/suite/_out";
      spec = "BENCHMARK.json";
      smoke = false;
    }
  in
  let json = ref None in
  let anon = ref [] in
  let specs =
    Arg.align
      [
        ("--workload", Arg.String (fun w -> o.workloads <- w :: o.workloads),
         "W table3, scale, verify or serve (repeatable; default all four)");
        ("--seed", Arg.Int (fun s -> o.seed <- s),
         "N workload seed (default 1)");
        ("--seconds", Arg.Float (fun s -> o.seconds <- s),
         "S measuring window per workload (default 24)");
        ("--trace", Arg.String (fun t -> o.trace <- t),
         "0|1|FILE 1 or FILE adds the traced run and per-layer metrics; \
          spans go to FILE (1: DIR/trace-W-SEED.json)");
        ("--out", Arg.String (fun f -> o.out <- f),
         "FILE append one JSON result line per workload");
        ("--out-dir", Arg.String (fun d -> o.out_dir <- d),
         "DIR traces and the daemon socket (default bench/suite/_out)");
        ("--spec", Arg.String (fun f -> o.spec <- f),
         "FILE the BENCHMARK.json to check against (default BENCHMARK.json)");
        ("--smoke", Arg.Unit (fun () -> o.smoke <- true),
         " all workloads at toy size, checked against --spec");
        ("--json", Arg.String (fun f -> json := Some f),
         "FILE compare: also write the verdicts and spreads as JSON");
      ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> anon := a :: !anon) usage with
  | Arg.Help m ->
      print_string m;
      exit 0
  | Arg.Bad m ->
      prerr_string m;
      exit 2);
  match List.rev !anon with
  | [ "run" ] -> exit (run_cmd o)
  | [ "compare"; parent; change ] ->
      exit (Compare.run (Spec.load o.spec) ~parent ~change ~json_out:!json)
  | _ -> die ("usage:\n" ^ usage)
