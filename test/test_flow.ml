(* Tests for the Flow pass-pipeline engine: script parsing, pass vs
   direct-call equivalence, the deterministic Domain runner, the matrix
   driver, per-pass metrics and the shared library cache. *)

let adder () = Arith.adder 8
let t481 () = Logic_gen.t481_like ()

(* ---- script parsing ---- *)

let test_parse_roundtrip () =
  let script = "b; rw -z; rf(cut=5,z) ;; map(family=static, cut=6, timing)" in
  let steps = Flow.parse_script_exn script in
  Alcotest.(check int) "four steps" 4 (List.length steps);
  Alcotest.(check string) "normalized"
    "b; rw(z); rf(cut=5,z); map(family=static,cut=6,timing)"
    (Flow.script_to_string steps);
  (* parse of the normalized form is stable *)
  Alcotest.(check string) "stable"
    (Flow.script_to_string steps)
    (Flow.script_to_string
       (Flow.parse_script_exn (Flow.script_to_string steps)))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_parse_errors () =
  (match Flow.parse_script "b; frobnicate; map" with
  | Error msg ->
      Alcotest.(check bool) "names the pass" true
        (contains ~sub:"frobnicate" msg)
  | Ok _ -> Alcotest.fail "unknown pass accepted");
  (match Flow.parse_script "map(color=red)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown argument accepted");
  match Flow.parse_script "rw(z" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbalanced parens accepted"

(* the flow runs one engine per job: the oracles live in the tests
   (test_cut, test_sat, test_fault), and no script argument names one *)
let test_oracle_selectors_rejected () =
  List.iter
    (fun script ->
      match Flow.parse_script script with
      | Error msg ->
          Alcotest.(check bool) (script ^ ": unknown argument") true
            (contains ~sub:"unknown argument" msg)
      | Ok _ -> Alcotest.failf "%s accepted" script)
    [
      "rw(engine=packed)";
      "synth(light,engine=reference)";
      "map(engine=reference)";
      "map; cec(engine=cdcl)";
      "map; fault(atpg=rebuild)";
    ]

let test_split_at_map () =
  let steps = Flow.parse_script_exn "b; rw; map; sta; lint" in
  let prefix, suffix = Flow.split_at_map steps in
  Alcotest.(check string) "prefix" "b; rw" (Flow.script_to_string prefix);
  Alcotest.(check string) "suffix" "map; sta; lint"
    (Flow.script_to_string suffix);
  let prefix, suffix = Flow.split_at_map (Flow.parse_script_exn "b; rw") in
  Alcotest.(check int) "no map: all prefix" 2 (List.length prefix);
  Alcotest.(check int) "no map: empty suffix" 0 (List.length suffix)

(* ---- pass vs direct call equivalence ---- *)

let test_synth_passes_equiv_direct () =
  let aig = t481 () in
  let via_flow script =
    let ctx, _ = Flow.run (Flow.parse_script_exn script) (Flow.init ~name:"t" aig) in
    ctx.Flow.aig
  in
  let same name a b =
    Alcotest.(check int) (name ^ " ands") (Aig.num_ands a) (Aig.num_ands b);
    Alcotest.(check int) (name ^ " depth") (Aig.depth a) (Aig.depth b)
  in
  same "b;rw;rf"
    (Synth.refactor (Synth.rewrite (Synth.balance aig)))
    (via_flow "b; rw; rf");
  same "synth(full)" (Synth.resyn2rs aig) (via_flow "synth(full)");
  same "synth(light)" (Synth.light aig) (via_flow "synth(light)");
  same "synth(none)" aig (via_flow "synth(none)")

(* resyn2rs and light run exactly the scripts --list-passes documents for
   them, spelled out pass by pass *)
let test_scripts_as_documented () =
  let blif aig script =
    let ctx, _ =
      Flow.run (Flow.parse_script_exn script) (Flow.init ~name:"t" aig)
    in
    Blif.to_string ctx.Flow.aig
  in
  let documented name =
    let doc = List.assoc name Flow.passes in
    let i = String.index doc '(' in
    String.sub doc (i + 1) (String.rindex doc ')' - i - 1)
  in
  List.iter
    (fun (name, spelled) ->
      Alcotest.(check string) (name ^ " doc") spelled
        (Flow.script_to_string (Flow.parse_script_exn (documented name)));
      List.iter
        (fun (cname, build) ->
          Alcotest.(check string)
            (Printf.sprintf "%s = %s on %s" name spelled cname)
            (blif (build ()) name) (blif (build ()) spelled))
        [ ("t481", t481); ("C1355", (Bench_suite.find "C1355").build) ])
    [
      ("resyn2rs", "rw; rf; b; rw; rw(z); b; rf(z); rw(z); b");
      ("light", "rw; b");
    ]

let test_map_sta_pass_equiv_direct () =
  let aig = Synth.light (adder ()) in
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn "map(family=pseudo,cut=5); sta(po=2)")
      (Flow.init ~name:"a8" aig)
  in
  let lib = Cell_lib.cached Cell_netlist.Tg_pseudo in
  let params = { Mapper.default_params with Mapper.cut_size = 5 } in
  let m = Mapper.map ~params lib aig in
  let sta =
    Sta.analyze ~model:{ Sta.unit_loads = false; po_fanout = 2.0 } m
  in
  Alcotest.(check bool) "mapped stats equal" true
    (Mapped.stats m = Mapped.stats (Option.get ctx.Flow.mapped));
  Alcotest.(check (float 1e-9)) "sta delay equal" (Sta.abs_delay_ps sta)
    (Sta.abs_delay_ps (Option.get ctx.Flow.sta))

let test_verify_and_diags () =
  let ctx0 = Flow.init ~name:"a8" (adder ()) in
  let ctx, _ =
    Flow.run (Flow.parse_script_exn "light; map; verify(seed=7); lint") ctx0
  in
  Alcotest.(check bool) "verified" true (ctx.Flow.verified = Some true);
  Alcotest.(check bool) "clean lint" false (Diag.has_errors ctx.Flow.diags);
  (* diags_since sees only what the suffix added *)
  let mid, _ = Flow.run (Flow.parse_script_exn "light; lint(aig)") ctx0 in
  let after, _ = Flow.run (Flow.parse_script_exn "map; lint") mid in
  Alcotest.(check int) "diags_since counts the delta"
    (List.length after.Flow.diags - List.length mid.Flow.diags)
    (List.length (Flow.diags_since mid after))

let test_place_pass () =
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn "light; map; place")
      (Flow.init ~name:"a8" (adder ()))
  in
  (match ctx.Flow.placement with
  | Some p ->
      Alcotest.(check bool) "utilization in (0,1]" true
        (p.Fabric.utilization > 0.0 && p.Fabric.utilization <= 1.0)
  | None -> Alcotest.fail "auto-sized placement failed");
  (* a fabric that cannot fit the netlist reports a diagnostic, not an
     exception *)
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn "light; map; place(rows=2,cols=2)")
      (Flow.init ~name:"a8" (adder ()))
  in
  Alcotest.(check bool) "placement error surfaced as diag" true
    (ctx.Flow.placement = None && Diag.has_errors ctx.Flow.diags)

(* bad argument values are script errors naming the argument, reported
   when the script is parsed — never an Invalid_argument from deep inside
   the pass, nor a crash in the middle of a run *)
let test_argument_ranges () =
  List.iter
    (fun (script, arg) ->
      match Flow.parse_script script with
      | Error msg ->
          Alcotest.(check bool) (script ^ " names " ^ arg) true
            (contains ~sub:arg msg)
      | Ok _ -> Alcotest.failf "%s accepted" script)
    [
      ("map(cut=1)", "cut");
      ("map(cut=7)", "cut");
      ("map(max-cuts=5)", "max-cuts");
      ("rf(cut=1)", "cut");
      ("map; place(rows=0)", "rows");
      ("map; place(cols=-1)", "cols");
      ("map(cost=bogus)", "cost");
      ("synth(fast)", "fast");
      ("sleep(s=-1)", "sleep: s");
      ("map(cut=six)", "cut");
      ("map; sta(po=x)", "po");
      ("map; verify(seed=1.5)", "seed");
      ("map; cec(budget=0)", "budget");
      ("map; verify(rounds=0)", "rounds");
      ("map; fault(budget=0)", "budget");
      ("map; fault(rounds=-1)", "rounds");
      ("map; sta(po=-3)", "po");
      ("map(family=nmos)", "nmos");
      ("map(timing=yes)", "timing");
      ("map; lint(tag)", "tag");
    ];
  (* the boundary values themselves are in range *)
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn
         "map(cut=2); sta(po=0); verify(rounds=1); fault(rounds=0,budget=1)")
      (Flow.init ~name:"a8" (adder ()))
  in
  Alcotest.(check bool) "in-range values map" true (ctx.Flow.mapped <> None);
  Alcotest.(check (option bool)) "one verify round" (Some true)
    ctx.Flow.verified;
  Alcotest.(check bool) "no-round fault analysis" true
    (match ctx.Flow.fault with
    | Some s -> s.Gate_fault.g_rounds = 0 && s.Gate_fault.g_sim = 0
    | None -> false)

let test_pass_ordering_errors () =
  (match Flow.run (Flow.parse_script_exn "sta") (Flow.init ~name:"x" (adder ())) with
  | exception Flow.Flow_error _ -> ()
  | _ -> Alcotest.fail "sta before map accepted");
  match
    Flow.run (Flow.parse_script_exn "verify") (Flow.init ~name:"x" (adder ()))
  with
  | exception Flow.Flow_error _ -> ()
  | _ -> Alcotest.fail "verify before map accepted"

(* ---- metrics ---- *)

let test_samples () =
  let _, samples =
    Flow.run
      (Flow.parse_script_exn "synth(full); map; sta; lint")
      (Flow.init ~name:"t481" (t481 ()))
  in
  Alcotest.(check int) "one sample per pass" 4 (List.length samples);
  let synth_s = List.nth samples 0 in
  Alcotest.(check bool) "synth shrank the AIG" true
    (synth_s.Flow.sm_ands_after < synth_s.Flow.sm_ands_before);
  Alcotest.(check string) "unmapped family is -" "-" synth_s.Flow.sm_family;
  let map_s = List.nth samples 1 in
  Alcotest.(check bool) "map records stats" true
    (map_s.Flow.sm_mapped <> None);
  Alcotest.(check bool) "map records a cache outcome" true
    (map_s.Flow.sm_cache <> None);
  let sta_s = List.nth samples 2 in
  Alcotest.(check bool) "sta records delay" true (sta_s.Flow.sm_sta_ps <> None);
  (* cut-engine counters appear exactly on the cut-enumerating passes *)
  (match synth_s.Flow.sm_cut with
  | Some c ->
      Alcotest.(check bool) "synth built cuts" true (c.Cut.built > 0)
  | None -> Alcotest.fail "synth sample has no cut stats");
  (match map_s.Flow.sm_cut with
  | Some c ->
      Alcotest.(check bool) "map built cuts" true (c.Cut.built > 0);
      Alcotest.(check bool) "map probed the match tables" true
        (c.Cut.probes > 0);
      Alcotest.(check bool) "map counted re-evaluations" true
        (c.Cut.reevals > 0);
      Alcotest.(check bool) "map skipped some re-evaluations" true
        (c.Cut.reeval_skips > 0)
  | None -> Alcotest.fail "map sample has no cut stats");
  Alcotest.(check bool) "sta has no cut stats" true
    (sta_s.Flow.sm_cut = None);
  (* renderers cover every sample *)
  let tsv_lines =
    List.map Flow.sample_to_tsv samples
    |> List.filter (fun l -> String.length l > 0)
  in
  Alcotest.(check int) "tsv rows" 4 (List.length tsv_lines);
  List.iter
    (fun l ->
      Alcotest.(check int) "tsv column count" 37
        (List.length (String.split_on_char '\t' l)))
    tsv_lines;
  Alcotest.(check int) "tsv header column count" 37
    (List.length (String.split_on_char '\t' Flow.samples_tsv_header));
  let json = Flow.samples_to_json samples in
  Alcotest.(check bool) "json non-trivial" true (String.length json > 100)

(* SAT effort appears on exactly the samples of the passes that solved:
   cec proves the miter, fault's ATPG targets the faults random simulation
   left over, and the sta that follows solves nothing *)
let test_sat_samples () =
  let ctx, samples =
    Flow.run
      (Flow.parse_script_exn "light; map; cec; fault(rounds=1); sta")
      (Flow.init ~name:"t481" (t481 ()))
  in
  let fault = Option.get ctx.Flow.fault in
  Alcotest.(check bool) "faults reached ATPG" true
    (fault.Gate_fault.g_atpg + fault.Gate_fault.g_redundant > 0);
  let solves i =
    match (List.nth samples i).Flow.sm_sat with
    | Some st -> st.Solver.sat_solves
    | None -> Alcotest.failf "sample %d has no SAT stats" i
  in
  Alcotest.(check bool) "cec solved" true (solves 2 > 0);
  Alcotest.(check bool) "fault solved" true (solves 3 > 0);
  Alcotest.(check bool) "sta has no SAT stats" true
    ((List.nth samples 4).Flow.sm_sat = None);
  Alcotest.(check bool) "map has no SAT stats" true
    ((List.nth samples 1).Flow.sm_sat = None)

(* ---- library cache ---- *)

let test_library_cache () =
  let _ = Cell_lib.cached Cell_netlist.Tg_static in
  let s0 = Cell_lib.cache_stats () in
  let l1 = Cell_lib.cached Cell_netlist.Tg_static in
  let l2 = Cell_lib.cached Cell_netlist.Tg_static in
  let s1 = Cell_lib.cache_stats () in
  Alcotest.(check bool) "same library object" true (l1 == l2);
  Alcotest.(check int) "two hits" (s0.Cell_lib.hits + 2) s1.Cell_lib.hits;
  Alcotest.(check int) "no new misses" s0.Cell_lib.misses s1.Cell_lib.misses;
  Alcotest.(check bool) "entries counted" true (s1.Cell_lib.entries >= 1);
  Alcotest.(check bool) "Core.library goes through the cache" true
    (Core.library `Tg_static == l1)

(* ---- runner and matrix determinism ---- *)

let test_runner_deterministic () =
  let jobs = Array.init 17 (fun i -> i) in
  let f i = i * i in
  Alcotest.(check (array int)) "2 domains = sequential"
    (Array.map f jobs)
    (Flow.Runner.map_jobs ~domains:2 f jobs);
  Alcotest.(check (array int)) "more domains than jobs"
    (Array.map f [| 1; 2 |])
    (Flow.Runner.map_jobs ~domains:8 f [| 1; 2 |]);
  (* first error in input order is re-raised *)
  match
    Flow.Runner.map_jobs ~domains:2
      (fun i -> if i >= 3 then failwith (string_of_int i) else i)
      jobs
  with
  | _ -> Alcotest.fail "error not propagated"
  | exception Failure _ -> ()

let matrix_script = "light; map; sta; lint"

let matrix_report results =
  results |> Array.to_list
  |> List.concat_map (fun (r : Flow.bench_result) ->
         List.map (fun (_, ctx, _) -> Flow.summary_line ctx)
           r.Flow.br_per_family)
  |> String.concat "\n"

let test_matrix_parallel_identical () =
  let entries =
    List.map Bench_suite.find [ "add-16"; "t481"; "C1908"; "add-32" ]
  in
  let families = [ Cell_netlist.Tg_static; Cell_netlist.Cmos ] in
  let script = Flow.parse_script_exn matrix_script in
  let seq = Flow.run_matrix ~domains:1 ~script ~families entries in
  let par = Flow.run_matrix ~domains:2 ~script ~families entries in
  Alcotest.(check string) "parallel report byte-identical"
    (matrix_report seq) (matrix_report par);
  (* sample streams agree on everything but wall time and allocation
     (GC deltas depend on which domain ran the pass) *)
  let strip (s : Flow.sample) =
    Flow.sample_to_tsv { s with Flow.sm_wall_s = 0.0; sm_gc = None }
  in
  Alcotest.(check (list string)) "metrics identical (times zeroed)"
    (List.map strip (Flow.matrix_samples seq))
    (List.map strip (Flow.matrix_samples par));
  (* prefix hoisting: the prefix ran once per bench, suffix per family *)
  Array.iter
    (fun (r : Flow.bench_result) ->
      Alcotest.(check int) "prefix samples" 1
        (List.length r.Flow.br_prefix_samples);
      Alcotest.(check int) "families" 2 (List.length r.Flow.br_per_family);
      List.iter
        (fun (_, _, ss) ->
          Alcotest.(check int) "suffix samples" 3 (List.length ss))
        r.Flow.br_per_family)
    seq

(* ---- crash isolation, fault pass, checkpoints ---- *)

let isolate_config = { Flow.default_config with Flow.isolate = true }

let test_run_isolation () =
  let ctx, samples =
    Flow.run ~config:isolate_config
      (Flow.parse_script_exn "light; fail(msg=boom); map; sta")
      (Flow.init ~name:"a8" (adder ()))
  in
  let has rule =
    List.exists (fun (d : Diag.t) -> d.Diag.rule = rule) ctx.Flow.diags
  in
  Alcotest.(check bool) "crash became an error diag" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.rule = "flow-pass-crash" && d.Diag.severity = Diag.Error)
       ctx.Flow.diags);
  Alcotest.(check bool) "skipped steps noted" true (has "flow-passes-skipped");
  Alcotest.(check bool) "map never ran" true (ctx.Flow.mapped = None);
  Alcotest.(check int) "samples: light + the crash" 2 (List.length samples);
  (* without isolate (the default) the exception still propagates *)
  match
    Flow.run (Flow.parse_script_exn "fail") (Flow.init ~name:"x" (adder ()))
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "fail pass did not raise without isolate"

(* the acceptance scenario: one injected matrix cell raises; every other
   benchmark x family cell completes and the failure is a Diag error *)
let test_matrix_cell_crash () =
  let entries = List.map Bench_suite.find [ "add-16"; "t481" ] in
  let families = [ Cell_netlist.Tg_static; Cell_netlist.Cmos ] in
  let script =
    Flow.parse_script_exn "light; map; fail(circuit=t481,family=cmos); sta"
  in
  let results =
    Flow.run_matrix ~config:isolate_config ~script ~families entries
  in
  Alcotest.(check int) "both benchmarks reported" 2 (Array.length results);
  Array.iter
    (fun (r : Flow.bench_result) ->
      List.iter
        (fun (fam, ctx, _) ->
          let crashed =
            r.Flow.br_bench = "t481" && fam = Cell_netlist.Cmos
          in
          let own = Flow.diags_since r.Flow.br_ctx0 ctx in
          let has_crash =
            List.exists
              (fun (d : Diag.t) ->
                d.Diag.rule = "flow-pass-crash"
                && d.Diag.severity = Diag.Error)
              own
          in
          if crashed then begin
            Alcotest.(check bool) "failure reported as a Diag error" true
              has_crash;
            Alcotest.(check bool) "sta skipped in the crashed cell" true
              (ctx.Flow.sta = None)
          end
          else begin
            Alcotest.(check bool) "other cells clean" false has_crash;
            Alcotest.(check bool) "other cells completed sta" true
              (ctx.Flow.sta <> None)
          end)
        r.Flow.br_per_family)
    results

let test_fault_pass () =
  let ctx, samples =
    Flow.run
      (Flow.parse_script_exn "light; map; fault(rounds=4,seed=5)")
      (Flow.init ~name:"a8" (adder ()))
  in
  let s =
    match ctx.Flow.fault with
    | Some s -> s
    | None -> Alcotest.fail "fault pass left no summary"
  in
  Alcotest.(check bool) "faults enumerated" true (s.Gate_fault.g_total > 0);
  let cov = Gate_fault.coverage s in
  Alcotest.(check bool) "coverage in [0,1]" true (cov >= 0.0 && cov <= 1.0);
  (match List.rev samples with
  | last :: _ ->
      Alcotest.(check bool) "fault sample recorded" true
        (last.Flow.sm_fault = Some s)
  | [] -> Alcotest.fail "no samples");
  (* fault before map is an ordering error *)
  match
    Flow.run (Flow.parse_script_exn "fault") (Flow.init ~name:"x" (adder ()))
  with
  | exception Flow.Flow_error _ -> ()
  | _ -> Alcotest.fail "fault before map accepted"

let test_checkpoint_roundtrip () =
  let entries = [ Bench_suite.find "add-16" ] in
  let script = Flow.parse_script_exn "light; map; lint" in
  let results =
    Flow.run_matrix ~script ~families:[ Cell_netlist.Tg_static ] entries
  in
  let lines =
    List.map
      (fun (_, ctx, _) -> Flow.summary_line ctx)
      results.(0).Flow.br_per_family
  in
  let entry = Flow.Checkpoint.of_result results.(0) ~lines in
  let path = Filename.temp_file "flowck" ".bin" in
  Flow.Checkpoint.save path [ entry ];
  let back = Flow.Checkpoint.load path in
  Alcotest.(check bool) "roundtrip equal" true (back = [ entry ]);
  Alcotest.(check bool) "mem finds the bench" true
    (Flow.Checkpoint.mem back "add-16");
  Alcotest.(check bool) "mem rejects others" false
    (Flow.Checkpoint.mem back "t481");
  (* corrupt and missing files resume from scratch instead of raising *)
  let oc = open_out path in
  output_string oc "not a checkpoint";
  close_out oc;
  Alcotest.(check bool) "corrupt file loads as empty" true
    (Flow.Checkpoint.load path = []);
  (* a file of an older layout is foreign too, whatever follows its magic *)
  let oc = open_out_bin path in
  output_string oc "cntfet-flow-checkpoint-v1\n";
  Marshal.to_channel oc [ entry ] [];
  close_out oc;
  Alcotest.(check bool) "older layout loads as empty" true
    (Flow.Checkpoint.load path = []);
  Sys.remove path;
  Alcotest.(check bool) "missing file loads as empty" true
    (Flow.Checkpoint.load path = [])

(* A checkpoint killed mid-write must never poison a resume.  Saves are
   atomic (temp + rename), so the only way to observe a short file is to
   make one by hand — and load must treat it as empty, not raise. *)
let test_checkpoint_truncated () =
  let entries = [ Bench_suite.find "add-16" ] in
  let script = Flow.parse_script_exn "light; map" in
  let results =
    Flow.run_matrix ~script ~families:[ Cell_netlist.Tg_static ] entries
  in
  let lines =
    List.map
      (fun (_, ctx, _) -> Flow.summary_line ctx)
      results.(0).Flow.br_per_family
  in
  let entry = Flow.Checkpoint.of_result results.(0) ~lines in
  let path = Filename.temp_file "flowck" ".bin" in
  Flow.Checkpoint.save path [ entry ];
  let full = In_channel.with_open_bin path In_channel.input_all in
  (* truncate at several depths: inside the magic, inside the Marshal
     header, inside the payload *)
  List.iter
    (fun keep ->
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 keep);
      close_out oc;
      Alcotest.(check bool)
        (Printf.sprintf "truncated to %d bytes loads as empty" keep)
        true
        (Flow.Checkpoint.load path = []))
    [ 3; String.length full / 2; String.length full - 1 ];
  (* an interrupted save leaves no temp litter and the old file intact *)
  Flow.Checkpoint.save path [ entry ];
  Alcotest.(check bool) "atomic save readable again" true
    (Flow.Checkpoint.load path = [ entry ]);
  let dir = Filename.dirname path and base = Filename.basename path in
  Alcotest.(check (list string)) "no temp litter" []
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           f <> base
           && String.length f > String.length base
           && String.sub f 0 (String.length base) = base));
  Sys.remove path

(* A pass that overruns the wall-clock budget degrades to a typed
   flow-pass-budget Warning; the run itself still completes, isolated or
   not. *)
let pass_budget_overrun config =
  let ctx, _ =
    Flow.run ~config
      (Flow.parse_script_exn "sleep(s=0.2); b")
      (Flow.init ~name:"slow" (adder ()))
  in
  let budget_diags =
    List.filter
      (fun (d : Diag.t) -> d.Diag.rule = "flow-pass-budget")
      ctx.Flow.diags
  in
  Alcotest.(check int) "one budget warning" 1 (List.length budget_diags);
  Alcotest.(check bool) "warning, not error" false
    (Diag.has_errors budget_diags);
  (* under budget: silent *)
  let ctx, _ =
    Flow.run ~config (Flow.parse_script_exn "b")
      (Flow.init ~name:"fast" (adder ()))
  in
  Alcotest.(check int) "no warning under budget" 0
    (List.length
       (List.filter
          (fun (d : Diag.t) -> d.Diag.rule = "flow-pass-budget")
          ctx.Flow.diags))

let test_pass_budget_overrun () =
  List.iter
    (fun isolate ->
      pass_budget_overrun
        { Flow.default_config with Flow.pass_budget_s = Some 0.05; isolate })
    [ false; true ]

(* The cec pass: equivalence proved on a clean map, conflict-budget
   exhaustion degraded to a typed cec-undecided Warning. *)
let test_cec_pass () =
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn "b; map; cec")
      (Flow.init ~name:"c" (adder ()))
  in
  Alcotest.(check (option bool)) "equivalent" (Some true) ctx.Flow.verified;
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn "b; map; cec(budget=1)")
      (Flow.init ~name:"c" ((Bench_suite.find "add-16").Bench_suite.build ()))
  in
  Alcotest.(check (option bool)) "undecided leaves verified unset" None
    ctx.Flow.verified;
  Alcotest.(check bool) "typed warning" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.rule = "cec-undecided")
       ctx.Flow.diags);
  match
    Flow.run (Flow.parse_script_exn "cec") (Flow.init ~name:"c" (adder ()))
  with
  | exception Flow.Flow_error _ -> ()
  | _ -> Alcotest.fail "cec before map accepted"

(* ---- golden outputs: each pass's defaults and its explicit arguments ---- *)

(* Digest of everything a mapped run reports: the summary line, the mapped
   netlist, the STA delay printed exactly, and the fault summary. *)
let golden_digest (ctx : Flow.ctx) =
  let m = Option.get ctx.Flow.mapped in
  Digest.to_hex
    (Digest.string
       (Flow.summary_line ctx ^ Blif.mapped_to_string m
       ^ (match ctx.Flow.sta with
         | Some sta -> Printf.sprintf "%.17g" (Sta.norm_delay sta)
         | None -> "")
       ^
       match ctx.Flow.fault with
       | Some f -> Gate_fault.summary_line f
       | None -> ""))

let golden_cases =
  let both = [ Cell_netlist.Tg_static; Cell_netlist.Cmos ] in
  [
    ( "synth(light); map; sta; verify",
      both,
      [
        ("add-16", "cmos", "797f2fc9b31d67279d9b87753c4058c9");
        ("add-16", "static", "dd70a427b06d64dd48a41cefc2bddca4");
        ("t481", "cmos", "61926f6988948563a68708c4800c0c26");
        ("t481", "static", "0f2acf75f8899b2e250d095a8288ea2d");
      ] );
    ( "synth(light); map(cut=5,timing); sta(po=2,unit); \
       verify(rounds=4,seed=7)",
      both,
      [
        ("add-16", "cmos", "e803958c9d676342da8d823d2e8c67ba");
        ("add-16", "static", "c7e36088592fff7574a9a666b66c4b63");
        ("t481", "cmos", "36fbfb44108cc4f8c723a72ac00ee5b2");
        ("t481", "static", "5782c266d661b1fcf9f296ad61c5d43e");
      ] );
    ( "synth(light); map; fault",
      [ Cell_netlist.Tg_static ],
      [ ("t481", "static", "988860b1d696a455070d600347bc6f2e") ] );
  ]

let test_golden_outputs () =
  List.iter
    (fun (script, families, expected) ->
      let benches =
        List.sort_uniq compare (List.map (fun (b, _, _) -> b) expected)
      in
      let results =
        Flow.run_matrix
          ~script:(Flow.parse_script_exn script)
          ~families
          (List.map Bench_suite.find benches)
      in
      let got =
        Array.to_list results
        |> List.concat_map (fun (r : Flow.bench_result) ->
               List.map
                 (fun (fam, ctx, _) ->
                   ( r.Flow.br_bench,
                     Cli_common.family_arg_name fam,
                     golden_digest ctx ))
                 r.Flow.br_per_family)
      in
      Alcotest.(check (list (triple string string string)))
        script
        (List.sort compare expected)
        (List.sort compare got))
    golden_cases

let () =
  Alcotest.run "flow"
    [
      ( "script",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "split at map" `Quick test_split_at_map;
          Alcotest.test_case "oracle selectors rejected" `Quick
            test_oracle_selectors_rejected;
        ] );
      ( "passes",
        [
          Alcotest.test_case "synth passes = direct calls" `Quick
            test_synth_passes_equiv_direct;
          Alcotest.test_case "scripts run as documented" `Quick
            test_scripts_as_documented;
          Alcotest.test_case "map/sta passes = direct calls" `Quick
            test_map_sta_pass_equiv_direct;
          Alcotest.test_case "verify and diags" `Quick test_verify_and_diags;
          Alcotest.test_case "place" `Quick test_place_pass;
          Alcotest.test_case "argument ranges" `Quick test_argument_ranges;
          Alcotest.test_case "ordering errors" `Quick
            test_pass_ordering_errors;
          Alcotest.test_case "golden outputs" `Quick test_golden_outputs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "samples" `Quick test_samples;
          Alcotest.test_case "sat samples" `Quick test_sat_samples;
        ] );
      ( "cache",
        [ Alcotest.test_case "library cache" `Quick test_library_cache ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic map_jobs" `Quick
            test_runner_deterministic;
          Alcotest.test_case "matrix parallel = sequential" `Quick
            test_matrix_parallel_identical;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "pass crash isolation" `Quick test_run_isolation;
          Alcotest.test_case "matrix cell crash" `Quick test_matrix_cell_crash;
          Alcotest.test_case "fault pass" `Quick test_fault_pass;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint truncated" `Quick
            test_checkpoint_truncated;
          Alcotest.test_case "pass budget overrun" `Quick
            test_pass_budget_overrun;
          Alcotest.test_case "cec pass" `Quick test_cec_pass;
        ] );
    ]
