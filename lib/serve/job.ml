(* Worker-side job execution: parse the submitted circuit, compute the
   content-addressed cache key, run the flow, render the deterministic
   result object.  Everything here is pure compute — process machinery
   (fork, pipes, budgets) lives in Server.

   The cache key is MD5 over
     (canonical BLIF print of the parsed AIG,   -- structure, not text
      canonical script print,                   -- "b;  rw" == "b; rw"
      the *resolved* flow parameters,           -- explicit param == default
      report name, netlist flag)
   so two textually different submissions of the same circuit, or an
   explicit parameter equal to the server default, hit the same entry —
   the Cell_lib.cached model lifted to whole synthesis results. *)

exception Reject of string
(* deterministic client error (bad circuit / bad script): never retried *)

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let parse_circuit (sub : Proto.submit) =
  match sub.Proto.sub_format with
  | Proto.Blif -> (
      try Blif.of_string ~file:sub.Proto.sub_name sub.Proto.sub_circuit with
      | Parse_error.Error e -> reject "%s" (Parse_error.to_string e)
      | Failure m -> reject "%s" m)
  | Proto.Bench -> (
      try Bench_fmt.of_string ~file:sub.Proto.sub_name sub.Proto.sub_circuit
      with
      | Parse_error.Error e -> reject "%s" (Parse_error.to_string e)
      | Failure m -> reject "%s" m)

let parse_script (sub : Proto.submit) =
  match Flow.parse_script sub.Proto.sub_script with
  | Ok steps -> steps
  | Error msg -> reject "bad script: %s" msg

(* The submitted overrides resolved against the server's defaults.  Jobs
   always run isolated (a crashing pass must degrade to a diagnostic, not
   kill the worker with a nonzero exit that would look transient) and
   sequential (worker processes are the parallelism).  Out-of-range
   mapper parameters are client errors. *)
let flow_config ~(base : Flow.config) (sub : Proto.submit) =
  let p = sub.Proto.sub_params in
  let check = Result.iter_error (reject "%s") in
  Option.iter (fun k -> check (Flow.check_cut_size ~arg:"params.cut_size" k))
    p.Proto.cut_size;
  Option.iter (fun n -> check (Flow.check_max_cuts ~arg:"params.max_cuts" n))
    p.Proto.max_cuts;
  let v dflt o = Option.value o ~default:dflt in
  {
    base with
    Flow.family = sub.Proto.sub_family;
    cut_size = v base.Flow.cut_size p.Proto.cut_size;
    max_cuts = (match p.Proto.max_cuts with Some _ as m -> m | None -> base.Flow.max_cuts);
    timing = v base.Flow.timing p.Proto.timing;
    seed = v base.Flow.seed p.Proto.seed;
    verify_rounds = v base.Flow.verify_rounds p.Proto.verify_rounds;
    conflict_budget =
      (match p.Proto.conflict_budget with
      | Some _ as b -> b
      | None -> base.Flow.conflict_budget);
    fault_rounds = v base.Flow.fault_rounds p.Proto.fault_rounds;
    isolate = true;
    jobs = 1;
  }

let cache_key ~(config : Flow.config) ~steps ~aig (sub : Proto.submit) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Blif.to_string aig);
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_char b '\000';
                                  Buffer.add_string b s) fmt in
  add "script=%s" (Flow.script_to_string steps);
  add "family=%s" (Cli_common.family_arg_name config.Flow.family);
  add "cut=%d" config.Flow.cut_size;
  add "max_cuts=%s"
    (match config.Flow.max_cuts with None -> "-" | Some n -> string_of_int n);
  add "timing=%b" config.Flow.timing;
  add "po=%g" config.Flow.po_fanout;
  add "unit=%b" config.Flow.unit_loads;
  add "seed=%Ld" config.Flow.seed;
  add "verify_rounds=%d" config.Flow.verify_rounds;
  add "conflict_budget=%s"
    (match config.Flow.conflict_budget with
    | None -> "-"
    | Some n -> string_of_int n);
  add "fault_rounds=%d" config.Flow.fault_rounds;
  add "name=%s" sub.Proto.sub_name;
  add "netlist=%b" sub.Proto.sub_netlist;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------------- the result object ---------------- *)

let render_diag d = Format.asprintf "%a" Diag.pp d

let result_json ~(config : Flow.config) ~steps ~aig (sub : Proto.submit) =
  let ctx0 =
    Flow.init ~family:config.Flow.family ~name:sub.Proto.sub_name aig
  in
  let ctx, _samples = Flow.run ~config steps ctx0 in
  let e, w, i = Diag.count ctx.Flow.diags in
  let open Json_codec in
  let fnum f = Num f in
  let mapped_fields =
    match ctx.Flow.mapped with
    | None -> []
    | Some m ->
        let s = Mapped.stats m in
        [
          ("gates", Num (float_of_int s.Mapped.gates));
          ("area", fnum s.Mapped.area);
          ("levels", Num (float_of_int s.Mapped.levels));
          ("norm_delay", fnum s.Mapped.norm_delay);
          ("abs_ps", fnum s.Mapped.abs_delay_ps);
        ]
  in
  let sta_fields =
    match ctx.Flow.sta with
    | None -> []
    | Some sta -> [ ("sta_ps", fnum (Sta.abs_delay_ps sta)) ]
  in
  let verified =
    match ctx.Flow.verified with
    | None -> Null
    | Some ok -> Bool ok
  in
  let netlist_fields =
    match (sub.Proto.sub_netlist, ctx.Flow.mapped) with
    | true, Some m ->
        [ ("netlist", Str (Blif.mapped_to_string ~model:sub.Proto.sub_name m)) ]
    | _ -> []
  in
  let crashed =
    List.exists
      (fun (d : Diag.t) -> d.Diag.rule = "flow-pass-crash")
      ctx.Flow.diags
  in
  to_string
    (Obj
       ([
          ("name", Str sub.Proto.sub_name);
          ("family", Str (Cli_common.family_arg_name config.Flow.family));
          ("script", Str (Flow.script_to_string steps));
          ("ands", Num (float_of_int (Aig.num_ands ctx.Flow.aig)));
          ("depth", Num (float_of_int (Aig.depth ctx.Flow.aig)));
        ]
       @ mapped_fields @ sta_fields
       @ [
           ("verified", verified);
           ("pass_crashed", Bool crashed);
           ("errors", Num (float_of_int e));
           ("warnings", Num (float_of_int w));
           ("infos", Num (float_of_int i));
           ("line", Str (Flow.summary_line ctx));
           ("diags", Arr (List.map (fun d -> Str (render_diag d)) ctx.Flow.diags));
         ]
       @ netlist_fields))
