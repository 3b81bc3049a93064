exception Flow_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Flow_error s)) fmt

(* ---------------- configuration and context ---------------- *)

type config = {
  family : Cell_netlist.family;
  seed : int64;
  conflict_budget : int option;
  isolate : bool;
  pass_budget_s : float option;
  jobs : int;
}

let default_config =
  {
    family = Cell_netlist.Tg_static;
    seed = 2026L;
    conflict_budget = None;
    isolate = false;
    pass_budget_s = None;
    jobs = 1;
  }

type ctx = {
  name : string;
  family : Cell_netlist.family;
  aig : Aig.t;
  golden : Aig.t option;
  lib : Cell_lib.t option;
  mapped : Mapped.t option;
  sta : Sta.t option;
  placement : Fabric.placement option;
  fault : Gate_fault.summary option;
  testability : Testability.summary option;
  diags : Diag.t list;
  verified : bool option;
  lib_cache : [ `Hit | `Miss ] option;
  cut_stats : Cut.stats option;
  sat_stats : Solver.stats option;
}

let init ?(family = Cell_netlist.Tg_static) ~name aig =
  {
    name;
    family;
    aig;
    golden = None;
    lib = None;
    mapped = None;
    sta = None;
    placement = None;
    fault = None;
    testability = None;
    diags = [];
    verified = None;
    lib_cache = None;
    cut_stats = None;
    sat_stats = None;
  }

let diags_since before after =
  let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
  drop (List.length before.diags) after.diags

(* ---------------- pass arguments ---------------- *)

type step = { pass : string; args : (string * string option) list }

(* Every argument is read, and its value checked, when the pass is applied
   to its step — before the pass sees a config or a context.  Parsing a
   script forces that application, so a bad value is a script error that
   names the argument, never a failure in the middle of a run. *)

let arg_value step key =
  match List.assoc_opt key step.args with
  | Some (Some v) -> Some v
  | Some None -> fail "%s: argument %s needs a value" step.pass key
  | None -> None

let arg_flag step key =
  match List.assoc_opt key step.args with
  | Some None -> true
  | Some (Some _) -> fail "%s: %s is a flag, not key=value" step.pass key
  | None -> false

let arg_number of_string what step key =
  Option.map
    (fun v ->
      match of_string v with
      | Some n -> n
      | None -> fail "%s: %s expects %s, got %s" step.pass key what v)
    (arg_value step key)

let arg_int = arg_number int_of_string_opt "an integer"
let arg_int64 = arg_number Int64.of_string_opt "an integer"
let arg_float = arg_number float_of_string_opt "a number"

let arg_family step key =
  Option.map
    (fun v ->
      match Cli_common.family_of_name v with
      | Some f -> f
      | None -> fail "%s: unknown family %s" step.pass v)
    (arg_value step key)

(* ---------------- passes ---------------- *)

let pass_balance _step _cfg ctx = { ctx with aig = Synth.balance ctx.aig }

(* The cut-based synthesis passes accumulate the enumeration counters into a
   fresh stats record and leave it on the context for the metrics layer. *)
let with_cut_stats ctx f =
  let stats = Cut.stats_create () in
  let aig = f stats in
  { ctx with aig; cut_stats = Some stats }

let pass_rewrite step =
  let zero_gain = arg_flag step "z" in
  fun cfg ctx ->
    with_cut_stats ctx (fun stats ->
        Synth.rewrite ~zero_gain ~stats ~jobs:cfg.jobs ctx.aig)

let pass_refactor step =
  let zero_gain = arg_flag step "z" in
  let cut_size = arg_int step "cut" in
  (match cut_size with
  | Some k when k < 2 -> fail "rf: cut expects at least 2, got %d" k
  | _ -> ());
  fun cfg ctx ->
    with_cut_stats ctx (fun stats ->
        Synth.refactor ~zero_gain ?cut_size ~stats ~jobs:cfg.jobs ctx.aig)

let pass_resyn2rs _step cfg ctx =
  with_cut_stats ctx (fun stats -> Synth.resyn2rs ~stats ~jobs:cfg.jobs ctx.aig)

let pass_light _step cfg ctx =
  with_cut_stats ctx (fun stats -> Synth.light ~stats ~jobs:cfg.jobs ctx.aig)

let pass_synth step =
  match step.args with
  | [] | [ ("full", None) ] -> pass_resyn2rs step
  | [ ("light", None) ] -> pass_light step
  | [ ("none", None) ] -> fun _cfg ctx -> ctx
  | _ -> fail "synth: expects a single mode (none|light|full)"

(* The mapper's defaults are [Mapper.default_params]: cut size 6,
   delay-then-area covering.  Out-of-range values would otherwise surface
   as an [Invalid_argument] deep inside cut enumeration. *)
let pass_map step =
  let family = arg_family step "family" in
  let cut_size =
    match arg_int step "cut" with
    | Some k when k < 2 || k > 6 ->
        fail "map: cut expects a cut size from 2 to 6, got %d" k
    | Some k -> k
    | None -> Mapper.default_params.Mapper.cut_size
  in
  let cost =
    match arg_value step "cost" with
    | None | Some "area" -> None
    | Some "testability" -> Some Testability.cell_cost
    | Some c -> fail "map: unknown cost %s (area|testability)" c
  in
  let params =
    {
      Mapper.default_params with
      Mapper.cut_size;
      timing = arg_flag step "timing";
      cost;
    }
  in
  fun cfg ctx ->
    let family = Option.value family ~default:ctx.family in
    let lib, status = Cell_lib.cached_with_status family in
    let params = { params with Mapper.jobs = cfg.jobs } in
    let mapped, stats = Mapper.map_with_stats ~params lib ctx.aig in
    {
      ctx with
      family;
      lib = Some lib;
      lib_cache = Some status;
      mapped = Some mapped;
      golden = Some ctx.aig;
      sta = None;
      placement = None;
      fault = None;
      testability = None;
      verified = None;
      cut_stats = Some stats;
    }

let mapped_or_fail step ctx =
  match ctx.mapped with
  | Some m -> m
  | None -> fail "%s: no mapped netlist in the flow (run map first)" step.pass

let pass_sta step =
  let po_fanout =
    match arg_float step "po" with
    | Some p when not (Float.is_finite p && p >= 0.0) ->
        fail "sta: po expects a non-negative load, got %g" p
    | Some p -> p
    | None -> Sta.default_model.Sta.po_fanout
  in
  let model = { Sta.unit_loads = arg_flag step "unit"; po_fanout } in
  fun _cfg ctx ->
    let m = mapped_or_fail step ctx in
    { ctx with sta = Some (Sta.analyze ~model m) }

(* [name=N] names the report outright, [tag=T] suffixes the circuit name;
   by default a mapped report is tagged with its family. *)
let lint_name step =
  let name = arg_value step "name" in
  let tag = arg_value step "tag" in
  fun ctx ~mapped ->
    match (name, tag) with
    | Some n, _ -> n
    | None, Some t -> ctx.name ^ "/" ^ t
    | None, None ->
        if mapped then ctx.name ^ "/" ^ Cli_common.family_arg_name ctx.family
        else ctx.name

(* The passes that may call the SAT solver hand it a fresh stats record;
   it lands on the context only when a query was actually issued. *)
let with_sat_stats ctx stats =
  if stats.Solver.sat_solves > 0 then { ctx with sat_stats = Some stats }
  else ctx

let pass_lint step =
  let aig_only = arg_flag step "aig" in
  let lint_name = lint_name step in
  fun cfg ctx ->
    match ctx.mapped with
    | Some m when not aig_only ->
        let stats = Solver.stats_create () in
        let ds =
          Map_lint.check
            ~name:(lint_name ctx ~mapped:true)
            ?lib:ctx.lib ?golden:ctx.golden
            ?conflict_budget:cfg.conflict_budget ~stats m
        in
        with_sat_stats { ctx with diags = ctx.diags @ ds } stats
    | _ ->
        let name = lint_name ctx ~mapped:false in
        { ctx with diags = ctx.diags @ Aig_lint.check ~name ctx.aig }

let pass_verify step =
  let seed = arg_int64 step "seed" in
  let rounds =
    match arg_int step "rounds" with
    | Some r when r < 1 -> fail "verify: rounds expects at least 1, got %d" r
    | Some r -> r
    | None -> 8
  in
  fun cfg ctx ->
    let m = mapped_or_fail step ctx in
    let golden =
      match ctx.golden with
      | Some g -> g
      | None -> fail "verify: the mapping's source AIG is unknown"
    in
    let seed = Option.value seed ~default:cfg.seed in
    let ok = Experiments.verify_by_simulation ~seed ~rounds golden m in
    let diags =
      if ok then ctx.diags
      else
        ctx.diags
        @ [
            Diag.errorf ~rule:"map-verify" (Diag.Circuit ctx.name)
              "mapped netlist disagrees with its source AIG (seed %Ld, %d x \
               64 patterns)"
              seed rounds;
          ]
    in
    { ctx with verified = Some ok; diags }

let pass_place step =
  let dim key =
    match arg_int step key with
    | Some n when n <= 0 -> fail "place: %s expects a positive integer" key
    | d -> d
  in
  let rows = dim "rows" in
  let cols = dim "cols" in
  fun _cfg ctx ->
    let m = mapped_or_fail step ctx in
    let gates = Array.length m.Mapped.instances in
    let side = 1 + int_of_float (sqrt (float_of_int (2 * gates))) in
    let fab =
      Fabric.create
        ~rows:(Option.value rows ~default:side)
        ~cols:(Option.value cols ~default:side)
    in
    match Fabric.place fab m with
    | Ok p -> { ctx with placement = Some p }
    | Error e ->
        {
          ctx with
          placement = None;
          diags =
            ctx.diags
            @ [
                Diag.errorf ~rule:"fabric-place" (Diag.Circuit ctx.name) "%s"
                  (Fabric.error_message e);
              ];
        }

let pass_fault step =
  let rounds =
    match arg_int step "rounds" with
    | Some r when r < 0 -> fail "fault: rounds expects at least 0, got %d" r
    | Some r -> r
    | None -> 32
  in
  let seed = arg_int64 step "seed" in
  let budget =
    match arg_int step "budget" with
    | Some b when b < 1 -> fail "fault: budget expects at least 1, got %d" b
    | b -> b
  in
  fun cfg ctx ->
    let m = mapped_or_fail step ctx in
    let seed = Option.value seed ~default:cfg.seed in
    let conflict_budget =
      match budget with
      | Some b -> b
      | None -> Option.value cfg.conflict_budget ~default:100_000
    in
    let stats = Solver.stats_create () in
    let _, summary =
      Gate_fault.analyze ~rounds ~seed ~conflict_budget ~stats m
    in
    let diags =
      if summary.Gate_fault.g_unknown = 0 then ctx.diags
      else
        ctx.diags
        @ [
            Diag.warnf ~rule:"fault-budget" (Diag.Circuit ctx.name)
              "%d of %d faults unresolved: ATPG conflict budget (%d) exhausted"
              summary.Gate_fault.g_unknown summary.Gate_fault.g_total
              conflict_budget;
          ]
    in
    with_sat_stats { ctx with fault = Some summary; diags } stats

(* SAT equivalence of the mapping against its source AIG.  Unlike [verify]
   (random simulation) this is complete — but under a conflict budget the
   check may give up, and that outcome must stay a structured, typed
   report ([cec-undecided] Warning), never an exception escaping a served
   job. *)
let pass_cec step =
  let budget =
    match arg_int step "budget" with
    | Some b when b <= 0 -> fail "cec: budget expects a positive integer"
    | b -> b
  in
  fun cfg ctx ->
    let m = mapped_or_fail step ctx in
    let golden =
      match ctx.golden with
      | Some g -> g
      | None -> fail "cec: the mapping's source AIG is unknown"
    in
    let budget =
      match budget with Some _ -> budget | None -> cfg.conflict_budget
    in
    let stats = Solver.stats_create () in
    let verdict =
      Cec.check ?conflict_budget:budget ~seed:cfg.seed ~stats golden
        (Mapped.to_aig m)
    in
    let ctx = with_sat_stats ctx stats in
    match verdict with
    | Cec.Equivalent -> { ctx with verified = Some true }
    | Cec.Inequivalent _ ->
        {
          ctx with
          verified = Some false;
          diags =
            ctx.diags
            @ [
                Diag.errorf ~rule:"cec-inequivalent" (Diag.Circuit ctx.name)
                  "mapped netlist is SAT-inequivalent to its source AIG";
              ];
        }
    | Cec.Undecided ->
        (* typed Cec.Undecided_budget territory: surface as a report *)
        {
          ctx with
          diags =
            ctx.diags
            @ [
                Diag.warnf ~rule:"cec-undecided" (Diag.Circuit ctx.name)
                  "SAT conflict budget (%d) exhausted before the equivalence \
                   check was decided"
                  (Option.value budget ~default:0);
              ];
        }

(* A deliberately slow pass: the negative fixture behind the wall-clock
   budget machinery (pass budgets in test_flow, job budgets in the serve
   chaos harness). *)
let pass_sleep step =
  let s = Option.value (arg_float step "s") ~default:0.05 in
  if s < 0.0 then fail "sleep: s expects a non-negative number, got %g" s;
  fun _cfg ctx ->
    Unix.sleepf s;
    ctx

let pass_testability step =
  let learn = not (arg_flag step "no-learn") in
  let lint = arg_flag step "lint" in
  let lint_name = lint_name step in
  fun _cfg ctx ->
    let m = mapped_or_fail step ctx in
    let t = Testability.analyze ~learn m in
    let diags =
      if lint then
        ctx.diags @ Testability.lint ~name:(lint_name ctx ~mapped:true) m t
      else ctx.diags
    in
    { ctx with testability = Some t.Testability.summary; diags }

(* A deliberately failing pass: the negative fixture behind the isolation
   machinery (test_flow and the CI exit-nonzero-with-report job).  Filters
   restrict the crash to one matrix cell. *)
let pass_fail step =
  let circuit = arg_value step "circuit" in
  let family = arg_family step "family" in
  let msg =
    Option.value (arg_value step "msg") ~default:"deliberate test failure"
  in
  fun _cfg ctx ->
    let applies =
      Option.fold ~none:true ~some:(( = ) ctx.name) circuit
      && Option.fold ~none:true ~some:(( = ) ctx.family) family
    in
    if applies then failwith msg else ctx

(* ---------------- registry ---------------- *)

type pass_info = {
  p_doc : string;
  p_args : string list;
  p_apply : step -> config -> ctx -> ctx;
      (* reads and checks the step's arguments, then runs *)
}

let registry : (string * pass_info) list =
  [
    ( "b",
      { p_doc = "balance: minimum-depth AND-tree rebuild";
        p_args = []; p_apply = pass_balance } );
    ( "rw",
      { p_doc = "rewrite: 4-cut DAG-aware resubstitution [z]";
        p_args = [ "z" ]; p_apply = pass_rewrite } );
    ( "rf",
      { p_doc = "refactor: large-cut ISOP refactoring [z, cut=K]";
        p_args = [ "z"; "cut" ]; p_apply = pass_refactor } );
    ( "resyn2rs",
      { p_doc = "the full optimization script (rw;rf;b;rw;rw -z;b;rf -z;rw -z;b)";
        p_args = []; p_apply = pass_resyn2rs } );
    ( "light",
      { p_doc = "the cheap optimization script (rw;b)";
        p_args = []; p_apply = pass_light } );
    ( "synth",
      { p_doc = "optimization by effort name: synth(none|light|full)";
        p_args = [ "none"; "light"; "full" ]; p_apply = pass_synth } );
    ( "map",
      { p_doc =
          "technology mapping [family=F, cut=K (2-6, default 6), timing, \
           cost=area|testability]";
        p_args = [ "family"; "cut"; "timing"; "cost" ];
        p_apply = pass_map } );
    ( "sta",
      { p_doc =
          "static timing analysis of the mapping [po=N (>= 0, default 4), \
           unit]";
        p_args = [ "po"; "unit" ]; p_apply = pass_sta } );
    ( "lint",
      { p_doc = "lint the mapping (or the AIG before map) [aig, tag=T, name=N]";
        p_args = [ "aig"; "tag"; "name" ]; p_apply = pass_lint } );
    ( "verify",
      { p_doc =
          "random-simulation equivalence of the mapping [seed=N, rounds=R \
           (>= 1, default 8)]";
        p_args = [ "seed"; "rounds" ]; p_apply = pass_verify } );
    ( "place",
      { p_doc = "place onto the Sec. 5 regular fabric [rows=R, cols=C]";
        p_args = [ "rows"; "cols" ]; p_apply = pass_place } );
    ( "fault",
      { p_doc =
          "stuck-at fault simulation + SAT ATPG of the mapping [rounds=N \
           (>= 0, default 32), seed=N, budget=N (>= 1)]";
        p_args = [ "rounds"; "seed"; "budget" ];
        p_apply = pass_fault } );
    ( "testability",
      { p_doc =
          "static testability analysis: SCOAP, fault collapsing, redundancy \
           [no-learn, lint, tag=T, name=N]";
        p_args = [ "no-learn"; "lint"; "tag"; "name" ];
        p_apply = pass_testability } );
    ( "cec",
      { p_doc =
          "SAT-sweeping equivalence check of the mapping vs its source AIG \
           [budget=N, the conflicts the whole check may spend]; budget \
           exhaustion degrades to a cec-undecided Warning";
        p_args = [ "budget" ]; p_apply = pass_cec } );
    ( "fail",
      { p_doc =
          "deliberately raise (crash-isolation fixture) [circuit=N, \
           family=F, msg=M]";
        p_args = [ "circuit"; "family"; "msg" ]; p_apply = pass_fail } );
    ( "sleep",
      { p_doc = "sleep s seconds (wall-clock budget fixture) [s=S]";
        p_args = [ "s" ]; p_apply = pass_sleep } );
  ]

let passes = List.map (fun (n, i) -> (n, i.p_doc)) registry

let find_pass name =
  match List.assoc_opt name registry with
  | Some i -> i
  | None -> fail "unknown pass %s (see flow --list-passes)" name

(* ---------------- script parsing ---------------- *)

let step_to_string s =
  match s.args with
  | [] -> s.pass
  | args ->
      let one = function k, None -> k | k, Some v -> k ^ "=" ^ v in
      s.pass ^ "(" ^ String.concat "," (List.map one args) ^ ")"

let script_to_string steps = String.concat "; " (List.map step_to_string steps)

let parse_step text =
  let text = String.trim text in
  let name, rest =
    match String.index_opt text '(' with
    | Some i ->
        if text.[String.length text - 1] <> ')' then
          fail "missing ) in %s" text
        else
          ( String.trim (String.sub text 0 i),
            `Parens (String.sub text (i + 1) (String.length text - i - 2)) )
    | None -> (
        (* ABC style: "rw -z" *)
        match String.index_opt text ' ' with
        | Some i ->
            ( String.sub text 0 i,
              `Dashes
                (String.sub text (i + 1) (String.length text - i - 1)) )
        | None -> (text, `Parens ""))
  in
  let args =
    match rest with
    | `Parens "" -> []
    | `Parens inner ->
        List.filter_map
          (fun a ->
            let a = String.trim a in
            if a = "" then None
            else
              match String.index_opt a '=' with
              | Some i ->
                  Some
                    ( String.trim (String.sub a 0 i),
                      Some
                        (String.trim
                           (String.sub a (i + 1) (String.length a - i - 1))) )
              | None -> Some (a, None))
          (String.split_on_char ',' inner)
    | `Dashes tail ->
        List.filter_map
          (fun t ->
            let t = String.trim t in
            if t = "" then None
            else if String.length t > 1 && t.[0] = '-' then
              Some (String.sub t 1 (String.length t - 1), None)
            else fail "unexpected token %s in %s" t text)
          (String.split_on_char ' ' tail)
  in
  let step = { pass = name; args } in
  (* validate the pass name and the argument keys, then the values *)
  let info = find_pass name in
  List.iter
    (fun (k, _) ->
      if not (List.mem k info.p_args) then
        fail "%s: unknown argument %s (allowed: %s)" name k
          (String.concat ", " info.p_args))
    args;
  let (_ : config -> ctx -> ctx) = info.p_apply step in
  step

let parse_script_exn text =
  text
  |> String.split_on_char ';'
  |> List.filter_map (fun s ->
         if String.trim s = "" then None else Some (parse_step s))

let parse_script text =
  match parse_script_exn text with
  | steps -> Ok steps
  | exception Flow_error msg -> Error msg

let split_at_map steps =
  let rec go acc = function
    | [] -> (List.rev acc, [])
    | { pass = "map"; _ } :: _ as suffix -> (List.rev acc, suffix)
    | s :: tl -> go (s :: acc) tl
  in
  go [] steps

(* ---------------- metrics ---------------- *)

type gc_delta = {
  gd_minor_words : float;
  gd_major_words : float;
  gd_compactions : int;
}

type sample = {
  sm_circuit : string;
  sm_family : string;
  sm_pass : string;
  sm_wall_s : float;
  sm_ands_before : int;
  sm_ands_after : int;
  sm_depth_before : int;
  sm_depth_after : int;
  sm_mapped : Mapped.stats option;
  sm_sta_ps : float option;
  sm_cache : [ `Hit | `Miss ] option;
  sm_cut : Cut.stats option;
  sm_fault : Gate_fault.summary option;
  sm_testability : Testability.summary option;
  sm_sat : Solver.stats option;
  sm_gc : gc_delta option;
  sm_new_diags : int;
}

let opt_changed before after =
  match (before, after) with
  | Some x, Some y -> not (x == y)
  | None, None -> false
  | _ -> true

(* One sample per executed pass: every result the pass (re)computed shows
   up as a changed [ctx] field.  The library is fetched by the pass that
   (re)builds the mapping, so the cache outcome rides on that change. *)
let sample_of step ~wall ~gc before after =
  let changed field =
    if opt_changed (field before) (field after) then field after else None
  in
  {
    sm_circuit = after.name;
    sm_family =
      (if after.mapped <> None then Cli_common.family_arg_name after.family
       else "-");
    sm_pass = step_to_string step;
    sm_wall_s = wall;
    sm_ands_before = Aig.num_ands before.aig;
    sm_ands_after = Aig.num_ands after.aig;
    sm_depth_before = Aig.depth before.aig;
    sm_depth_after = Aig.depth after.aig;
    sm_mapped = Option.map Mapped.stats (changed (fun c -> c.mapped));
    sm_sta_ps = Option.map Sta.abs_delay_ps (changed (fun c -> c.sta));
    sm_cache =
      (if opt_changed before.mapped after.mapped then after.lib_cache
       else None);
    sm_cut = changed (fun c -> c.cut_stats);
    sm_fault = changed (fun c -> c.fault);
    sm_testability = changed (fun c -> c.testability);
    sm_sat = changed (fun c -> c.sat_stats);
    sm_gc = gc;
    sm_new_diags = List.length after.diags - List.length before.diags;
  }

let run_step cfg step ctx =
  let info = find_pass step.pass in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let ctx' = info.p_apply step cfg ctx in
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let gc =
    {
      gd_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      gd_major_words = g1.Gc.major_words -. g0.Gc.major_words;
      gd_compactions = g1.Gc.compactions - g0.Gc.compactions;
    }
  in
  (ctx', sample_of step ~wall ~gc:(Some gc) ctx ctx')

let budget_diags config step ctx wall =
  match config.pass_budget_s with
  | Some budget when wall > budget ->
      [
        Diag.warnf ~rule:"flow-pass-budget" (Diag.Circuit ctx.name)
          "pass %s took %.2fs, over the %.2fs wall-clock budget"
          (step_to_string step) wall budget;
      ]
  | _ -> []

let exn_message = function
  | Flow_error m | Failure m -> m
  | e -> Printexc.to_string e

(* Under [config.isolate] a raising pass becomes a Diag error and aborts
   the rest of this pipeline (later passes would observe a broken
   context), but never the caller: the other matrix cells keep going.
   An interrupt always propagates. *)
let run ?(config = default_config) steps ctx =
  let isolated = function Sys.Break -> false | _ -> config.isolate in
  let rec go ctx acc = function
    | [] -> (ctx, List.rev acc)
    | step :: rest -> (
        let t0 = Unix.gettimeofday () in
        match run_step config step ctx with
        | ctx', s ->
            let wall = Unix.gettimeofday () -. t0 in
            let over = budget_diags config step ctx' wall in
            let ctx' = { ctx' with diags = ctx'.diags @ over } in
            go ctx' (s :: acc) rest
        | exception e when isolated e ->
            let wall = Unix.gettimeofday () -. t0 in
            let skipped =
              match rest with
              | [] -> []
              | rest ->
                  [
                    Diag.infof ~rule:"flow-passes-skipped"
                      (Diag.Circuit ctx.name) "skipped after the crash: %s"
                      (script_to_string rest);
                  ]
            in
            let ctx' =
              {
                ctx with
                diags =
                  ctx.diags
                  @ Diag.errorf ~rule:"flow-pass-crash" (Diag.Circuit ctx.name)
                      "pass %s raised: %s" (step_to_string step)
                      (exn_message e)
                    :: skipped;
              }
            in
            (ctx', List.rev (sample_of step ~wall ~gc:None ctx ctx' :: acc)))
  in
  go ctx [] steps

(* ---- rendering ---- *)

let fopt = function None -> "-" | Some f -> Printf.sprintf "%.1f" f
let iopt = function None -> "-" | Some i -> string_of_int i

let cut_counter f s = Option.map f s.sm_cut
let cut_built s = cut_counter (fun c -> c.Cut.built) s
let cut_dominated s = cut_counter (fun c -> c.Cut.dominated) s
let cut_sign_rejects s = cut_counter (fun c -> c.Cut.sign_rejects) s
let cut_tt_merges s = cut_counter (fun c -> c.Cut.tt_merges) s
let cut_refills s = cut_counter (fun c -> c.Cut.refills) s
let cut_probes s = cut_counter (fun c -> c.Cut.probes) s
let cut_reevals s = cut_counter (fun c -> c.Cut.reevals) s
let cut_reeval_skips s = cut_counter (fun c -> c.Cut.reeval_skips) s

(* GC words as integers: the float counters are exact below 2^53 *)
let gc_words_str f s =
  match s.sm_gc with
  | None -> "-"
  | Some g -> Printf.sprintf "%.0f" (f g)

let fault_cov_str s =
  match s.sm_fault with
  | None -> "-"
  | Some f -> Printf.sprintf "%.1f" (100.0 *. Gate_fault.coverage f)

let render_samples samples =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "%-10s %-12s %-22s %9s %13s %9s %6s %9s %8s %8s %6s %8s %8s %5s %5s\n"
    "circuit" "family" "pass" "wall(ms)" "ands" "depth" "gates" "area"
    "delay" "sta-ps" "fault%" "cuts" "probes" "cache" "diags";
  List.iter
    (fun s ->
      let delta fmt a b = if a = b then "" else Printf.sprintf fmt (b - a) in
      Printf.bprintf b
        "%-10s %-12s %-22s %9.2f %8d%-5s %5d%-4s %6s %9s %8s %8s %6s %8s %8s \
         %5s %5d\n"
        s.sm_circuit s.sm_family s.sm_pass (1000.0 *. s.sm_wall_s)
        s.sm_ands_after
        (delta "%+d" s.sm_ands_before s.sm_ands_after)
        s.sm_depth_after
        (delta "%+d" s.sm_depth_before s.sm_depth_after)
        (match s.sm_mapped with
        | Some m -> string_of_int m.Mapped.gates
        | None -> "-")
        (fopt (Option.map (fun m -> m.Mapped.area) s.sm_mapped))
        (fopt (Option.map (fun m -> m.Mapped.norm_delay) s.sm_mapped))
        (fopt s.sm_sta_ps)
        (fault_cov_str s)
        (iopt (cut_built s))
        (iopt (cut_probes s))
        (match s.sm_cache with
        | Some `Hit -> "hit"
        | Some `Miss -> "miss"
        | None -> "-")
        s.sm_new_diags)
    samples;
  Buffer.contents b

let samples_tsv_header =
  "#circuit\tfamily\tpass\twall_ms\tands_in\tands_out\tdepth_in\tdepth_out\t\
   gates\tarea\tnorm_delay\tabs_ps\tsta_ps\tcache\tcuts_built\t\
   cuts_dominated\tsign_rejects\ttt_merges\tcut_refills\tmatch_probes\t\
   match_reevals\tmatch_skips\tfaults\t\
   fault_cov\tfault_unknown\ttb_classes\ttb_collapsed\ttb_redundant\t\
   sat_solves\tsat_conflicts\tsat_props\tsat_restarts\tsat_learned\t\
   gc_minor_words\tgc_major_words\tgc_compactions\tnew_diags"

let sample_to_tsv s =
  Printf.sprintf
    "%s\t%s\t%s\t%.3f\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t\
     %s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t\
     %d"
    s.sm_circuit s.sm_family s.sm_pass (1000.0 *. s.sm_wall_s) s.sm_ands_before
    s.sm_ands_after s.sm_depth_before s.sm_depth_after
    (match s.sm_mapped with
    | Some m -> string_of_int m.Mapped.gates
    | None -> "-")
    (fopt (Option.map (fun m -> m.Mapped.area) s.sm_mapped))
    (fopt (Option.map (fun m -> m.Mapped.norm_delay) s.sm_mapped))
    (fopt (Option.map (fun m -> m.Mapped.abs_delay_ps) s.sm_mapped))
    (fopt s.sm_sta_ps)
    (match s.sm_cache with
    | Some `Hit -> "hit"
    | Some `Miss -> "miss"
    | None -> "-")
    (iopt (cut_built s))
    (iopt (cut_dominated s))
    (iopt (cut_sign_rejects s))
    (iopt (cut_tt_merges s))
    (iopt (cut_refills s))
    (iopt (cut_probes s))
    (iopt (cut_reevals s))
    (iopt (cut_reeval_skips s))
    (iopt (Option.map (fun f -> f.Gate_fault.g_total) s.sm_fault))
    (fault_cov_str s)
    (iopt (Option.map (fun f -> f.Gate_fault.g_unknown) s.sm_fault))
    (iopt (Option.map (fun t -> t.Testability.t_classes) s.sm_testability))
    (iopt (Option.map (fun t -> t.Testability.t_collapsed) s.sm_testability))
    (iopt (Option.map (fun t -> t.Testability.t_redundant) s.sm_testability))
    (iopt (Option.map (fun st -> st.Solver.sat_solves) s.sm_sat))
    (iopt (Option.map (fun st -> st.Solver.sat_conflicts) s.sm_sat))
    (iopt (Option.map (fun st -> st.Solver.sat_propagations) s.sm_sat))
    (iopt (Option.map (fun st -> st.Solver.sat_restarts) s.sm_sat))
    (iopt (Option.map (fun st -> st.Solver.sat_learned) s.sm_sat))
    (gc_words_str (fun g -> g.gd_minor_words) s)
    (gc_words_str (fun g -> g.gd_major_words) s)
    (iopt (Option.map (fun g -> g.gd_compactions) s.sm_gc))
    s.sm_new_diags

let samples_to_json samples =
  let b = Buffer.create 4096 in
  let jstr v = Json_codec.to_string (Json_codec.Str v) in
  let jnum_opt = function None -> "null" | Some f -> Printf.sprintf "%.3f" f in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "  {\"circuit\":%s,\"family\":%s,\"pass\":%s,\
         \"wall_ms\":%.3f,\"ands_in\":%d,\"ands_out\":%d,\"depth_in\":%d,\
         \"depth_out\":%d,\"gates\":%s,\"area\":%s,\"norm_delay\":%s,\
         \"abs_ps\":%s,\"sta_ps\":%s,\"cache\":%s,\"cut\":%s,\
         \"fault\":%s,\"testability\":%s,\"sat\":%s,\"gc\":%s,\
         \"new_diags\":%d}"
        (jstr s.sm_circuit) (jstr s.sm_family) (jstr s.sm_pass)
        (1000.0 *. s.sm_wall_s) s.sm_ands_before
        s.sm_ands_after s.sm_depth_before s.sm_depth_after
        (match s.sm_mapped with
        | Some m -> string_of_int m.Mapped.gates
        | None -> "null")
        (jnum_opt (Option.map (fun m -> m.Mapped.area) s.sm_mapped))
        (jnum_opt (Option.map (fun m -> m.Mapped.norm_delay) s.sm_mapped))
        (jnum_opt (Option.map (fun m -> m.Mapped.abs_delay_ps) s.sm_mapped))
        (jnum_opt s.sm_sta_ps)
        (match s.sm_cache with
        | Some `Hit -> "\"hit\""
        | Some `Miss -> "\"miss\""
        | None -> "null")
        (match s.sm_cut with
        | None -> "null"
        | Some c ->
            Printf.sprintf
              "{\"built\":%d,\"dominated\":%d,\"sign_rejects\":%d,\
               \"tt_merges\":%d,\"refills\":%d,\"probes\":%d,\
               \"reevals\":%d,\"reeval_skips\":%d}"
              c.Cut.built c.Cut.dominated c.Cut.sign_rejects c.Cut.tt_merges
              c.Cut.refills c.Cut.probes c.Cut.reevals c.Cut.reeval_skips)
        (match s.sm_fault with
        | None -> "null"
        | Some f ->
            Printf.sprintf
              "{\"total\":%d,\"sim\":%d,\"atpg\":%d,\"redundant\":%d,\
               \"unknown\":%d,\"coverage\":%.4f}"
              f.Gate_fault.g_total f.Gate_fault.g_sim f.Gate_fault.g_atpg
              f.Gate_fault.g_redundant f.Gate_fault.g_unknown
              (Gate_fault.coverage f))
        (match s.sm_testability with
        | None -> "null"
        | Some t ->
            Printf.sprintf
              "{\"faults\":%d,\"classes\":%d,\"dominated\":%d,\
               \"collapsed\":%d,\"redundant\":%d,\"const_lines\":%d,\
               \"score_mean\":%.3f}"
              t.Testability.t_faults t.Testability.t_classes
              t.Testability.t_dominated t.Testability.t_collapsed
              t.Testability.t_redundant t.Testability.t_const_lines
              t.Testability.t_score_mean)
        (match s.sm_sat with
        | None -> "null"
        | Some st ->
            Printf.sprintf
              "{\"solves\":%d,\"conflicts\":%d,\"decisions\":%d,\
               \"propagations\":%d,\"restarts\":%d,\"learned\":%d}"
              st.Solver.sat_solves st.Solver.sat_conflicts
              st.Solver.sat_decisions st.Solver.sat_propagations
              st.Solver.sat_restarts st.Solver.sat_learned)
        (match s.sm_gc with
        | None -> "null"
        | Some g ->
            Printf.sprintf
              "{\"minor_words\":%.0f,\"major_words\":%.0f,\
               \"compactions\":%d}"
              g.gd_minor_words g.gd_major_words g.gd_compactions)
        s.sm_new_diags)
    samples;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let summary_line ctx =
  match ctx.mapped with
  | None ->
      Printf.sprintf "%-20s ands=%d depth=%d" ctx.name (Aig.num_ands ctx.aig)
        (Aig.depth ctx.aig)
  | Some m ->
      let s = Mapped.stats m in
      let tag = ctx.name ^ "/" ^ Cell_netlist.family_name ctx.family in
      let base =
        Printf.sprintf
          "%-28s gates=%-5d area=%-9.1f levels=%-3d delay=%-7.1f ps=%-8.1f \
           sta-ps=%.1f"
          tag s.Mapped.gates s.Mapped.area s.Mapped.levels s.Mapped.norm_delay
          s.Mapped.abs_delay_ps s.Mapped.sta_abs_delay_ps
      in
      let extras =
        (match ctx.verified with
        | Some true -> [ "verify=ok" ]
        | Some false -> [ "verify=FAIL" ]
        | None -> [])
        @ (match ctx.fault with
          | Some f ->
              [ Printf.sprintf "fault=%.1f%%(%d)"
                  (100.0 *. Gate_fault.coverage f) f.Gate_fault.g_total ]
          | None -> [])
        @ (match ctx.testability with
          | Some t ->
              [ Printf.sprintf "tb=%d/%d(red %d)" t.Testability.t_collapsed
                  t.Testability.t_classes t.Testability.t_redundant ]
          | None -> [])
        @ (match ctx.placement with
          | Some p ->
              [ Printf.sprintf "fabric=%d/%d(%.0f%%)" p.Fabric.tiles_used
                  p.Fabric.tiles_total (100.0 *. p.Fabric.utilization) ]
          | None -> [])
        @
        match ctx.diags with
        | [] -> []
        | ds ->
            let e, w, i = Diag.count ds in
            [ Printf.sprintf "lint=%dE/%dW/%dI" e w i ]
      in
      if extras = [] then base else base ^ "  " ^ String.concat " " extras

(* ---------------- deterministic parallel runner ---------------- *)

module Runner = struct
  let recommended_domains () = Domain.recommended_domain_count ()

  let map_jobs ?(domains = 1) f jobs =
    let n = Array.length jobs in
    let d = max 1 (min domains n) in
    if d = 1 then Array.map f jobs
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let r = try Ok (f jobs.(i)) with e -> Error e in
            results.(i) <- Some r;
            match r with Ok _ -> loop () | Error _ -> ()
          end
        in
        loop ()
      in
      let others = List.init (d - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join others;
      (* re-raise the first failure in input order; unclaimed jobs can only
         exist when some worker failed *)
      Array.iter
        (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
        results;
      Array.map
        (function
          | Some (Ok r) -> r
          | Some (Error _) | None -> assert false)
        results
    end
end

(* ---------------- the benchmark x family matrix ---------------- *)

type bench_result = {
  br_bench : string;
  br_ctx0 : ctx;
  br_prefix_samples : sample list;
  br_per_family : (Cell_netlist.family * ctx * sample list) list;
}

let run_matrix ?(domains = 1) ?(config = default_config) ?on_result ~script
    ~families entries =
  let prefix, suffix = split_at_map script in
  (* pre-warm the library cache in the calling domain: each needed family is
     characterized exactly once, and the workers only ever hit *)
  let explicit =
    List.filter_map
      (fun s -> if s.pass = "map" then arg_family s "family" else None)
      script
  in
  List.iter
    (fun f -> ignore (Cell_lib.cached f))
    (List.sort_uniq compare (families @ explicit));
  let run_job (e : Bench_suite.entry) =
    let ctx0 =
      init ~family:config.family ~name:e.Bench_suite.name (e.Bench_suite.build ())
    in
    let ctx0, prefix_samples = run ~config prefix ctx0 in
    let per_family =
      List.map
        (fun f ->
          let cfg = { config with family = f } in
          let ctx, samples = run ~config:cfg suffix { ctx0 with family = f } in
          (f, ctx, samples))
        families
    in
    {
      br_bench = e.Bench_suite.name;
      br_ctx0 = ctx0;
      br_prefix_samples = prefix_samples;
      br_per_family = per_family;
    }
  in
  let job (e : Bench_suite.entry) =
    let r =
      if not config.isolate then run_job e
      else
        (* isolation also covers circuit construction / input parsing: a
           benchmark whose builder raises becomes one error-carrying result
           while the rest of the matrix completes *)
        match run_job e with
        | r -> r
        | exception Sys.Break -> raise Sys.Break
        | exception exn ->
            let ctx0 =
              init ~family:config.family ~name:e.Bench_suite.name
                (Aig.create ())
            in
            let ctx0 =
              {
                ctx0 with
                diags =
                  [
                    Diag.errorf ~rule:"flow-bench-crash"
                      (Diag.Circuit e.Bench_suite.name)
                      "benchmark failed before the flow could isolate it: %s"
                      (exn_message exn);
                  ];
              }
            in
            {
              br_bench = e.Bench_suite.name;
              br_ctx0 = ctx0;
              br_prefix_samples = [];
              br_per_family = [];
            }
    in
    (match on_result with Some f -> f r | None -> ());
    r
  in
  Runner.map_jobs ~domains job (Array.of_list entries)

let matrix_samples results =
  Array.to_list results
  |> List.concat_map (fun r ->
         r.br_prefix_samples
         @ List.concat_map (fun (_, _, ss) -> ss) r.br_per_family)

(* ---------------- checkpoint / resume ---------------- *)

module Checkpoint = struct
  (* Only plain data goes to disk: the rendered report lines plus the raw
     diagnostics and metric samples of each completed benchmark.  Contexts
     hold closures (libraries, AIG arenas) and stay in memory. *)
  type entry = {
    ck_bench : string;
    ck_lines : string list;
    ck_diags : Diag.t list;
    ck_samples : sample list;
  }

  (* Marshal trusts the file's layout, so bump the version whenever
     [entry], [sample], [Diag.t] or [Cut.stats] changes: a file from an
     older layout then loads as empty instead of being misread. *)
  let magic = "cntfet-flow-checkpoint-v2\n"

  (* Atomic: marshal to a process-unique temp file in the same directory,
     then rename over the target.  A crash (even SIGKILL) mid-save leaves
     either the old checkpoint or a stray temp file — never a truncated
     checkpoint that would poison resume; any failure path removes the
     temp before re-raising. *)
  let save path entries =
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc magic;
          Marshal.to_channel oc (entries : entry list) []);
      Sys.rename tmp path
    with
    | () -> ()
    | exception e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e

  (* A missing, truncated or foreign file is worth no more than an empty
     checkpoint: resume recomputes whatever could not be read back. *)
  let load path =
    if not (Sys.file_exists path) then []
    else
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            let m = really_input_string ic (String.length magic) in
            if m <> magic then []
            else (Marshal.from_channel ic : entry list)
          with _ -> [])

  let of_result (r : bench_result) ~lines =
    let diags =
      r.br_ctx0.diags
      @ List.concat_map
          (fun (_, ctx, _) -> diags_since r.br_ctx0 ctx)
          r.br_per_family
    in
    let samples =
      r.br_prefix_samples
      @ List.concat_map (fun (_, _, ss) -> ss) r.br_per_family
    in
    {
      ck_bench = r.br_bench;
      ck_lines = lines;
      ck_diags = diags;
      ck_samples = samples;
    }

  let mem entries bench = List.exists (fun e -> e.ck_bench = bench) entries
end
