type char_source = Computed | Published

type options = {
  char_source : char_source;
  free_output_polarity : bool;
  verify : bool;
  verify_seed : int64;
}

let default_options =
  {
    char_source = Computed;
    free_output_polarity = true;
    verify = false;
    verify_seed = 2026L;
  }

(* ---------------- Table 1 ---------------- *)

let render_table1 () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "# Table 1 — ambipolar CNTFET gate catalog\n\n";
  Buffer.add_string b "| Gate | Function | Inputs | XORs | CMOS-expressible |\n";
  Buffer.add_string b "|------|----------|--------|------|------------------|\n";
  List.iter
    (fun (e : Catalog.entry) ->
      Printf.bprintf b "| %s | `%s` | %d | %d | %s |\n" e.Catalog.name
        (Format.asprintf "%a" Gate_spec.pp e.Catalog.spec)
        (Gate_spec.arity e.Catalog.spec)
        (Gate_spec.num_xors e.Catalog.spec)
        (if Catalog.is_cmos_expressible e then "yes" else "")
      )
    Catalog.all;
  Printf.bprintf b "\n%d gates total; %d CMOS-expressible (the paper: 46 vs 7).\n"
    (List.length Catalog.all)
    (List.length Catalog.cmos_subset);
  Buffer.contents b

(* ---------------- Table 2 ---------------- *)

let published_of family gate =
  let row = Paper_data.table2_find gate in
  match family with
  | Cell_netlist.Tg_static -> Some row.Paper_data.tg_static
  | Cell_netlist.Tg_pseudo -> Some row.Paper_data.tg_pseudo
  | Cell_netlist.Pass_pseudo -> Some row.Paper_data.pass_pseudo
  | Cell_netlist.Cmos -> row.Paper_data.cmos
  | Cell_netlist.Pass_static -> None

let table2_families =
  (* Pass_static is characterized too (Sec. 3.2 discusses and dismisses
     it); the paper prints no column for it, so it appears computed-only. *)
  [ Cell_netlist.Tg_static; Cell_netlist.Tg_pseudo; Cell_netlist.Pass_pseudo;
    Cell_netlist.Pass_static; Cell_netlist.Cmos ]

let render_table2 () =
  let b = Buffer.create 16384 in
  Buffer.add_string b
    "# Table 2 — library characterization (computed vs published)\n\n\
     T = transistors, A = normalized area, w/a = worst/average FO4 delay\n\
     normalized to tau (tau1 = 0.59 ps CNTFET, tau2 = 3.00 ps CMOS).\n";
  List.iter
    (fun family ->
      Printf.bprintf b "\n## %s\n\n" (Cell_netlist.family_name family);
      Buffer.add_string b
        "| Gate | T | A | FO4 w | FO4 a | paper T | paper A | paper w | paper a |\n\
         |------|---|---|-------|-------|---------|---------|---------|----------|\n";
      let rows = Charlib.characterize_catalog family in
      List.iter
        (fun (r : Charlib.row) ->
          match published_of family r.Charlib.name with
          | Some p ->
              Printf.bprintf b
                "| %s | %d | %.2f | %.2f | %.2f | %d | %.1f | %.1f | %.1f |\n"
                r.Charlib.name r.Charlib.transistors r.Charlib.area
                r.Charlib.fo4_worst r.Charlib.fo4_avg p.Paper_data.t
                p.Paper_data.a p.Paper_data.w p.Paper_data.avg
          | None ->
              Printf.bprintf b "| %s | %d | %.2f | %.2f | %.2f | – | – | – | – |\n"
                r.Charlib.name r.Charlib.transistors r.Charlib.area
                r.Charlib.fo4_worst r.Charlib.fo4_avg)
        rows;
      let t, a, w, v = Charlib.averages rows in
      Printf.bprintf b "| **avg** | %.1f | %.1f | %.1f | %.1f | | | | |\n" t a w v)
    table2_families;
  Buffer.contents b

(* ---------------- libraries ---------------- *)

let published_lib family ~free_phases =
  let entries =
    match family with
    | Cell_netlist.Cmos -> Catalog.cmos_subset
    | _ -> Catalog.all
  in
  let cells =
    List.mapi
      (fun i (e : Catalog.entry) ->
        let gc =
          match published_of family e.Catalog.name with
          | Some gc -> gc
          | None -> invalid_arg "published_lib"
        in
        let base_tt = Gate_spec.tt6 e.Catalog.spec in
        {
          Cell_lib.id = i;
          name =
            (if family = Cell_netlist.Cmos then Cell_lib.cmos_cell_name e.Catalog.name
             else e.Catalog.name);
          arity = Gate_spec.arity e.Catalog.spec;
          tt =
            (if family = Cell_netlist.Cmos then Int64.lognot base_tt else base_tt);
          area = gc.Paper_data.a;
          delay = gc.Paper_data.w;
          timing = None;
        })
      entries
  in
  Cell_lib.of_cells
    ~name:(Cell_netlist.family_name family ^ "(paper)")
    ~free_phases ~tau_ps:(Charlib.tau_ps family) cells

let libraries opts =
  let fp = opts.free_output_polarity in
  match opts.char_source with
  | Computed ->
      ( Cell_lib.cached Cell_netlist.Tg_static,
        Cell_lib.cached Cell_netlist.Tg_pseudo,
        Cell_lib.cached Cell_netlist.Cmos )
      |> fun (s, p, c) ->
      if fp then (s, p, c)
      else
        (* ablation: rebuild CNTFET libraries without free phases; they
           then need an explicit inverter cell, modeled by F00 *)
        let strip lib =
          Cell_lib.of_cells
            ~name:(Cell_lib.name lib ^ "(no-free-pol)")
            ~free_phases:false ~tau_ps:(Cell_lib.tau_ps lib)
            (List.map
               (fun (c : Cell_lib.cell) ->
                 if c.Cell_lib.name = "F00" then
                   { c with Cell_lib.tt = Int64.lognot c.Cell_lib.tt }
                 else c)
               (Cell_lib.cells lib))
        in
        (strip s, strip p, c)
  | Published ->
      ( published_lib Cell_netlist.Tg_static ~free_phases:fp,
        published_lib Cell_netlist.Tg_pseudo ~free_phases:fp,
        published_lib Cell_netlist.Cmos ~free_phases:false )

(* ---------------- Table 3 ---------------- *)

type t3_cell = {
  stats : Mapped.stats;
  cells_used : (string * int) list;
}

type t3_row = {
  bench : string;
  description : string;
  aig_size : int;
  static_r : t3_cell;
  pseudo_r : t3_cell;
  cmos_r : t3_cell;
}

let verify_by_simulation ?(seed = 2026L) ?(rounds = 8) aig mapped =
  let rng = Rand64.create seed in
  let ok = ref true in
  for _ = 1 to rounds do
    let words =
      Array.init (Aig.num_inputs aig) (fun _ -> Rand64.next rng)
    in
    let oa = Aig.simulate_outputs aig words in
    let om = Mapped.simulate mapped words in
    if oa <> om then ok := false
  done;
  !ok

let run_bench opts (lib_s, lib_p, lib_c) (e : Bench_suite.entry) =
  let aig = e.Bench_suite.build () in
  let opt = Synth.resyn2rs aig in
  let one lib =
    let m = Mapper.map lib opt in
    if opts.verify && not (verify_by_simulation ~seed:opts.verify_seed opt m)
    then
      failwith (Printf.sprintf "mapping of %s against %s is not equivalent"
                  e.Bench_suite.name (Cell_lib.name lib));
    { stats = Mapped.stats m; cells_used = Mapped.count_cells m }
  in
  {
    bench = e.Bench_suite.name;
    description = e.Bench_suite.description;
    aig_size = Aig.num_ands opt;
    static_r = one lib_s;
    pseudo_r = one lib_p;
    cmos_r = one lib_c;
  }

let run_table3 ?(options = default_options) ?benches () =
  let libs = libraries options in
  let entries =
    match benches with
    | None -> Bench_suite.all
    | Some names -> List.map Bench_suite.find names
  in
  List.map (run_bench options libs) entries

let favg f rows =
  List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows)

let summarize rows =
  let g sel (r : t3_row) = float_of_int (sel r).stats.Mapped.gates in
  let a sel (r : t3_row) = (sel r).stats.Mapped.area in
  let l sel (r : t3_row) = float_of_int (sel r).stats.Mapped.levels in
  let d sel (r : t3_row) = (sel r).stats.Mapped.norm_delay in
  let abs_ sel (r : t3_row) = (sel r).stats.Mapped.abs_delay_ps in
  let sta_abs sel (r : t3_row) = (sel r).stats.Mapped.sta_abs_delay_ps in
  let st r = r.static_r and ps r = r.pseudo_r and cm r = r.cmos_r in
  let red f sel = 1.0 -. (favg (f sel) rows /. favg (f cm) rows) in
  let speedup sel = favg (fun r -> abs_ cm r /. abs_ sel r) rows in
  let sta_speedup sel = favg (fun r -> sta_abs cm r /. sta_abs sel r) rows in
  [
    ("gate_reduction_static", red g st);
    ("gate_reduction_pseudo", red g ps);
    ("area_reduction_static", red a st);
    ("area_reduction_pseudo", red a ps);
    ("level_reduction_static", red l st);
    ("level_reduction_pseudo", red l ps);
    ("delay_reduction_static", red d st);
    ("delay_reduction_pseudo", red d ps);
    ("speedup_static", speedup st);
    ("speedup_pseudo", speedup ps);
    ("sta_speedup_static", sta_speedup st);
    ("sta_speedup_pseudo", sta_speedup ps);
  ]

let render_table3 ?(options = default_options) ?benches () =
  let rows = run_table3 ~options ?benches () in
  let b = Buffer.create 16384 in
  Buffer.add_string b
    "# Table 3 — technology mapping results (computed | paper)\n\n\
     Per benchmark and library: gate count, normalized area, logic levels,\n\
     normalized delay and absolute delay (ps); `sta ps` is the\n\
     load-aware STA delay (real fanout loads, FO4 outputs) alongside the\n\
     paper's fixed unit-load convention.\n\n";
  Buffer.add_string b
    "| Bench | lib | gates | area | levels | delay | ps | sta ps | paper gates | paper area | paper levels | paper delay | paper ps |\n\
     |-------|-----|-------|------|--------|-------|----|--------|------------|-----------|--------------|-------------|----------|\n";
  List.iter
    (fun r ->
      let paper = try Some (Paper_data.table3_find r.bench) with Not_found -> None in
      let line name (c : t3_cell) (p : Paper_data.mapping_result option) =
        let s = c.stats in
        (match p with
        | Some p ->
            Printf.bprintf b
              "| %s | %s | %d | %.1f | %d | %.1f | %.1f | %.1f | %d | %.1f | %d | %.1f | %.1f |\n"
              r.bench name s.Mapped.gates s.Mapped.area s.Mapped.levels
              s.Mapped.norm_delay s.Mapped.abs_delay_ps
              s.Mapped.sta_abs_delay_ps p.Paper_data.gates
              p.Paper_data.area p.Paper_data.levels p.Paper_data.norm_delay
              p.Paper_data.abs_delay_ps
        | None ->
            Printf.bprintf b
              "| %s | %s | %d | %.1f | %d | %.1f | %.1f | %.1f | | | | | |\n"
              r.bench name s.Mapped.gates s.Mapped.area s.Mapped.levels
              s.Mapped.norm_delay s.Mapped.abs_delay_ps
              s.Mapped.sta_abs_delay_ps)
      in
      line "static" r.static_r
        (Option.map (fun p -> p.Paper_data.static) paper);
      line "pseudo" r.pseudo_r
        (Option.map (fun p -> p.Paper_data.pseudo) paper);
      line "cmos" r.cmos_r
        (Option.map (fun p -> p.Paper_data.cmos_map) paper))
    rows;
  Buffer.add_string b "\n## Aggregate improvements vs CMOS\n\n";
  Buffer.add_string b "| metric | computed | paper |\n|--------|----------|-------|\n";
  let paper_of = function
    | "gate_reduction_static" -> Some 0.386
    | "area_reduction_static" -> Some 0.377
    | "area_reduction_pseudo" -> Some 0.645
    | "level_reduction_static" -> Some 0.415
    | "level_reduction_pseudo" -> Some 0.404
    | "speedup_static" -> Some 6.9
    | "speedup_pseudo" -> Some 5.8
    | _ -> None
  in
  List.iter
    (fun (k, v) ->
      match paper_of k with
      | Some p -> Printf.bprintf b "| %s | %.3f | %.3f |\n" k v p
      | None -> Printf.bprintf b "| %s | %.3f | |\n" k v)
    (summarize rows);
  Buffer.contents b

let render_fig6 ?(options = default_options) ?benches () =
  let rows = run_table3 ~options ?benches () in
  let data =
    List.map
      (fun r ->
        ( r.bench,
          r.cmos_r.stats.Mapped.abs_delay_ps
          /. r.static_r.stats.Mapped.abs_delay_ps,
          r.cmos_r.stats.Mapped.abs_delay_ps
          /. r.pseudo_r.stats.Mapped.abs_delay_ps,
          r.cmos_r.stats.Mapped.sta_abs_delay_ps
          /. r.static_r.stats.Mapped.sta_abs_delay_ps,
          r.cmos_r.stats.Mapped.sta_abs_delay_ps
          /. r.pseudo_r.stats.Mapped.sta_abs_delay_ps ))
      rows
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "# Figure 6 — absolute-delay ratio of CMOS to CNTFET implementations\n\n\
     (bars of the paper's figure; paper values derived from Table 3;\n\
     `sta` columns use the load-aware STA delay on both sides)\n\n\
     | Bench | static (computed) | pseudo (computed) | static (sta) | pseudo (sta) | static (paper) | pseudo (paper) |\n\
     |-------|-------------------|-------------------|--------------|--------------|----------------|----------------|\n";
  List.iter
    (fun (bench, s, p, ss, sp) ->
      let ps, pp =
        match
          List.find_opt (fun (n, _, _) -> n = bench) Paper_data.fig6_speedups
        with
        | Some (_, a, c) -> (a, c)
        | None -> (nan, nan)
      in
      Printf.bprintf b "| %s | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f |\n"
        bench s p ss sp ps pp)
    data;
  let avg sel =
    favg sel (List.map (fun (_, s, p, ss, sp) -> ((s, p), (ss, sp))) data)
  in
  Printf.bprintf b "| **avg** | %.2f | %.2f | %.2f | %.2f | 6.9 | 5.8 |\n"
    (avg (fun ((s, _), _) -> s))
    (avg (fun ((_, p), _) -> p))
    (avg (fun (_, (ss, _)) -> ss))
    (avg (fun (_, (_, sp)) -> sp));
  Buffer.contents b
