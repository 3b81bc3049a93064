(* Tests for library expansion and technology mapping: match-table
   correctness, mapping equivalence (SAT-checked), cost accounting, and
   phase economics. *)

let rng = Rand64.create 31L

let lib_static = Cell_lib.cntfet ()
let lib_pseudo = Cell_lib.cntfet ~family:Cell_netlist.Tg_pseudo ()
let lib_cmos = Cell_lib.cmos ()

let test_library_sizes () =
  Alcotest.(check int) "static cells" 46 (List.length (Cell_lib.cells lib_static));
  Alcotest.(check int) "cmos cells" 7 (List.length (Cell_lib.cells lib_cmos));
  Alcotest.(check bool) "static is free-phase" true (Cell_lib.free_phases lib_static);
  Alcotest.(check bool) "cmos is not" false (Cell_lib.free_phases lib_cmos);
  Alcotest.(check bool) "cmos has inverter" true (Cell_lib.inverter lib_cmos <> None);
  Alcotest.(check bool) "tables are nonempty" true (Cell_lib.num_entries lib_static > 1000)

(* Every match entry, applied to its transform, must reproduce the key. *)
let test_match_semantics () =
  let checked = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      let k = Gate_spec.arity e.Catalog.spec in
      if k >= 2 && k <= 4 then begin
        (* probe with random NPN variants of the gate function *)
        let base = Gate_spec.tt6 e.Catalog.spec in
        Npn.enumerate k base (fun v _ ->
            if !checked < 2000 && Rand64.int rng 7 = 0 then begin
              incr checked;
              let ms = Cell_lib.matches lib_static k v in
              if ms = [] then
                Alcotest.failf "no match for a variant of %s" e.Catalog.name;
              List.iter
                (fun (m : Cell_lib.match_entry) ->
                  (* reconstruct: apply perm, phase, neg to the cell tt *)
                  let t = Npn.permute m.Cell_lib.cell.Cell_lib.tt m.Cell_lib.perm in
                  let t = Npn.apply_phase t m.Cell_lib.phase in
                  let t = if m.Cell_lib.out_neg then Int64.lognot t else t in
                  if t <> v then Alcotest.failf "bad entry for %s" e.Catalog.name)
                ms
            end)
      end)
    Catalog.all;
  Alcotest.(check bool) "checked some variants" true (!checked > 100)

let test_cmos_no_free_neg () =
  (* AND2 (positive) is only reachable in CMOS by complementing leaves
     (NOR2 with both inputs inverted): every match must carry a nonzero
     phase, whereas NAND2 has a phase-free match. *)
  let and2 = 0x8888888888888888L in
  Alcotest.(check bool) "and2 needs inverted leaves" true
    (List.for_all
       (fun (m : Cell_lib.match_entry) -> m.Cell_lib.phase <> 0)
       (Cell_lib.matches lib_cmos 2 and2));
  Alcotest.(check bool) "nand2 matches phase-free" true
    (List.exists
       (fun (m : Cell_lib.match_entry) -> m.Cell_lib.phase = 0)
       (Cell_lib.matches lib_cmos 2 (Int64.lognot and2)));
  (* the free-phase library matches both *)
  Alcotest.(check bool) "static matches and2" true
    (Cell_lib.matches lib_static 2 and2 <> [])

let random_aig nin nnodes seed =
  let rng = Rand64.create (Int64.of_int seed) in
  let g = Aig.create () in
  let pool = ref (Array.to_list (Array.init nin (fun _ -> Aig.add_input g))) in
  for _ = 1 to nnodes do
    let pick () =
      let l = List.nth !pool (Rand64.int rng (List.length !pool)) in
      if Rand64.bool rng then Aig.lnot l else l
    in
    let x =
      match Rand64.int rng 3 with
      | 0 -> Aig.mk_and g (pick ()) (pick ())
      | 1 -> Aig.mk_or g (pick ()) (pick ())
      | _ -> Aig.mk_xor g (pick ()) (pick ())
    in
    pool := x :: !pool
  done;
  List.iteri
    (fun i l -> if i < 8 then Aig.add_output g (Printf.sprintf "o%d" i) l)
    !pool;
  g

let check_equivalent aig lib =
  let m = Mapper.map lib aig in
  let back = Mapped.to_aig m in
  match Cec.check aig back with
  | Cec.Equivalent -> true
  | Cec.Inequivalent _ -> false
  | Cec.Undecided -> failwith "undecided"

let test_mapping_equivalence_random () =
  for seed = 1 to 6 do
    let aig = random_aig 8 60 seed in
    List.iter
      (fun lib ->
        if not (check_equivalent aig lib) then
          Alcotest.failf "seed %d not equivalent on %s" seed (Cell_lib.name lib))
      [ lib_static; lib_pseudo; lib_cmos ]
  done;
  Alcotest.(check pass) "random mappings equivalent" () ()

let test_mapping_equivalence_structured () =
  List.iter
    (fun (name, aig) ->
      List.iter
        (fun lib ->
          if not (check_equivalent aig lib) then
            Alcotest.failf "%s not equivalent on %s" name (Cell_lib.name lib))
        [ lib_static; lib_cmos ])
    [ ("adder8", Arith.adder 8);
      ("ecc", Ecc.decoder ~data:8 ~checks:5 ~detect:true);
      ("alu", Alu.alu ~width:4 ~masked:true ~result_only:false ()) ];
  Alcotest.(check pass) "structured mappings equivalent" () ()

let test_mapped_outputs_on_constants_and_pis () =
  (* outputs driven by constants and inputs directly *)
  let g = Aig.create () in
  let a = Aig.add_input g in
  Aig.add_output g "t" Aig.lit_true;
  Aig.add_output g "f" Aig.lit_false;
  Aig.add_output g "w" a;
  Aig.add_output g "n" (Aig.lnot a);
  List.iter
    (fun lib ->
      let m = Mapper.map lib g in
      let out = Mapped.eval m [| true |] in
      Alcotest.(check (array bool)) "consts and wires"
        [| true; false; true; false |] out)
    [ lib_static; lib_cmos ];
  Alcotest.(check pass) "constant outputs" () ()

let test_xor_uses_xor_cell () =
  (* mapping a single xor with the static library must give one F01 cell *)
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  Aig.add_output g "y" (Aig.mk_xor g a b);
  let m = Mapper.map lib_static g in
  let s = Mapped.stats m in
  Alcotest.(check int) "one gate" 1 s.Mapped.gates;
  Alcotest.(check (list (pair string int))) "an F01" [ ("F01", 1) ]
    (Mapped.count_cells m);
  (* CMOS needs several gates for the same function *)
  let mc = Mapper.map lib_cmos g in
  Alcotest.(check bool) "cmos needs more" true
    ((Mapped.stats mc).Mapped.gates > 2)

let test_stats_consistency () =
  let aig = Arith.adder 12 in
  let m = Mapper.map lib_static aig in
  let s = Mapped.stats m in
  Alcotest.(check bool) "area positive" true (s.Mapped.area > 0.0);
  Alcotest.(check bool) "levels <= gates" true (s.Mapped.levels <= s.Mapped.gates);
  Alcotest.(check bool) "abs = norm * tau" true
    (abs_float (s.Mapped.abs_delay_ps -. (s.Mapped.norm_delay *. 0.59)) < 1e-6);
  (* levels from instance_levels agree with stats *)
  let lv = Mapped.instance_levels m in
  Alcotest.(check bool) "levels bound" true
    (Array.for_all (fun l -> l <= s.Mapped.levels) lv)

let test_cmos_inverter_accounting () =
  (* a bare inverter output in CMOS must cost exactly one INV *)
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  Aig.add_output g "y" (Aig.mk_and g a b);
  let m = Mapper.map lib_cmos g in
  (* and2 = NAND2 + INV *)
  let cells = Mapped.count_cells m in
  Alcotest.(check bool) "nand+inv" true
    (List.mem ("NAND2", 1) cells && List.mem ("INV", 1) cells)

let test_area_recovery_never_hurts_delay () =
  let aig = Synth.resyn2rs (Arith.adder 16) in
  let d0 =
    Mapper.map ~params:{ Mapper.default_params with Mapper.area_passes = 0 }
      lib_static aig
  in
  let d3 =
    Mapper.map ~params:{ Mapper.default_params with Mapper.area_passes = 3 }
      lib_static aig
  in
  let s0 = Mapped.stats d0 and s3 = Mapped.stats d3 in
  Alcotest.(check bool) "area recovery reduces area" true
    (s3.Mapped.area <= s0.Mapped.area +. 1e-9);
  Alcotest.(check bool) "delay within tolerance" true
    (s3.Mapped.norm_delay <= s0.Mapped.norm_delay +. 1e-6)

let test_mapper_jobs_byte_identical () =
  (* The mapper must pick the same cover at every domain count (the
     match arena is built across domains into disjoint per-node ranges;
     the matching sweeps run in node order). *)
  let circuits =
    [
      ("addsub-12", Arith.addsub 12);
      ("div-12", Arith.divider 12);
      ("csa-16", Arith.carry_select_adder 16 ~block:4);
    ]
  in
  List.iter
    (fun (name, aig) ->
      List.iter
        (fun (lname, lib, timing) ->
          let image jobs =
            let params =
              { Mapper.default_params with Mapper.jobs; timing }
            in
            Marshal.to_string (Mapper.map ~params lib aig)
              [ Marshal.No_sharing ]
          in
          let seq = image 1 in
          List.iter
            (fun jobs ->
              if image jobs <> seq then
                Alcotest.failf "%s/%s: mapping jobs=%d diverges" name lname
                  jobs)
            [ 2; 3 ])
        [
          ("static", lib_static, false);
          ("cmos", lib_cmos, false);
          ("static-timing", lib_static, true);
        ])
    circuits

let test_mapper_tiny_circuits_any_jobs () =
  (* degenerate circuits with a pool wider than the node count: a pure
     wire (zero AND nodes) and a single AND, identical at every jobs *)
  let wire = Aig.create () in
  let a = Aig.add_input wire in
  Aig.add_output wire "y" a;
  let one = Aig.create () in
  let x = Aig.add_input one in
  let y = Aig.add_input one in
  Aig.add_output one "z" (Aig.mk_and one x y);
  List.iter
    (fun (name, aig) ->
      let image jobs =
        let params = { Mapper.default_params with Mapper.jobs } in
        Marshal.to_string (Mapper.map ~params lib_static aig)
          [ Marshal.No_sharing ]
      in
      if image 4 <> image 1 then
        Alcotest.failf "%s: jobs=4 diverges from jobs=1" name)
    [ ("wire", wire); ("one-and", one) ];
  Alcotest.(check pass) "tiny circuits map" () ()

let test_failing_map_leaves_no_domain () =
  (* A library holding only the CMOS inverter matches no AND node, so
     every map raises.  A raising map must join its domains: the runtime
     caps live domains, and leaked ones made every later jobs > 1 map in
     the process fail to allocate its own. *)
  let inv = Option.get (Cell_lib.inverter lib_cmos) in
  let inv_only =
    Cell_lib.of_cells ~name:"inv-only" ~free_phases:false
      ~tau_ps:(Cell_lib.tau_ps lib_cmos) [ inv ]
  in
  let aig = (Bench_suite.find "add-16").Bench_suite.build () in
  let params jobs = { Mapper.default_params with Mapper.jobs } in
  for i = 1 to 60 do
    match Mapper.map ~params:(params 4) inv_only aig with
    | _ -> Alcotest.failf "map %d: the inverter-only library matched" i
    | exception Failure msg when String.ends_with ~suffix:"no match" msg ->
        ()
  done;
  let image jobs =
    Marshal.to_string (Mapper.map ~params:(params jobs) lib_static aig)
      [ Marshal.No_sharing ]
  in
  Alcotest.(check bool) "jobs=4 map after 60 failures = jobs=1 map" true
    (image 4 = image 1)

(* The covers of the whole benchmark x family matrix, pinned byte for
   byte: one digest over every [Synth.light] suite circuit on all five
   families, at default params and in timing mode (whose load fixed point
   runs the most sweeps). *)
let test_cover_matrix_digest () =
  let aigs =
    List.map
      (fun (e : Bench_suite.entry) -> Synth.light (e.Bench_suite.build ()))
      Bench_suite.all
  in
  let digest params =
    let b = Buffer.create 4096 in
    List.iter
      (fun aig ->
        List.iter
          (fun fam ->
            let m = Mapper.map ~params (Cell_lib.cached fam) aig in
            Buffer.add_string b
              (Digest.string (Marshal.to_string m [ Marshal.No_sharing ])))
          Cell_netlist.all_families)
      aigs;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  Alcotest.(check string) "default params" "6c164683c199b11739d841afad1cad72"
    (digest Mapper.default_params);
  Alcotest.(check string) "timing mode" "f622622c698cf968eeb3387e6c4c9898"
    (digest { Mapper.default_params with Mapper.timing = true })

(* The word-parallel cell kernel equals the bit-serial reference
   (test/mapped_ref.ml) on random cells: arity 0-6, tables with junk
   above bit 2^k that may ignore their top fanins, and fanins driven by
   inputs, instances or constants, each possibly negated. *)
let gen_cell =
  let open QCheck.Gen in
  let n_pi = 4 and n_inst = 3 in
  let gen_net =
    map2
      (fun driver negated -> { Mapped.driver; negated })
      (oneof
         [
           map (fun i -> Mapped.Pi i) (int_bound (n_pi - 1));
           map (fun j -> Mapped.Inst j) (int_bound (n_inst - 1));
           map (fun b -> Mapped.Const b) bool;
         ])
      bool
  in
  int_range 0 6 >>= fun k ->
  int_range 0 k >>= fun support ->
  int64 >>= fun w ->
  int64 >>= fun junk ->
  array_size (return k) gen_net >>= fun fanins ->
  array_size (return n_pi) int64 >>= fun words ->
  array_size (return n_inst) int64 >>= fun vals ->
  (* a table over the low [support] fanins, junk above its 2^k bits *)
  let low = (Tt.words (Tt.of_bits support w)).(0) in
  let mask =
    if k = 6 then -1L else Int64.pred (Int64.shift_left 1L (1 lsl k))
  in
  let tt = Int64.(logor (logand low mask) (logand junk (lognot mask))) in
  let inst =
    {
      Mapped.cell_name = "cell";
      area = 1.0;
      delay = 1.0;
      drive = None;
      fanin_caps = [||];
      fanins;
      tt;
      cover = None;
    }
  in
  return (words, vals, inst)

let print_cell (_, _, (inst : Mapped.instance)) =
  Printf.sprintf "arity %d tt %016Lx fanins [%s]"
    (Array.length inst.Mapped.fanins)
    inst.Mapped.tt
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (n : Mapped.net) ->
               (if n.Mapped.negated then "~" else "")
               ^
               match n.Mapped.driver with
               | Mapped.Pi i -> Printf.sprintf "pi%d" i
               | Mapped.Inst j -> Printf.sprintf "inst%d" j
               | Mapped.Const b -> string_of_bool b)
             inst.Mapped.fanins)))

let prop_eval_instance_matches_reference =
  QCheck.Test.make ~name:"eval_instance = bit-serial reference" ~count:2000
    (QCheck.make ~print:print_cell gen_cell)
    (fun (words, vals, inst) ->
      Int64.equal
        (Mapped.eval_instance words vals inst)
        (Mapped_ref.eval_instance words vals inst))

let test_simulate_matches_reference () =
  let rng = Rand64.create 17L in
  List.iter
    (fun (e : Bench_suite.entry) ->
      let aig = Synth.light (e.Bench_suite.build ()) in
      List.iter
        (fun lib ->
          let m = Mapper.map lib aig in
          for _ = 1 to 2 do
            let words =
              Array.init m.Mapped.num_inputs (fun _ -> Rand64.next rng)
            in
            if Mapped.simulate m words <> Mapped_ref.simulate m words then
              Alcotest.failf "%s/%s: simulate differs from the reference"
                e.Bench_suite.name (Cell_lib.name lib)
          done)
        [ lib_static; lib_cmos ])
    Bench_suite.all

let test_genlib_roundtrip_library () =
  (* write the static library to genlib, parse it back, map with it:
     stats must be identical *)
  let text = Genlib.to_string lib_static in
  let lib2 =
    Genlib.of_string ~name:"roundtrip" ~free_phases:true ~tau_ps:0.59 text
  in
  Alcotest.(check int) "cells survive" 46 (List.length (Cell_lib.cells lib2));
  let aig = Arith.adder 8 in
  let s1 = Mapped.stats (Mapper.map lib_static aig) in
  let s2 = Mapped.stats (Mapper.map lib2 aig) in
  Alcotest.(check int) "same gates" s1.Mapped.gates s2.Mapped.gates;
  Alcotest.(check bool) "same area" true
    (abs_float (s1.Mapped.area -. s2.Mapped.area) < 0.1)

let () =
  Alcotest.run "techmap"
    [
      ( "library",
        [
          Alcotest.test_case "sizes" `Quick test_library_sizes;
          Alcotest.test_case "match semantics" `Quick test_match_semantics;
          Alcotest.test_case "cmos phases" `Quick test_cmos_no_free_neg;
          Alcotest.test_case "genlib roundtrip" `Quick test_genlib_roundtrip_library;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "random equivalence" `Quick test_mapping_equivalence_random;
          Alcotest.test_case "structured equivalence" `Quick
            test_mapping_equivalence_structured;
          Alcotest.test_case "const/pi outputs" `Quick
            test_mapped_outputs_on_constants_and_pis;
          Alcotest.test_case "xor cell used" `Quick test_xor_uses_xor_cell;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "cmos inverters" `Quick test_cmos_inverter_accounting;
          Alcotest.test_case "area recovery" `Quick test_area_recovery_never_hurts_delay;
          Alcotest.test_case "jobs byte-identical" `Quick
            test_mapper_jobs_byte_identical;
          Alcotest.test_case "tiny circuits any jobs" `Quick
            test_mapper_tiny_circuits_any_jobs;
          Alcotest.test_case "failing map leaves no domain" `Quick
            test_failing_map_leaves_no_domain;
          Alcotest.test_case "cover matrix digest" `Slow
            test_cover_matrix_digest;
        ] );
      ( "simulation",
        [
          QCheck_alcotest.to_alcotest prop_eval_instance_matches_reference;
          Alcotest.test_case "simulate = reference (suite)" `Quick
            test_simulate_matches_reference;
        ] );
    ]
