(* Tests for the fault subsystem: the transistor-level cell dictionaries
   (zero-fault fidelity, determinism, the known family-level physics) and
   the gate-level packed stuck-at simulator (tested against structural
   injection simulated by the bit-serial reference, test/mapped_ref.ml)
   plus the ATPG bookkeeping. *)

(* ---- transistor level ---- *)

(* The fault-capable evaluator with no fault injected is the golden
   switch-level simulator: every catalog cell of every family still
   computes its spec function through the fault path. *)
let test_zero_fault_golden () =
  List.iter
    (fun family ->
      List.iter
        (fun (entry : Catalog.entry) ->
          let cell = Cell_netlist.elaborate family entry.Catalog.spec in
          let n = Gate_spec.arity entry.Catalog.spec in
          for a = 0 to (1 lsl n) - 1 do
            let bits v = a land (1 lsl v) <> 0 in
            if
              Switchsim.cell_output_with cell bits
              <> Switchsim.cell_output cell bits
            then
              Alcotest.failf "%s %s: zero-fault drive differs on %d"
                (Cell_netlist.family_name family)
                entry.Catalog.name a;
            match Switchsim.logic_value_with cell bits with
            | Some v ->
                (* the output node of an inverting family carries the
                   complement of the spec *)
                if v <> Switchsim.inverting cell
                   <> Gate_spec.eval entry.Catalog.spec bits
                then
                  Alcotest.failf "%s %s: wrong logic value on %d"
                    (Cell_netlist.family_name family)
                    entry.Catalog.name a
            | None ->
                Alcotest.failf "%s %s: output floats/contends on %d"
                  (Cell_netlist.family_name family)
                  entry.Catalog.name a
          done)
        (Cell_fault.catalog_for family))
    Cell_netlist.all_families;
  Alcotest.(check pass) "zero-fault golden" () ()

(* The dictionary is a pure function of (family, catalog): two runs agree
   structurally, fault for fault. *)
let test_dictionary_deterministic () =
  List.iter
    (fun family ->
      let r1 = Cell_fault.analyze_family family in
      let r2 = Cell_fault.analyze_family family in
      Alcotest.(check bool)
        (Cell_netlist.family_name family ^ " dictionary deterministic")
        true (r1 = r2))
    [ Cell_netlist.Tg_static; Cell_netlist.Tg_pseudo; Cell_netlist.Cmos ]

(* Family-level physics the dictionary must reproduce: complementary
   (static) cells turn defects into contention/floating, ratioed pseudo
   cells morph silently, and ambipolar polarity-gate faults are the
   function-morphing mechanism the paper's library is built on. *)
let test_dictionary_physics () =
  let sum fam = Cell_fault.summarize fam (Cell_fault.analyze_family fam) in
  let st = sum Cell_netlist.Tg_static in
  Alcotest.(check bool) "static: defects break outputs" true
    (st.Cell_fault.s_broken > 0);
  Alcotest.(check bool) "static: polarity faults exist" true
    (st.Cell_fault.s_pol_faults > 0);
  let ps = sum Cell_netlist.Tg_pseudo in
  Alcotest.(check bool) "pseudo: silent function morphs" true
    (ps.Cell_fault.s_morphed > 0);
  Alcotest.(check bool) "pseudo: polarity faults morph" true
    (ps.Cell_fault.s_pol_morphed > 0);
  List.iter
    (fun (s : Cell_fault.summary) ->
      let c = Cell_fault.coverage s in
      Alcotest.(check bool) "coverage in [0,1]" true (c >= 0.0 && c <= 1.0);
      Alcotest.(check int) "outcomes partition the faults" s.Cell_fault.s_faults
        (s.Cell_fault.s_masked + s.Cell_fault.s_degraded
        + s.Cell_fault.s_morphed + s.Cell_fault.s_broken))
    [ st; ps ];
  (* the CMOS dictionary covers exactly the CMOS-expressible subset *)
  Alcotest.(check int) "cmos subset"
    (List.length Catalog.cmos_subset)
    (List.length (Cell_fault.catalog_for Cell_netlist.Cmos))

(* A morph target, when matched, must actually describe the faulty table:
   exact match = same word, complement = negated word. *)
let test_morph_targets_honest () =
  List.iter
    (fun (r : Cell_fault.cell_report) ->
      List.iter
        (fun (fe : Cell_fault.fault_entry) ->
          match fe.Cell_fault.fe_outcome with
          | Cell_fault.Morphed
              { target = Some m; faulty_tt; _ } -> (
              let e = Catalog.match_entry m in
              let target_tt = Gate_spec.tt6 e.Catalog.spec in
              match m with
              | Catalog.Exact _ ->
                  Alcotest.(check bool) "exact target" true
                    (Int64.equal faulty_tt target_tt)
              | Catalog.Complement _ ->
                  Alcotest.(check bool) "complement target" true
                    (Int64.equal faulty_tt (Int64.lognot target_tt))
              | Catalog.Npn_class _ -> ())
          | _ -> ())
        r.Cell_fault.cr_faults)
    (Cell_fault.analyze_family Cell_netlist.Tg_pseudo)

(* ---- gate level ---- *)

let mapped_of name =
  let e = Bench_suite.find name in
  let ctx = Flow.init ~name (e.Bench_suite.build ()) in
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn "synth(light); map(family=static)")
      ctx
  in
  Option.get ctx.Flow.mapped

(* A hand-built instance, nets and replicated truth tables for the
   netlists below: [table k f] holds [f] over [k] fanins (pin [p] is bit
   [p] of the minterm) in all 64 bits. *)
let inst tt fanins =
  {
    Mapped.cell_name = "g";
    area = 1.0;
    delay = 1.0;
    drive = None;
    fanin_caps = [||];
    fanins;
    tt;
    cover = None;
  }

let pi ?(negated = false) i = { Mapped.driver = Mapped.Pi i; negated }
let out ?(negated = false) j = { Mapped.driver = Mapped.Inst j; negated }
let const b = { Mapped.driver = Mapped.Const b; negated = false }

let table k f =
  let t = ref 0L in
  for b = 63 downto 0 do
    let m = b land ((1 lsl k) - 1) in
    t :=
      Int64.logor (Int64.shift_left !t 1)
        (if f (fun p -> m land (1 lsl p) <> 0) then 1L else 0L)
  done;
  !t

let and3 = table 3 (fun v -> v 0 && v 1 && v 2)

(* Every edge of the stem-region scheme in one netlist over inputs 0-7:
   - input 0 is read by an output and by a cell pin;
   - i0 feeds both data pins of i1, one of them negated (i1 = i0 ? x3 : x4);
   - i2 has a pin tied to a constant;
   - i3 reaches no output, and input 6 reaches only i3;
   - i4 drives an output and a cell;
   - an output reads a constant.
   Most faults need five or six input values at once, so one 64-pattern
   round detects some of them at one seed and not at another. *)
let stem_edges =
  {
    Mapped.lib_name = "stem-edges";
    tau_ps = 1.0;
    num_inputs = 8;
    input_names = Array.init 8 (Printf.sprintf "x%d");
    instances =
      [|
        inst and3 [| pi 0; pi 1; pi 2 |];
        inst
          (table 4 (fun v -> (v 0 && v 2) || (v 1 && v 3)))
          [| out 0; out ~negated:true 0; pi 3; pi 4 |];
        inst and3 [| pi 3; pi 5; const true |];
        inst (table 2 (fun v -> v 0 || v 1)) [| pi 6; pi 7 |];
        inst (table 2 (fun v -> not (v 0 && v 1))) [| out 1; out 2 |];
        inst and3 [| out 4; pi 7; pi ~negated:true 1 |];
      |];
    outputs =
      [| ("a", pi 0); ("o4", out 4); ("o5", out 5); ("zero", const false) |];
  }

(* The simulation verdicts of [Gate_fault.analyze] agree, fault for
   fault, with the slow reference: structurally inject the fault
   (Gate_fault.inject) and fully resimulate the copy on the same pattern
   stream with the bit-serial evaluator, so a fault in the stem-region
   scheme or in the word-parallel kernel shows.  Returns, per fault,
   whether simulation detected it. *)
let packed_matches_serial name m ~rounds ~seed =
  let results, s =
    Gate_fault.analyze ~rounds ~seed ~conflict_budget:5_000 m
  in
  let rng = Rand64.create seed in
  let pats =
    Array.init s.Gate_fault.g_rounds (fun _ ->
        Array.init m.Mapped.num_inputs (fun _ -> Rand64.next rng))
  in
  let base = Array.map (Mapped_ref.simulate m) pats in
  Array.map
    (fun (r : Gate_fault.result) ->
      let faulty = Gate_fault.inject m r.Gate_fault.fault in
      let serial =
        Array.exists2
          (fun words b -> Mapped_ref.simulate faulty words <> b)
          pats base
      in
      let packed = r.Gate_fault.status = Gate_fault.Detected_sim in
      if packed <> serial then
        Alcotest.failf "%s (seed %Ld): %s packed=%b serial=%b" name seed
          (Gate_fault.describe m r.Gate_fault.fault)
          packed serial;
      packed)
    results

let test_packed_equals_serial () =
  List.iter
    (fun name ->
      ignore (packed_matches_serial name (mapped_of name) ~rounds:4 ~seed:99L))
    [ "add-16"; "t481"; "C1355" ];
  (* one round per seed, so each seed's 64 patterns decide alone *)
  let verdicts =
    List.map
      (fun seed ->
        packed_matches_serial "stem-edges" stem_edges ~rounds:1 ~seed)
      [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]
  in
  let varies i =
    List.exists (fun v -> v.(i)) verdicts
    && List.exists (fun v -> not v.(i)) verdicts
  in
  Alcotest.(check bool) "stem-edges: some verdicts depend on the seed" true
    (List.exists varies (List.init (Array.length (List.hd verdicts)) Fun.id))

let test_gate_analysis_deterministic () =
  let m = mapped_of "add-16" in
  let r1, s1 = Gate_fault.analyze ~rounds:4 ~seed:7L m in
  let r2, s2 = Gate_fault.analyze ~rounds:4 ~seed:7L m in
  Alcotest.(check bool) "results identical" true (r1 = r2);
  Alcotest.(check bool) "summaries identical" true (s1 = s2);
  Alcotest.(check string) "tsv identical"
    (Gate_fault.results_tsv m r1)
    (Gate_fault.results_tsv m r2)

(* ATPG bookkeeping: statuses partition the fault list, and every ATPG
   counterexample really distinguishes the faulty netlist. *)
let test_atpg_bookkeeping () =
  let m = mapped_of "t481" in
  (* one round only, so plenty of faults reach the ATPG stage *)
  let results, s = Gate_fault.analyze ~rounds:1 ~seed:3L m in
  Alcotest.(check int) "statuses partition" s.Gate_fault.g_total
    (s.Gate_fault.g_sim + s.Gate_fault.g_atpg + s.Gate_fault.g_redundant
    + s.Gate_fault.g_unknown);
  Alcotest.(check int) "one result per fault" s.Gate_fault.g_total
    (Array.length (Gate_fault.faults_of m));
  Alcotest.(check bool) "atpg exercised" true (s.Gate_fault.g_atpg > 0);
  let checked = ref 0 in
  Array.iter
    (fun (r : Gate_fault.result) ->
      match r.Gate_fault.status with
      | Gate_fault.Detected_atpg cex ->
          let words =
            Array.map (fun b -> if b then 1L else 0L) cex
          in
          let faulty = Gate_fault.inject m r.Gate_fault.fault in
          let bit w = Int64.logand w 1L in
          if
            Array.map bit (Mapped.simulate m words)
            = Array.map bit (Mapped.simulate faulty words)
          then
            Alcotest.failf "cex does not detect %s"
              (Gate_fault.describe m r.Gate_fault.fault);
          incr checked
      | _ -> ())
    results;
  Alcotest.(check bool) "checked some counterexamples" true (!checked > 0);
  let cov = Gate_fault.coverage s in
  Alcotest.(check bool) "coverage in [0,1]" true (cov >= 0.0 && cov <= 1.0);
  Alcotest.(check bool) "testable coverage >= coverage" true
    (Gate_fault.testable_coverage s >= cov -. 1e-9)

(* Every ATPG verdict must agree with a fresh CEC miter per fault over
   the whole netlist: each survivor the cone-local queries decide is
   decided again by [Cec.check] between the netlist and its injected
   copy.  A fault proved redundant must be Equivalent, a detected one
   Inequivalent (counterexample bits may differ — the solvers search
   differently).  Unknown is only possible under a conflict budget,
   which this test doesn't set.  One random round detects every add-16
   fault, so there ATPG decides them all; dalu leaves redundant faults,
   so the UNSAT path is re-decided too. *)
let atpg_agrees_with_cec name m results =
  let good = Mapped.to_aig m in
  let redundant = ref 0 in
  Array.iter
    (fun (r : Gate_fault.result) ->
      let rebuild () =
        Cec.check good (Mapped.to_aig (Gate_fault.inject m r.Gate_fault.fault))
      in
      let fail sweep cec =
        Alcotest.failf "%s: %s is %s by ATPG but %s by CEC" name
          (Gate_fault.describe m r.Gate_fault.fault)
          sweep cec
      in
      match r.Gate_fault.status with
      | Gate_fault.Detected_sim -> ()
      | Gate_fault.Redundant -> (
          incr redundant;
          match rebuild () with
          | Cec.Equivalent -> ()
          | Cec.Inequivalent _ -> fail "redundant" "inequivalent"
          | Cec.Undecided -> fail "redundant" "undecided")
      | Gate_fault.Detected_atpg _ -> (
          match rebuild () with
          | Cec.Inequivalent _ -> ()
          | Cec.Equivalent -> fail "detected" "equivalent"
          | Cec.Undecided -> fail "detected" "undecided")
      | Gate_fault.Unknown -> fail "unknown" "not asked")
    results;
  !redundant

let test_atpg_engines_agree () =
  List.iter
    (fun (name, rounds, expect_redundant) ->
      let m = mapped_of name in
      let results, s = Gate_fault.analyze ~rounds ~seed:3L m in
      Alcotest.(check bool)
        (name ^ ": atpg stage exercised")
        true
        (s.Gate_fault.g_atpg > 0);
      Alcotest.(check int) (name ^ ": no unknowns") 0 s.Gate_fault.g_unknown;
      let rechecked = atpg_agrees_with_cec name m results in
      if expect_redundant then
        Alcotest.(check bool)
          (name ^ ": some redundant verdict re-checked")
          true (rechecked > 0))
    [
      ("add-16", 0, false);
      ("t481", 1, false);
      ("C1908", 1, false);
      ("dalu", 4, true);
    ]

(* A hand-built netlist for the two edges of the cone-local miter: an
   instance that reaches no output, whose faults are redundant without a
   solve, and a PI wired straight to an output (also read by that
   instance), whose faults only that output shows. *)
let test_atpg_cone_edges () =
  let m =
    {
      Mapped.lib_name = "hand";
      tau_ps = 1.0;
      num_inputs = 3;
      input_names = [| "a"; "b"; "c" |];
      instances =
        [|
          inst 0x8888888888888888L [| pi 0; pi 1 |] (* y = a & b *);
          inst 0xEEEEEEEEEEEEEEEEL [| pi 1; pi 2 |] (* b | c, unread *);
        |];
      outputs =
        [|
          ("y", out 0);
          ("w", pi ~negated:true 2);
        |];
    }
  in
  let stats = Solver.stats_create () in
  let results, s = Gate_fault.analyze ~rounds:0 ~stats m in
  Array.iter
    (fun (r : Gate_fault.result) ->
      let f = r.Gate_fault.fault in
      let unread =
        match f.Gate_fault.site with
        | Gate_fault.Out_sa 1 | Gate_fault.Pin_sa (1, _) -> true
        | _ -> false
      in
      let ok =
        match r.Gate_fault.status with
        | Gate_fault.Redundant -> unread
        | Gate_fault.Detected_atpg _ -> not unread
        | _ -> false
      in
      if not ok then
        Alcotest.failf "%s is %s" (Gate_fault.describe m f)
          (Gate_fault.status_name r.Gate_fault.status))
    results;
  Alcotest.(check int) "unread instance: 6 redundant" 6
    s.Gate_fault.g_redundant;
  Alcotest.(check int) "one solve per detected fault" s.Gate_fault.g_atpg
    stats.Solver.sat_solves;
  ignore (atpg_agrees_with_cec "hand" m results)

(* Every verdict [Gate_fault.analyze] gives the seven circuits of the
   repository benchmark's verify workload at its defaults (32 rounds,
   seed 2026, 100k conflicts per fault): the MD5 of each circuit's
   [results_tsv] and summary line, as the per-fault cone resimulation
   that the stem-region simulator replaced computed them. *)
let test_fault_verdict_digest () =
  List.iter
    (fun (name, digest) ->
      let m = mapped_of name in
      let results, s = Gate_fault.analyze m in
      Alcotest.(check string)
        (name ^ " verdicts")
        digest
        (Digest.to_hex
           (Digest.string
              (Gate_fault.results_tsv m results
              ^ "\n" ^ Gate_fault.summary_line s))))
    [
      ("C1355", "6e291f8b13010b932f1accea8fa53db3");
      ("C1908", "09fa82511efcdc5405b5ce32c924e233");
      ("t481", "17fe9609f8b8626d55258957e839385f");
      ("C3540", "f77ddddfe1c31535360457c6f1011eb3");
      ("dalu", "08e46c1cad286bb8a785af4b893cd331");
      ("add-64", "68ff9293491a280f2c8a25bcd80a8895");
      ("i18", "6b05c0ea8f7e237a8bbedad9be88825a");
    ]

(* ---- static testability ---- *)

let mapped_for family name =
  let e = Bench_suite.find name in
  let ctx = Flow.init ~family ~name (e.Bench_suite.build ()) in
  let ctx, _ = Flow.run (Flow.parse_script_exn "synth(light); map") ctx in
  Option.get ctx.Flow.mapped

(* Per-fault detection vector: one word per pattern batch, bit b set iff
   pattern b distinguishes the faulty netlist on some output. *)
let det_signature base pats faulty =
  Array.map2
    (fun words good ->
      let out = Mapped.simulate faulty words in
      let d = ref 0L in
      Array.iteri
        (fun i w -> d := Int64.logor !d (Int64.logxor w good.(i)))
        out;
      !d)
    pats base

let random_pats m ~rounds ~seed =
  let rng = Rand64.create seed in
  Array.init rounds (fun _ ->
      Array.init m.Mapped.num_inputs (fun _ -> Rand64.next rng))

(* Soundness of every static redundancy claim on the full benchmark x
   family matrix: the netlist with the claimed-redundant fault injected
   must be proved equivalent to the good one (CEC Equivalent).  A false
   claim shows as Inequivalent; a claim the check cannot settle within
   its conflict budget (Undecided) proves nothing and fails too. *)
let test_redundancy_sound () =
  let checked = ref 0 in
  List.iter
    (fun (e : Bench_suite.entry) ->
      List.iter
        (fun fam ->
          let m = mapped_for fam e.Bench_suite.name in
          let t = Testability.analyze m in
          let good = lazy (Mapped.to_aig m) in
          Array.iteri
            (fun i -> function
              | None -> ()
              | Some reason -> (
                  let f = t.Testability.faults.(i) in
                  let bad = Mapped.to_aig (Gate_fault.inject m f) in
                  let claim verdict =
                    Alcotest.failf "%s/%s: %s claimed %s but %s"
                      e.Bench_suite.name
                      (Cell_netlist.family_name fam)
                      (Gate_fault.describe m f)
                      (Testability.reason_name reason)
                      verdict
                  in
                  (* every claimed fault's copy strashes onto the good
                     netlist's outputs, so the check needs no SAT query;
                     the budget only bounds a claim where it would *)
                  match
                    Cec.check ~sim_rounds:2 ~conflict_budget:2_000 ~seed:5L
                      (Lazy.force good) bad
                  with
                  | Cec.Equivalent -> incr checked
                  | Cec.Inequivalent _ -> claim "is testable"
                  | Cec.Undecided -> claim "is left undecided"))
            t.Testability.redundant)
        Cell_netlist.all_families)
    Bench_suite.all;
  Alcotest.(check bool) "some redundancy claims checked" true (!checked > 0)

(* Collapsing agrees with the simulator: faults of one equivalence class
   have identical per-pattern detection vectors under random patterns. *)
let test_classes_agree_with_sim () =
  List.iter
    (fun name ->
      let m = mapped_of name in
      let t = Testability.analyze m in
      let pats = random_pats m ~rounds:4 ~seed:42L in
      let base = Array.map (Mapped.simulate m) pats in
      let by_class = Hashtbl.create 997 in
      Array.iteri
        (fun i f ->
          let s = det_signature base pats (Gate_fault.inject m f) in
          let c = t.Testability.cls.(i) in
          match Hashtbl.find_opt by_class c with
          | None -> Hashtbl.add by_class c (f, s)
          | Some (f0, s0) ->
              if s0 <> s then
                Alcotest.failf
                  "%s: class %d: %s and %s detected by different patterns"
                  name c
                  (Gate_fault.describe m f0)
                  (Gate_fault.describe m f))
        t.Testability.faults;
      Alcotest.(check int)
        (name ^ ": one signature set per class")
        (Array.length t.Testability.rep)
        (Hashtbl.length by_class))
    [ "add-16"; "t481"; "C1355" ]

(* Dominance agrees with the simulator, per pattern: a dominated class
   records the witness fault whose test set is contained in its own, so
   every random pattern detecting the witness must detect the class. *)
let test_dominance_sound () =
  List.iter
    (fun name ->
      let m = mapped_of name in
      let t = Testability.analyze m in
      let pats = random_pats m ~rounds:8 ~seed:7L in
      let base = Array.map (Mapped.simulate m) pats in
      let checked = ref 0 in
      Array.iteri
        (fun c g ->
          if g >= 0 then begin
            let f = t.Testability.rep.(c) in
            let sf =
              det_signature base pats
                (Gate_fault.inject m t.Testability.faults.(f))
            and sg =
              det_signature base pats
                (Gate_fault.inject m t.Testability.faults.(g))
            in
            Array.iteri
              (fun r wg ->
                if Int64.logand wg (Int64.lognot sf.(r)) <> 0L then
                  Alcotest.failf
                    "%s: witness %s detected where dominated %s is not" name
                    (Gate_fault.describe m t.Testability.faults.(g))
                    (Gate_fault.describe m t.Testability.faults.(f)))
              sg;
            incr checked
          end)
        t.Testability.dom_by;
      Alcotest.(check bool)
        (name ^ ": dominated classes checked")
        true (!checked > 0))
    [ "add-16"; "t481"; "C1355" ]

(* SCOAP scores predict random-pattern detection hardness: Spearman rank
   correlation between the static score (higher = harder) and the
   empirical detection probability (fraction of patterns detecting the
   fault; lower = harder) must be clearly negative. *)
let spearman xs ys =
  let n = Array.length xs in
  let rank v =
    let idx = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare v.(a) v.(b)) idx;
    let r = Array.make n 0.0 in
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j < n - 1 && v.(idx.(!j + 1)) = v.(idx.(!i)) do incr j done;
      let avg = float_of_int (!i + !j) /. 2.0 in
      for k = !i to !j do
        r.(idx.(k)) <- avg
      done;
      i := !j + 1
    done;
    r
  in
  let rx = rank xs and ry = rank ys in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let mx = mean rx and my = mean ry in
  let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
  for i = 0 to n - 1 do
    let a = rx.(i) -. mx and b = ry.(i) -. my in
    num := !num +. (a *. b);
    dx := !dx +. (a *. a);
    dy := !dy +. (b *. b)
  done;
  !num /. sqrt (!dx *. !dy)

let test_scoap_predicts_hardness () =
  List.iter
    (fun name ->
      let m = mapped_of name in
      let t = Testability.analyze m in
      let pats = random_pats m ~rounds:8 ~seed:11L in
      let base = Array.map (Mapped.simulate m) pats in
      let scores = ref [] and probs = ref [] in
      Array.iteri
        (fun i f ->
          let s = t.Testability.score.(i) in
          if t.Testability.redundant.(i) = None && s < infinity then begin
            let sg = det_signature base pats (Gate_fault.inject m f) in
            let hits =
              Array.fold_left
                (fun acc w ->
                  let c = ref 0 in
                  for b = 0 to 63 do
                    if Int64.logand (Int64.shift_right_logical w b) 1L = 1L
                    then incr c
                  done;
                  acc + !c)
                0 sg
            in
            scores := s :: !scores;
            probs :=
              (float_of_int hits /. float_of_int (64 * Array.length sg))
              :: !probs
          end)
        t.Testability.faults;
      let xs = Array.of_list !scores and ys = Array.of_list !probs in
      let rho = spearman xs ys in
      if rho >= -0.3 then
        Alcotest.failf "%s: SCOAP score vs detection probability rho=%.3f"
          name rho)
    [ "add-16"; "t481"; "C1355" ]

let () =
  Alcotest.run "fault"
    [
      ( "cell",
        [
          Alcotest.test_case "zero-fault = golden sim" `Quick
            test_zero_fault_golden;
          Alcotest.test_case "dictionary deterministic" `Quick
            test_dictionary_deterministic;
          Alcotest.test_case "family physics" `Quick test_dictionary_physics;
          Alcotest.test_case "morph targets honest" `Quick
            test_morph_targets_honest;
        ] );
      ( "gate",
        [
          Alcotest.test_case "packed = serial reference" `Quick
            test_packed_equals_serial;
          Alcotest.test_case "analysis deterministic" `Quick
            test_gate_analysis_deterministic;
          Alcotest.test_case "atpg bookkeeping" `Quick test_atpg_bookkeeping;
          Alcotest.test_case "atpg engines agree" `Quick
            test_atpg_engines_agree;
          Alcotest.test_case "atpg cone edges" `Quick test_atpg_cone_edges;
          Alcotest.test_case "fault verdict digest" `Quick
            test_fault_verdict_digest;
        ] );
      ( "testability",
        [
          Alcotest.test_case "redundancy claims sound (full matrix)" `Slow
            test_redundancy_sound;
          Alcotest.test_case "classes agree with simulation" `Quick
            test_classes_agree_with_sim;
          Alcotest.test_case "dominance witnesses sound" `Quick
            test_dominance_sound;
          Alcotest.test_case "scoap predicts hardness" `Quick
            test_scoap_predicts_hardness;
        ] );
    ]
