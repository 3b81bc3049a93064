(* Tests for the CDCL solver, the Tseitin encoder and the equivalence
   checker. *)

let rng = Rand64.create 23L

let test_trivial () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Solver.pos v ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "model" true (Solver.model_value s v)

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_unit_conflict () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Solver.pos v ];
  Solver.add_clause s [ Solver.neg v ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_chain_implication () =
  (* x0 & (x_i -> x_{i+1}) & !x_n  is unsat *)
  let n = 50 in
  let s = Solver.create () in
  let vs = Array.init (n + 1) (fun _ -> Solver.new_var s) in
  Solver.add_clause s [ Solver.pos vs.(0) ];
  for i = 0 to n - 1 do
    Solver.add_clause s [ Solver.neg vs.(i); Solver.pos vs.(i + 1) ]
  done;
  Solver.add_clause s [ Solver.neg vs.(n) ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

(* Pigeonhole principle: n+1 pigeons, n holes — classically hard UNSAT. *)
let pigeonhole s pigeons holes =
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Solver.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Solver.neg v.(p1).(h); Solver.neg v.(p2).(h) ]
      done
    done
  done

let test_pigeonhole_unsat () =
  let s = Solver.create () in
  pigeonhole s 6 5;
  Alcotest.(check bool) "php(6,5) unsat" true (Solver.solve s = Solver.Unsat)

let test_pigeonhole_sat () =
  let s = Solver.create () in
  pigeonhole s 5 5;
  Alcotest.(check bool) "php(5,5) sat" true (Solver.solve s = Solver.Sat)

let test_budget () =
  let s = Solver.create () in
  pigeonhole s 9 8;
  Alcotest.(check bool) "tiny budget -> unknown" true
    (Solver.solve ~conflict_budget:5 s = Solver.Unknown)

(* Random 3-CNF checked against brute force. *)
let brute_force nvars clauses =
  let rec try_assign a =
    if a >= 1 lsl nvars then false
    else
      let ok =
        List.for_all
          (List.exists (fun l ->
               let v = l lsr 1 and s = l land 1 = 0 in
               (a land (1 lsl v) <> 0) = s))
          clauses
      in
      ok || try_assign (a + 1)
  in
  try_assign 0

let prop_random_3cnf =
  QCheck.Test.make ~name:"random 3-cnf vs brute force" ~count:100
    (QCheck.make QCheck.Gen.(int_range 3 8))
    (fun nvars ->
      let nclauses = 3 * nvars in
      let clauses =
        List.init nclauses (fun _ ->
            List.init 3 (fun _ ->
                let v = Rand64.int rng nvars in
                if Rand64.bool rng then 2 * v else (2 * v) + 1))
      in
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (Solver.add_clause s) clauses;
      let expect = brute_force nvars clauses in
      match Solver.solve s with
      | Solver.Sat ->
          expect
          && List.for_all
               (List.exists (fun l ->
                    Solver.model_value s (l lsr 1) = (l land 1 = 0)))
               clauses
      | Solver.Unsat -> not expect
      | Solver.Unknown -> false)

let test_incremental () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Solver.pos a; Solver.pos b ];
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ Solver.neg a ];
  Alcotest.(check bool) "sat 2" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.model_value s b);
  Solver.add_clause s [ Solver.neg b ];
  Alcotest.(check bool) "unsat 3" true (Solver.solve s = Solver.Unsat)

(* ---- Tseitin + CEC ---- *)

let full_adder g a b c =
  let s = Aig.mk_xor g (Aig.mk_xor g a b) c in
  let cy = Aig.mk_maj3 g a b c in
  (s, cy)

let build_adder_variant variant n =
  let g = Aig.create () in
  let xs = Array.init n (fun _ -> Aig.add_input g) in
  let ys = Array.init n (fun _ -> Aig.add_input g) in
  let carry = ref Aig.lit_false in
  for i = 0 to n - 1 do
    let s, c =
      match variant with
      | `Xor -> full_adder g xs.(i) ys.(i) !carry
      | `Mux ->
          (* same function built from muxes *)
          let axb = Aig.mk_mux g xs.(i) (Aig.lnot ys.(i)) ys.(i) in
          let s = Aig.mk_mux g axb (Aig.lnot !carry) !carry in
          let c = Aig.mk_mux g axb !carry xs.(i) in
          (s, c)
    in
    Aig.add_output g (Printf.sprintf "s%d" i) s;
    carry := c
  done;
  Aig.add_output g "cout" !carry;
  g

let test_cnf_encode () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  let y = Aig.mk_and g a (Aig.lnot b) in
  Aig.add_output g "y" y;
  let s = Solver.create () in
  let vars = Cnf.encode s g in
  (* force y true: must imply a=1, b=0 *)
  Solver.add_clause s [ Cnf.lit_of vars y ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a true" true (Solver.model_value s vars.(Aig.node_of a));
  Alcotest.(check bool) "b false" false (Solver.model_value s vars.(Aig.node_of b))

let test_cec_equivalent () =
  let a = build_adder_variant `Xor 8 in
  let b = build_adder_variant `Mux 8 in
  Alcotest.(check bool) "adders equivalent" true (Cec.equivalent a b)

let test_cec_inequivalent () =
  let a = build_adder_variant `Xor 6 in
  let b = build_adder_variant `Xor 6 in
  (* corrupt one output of b *)
  let name, l = Aig.output b 3 in
  ignore name;
  Aig.set_output b 3 (Aig.lnot l);
  (match Cec.check a b with
  | Cec.Inequivalent cex ->
      let oa = Aig.eval a cex and ob = Aig.eval b cex in
      Alcotest.(check bool) "cex distinguishes" true (oa <> ob)
  | _ -> Alcotest.fail "expected inequivalence")

(* ---- Differential tests: CDCL vs brute force ---- *)

(* Random clause list: [nvars] variables, clause widths drawn uniformly
   from [min_width..max_width]. *)
let random_clauses ~min_width ~max_width nvars nclauses =
  List.init nclauses (fun _ ->
      let width = min_width + Rand64.int rng (max_width - min_width + 1) in
      List.init width (fun _ ->
          let v = Rand64.int rng nvars in
          if Rand64.bool rng then Solver.pos v else Solver.neg v))

let solve nvars clauses assumptions =
  let s = Solver.create () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  let r = Solver.solve ~assumptions s in
  let model =
    match r with
    | Solver.Sat -> Some (Array.init nvars (Solver.model_value s))
    | _ -> None
  in
  let core = match r with Solver.Unsat -> Solver.unsat_core s | _ -> [] in
  (r, model, core)

let model_satisfies model clauses =
  List.for_all
    (List.exists (fun l ->
         model.(Solver.lit_var l) = Solver.lit_sign l))
    clauses

let units lits = List.map (fun l -> [ l ]) lits

(* A property whose cases each land in one of the named outcomes; after
   the property passes, each outcome must make up at least 20% of the
   cases, so a generator that drifts into one outcome (say, instances
   that are all unsat from their unit clauses) fails instead of checking
   nothing. *)
let with_outcome_shares prop outcomes =
  let count = QCheck2.Test.test_get_count prop in
  let name, speed, run = QCheck_alcotest.to_alcotest prop in
  ( name,
    speed,
    fun () ->
      List.iter (fun (_, n) -> n := 0) outcomes;
      run ();
      List.iter
        (fun (label, n) ->
          if 5 * !n < count then
            Alcotest.failf "%s: %d of %d cases, under 20%%" label !n count)
        outcomes )

let differential_sat = ref 0
let differential_unsat = ref 0

let prop_differential =
  QCheck.Test.make ~name:"cdcl vs reference on random cnf" ~count:200
    (QCheck.make QCheck.Gen.(int_range 4 20))
    (fun nvars ->
      let clauses =
        random_clauses ~min_width:2 ~max_width:3 nvars (5 * nvars / 2)
      in
      let expect = brute_force nvars clauses in
      match solve nvars clauses [] with
      | Solver.Sat, Some m, _ ->
          incr differential_sat;
          expect && model_satisfies m clauses
      | Solver.Unsat, _, _ ->
          incr differential_unsat;
          not expect
      | _ -> false)

let assumptions_sat = ref 0
let assumptions_core = ref 0

let prop_assumptions =
  (* Incremental solving under assumptions must agree with brute force
     over the clauses plus the assumptions as unit clauses — the
     monolithic definition of the assumption interface.  On Unsat, the
     core must be a subset of the assumptions whose units alone already
     make the clauses unsat. *)
  QCheck.Test.make ~name:"assumptions: incremental = monolithic" ~count:200
    (QCheck.make QCheck.Gen.(int_range 4 16))
    (fun nvars ->
      let clauses =
        random_clauses ~min_width:3 ~max_width:3 nvars (3 * nvars)
      in
      let assumptions =
        List.init
          (1 + Rand64.int rng (nvars / 2))
          (fun _ ->
            let v = Rand64.int rng nvars in
            if Rand64.bool rng then Solver.pos v else Solver.neg v)
      in
      let expect = brute_force nvars (clauses @ units assumptions) in
      match solve nvars clauses assumptions with
      | Solver.Sat, Some m, _ ->
          incr assumptions_sat;
          expect
          && model_satisfies m clauses
          && List.for_all
               (fun l -> m.(Solver.lit_var l) = Solver.lit_sign l)
               assumptions
      | Solver.Unsat, _, core ->
          if core <> [] then incr assumptions_core;
          (not expect)
          && List.for_all (fun l -> List.mem l assumptions) core
          && not (brute_force nvars (clauses @ units core))
      | _ -> false)

let test_assumptions_reusable () =
  (* One solver, many assumption queries: later queries must not be
     polluted by earlier failed ones. *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Solver.pos a; Solver.pos b ];
  Alcotest.(check bool) "a=0 b=0 unsat" true
    (Solver.solve ~assumptions:[ Solver.neg a; Solver.neg b ] s = Solver.Unsat);
  Alcotest.(check bool) "a=0 sat" true
    (Solver.solve ~assumptions:[ Solver.neg a ] s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.model_value s b);
  Alcotest.(check bool) "no assumptions sat" true (Solver.solve s = Solver.Sat)

let test_assumption_contradicts_unit () =
  (* An assumption against a unit clause must fail with that assumption in
     the core, not corrupt the solver for later solves. *)
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_clause s [ Solver.pos a ];
  Alcotest.(check bool) "assume !a unsat" true
    (Solver.solve ~assumptions:[ Solver.neg a ] s = Solver.Unsat);
  Alcotest.(check bool) "core = [!a]" true
    (Solver.unsat_core s = [ Solver.neg a ]);
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat)

(* ---- DIMACS ---- *)

let test_dimacs_roundtrip () =
  for _ = 1 to 20 do
    let nvars = 2 + Rand64.int rng 10 in
    let fm =
      {
        Cnf.fm_vars = nvars;
        Cnf.fm_clauses =
          random_clauses ~min_width:1 ~max_width:3 nvars (2 * nvars);
      }
    in
    match Cnf.of_dimacs (Cnf.to_dimacs fm) with
    | Ok fm' ->
        Alcotest.(check bool) "roundtrip" true (fm = fm')
    | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e)
  done

let test_dimacs_errors () =
  let bad text =
    match Cnf.of_dimacs text with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "missing header" true (bad "1 -2 0\n");
  Alcotest.(check bool) "out of range" true (bad "p cnf 2 1\n1 -3 0\n");
  Alcotest.(check bool) "unterminated" true (bad "p cnf 2 1\n1 -2\n");
  Alcotest.(check bool) "count mismatch" true (bad "p cnf 2 2\n1 -2 0\n");
  Alcotest.(check bool) "bad literal" true (bad "p cnf 2 1\n1 x 0\n")

let test_dimacs_comments_and_trailer () =
  let text = "c a comment\np cnf 3 2\n1 -2 0\nc mid comment\n2 3 0\n%\n0\n" in
  match Cnf.of_dimacs text with
  | Ok fm ->
      Alcotest.(check int) "vars" 3 fm.Cnf.fm_vars;
      Alcotest.(check int) "clauses" 2 (List.length fm.Cnf.fm_clauses)
  | Error e -> Alcotest.fail e

let test_cec_budget_exception () =
  let a = build_adder_variant `Xor 10 in
  let b = build_adder_variant `Mux 10 in
  (* sim_rounds can't help on equivalent graphs, and one conflict is never
     enough for a 10-bit adder miter, so the budget must trip *)
  (match Cec.check ~conflict_budget:1 a b with
  | Cec.Undecided -> ()
  | _ -> Alcotest.fail "expected Undecided");
  match Cec.equivalent ~conflict_budget:1 a b with
  | exception Cec.Undecided_budget -> ()
  | _ -> Alcotest.fail "expected Undecided_budget"

let test_cec_sim_filter () =
  (* constant-0 vs constant-1 single output: found by simulation *)
  let a = Aig.create () in
  let _ = Aig.add_input a in
  Aig.add_output a "o" Aig.lit_false;
  let b = Aig.create () in
  let _ = Aig.add_input b in
  Aig.add_output b "o" Aig.lit_true;
  match Cec.check a b with
  | Cec.Inequivalent _ -> ()
  | _ -> Alcotest.fail "expected inequivalence"

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "unit conflict" `Quick test_unit_conflict;
          Alcotest.test_case "implication chain" `Quick test_chain_implication;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "incremental" `Quick test_incremental;
          qt prop_random_3cnf;
        ] );
      ( "differential",
        [
          with_outcome_shares prop_differential
            [ ("sat", differential_sat); ("unsat", differential_unsat) ];
          with_outcome_shares prop_assumptions
            [
              ("sat", assumptions_sat);
              ("unsat with a non-empty core", assumptions_core);
            ];
          Alcotest.test_case "assumptions reusable" `Quick
            test_assumptions_reusable;
          Alcotest.test_case "assumption vs unit" `Quick
            test_assumption_contradicts_unit;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "comments and trailer" `Quick
            test_dimacs_comments_and_trailer;
        ] );
      ( "cec",
        [
          Alcotest.test_case "encode" `Quick test_cnf_encode;
          Alcotest.test_case "equivalent adders" `Quick test_cec_equivalent;
          Alcotest.test_case "inequivalent" `Quick test_cec_inequivalent;
          Alcotest.test_case "budget exception" `Quick
            test_cec_budget_exception;
          Alcotest.test_case "sim filter" `Quick test_cec_sim_filter;
        ] );
    ]
