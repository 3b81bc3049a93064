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
  let vars = Array.make (Aig.num_nodes g) (-1) in
  (* force y true: must imply a=1, b=0 *)
  Solver.add_clause s [ Cnf.encode_lit s g vars y ];
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

let reset_sat = ref 0
let reset_unsat = ref 0

(* [Solver.reset] leaves nothing of the previous instance behind: after
   a larger random instance is solved (growing the storage, learning
   clauses, bumping activities, saving phases), the reset solver
   searches a second instance exactly as a fresh solver does: the same
   answer, model, core and counters. *)
let prop_reset =
  QCheck.Test.make ~name:"reset = fresh" ~count:100
    (QCheck.make QCheck.Gen.(int_range 4 20))
    (fun nvars ->
      let big = 30 + Rand64.int rng 40 in
      let first = random_clauses ~min_width:3 ~max_width:3 big (4 * big) in
      let clauses =
        random_clauses ~min_width:3 ~max_width:3 nvars (4 * nvars)
      in
      let assumptions =
        List.init (Rand64.int rng 3) (fun _ ->
            let v = Rand64.int rng nvars in
            if Rand64.bool rng then Solver.pos v else Solver.neg v)
      in
      let load s n cls =
        for _ = 1 to n do
          ignore (Solver.new_var s)
        done;
        List.iter (Solver.add_clause s) cls
      in
      let run s =
        load s nvars clauses;
        let r = Solver.solve ~assumptions s in
        let model =
          match r with
          | Solver.Sat -> Some (Array.init nvars (Solver.model_value s))
          | _ -> None
        in
        (r, model, Solver.unsat_core s, Solver.stats_of s)
      in
      let s = Solver.create () in
      load s big first;
      ignore (Solver.solve s);
      Solver.reset s;
      let ((r, _, _, _) as reused) = run s in
      incr (if r = Solver.Sat then reset_sat else reset_unsat);
      reused = run (Solver.create ()))

(* The same after a learned-clause GC: a pigeonhole run past 2,000
   learned clauses (so [reduce_db] has run, raised its limit and left a
   long learned list), then a reset, must not change a second
   pigeonhole search that learns past 2,000 clauses too. *)
let test_reset_after_gc () =
  let s = Solver.create () in
  pigeonhole s 9 8;
  ignore (Solver.solve ~conflict_budget:6_000 s);
  Alcotest.(check bool) "first run learned past the GC limit" true
    (Solver.num_learned s > 2_000);
  Solver.reset s;
  let run s =
    pigeonhole s 8 7;
    let r = Solver.solve s in
    (r, Solver.stats_of s)
  in
  let ((r, st) as reused) = run s in
  Alcotest.(check bool) "php(8,7) unsat" true (r = Solver.Unsat);
  Alcotest.(check bool) "second run learned past the GC limit" true
    (st.Solver.sat_learned > 2_000);
  Alcotest.(check bool) "reset = fresh" true (reused = run (Solver.create ()))

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

(* ---- SAT sweeping ---- *)

(* A random graph over 7..10 inputs: AND/OR/XOR/MUX nodes over earlier
   literals, the last three of them as outputs, the first of those XORed
   with a minterm: a chain of ANDs over every input.  Also returns the
   chain's nodes. *)
let random_graph rng =
  let g = Aig.create () in
  let nin = 7 + Rand64.int rng 4 in
  let ins = List.init nin (fun _ -> Aig.add_input g) in
  let pool = ref ins in
  let pick () =
    let l = List.nth !pool (Rand64.int rng (List.length !pool)) in
    if Rand64.bool rng then Aig.lnot l else l
  in
  for _ = 1 to 5 + Rand64.int rng 40 do
    let x =
      match Rand64.int rng 4 with
      | 0 -> Aig.mk_and g (pick ()) (pick ())
      | 1 -> Aig.mk_or g (pick ()) (pick ())
      | 2 -> Aig.mk_xor g (pick ()) (pick ())
      | _ -> Aig.mk_mux g (pick ()) (pick ()) (pick ())
    in
    pool := x :: !pool
  done;
  let literal x = if Rand64.bool rng then Aig.lnot x else x in
  let chain = ref [] in
  let minterm =
    List.fold_left
      (fun acc x ->
        let y = Aig.mk_and g acc (literal x) in
        chain := Aig.node_of y :: !chain;
        y)
      (literal (List.hd ins)) (List.tl ins)
  in
  List.iteri
    (fun i l ->
      if i < 3 then
        Aig.add_output g (Printf.sprintf "o%d" i)
          (if i = 0 then Aig.mk_xor g l minterm else l))
    !pool;
  (g, !chain)

(* A copy of [g] with the first fanin of AND node [k] complemented.  On a
   chain node that fanin is an input, so the copy's minterm moves to a
   neighbouring assignment: a difference a random round rarely sees. *)
let flip_fanin g k =
  let h = Aig.create () in
  let m = Array.make (Aig.num_nodes g) Aig.lit_false in
  for i = 1 to Aig.num_inputs g do
    m.(i) <- Aig.add_input h
  done;
  let tr l =
    let x = m.(Aig.node_of l) in
    if Aig.is_compl l then Aig.lnot x else x
  in
  Aig.iter_ands g (fun n ->
      let f0 = tr (Aig.fanin0 g n) in
      let f0 = if n = k then Aig.lnot f0 else f0 in
      m.(n) <- Aig.mk_and h f0 (tr (Aig.fanin1 g n)));
  Array.iter (fun (name, l) -> Aig.add_output h name (tr l)) (Aig.outputs g);
  h

(* A random graph and a second one built from it: rewritten, balanced, or
   with one fanin complemented, on the minterm chain or anywhere. *)
let random_pair seed =
  let rng = Rand64.create (Int64.of_int seed) in
  let a, chain = random_graph rng in
  let pick_node nodes = List.nth nodes (Rand64.int rng (List.length nodes)) in
  let b =
    match Rand64.int rng 6 with
    | 0 -> Synth.rewrite ~zero_gain:true a
    | 1 -> Synth.balance a
    | 2 | 3 | 4 -> flip_fanin a (pick_node chain)
    | _ ->
        let first = Aig.num_inputs a + 1 in
        let ands = List.init (Aig.num_nodes a - first) (( + ) first) in
        flip_fanin a (pick_node ands)
  in
  (a, b)

let same_function a b =
  Array.for_all2
    (fun (_, la) (_, lb) -> Tt.equal (Aig.tt_of_lit a la) (Aig.tt_of_lit b lb))
    (Aig.outputs a) (Aig.outputs b)

(* The verdict agrees with the truth tables, and a counterexample tells
   the outputs apart. *)
let verdict_sound a b = function
  | Cec.Equivalent -> same_function a b
  | Cec.Inequivalent cex ->
      (not (same_function a b)) && Aig.eval a cex <> Aig.eval b cex
  | Cec.Undecided -> false

let sweep_proved = ref 0
let sweep_refuted = ref 0

(* One simulation round leaves candidate pairs that only SAT settles.
   Equivalent after a solve: the sweep proved and merged them.
   Inequivalent after a solve: the difference escaped the round, so the
   sweep's models split the outputs' class (the refinement path) and the
   final miter, the only SAT step that answers Inequivalent, found the
   counterexample. *)
let prop_sweep =
  QCheck.Test.make ~name:"sweep = truth tables" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let a, b = random_pair seed in
      let stats = Solver.stats_create () in
      let v = Cec.check ~sim_rounds:1 ~stats a b in
      if stats.Solver.sat_solves > 0 then
        incr (if v = Cec.Equivalent then sweep_proved else sweep_refuted);
      verdict_sound a b v)

let budget_undecided = ref 0
let budget_decided = ref 0

(* [conflict_budget] caps the whole check, queries and final miter
   together: the (equivalent) adder pairs need up to 137 conflicts, more
   than the smaller budgets allow. *)
let prop_budget =
  QCheck.Test.make ~name:"conflict budget caps the check" ~count:100
    QCheck.(pair (int_range 2 12) (int_range 1 200))
    (fun (bits, n) ->
      let a = build_adder_variant `Xor bits in
      let b = build_adder_variant `Mux bits in
      let stats = Solver.stats_create () in
      stats.Solver.sat_conflicts <- 7;
      let v = Cec.check ~conflict_budget:n ~stats a b in
      (match v with
      | Cec.Undecided -> incr budget_undecided
      | _ -> incr budget_decided);
      stats.Solver.sat_conflicts - 7 <= n
      && match v with Cec.Inequivalent _ -> false | _ -> true)

(* The golden graph of suite circuit [name] after [synth(light); map] on
   [family], and its mapping. *)
let light_mapped name family =
  let e = Bench_suite.find name in
  let ctx = Flow.init ~family ~name (e.Bench_suite.build ()) in
  let ctx, _ = Flow.run (Flow.parse_script_exn "synth(light); map") ctx in
  (Option.get ctx.Flow.golden, Option.get ctx.Flow.mapped)

(* The 16x16 multiplier, whose monolithic miter ran for minutes, is
   decided on every family within 20,000 conflicts. *)
let test_cec_c6288 () =
  List.iter
    (fun family ->
      let golden, mapped = light_mapped "C6288" family in
      match Cec.check ~conflict_budget:20_000 golden (Mapped.to_aig mapped) with
      | Cec.Equivalent -> ()
      | Cec.Inequivalent _ ->
          Alcotest.failf "C6288/%s: inequivalent"
            (Cell_netlist.family_name family)
      | Cec.Undecided ->
          Alcotest.failf "C6288/%s: undecided"
            (Cell_netlist.family_name family))
    Cell_netlist.all_families

(* i10's check holds more solver variables than [Cec]'s recycling
   threshold and hands its solver over to an empty one mid-sweep (two or
   three times on the static family, five on cmos; once and twice before
   2,500 conflicts).  The verdicts stay right across the hand-overs, the
   last output XORed with a minterm over 20 inputs (which no random
   round sees) included, and every solver's conflicts reach [stats]
   once: a check that runs out of its budget after a hand-over has added
   exactly that budget. *)
let test_cec_recycled_solver () =
  List.iter
    (fun family ->
      let fam = Cell_netlist.family_name family in
      let golden, mapped = light_mapped "i10" family in
      (match Cec.check golden (Mapped.to_aig mapped) with
      | Cec.Equivalent -> ()
      | _ -> Alcotest.failf "i10/%s: not equivalent" fam);
      let b = Mapped.to_aig mapped in
      let last = Aig.num_outputs b - 1 in
      let minterm =
        Aig.mk_and_list b
          (List.init 20 (fun i ->
               let l = Aig.input_lit b i in
               if i mod 3 = 0 then Aig.lnot l else l))
      in
      Aig.set_output b last (Aig.mk_xor b (snd (Aig.output b last)) minterm);
      (match Cec.check golden b with
      | Cec.Inequivalent cex ->
          Alcotest.(check bool)
            (fam ^ ": cex distinguishes")
            true
            (Aig.eval golden cex <> Aig.eval b cex)
      | _ -> Alcotest.failf "i10/%s: minterm difference missed" fam);
      let stats = Solver.stats_create () in
      match
        Cec.check ~conflict_budget:2_500 ~stats golden (Mapped.to_aig mapped)
      with
      | Cec.Undecided ->
          Alcotest.(check int) (fam ^ ": conflicts") 2_500
            stats.Solver.sat_conflicts
      | _ -> Alcotest.failf "i10/%s: decided within 2,500 conflicts" fam)
    Cell_netlist.[ Tg_static; Cmos ]

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
          with_outcome_shares prop_reset
            [ ("sat", reset_sat); ("unsat", reset_unsat) ];
          Alcotest.test_case "reset after learned-clause GC" `Quick
            test_reset_after_gc;
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
          with_outcome_shares prop_sweep
            [
              ("proved by the sweep", sweep_proved);
              ("refined, then refuted by the final miter", sweep_refuted);
            ];
          with_outcome_shares prop_budget
            [ ("undecided", budget_undecided); ("decided", budget_decided) ];
          Alcotest.test_case "C6288 decided on every family" `Quick
            test_cec_c6288;
          Alcotest.test_case "recycled solver" `Quick
            test_cec_recycled_solver;
        ] );
    ]
