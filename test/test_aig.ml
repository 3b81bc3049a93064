(* Tests for the AIG: construction, strashing, simulation, cuts, MFFC,
   checkpoint/rollback and cone extraction. *)

let rng = Rand64.create 17L

(* A full adder returning (sum, carry). *)
let full_adder g a b c =
  let s = Aig.mk_xor g (Aig.mk_xor g a b) c in
  let cy = Aig.mk_maj3 g a b c in
  (s, cy)

let build_adder n =
  let g = Aig.create () in
  let xs = Array.init n (fun i -> Aig.add_input ~name:(Printf.sprintf "a%d" i) g) in
  let ys = Array.init n (fun i -> Aig.add_input ~name:(Printf.sprintf "b%d" i) g) in
  let carry = ref Aig.lit_false in
  for i = 0 to n - 1 do
    let s, c = full_adder g xs.(i) ys.(i) !carry in
    Aig.add_output g (Printf.sprintf "s%d" i) s;
    carry := c
  done;
  Aig.add_output g "cout" !carry;
  g

let test_const_folding () =
  let g = Aig.create () in
  let a = Aig.add_input g in
  Alcotest.(check int) "a*0=0" Aig.lit_false (Aig.mk_and g a Aig.lit_false);
  Alcotest.(check int) "a*1=a" a (Aig.mk_and g a Aig.lit_true);
  Alcotest.(check int) "a*a=a" a (Aig.mk_and g a a);
  Alcotest.(check int) "a*!a=0" Aig.lit_false (Aig.mk_and g a (Aig.lnot a));
  Alcotest.(check int) "no nodes created" 0 (Aig.num_ands g)

let test_strash () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  let x = Aig.mk_and g a b in
  let y = Aig.mk_and g b a in
  Alcotest.(check int) "commutative strash" x y;
  Alcotest.(check int) "one node" 1 (Aig.num_ands g);
  let z = Aig.mk_and g (Aig.lnot a) b in
  Alcotest.(check bool) "different node" true (x <> z);
  Alcotest.(check int) "two nodes" 2 (Aig.num_ands g)

let test_adder_semantics () =
  let n = 6 in
  let g = build_adder n in
  for _ = 1 to 200 do
    let a = Rand64.int rng (1 lsl n) and b = Rand64.int rng (1 lsl n) in
    let bits =
      Array.init (2 * n) (fun i ->
          if i < n then a land (1 lsl i) <> 0 else b land (1 lsl (i - n)) <> 0)
    in
    let out = Aig.eval g bits in
    let v = ref 0 in
    for i = n downto 0 do
      v := (2 * !v) + if out.(i) then 1 else 0
    done;
    Alcotest.(check int) "adder value" (a + b) !v
  done

let test_input_order_enforced () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  ignore (Aig.mk_and g a b);
  Alcotest.check_raises "late input rejected"
    (Invalid_argument "Aig.add_input: inputs must precede AND nodes")
    (fun () -> ignore (Aig.add_input g))

let test_simulate_vs_eval () =
  let g = build_adder 4 in
  let words = Array.init (Aig.num_inputs g) (fun _ -> Rand64.next rng) in
  let out_words = Aig.simulate_outputs g words in
  for bit = 0 to 63 do
    let bits =
      Array.init (Aig.num_inputs g) (fun i ->
          Int64.(logand (shift_right_logical words.(i) bit) 1L) <> 0L)
    in
    let expect = Aig.eval g bits in
    Array.iteri
      (fun o w ->
        let got = Int64.(logand (shift_right_logical w bit) 1L) <> 0L in
        if got <> expect.(o) then Alcotest.fail "simulate disagrees with eval")
      out_words
  done;
  Alcotest.(check pass) "simulate matches eval" () ()

let test_tt_of_cut () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g and c = Aig.add_input g in
  let s, _ = full_adder g a b c in
  let leaves = [| 1; 2; 3 |] in
  let tt = Aig.tt_of_cut g s leaves in
  let expect =
    Tt.bxor (Tt.bxor (Tt.var 3 0) (Tt.var 3 1)) (Tt.var 3 2)
  in
  Alcotest.(check bool) "sum is xor3" true (Tt.equal tt expect)

let test_tt_of_lit () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  let x = Aig.mk_or g a (Aig.lnot b) in
  let tt = Aig.tt_of_lit g x in
  let expect = Tt.bor (Tt.var 2 0) (Tt.bnot (Tt.var 2 1)) in
  Alcotest.(check bool) "or with complement" true (Tt.equal tt expect)

let test_levels_depth () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g and c = Aig.add_input g in
  let x = Aig.mk_and g a b in
  let y = Aig.mk_and g x c in
  Aig.add_output g "y" y;
  Alcotest.(check int) "depth 2" 2 (Aig.depth g);
  let lv = Aig.levels g in
  Alcotest.(check int) "level of x" 1 lv.(Aig.node_of x);
  Alcotest.(check int) "level of y" 2 lv.(Aig.node_of y)

let test_mffc () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g and c = Aig.add_input g in
  (* chain: ((a*b)*c) used once -> MFFC of the top is 2 *)
  let x = Aig.mk_and g a b in
  let y = Aig.mk_and g x c in
  Aig.add_output g "y" y;
  let refs = Aig.fanout_counts g in
  Alcotest.(check int) "mffc of chain top" 2
    (Aig.mffc_size g refs (Aig.node_of y));
  (* share x with another output: now MFFC of y is 1 *)
  Aig.add_output g "x" x;
  let refs = Aig.fanout_counts g in
  Alcotest.(check int) "mffc with shared node" 1
    (Aig.mffc_size g refs (Aig.node_of y))

let test_checkpoint_rollback () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  let x = Aig.mk_and g a b in
  let ck = Aig.checkpoint g in
  let y = Aig.mk_and g x (Aig.lnot a) in
  let z = Aig.mk_and g y b in
  ignore z;
  Alcotest.(check int) "3 nodes before rollback" 3 (Aig.num_ands g);
  Aig.rollback g ck;
  Alcotest.(check int) "1 node after rollback" 1 (Aig.num_ands g);
  (* strash must have been cleaned: rebuilding works and yields same ids *)
  let y' = Aig.mk_and g x (Aig.lnot a) in
  Alcotest.(check int) "rebuilt node gets freed id" (Aig.node_of y)
    (Aig.node_of y');
  (* and the pre-checkpoint node is still strashed *)
  Alcotest.(check int) "old node still hashed" x (Aig.mk_and g b a)

let test_extract () =
  let g = build_adder 5 in
  (* keep only the carry-out cone *)
  let name, l = Aig.output g (Aig.num_outputs g - 1) in
  let fresh, _ = Aig.extract g [ (name, l) ] in
  Alcotest.(check int) "outputs" 1 (Aig.num_outputs fresh);
  Alcotest.(check bool) "smaller" true (Aig.num_ands fresh < Aig.num_ands g);
  for _ = 1 to 100 do
    let bits =
      Array.init (Aig.num_inputs g) (fun _ -> Rand64.bool rng)
    in
    let o1 = (Aig.eval g bits).(Aig.num_outputs g - 1) in
    let o2 = (Aig.eval fresh bits).(0) in
    if o1 <> o2 then Alcotest.fail "extract changed semantics"
  done;
  Alcotest.(check pass) "extract preserves cone" () ()

let test_cleanup_drops_dead () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  let x = Aig.mk_and g a b in
  let _dead = Aig.mk_and g (Aig.lnot a) (Aig.lnot b) in
  Aig.add_output g "x" x;
  let g' = Aig.cleanup g in
  Alcotest.(check int) "dead node dropped" 1 (Aig.num_ands g')

(* ---- cuts ---- *)

let test_cuts_basic () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g and c = Aig.add_input g in
  let s, _ = full_adder g a b c in
  Aig.add_output g "s" s;
  let cuts = Cut.compute_packed g ~k:4 ~limit:8 in
  let root = Aig.node_of s in
  let cs = List.init (Cut.num_cuts cuts root) (Cut.cut_leaves cuts root) in
  Alcotest.(check bool) "has cuts" true (List.length cs >= 2);
  (* the trivial cut is present *)
  Alcotest.(check bool) "trivial present" true (List.mem [| root |] cs);
  (* the PI cut {1,2,3} is present and its function is xor3 *)
  Alcotest.(check bool) "pi cut present" true (List.mem [| 1; 2; 3 |] cs);
  let tt = Aig.tt_of_cut g (Aig.lit_of_node root) [| 1; 2; 3 |] in
  let x3 = Tt.bxor (Tt.bxor (Tt.var 3 0) (Tt.var 3 1)) (Tt.var 3 2) in
  Alcotest.(check bool) "pi cut computes xor3" true
    (Tt.equal tt x3 || Tt.equal tt (Tt.bnot x3))

let test_cuts_are_cuts () =
  (* every enumerated cut supports truth-table computation (i.e. really cuts
     the cone) on a random-ish structure *)
  let g = build_adder 4 in
  let cuts = Cut.compute_packed g ~k:5 ~limit:10 in
  Aig.iter_ands g (fun n ->
      for j = 0 to Cut.num_cuts cuts n - 1 do
        ignore (Aig.tt_of_cut g (Aig.lit_of_node n) (Cut.cut_leaves cuts n j))
      done);
  Alcotest.(check pass) "all cuts valid" () ()

let test_cut_dominance () =
  let a = Cut_ref.trivial 5 in
  Alcotest.(check bool) "trivial self-dominates" true (Cut_ref.dominates a a)

let test_cut_limit () =
  let g = build_adder 8 in
  let limit = 6 in
  let cuts = Cut.compute_packed g ~k:4 ~limit in
  Aig.iter_ands g (fun n ->
      if Cut.num_cuts cuts n > limit then Alcotest.fail "limit exceeded");
  Alcotest.(check pass) "cut limit respected" () ()

(* ---- Par fork-join ---- *)

let test_par_more_workers_than_items () =
  (* more domains than work items: every index is still visited exactly
     once, and n = 0 is a no-op *)
  let hits = Array.make 3 0 in
  Par.run ~jobs:8 ~n:3 (fun _ lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Array.iteri
    (fun i h ->
      Alcotest.(check int) (Printf.sprintf "index %d visited once" i) 1 h)
    hits;
  Par.run ~jobs:8 ~n:0 (fun _ _ _ -> Alcotest.fail "body ran for n=0");
  Alcotest.(check pass) "n=0 no-op" () ()

let test_par_raising_chunk () =
  (* chunk 2 of 4 raises at once while the others pause, then write their
     ranges: the exception reaches the caller only after every other
     chunk's writes are visible, and no call leaves a domain behind (the
     runtime caps live domains, so 200 leaking calls would exhaust it) *)
  let jobs = 4 and n = 400 in
  for _ = 1 to 200 do
    let a = Array.make n (-1) in
    (match
       Par.run ~jobs ~n (fun w lo hi ->
           if w = 2 then raise Exit;
           Unix.sleepf 0.001;
           for i = lo to hi - 1 do
             a.(i) <- w
           done)
     with
    | () -> Alcotest.fail "the raising chunk's exception was lost"
    | exception Exit -> ());
    Array.iteri
      (fun i v ->
        let w = i * jobs / n in
        let want = if w = 2 then -1 else w in
        if v <> want then
          Alcotest.failf "a.(%d) = %d after the raise, want %d" i v want)
      a
  done;
  let sum = Atomic.make 0 in
  Par.run ~jobs ~n (fun _ lo hi -> ignore (Atomic.fetch_and_add sum (hi - lo)));
  Alcotest.(check int) "Par.run works after 200 raising calls" n
    (Atomic.get sum)

let test_par_failed_spawn () =
  (* more chunks than the runtime has domain slots (128 by default): the
     spawn that fails is re-raised only after the chunks already spawned
     have finished, so no chunk writes once [run] has raised *)
  let jobs = 1000 in
  let n = 4 * jobs in
  let a = Array.make n 0 in
  (match
     Par.run ~jobs ~n (fun _ lo hi ->
         Unix.sleepf 0.05;
         Array.fill a lo (hi - lo) 1)
   with
  | () -> ()
  | exception Failure _ -> ());
  let seen = Array.copy a in
  Unix.sleepf 0.2;
  if a <> seen then Alcotest.fail "a chunk wrote after Par.run raised";
  let sum = Atomic.make 0 in
  Par.run ~jobs:4 ~n (fun _ lo hi -> ignore (Atomic.fetch_and_add sum (hi - lo)));
  Alcotest.(check int) "Par.run works after a failed spawn" n (Atomic.get sum)

let () =
  Alcotest.run "aig"
    [
      ( "aig",
        [
          Alcotest.test_case "const folding" `Quick test_const_folding;
          Alcotest.test_case "strash" `Quick test_strash;
          Alcotest.test_case "adder semantics" `Quick test_adder_semantics;
          Alcotest.test_case "input order" `Quick test_input_order_enforced;
          Alcotest.test_case "simulate/eval" `Quick test_simulate_vs_eval;
          Alcotest.test_case "tt of cut" `Quick test_tt_of_cut;
          Alcotest.test_case "tt of lit" `Quick test_tt_of_lit;
          Alcotest.test_case "levels/depth" `Quick test_levels_depth;
          Alcotest.test_case "mffc" `Quick test_mffc;
          Alcotest.test_case "checkpoint/rollback" `Quick test_checkpoint_rollback;
          Alcotest.test_case "extract" `Quick test_extract;
          Alcotest.test_case "cleanup" `Quick test_cleanup_drops_dead;
        ] );
      ( "cuts",
        [
          Alcotest.test_case "basic" `Quick test_cuts_basic;
          Alcotest.test_case "cuts are cuts" `Quick test_cuts_are_cuts;
          Alcotest.test_case "dominance" `Quick test_cut_dominance;
          Alcotest.test_case "limit" `Quick test_cut_limit;
        ] );
      ( "par",
        [
          Alcotest.test_case "more workers than items" `Quick
            test_par_more_workers_than_items;
          Alcotest.test_case "raising chunk" `Quick test_par_raising_chunk;
          Alcotest.test_case "failed spawn" `Quick test_par_failed_spawn;
        ] );
    ]
