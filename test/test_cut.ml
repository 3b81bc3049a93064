(* Tests for the packed cut engine: equivalence with the seed list
   enumerator ([Cut_ref]), incremental truth tables vs. cone walks,
   dominance invariants, synthesis against the seed refactor sweep
   ([Synth_ref]), and the word-level support shrink / cached
   canonicalization it builds on. *)

let small_suite = [ "add-16"; "t481"; "C1355"; "C1908" ]

let build name = (Bench_suite.find name).Bench_suite.build ()

(* Optimized graphs exercise wider nodes than the raw builders. *)
let build_synth name = Synth.light (build name)

let configs = [ (4, 8); (6, 8); (6, 12) ]

(* Every circuit at the mapper's (6,12), the small suite at every
   configuration in [configs]. *)
let cases =
  List.map (fun name -> (name, configs)) small_suite
  @ List.filter_map
      (fun (e : Bench_suite.entry) ->
        if List.mem e.Bench_suite.name small_suite then None
        else Some (e.Bench_suite.name, [ (6, 12) ]))
      Bench_suite.all

(* The first node (if any) whose packed cut set differs from the seed
   list enumerator's, in count or in any cut's leaves. *)
let first_mismatch aig ~k ~limit =
  let ref_cuts = Cut_ref.compute aig ~k ~limit in
  let s = Cut.compute_packed aig ~k ~limit in
  let differs nd =
    let rl = ref_cuts.(nd) in
    List.length rl <> Cut.num_cuts s nd
    || List.exists Fun.id
         (List.mapi (fun j c -> c.Cut_ref.leaves <> Cut.cut_leaves s nd j) rl)
  in
  let rec go nd =
    if nd >= Aig.num_nodes aig then None
    else if (Aig.is_and aig nd || Aig.is_input aig nd || nd = 0) && differs nd
    then Some nd
    else go (nd + 1)
  in
  go 0

(* The packed engine produces the same cut sets, in the same order, as
   the seed list enumerator.  C6288 and des have nodes that overflow the
   12-entry bounded scratch. *)
let test_sets_equal () =
  List.iter
    (fun (name, configs) ->
      let aig = build_synth name in
      List.iter
        (fun (k, limit) ->
          match first_mismatch aig ~k ~limit with
          | None -> ()
          | Some nd ->
              Alcotest.failf "%s k%d limit%d: node %d differs" name k limit nd)
        configs)
    cases

(* A 4-input graph whose node 17 overflows the 12-entry bounded scratch
   in a way the prefix certificate rejects: plain priority-cut truncation
   gets its cut 10 wrong, so the packed engine must re-run that node at
   full capacity ([!] marks a complemented fanin). *)
let refill_fixture () =
  let g = Aig.create () in
  for _ = 1 to 4 do
    ignore (Aig.add_input g)
  done;
  let lit i = Aig.lit_of_node (abs i) ~compl:(i < 0) in
  List.iteri
    (fun j (a, b) ->
      let l = Aig.mk_and g (lit a) (lit b) in
      Alcotest.(check int) "fixture node id" (j + 5) (Aig.node_of l))
    [
      (2, 3); (3, 4); (-5, 6); (6, -7); (-6, -8); (-4, 9); (9, -10); (6, 9);
      (4, -10); (4, 13); (12, 13); (3, 15); (14, -16); (-16, -17); (6, 16);
      (-5, 19);
    ];
  g

let test_refill_fixture () =
  let aig = refill_fixture () in
  let st = Cut.stats_create () in
  ignore (Cut.compute_packed ~stats:st aig ~k:6 ~limit:12);
  Alcotest.(check int) "one node re-enumerated" 1 st.Cut.refills;
  let acc = Cut.stats_create () in
  Cut.stats_add acc st;
  Cut.stats_add acc st;
  Alcotest.(check int) "stats_add sums refills" 2 acc.Cut.refills;
  Alcotest.(check (option int)) "packed = reference" None
    (first_mismatch aig ~k:6 ~limit:12)

(* Small random graphs with heavy reconvergence: 40-79 ANDs over 2-3
   inputs, each fanin drawn uniformly from everything built before it.
   Two in three overflow the bounded scratch at k=6/limit=12, more at
   the smaller limits, so the certificate is exercised; a refill stays
   rare even here (1 graph in 5,000 at k=6/limit=12), and the fixture
   above is what pins the refill itself. *)
let random_reconvergent seed =
  let rng = Rand64.create (Int64.of_int seed) in
  let g = Aig.create () in
  let ni = 2 + Rand64.int rng 2 in
  let nands = 40 + Rand64.int rng 40 in
  let lits = Array.make (ni + nands) Aig.lit_false in
  for i = 0 to ni - 1 do
    lits.(i) <- Aig.add_input g
  done;
  for i = ni to ni + nands - 1 do
    let pick () =
      let l = lits.(Rand64.int rng i) in
      if Rand64.bool rng then Aig.lnot l else l
    in
    let a = pick () in
    lits.(i) <- Aig.mk_and g a (pick ())
  done;
  g

let prop_random_reconvergent =
  QCheck.Test.make ~name:"packed = reference on reconvergent graphs"
    ~count:1000 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let aig = random_reconvergent seed in
      List.for_all
        (fun (k, limit) -> first_mismatch aig ~k ~limit = None)
        [ (6, 12); (4, 8); (6, 3); (3, 2) ])

(* Every incrementally-computed cut tt equals [Aig.tt_of_cut] on the
   same leaves. *)
let test_tts_equal () =
  List.iter
    (fun (name, configs) ->
      let aig = build_synth name in
      List.iter
        (fun (k, limit) ->
          let s = Cut.compute_packed aig ~k ~limit in
          Aig.iter_ands aig (fun nd ->
              for j = 0 to Cut.num_cuts s nd - 1 do
                let leaves = Cut.cut_leaves s nd j in
                let want =
                  Aig.tt_of_cut aig (Aig.lit_of_node nd) leaves
                in
                let got =
                  Tt.of_bits (Array.length leaves) (Cut.cut_tt s nd j)
                in
                if not (Tt.equal want got) then
                  Alcotest.failf "%s k%d limit%d nd%d cut%d: tt mismatch"
                    name k limit nd j
              done))
        configs)
    cases

(* (b) no cut in a node's final set dominates another (the trivial cut,
   always last, is exempt by construction: the enumeration never filters
   against it). *)
let test_no_dominance () =
  List.iter
    (fun name ->
      let aig = build_synth name in
      let k = 6 and limit = 12 in
      let s = Cut.compute_packed aig ~k ~limit in
      let subset a b =
        Array.for_all (fun x -> Array.exists (fun y -> y = x) b) a
      in
      Aig.iter_ands aig (fun nd ->
          let nc = Cut.num_cuts s nd in
          (* last cut is the trivial one *)
          Alcotest.(check (array int))
            (Printf.sprintf "%s nd%d: trivial last" name nd)
            [| nd |]
            (Cut.cut_leaves s nd (nc - 1));
          for i = 0 to nc - 2 do
            for j = 0 to nc - 2 do
              if i <> j then begin
                let a = Cut.cut_leaves s nd i and b = Cut.cut_leaves s nd j in
                if subset a b then
                  Alcotest.failf "%s nd%d: cut %d dominates cut %d" name nd i
                    j
              end
            done
          done))
    small_suite

(* Counters move, and in the directions the semantics dictate. *)
let test_stats () =
  let aig = build_synth "C1355" in
  let st = Cut.stats_create () in
  let _ = Cut.compute_packed ~stats:st aig ~k:6 ~limit:12 in
  Alcotest.(check bool) "built > 0" true (st.Cut.built > 0);
  Alcotest.(check int) "tt per built cut" st.Cut.built st.Cut.tt_merges;
  Alcotest.(check bool) "dominance filter active" true (st.Cut.dominated > 0);
  Alcotest.(check bool)
    "signature pre-filter active" true
    (st.Cut.sign_rejects > 0);
  let acc = Cut.stats_create () in
  Cut.stats_add acc st;
  Cut.stats_add acc st;
  Alcotest.(check int) "stats_add" (2 * st.Cut.built) acc.Cut.built

(* The signature is a sound subset filter. *)
let test_signature_sound () =
  let rng = Rand64.create 99L in
  for _ = 1 to 1000 do
    let n = 1 + Rand64.int rng 6 in
    let b =
      Array.init n (fun _ -> Rand64.int rng 500) |> Array.to_list
      |> List.sort_uniq compare |> Array.of_list
    in
    let na = 1 + Rand64.int rng (Array.length b) in
    let a = Array.sub b 0 na in
    let sa = Cut.signature a and sb = Cut.signature b in
    Alcotest.(check int) "subset => signature bits subset" sa (sa land sb)
  done

(* Npn.shrink mirrors Tt.shrink_to_support on single words. *)
let test_npn_shrink () =
  let rng = Rand64.create 7L in
  for _ = 1 to 2000 do
    let m = 1 + Rand64.int rng 6 in
    let t = Tt.of_bits m (Rand64.next rng) in
    let small, sup = Tt.shrink_to_support t in
    let w, sup' = Npn.shrink (Tt.words t).(0) m in
    Alcotest.(check (array int)) "support" sup sup';
    Alcotest.(check int64) "shrunk word" (Tt.words small).(0) w;
    Alcotest.(check int) "support size" (Array.length sup)
      (Npn.support_size (Tt.words t).(0) m)
  done

(* Synthesis is result-identical to the seed refactor sweep, across both
   refactor branches (priority cuts at k <= 6, greedy-only at k = 10) and
   the composed script. *)
let check_refactor_equal passes name =
  let aig = build name in
  List.iter
    (fun (label, f, f_ref) ->
      if Blif.to_string (f aig) <> Blif.to_string (f_ref aig) then
        Alcotest.failf "%s: %s output differs" name label)
    passes

let resyn2rs_pass =
  ("resyn2rs", (fun a -> Synth.resyn2rs a), Synth_ref.resyn2rs)

let test_refactor_equal () =
  List.iter
    (check_refactor_equal
       [
         ("rewrite", (fun a -> Synth.rewrite a), fun a -> Synth_ref.rewrite a);
         ( "refactor(k=10)",
           (fun a -> Synth.refactor a),
           fun a -> Synth_ref.refactor a );
         ( "refactor(k=6)",
           (fun a -> Synth.refactor ~cut_size:6 a),
           fun a -> Synth_ref.refactor ~cut_size:6 a );
         resyn2rs_pass;
       ])
    small_suite

(* The script on the two suite circuits whose nodes overflow the
   12-entry bounded cut scratch. *)
let test_refactor_equal_large () =
  List.iter (check_refactor_equal [ resyn2rs_pass ]) [ "C6288"; "des" ]

(* canonical_cached agrees with canonical (fresh and cached lookups). *)
let test_canonical_cached () =
  let rng = Rand64.create 3L in
  for _ = 1 to 500 do
    let k = 1 + Rand64.int rng 4 in
    let t = Tt.of_bits k (Rand64.next rng) in
    let w = (Tt.words t).(0) in
    let want = Npn.canonical k w in
    Alcotest.(check int64) "fresh" want (Npn.canonical_cached k w);
    Alcotest.(check int64) "cached" want (Npn.canonical_cached k w)
  done

let () =
  Alcotest.run "cut"
    [
      ( "packed-engine",
        [
          Alcotest.test_case "cut sets equal reference" `Quick test_sets_equal;
          Alcotest.test_case "incremental tts equal cone walks" `Quick
            test_tts_equal;
          Alcotest.test_case "no intra-set dominance" `Quick test_no_dominance;
          Alcotest.test_case "counters" `Quick test_stats;
          Alcotest.test_case "refill fixture" `Quick test_refill_fixture;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 2009 |])
            prop_random_reconvergent;
          Alcotest.test_case "refactor identical across engines" `Quick
            test_refactor_equal;
          Alcotest.test_case "resyn2rs identical across engines (C6288, des)"
            `Slow test_refactor_equal_large;
        ] );
      ( "foundations",
        [
          Alcotest.test_case "signature soundness" `Quick test_signature_sound;
          Alcotest.test_case "Npn.shrink = Tt.shrink_to_support" `Quick
            test_npn_shrink;
          Alcotest.test_case "canonical_cached = canonical" `Quick
            test_canonical_cached;
        ] );
    ]
