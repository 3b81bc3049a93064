(* Tests for the synthesis passes: equivalence (SAT-checked), size
   monotonicity, and effectiveness on known-reducible structures. *)

let rng = Rand64.create 37L

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
      match Rand64.int rng 4 with
      | 0 -> Aig.mk_and g (pick ()) (pick ())
      | 1 -> Aig.mk_or g (pick ()) (pick ())
      | 2 -> Aig.mk_xor g (pick ()) (pick ())
      | _ -> Aig.mk_mux g (pick ()) (pick ()) (pick ())
    in
    pool := x :: !pool
  done;
  List.iteri
    (fun i l -> if i < 6 then Aig.add_output g (Printf.sprintf "o%d" i) l)
    !pool;
  g

let passes : (string * (Aig.t -> Aig.t)) list =
  [
    ("balance", Synth.balance);
    ("rewrite", (fun a -> Synth.rewrite a));
    ("rewrite -z", (fun a -> Synth.rewrite ~zero_gain:true a));
    ("refactor", (fun a -> Synth.refactor a));
    ("resyn2rs", (fun a -> Synth.resyn2rs a));
    ("light", (fun a -> Synth.light a));
  ]

let test_equivalence () =
  for seed = 1 to 5 do
    let aig = random_aig 7 50 seed in
    List.iter
      (fun (name, pass) ->
        let out = pass aig in
        match Cec.check aig out with
        | Cec.Equivalent -> ()
        | Cec.Inequivalent _ -> Alcotest.failf "%s broke seed %d" name seed
        | Cec.Undecided -> Alcotest.failf "%s undecided" name)
      passes
  done;
  Alcotest.(check pass) "all passes preserve semantics" () ()

let test_equivalence_structured () =
  List.iter
    (fun (cname, aig) ->
      List.iter
        (fun (pname, pass) ->
          let out = pass aig in
          match Cec.check aig out with
          | Cec.Equivalent -> ()
          | _ -> Alcotest.failf "%s broke %s" pname cname)
        passes)
    [ ("adder10", Arith.adder 10);
      ("mult5", Arith.multiplier 5);
      ("ecc", Ecc.decoder ~data:8 ~checks:5 ~detect:false) ];
  Alcotest.(check pass) "structured circuits preserved" () ()

let test_monotone_size () =
  for seed = 10 to 16 do
    let aig = random_aig 8 80 seed in
    List.iter
      (fun (name, pass) ->
        if name <> "balance" then begin
          let out = pass aig in
          if Aig.num_ands out > Aig.num_ands aig then
            Alcotest.failf "%s grew seed %d (%d -> %d)" name seed
              (Aig.num_ands aig) (Aig.num_ands out)
        end)
      passes
  done;
  Alcotest.(check pass) "passes are size-monotone" () ()

let test_balance_reduces_depth () =
  (* a 32-input AND chain balances from depth 31 to depth 5 *)
  let g = Aig.create () in
  let ins = Array.init 32 (fun _ -> Aig.add_input g) in
  let chain = Array.fold_left (fun acc l -> Aig.mk_and g acc l) ins.(0)
      (Array.sub ins 1 31) in
  Aig.add_output g "y" chain;
  Alcotest.(check int) "chain depth" 31 (Aig.depth g);
  let b = Synth.balance g in
  Alcotest.(check int) "balanced depth" 5 (Aig.depth b);
  Alcotest.(check int) "same size" 31 (Aig.num_ands b)

let test_rewrite_removes_redundancy () =
  (* f = ab + a!b is a, built redundantly: rewrite must collapse it *)
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  let x = Aig.mk_or g (Aig.mk_and g a b) (Aig.mk_and g a (Aig.lnot b)) in
  Aig.add_output g "y" x;
  Alcotest.(check int) "redundant build" 3 (Aig.num_ands g);
  let out = Synth.rewrite g in
  Alcotest.(check int) "collapsed to wire" 0 (Aig.num_ands out);
  match Cec.check g out with
  | Cec.Equivalent -> ()
  | _ -> Alcotest.fail "collapse broke the function"

let test_resyn_improves_adder () =
  (* a deliberately redundant full-adder chain (majority carry built
     independently of the sum xors); resyn2rs must find the sharing *)
  let g = Aig.create () in
  let n = 16 in
  let xs = Array.init n (fun _ -> Aig.add_input g) in
  let ys = Array.init n (fun _ -> Aig.add_input g) in
  let carry = ref Aig.lit_false in
  for i = 0 to n - 1 do
    let a = xs.(i) and b = ys.(i) in
    let s = Aig.mk_xor g (Aig.mk_xor g a b) !carry in
    Aig.add_output g (Printf.sprintf "s%d" i) s;
    carry := Aig.mk_maj3 g a b !carry
  done;
  Aig.add_output g "cout" !carry;
  let out = Synth.resyn2rs g in
  Alcotest.(check bool) "smaller" true (Aig.num_ands out < Aig.num_ands g);
  Alcotest.(check bool) "shallower" true (Aig.depth out < Aig.depth g)

let test_passes_keep_io () =
  let aig = Arith.adder 6 in
  List.iter
    (fun (_, pass) ->
      let out = pass aig in
      Alcotest.(check int) "inputs" (Aig.num_inputs aig) (Aig.num_inputs out);
      Alcotest.(check int) "outputs" (Aig.num_outputs aig) (Aig.num_outputs out);
      (* names preserved *)
      Array.iteri
        (fun i (n, _) ->
          Alcotest.(check string) "output name" n (fst (Aig.output out i)))
        (Aig.outputs aig))
    passes

let test_jobs_byte_identical () =
  (* Within-circuit Domain parallelism must not change a single literal:
     the analysis phase is distributed, the commit phase replays the
     sequential order (see Par and the synth .mli contract). *)
  let circuits =
    [
      ("addsub-12", fun () -> Arith.addsub 12);
      ("div-10", fun () -> Arith.divider 10);
      ("random", fun () -> random_aig 10 160 4242);
    ]
  in
  List.iter
    (fun (name, build) ->
      let blif jobs =
        Blif.to_string (Synth.resyn2rs ~jobs (build ()))
      in
      let seq = blif 1 in
      List.iter
        (fun jobs ->
          if blif jobs <> seq then
            Alcotest.failf "%s: resyn2rs jobs=%d diverges" name jobs)
        [ 2; 3; 5 ])
    circuits;
  (* the light script too, which exercises rewrite and refactor *)
  let g = Arith.addsub 10 in
  Alcotest.(check string) "light jobs=4"
    (Blif.to_string (Synth.light (Arith.addsub 10)))
    (Blif.to_string (Synth.light ~jobs:4 g))

(* resyn2rs output of the 13 Table-3 circuits the benchmark's table3
   workload runs (the suite without des and i10), pinned by the digest of
   its BLIF text.  The jobs-identity and packed-vs-reference tests run the
   one ISOP/factoring kernel on both sides of their comparison, so only a
   pinned output shows a kernel change that moves the netlists; test_sop
   checks the kernels' exact covers and forms against the seed oracles. *)
let golden_resyn2rs =
  [
    ("C2670", "edac19f57f273478cf770bbdb7445fd0");
    ("C1908", "be602941cd9c837c8d4cd2ec874441ce");
    ("C3540", "01c0b80ce291dfd27b45769e98eff149");
    ("dalu", "f058981a70cfc7f5c46740eeca02160a");
    ("C7552", "96b072aa7f91e4c1d4c3d485b4a69e67");
    ("C6288", "d063665ba8050ca12c29fa83007554f6");
    ("C5315", "433a529f3731f7e676446cafc5478d9b");
    ("t481", "f4a51d2687ed8dd5ffc07afa86784318");
    ("i18", "6d63fe4cf37817ca2ad1547748c4153b");
    ("C1355", "c4886fb00826014c919a1058a91a3b48");
    ("add-16", "0aa8fb564a0ae82de2437428555c75e6");
    ("add-32", "1df6526ef56886941f06630a7525184c");
    ("add-64", "d632dccef1979b01fdf23f87a4706842");
  ]

let test_golden_resyn2rs () =
  Alcotest.(check (list string)) "the table3 circuits"
    (List.filter (fun n -> n <> "des" && n <> "i10") Bench_suite.names)
    (List.map fst golden_resyn2rs);
  List.iter
    (fun (name, digest) ->
      let aig = (Bench_suite.find name).Bench_suite.build () in
      let blif = Blif.to_string (Synth.resyn2rs aig) in
      Alcotest.(check string) name digest
        (Digest.to_hex (Digest.string blif)))
    golden_resyn2rs

let test_idempotent_enough () =
  (* running resyn2rs twice must not grow the graph *)
  let aig = random_aig 8 70 (Rand64.int rng 1000) in
  let once = Synth.resyn2rs aig in
  let twice = Synth.resyn2rs once in
  Alcotest.(check bool) "no growth on reapplication" true
    (Aig.num_ands twice <= Aig.num_ands once)

let () =
  Alcotest.run "synth"
    [
      ( "synth",
        [
          Alcotest.test_case "random equivalence" `Quick test_equivalence;
          Alcotest.test_case "structured equivalence" `Quick
            test_equivalence_structured;
          Alcotest.test_case "size monotone" `Quick test_monotone_size;
          Alcotest.test_case "balance depth" `Quick test_balance_reduces_depth;
          Alcotest.test_case "redundancy removal" `Quick
            test_rewrite_removes_redundancy;
          Alcotest.test_case "adder improves" `Quick test_resyn_improves_adder;
          Alcotest.test_case "io preserved" `Quick test_passes_keep_io;
          Alcotest.test_case "jobs byte-identical" `Quick
            test_jobs_byte_identical;
          Alcotest.test_case "idempotent" `Quick test_idempotent_enough;
          Alcotest.test_case "resyn2rs golden digests" `Quick
            test_golden_resyn2rs;
        ] );
    ]
