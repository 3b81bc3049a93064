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

(* Synthesis outputs beyond table3, recorded before the passes moved to
   flat arrays and bounded dry runs: [rw] after [b] on the scale
   workload's circuits and on mult-72, whose 40,825 nodes span two of the
   analysis's 32k-node windows, at one and two domains; and the light
   script on the verify workload's seven circuits. *)
let golden_rewrite =
  [
    ("mult-64", "9472fc03889d2ac6c1d549a203425c07");
    ("crypto-8", "dcabf96743d8452a23c6147b7f48f303");
    ("mult-72", "e1aca94e38574a077452270329ea6875");
  ]

let golden_light =
  [
    ("C1355", "8b84524371d275bde154ad1c1307449a");
    ("C1908", "01a779d0db0e8a9dd37f7c2b1ed34768");
    ("t481", "0e3176565687f1d75d627a78c5a8cab5");
    ("C3540", "4c206f7a2e2cb6d35fd5acf70f63ff59");
    ("dalu", "f058981a70cfc7f5c46740eeca02160a");
    ("add-64", "d632dccef1979b01fdf23f87a4706842");
    ("i18", "254f3e9beff2f6c94b937ee58bd8b807");
  ]

let md5 aig = Digest.to_hex (Digest.string (Blif.to_string aig))

let test_golden_rewrite () =
  List.iter
    (fun (name, digest) ->
      let b = Synth.balance ((Bench_suite.find name).Bench_suite.build ()) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s jobs=%d" name jobs)
            digest
            (md5 (Synth.rewrite ~jobs b)))
        [ 1; 2 ])
    golden_rewrite

let test_golden_light () =
  List.iter
    (fun (name, digest) ->
      let aig = (Bench_suite.find name).Bench_suite.build () in
      Alcotest.(check string) name digest (md5 (Synth.light aig)))
    golden_light

(* Random graphs of 6-10 inputs and 30-300 ANDs with reconvergence: every
   fanin drawn from all literals built so far, through AND, XOR and MUX
   gates, and outputs on the last few nodes. *)
let random_graph seed =
  let rng = Rand64.create (Int64.of_int seed) in
  let g = Aig.create () in
  let nin = 6 + Rand64.int rng 5 in
  let target = 30 + Rand64.int rng 271 in
  let lits = ref (Array.init nin (fun _ -> Aig.add_input g)) in
  let nl = ref nin in
  let pick () =
    let l = !lits.(Rand64.int rng !nl) in
    if Rand64.bool rng then Aig.lnot l else l
  in
  while Aig.num_ands g < target do
    let x =
      match Rand64.int rng 4 with
      | 0 | 1 -> Aig.mk_and g (pick ()) (pick ())
      | 2 -> Aig.mk_xor g (pick ()) (pick ())
      | _ -> Aig.mk_mux g (pick ()) (pick ()) (pick ())
    in
    if !nl >= Array.length !lits then begin
      let a = Array.make (2 * !nl) Aig.lit_false in
      Array.blit !lits 0 a 0 !nl;
      lits := a
    end;
    !lits.(!nl) <- x;
    incr nl
  done;
  for i = 0 to 1 + Rand64.int rng 6 do
    Aig.add_output g (Printf.sprintf "o%d" i) !lits.(!nl - 1 - i)
  done;
  Aig.cleanup g

(* [rw] and [rf] at cut sizes 4, 6 and 10, each with and without [z],
   give the seed sweep's BLIF.  Small graphs put candidates right at the
   acceptance bounds (cost = mffc, cost = deaths + 1), where a dry run
   that stopped one node early or late would pick differently.  The
   counters show that the cases both replace nodes and leave graphs
   unchanged. *)
let passes_vs_ref =
  List.concat_map
    (fun zero_gain ->
      ( Printf.sprintf "rw z=%b" zero_gain,
        (fun a -> Synth.rewrite ~zero_gain a),
        fun a -> Synth_ref.rewrite ~zero_gain a )
      :: List.map
           (fun cut_size ->
             ( Printf.sprintf "rf cut=%d z=%b" cut_size zero_gain,
               (fun a -> Synth.refactor ~zero_gain ~cut_size a),
               fun a -> Synth_ref.refactor ~zero_gain ~cut_size a ))
           [ 4; 6; 10 ])
    [ false; true ]

let replaced = ref 0
let unchanged = ref 0

let prop_matches_ref =
  QCheck.Test.make ~name:"rw/rf = seed sweep on random graphs" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let aig = random_graph seed in
      let src = Blif.to_string aig in
      List.for_all
        (fun (label, f, f_ref) ->
          let out = Blif.to_string (f aig) in
          if out = src then incr unchanged else incr replaced;
          out = Blif.to_string (f_ref aig)
          || QCheck.Test.fail_reportf "seed %d: %s differs" seed label)
        passes_vs_ref)

let test_matches_ref () =
  replaced := 0;
  unchanged := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 25 |]) prop_matches_ref;
  Alcotest.(check bool) "some passes replace nodes" true (!replaced > 0);
  Alcotest.(check bool) "some passes keep the graph" true (!unchanged > 0)

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
          Alcotest.test_case "rw golden digests (scale, mult-72)" `Quick
            test_golden_rewrite;
          Alcotest.test_case "light golden digests (verify)" `Quick
            test_golden_light;
          Alcotest.test_case "rw/rf = seed sweep on random graphs" `Quick
            test_matches_ref;
        ] );
    ]
