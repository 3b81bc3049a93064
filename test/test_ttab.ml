(* Tests for the truth-table substrate: Tt word-level operations checked
   against naive per-assignment references, and the NPN machinery. *)

let tt_testable = Alcotest.testable Tt.pp Tt.equal

(* Naive reference: a function as (int -> bool) over n vars. *)
let tt_matches_fun n tt f =
  let ok = ref true in
  for a = 0 to (1 lsl n) - 1 do
    if Tt.eval tt a <> f a then ok := false
  done;
  !ok

let rng = Rand64.create 7L

let random_tt n =
  if n <= 6 then Tt.of_bits n (Rand64.next rng)
  else
    Tt.of_words n (Array.init (1 lsl (n - 6)) (fun _ -> Rand64.next rng))

let arbitrary_nvars = QCheck.Gen.int_range 1 9

let arb_tt =
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Tt.pp t)
    QCheck.Gen.(
      arbitrary_nvars >>= fun n ->
      return (random_tt n))

let test_consts () =
  Alcotest.(check bool) "const0 is 0" true (Tt.is_const0 (Tt.const0 5));
  Alcotest.(check bool) "const1 is 1" true (Tt.is_const1 (Tt.const1 9));
  Alcotest.(check int) "count const1" 512 (Tt.count_ones (Tt.const1 9));
  Alcotest.(check int) "count const1 small" 8 (Tt.count_ones (Tt.const1 3))

let test_var () =
  for n = 1 to 9 do
    for i = 0 to n - 1 do
      let v = Tt.var n i in
      assert (tt_matches_fun n v (fun a -> a land (1 lsl i) <> 0));
      Alcotest.(check int)
        (Printf.sprintf "var %d/%d balanced" i n)
        (1 lsl (n - 1))
        (Tt.count_ones v)
    done
  done

let test_ops () =
  for n = 1 to 8 do
    let a = random_tt n and b = random_tt n in
    assert (tt_matches_fun n (Tt.band a b) (fun x -> Tt.eval a x && Tt.eval b x));
    assert (tt_matches_fun n (Tt.bor a b) (fun x -> Tt.eval a x || Tt.eval b x));
    assert (tt_matches_fun n (Tt.bxor a b) (fun x -> Tt.eval a x <> Tt.eval b x));
    assert (tt_matches_fun n (Tt.bnot a) (fun x -> not (Tt.eval a x)))
  done;
  Alcotest.(check pass) "pointwise ops agree with eval" () ()

let prop_shannon =
  QCheck.Test.make ~name:"shannon expansion" ~count:200 arb_tt (fun t ->
      let n = Tt.nvars t in
      let i = Rand64.int rng n in
      let v = Tt.var n i in
      Tt.equal t (Tt.mux v (Tt.cofactor1 t i) (Tt.cofactor0 t i)))

let prop_cofactor_vacuous =
  QCheck.Test.make ~name:"cofactor removes dependency" ~count:200 arb_tt
    (fun t ->
      let n = Tt.nvars t in
      let i = Rand64.int rng n in
      (not (Tt.depends_on (Tt.cofactor0 t i) i))
      && not (Tt.depends_on (Tt.cofactor1 t i) i))

let prop_flip_involutive =
  QCheck.Test.make ~name:"flip twice = id" ~count:200 arb_tt (fun t ->
      let i = Rand64.int rng (Tt.nvars t) in
      Tt.equal t (Tt.flip (Tt.flip t i) i))

let prop_flip_semantics =
  QCheck.Test.make ~name:"flip semantics" ~count:100 arb_tt (fun t ->
      let n = Tt.nvars t in
      let i = Rand64.int rng n in
      tt_matches_fun n (Tt.flip t i) (fun a -> Tt.eval t (a lxor (1 lsl i))))

let prop_swap_adjacent =
  QCheck.Test.make ~name:"swap_adjacent semantics" ~count:200 arb_tt (fun t ->
      let n = Tt.nvars t in
      QCheck.assume (n >= 2);
      let i = Rand64.int rng (n - 1) in
      let swap_bits a =
        let bi = (a lsr i) land 1 and bj = (a lsr (i + 1)) land 1 in
        let a = a land lnot ((1 lsl i) lor (1 lsl (i + 1))) in
        a lor (bj lsl i) lor (bi lsl (i + 1))
      in
      tt_matches_fun n (Tt.swap_adjacent t i) (fun a -> Tt.eval t (swap_bits a)))

let prop_swap =
  QCheck.Test.make ~name:"swap semantics" ~count:200 arb_tt (fun t ->
      let n = Tt.nvars t in
      QCheck.assume (n >= 2);
      let i = Rand64.int rng n and j = Rand64.int rng n in
      let swap_bits a =
        let bi = (a lsr i) land 1 and bj = (a lsr j) land 1 in
        let a = a land lnot ((1 lsl i) lor (1 lsl j)) in
        a lor (bj lsl i) lor (bi lsl j)
      in
      tt_matches_fun n (Tt.swap t i j) (fun a -> Tt.eval t (swap_bits a)))

let random_perm n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rand64.int rng (i + 1) in
    let tmp = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- tmp
  done;
  p

let prop_permute =
  QCheck.Test.make ~name:"permute semantics" ~count:200 arb_tt (fun t ->
      let n = Tt.nvars t in
      let p = random_perm n in
      (* (permute t p) a = t b  where bit p.(i) of b = bit i of a *)
      let remap a =
        let b = ref 0 in
        for i = 0 to n - 1 do
          if a land (1 lsl i) <> 0 then b := !b lor (1 lsl p.(i))
        done;
        !b
      in
      tt_matches_fun n (Tt.permute t p) (fun a -> Tt.eval t (remap a)))

let prop_count_ones =
  QCheck.Test.make ~name:"count_ones matches eval" ~count:100 arb_tt (fun t ->
      let n = Tt.nvars t in
      let c = ref 0 in
      for a = 0 to (1 lsl n) - 1 do
        if Tt.eval t a then incr c
      done;
      !c = Tt.count_ones t)

let prop_shrink =
  QCheck.Test.make ~name:"shrink_to_support" ~count:200 arb_tt (fun t ->
      let small, map = Tt.shrink_to_support t in
      Tt.nvars small = Array.length map
      && List.for_all
           (fun i -> Tt.depends_on small i)
           (List.init (Tt.nvars small) (fun i -> i))
      &&
      let n = Tt.nvars t in
      let ok = ref true in
      for a = 0 to (1 lsl n) - 1 do
        let b = ref 0 in
        Array.iteri
          (fun newi oldi ->
            if a land (1 lsl oldi) <> 0 then b := !b lor (1 lsl newi))
          map;
        if Tt.eval t a <> Tt.eval small !b then ok := false
      done;
      !ok)

let test_support () =
  let n = 8 in
  (* f = x1 XOR x6 *)
  let t = Tt.bxor (Tt.var n 1) (Tt.var n 6) in
  Alcotest.(check (list int)) "support" [ 1; 6 ] (Tt.support t);
  let small, map = Tt.shrink_to_support t in
  Alcotest.(check int) "shrunk size" 2 (Tt.nvars small);
  Alcotest.(check (array int)) "map" [| 1; 6 |] map;
  Alcotest.(check tt_testable) "shrunk is xor" (Tt.bxor (Tt.var 2 0) (Tt.var 2 1)) small

let test_extend () =
  let t = Tt.bxor (Tt.var 3 0) (Tt.var 3 2) in
  let e = Tt.extend t 8 in
  Alcotest.(check (list int)) "extend support" [ 0; 2 ] (Tt.support e);
  assert (tt_matches_fun 8 e (fun a -> (a land 1 <> 0) <> (a land 4 <> 0)));
  Alcotest.(check pass) "extend semantics" () ()

(* ---------------- NPN ---------------- *)

let tt6_of_word w = Tt.of_bits 6 w

let prop_npn_variants =
  QCheck.Test.make ~name:"npn variants match Tt reference" ~count:20
    (QCheck.make QCheck.Gen.(int_range 1 6))
    (fun k ->
      let w = (Tt.words (random_tt 6)).(0) in
      (* make the function depend on the first k vars only *)
      let t = ref (tt6_of_word w) in
      for i = k to 5 do
        t := Tt.cofactor0 !t i
      done;
      let base = (Tt.words !t).(0) in
      let ok = ref true in
      let checked = ref 0 in
      Npn.enumerate k base (fun v tr ->
          if !checked < 64 then begin
            incr checked;
            (* reference: apply permutation, phases, output negation via Tt *)
            let r = ref (tt6_of_word base) in
            let full_perm = Array.init 6 (fun i ->
                if i < k then tr.Npn.perm.(i) else i) in
            r := Tt.permute !r full_perm;
            for i = 0 to k - 1 do
              if tr.Npn.phase land (1 lsl i) <> 0 then r := Tt.flip !r i
            done;
            if tr.Npn.neg then r := Tt.bnot !r;
            if (Tt.words !r).(0) <> v then ok := false
          end);
      !ok)

(* The word-level cofactor of the fault layer equals Tt's on every
   variable of a random 6-input table. *)
let prop_npn_cofactor =
  QCheck.Test.make ~name:"cofactor matches Tt reference" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 0 5) bool))
    (fun (i, b) ->
      let t = random_tt 6 in
      let r = if b then Tt.cofactor1 t i else Tt.cofactor0 t i in
      Npn.cofactor (Tt.words t).(0) i b = (Tt.words r).(0))

let prop_npn_canonical_invariant =
  QCheck.Test.make ~name:"canonical invariant under variants" ~count:20
    (QCheck.make QCheck.Gen.(int_range 1 4))
    (fun k ->
      let t = ref (tt6_of_word (Rand64.next rng)) in
      for i = k to 5 do
        t := Tt.cofactor0 !t i
      done;
      let base = (Tt.words !t).(0) in
      let c = Npn.canonical k base in
      let ok = ref true in
      let seen = ref 0 in
      Npn.enumerate k base (fun v _ ->
          if !seen < 32 then begin
            incr seen;
            if Npn.canonical k v <> c then ok := false
          end);
      !ok)

let test_npn_class_counts () =
  (* Known values: 4 NPN classes of 2-var functions, 14 of 3-var. *)
  Alcotest.(check int) "npn classes n=2" 4 (Npn.num_classes 2);
  Alcotest.(check int) "npn classes n=3" 14 (Npn.num_classes 3)

let test_npn_class_count_4 () =
  (* The classic result: 222 NPN classes of 4-variable functions. *)
  Alcotest.(check int) "npn classes n=4" 222 (Npn.num_classes 4)

(* Truth-table words must spread over a table's buckets, which
   [Hashtbl.Make] picks from the hash's low bits.  Two families of 65,536
   words: the 4-input tables replicated to a word, to which the generic
   [Hashtbl.hash] gives one value, and the 6-input tables x5·x4·h(x0..x3),
   whose low 48 bits are all 0. *)
let test_word_hash_spread () =
  let distinct f =
    List.length (List.sort_uniq compare (List.init 0x10000 f))
  in
  let replicated b = (Tt.words (Tt.of_bits 4 (Int64.of_int b))).(0) in
  let high b = Int64.shift_left (Int64.of_int b) 48 in
  Alcotest.(check bool) ">= 30,000 distinct hashes" true
    (distinct (fun b -> Word_tbl.hash (replicated b)) >= 30_000);
  List.iter
    (fun (name, word) ->
      Alcotest.(check bool) (name ^ ": >= 4,000 of 4,096 buckets") true
        (distinct (fun b -> Word_tbl.hash (word b) land 4095) >= 4_000))
    [ ("replicated 4-input", replicated); ("x5 x4 h(x0..x3)", high) ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ttab"
    [
      ( "tt-basics",
        [
          Alcotest.test_case "constants" `Quick test_consts;
          Alcotest.test_case "projections" `Quick test_var;
          Alcotest.test_case "pointwise ops" `Quick test_ops;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "extend" `Quick test_extend;
        ] );
      ( "tt-props",
        [
          qt prop_shannon;
          qt prop_cofactor_vacuous;
          qt prop_flip_involutive;
          qt prop_flip_semantics;
          qt prop_swap_adjacent;
          qt prop_swap;
          qt prop_permute;
          qt prop_count_ones;
          qt prop_shrink;
        ] );
      ( "npn",
        [
          qt prop_npn_variants;
          qt prop_npn_cofactor;
          qt prop_npn_canonical_invariant;
          Alcotest.test_case "class counts 2,3" `Quick test_npn_class_counts;
          Alcotest.test_case "class count 4" `Slow test_npn_class_count_4;
        ] );
      ( "word-tbl",
        [ Alcotest.test_case "hash spread" `Quick test_word_hash_spread ] );
    ]
