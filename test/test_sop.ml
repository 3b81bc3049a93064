(* Tests for cube algebra, the Minato–Morreale ISOP and algebraic factoring. *)

let rng = Rand64.create 11L

let random_tt n =
  if n <= 6 then Tt.of_bits n (Rand64.next rng)
  else Tt.of_words n (Array.init (1 lsl (n - 6)) (fun _ -> Rand64.next rng))

(* [embedding n k f] scatters the [k]-variable table [f] over [n >= k]
   variables under a random injective variable map: the shape refactor's
   wide cuts hand the kernel, whose recursion then skips every vacuous
   variable. *)
let embedding n k =
  let vars = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rand64.int rng (i + 1) in
    let t = vars.(i) in
    vars.(i) <- vars.(j);
    vars.(j) <- t
  done;
  fun f ->
    Tt.of_fun n (fun a ->
        let b = ref 0 in
        for i = 0 to k - 1 do
          if a land (1 lsl vars.(i)) <> 0 then b := !b lor (1 lsl i)
        done;
        Tt.eval f !b)

let embedded_tt n k = embedding n k (random_tt k)

(* Dense up to 10 variables; above that a support of at most 6 embedded
   in up to 16, so the properties reach n = 0 and the wide levels of the
   kernel without quadratic checks over thousands of cubes. *)
let gen_tt n = if n <= 10 then random_tt n else embedded_tt n (Rand64.int rng 7)

let arb_tt =
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Tt.pp t)
    QCheck.Gen.(int_range 0 16 >>= fun n -> return (gen_tt n))

(* ---- the seed kernels, kept as differential oracles ---- *)

(* Minato–Morreale over [Tt.t] values, starting the top-variable scan at
   [hint - 1]: the kernel [Sop.isop_lu] must return exactly this cover. *)
let rec isop_rec n hint lower upper =
  if Tt.is_const0 lower then ([], Tt.const0 n)
  else begin
    let top_var =
      let rec go i =
        if i < 0 then -1
        else if Tt.depends_on lower i || Tt.depends_on upper i then i
        else go (i - 1)
      in
      go (hint - 1)
    in
    if top_var < 0 then ([ Cube.top ], Tt.const1 n)
    else begin
      let x = top_var in
      let l0 = Tt.cofactor0 lower x and l1 = Tt.cofactor1 lower x in
      let u0 = Tt.cofactor0 upper x and u1 = Tt.cofactor1 upper x in
      let c0, t0 = isop_rec n x (Tt.bandn l0 u1) u0 in
      let c1, t1 = isop_rec n x (Tt.bandn l1 u0) u1 in
      let lnew = Tt.bor (Tt.bandn l0 t0) (Tt.bandn l1 t1) in
      let cd, td = isop_rec n x lnew (Tt.band u0 u1) in
      let add_lit sign c =
        match Cube.and_lit c x sign with
        | Some c -> c
        | None -> assert false
      in
      let cover =
        List.map (add_lit false) c0 @ List.map (add_lit true) c1 @ cd
      in
      let v = Tt.var n x in
      (cover, Tt.bor (Tt.bor (Tt.bandn t0 v) (Tt.band t1 v)) td)
    end
  end

let oracle_isop_lu lower upper =
  let n = Tt.nvars lower in
  if n <> Tt.nvars upper then invalid_arg "Sop.isop_lu";
  if not (Tt.is_const0 (Tt.bandn lower upper)) then
    invalid_arg "Sop.isop_lu: lower not contained in upper";
  let cover, tt = isop_rec n n lower upper in
  assert (Tt.is_const0 (Tt.bandn lower tt));
  assert (Tt.is_const0 (Tt.bandn tt upper));
  Sop.make n cover

(* Literal counts in a [Hashtbl]; the winner is whatever [Hashtbl.fold]
   meets first among the most frequent literals. *)
let oracle_best_literal cubes =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun lit ->
          let n = try Hashtbl.find counts lit with Not_found -> 0 in
          Hashtbl.replace counts lit (n + 1))
        (Cube.literals c))
    cubes;
  Hashtbl.fold
    (fun lit n best ->
      match best with
      | Some (_, m) when m >= n -> best
      | _ when n >= 2 -> Some (lit, n)
      | _ -> best)
    counts None

let rec oracle_factor_cubes cubes =
  let open Factored in
  match cubes with
  | [] -> Const false
  | [ c ] -> of_cube c
  | _ -> (
      match oracle_best_literal cubes with
      | None -> Or (List.map of_cube cubes)
      | Some ((i, sign), _) ->
          let with_l, without =
            List.partition
              (fun c -> if sign then Cube.has_pos c i else Cube.has_neg c i)
              cubes
          in
          let quotient = List.map (fun c -> Cube.remove_var c i) with_l in
          let lhs =
            match oracle_factor_cubes quotient with
            | Const true -> Lit (i, sign)
            | And fs -> And (Lit (i, sign) :: fs)
            | f -> And [ Lit (i, sign); f ]
          in
          if without = [] then lhs
          else
            match oracle_factor_cubes without with
            | Or fs -> Or (lhs :: fs)
            | f -> Or [ lhs; f ])

let test_cube_basics () =
  let c = Cube.of_literals [ (0, true); (3, false) ] in
  Alcotest.(check int) "literal count" 2 (Cube.num_literals c);
  Alcotest.(check bool) "has pos 0" true (Cube.has_pos c 0);
  Alcotest.(check bool) "has neg 3" true (Cube.has_neg c 3);
  Alcotest.(check bool) "eval 0b0001" true (Cube.evaluates c 0b0001);
  Alcotest.(check bool) "eval 0b1001" false (Cube.evaluates c 0b1001);
  Alcotest.(check bool) "top contains" true (Cube.contains Cube.top c);
  Alcotest.(check bool) "not contained" false (Cube.contains c Cube.top);
  (match Cube.and_lit c 0 false with
  | None -> ()
  | Some _ -> Alcotest.fail "contradiction accepted");
  let c' = Cube.remove_var c 3 in
  Alcotest.(check int) "after removal" 1 (Cube.num_literals c')

let test_cube_contradiction () =
  Alcotest.check_raises "of_literals contradiction"
    (Invalid_argument "Cube.of_literals: contradiction") (fun () ->
      ignore (Cube.of_literals [ (1, true); (1, false) ]))

let prop_cube_tt =
  QCheck.Test.make ~name:"cube to_tt matches evaluates" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (p, q) ->
      let pos = p land lnot q and neg = q land lnot p in
      let c = { Cube.pos; neg } in
      let n = 8 in
      let tt = Cube.to_tt n c in
      let ok = ref true in
      for a = 0 to (1 lsl n) - 1 do
        if Tt.eval tt a <> Cube.evaluates c a then ok := false
      done;
      !ok)

let prop_isop_exact =
  QCheck.Test.make ~name:"isop cover equals function" ~count:300 arb_tt
    (fun t ->
      let s = Sop.isop t in
      Tt.equal (Sop.to_tt s) t)

let prop_isop_irredundant =
  QCheck.Test.make ~name:"isop cover is irredundant" ~count:100 arb_tt
    (fun t ->
      let s = Sop.isop t in
      let n = Tt.nvars t in
      (* dropping any single cube must lose some minterm *)
      List.for_all
        (fun c ->
          let rest = List.filter (fun d -> d <> c) s.Sop.cubes in
          not (Tt.equal (Sop.to_tt (Sop.make n rest)) t))
        s.Sop.cubes)

let arb_tt_pair =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a / %a" Tt.pp a Tt.pp b)
    QCheck.Gen.(
      int_range 0 16 >>= fun n ->
      let a = gen_tt n in
      return (a, gen_tt n))

let prop_isop_lu_bounds =
  QCheck.Test.make ~name:"isop_lu lies within bounds" ~count:300 arb_tt_pair
    (fun (a, b) ->
      let lower = Tt.band a b and upper = Tt.bor a b in
      let s = Sop.isop_lu lower upper in
      let f = Sop.to_tt s in
      Tt.is_const0 (Tt.bandn lower f) && Tt.is_const0 (Tt.bandn f upper))

let prop_factor_equal =
  QCheck.Test.make ~name:"factored form equals cover" ~count:300 arb_tt
    (fun t ->
      let s = Sop.isop t in
      let f = Factored.factor s in
      Tt.equal (Factored.to_tt (Tt.nvars t) f) t)

let prop_factor_no_more_literals =
  QCheck.Test.make ~name:"factoring does not add literals" ~count:200 arb_tt
    (fun t ->
      let s = Sop.isop t in
      Factored.num_literals (Factored.factor s) <= Sop.num_literals s)

let test_factor_examples () =
  (* f = a*b + a*c: factoring must produce 3 literals, not 4. *)
  let n = 3 in
  let a = Tt.var n 0 and b = Tt.var n 1 and c = Tt.var n 2 in
  let f = Tt.bor (Tt.band a b) (Tt.band a c) in
  let form = Factored.factor (Sop.isop f) in
  Alcotest.(check int) "a(b+c) has 3 literals" 3 (Factored.num_literals form);
  (* xor needs 4 literals in SOP *)
  let x = Tt.bxor a b in
  let sx = Sop.isop x in
  Alcotest.(check int) "xor cubes" 2 (Sop.num_cubes sx);
  Alcotest.(check int) "xor literals" 4 (Sop.num_literals sx)

let test_isop_constants () =
  let s0 = Sop.isop (Tt.const0 4) in
  Alcotest.(check int) "const0 cubes" 0 (Sop.num_cubes s0);
  let s1 = Sop.isop (Tt.const1 4) in
  Alcotest.(check int) "const1 cubes" 1 (Sop.num_cubes s1);
  Alcotest.(check int) "const1 literals" 0 (Sop.num_literals s1)

let test_isop_big () =
  (* 10-variable parity: ISOP must have 512 cubes of 10 literals. *)
  let n = 10 in
  let parity =
    List.fold_left
      (fun acc i -> Tt.bxor acc (Tt.var n i))
      (Tt.const0 n)
      (List.init n (fun i -> i))
  in
  let s = Sop.isop parity in
  Alcotest.(check int) "parity cubes" 512 (Sop.num_cubes s);
  Alcotest.(check bool) "parity exact" true (Tt.equal (Sop.to_tt s) parity)

(* ---- the kernels against the seed oracles, exact equality ---- *)

let same_sop what lower upper =
  let got = Sop.isop_lu lower upper
  and want = oracle_isop_lu lower upper in
  if got <> want then
    Alcotest.failf "%s: cover differs on %a / %a" what Tt.pp lower Tt.pp
      upper;
  let f = Factored.factor got in
  if f <> oracle_factor_cubes got.Sop.cubes then
    Alcotest.failf "%s: factored form differs on %a" what Tt.pp lower

(* Dense tables of 0..10 variables at three densities, each completely
   specified and with random don't-cares. *)
let test_isop_dense () =
  for n = 0 to 10 do
    for r = 1 to (if n <= 6 then 150 else if n <= 8 then 60 else 20) do
      let a = random_tt n and b = random_tt n in
      let t =
        match r mod 3 with
        | 0 -> a
        | 1 -> Tt.band a b
        | _ -> Tt.bor a b
      in
      same_sop (Printf.sprintf "n=%d" n) t t;
      let dc = Tt.band (random_tt n) (random_tt n) in
      same_sop
        (Printf.sprintf "n=%d dc" n)
        (Tt.bandn t dc) (Tt.bor t dc)
    done
  done

(* Supports of up to 8 variables scattered over 0..16, with and without
   don't-cares over the same support. *)
let test_isop_embedded () =
  for n = 0 to 16 do
    for k = 0 to min n 8 do
      for _ = 1 to (if n <= 12 then 3 else 1) do
        let embed = embedding n k in
        let t = embed (random_tt k) in
        same_sop (Printf.sprintf "n=%d k=%d" n k) t t;
        let dc = embed (Tt.band (random_tt k) (random_tt k)) in
        same_sop
          (Printf.sprintf "n=%d k=%d dc" n k)
          (Tt.bandn t dc) (Tt.bor t dc)
      done
    done
  done

let raises_assert f =
  match f () with
  | _ -> false
  | exception Assert_failure _ -> true

(* A table of n <= 5 variables whose word is not replicated breaks
   {!Tt.of_words}' contract; the postconditions read both halves of every
   word, so the kernel trips on it exactly where the seed kernel did. *)
let test_isop_checks () =
  List.iter
    (fun (n, w) ->
      let t = Tt.of_words n [| w |] in
      Alcotest.(check bool)
        (Printf.sprintf "seed asserts on %d/%Lx" n w)
        true
        (raises_assert (fun () -> oracle_isop_lu t t));
      Alcotest.(check bool)
        (Printf.sprintf "kernel asserts on %d/%Lx" n w)
        true
        (raises_assert (fun () -> Sop.isop t)))
    [ (3, 0xFFL); (3, 0xFF00000000000000L); (5, 0x1234L); (0, 1L) ];
  Alcotest.check_raises "variable counts differ"
    (Invalid_argument "Sop.isop_lu") (fun () ->
      ignore (Sop.isop_lu (Tt.const0 3) (Tt.const1 4)));
  Alcotest.check_raises "lower not in upper"
    (Invalid_argument "Sop.isop_lu: lower not contained in upper")
    (fun () -> ignore (Sop.isop_lu (Tt.var 7 6) (Tt.var 7 5)))

(* Random covers, not only ISOP output: contradiction-free cubes over up
   to 16 variables, factored by the kernel and by the seed oracle. *)
let prop_factor_oracle =
  QCheck.Test.make ~name:"factoring matches seed factoring" ~count:500
    QCheck.(pair (int_range 0 16) (int_range 0 40))
    (fun (n, m) ->
      let cube () =
        let p = ref 0 and q = ref 0 in
        for i = 0 to n - 1 do
          match Rand64.int rng 3 with
          | 0 -> p := !p lor (1 lsl i)
          | 1 -> q := !q lor (1 lsl i)
          | _ -> ()
        done;
        { Cube.pos = !p; neg = !q }
      in
      let cubes = List.init m (fun _ -> cube ()) in
      Factored.factor (Sop.make n cubes) = oracle_factor_cubes cubes)

(* Two literals tie on the highest count: the choice must be the one the
   seed's Hashtbl walk made, for literals in different buckets and in the
   same bucket, each in both first-seen orders. *)
let test_factor_ties () =
  let bucket l = Hashtbl.hash l land 15 in
  let lits =
    List.concat_map (fun i -> [ (i, true); (i, false) ]) (List.init 16 Fun.id)
  in
  let pair same =
    List.find_map
      (fun a ->
        List.find_opt
          (fun b -> fst a <> fst b && (bucket a = bucket b) = same)
          lits
        |> Option.map (fun b -> (a, b)))
      lits
    |> Option.get
  in
  List.iter
    (fun (name, (a, b)) ->
      let other = List.find (fun (i, _) -> i <> fst a && i <> fst b) lits in
      (* a and b twice each, [other] once *)
      let fixture a b =
        List.map Cube.of_literals [ [ a; other ]; [ b ]; [ a; b ] ]
      in
      List.iter
        (fun (order, cubes) ->
          Alcotest.(check bool) (name ^ ", " ^ order) true
            (Factored.factor (Sop.make 16 cubes) = oracle_factor_cubes cubes))
        [ ("a first", fixture a b); ("b first", fixture b a) ])
    [ ("different buckets", pair false); ("same bucket", pair true) ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sop"
    [
      ( "cube",
        [
          Alcotest.test_case "basics" `Quick test_cube_basics;
          Alcotest.test_case "contradiction" `Quick test_cube_contradiction;
          qt prop_cube_tt;
        ] );
      ( "isop",
        [
          Alcotest.test_case "constants" `Quick test_isop_constants;
          Alcotest.test_case "parity-10" `Quick test_isop_big;
          qt prop_isop_exact;
          qt prop_isop_irredundant;
          qt prop_isop_lu_bounds;
          Alcotest.test_case "matches seed kernel, dense n<=10" `Quick
            test_isop_dense;
          Alcotest.test_case "matches seed kernel, embedded n<=16" `Quick
            test_isop_embedded;
          Alcotest.test_case "malformed tables and bad bounds" `Quick
            test_isop_checks;
        ] );
      ( "factoring",
        [
          Alcotest.test_case "examples" `Quick test_factor_examples;
          qt prop_factor_equal;
          qt prop_factor_no_more_literals;
          qt prop_factor_oracle;
          Alcotest.test_case "literal count ties" `Quick test_factor_ties;
        ] );
    ]
