type t = Aig.lit array

let inputs g name n =
  Array.init n (fun i -> Aig.add_input ~name:(Printf.sprintf "%s%d" name i) g)

let outputs g name v =
  Array.iteri
    (fun i l -> Aig.add_output g (Printf.sprintf "%s%d" name i) l)
    v

let const_of_int n v =
  Array.init n (fun i ->
      if v land (1 lsl i) <> 0 then Aig.lit_true else Aig.lit_false)

let width = Array.length

let check_same a b name = if width a <> width b then invalid_arg name

let bnot a = Array.map Aig.lnot a
let band g a b = check_same a b "Bitvec.band"; Array.map2 (Aig.mk_and g) a b
let bor g a b = check_same a b "Bitvec.bor"; Array.map2 (Aig.mk_or g) a b
let bxor g a b = check_same a b "Bitvec.bxor"; Array.map2 (Aig.mk_xor g) a b

let full_adder g a b c =
  let axb = Aig.mk_xor g a b in
  let s = Aig.mk_xor g axb c in
  let carry = Aig.mk_or g (Aig.mk_and g a b) (Aig.mk_and g axb c) in
  (s, carry)

let add g ?(cin = Aig.lit_false) a b =
  check_same a b "Bitvec.add";
  let n = width a in
  let sum = Array.make n Aig.lit_false in
  let carry = ref cin in
  for i = 0 to n - 1 do
    let s, c = full_adder g a.(i) b.(i) !carry in
    sum.(i) <- s;
    carry := c
  done;
  (sum, !carry)

let sub g a b = add g ~cin:Aig.lit_true a (bnot b)

let mul g a b =
  (* Column-wise carry-save array: partial products land in their column,
     and each column is reduced with full/half adders whose carries feed
     the next column — the classical structure of the C6288 benchmark. *)
  let na = width a and nb = width b in
  let n = na + nb in
  let cols = Array.make (n + 1) [] in
  for j = 0 to nb - 1 do
    for i = 0 to na - 1 do
      cols.(i + j) <- Aig.mk_and g a.(i) b.(j) :: cols.(i + j)
    done
  done;
  let result = Array.make n Aig.lit_false in
  for k = 0 to n - 1 do
    let rec reduce bits =
      match bits with
      | [] -> Aig.lit_false
      | [ x ] -> x
      | [ x; y ] ->
          let s, c = full_adder g x y Aig.lit_false in
          cols.(k + 1) <- c :: cols.(k + 1);
          s
      | x :: y :: z :: rest ->
          let s, c = full_adder g x y z in
          cols.(k + 1) <- c :: cols.(k + 1);
          (* queue order keeps the reduction tree balanced *)
          reduce (rest @ [ s ])
    in
    result.(k) <- reduce cols.(k)
  done;
  result

let mux g s a b =
  check_same a b "Bitvec.mux";
  Array.map2 (fun x y -> Aig.mk_mux g s x y) a b

let mux_tree g sel ways =
  let n = Array.length ways in
  if n = 0 then invalid_arg "Bitvec.mux_tree";
  if n <> 1 lsl width sel then invalid_arg "Bitvec.mux_tree: size mismatch";
  let rec go lo n level =
    if n = 1 then ways.(lo)
    else
      let half = n / 2 in
      let a = go (lo + half) half (level - 1) in
      let b = go lo half (level - 1) in
      mux g sel.(level) a b
  in
  go 0 n (width sel - 1)

let equal g a b =
  check_same a b "Bitvec.equal";
  let bits = Array.map2 (fun x y -> Aig.lnot (Aig.mk_xor g x y)) a b in
  Array.fold_left (Aig.mk_and g) Aig.lit_true bits

let ult g a b =
  (* a < b  <=>  borrow out of a - b *)
  let _, not_borrow = sub g a b in
  Aig.lnot not_borrow

let parity g v = Array.fold_left (Aig.mk_xor g) Aig.lit_false v
let reduce_or g v = Array.fold_left (Aig.mk_or g) Aig.lit_false v

let shift_left g v amount =
  let n = width v in
  let cur = ref v in
  Array.iteri
    (fun k s ->
      let d = 1 lsl k in
      let shifted =
        Array.init n (fun i -> if i >= d then !cur.(i - d) else Aig.lit_false)
      in
      cur := mux g s shifted !cur)
    amount;
  !cur

let shift_right g v amount =
  let n = width v in
  let cur = ref v in
  Array.iteri
    (fun k s ->
      let d = 1 lsl k in
      let shifted =
        Array.init n (fun i ->
            if i + d < n then !cur.(i + d) else Aig.lit_false)
      in
      cur := mux g s shifted !cur)
    amount;
  !cur

let select v idxs = Array.of_list (List.map (fun i -> v.(i)) idxs)
