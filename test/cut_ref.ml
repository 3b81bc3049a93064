(* The seed list-of-records cut enumerator: the oracle the packed engine
   ([Cut.compute_packed]) is tested against.  For every node it keeps the
   [limit - 1] smallest dominance-filtered cuts in (leaf count,
   lexicographic leaves) order, then the trivial cut, always last. *)

type t = { leaves : int array; sign : int }

let trivial n = { leaves = [| n |]; sign = Cut.signature [| n |] }
let size c = Array.length c.leaves

(* [dominates a b]: [a]'s leaves are a subset of [b]'s. *)
let dominates a b =
  a.sign land b.sign = a.sign
  && Array.length a.leaves <= Array.length b.leaves
  &&
  (* both sorted: subset test by merge *)
  let la = a.leaves and lb = b.leaves in
  let na = Array.length la and nb = Array.length lb in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else if la.(i) = lb.(j) then go (i + 1) (j + 1)
    else if la.(i) > lb.(j) then go i (j + 1)
    else false
  in
  go 0 0

(* Merge two sorted leaf arrays; None if the union exceeds k. *)
let merge k a b =
  let na = Array.length a and nb = Array.length b in
  let buf = Array.make k 0 in
  let rec go i j m =
    if i >= na && j >= nb then Some m
    else if m >= k then None
    else if i >= na then begin
      buf.(m) <- b.(j);
      go i (j + 1) (m + 1)
    end
    else if j >= nb then begin
      buf.(m) <- a.(i);
      go (i + 1) j (m + 1)
    end
    else if a.(i) = b.(j) then begin
      buf.(m) <- a.(i);
      go (i + 1) (j + 1) (m + 1)
    end
    else if a.(i) < b.(j) then begin
      buf.(m) <- a.(i);
      go (i + 1) j (m + 1)
    end
    else begin
      buf.(m) <- b.(j);
      go i (j + 1) (m + 1)
    end
  in
  match go 0 0 0 with
  | None -> None
  | Some m ->
      let leaves = Array.sub buf 0 m in
      Some { leaves; sign = Cut.signature leaves }

let compute aig ~k ~limit =
  if k < 2 || k > 16 then invalid_arg "Cut_ref.compute";
  let n = Aig.num_nodes aig in
  let cuts = Array.make n [] in
  cuts.(0) <- [ trivial 0 ];
  for i = 1 to Aig.num_inputs aig do
    cuts.(i) <- [ trivial i ]
  done;
  Aig.iter_ands aig (fun nd ->
      let c0 = cuts.(Aig.node_of (Aig.fanin0 aig nd)) in
      let c1 = cuts.(Aig.node_of (Aig.fanin1 aig nd)) in
      let acc = ref [] in
      let insert c =
        (* Drop if dominated by an existing cut; remove cuts it dominates. *)
        if not (List.exists (fun d -> dominates d c) !acc) then
          acc := c :: List.filter (fun d -> not (dominates c d)) !acc
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              match merge k a.leaves b.leaves with
              | Some c -> insert c
              | None -> ())
            c1)
        c0;
      let sorted =
        List.sort
          (fun a b ->
            let c = compare (size a) (size b) in
            if c <> 0 then c else compare a.leaves b.leaves)
          !acc
      in
      let take n l =
        (* first [n] elements, tail-recursively (wide nodes produce long
           candidate lists) *)
        let rec go acc n = function
          | [] -> List.rev acc
          | _ when n = 0 -> List.rev acc
          | x :: xs -> go (x :: acc) (n - 1) xs
        in
        go [] n l
      in
      cuts.(nd) <- take (limit - 1) sorted @ [ trivial nd ]);
  cuts
