

type lit = int

(* The strash is an open-addressing table over flat int arrays: each bucket
   holds a node id whose (fanin0, fanin1) pair is the key, [-1] marks an
   empty bucket and [-2] a tombstone left by deletion (rollback /
   unsafe_set_and).  Keys are never stored — they are read back from the
   fanin arrays — so the table costs one word per bucket and stays cache
   friendly at millions of nodes.  [hused] counts live entries plus
   tombstones; empties are kept at >= 25% of capacity so linear probes
   always terminate. *)

type t = {
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable num : int;
  mutable ninputs : int;
  mutable onames : string array;
  mutable olits : int array;
  mutable nouts : int;
  mutable inames : string array;
  mutable htab : int array;
  mutable hmask : int;
  mutable hlive : int;
  mutable hused : int;
}

let lit_false = 0
let lit_true = 1
let lnot l = l lxor 1
let node_of l = l lsr 1
let is_compl l = l land 1 = 1
let lit_of_node ?(compl = false) n = (n lsl 1) lor (if compl then 1 else 0)

let next_pow2 n =
  let c = ref 1 in
  while !c < n do
    c := !c lsl 1
  done;
  !c

let create ?(size_hint = 256) () =
  let hcap = next_pow2 (max 32 (2 * size_hint)) in
  {
    fanin0 = Array.make (max size_hint 4) (-1);
    fanin1 = Array.make (max size_hint 4) (-1);
    num = 1;
    (* node 0 is the constant *)
    ninputs = 0;
    onames = Array.make 8 "";
    olits = Array.make 8 0;
    nouts = 0;
    inames = Array.make 8 "";
    htab = Array.make hcap (-1);
    hmask = hcap - 1;
    hlive = 0;
    hused = 0;
  }

let grow_nodes t =
  let n = Array.length t.fanin0 in
  let f0 = Array.make (2 * n) (-1) and f1 = Array.make (2 * n) (-1) in
  Array.blit t.fanin0 0 f0 0 n;
  Array.blit t.fanin1 0 f1 0 n;
  t.fanin0 <- f0;
  t.fanin1 <- f1

let new_node t =
  if t.num >= Array.length t.fanin0 then grow_nodes t;
  let id = t.num in
  t.num <- id + 1;
  id

let add_input ?(name = "") t =
  if t.num > t.ninputs + 1 then
    invalid_arg "Aig.add_input: inputs must precede AND nodes";
  let id = new_node t in
  let name = if name = "" then Printf.sprintf "i%d" (id - 1) else name in
  if t.ninputs >= Array.length t.inames then begin
    let a = Array.make (2 * Array.length t.inames) "" in
    Array.blit t.inames 0 a 0 t.ninputs;
    t.inames <- a
  end;
  t.inames.(t.ninputs) <- name;
  t.ninputs <- t.ninputs + 1;
  lit_of_node id

let hash_pair f0 f1 =
  let h = (f0 * 0x2545f491) lxor (f1 * 0x9e3779b9) in
  (h lxor (h lsr 17)) land max_int

(* Rebuild into a table of capacity [cap], dropping tombstones.  Every live
   bucket's node still has the fanins it was inserted under (both deleters
   remove the binding before/while mutating), so keys can be re-read from
   the fanin arrays. *)
let strash_rehash t cap =
  let old = t.htab in
  let nt = Array.make cap (-1) in
  let mask = cap - 1 in
  Array.iter
    (fun id ->
      if id >= 0 then begin
        let i = ref (hash_pair t.fanin0.(id) t.fanin1.(id) land mask) in
        while nt.(!i) >= 0 do
          i := (!i + 1) land mask
        done;
        nt.(!i) <- id
      end)
    old;
  t.htab <- nt;
  t.hmask <- mask;
  t.hused <- t.hlive

(* Keep occupancy (live + tombstones) under 75%.  Double only when the live
   load justifies it; otherwise rebuild at the same size to purge
   tombstones accumulated by rollback-heavy workloads. *)
let strash_reserve t =
  let cap = t.hmask + 1 in
  if 4 * (t.hused + 1) > 3 * cap then
    strash_rehash t (if 8 * t.hlive > 3 * cap then 2 * cap else cap)

(* Remove node [id]'s binding under key (f0, f1); no-op when absent. *)
let strash_remove t f0 f1 id =
  let mask = t.hmask in
  let i = ref (hash_pair f0 f1 land mask) in
  let continue = ref true in
  while !continue do
    let v = t.htab.(!i) in
    if v = -1 then continue := false
    else begin
      if v = id then begin
        t.htab.(!i) <- -2;
        t.hlive <- t.hlive - 1;
        continue := false
      end;
      i := (!i + 1) land mask
    end
  done

let mk_and t a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = lit_false then lit_false
  else if a = lit_true then b
  else if a = b then a
  else if a = lnot b then lit_false
  else begin
    strash_reserve t;
    let mask = t.hmask in
    let i = ref (hash_pair a b land mask) in
    let free = ref (-1) in
    let found = ref (-1) in
    let continue = ref true in
    while !continue do
      let v = t.htab.(!i) in
      if v = -1 then begin
        if !free < 0 then free := !i;
        continue := false
      end
      else begin
        if v = -2 then begin
          if !free < 0 then free := !i
        end
        else if t.fanin0.(v) = a && t.fanin1.(v) = b then begin
          found := v;
          continue := false
        end;
        i := (!i + 1) land mask
      end
    done;
    if !found >= 0 then lit_of_node !found
    else begin
      let id = new_node t in
      t.fanin0.(id) <- a;
      t.fanin1.(id) <- b;
      if t.htab.(!free) = -1 then t.hused <- t.hused + 1;
      t.htab.(!free) <- id;
      t.hlive <- t.hlive + 1;
      lit_of_node id
    end
  end

let mk_or t a b = lnot (mk_and t (lnot a) (lnot b))

let mk_xor t a b =
  (* a^b = !(a*b) * !( !a * !b ) *)
  let p = mk_and t a b in
  let q = mk_and t (lnot a) (lnot b) in
  mk_and t (lnot p) (lnot q)

let mk_mux t s a b = mk_or t (mk_and t s a) (mk_and t (lnot s) b)

let mk_and_list t = function
  | [] -> lit_true
  | l :: ls -> List.fold_left (mk_and t) l ls

let mk_or_list t = function
  | [] -> lit_false
  | l :: ls -> List.fold_left (mk_or t) l ls

let mk_maj3 t a b c =
  mk_or t (mk_and t a b) (mk_or t (mk_and t a c) (mk_and t b c))

let add_output t name l =
  if t.nouts >= Array.length t.olits then begin
    let n = Array.length t.olits in
    let on = Array.make (2 * n) "" and ol = Array.make (2 * n) 0 in
    Array.blit t.onames 0 on 0 n;
    Array.blit t.olits 0 ol 0 n;
    t.onames <- on;
    t.olits <- ol
  end;
  t.onames.(t.nouts) <- name;
  t.olits.(t.nouts) <- l;
  t.nouts <- t.nouts + 1

let set_output t i l =
  if i < 0 || i >= t.nouts then invalid_arg "Aig.set_output";
  t.olits.(i) <- l

let num_nodes t = t.num
let num_inputs t = t.ninputs
let num_ands t = t.num - 1 - t.ninputs
let num_outputs t = t.nouts
let outputs t = Array.init t.nouts (fun i -> (t.onames.(i), t.olits.(i)))
let output t i =
  if i < 0 || i >= t.nouts then invalid_arg "Aig.output";
  (t.onames.(i), t.olits.(i))

let input_lit t i =
  if i < 0 || i >= t.ninputs then invalid_arg "Aig.input_lit";
  lit_of_node (i + 1)

let input_name t i =
  if i < 0 || i >= t.ninputs then invalid_arg "Aig.input_name";
  t.inames.(i)

let is_input t n = n >= 1 && n <= t.ninputs
let is_and t n = n > t.ninputs && n < t.num
let fanin0 t n = t.fanin0.(n)
let fanin1 t n = t.fanin1.(n)

let iter_ands t f =
  for n = t.ninputs + 1 to t.num - 1 do
    f n
  done

let levels t =
  let lv = Array.make t.num 0 in
  iter_ands t (fun n ->
      lv.(n) <-
        1 + max lv.(node_of t.fanin0.(n)) lv.(node_of t.fanin1.(n)));
  lv

let depth t =
  let lv = levels t in
  let d = ref 0 in
  for i = 0 to t.nouts - 1 do
    d := max !d lv.(node_of t.olits.(i))
  done;
  !d

let fanout_counts t =
  let refs = Array.make t.num 0 in
  iter_ands t (fun n ->
      refs.(node_of t.fanin0.(n)) <- refs.(node_of t.fanin0.(n)) + 1;
      refs.(node_of t.fanin1.(n)) <- refs.(node_of t.fanin1.(n)) + 1);
  for i = 0 to t.nouts - 1 do
    let n = node_of t.olits.(i) in
    refs.(n) <- refs.(n) + 1
  done;
  refs

let mffc_size t refs root =
  if not (is_and t root) then 0
  else begin
    (* Simulate dereferencing the cone; count AND nodes whose refs drop to 0. *)
    let dec = Hashtbl.create 16 in
    let deref n =
      let d = try Hashtbl.find dec n with Not_found -> 0 in
      Hashtbl.replace dec n (d + 1);
      refs.(n) - (d + 1) = 0
    in
    let count = ref 0 in
    let rec go n =
      (* n is an AND node that is dead: count it, deref fanins. *)
      incr count;
      let visit f =
        let m = node_of f in
        if is_and t m && deref m then go m
      in
      visit t.fanin0.(n);
      visit t.fanin1.(n)
    in
    go root;
    !count
  end

let unsafe_set_and t n f0 f1 =
  if not (is_and t n) then invalid_arg "Aig.unsafe_set_and";
  strash_remove t t.fanin0.(n) t.fanin1.(n) n;
  t.fanin0.(n) <- f0;
  t.fanin1.(n) <- f1

let checkpoint t = t.num

let rollback t ckpt =
  if ckpt < t.ninputs + 1 then invalid_arg "Aig.rollback";
  for id = t.num - 1 downto ckpt do
    strash_remove t t.fanin0.(id) t.fanin1.(id) id
  done;
  t.num <- ckpt

let simulate t words =
  if Array.length words <> t.ninputs then invalid_arg "Aig.simulate";
  let v = Array.make t.num 0L in
  for i = 0 to t.ninputs - 1 do
    v.(i + 1) <- words.(i)
  done;
  let litv l =
    let x = v.(node_of l) in
    if is_compl l then Int64.lognot x else x
  in
  iter_ands t (fun n -> v.(n) <- Int64.logand (litv t.fanin0.(n)) (litv t.fanin1.(n)));
  v

let simulate_outputs t words =
  let v = simulate t words in
  Array.init t.nouts (fun i ->
      let l = t.olits.(i) in
      let x = v.(node_of l) in
      if is_compl l then Int64.lognot x else x)

let eval t bits =
  let words = Array.map (fun b -> if b then -1L else 0L) bits in
  let out = simulate_outputs t words in
  Array.map (fun w -> Int64.logand w 1L <> 0L) out

let tt_of_cut t root leaves =
  let k = Array.length leaves in
  if k > Tt.max_vars then invalid_arg "Aig.tt_of_cut: too many leaves";
  let map = Hashtbl.create 32 in
  Hashtbl.add map 0 (Tt.const0 k);
  Array.iteri (fun i n -> Hashtbl.replace map n (Tt.var k i)) leaves;
  let rec go n =
    match Hashtbl.find_opt map n with
    | Some tt -> tt
    | None ->
        if not (is_and t n) then
          invalid_arg "Aig.tt_of_cut: leaves do not cut the cone";
        let f0 = t.fanin0.(n) and f1 = t.fanin1.(n) in
        let t0 = go (node_of f0) and t1 = go (node_of f1) in
        let t0 = if is_compl f0 then Tt.bnot t0 else t0 in
        let t1 = if is_compl f1 then Tt.bnot t1 else t1 in
        let tt = Tt.band t0 t1 in
        Hashtbl.add map n tt;
        tt
  in
  let tt = go (node_of root) in
  if is_compl root then Tt.bnot tt else tt

let tt_of_lit t l =
  let leaves = Array.init t.ninputs (fun i -> i + 1) in
  tt_of_cut t l leaves

let extract t outs =
  let fresh = create ~size_hint:t.num () in
  let map = Array.make t.num (-1) in
  map.(0) <- lit_false;
  for i = 0 to t.ninputs - 1 do
    map.(i + 1) <- add_input ~name:t.inames.(i) fresh
  done;
  let rec copy n =
    let l = map.(n) in
    if l >= 0 then l
    else begin
      let f0 = t.fanin0.(n) and f1 = t.fanin1.(n) in
      let a = copy (node_of f0) in
      let b = copy (node_of f1) in
      let a = if is_compl f0 then lnot a else a in
      let b = if is_compl f1 then lnot b else b in
      let l = mk_and fresh a b in
      map.(n) <- l;
      l
    end
  in
  List.iter
    (fun (name, l) ->
      let nl = copy (node_of l) in
      add_output fresh name (if is_compl l then lnot nl else nl))
    outs;
  (fresh, map)

let cleanup t =
  let outs = Array.to_list (outputs t) in
  fst (extract t outs)

let pp_stats fmt t =
  Format.fprintf fmt "i/o = %d/%d  and = %d  depth = %d" t.ninputs t.nouts
    (num_ands t) (depth t)
