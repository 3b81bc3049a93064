let mask1 =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let mask0 = Array.map Int64.lognot mask1

let flip t i =
  let d = 1 lsl i in
  Int64.(logor
           (shift_right_logical (logand t mask1.(i)) d)
           (shift_left (logand t mask0.(i)) d))

let cofactor t i b =
  let d = 1 lsl i in
  if b then
    let z = Int64.logand t mask1.(i) in
    Int64.(logor z (shift_right_logical z d))
  else
    let z = Int64.logand t mask0.(i) in
    Int64.(logor z (shift_left z d))

let swap_adjacent t i =
  let d = 1 lsl i in
  let hi_lo = Int64.logand mask1.(i + 1) mask0.(i) in
  let lo_hi = Int64.logand mask0.(i + 1) mask1.(i) in
  let keep = Int64.lognot (Int64.logor hi_lo lo_hi) in
  Int64.(logor (logand t keep)
           (logor
              (shift_left (logand t lo_hi) d)
              (shift_right_logical (logand t hi_lo) d)))

let swap t i j =
  if i = j then t
  else begin
    let i, j = if i < j then (i, j) else (j, i) in
    let r = ref t in
    for k = i to j - 1 do r := swap_adjacent !r k done;
    for k = j - 2 downto i do r := swap_adjacent !r k done;
    !r
  end

let permute t p =
  let n = Array.length p in
  let pos = Array.init 6 (fun i -> i) in
  let at = Array.init 6 (fun i -> i) in
  let r = ref t in
  for i = 0 to n - 1 do
    let v = p.(i) in
    let cur = pos.(v) in
    if cur <> i then begin
      r := swap !r i cur;
      let u = at.(i) in
      at.(i) <- v; at.(cur) <- u;
      pos.(v) <- i; pos.(u) <- cur
    end
  done;
  !r

let apply_phase t mask =
  let r = ref t in
  for i = 0 to 5 do
    if mask land (1 lsl i) <> 0 then r := flip !r i
  done;
  !r

type transform = { perm : int array; phase : int; neg : bool }

let identity k = { perm = Array.init k (fun i -> i); phase = 0; neg = false }

(* Number of trailing zeros of a positive int. *)
let ntz x =
  let rec go x i = if x land 1 = 1 then i else go (x lsr 1) (i + 1) in
  go x 0

let iter_permutations k f =
  let a = Array.init k (fun i -> i) in
  let rec go m =
    if m = k then f (Array.copy a)
    else
      for i = m to k - 1 do
        let tmp = a.(m) in a.(m) <- a.(i); a.(i) <- tmp;
        go (m + 1);
        let tmp = a.(m) in a.(m) <- a.(i); a.(i) <- tmp
      done
  in
  go 0

let enumerate k t f =
  if k < 0 || k > 6 then invalid_arg "Npn.enumerate";
  iter_permutations k (fun p ->
      let base = permute t p in
      (* Walk phases in Gray-code order: one flip per step. *)
      let cur = ref base in
      let phase = ref 0 in
      f !cur { perm = p; phase = 0; neg = false };
      f (Int64.lognot !cur) { perm = p; phase = 0; neg = true };
      for g = 1 to (1 lsl k) - 1 do
        let bit = ntz g in
        cur := flip !cur bit;
        phase := !phase lxor (1 lsl bit);
        f !cur { perm = p; phase = !phase; neg = false };
        f (Int64.lognot !cur) { perm = p; phase = !phase; neg = true }
      done)

let ule a b =
  (* unsigned 64-bit comparison *)
  Int64.unsigned_compare a b <= 0

let canonical k t =
  let best = ref t in
  enumerate k t (fun v _ -> if not (ule !best v) then best := v);
  !best

(* [t] depends on in-word variable [i] iff some [x_i = 0] position differs
   from its [x_i = 1] partner, i.e. iff [flip t i <> t]. *)
let depends t i =
  Int64.(logand (logxor t (shift_right_logical t (1 lsl i))) mask0.(i)) <> 0L

let support_size t m =
  let s = ref 0 in
  for i = 0 to m - 1 do
    if depends t i then incr s
  done;
  !s

(* Word-level mirror of [Tt.shrink_to_support] for replicated words.  A word
   replicated at width [2^m] that does not depend on in-word variable [i] is
   invariant under [flip _ i]; once every support variable has been bubbled
   down below the dead ones, the word is already replicated at width
   [2^(support size)], so no re-replication step is needed. *)
let shrink t m =
  let sup = ref [] in
  for i = m - 1 downto 0 do
    if depends t i then sup := i :: !sup
  done;
  let sup = Array.of_list !sup in
  let r = ref t in
  Array.iteri
    (fun j v ->
      if v <> j then
        (* v > j always: earlier iterations only move smaller vars down *)
        for x = v - 1 downto j do r := swap_adjacent !r x done)
    sup;
  (!r, sup)

(* Exhaustive canonicalization costs O(k! * 2^(k+1)) word ops; cut functions
   repeat heavily, so memoize per domain (no locking), one table per
   variable count, each behind a size bound.  A table is flushed wholesale
   when full — cheap, and the working set of distinct cut functions per
   benchmark is far below the bound. *)
let canon_cache_bound = 1 lsl 16

let canon_cache : int64 Word_tbl.t array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.init 7 (fun _ -> Word_tbl.create 256))

let canonical_cached k t =
  let tbl = (Domain.DLS.get canon_cache).(k) in
  match Word_tbl.find_opt tbl t with
  | Some c -> c
  | None ->
      let c = canonical k t in
      if Word_tbl.length tbl >= canon_cache_bound then Word_tbl.reset tbl;
      Word_tbl.add tbl t c;
      c

let num_classes k =
  if k < 0 || k > 4 then invalid_arg "Npn.num_classes";
  let seen = Word_tbl.create 1024 in
  let bits = 1 lsl k in
  let total = 1 lsl bits in
  (* Replicate the low [2^k] bits across the word, as Tt does. *)
  let replicate b =
    let rec go width b =
      if width >= 64 then b else go (2 * width) Int64.(logor b (shift_left b width))
    in
    go bits (Int64.of_int b)
  in
  let count = ref 0 in
  for fbits = 0 to total - 1 do
    let t = replicate fbits in
    let c = canonical k t in
    if not (Word_tbl.mem seen c) then begin
      Word_tbl.add seen c ();
      incr count
    end
  done;
  !count
