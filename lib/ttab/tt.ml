type t = { n : int; w : int64 array }

let max_vars = 16

(* Masks of positions where in-word variable [i] is 1. *)
let mask1 =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let mask0 = Array.map Int64.lognot mask1

let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

let nvars t = t.n
let words t = t.w

let check_nvars n =
  if n < 0 || n > max_vars then invalid_arg "Tt: variable count out of range"

let const0 n = check_nvars n; { n; w = Array.make (nwords n) 0L }
let const1 n = check_nvars n; { n; w = Array.make (nwords n) (-1L) }

let var n i =
  check_nvars n;
  if i < 0 || i >= n then invalid_arg "Tt.var";
  if i < 6 then { n; w = Array.make (nwords n) mask1.(i) }
  else begin
    let w = Array.make (nwords n) 0L in
    let stride = 1 lsl (i - 6) in
    for k = 0 to Array.length w - 1 do
      if k land stride <> 0 then w.(k) <- -1L
    done;
    { n; w }
  end

(* Replicate the low [2^n] bits of [b] ([n <= 6]) across the word. *)
let replicate n b =
  let rec go width b =
    if width >= 64 then b
    else go (2 * width) Int64.(logor b (shift_left b width))
  in
  let width = 1 lsl n in
  let low =
    if width >= 64 then b
    else Int64.(logand b (sub (shift_left 1L width) 1L))
  in
  go width low

let of_bits n b =
  check_nvars n;
  if n > 6 then invalid_arg "Tt.of_bits: more than 6 variables";
  { n; w = [| replicate n b |] }

let of_words n w =
  check_nvars n;
  if Array.length w <> nwords n then invalid_arg "Tt.of_words: bad length";
  { n; w = Array.copy w }

let of_fun n f =
  check_nvars n;
  if n <= 6 then begin
    let b = ref 0L in
    for a = (1 lsl n) - 1 downto 0 do
      b := Int64.shift_left !b 1;
      if f a then b := Int64.logor !b 1L
    done;
    of_bits n !b
  end else begin
    let w = Array.make (nwords n) 0L in
    for a = 0 to (1 lsl n) - 1 do
      if f a then
        w.(a lsr 6) <- Int64.logor w.(a lsr 6) (Int64.shift_left 1L (a land 63))
    done;
    { n; w }
  end

let lift1 f a = { a with w = Array.map f a.w }

let lift2 name f a b =
  if a.n <> b.n then invalid_arg name;
  { a with w = Array.init (Array.length a.w) (fun i -> f a.w.(i) b.w.(i)) }

let bnot a = lift1 Int64.lognot a
let band a b = lift2 "Tt.band" Int64.logand a b
let bor a b = lift2 "Tt.bor" Int64.logor a b
let bxor a b = lift2 "Tt.bxor" Int64.logxor a b
let bandn a b = lift2 "Tt.bandn" (fun x y -> Int64.(logand x (lognot y))) a b
let mux s a b = bor (band s a) (bandn b s)

let equal a b =
  a.n = b.n
  &&
  let w1 = a.w and w2 = b.w in
  let len = Array.length w1 in
  let rec go i = i >= len || (Int64.equal w1.(i) w2.(i) && go (i + 1)) in
  go 0
let compare a b = Stdlib.compare (a.n, a.w) (b.n, b.w)

let hash a =
  Array.fold_left
    (fun acc w -> (acc * 65599) + Int64.to_int w)
    (a.n + 17) a.w
  land max_int

let is_const0 a = Array.for_all (fun w -> w = 0L) a.w
let is_const1 a = Array.for_all (fun w -> w = -1L) a.w

let eval t a =
  if a < 0 || a >= 1 lsl t.n then invalid_arg "Tt.eval";
  Int64.(logand (shift_right_logical t.w.(a lsr 6) (a land 63)) 1L) <> 0L

let popcount64 x =
  let x = Int64.(sub x (logand (shift_right_logical x 1) 0x5555555555555555L)) in
  let x =
    Int64.(add (logand x 0x3333333333333333L)
             (logand (shift_right_logical x 2) 0x3333333333333333L))
  in
  let x = Int64.(logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL) in
  Int64.(to_int (shift_right_logical (mul x 0x0101010101010101L) 56))

let count_ones t =
  if t.n >= 6 then Array.fold_left (fun acc w -> acc + popcount64 w) 0 t.w
  else begin
    let width = 1 lsl t.n in
    let low = Int64.(logand t.w.(0) (sub (shift_left 1L width) 1L)) in
    popcount64 low
  end

let cofactor0 t i =
  if i < 0 || i >= t.n then invalid_arg "Tt.cofactor0";
  if i < 6 then
    let d = 1 lsl i in
    lift1
      (fun w ->
        let z = Int64.logand w mask0.(i) in
        Int64.(logor z (shift_left z d)))
      t
  else begin
    let stride = 1 lsl (i - 6) in
    let w = Array.copy t.w in
    for k = 0 to Array.length w - 1 do
      if k land stride <> 0 then w.(k) <- t.w.(k lxor stride)
    done;
    { t with w }
  end

let cofactor1 t i =
  if i < 0 || i >= t.n then invalid_arg "Tt.cofactor1";
  if i < 6 then
    let d = 1 lsl i in
    lift1
      (fun w ->
        let z = Int64.logand w mask1.(i) in
        Int64.(logor z (shift_right_logical z d)))
      t
  else begin
    let stride = 1 lsl (i - 6) in
    let w = Array.copy t.w in
    for k = 0 to Array.length w - 1 do
      if k land stride = 0 then w.(k) <- t.w.(k lxor stride)
    done;
    { t with w }
  end

(* Allocation-free: a table depends on [i] iff some position with var_i = 0
   differs from its var_i = 1 partner.  This is the inner loop of the ISOP
   top-variable scan, so it early-exits on the first differing word instead
   of materializing both cofactors. *)
let depends_on t i =
  if i < 0 || i >= t.n then invalid_arg "Tt.depends_on";
  let w = t.w in
  let len = Array.length w in
  if i < 6 then begin
    let d = 1 lsl i in
    let m = mask0.(i) in
    let rec go k =
      k < len
      && (Int64.logand (Int64.logxor w.(k) (Int64.shift_right_logical w.(k) d)) m
          <> 0L
         || go (k + 1))
    in
    go 0
  end
  else begin
    let stride = 1 lsl (i - 6) in
    let rec go k =
      k < len
      && ((k land stride = 0 && w.(k) <> w.(k lor stride)) || go (k + 1))
    in
    go 0
  end

let support t =
  let rec go i = if i >= t.n then [] else
    if depends_on t i then i :: go (i + 1) else go (i + 1)
  in
  go 0

let support_size t = List.length (support t)

let flip t i =
  if i < 0 || i >= t.n then invalid_arg "Tt.flip";
  if i < 6 then
    let d = 1 lsl i in
    lift1
      (fun w ->
        Int64.(logor
                 (shift_right_logical (logand w mask1.(i)) d)
                 (shift_left (logand w mask0.(i)) d)))
      t
  else begin
    let stride = 1 lsl (i - 6) in
    let w = Array.copy t.w in
    for k = 0 to Array.length w - 1 do
      w.(k) <- t.w.(k lxor stride)
    done;
    { t with w }
  end

(* Swap in-word variables i and i+1 (both < 6): move bits at positions where
   (var_{i+1}, var_i) = (0,1) up by [2^i], and bits where (1,0) down. *)
let swap_adjacent_inword t i =
  let d = 1 lsl i in
  let hi_lo = Int64.logand mask1.(i + 1) mask0.(i) in
  let lo_hi = Int64.logand mask0.(i + 1) mask1.(i) in
  let keep = Int64.lognot (Int64.logor hi_lo lo_hi) in
  lift1
    (fun w ->
      Int64.(logor (logand w keep)
               (logor
                  (shift_left (logand w lo_hi) d)
                  (shift_right_logical (logand w hi_lo) d))))
    t

let swap_adjacent t i =
  if i < 0 || i + 1 >= t.n then invalid_arg "Tt.swap_adjacent";
  if i + 1 < 6 then swap_adjacent_inword t i
  else if i >= 6 then begin
    (* Both across words: swap word blocks. *)
    let s0 = 1 lsl (i - 6) and s1 = 1 lsl (i - 5) in
    let w = Array.copy t.w in
    for k = 0 to Array.length w - 1 do
      let b0 = k land s0 <> 0 and b1 = k land s1 <> 0 in
      if b0 <> b1 then w.(k) <- t.w.(k lxor s0 lxor s1)
    done;
    { t with w }
  end else begin
    (* i = 5: variable 5 is the top half of each word, variable 6 selects
       word parity.  Exchange the high half of even words with the low half
       of odd words. *)
    let w = Array.copy t.w in
    let k = ref 0 in
    while !k < Array.length w do
      let lo = t.w.(!k) and hi = t.w.(!k + 1) in
      w.(!k) <-
        Int64.(logor (logand lo 0x00000000FFFFFFFFL) (shift_left hi 32));
      w.(!k + 1) <-
        Int64.(logor (shift_right_logical lo 32)
                 (logand hi 0xFFFFFFFF00000000L));
      k := !k + 2
    done;
    { t with w }
  end

let swap t i j =
  if i = j then t
  else begin
    let i, j = if i < j then (i, j) else (j, i) in
    (* Bubble i up to j, then bubble the old j (now at j-1... ) — the classic
       three-phase bubble: bring i next to j, swap, bring back. *)
    let r = ref t in
    for k = i to j - 1 do r := swap_adjacent !r k done;
    for k = j - 2 downto i do r := swap_adjacent !r k done;
    !r
  end

let permute t p =
  if Array.length p <> t.n then invalid_arg "Tt.permute";
  (* Result reads its variable i from t's variable p.(i): apply as a
     sequence of swaps on a working copy, tracking current positions. *)
  let n = t.n in
  let pos = Array.init n (fun i -> i) in      (* pos.(v) = current index of t-var v *)
  let at = Array.init n (fun i -> i) in       (* inverse *)
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

let extend t n =
  check_nvars n;
  if n < t.n then invalid_arg "Tt.extend"
  else if n = t.n then t
  else if n <= 6 then { n; w = t.w }
  else begin
    let w = Array.make (nwords n) 0L in
    let old = nwords t.n in
    for k = 0 to Array.length w - 1 do
      w.(k) <- t.w.(k mod old)
    done;
    { n; w }
  end

let shrink_to_support t =
  let sup = Array.of_list (support t) in
  let k = Array.length sup in
  (* Move support variable j to position j by swapping. *)
  let r = ref t in
  Array.iteri
    (fun j v ->
      if v <> j then
        (* v > j always, since earlier swaps only move smaller vars down *)
        for x = v - 1 downto j do r := swap_adjacent !r x done)
    sup;
  let small =
    if k <= 6 then of_bits k (words !r).(0)
    else { n = k; w = Array.sub (words !r) 0 (nwords k) }
  in
  (small, sup)

let to_hex t =
  let buf = Buffer.create 16 in
  let digits = max 1 ((1 lsl t.n) / 4) in
  let dig_per_word = min digits 16 in
  for k = Array.length t.w - 1 downto 0 do
    let s = Printf.sprintf "%016Lx" t.w.(k) in
    Buffer.add_string buf (String.sub s (16 - dig_per_word) dig_per_word)
  done;
  Buffer.contents buf

let pp fmt t = Format.fprintf fmt "%d'h%s" (1 lsl t.n) (to_hex t)
