

type t = { n : int; cubes : Cube.t list }

let const0 n = { n; cubes = [] }
let const1 n = { n; cubes = [ Cube.top ] }
let make n cubes = { n; cubes }
let num_cubes s = List.length s.cubes
let num_literals s =
  List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 s.cubes

let to_tt s =
  List.fold_left
    (fun acc c -> Tt.bor acc (Cube.to_tt s.n c))
    (Tt.const0 s.n) s.cubes

(* Minato–Morreale on native-int 32-bit half-words.

   Without flambda every [int64] read, operator and store boxes, so the
   kernel works on two 32-bit halves per [Tt] word, like the packed cut
   engine (DESIGN.md §10): half-word [j] of an [h]-variable table holds
   the positions whose variables [5..h-1] spell [j], and a variable [i < 5]
   selects bits inside a half through the masks below.

   A call at hint [h] knows both bounds are independent of the variables
   [>= h] (cofactoring on the split variable removes it, and all
   combinations preserve independence), so it scans for the top variable
   from [h - 1] down and only [max 1 (2^(h-5))] half-words are live.  The
   bounds are then independent of every variable above the split variable
   [x] too, so for [x >= 5] the cofactors are offset views of the parent's
   buffer: the first [2^(x-5)] half-words are the [x = 0] cofactor, the
   next ones the [x = 1] cofactor.  Below 5 variables the recursion is
   scalar and returns plain ints.  Wider levels take their scratch from a
   bump-allocated stack in the per-call [st.s], never from shared state,
   so domains can run the kernel side by side.

   Cubes are appended to the [pos]/[neg] buffers; the split literal is
   ORed into each branch's range of cubes after the branch returns, which
   keeps the classic order [c0 @ c1 @ cd]. *)

let full = 0xFFFFFFFF

(* Positions of a 32-bit half where variable [i < 5] is 1 and 0. *)
let m1 = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]
let m0 = Array.map (fun m -> lnot m land full) m1

type state = {
  s : int array;
  mutable pos : int array;
  mutable neg : int array;
  mutable len : int;
}

let push st p q =
  if st.len = Array.length st.pos then begin
    let grow a =
      let b = Array.make (2 * st.len) 0 in
      Array.blit a 0 b 0 st.len;
      b
    in
    st.pos <- grow st.pos;
    st.neg <- grow st.neg
  end;
  st.pos.(st.len) <- p;
  st.neg.(st.len) <- q;
  st.len <- st.len + 1

(* Adds literal [bit] to the cubes appended since [from]. *)
let or_lit a bit from len =
  for k = from to len - 1 do
    a.(k) <- a.(k) lor bit
  done

let sdep w i = (w lxor (w lsr (1 lsl i))) land m0.(i) <> 0

(* Scalar levels ([h <= 5]): one half-word per bound, table returned. *)
let rec srec st h l u =
  if l = 0 then 0
  else begin
    let x = ref (h - 1) in
    while !x >= 0 && not (sdep l !x || sdep u !x) do
      decr x
    done;
    if !x < 0 then begin
      (* l is constant true here (non-zero and support-free). *)
      push st 0 0;
      full
    end
    else ssplit st !x l u
  end

and ssplit st x l u =
  let d = 1 lsl x and a = m0.(x) and b = m1.(x) in
  let l0 = l land a lor ((l land a) lsl d)
  and l1 = l land b lor ((l land b) lsr d)
  and u0 = u land a lor ((u land a) lsl d)
  and u1 = u land b lor ((u land b) lsr d) in
  let k0 = st.len in
  let t0 = srec st x (l0 land lnot u1) u0 in
  or_lit st.neg (1 lsl x) k0 st.len;
  let k1 = st.len in
  let t1 = srec st x (l1 land lnot u0) u1 in
  or_lit st.pos (1 lsl x) k1 st.len;
  let td = srec st x (l0 land lnot t0 lor (l1 land lnot t1)) (u0 land u1) in
  t0 land a lor (t1 land b) lor td

(* Does the [w] half-words at [o] depend on variable [i]? *)
let wdep s o w i =
  let r = ref false and k = ref 0 in
  if i >= 5 then begin
    let stride = 1 lsl (i - 5) in
    while (not !r) && !k < w do
      if !k land stride = 0 && s.(o + !k) <> s.(o + (!k lor stride)) then
        r := true;
      incr k
    done
  end
  else
    while (not !r) && !k < w do
      if sdep s.(o + !k) i then r := true;
      incr k
    done;
  !r

(* One recursion level at hint [h]: bounds at offsets [lo]/[uo] of
   [st.s], result to [oo], free stack from [sp]; all regions hold
   [max 1 (2^(h-5))] half-words. *)
let rec level st h lo uo oo sp =
  let s = st.s in
  if h <= 5 then s.(oo) <- srec st h s.(lo) s.(uo)
  else begin
    let w = 1 lsl (h - 5) in
    let zero = ref true and k = ref 0 in
    while !zero && !k < w do
      if s.(lo + !k) <> 0 then zero := false;
      incr k
    done;
    if !zero then Array.fill s oo w 0
    else begin
      let x = ref (h - 1) in
      while !x >= 0 && not (wdep s lo w !x || wdep s uo w !x) do
        decr x
      done;
      let x = !x in
      if x < 0 then begin
        push st 0 0;
        Array.fill s oo w full
      end
      else if x < 5 then
        (* every live half-word is equal: the rest is scalar *)
        Array.fill s oo w (ssplit st x s.(lo) s.(uo))
      else begin
        let c = 1 lsl (x - 5) in
        let a = sp and b = sp + c and td = sp + (2 * c) in
        let sp = sp + (3 * c) in
        for k = 0 to c - 1 do
          s.(a + k) <- s.(lo + k) land lnot s.(uo + c + k)
        done;
        let k0 = st.len in
        level st x a uo oo sp;
        or_lit st.neg (1 lsl x) k0 st.len;
        for k = 0 to c - 1 do
          s.(a + k) <- s.(lo + c + k) land lnot s.(uo + k)
        done;
        let k1 = st.len in
        level st x a (uo + c) (oo + c) sp;
        or_lit st.pos (1 lsl x) k1 st.len;
        for k = 0 to c - 1 do
          s.(a + k) <-
            s.(lo + k) land lnot s.(oo + k)
            lor (s.(lo + c + k) land lnot s.(oo + c + k));
          s.(b + k) <- s.(uo + k) land s.(uo + c + k)
        done;
        level st x a b td sp;
        for k = 0 to c - 1 do
          s.(oo + k) <- s.(oo + k) lor s.(td + k);
          s.(oo + c + k) <- s.(oo + c + k) lor s.(td + k)
        done;
        for k = 2 * c to w - 1 do
          s.(oo + k) <- s.(oo + k - (2 * c))
        done
      end
    end
  end

let isop_lu lower upper =
  let n = Tt.nvars lower in
  if n <> Tt.nvars upper then invalid_arg "Sop.isop_lu";
  (* Layout of [s]: both bounds and the result as every input word's two
     halves ([nh] each), then the stack.  A level splitting on [x >= 5]
     takes 3 x 2^(x-5) half-words and the split variables of a chain
     strictly decrease, so 3 live widths [w] cover the deepest chain. *)
  let words = Tt.words lower in
  let nh = 2 * Array.length words in
  let w = if n <= 5 then 1 else 1 lsl (n - 5) in
  let s = Array.make ((3 * nh) + (3 * w)) 0 in
  let unpack o ws =
    Array.iteri
      (fun k x ->
        s.(o + (2 * k)) <- Int64.to_int x land full;
        s.(o + (2 * k) + 1) <- Int64.to_int (Int64.shift_right_logical x 32))
      ws
  in
  unpack 0 words;
  unpack nh (Tt.words upper);
  let outside a b =
    let r = ref false in
    for j = 0 to nh - 1 do
      if s.(a + j) land lnot s.(b + j) <> 0 then r := true
    done;
    !r
  in
  if outside 0 nh then
    invalid_arg "Sop.isop_lu: lower not contained in upper";
  let st = { s; pos = Array.make 16 0; neg = Array.make 16 0; len = 0 } in
  level st n 0 nh (2 * nh) (3 * nh);
  (* replicate the live result over the whole word *)
  for j = w to nh - 1 do
    s.((2 * nh) + j) <- s.((2 * nh) + j - w)
  done;
  (* The cover must lie between the bounds, on every half of every word. *)
  assert (not (outside 0 (2 * nh)));
  assert (not (outside (2 * nh) nh));
  let cubes = ref [] in
  for k = st.len - 1 downto 0 do
    cubes := { Cube.pos = st.pos.(k); neg = st.neg.(k) } :: !cubes
  done;
  { n; cubes = !cubes }

let isop f = isop_lu f f

let pp fmt s =
  if s.cubes = [] then Format.fprintf fmt "0"
  else
    List.iteri
      (fun k c ->
        if k > 0 then Format.fprintf fmt " + ";
        Cube.pp fmt c)
      s.cubes
