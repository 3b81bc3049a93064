(* K-feasible priority cuts (Pan–Mishchenko style), in two engines:

   - the legacy list-of-records engine ([compute]), kept as the reference
     for differential testing and for callers that want plain cut lists;
   - the packed engine ([compute_packed]): cut sets live in preallocated
     flat slabs (leaves + signature + truth-table word per cut slot, no
     per-cut records or lists), candidate filtering runs over a bounded
     insertion-sorted scratch array with signature pre-rejection, and each
     cut's truth table is computed bottom-up during the merge from the
     fanins' cut tables — so consumers never re-walk the cone
     ([Aig.tt_of_cut]) per cut.

   Both engines produce identical cut sets: the final dominance-filtered
   set of a node is independent of candidate insertion order, and both
   commit the same (size, lexicographic leaves) sorted prefix plus the
   trivial cut last. *)

(* Signature: a 62-bucket bloom filter over leaf ids, used to pre-reject
   subset tests.  Soundness condition: each leaf contributes exactly one
   bucket bit determined by the leaf alone, so
   [leaves a ⊆ leaves b ⟹ sign a land sign b = sign a]; a failed
   superset-of-bits test therefore proves non-domination, while a passed
   one still requires the exact subset walk.  ([n mod 62] spreads ids over
   all buckets; the previous [1 lsl (n land 62)] collapsed every even/odd
   id pair onto buckets 0 and 2, wasting 60 of the 62 bits.) *)
let sign_of_node n = 1 lsl (n mod 62)

let signature leaves =
  Array.fold_left (fun s n -> s lor sign_of_node n) 0 leaves

(* SWAR popcount for 62-bit signatures (OCaml ints are 63-bit, so the
   64-bit masks are clipped to their in-range 62-bit prefixes).  Each leaf
   sets exactly one signature bit, so collisions only lower the count:
   [popcount (sign a lor sign b)] is a lower bound on the distinct-leaf
   count of the union, and a value above [k] proves the merge infeasible
   before walking either leaf array. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* ---------------- reference engine ---------------- *)

type t = { leaves : int array; sign : int }

let trivial n = { leaves = [| n |]; sign = sign_of_node n }
let size c = Array.length c.leaves

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
      Some { leaves; sign = signature leaves }

let compute aig ~k ~limit =
  if k < 2 || k > 16 then invalid_arg "Cut.compute";
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
      cuts.(nd) <- take (limit - 1) sorted @ [ trivial nd ])
  ;
  cuts

(* ---------------- engines and counters ---------------- *)

type engine = Packed | Reference

type stats = {
  mutable built : int;
  mutable dominated : int;
  mutable sign_rejects : int;
  mutable tt_merges : int;
  mutable refills : int;
  mutable probes : int;
  mutable reevals : int;
  mutable reeval_skips : int;
}

let stats_create () =
  {
    built = 0;
    dominated = 0;
    sign_rejects = 0;
    tt_merges = 0;
    refills = 0;
    probes = 0;
    reevals = 0;
    reeval_skips = 0;
  }

let stats_add acc s =
  acc.built <- acc.built + s.built;
  acc.dominated <- acc.dominated + s.dominated;
  acc.sign_rejects <- acc.sign_rejects + s.sign_rejects;
  acc.tt_merges <- acc.tt_merges + s.tt_merges;
  acc.refills <- acc.refills + s.refills;
  acc.probes <- acc.probes + s.probes;
  acc.reevals <- acc.reevals + s.reevals;
  acc.reeval_skips <- acc.reeval_skips + s.reeval_skips

(* ---------------- packed engine ---------------- *)

type set = {
  k : int;
  limit : int;
  cnum : int array;   (* per node: number of cuts *)
  clen : int array;   (* per slot [nd * limit + j]: leaf count *)
  csign : int array;  (* per slot: signature *)
  ctt_lo : int array; (* per slot: bits 0..31 of the function of the node
                         over the cut leaves (replicated word, k <= 6) *)
  ctt_hi : int array; (* per slot: bits 32..63 *)
  cleaves : int array;  (* per slot, stride k: sorted leaf ids *)
}
(* Truth tables are carried as two native-int 32-bit halves rather than
   int64: without flambda every int64 read, store and operator in the
   merge kernel boxes (an [Int64.t] heap block per operation), which put
   ~46 minor-heap words per built candidate on the allocator — native
   ints keep the whole kernel allocation-free. *)

let num_cuts s nd = s.cnum.(nd)
let cut_nleaves s nd j = s.clen.((nd * s.limit) + j)

let cut_tt s nd j =
  let slot = (nd * s.limit) + j in
  Int64.logor
    (Int64.shift_left (Int64.of_int s.ctt_hi.(slot)) 32)
    (Int64.of_int s.ctt_lo.(slot))

let cut_leaf s nd j i = s.cleaves.((((nd * s.limit) + j) * s.k) + i)

let cut_leaves s nd j =
  let o = ((nd * s.limit) + j) * s.k in
  Array.sub s.cleaves o s.clen.((nd * s.limit) + j)

(* The word for "variable 0" in the replicated convention — the truth table
   of a trivial cut — as 32-bit halves (both halves equal for var 0). *)
let var0_half = 0xAAAAAAAA

(* Adjacent-variable swap on a 32-bit truth-table half (the half-width
   counterpart of [Npn.swap_adjacent]).  For [q <= 3] the swap permutes
   within aligned 2^(q+2)-bit blocks (<= 32), so each half transforms
   independently; the masks below are the 32-bit periods of the Npn
   variable masks.  [q = 4] exchanges the two middle 16-bit quarters of
   the 64-bit word, crossing the halves — handled inline in [expand]. *)
let h_lohi = Array.make 4 0
let h_hilo = Array.make 4 0
let h_keep = Array.make 4 0

let () =
  let m1 = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |] in
  for q = 0 to 3 do
    let lo_hi = lnot m1.(q + 1) land m1.(q) land 0xFFFFFFFF in
    let hi_lo = m1.(q + 1) land lnot m1.(q) land 0xFFFFFFFF in
    h_lohi.(q) <- lo_hi;
    h_hilo.(q) <- hi_lo;
    h_keep.(q) <- lnot (lo_hi lor hi_lo) land 0xFFFFFFFF
  done

(* Priority-cut key order between the [la] leaves of [a] at [oa] and the
   [lb] leaves of [b] at [ob]: leaf count first, then lexicographic. *)
let cmp_key (a : int array) oa la (b : int array) ob lb =
  if la <> lb then compare la lb
  else begin
    let r = ref 0 and i = ref 0 in
    while !r = 0 && !i < la do
      r := compare a.(oa + !i) b.(ob + !i);
      incr i
    done;
    !r
  end

let compute_packed ?stats aig ~k ~limit =
  if k < 2 || k > 6 then invalid_arg "Cut.compute_packed";
  if limit < 2 then invalid_arg "Cut.compute_packed: limit";
  let st = match stats with Some s -> s | None -> stats_create () in
  let n = Aig.num_nodes aig in
  let nslots = n * limit in
  let cnum = Array.make n 0 in
  let clen = Array.make nslots 0 in
  let csign = Array.make nslots 0 in
  let ctt_lo = Array.make nslots 0 in
  let ctt_hi = Array.make nslots 0 in
  let cleaves = Array.make (nslots * k) 0 in
  let set_trivial nd =
    let slot = (nd * limit) + cnum.(nd) in
    clen.(slot) <- 1;
    csign.(slot) <- sign_of_node nd;
    ctt_lo.(slot) <- var0_half;
    ctt_hi.(slot) <- var0_half;
    cleaves.(slot * k) <- nd;
    cnum.(nd) <- cnum.(nd) + 1
  in
  set_trivial 0;
  for i = 1 to Aig.num_inputs aig do
    set_trivial i
  done;
  (* Scratch candidate set, sorted ascending by (leaf count, lex leaves).
     A node is first enumerated with capacity [limit]: inserting into a
     full scratch drops the worst entry (or the candidate itself when it
     sorts past every entry), and [d_len]/[d_leaves] remember the
     smallest key dropped that way.  The result stands when [certified]
     proves it exact; otherwise the node is enumerated again at capacity
     [limit²], which holds every survivor of the full cross-product —
     nothing is dropped there, and truncating to [limit - 1] at commit
     time is exactly the reference engine's collect/sort/take. *)
  let full_cap = limit * limit in
  let s_len = Array.make full_cap 0 in
  let s_sign = Array.make full_cap 0 in
  let s_tt_lo = Array.make full_cap 0 in
  let s_tt_hi = Array.make full_cap 0 in
  let s_leaves = Array.make (full_cap * k) 0 in
  let m_leaves = Array.make k 0 in
  (* positions of each fanin-cut leaf inside the merged leaf order *)
  let pos_a = Array.make k 0 in
  let pos_b = Array.make k 0 in
  let cnt = ref 0 in
  let mlen = ref 0 in
  (* smallest key dropped for room at the current node; 0 = none *)
  let d_len = ref 0 in
  let d_leaves = Array.make k 0 in
  (* candidate vs scratch entry [e]: (leaf count, lex leaves) order *)
  let cmp_entry e = cmp_key s_leaves (e * k) s_len.(e) m_leaves 0 !mlen in
  let note_drop src o len =
    if !d_len = 0 || cmp_key src o len d_leaves 0 !d_len < 0 then begin
      Array.blit src o d_leaves 0 len;
      d_len := len
    end
  in
  (* Nothing was dropped, or the first [limit - 1] entries — the ones
     committed — all sort strictly before the smallest dropped key.  A
     candidate's dominators sort before it (a proper subset has fewer
     leaves), a candidate evicts only entries sorting after it, and a
     drop for room removes only keys >= the smallest dropped key; so the
     entries before that key are exactly the unbounded run's, and a
     committed prefix lying wholly before it is the unbounded run's
     prefix. *)
  let certified () =
    !d_len = 0
    || !cnt >= limit - 1
       && cmp_key s_leaves ((limit - 2) * k) s_len.(limit - 2) d_leaves 0
            !d_len
          < 0
  in
  (* entry [e]'s leaves ⊆ merged leaves (both sorted) *)
  let entry_subset_of_cand e =
    let le = s_len.(e) and oe = e * k in
    let i = ref 0 and j = ref 0 and r = ref true in
    while !r && !i < le do
      if !j >= !mlen then r := false
      else begin
        let x = s_leaves.(oe + !i) and y = m_leaves.(!j) in
        if x = y then begin incr i; incr j end
        else if x > y then incr j
        else r := false
      end
    done;
    !r
  in
  (* merged leaves ⊆ entry [e]'s leaves *)
  let cand_subset_of_entry e =
    let le = s_len.(e) and oe = e * k in
    let i = ref 0 and j = ref 0 and r = ref true in
    while !r && !i < !mlen do
      if !j >= le then r := false
      else begin
        let x = m_leaves.(!i) and y = s_leaves.(oe + !j) in
        if x = y then begin incr i; incr j end
        else if x > y then incr j
        else r := false
      end
    done;
    !r
  in
  let copy_entry src dst =
    if src <> dst then begin
      s_len.(dst) <- s_len.(src);
      s_sign.(dst) <- s_sign.(src);
      s_tt_lo.(dst) <- s_tt_lo.(src);
      s_tt_hi.(dst) <- s_tt_hi.(src);
      Array.blit s_leaves (src * k) s_leaves (dst * k) k
    end
  in
  (* Expand a fanin cut's table to the merged leaf order: complement if the
     fanin edge is complemented, then bubble each variable up to its merged
     position (highest first, so the bubbling only crosses dead
     variables).  Identity when the fanin cut already equals the merged
     cut (the inner loop body never runs).  Works on the 32-bit halves —
     native ints, no boxing — and leaves the result in [e_lo]/[e_hi]. *)
  let e_lo = ref 0 and e_hi = ref 0 in
  let expand wlo whi cmask len pos =
    let lo = ref (wlo lxor cmask) and hi = ref (whi lxor cmask) in
    for i = len - 1 downto 0 do
      for q = i to pos.(i) - 1 do
        if q < 4 then begin
          let keep = h_keep.(q)
          and lo_hi = h_lohi.(q)
          and hi_lo = h_hilo.(q)
          and d = 1 lsl q in
          lo :=
            (!lo land keep)
            lor ((!lo land lo_hi) lsl d)
            lor ((!lo land hi_lo) lsr d);
          hi :=
            (!hi land keep)
            lor ((!hi land lo_hi) lsl d)
            lor ((!hi land hi_lo) lsr d)
        end
        else begin
          (* swap vars 4 and 5: exchange the middle 16-bit quarters *)
          let nl = (!lo land 0xFFFF) lor ((!hi land 0xFFFF) lsl 16) in
          let nh = (!lo lsr 16) lor (!hi land 0xFFFF0000) in
          lo := nl;
          hi := nh
        end
      done
    done;
    e_lo := !lo;
    e_hi := !hi
  in
  (* One node's cross-product at capacity [cap], into the scratch. *)
  let enumerate n0 n1 x0 x1 cap =
    cnt := 0;
    d_len := 0;
    for ja = 0 to cnum.(n0) - 1 do
      for jb = 0 to cnum.(n1) - 1 do
        let sa = (n0 * limit) + ja and sb = (n1 * limit) + jb in
        let la = clen.(sa) and lb = clen.(sb) in
        let sgn = csign.(sa) lor csign.(sb) in
        if la + lb > k && popcount sgn > k then
          (* provably more than [k] distinct leaves: the walk below could
             only fail, and failed walks touch neither stats nor scratch,
             so skipping is invisible *)
          ()
        else begin
          let oa = sa * k and ob = sb * k in
          (* sorted-union walk, tracking each side's leaf positions *)
          let i = ref 0 and j = ref 0 and m = ref 0 in
          let ok = ref true in
          while !ok && (!i < la || !j < lb) do
            if !m = k then ok := false
            else begin
              let va = if !i < la then cleaves.(oa + !i) else max_int in
              let vb = if !j < lb then cleaves.(ob + !j) else max_int in
              if va = vb then begin
                m_leaves.(!m) <- va;
                pos_a.(!i) <- !m;
                pos_b.(!j) <- !m;
                incr i; incr j; incr m
              end
              else if va < vb then begin
                m_leaves.(!m) <- va;
                pos_a.(!i) <- !m;
                incr i; incr m
              end
              else begin
                m_leaves.(!m) <- vb;
                pos_b.(!j) <- !m;
                incr j; incr m
              end
            end
          done;
          if !ok then begin
            mlen := !m;
            (* Sorted scan: entries before the insertion point are the only
               possible dominators of the candidate (a strict subset is
               strictly smaller, hence sorts strictly earlier; an equal set
               compares equal); entries after it are the only ones the
               candidate can dominate. *)
            let ins = ref (-1) and drop = ref false in
            let e = ref 0 in
            while !ins < 0 && (not !drop) && !e < !cnt do
              let c = cmp_entry !e in
              if c > 0 then ins := !e
              else if c = 0 then begin
                drop := true;
                st.dominated <- st.dominated + 1
              end
              else begin
                (if s_len.(!e) < !mlen then
                   if s_sign.(!e) land sgn <> s_sign.(!e) then
                     st.sign_rejects <- st.sign_rejects + 1
                   else if entry_subset_of_cand !e then begin
                     drop := true;
                     st.dominated <- st.dominated + 1
                   end);
                incr e
              end
            done;
            if !drop then ()
            else if !ins < 0 && !cnt >= cap then
              (* sorts past a full scratch: nothing after it to dominate *)
              note_drop m_leaves 0 !mlen
            else begin
              let ins = if !ins < 0 then !cnt else !ins in
              (* evict entries the candidate dominates *)
              let w = ref ins in
              for r = ins to !cnt - 1 do
                let keep =
                  if s_len.(r) <= !mlen then true
                  else if sgn land s_sign.(r) <> sgn then begin
                    st.sign_rejects <- st.sign_rejects + 1;
                    true
                  end
                  else if cand_subset_of_entry r then begin
                    st.dominated <- st.dominated + 1;
                    false
                  end
                  else true
                in
                if keep then begin
                  copy_entry r !w;
                  incr w
                end
              done;
              cnt := !w;
              (* full after eviction: drop the worst entry to make room *)
              if !cnt >= cap then begin
                note_drop s_leaves ((cap - 1) * k) s_len.(cap - 1);
                cnt := cap - 1
              end;
              (* shift-insert the candidate at [ins]: one overlapping blit
                 per column (memmove) instead of an entry-at-a-time loop *)
              let nshift = !cnt - ins in
              if nshift > 0 then begin
                Array.blit s_len ins s_len (ins + 1) nshift;
                Array.blit s_sign ins s_sign (ins + 1) nshift;
                Array.blit s_tt_lo ins s_tt_lo (ins + 1) nshift;
                Array.blit s_tt_hi ins s_tt_hi (ins + 1) nshift;
                Array.blit s_leaves (ins * k) s_leaves ((ins + 1) * k)
                  (nshift * k)
              end;
              s_len.(ins) <- !mlen;
              s_sign.(ins) <- sgn;
              Array.blit m_leaves 0 s_leaves (ins * k) !mlen;
              (* incremental truth table: expand both fanin-cut tables to
                 the merged leaf order and conjoin *)
              expand ctt_lo.(sa) ctt_hi.(sa) x0 la pos_a;
              let alo = !e_lo and ahi = !e_hi in
              expand ctt_lo.(sb) ctt_hi.(sb) x1 lb pos_b;
              s_tt_lo.(ins) <- alo land !e_lo;
              s_tt_hi.(ins) <- ahi land !e_hi;
              incr cnt;
              st.built <- st.built + 1;
              st.tt_merges <- st.tt_merges + 1
            end
          end
        end
      done
    done
  in
  Aig.iter_ands aig (fun nd ->
      let f0 = Aig.fanin0 aig nd and f1 = Aig.fanin1 aig nd in
      let n0 = Aig.node_of f0 and n1 = Aig.node_of f1 in
      let x0 = if Aig.is_compl f0 then 0xFFFFFFFF else 0 in
      let x1 = if Aig.is_compl f1 then 0xFFFFFFFF else 0 in
      enumerate n0 n1 x0 x1 limit;
      if not (certified ()) then begin
        st.refills <- st.refills + 1;
        enumerate n0 n1 x0 x1 full_cap
      end;
      (* commit the best [limit - 1] cuts, then the trivial cut last *)
      let ncommit = min !cnt (limit - 1) in
      let base = nd * limit in
      for j = 0 to ncommit - 1 do
        let slot = base + j in
        clen.(slot) <- s_len.(j);
        csign.(slot) <- s_sign.(j);
        ctt_lo.(slot) <- s_tt_lo.(j);
        ctt_hi.(slot) <- s_tt_hi.(j);
        Array.blit s_leaves (j * k) cleaves (slot * k) s_len.(j)
      done;
      cnum.(nd) <- ncommit;
      set_trivial nd);
  { k; limit; cnum; clen; csign; ctt_lo; ctt_hi; cleaves }
