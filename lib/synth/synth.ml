(* Multi-level AIG optimization: balance / rewrite / refactor.

   Every pass rebuilds into a fresh graph (keeping structural hashing
   dense) and finishes with a cleanup copy that drops dead nodes. *)

let lit_map_get map l =
  let nl = Hashtbl.find map (Aig.node_of l) in
  if Aig.is_compl l then Aig.lnot nl else nl

(* ---------------- balance ---------------- *)

module Lvl_heap = struct
  (* tiny binary min-heap of (level, lit) *)
  type t = { mutable a : (int * int) array; mutable n : int }

  let create () = { a = Array.make 16 (0, 0); n = 0 }

  let push h x =
    if h.n >= Array.length h.a then begin
      let b = Array.make (2 * Array.length h.a) (0, 0) in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while !i > 0 && fst h.a.((!i - 1) / 2) > fst h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < h.n && fst h.a.(l) < fst h.a.(!best) then best := l;
      if r < h.n && fst h.a.(r) < fst h.a.(!best) then best := r;
      if !best = !i then continue := false
      else begin
        let tmp = h.a.(!best) in
        h.a.(!best) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !best
      end
    done;
    top

  let size h = h.n
end

let balance aig =
  let fresh = Aig.create ~size_hint:(Aig.num_nodes aig) () in
  let map = Hashtbl.create (Aig.num_nodes aig) in
  Hashtbl.add map 0 Aig.lit_false;
  for i = 0 to Aig.num_inputs aig - 1 do
    Hashtbl.add map (i + 1) (Aig.add_input ~name:(Aig.input_name aig i) fresh)
  done;
  let refs = Aig.fanout_counts aig in
  let lvl = Hashtbl.create (Aig.num_nodes aig) in
  let level_of l =
    try Hashtbl.find lvl (Aig.node_of l) with Not_found -> 0
  in
  (* Collect the leaves of the AND tree rooted at [nd], flattening through
     non-complemented single-fanout AND fanins. *)
  let rec leaves_of acc l root =
    let nd = Aig.node_of l in
    if
      (not root)
      && (Aig.is_compl l || (not (Aig.is_and aig nd)) || refs.(nd) > 1)
    then l :: acc
    else leaves_of (leaves_of acc (Aig.fanin0 aig nd) false)
           (Aig.fanin1 aig nd) false
  in
  Aig.iter_ands aig (fun nd ->
      let leaves = leaves_of [] (Aig.lit_of_node nd) true in
      let h = Lvl_heap.create () in
      List.iter
        (fun l ->
          let nl = lit_map_get map l in
          Lvl_heap.push h (level_of nl, nl))
        leaves;
      let result =
        if Lvl_heap.size h = 0 then Aig.lit_true
        else begin
          while Lvl_heap.size h > 1 do
            let l1, a = Lvl_heap.pop h in
            let l2, b = Lvl_heap.pop h in
            let c = Aig.mk_and fresh a b in
            let lv = 1 + max l1 l2 in
            Hashtbl.replace lvl (Aig.node_of c) lv;
            Lvl_heap.push h (lv, c)
          done;
          snd (Lvl_heap.pop h)
        end
      in
      Hashtbl.replace map nd result);
  Array.iter
    (fun (name, l) -> Aig.add_output fresh name (lit_map_get map l))
    (Aig.outputs aig);
  Aig.cleanup fresh

(* ---------------- refactor / rewrite ---------------- *)

let rec build_form g leaf_lits = function
  | Factored.Const b -> if b then Aig.lit_true else Aig.lit_false
  | Factored.Lit (i, s) ->
      if s then leaf_lits.(i) else Aig.lnot leaf_lits.(i)
  | Factored.And fs ->
      Aig.mk_and_list g (List.map (build_form g leaf_lits) fs)
  | Factored.Or fs ->
      Aig.mk_or_list g (List.map (build_form g leaf_lits) fs)

let max_isop_cubes = 96

(* ISOP + factoring of a cone function is a pure function of its truth
   table, and the same tables recur constantly across nodes and across the
   sub-passes of a script (~96% repeats on the benchmark suite), so the
   result is memoized per domain.  The cache changes nothing but wall
   time: identical inputs map to the identical factored form. *)
let form_cache_bound = 1 lsl 15

(* Keyed on {!Tt.hash}, which mixes every word of the table; the generic
   [Hashtbl.hash] samples only a prefix of the boxed int64s, and wide
   tables that share a prefix would pile into a handful of buckets. *)
module Form_tbl = Hashtbl.Make (struct
  type t = Tt.t

  let equal = Tt.equal
  let hash = Tt.hash
end)

(* Two generations instead of a single table with a full reset: a large
   circuit's refactor sweep holds more distinct cone functions than one
   generation, and wiping everything mid-pass made even the warm repeat
   passes pay full ISOP cost.  On overflow the current generation is
   demoted to fallback (and fallback hits are promoted back), so the hot
   working set survives while memory stays capped at ~2x the bound per
   domain. *)
type form_caches = {
  mutable cur : (Factored.t * int) option Form_tbl.t;
  mutable prev : (Factored.t * int) option Form_tbl.t;
}

let form_cache : form_caches Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { cur = Form_tbl.create 1024; prev = Form_tbl.create 16 })

let pick_form t =
  let c = Domain.DLS.get form_cache in
  match Form_tbl.find_opt c.cur t with
  | Some r -> r
  | None ->
      let r =
        match Form_tbl.find_opt c.prev t with
        | Some r -> r
        | None ->
            let sop = Sop.isop t in
            if Sop.num_cubes sop > max_isop_cubes then None
            else
              let f = Factored.factor sop in
              Some (f, Factored.num_and2 f)
      in
      if Form_tbl.length c.cur >= form_cache_bound then begin
        let o = c.prev in
        c.prev <- c.cur;
        Form_tbl.reset o;
        c.cur <- o
      end;
      Form_tbl.add c.cur t r;
      r

(* Per-chunk scratch of the refactor sweep's helpers: timestamped marks
   (a stamp bump invalidates all marks at once, so no per-call table is
   ever built or cleared) plus the greedy-cut leaf arrays.  One instance
   per {!Par.run} chunk index — every helper's result is a pure function
   of the source graph, so which chunk analyzes which node cannot change
   any value. *)
type ts_scratch = {
  ts_mark : int array;
  ts_dec : int array;
  ts_dec_stamp : int array;
  mutable ts_stamp : int;
  ts_glv : int array;
  ts_gseq : int array;
}

let refactor_impl ?(zero_gain = false) ?(cut_size = 10) ?stats ?(jobs = 1)
    aig =
  let st = match stats with Some s -> s | None -> Cut.stats_create () in
  let cut_size = min cut_size Tt.max_vars in
  let fresh = Aig.create ~size_hint:(Aig.num_nodes aig) () in
  let map = Hashtbl.create (Aig.num_nodes aig) in
  Hashtbl.add map 0 Aig.lit_false;
  for i = 0 to Aig.num_inputs aig - 1 do
    Hashtbl.add map (i + 1) (Aig.add_input ~name:(Aig.input_name aig i) fresh)
  done;
  let n = Aig.num_nodes aig in
  let refs = Aig.fanout_counts aig in
  let gcap = cut_size + 4 in
  let mk_scratch () =
    {
      ts_mark = Array.make n 0;
      ts_dec = Array.make n 0;
      ts_dec_stamp = Array.make n 0;
      ts_stamp = 0;
      ts_glv = Array.make gcap 0;
      ts_gseq = Array.make gcap 0;
    }
  in
  let deref sc s m =
    if sc.ts_dec_stamp.(m) <> s then begin
      sc.ts_dec_stamp.(m) <- s;
      sc.ts_dec.(m) <- 0
    end;
    sc.ts_dec.(m) <- sc.ts_dec.(m) + 1;
    refs.(m) - sc.ts_dec.(m) = 0
  in
  (* Number of AND nodes that stop being referenced when the cone of [nd]
     above [cut] is bypassed: the node's MFFC restricted to the cone
     ([refs] are whole-graph fanout counts). *)
  let deaths_in_cone_ts sc nd cut =
    sc.ts_stamp <- sc.ts_stamp + 1;
    let s = sc.ts_stamp in
    Array.iter (fun l -> sc.ts_mark.(l) <- s) cut;
    let count = ref 0 in
    let rec go nd' =
      incr count;
      let visit f =
        let m = Aig.node_of f in
        if Aig.is_and aig m && sc.ts_mark.(m) <> s && deref sc s m then go m
      in
      visit (Aig.fanin0 aig nd');
      visit (Aig.fanin1 aig nd')
    in
    go nd;
    !count
  in
  (* [Aig.mffc_size aig refs root] over the timestamped marks. *)
  let mffc_size_ts sc root =
    if not (Aig.is_and aig root) then 0
    else begin
      sc.ts_stamp <- sc.ts_stamp + 1;
      let s = sc.ts_stamp in
      let count = ref 0 in
      let rec go nd' =
        incr count;
        let visit f =
          let m = Aig.node_of f in
          if Aig.is_and aig m && deref sc s m then go m
        in
        visit (Aig.fanin0 aig nd');
        visit (Aig.fanin1 aig nd')
      in
      go root;
      !count
    end
  in
  (* Greedy reconvergence-driven cut of at most [k] leaves: repeatedly
     expands the leaf with the smallest growth.  Leaves live in a small
     scratch array.  The seed kept them in a [Hashtbl] (its version is the
     tests' oracle) and took the first minimal-growth leaf in
     [Hashtbl.iter] order, so to stay result-identical growth ties break
     exactly the way that table iterates: ascending bucket
     ([Hashtbl.hash leaf land 15] — 16 buckets, seed 0, and the table never
     grows past the 32-binding resize threshold here), then
     most-recently-inserted first within a bucket. *)
  let greedy_cut_ts sc nd k =
    let glv = sc.ts_glv and gseq = sc.ts_gseq in
    let gcnt = ref 0 and seqc = ref 0 in
    let mem x =
      let r = ref false in
      for i = 0 to !gcnt - 1 do
        if glv.(i) = x then r := true
      done;
      !r
    in
    let add x =
      if not (mem x) then begin
        glv.(!gcnt) <- x;
        incr seqc;
        gseq.(!gcnt) <- !seqc;
        incr gcnt
      end
    in
    let remove x =
      let idx = ref (-1) in
      for i = 0 to !gcnt - 1 do
        if glv.(i) = x then idx := i
      done;
      if !idx >= 0 then begin
        glv.(!idx) <- glv.(!gcnt - 1);
        gseq.(!idx) <- gseq.(!gcnt - 1);
        decr gcnt
      end
    in
    add (Aig.node_of (Aig.fanin0 aig nd));
    add (Aig.node_of (Aig.fanin1 aig nd));
    let continue = ref true in
    let steps = ref 0 in
    while !continue && !steps < 64 do
      incr steps;
      (* pick the expandable leaf with the smallest growth *)
      let best = ref (-1) in
      let bg = ref 0 and bb = ref 0 and bs = ref 0 in
      for i = 0 to !gcnt - 1 do
        let leaf = glv.(i) in
        if Aig.is_and aig leaf then begin
          let f0 = Aig.node_of (Aig.fanin0 aig leaf) in
          let f1 = Aig.node_of (Aig.fanin1 aig leaf) in
          let growth =
            (if mem f0 || f0 = leaf then 0 else 1)
            + (if mem f1 || f1 = leaf then 0 else 1)
            - 1
          in
          if !gcnt + growth <= k then begin
            let bucket = Hashtbl.hash leaf land 15 in
            if
              !best < 0
              || growth < !bg
              || (growth = !bg
                 && (bucket < !bb || (bucket = !bb && gseq.(i) > !bs)))
            then begin
              best := leaf;
              bg := growth;
              bb := bucket;
              bs := gseq.(i)
            end
          end
        end
      done;
      if !best < 0 then continue := false
      else begin
        let leaf = !best in
        remove leaf;
        add (Aig.node_of (Aig.fanin0 aig leaf));
        add (Aig.node_of (Aig.fanin1 aig leaf))
      end
    done;
    let arr = Array.sub glv 0 !gcnt in
    Array.sort compare arr;
    arr
  in
  (* Small cuts: use the priority-cut enumeration (several candidate cones
     per node, like ABC's rewrite) plus the greedy reconvergent cut, which
     the enumeration's preference for small cuts can crowd out; large
     cuts: one greedy reconvergent cut per node (like ABC's refactor).
     Each priority cut is paired with its function, read straight out of
     the enumeration; [None] (the greedy cut) falls back to the cone
     walk. *)
  let enum_cuts : ts_scratch -> int -> (int array * Tt.t option) list =
    if cut_size <= 6 then begin
      let cs = Cut.compute_packed ~stats:st aig ~k:cut_size ~limit:8 in
      fun sc nd ->
        let prio = ref [] in
        for j = Cut.num_cuts cs nd - 1 downto 0 do
          let m = Cut.cut_nleaves cs nd j in
          if m >= 2 then
            prio :=
              (Cut.cut_leaves cs nd j, Some (Tt.of_bits m (Cut.cut_tt cs nd j)))
              :: !prio
        done;
        let prio = !prio in
        let g = greedy_cut_ts sc nd cut_size in
        if Array.length g >= 2 && not (List.exists (fun (l, _) -> l = g) prio)
        then (g, None) :: prio
        else prio
    end
    else fun sc nd ->
      let c = greedy_cut_ts sc nd cut_size in
      if Array.length c >= 2 then [ (c, None) ] else []
  in
  (* The sweep runs in two phases per window of node ids.

     Phase A (parallel): per-node candidate analysis — cut enumeration,
     cone functions, ISOP factoring, MFFC/death counts.  All of it reads
     only the immutable source graph and [refs], so nodes are
     independent: {!Par.run} chunks a window across domains with
     disjoint writes into the [analysis] slots, and the values are
     identical whatever [jobs] is (the DLS form cache only memoizes a
     pure function).

     Phase B (sequential): the dry-run strash-aware costing and the
     commit into [fresh] — inherently ordered, because cost and
     replacement depend on everything committed so far.  Keeping phase B
     byte-for-byte the old loop is what makes [--jobs n] output
     identical to [--jobs 1].

     Candidates are scored and sorted in phase A; only the first 12
     (the dry-run budget below) are kept, bounding a window's analysis
     memory at a few thousand small tuples. *)
  let analyze sc nd =
    if (not (Aig.is_and aig nd)) || refs.(nd) = 0 then (0, [])
    else begin
      let mffc = mffc_size_ts sc nd in
      (* Candidates over all cuts and both output polarities.  The value
         of a candidate is (nodes that die) - (strash-aware rebuild
         cost); the plain copy scores 0, so any positive score is a
         strict improvement. *)
      let candidates =
        List.concat_map
          (fun (cut, tt_opt) ->
            let deaths = deaths_in_cone_ts sc nd cut in
            let tt =
              match tt_opt with
              | Some t -> t
              | None -> Aig.tt_of_cut aig (Aig.lit_of_node nd) cut
            in
            List.filter_map
              (fun (t, neg) ->
                match pick_form t with
                | Some (f, est) -> Some (cut, f, neg, deaths, deaths - est)
                | None -> None)
              [ (tt, false); (Tt.bnot tt, true) ])
          (enum_cuts sc nd)
      in
      let candidates =
        List.sort
          (fun (_, _, _, _, a) (_, _, _, _, b) -> compare b a)
          candidates
      in
      let rec take i = function
        | (cut, form, neg, deaths, _) :: tl when i < 12 ->
            (cut, form, neg, deaths) :: take (i + 1) tl
        | _ -> []
      in
      (mffc, take 0 candidates)
    end
  in
  let commit nd (mffc, cands) =
    let replaced = ref false in
    if refs.(nd) > 0 then begin
      (* Dry-run candidates (strash-aware cost), keep the best score. *)
      let best = ref None in
      List.iter
        (fun (cut, form, neg, deaths) ->
          let leaf_lits =
            Array.map (fun nd' -> lit_map_get map (Aig.lit_of_node nd')) cut
          in
          let ckpt = Aig.checkpoint fresh in
          ignore (build_form fresh leaf_lits form);
          let cost = Aig.checkpoint fresh - ckpt in
          Aig.rollback fresh ckpt;
          (* Optimistic score (full MFFC as savings) with the real
             deaths as tie-breaker, preferring larger cuts: enables
             cross-node sharing that per-node accounting cannot see;
             the pass-level guard bounds the risk. *)
          let score = (mffc - cost, deaths - cost, Array.length cut) in
          let ok =
            if zero_gain then mffc - cost >= 0 && deaths - cost >= -1
            else mffc - cost > 0 && deaths - cost >= 0
          in
          if ok then
            match !best with
            | Some (sc, _, _, _) when sc >= score -> ()
            | _ -> best := Some (score, cut, form, neg))
        cands;
      match !best with
      | Some (_, cut, form, neg) ->
          let leaf_lits =
            Array.map (fun nd' -> lit_map_get map (Aig.lit_of_node nd')) cut
          in
          let l = build_form fresh leaf_lits form in
          Hashtbl.replace map nd (if neg then Aig.lnot l else l);
          replaced := true
      | None -> ()
    end;
    if not !replaced then begin
      let a = lit_map_get map (Aig.fanin0 aig nd) in
      let b = lit_map_get map (Aig.fanin1 aig nd) in
      Hashtbl.replace map nd (Aig.mk_and fresh a b)
    end
  in
  let window = 1 lsl 15 in
  let analysis = Array.make (min window (max 1 (n - 1))) (0, []) in
  let scratches = Array.make (Par.width ~jobs) None in
  let scratch w =
    match scratches.(w) with
    | Some sc -> sc
    | None ->
        let sc = mk_scratch () in
        scratches.(w) <- Some sc;
        sc
  in
  let w0 = ref 1 in
  while !w0 < n do
    let w1 = min n (!w0 + window) in
    let base = !w0 in
    Par.run ~jobs ~n:(w1 - base) (fun w lo hi ->
        let sc = scratch w in
        for i = lo to hi - 1 do
          analysis.(i) <- analyze sc (base + i)
        done);
    for i = 0 to w1 - base - 1 do
      let nd = base + i in
      if Aig.is_and aig nd then commit nd analysis.(i)
    done;
    w0 := w1
  done;
  Array.iter
    (fun (name, l) -> Aig.add_output fresh name (lit_map_get map l))
    (Aig.outputs aig);
  Aig.cleanup fresh

(* The rebuild-based gain test compares against the source graph's MFFC,
   which can overestimate savings once earlier replacements strash-merge
   copies; a whole-pass guard keeps every pass size-monotone. *)
let guard pass aig =
  let out = pass aig in
  if Aig.num_ands out <= Aig.num_ands aig then out else aig

let refactor ?zero_gain ?cut_size ?stats ?jobs aig =
  guard (refactor_impl ?zero_gain ?cut_size ?stats ?jobs) aig

let rewrite ?(zero_gain = false) ?stats ?jobs aig =
  refactor ~zero_gain ~cut_size:4 ?stats ?jobs aig

let resyn2rs ?stats ?jobs aig =
  let rewrite ?zero_gain a = rewrite ?zero_gain ?stats ?jobs a in
  let refactor ?zero_gain a = refactor ?zero_gain ?stats ?jobs a in
  aig |> rewrite |> refactor |> balance |> rewrite
  |> rewrite ~zero_gain:true |> balance |> refactor ~zero_gain:true
  |> rewrite ~zero_gain:true |> balance

let light ?stats ?jobs aig = aig |> rewrite ?stats ?jobs |> balance
