(* priority cuts kept per node *)
let cut_limit = 12

type params = {
  cut_size : int;
  area_passes : int;
  timing : bool;
  cost : (Cell_lib.cell -> float) option;
  jobs : int;
  incremental : bool;
}

let default_params =
  {
    cut_size = 6;
    area_passes = 3;
    timing = false;
    cost = None;
    jobs = 1;
    incremental = true;
  }

type phase_ms = {
  mutable pm_cuts_ms : float;
  mutable pm_match_ms : float;
  mutable pm_required_ms : float;
  mutable pm_recover_ms : float;
  mutable pm_extract_ms : float;
}

let phase_ms_create () =
  {
    pm_cuts_ms = 0.0;
    pm_match_ms = 0.0;
    pm_required_ms = 0.0;
    pm_recover_ms = 0.0;
    pm_extract_ms = 0.0;
  }

let infinity_f = infinity

(* Mapping choices are stored per (node, phase) slot as two plain ints
   (see the arena comment below): [ch1] is a small negative code for the
   structural choices, or a candidate index for a library match. *)
let code_unmapped = -1
let code_bridge = -2
let code_wire = -3

let tt_var0 = 0xAAAAAAAAAAAAAAAAL
let tt_nvar0 = Npn.flip tt_var0 0

let now () = Unix.gettimeofday ()

let map_with_stats ?(params = default_params) ?phase lib aig =
  let stats = Cut.stats_create () in
  let k = min 6 params.cut_size in
  let free = Cell_lib.free_phases lib in
  let nph = if free then 1 else 2 in
  (* phase mask: slot index of (node, ph) is [node * nph + (ph land phm)],
     so free-phase libraries alias both phases onto one slot *)
  let phm = nph - 1 in
  let inv = Cell_lib.inverter lib in
  (* Covering cost of a cell.  The flow/"area" currency of the matcher is
     pluggable (ROADMAP: cost-generic mapping): [params.cost] replaces raw
     cell area in every flow computation — matching, bridging and the
     recovery passes — while arrival time stays lexicographically primary
     and the reported netlist area is always the real cell area. *)
  let cell_cost (c : Cell_lib.cell) =
    match params.cost with Some f -> f c | None -> c.Cell_lib.area
  in
  let inv_area =
    match inv with Some c -> cell_cost c | None -> infinity_f
  in
  if (not free) && inv = None then
    invalid_arg "Mapper.map: non-free-phase library without an inverter";
  let n = Aig.num_nodes aig in
  let refs = Aig.fanout_counts aig in
  let refs_f = Array.map (fun r -> float_of_int (max 1 r)) refs in
  (* Load-aware cost (timing mode): a cell rooted at [nd] will drive
     roughly one average library pin per internal AIG fanout, plus the
     reference output load (the model's [po_fanout] inverters) per primary
     output — a pre-cover estimate of the final netlist load, refined
     nowhere (the cover isn't known during matching).  Classic mode charges
     the fixed unit-load FO4. *)
  let timing_on = params.timing in
  let avg_cin =
    match Cell_lib.avg_pin_cap lib with Some c -> c | None -> 1.0
  in
  let cref =
    (* the family's reference inverter input capacitance *)
    List.fold_left
      (fun acc (c : Cell_lib.cell) ->
        match (acc, c.Cell_lib.timing) with
        | Some _, _ -> acc
        | None, Some tm -> Some tm.Charlib.drive.Charlib.cin_ref
        | None, None -> None)
      None (Cell_lib.cells lib)
    |> Option.value ~default:2.0
  in
  let po_f = Array.make n 0.0 in
  Array.iter
    (fun (_, l) ->
      let nd = Aig.node_of l in
      po_f.(nd) <- po_f.(nd) +. 1.0)
    (Aig.outputs aig);
  let est_load nd =
    let po = po_f.(nd) in
    (Float.max 0.0 (refs_f.(nd) -. po) *. avg_cin) +. (po *. 4.0 *. cref)
  in
  (* Once a full cover exists, [measure_loads] replaces the a-priori
     estimate with the loads the chosen cover actually presents; until
     then the estimate stands. *)
  let loads_cur = ref None in
  let node_load nd p =
    match !loads_cur with Some a -> a.(nd).(p) | None -> est_load nd
  in
  let cell_delay_loaded (c : Cell_lib.cell) load =
    match c.Cell_lib.timing with
    | Some tm -> Charlib.drive_delay tm.Charlib.drive ~load
    | None -> c.Cell_lib.delay
  in
  (* The first delay pass always runs with the legacy fixed-FO4 cost, so
     timing mode starts from exactly the cover the default mode produces;
     load-aware refinement switches this on afterwards. *)
  let use_loads = ref false in
  let cell_delay_at nd p c =
    if timing_on && !use_loads then cell_delay_loaded c (node_load nd p)
    else c.Cell_lib.delay
  in
  let inv_delay_at nd p =
    match inv with Some c -> cell_delay_at nd p c | None -> infinity_f
  in
  let inv_pin_cap =
    match inv with
    | Some { Cell_lib.timing = Some tm; _ } -> tm.Charlib.pin_caps.(0)
    | _ -> avg_cin
  in
  (* ---- slots, struct-of-arrays ----
     (arrival, flow, choice) per (node, phase), flattened into plain
     float/int arrays.  The seed kept a record per slot; records mixing
     float and non-float fields box every float, so each matching pass
     allocated and chased a boxed float per read/write.  Flat float
     arrays store unboxed and index arithmetic replaces two pointer
     hops. *)
  let nslots = n * nph in
  let arrival = Array.make nslots infinity_f in
  let flow = Array.make nslots infinity_f in
  let ch1 = Array.make nslots code_unmapped in
  let ch2 = Array.make nslots 0 in
  (* primary inputs and the constant node (re-run when loads change) *)
  let init_leaf_slots () =
    for i = 0 to Aig.num_inputs aig do
      (* node 0 is the constant; inputs are 1..num_inputs *)
      let b = i * nph in
      ch1.(b) <- code_wire;
      ch2.(b) <- i lsl 1;
      arrival.(b) <- 0.0;
      flow.(b) <- 0.0;
      if nph = 2 then
        if i = 0 then begin
          (* complemented constant is still a constant *)
          ch1.(b + 1) <- code_wire;
          ch2.(b + 1) <- 1;
          arrival.(b + 1) <- 0.0;
          flow.(b + 1) <- 0.0
        end
        else begin
          ch1.(b + 1) <- code_bridge;
          arrival.(b + 1) <- inv_delay_at i 1;
          flow.(b + 1) <- inv_area
        end
    done
  in
  init_leaf_slots ();
  (* ---- candidate match arena ----
     Per AND node, the usable (cut, key) candidates: cut function shrunk
     to its support, plus the library match lists for both output
     phases, resolved once — every matching pass (1 delay + area_passes
     + the timing refinement) used to repeat the same [Cell_lib.matches]
     lookups per node.  The seed stored one heap tuple + two leaf arrays
     + two entry lists per candidate; at 10^6 nodes that is tens of
     millions of long-lived blocks the GC re-traces on every major
     cycle.  The arena packs the same data into flat parallel arrays:

       cand_off  : per node, candidate range [cand_off.(nd),
                   cand_off.(nd+1)) in canonical (ascending cut) order
       cand_arity: support size s (0..6), one byte each
       cand_key  : support-shrunk function, int64 bigarray (unboxed)
       cand_slo  : offset of the s support leaves in leaf_buf
       cand_olo/olen : offset/length of the original structural cut
                   leaves in leaf_buf (shared with the support run when
                   no shrink occurred — s = olen implies identity)
       cand_gid  : entry-group id (s >= 2 only)

     Distinct candidates overwhelmingly share the same (arity, key) —
     a library has thousands of distinct match keys, a million-node
     graph tens of millions of candidates — so the match-entry lists are
     deduplicated into groups: group g's positive/negative entries are
     the ranges [gpos_off.(g), +gpos_len.(g)) / [gneg_off.(g),
     +gneg_len.(g)) of the flat entry arrays, with the per-entry phase,
     fixed delay and covering cost mirrored into scalar arrays so the
     hot loop touches no heap records.

     dleaf_off/dleaf_buf hold each node's deduplicated union of
     candidate support leaves — the exact read set of a re-evaluation,
     used by the incremental pass-skipping dirty check. *)
  let climit = cut_limit in
  let t0 = now () in
  (* Candidate iterator, canonical order; [kf m s key sup leaf_at]: m
     structural leaves ([leaf_at i]), support [sup] into them, function
     [key] over the support. *)
  let cs = Cut.compute_packed ~stats aig ~k ~limit:climit in
  let iter_cands nd kf =
    for j = 0 to Cut.num_cuts cs nd - 1 do
      let m = Cut.cut_nleaves cs nd j in
      if not (m = 1 && Cut.cut_leaf cs nd j 0 = nd) then begin
        let key, sup = Npn.shrink (Cut.cut_tt cs nd j) m in
        kf m (Array.length sup) key sup (Cut.cut_leaf cs nd j)
      end
    done
  in
  (* Pass A (parallel): count candidates, leaf words and deduped support
     union per node; pass B (parallel) re-enumerates and fills the
     disjoint per-node ranges.  Counting twice avoids materializing the
     seed's transient per-node lists next to the arena. *)
  let c_cnt = Array.make n 0 in
  let l_cnt = Array.make n 0 in
  let d_cnt = Array.make n 0 in
  let jobs = params.jobs in
  let uscratch =
    Array.init (Par.width ~jobs) (fun _ -> Array.make ((6 * climit) + 8) 0)
  in
  Par.run ~jobs ~n (fun w lo hi ->
      let us = uscratch.(w) in
      for nd = lo to hi - 1 do
        if Aig.is_and aig nd then begin
          let nc = ref 0 and nl = ref 0 and nu = ref 0 in
          iter_cands nd (fun m s _key sup leaf_at ->
              incr nc;
              nl := !nl + m + (if s < m then s else 0);
              for i = 0 to s - 1 do
                let lf = leaf_at sup.(i) in
                let j = ref 0 in
                while !j < !nu && us.(!j) <> lf do
                  incr j
                done;
                if !j = !nu then begin
                  us.(!nu) <- lf;
                  incr nu
                end
              done);
          c_cnt.(nd) <- !nc;
          l_cnt.(nd) <- !nl;
          d_cnt.(nd) <- !nu
        end
      done);
  let cand_off = Array.make (n + 1) 0 in
  let l_off = Array.make (n + 1) 0 in
  let dleaf_off = Array.make (n + 1) 0 in
  for nd = 0 to n - 1 do
    cand_off.(nd + 1) <- cand_off.(nd) + c_cnt.(nd);
    l_off.(nd + 1) <- l_off.(nd) + l_cnt.(nd);
    dleaf_off.(nd + 1) <- dleaf_off.(nd) + d_cnt.(nd)
  done;
  let ncand = cand_off.(n) in
  let cand_arity = Bytes.make (max 1 ncand) '\000' in
  let cand_key =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (max 1 ncand)
  in
  let cand_gid = Array.make (max 1 ncand) (-1) in
  let cand_slo = Array.make (max 1 ncand) 0 in
  let cand_olo = Array.make (max 1 ncand) 0 in
  let cand_olen = Array.make (max 1 ncand) 0 in
  let leaf_buf = Array.make (max 1 l_off.(n)) 0 in
  let dleaf_buf = Array.make (max 1 dleaf_off.(n)) 0 in
  Par.run ~jobs ~n (fun w lo hi ->
      let us = uscratch.(w) in
      for nd = lo to hi - 1 do
        if Aig.is_and aig nd then begin
          let c = ref cand_off.(nd) and lp = ref l_off.(nd) and nu = ref 0 in
          iter_cands nd (fun m s key sup leaf_at ->
              let ci = !c in
              incr c;
              Bytes.set cand_arity ci (Char.chr s);
              Bigarray.Array1.set cand_key ci key;
              cand_olo.(ci) <- !lp;
              cand_olen.(ci) <- m;
              for i = 0 to m - 1 do
                leaf_buf.(!lp + i) <- leaf_at i
              done;
              if s = m then cand_slo.(ci) <- !lp
              else begin
                cand_slo.(ci) <- !lp + m;
                for i = 0 to s - 1 do
                  leaf_buf.(!lp + m + i) <- leaf_at sup.(i)
                done
              end;
              lp := !lp + m + (if s < m then s else 0);
              for i = 0 to s - 1 do
                let lf = leaf_at sup.(i) in
                let j = ref 0 in
                while !j < !nu && us.(!j) <> lf do
                  incr j
                done;
                if !j = !nu then begin
                  us.(!nu) <- lf;
                  incr nu
                end
              done);
          for i = 0 to !nu - 1 do
            dleaf_buf.(dleaf_off.(nd) + i) <- us.(i)
          done
        end
      done);
  (* Pass C (sequential): assign entry groups and resolve the library
     match lists, once per distinct (arity, key); one table per arity. *)
  let gtbl = Array.init 7 (fun _ -> Word_tbl.create 256) in
  let groups = ref [] and ngroups = ref 0 in
  for c = 0 to ncand - 1 do
    let s = Bytes.get_uint8 cand_arity c in
    if s >= 2 then begin
      let key = Bigarray.Array1.get cand_key c in
      match Word_tbl.find_opt gtbl.(s) key with
      | Some g -> cand_gid.(c) <- g
      | None ->
          let g = !ngroups in
          incr ngroups;
          Word_tbl.add gtbl.(s) key g;
          let ep = Cell_lib.matches lib s key in
          let en =
            (* free-phase libraries map a single phase; the negative
               lists would never be read *)
            if free then [] else Cell_lib.matches lib s (Int64.lognot key)
          in
          groups := (ep, en) :: !groups;
          cand_gid.(c) <- g
    end
  done;
  let garr = Array.of_list (List.rev !groups) in
  let ng = Array.length garr in
  let gpos_off = Array.make (max 1 ng) 0 in
  let gpos_len = Array.make (max 1 ng) 0 in
  let gneg_off = Array.make (max 1 ng) 0 in
  let gneg_len = Array.make (max 1 ng) 0 in
  let ents_rev = ref [] and epos = ref 0 in
  Array.iteri
    (fun g (ep, en) ->
      gpos_off.(g) <- !epos;
      List.iter
        (fun e ->
          ents_rev := e :: !ents_rev;
          incr epos)
        ep;
      gpos_len.(g) <- !epos - gpos_off.(g);
      gneg_off.(g) <- !epos;
      List.iter
        (fun e ->
          ents_rev := e :: !ents_rev;
          incr epos)
        en;
      gneg_len.(g) <- !epos - gneg_off.(g))
    garr;
  let ent = Array.of_list (List.rev !ents_rev) in
  let ent_phase = Array.map (fun e -> e.Cell_lib.phase) ent in
  let ent_delay =
    Array.map (fun e -> e.Cell_lib.cell.Cell_lib.delay) ent
  in
  let ent_cost = Array.map (fun e -> cell_cost e.Cell_lib.cell) ent in
  let t_cuts = now () -. t0 in
  (* ---- incremental pass re-evaluation ----
     A matching pass recomputes each slot from its candidate leaves'
     current (arrival, flow) plus, in area mode, the node's effective
     required time.  If none of those inputs changed since the previous
     pass, recomputation is the identity, so the node is skipped — an
     exact criterion, hence bit-identical covers (asserted by the
     differential test).  [changed] marks nodes whose slot values
     actually changed in the current sweep; leaves are processed before
     consumers, so dirtiness propagates transitively within one sweep.
     [req_seen] holds last area pass's effective required times
     (neg_infinity sentinel: the first area pass is fully dirty).
     Delay-objective sweeps always evaluate (they follow an objective or
     load change), and timing mode disables skipping entirely: its load
     fixed-point rewrites the cost model between sweeps. *)
  let force_full = (not params.incremental) || timing_on in
  let changed = Bytes.make n '\000' in
  let req_seen = Array.make nslots neg_infinity in
  let rec req_changed ra t base p =
    if p >= nph then false
    else
      let r = ra.(base + p) in
      let e = if r = infinity_f then t else r in
      e <> req_seen.(base + p) || req_changed ra t base (p + 1)
  in
  let rec leaves_changed i hi =
    if i >= hi then false
    else
      Bytes.get changed dleaf_buf.(i) <> '\000' || leaves_changed (i + 1) hi
  in
  (* Hot-loop scratch, so matching allocates nothing: fa.(0,1) best
     (arrival, flow); fa.(2,3) candidate (arrival, flow); fa.(4..7) the
     node's slot values before re-evaluation (change detection);
     fi.(0,1) best (ch1, ch2). *)
  let fa = Array.make 8 0.0 and fi = Array.make 2 0 in
  (* Candidate-vs-best comparison; epsilons as in the seed.  `Delay:
     lexicographic (arrival, flow); `Area: minimize flow subject to
     arrival <= req. *)
  let consider area req c1 c2 arr fl =
    let better =
      if not area then
        arr < fa.(0) -. 1e-9 || (arr < fa.(0) +. 1e-9 && fl < fa.(1) -. 1e-9)
      else begin
        let fx = arr <= req +. 1e-6 and fb = fa.(0) <= req +. 1e-6 in
        if fx && not fb then true
        else if fx = fb then
          fl < fa.(1) -. 1e-9 || (fl < fa.(1) +. 1e-9 && arr < fa.(0) -. 1e-9)
        else false
      end
    in
    if better then begin
      fa.(0) <- arr;
      fa.(1) <- fl;
      fi.(0) <- c1;
      fi.(1) <- c2
    end
  in
  (* One matching evaluation of a node: both phases plus inverter
     bridging.  [reqm] is [None] for a delay-objective sweep or
     [Some (required-times, t)] for area recovery. *)
  let process reqm nd =
    let base = nd * nph in
    let must =
      force_full
      ||
      match reqm with
      | None -> true
      | Some (ra, t) ->
          req_changed ra t base 0
          || leaves_changed dleaf_off.(nd) dleaf_off.(nd + 1)
    in
    if not must then stats.Cut.reeval_skips <- stats.Cut.reeval_skips + 1
    else begin
      stats.Cut.reevals <- stats.Cut.reevals + 1;
      fa.(4) <- arrival.(base);
      fa.(5) <- flow.(base);
      if nph = 2 then begin
        fa.(6) <- arrival.(base + 1);
        fa.(7) <- flow.(base + 1)
      end;
      for ph = 0 to nph - 1 do
        let area, rq =
          match reqm with
          | None -> (false, 0.0)
          | Some (ra, t) ->
              let r = ra.(base + ph) in
              let e = if r = infinity_f then t else r in
              req_seen.(base + ph) <- e;
              (true, e)
        in
        fa.(0) <- infinity_f;
        fa.(1) <- infinity_f;
        fi.(0) <- code_unmapped;
        fi.(1) <- 0;
        for c = cand_off.(nd) to cand_off.(nd + 1) - 1 do
          let s = Bytes.get_uint8 cand_arity c in
          if s = 1 then begin
            (* wire or complement of a single leaf *)
            let key = Bigarray.Array1.get cand_key c in
            let want_key = if ph = 0 then key else Int64.lognot key in
            let neg_leaf = want_key = tt_nvar0 in
            if want_key = tt_var0 || neg_leaf then begin
              let leaf = leaf_buf.(cand_slo.(c)) in
              let lph = if neg_leaf then 1 else 0 in
              let sx = (leaf * nph) + (lph land phm) in
              consider area rq code_wire
                ((leaf lsl 1) lor lph)
                arrival.(sx)
                (flow.(sx) /. refs_f.(leaf))
            end
          end
          else if s >= 2 then begin
            stats.Cut.probes <- stats.Cut.probes + 1;
            let g = cand_gid.(c) in
            let off = if ph = 0 then gpos_off.(g) else gneg_off.(g) in
            let len = if ph = 0 then gpos_len.(g) else gneg_len.(g) in
            let slo = cand_slo.(c) in
            for ei = off to off + len - 1 do
              (* hot loop of every matching pass: flat loads/stores
                 only, no allocation *)
              let ephase = ent_phase.(ei) in
              fa.(2) <- 0.0;
              fa.(3) <- ent_cost.(ei);
              for i = 0 to s - 1 do
                let leaf = leaf_buf.(slo + i) in
                let sx = (leaf * nph) + ((ephase lsr i) land phm) in
                let a = arrival.(sx) in
                if a > fa.(2) then fa.(2) <- a;
                fa.(3) <- fa.(3) +. (flow.(sx) /. refs_f.(leaf))
              done;
              let d =
                if timing_on && !use_loads then
                  cell_delay_loaded ent.(ei).Cell_lib.cell (node_load nd ph)
                else ent_delay.(ei)
              in
              consider area rq c ei (fa.(2) +. d) fa.(3)
            done
          end
        done;
        let six = base + ph in
        ch1.(six) <- fi.(0);
        ch2.(six) <- fi.(1);
        arrival.(six) <- fa.(0);
        flow.(six) <- fa.(1)
      done;
      (* inverter bridging between phases *)
      if nph = 2 then begin
        let i0 = base and i1 = base + 1 in
        if arrival.(i1) +. inv_delay_at nd 0 < arrival.(i0) then begin
          ch1.(i0) <- code_bridge;
          arrival.(i0) <- arrival.(i1) +. inv_delay_at nd 0;
          flow.(i0) <- flow.(i1) +. inv_area
        end;
        if arrival.(i0) +. inv_delay_at nd 1 < arrival.(i1) then begin
          ch1.(i1) <- code_bridge;
          arrival.(i1) <- arrival.(i0) +. inv_delay_at nd 1;
          flow.(i1) <- flow.(i0) +. inv_area
        end
      end;
      if
        arrival.(base) <> fa.(4)
        || flow.(base) <> fa.(5)
        || (nph = 2
           && (arrival.(base + 1) <> fa.(6) || flow.(base + 1) <> fa.(7)))
      then Bytes.set changed nd '\001'
    end
  in
  (* A sweep visits the AND nodes in id order, which is topological:
     every cut leaf has a smaller id than its root, so its slots are
     final before any candidate reads them. *)
  let delay_sweep () =
    Bytes.fill changed 0 n '\000';
    Aig.iter_ands aig (process None)
  in
  let area_sweep reqm =
    Bytes.fill changed 0 n '\000';
    Aig.iter_ands aig (process (Some reqm))
  in
  (* phase timing (wall clock; [Sys.time] is CPU time and lies at
     jobs > 1) *)
  let t_match = ref 0.0
  and t_required = ref 0.0
  and t_recover = ref 0.0 in
  (* delay-oriented pass *)
  let t1 = now () in
  delay_sweep ();
  t_match := !t_match +. (now () -. t1);
  (* verify every node got mapped *)
  Aig.iter_ands aig (fun nd ->
      for ph = 0 to nph - 1 do
        if ch1.((nd * nph) + ph) = code_unmapped then
          failwith
            (Printf.sprintf "Mapper: node %d phase %d has no match" nd ph)
      done);
  let outputs = Aig.outputs aig in
  let output_slots () =
    Array.to_list outputs
    |> List.filter_map (fun (_, l) ->
           let nd = Aig.node_of l in
           if Aig.is_and aig nd then
             Some (nd, if Aig.is_compl l then 1 mod nph else 0)
           else None)
  in
  let global_arrival () =
    List.fold_left
      (fun acc (nd, ph) -> max acc arrival.((nd * nph) + ph))
      0.0 (output_slots ())
  in
  (* required-time computation over the current cover *)
  let compute_required () =
    let req = Array.make nslots infinity_f in
    let t = global_arrival () in
    List.iter
      (fun (nd, ph) ->
        let ix = (nd * nph) + ph in
        if t < req.(ix) then req.(ix) <- t)
      (output_slots ());
    for nd = n - 1 downto 1 do
      if Aig.is_and aig nd then
        for p = 0 to nph - 1 do
          let ix = (nd * nph) + p in
          let r = req.(ix) in
          if r < infinity_f then begin
            let c1 = ch1.(ix) in
            if c1 = code_wire then begin
              let v = ch2.(ix) in
              let leaf = v lsr 1 in
              let lp = if free || v land 1 = 0 then 0 else 1 in
              let lix = (leaf * nph) + lp in
              if r < req.(lix) then req.(lix) <- r
            end
            else if c1 = code_bridge then begin
              let r' = r -. inv_delay_at nd p in
              let oix = (nd * nph) + (1 - p) in
              if r' < req.(oix) then req.(oix) <- r'
            end
            else if c1 >= 0 then begin
              let ei = ch2.(ix) in
              let r' = r -. cell_delay_at nd p ent.(ei).Cell_lib.cell in
              let s = Bytes.get_uint8 cand_arity c1 in
              let slo = cand_slo.(c1) and ephase = ent_phase.(ei) in
              for i = 0 to s - 1 do
                let leaf = leaf_buf.(slo + i) in
                let want = if free then 0 else (ephase lsr i) land 1 in
                let lix = (leaf * nph) + want in
                if r' < req.(lix) then req.(lix) <- r'
              done
            end
          end
        done
    done;
    (req, t)
  in
  (* Walk the chosen cover from the outputs and accumulate the pin
     capacitance every consumer presents to each (node, phase) driver —
     the same accounting {!Mapped.output_loads} applies after extraction
     (reference output load per PO, cell pin caps per fanin, a Wire
     passes its accumulated load through to the aliased driver).
     Slots outside the cover keep the a-priori estimate. *)
  let measure_loads () =
    let loads = Array.init n (fun _ -> Array.make nph 0.0) in
    let used = Array.init n (fun _ -> Array.make nph false) in
    List.iter
      (fun (nd, ph) ->
        used.(nd).(ph) <- true;
        loads.(nd).(ph) <- loads.(nd).(ph) +. (4.0 *. cref))
      (output_slots ());
    for nd = n - 1 downto 1 do
      if Aig.is_and aig nd then begin
        (* a Bridge loads the same node's other phase: resolve it first so
           that phase's own propagation below sees the inverter's pin *)
        for p = 0 to nph - 1 do
          if used.(nd).(p) && ch1.((nd * nph) + p) = code_bridge then begin
            let other = 1 - p in
            used.(nd).(other) <- true;
            loads.(nd).(other) <- loads.(nd).(other) +. inv_pin_cap
          end
        done;
        for p = 0 to nph - 1 do
          if used.(nd).(p) then begin
            let ix = (nd * nph) + p in
            let c1 = ch1.(ix) in
            if c1 = code_wire then begin
              let v = ch2.(ix) in
              let leaf = v lsr 1 in
              let lp = if free || v land 1 = 0 then 0 else 1 in
              used.(leaf).(lp) <- true;
              loads.(leaf).(lp) <- loads.(leaf).(lp) +. loads.(nd).(p)
            end
            else if c1 >= 0 then begin
              let ei = ch2.(ix) in
              let entry = ent.(ei) in
              let s = Bytes.get_uint8 cand_arity c1 in
              let slo = cand_slo.(c1) in
              for i = 0 to s - 1 do
                let leaf = leaf_buf.(slo + i) in
                let want =
                  if free then 0 else (entry.Cell_lib.phase lsr i) land 1
                in
                used.(leaf).(want) <- true;
                let pc =
                  match entry.Cell_lib.cell.Cell_lib.timing with
                  | Some tm -> tm.Charlib.pin_caps.(entry.Cell_lib.perm.(i))
                  | None -> avg_cin
                in
                loads.(leaf).(want) <- loads.(leaf).(want) +. pc
              done
            end
          end
        done
      end
    done;
    for nd = 0 to n - 1 do
      for p = 0 to nph - 1 do
        if not used.(nd).(p) then loads.(nd).(p) <- est_load nd
      done
    done;
    loads
  in
  (* Snapshot/restore the cover (timing mode keeps the best one seen:
     the load fixed-point iteration is not monotone). *)
  let snapshot () =
    (Array.copy arrival, Array.copy flow, Array.copy ch1, Array.copy ch2)
  in
  let restore (a, f, c1, c2) =
    Array.blit a 0 arrival 0 nslots;
    Array.blit f 0 flow 0 nslots;
    Array.blit c1 0 ch1 0 nslots;
    Array.blit c2 0 ch2 0 nslots
  in
  (* True critical delay of the current cover: forward arrival using the
     loads the cover itself presents — what the post-extraction STA will
     report, as opposed to the (estimated-load) slot arrivals. *)
  let eval_cover () =
    let loads = measure_loads () in
    let arr = Array.init n (fun _ -> Array.make nph 0.0) in
    for nd = 1 to n - 1 do
      if Aig.is_input aig nd then begin
        if nph = 2 then
          arr.(nd).(1) <-
            (match inv with
            | Some c -> cell_delay_loaded c loads.(nd).(1)
            | None -> 0.0)
      end
      else if Aig.is_and aig nd then begin
        let eval p =
          let ix = (nd * nph) + p in
          let c1 = ch1.(ix) in
          if c1 = code_unmapped || c1 = code_bridge then 0.0
          else if c1 = code_wire then begin
            let v = ch2.(ix) in
            let leaf = v lsr 1 in
            arr.(leaf).(if free || v land 1 = 0 then 0 else 1)
          end
          else begin
            let ei = ch2.(ix) in
            let entry = ent.(ei) in
            let s = Bytes.get_uint8 cand_arity c1 in
            let slo = cand_slo.(c1) in
            let a = ref 0.0 in
            for i = 0 to s - 1 do
              let leaf = leaf_buf.(slo + i) in
              let want =
                if free then 0 else (entry.Cell_lib.phase lsr i) land 1
              in
              if arr.(leaf).(want) > !a then a := arr.(leaf).(want)
            done;
            !a +. cell_delay_loaded entry.Cell_lib.cell loads.(nd).(p)
          end
        in
        for p = 0 to nph - 1 do
          if ch1.((nd * nph) + p) <> code_bridge then arr.(nd).(p) <- eval p
        done;
        for p = 0 to nph - 1 do
          if ch1.((nd * nph) + p) = code_bridge then
            arr.(nd).(p) <-
              arr.(nd).(1 - p)
              +. (match inv with
                 | Some c -> cell_delay_loaded c loads.(nd).(p)
                 | None -> 0.0)
        done
      end
    done;
    List.fold_left
      (fun acc (nd, ph) -> Float.max acc arr.(nd).(ph))
      0.0 (output_slots ())
  in
  (* area-recovery passes with the legacy fixed-FO4 cost — in timing mode
     too, so refinement below starts from exactly the default-mode cover *)
  let area_pass () =
    let tr = now () in
    let reqm = compute_required () in
    t_required := !t_required +. (now () -. tr);
    let ta = now () in
    area_sweep reqm;
    t_recover := !t_recover +. (now () -. ta)
  in
  for _ = 1 to params.area_passes do
    area_pass ()
  done;
  (* Timing mode: iterate toward a load fixed point — re-map against the
     loads the current cover actually presents — keeping the best cover by
     its true (measured-load) critical delay; the default cover seeds the
     comparison, so load-aware mapping never ends up slower than it.
     Then recover area under the load-aware cost, slack-guarded: a pass
     that slows the measured critical delay is rolled back and recovery
     stops. *)
  if timing_on then begin
    let tr0 = now () in
    let best = ref (snapshot ()) and best_crit = ref (eval_cover ()) in
    t_required := !t_required +. (now () -. tr0);
    use_loads := true;
    for _ = 1 to 2 do
      let tr = now () in
      loads_cur := Some (measure_loads ());
      init_leaf_slots ();
      t_required := !t_required +. (now () -. tr);
      let tm = now () in
      delay_sweep ();
      t_match := !t_match +. (now () -. tm);
      let tr2 = now () in
      let c = eval_cover () in
      if c < !best_crit -. 1e-9 then begin
        best_crit := c;
        best := snapshot ()
      end;
      t_required := !t_required +. (now () -. tr2)
    done;
    restore !best;
    loads_cur := Some (measure_loads ());
    init_leaf_slots ();
    let area_ok = ref true in
    for _ = 1 to params.area_passes do
      if !area_ok then begin
        let snap = snapshot () and crit0 = eval_cover () in
        area_pass ();
        if eval_cover () > crit0 +. 1e-9 then begin
          restore snap;
          area_ok := false
        end
        else begin
          loads_cur := Some (measure_loads ());
          init_leaf_slots ()
        end
      end
    done
  end;
  (* ---- extraction ---- *)
  let t_x0 = now () in
  let insts = ref [] in
  let ninsts = ref 0 in
  let memo = Hashtbl.create 1024 in
  let rec resolve nd ph : Mapped.net =
    if nd = 0 then { Mapped.driver = Mapped.Const (ph = 1); negated = false }
    else if Aig.is_input aig nd then begin
      if ph = 0 then { Mapped.driver = Mapped.Pi (nd - 1); negated = false }
      else if free then { Mapped.driver = Mapped.Pi (nd - 1); negated = true }
      else begin
        match Hashtbl.find_opt memo (nd, 1) with
        | Some net -> net
        | None ->
            let net =
              emit_inverter (Aig.lit_of_node nd)
                { Mapped.driver = Mapped.Pi (nd - 1); negated = false }
            in
            Hashtbl.add memo (nd, 1) net;
            net
      end
    end
    else begin
      let p = if free then 0 else ph in
      match Hashtbl.find_opt memo (nd, p) with
      | Some net ->
          if free && ph = 1 then { net with Mapped.negated = not net.Mapped.negated }
          else net
      | None ->
          let ix = (nd * nph) + p in
          let c1 = ch1.(ix) in
          let net =
            if c1 = code_unmapped then assert false
            else if c1 = code_wire then begin
              let v = ch2.(ix) in
              let leaf = v lsr 1 and lph = v land 1 = 1 in
              if free then begin
                let base = resolve leaf 0 in
                if lph then
                  { base with Mapped.negated = not base.Mapped.negated }
                else base
              end
              else resolve leaf (if lph then 1 else 0)
            end
            else if c1 = code_bridge then
              emit_inverter
                (Aig.lit_of_node nd ~compl:(1 - p = 1))
                (resolve nd (1 - p))
            else begin
              let ei = ch2.(ix) in
              let entry = ent.(ei) in
              let s = Bytes.get_uint8 cand_arity c1 in
              let slo = cand_slo.(c1) in
              let leaves = Array.init s (fun i -> leaf_buf.(slo + i)) in
              let orig_leaves =
                Array.sub leaf_buf cand_olo.(c1) cand_olen.(c1)
              in
              let key = Bigarray.Array1.get cand_key c1 in
              let want_key = if p = 1 then Int64.lognot key else key in
              let fanins =
                Array.mapi
                  (fun i leaf ->
                    let want = (entry.Cell_lib.phase lsr i) land 1 in
                    if free then begin
                      let base = resolve leaf 0 in
                      if want = 1 then
                        { base with Mapped.negated = not base.Mapped.negated }
                      else base
                    end
                    else resolve leaf want)
                  leaves
              in
              (* instance function over fanin values: fanin i carries
                 leaf_i ^ phase_i, so substitute back *)
              let tt = Npn.apply_phase want_key entry.Cell_lib.phase in
              let cover =
                {
                  Mapped.root_lit = Aig.lit_of_node nd ~compl:(p = 1);
                  fanin_lits =
                    Array.mapi
                      (fun i leaf ->
                        let want = (entry.Cell_lib.phase lsr i) land 1 in
                        Aig.lit_of_node leaf ~compl:(want = 1))
                      leaves;
                  cut_nodes = orig_leaves;
                }
              in
              let cell = entry.Cell_lib.cell in
              let idx = !ninsts in
              incr ninsts;
              insts :=
                {
                  Mapped.cell_name = cell.Cell_lib.name;
                  area = cell.Cell_lib.area;
                  delay = cell.Cell_lib.delay;
                  drive =
                    (match cell.Cell_lib.timing with
                    | Some tm -> Some tm.Charlib.drive
                    | None -> None);
                  fanin_caps =
                    (* fanin [i] enters cell pin [perm.(i)] *)
                    (match cell.Cell_lib.timing with
                    | Some tm ->
                        Array.mapi
                          (fun i _ ->
                            tm.Charlib.pin_caps.(entry.Cell_lib.perm.(i)))
                          leaves
                    | None -> [||]);
                  fanins;
                  tt;
                  cover = Some cover;
                }
                :: !insts;
              { Mapped.driver = Mapped.Inst idx; negated = false }
            end
          in
          Hashtbl.add memo (nd, p) net;
          if free && ph = 1 then { net with Mapped.negated = not net.Mapped.negated }
          else net
    end
  and emit_inverter in_lit input : Mapped.net =
    (* [in_lit] is the AIG literal whose value the [input] net carries;
       recorded in the cover so Map_lint can verify inverter chains too. *)
    match inv with
    | None ->
        (* free-phase library: complement is free *)
        { input with Mapped.negated = not input.Mapped.negated }
    | Some c ->
        let idx = !ninsts in
        incr ninsts;
        insts :=
          {
            Mapped.cell_name = c.Cell_lib.name;
            area = c.Cell_lib.area;
            delay = c.Cell_lib.delay;
            drive =
              (match c.Cell_lib.timing with
              | Some tm -> Some tm.Charlib.drive
              | None -> None);
            fanin_caps =
              (match c.Cell_lib.timing with
              | Some tm -> [| tm.Charlib.pin_caps.(0) |]
              | None -> [||]);
            fanins = [| input |];
            tt = Int64.lognot 0xAAAAAAAAAAAAAAAAL;
            cover =
              Some
                {
                  Mapped.root_lit = Aig.lnot in_lit;
                  fanin_lits = [| in_lit |];
                  cut_nodes = [| Aig.node_of in_lit |];
                };
          }
          :: !insts;
        { Mapped.driver = Mapped.Inst idx; negated = false }
  in
  let out_nets =
    Array.map
      (fun (name, l) ->
        let nd = Aig.node_of l in
        let c = Aig.is_compl l in
        let net =
          if free then begin
            let base = resolve nd 0 in
            if c then { base with Mapped.negated = not base.Mapped.negated }
            else base
          end
          else resolve nd (if c then 1 else 0)
        in
        (name, net))
      outputs
  in
  (match phase with
  | None -> ()
  | Some pm ->
      pm.pm_cuts_ms <- pm.pm_cuts_ms +. (t_cuts *. 1e3);
      pm.pm_match_ms <- pm.pm_match_ms +. (!t_match *. 1e3);
      pm.pm_required_ms <- pm.pm_required_ms +. (!t_required *. 1e3);
      pm.pm_recover_ms <- pm.pm_recover_ms +. (!t_recover *. 1e3);
      pm.pm_extract_ms <- pm.pm_extract_ms +. ((now () -. t_x0) *. 1e3));
  ( {
      Mapped.lib_name = Cell_lib.name lib;
      tau_ps = Cell_lib.tau_ps lib;
      num_inputs = Aig.num_inputs aig;
      input_names =
        Array.init (Aig.num_inputs aig) (fun i -> Aig.input_name aig i);
      instances = Array.of_list (List.rev !insts);
      outputs = out_nets;
    },
    stats )

let map ?params lib aig = fst (map_with_stats ?params lib aig)
