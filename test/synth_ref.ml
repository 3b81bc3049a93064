(* The seed refactor sweep: the oracle [Synth.rewrite], [Synth.refactor]
   and [Synth.resyn2rs] are tested against.  It keeps the seed's
   bookkeeping — a [Hashtbl] greedy cut whose growth ties fall to
   [Hashtbl.iter] order, [Hashtbl] death counts, [Aig.mffc_size], list
   cuts ([Cut_ref]) with cone-walk truth tables ([Aig.tt_of_cut]), and
   uncached ISOP + factoring — and one sequential analyze/commit loop
   over the nodes. *)

let lit_map_get map l =
  let nl = Hashtbl.find map (Aig.node_of l) in
  if Aig.is_compl l then Aig.lnot nl else nl

(* Greedy reconvergence-driven cut of at most [k] leaves. *)
let greedy_cut aig nd k =
  let leaves = Hashtbl.create 8 in
  let add n = Hashtbl.replace leaves n () in
  add (Aig.node_of (Aig.fanin0 aig nd));
  add (Aig.node_of (Aig.fanin1 aig nd));
  let continue = ref true in
  let steps = ref 0 in
  while !continue && !steps < 64 do
    incr steps;
    (* pick the expandable leaf with the smallest growth *)
    let best = ref None in
    Hashtbl.iter
      (fun leaf () ->
        if Aig.is_and aig leaf then begin
          let f0 = Aig.node_of (Aig.fanin0 aig leaf) in
          let f1 = Aig.node_of (Aig.fanin1 aig leaf) in
          let growth =
            (if Hashtbl.mem leaves f0 || f0 = leaf then 0 else 1)
            + (if Hashtbl.mem leaves f1 || f1 = leaf then 0 else 1)
            - 1
          in
          let size' = Hashtbl.length leaves + growth in
          if size' <= k then
            match !best with
            | Some (_, g) when g <= growth -> ()
            | _ -> best := Some (leaf, growth)
        end)
      leaves;
    match !best with
    | None -> continue := false
    | Some (leaf, _) ->
        Hashtbl.remove leaves leaf;
        add (Aig.node_of (Aig.fanin0 aig leaf));
        add (Aig.node_of (Aig.fanin1 aig leaf))
  done;
  let arr = Array.of_seq (Hashtbl.to_seq_keys leaves) in
  Array.sort compare arr;
  arr

let rec build_form g leaf_lits = function
  | Factored.Const b -> if b then Aig.lit_true else Aig.lit_false
  | Factored.Lit (i, s) ->
      if s then leaf_lits.(i) else Aig.lnot leaf_lits.(i)
  | Factored.And fs ->
      Aig.mk_and_list g (List.map (build_form g leaf_lits) fs)
  | Factored.Or fs ->
      Aig.mk_or_list g (List.map (build_form g leaf_lits) fs)

let max_isop_cubes = 96

let pick_form t =
  let sop = Sop.isop t in
  if Sop.num_cubes sop > max_isop_cubes then None
  else
    let f = Factored.factor sop in
    Some (f, Factored.num_and2 f)

(* Number of AND nodes that stop being referenced when the cone of [nd]
   above the cut is bypassed: the node's MFFC restricted to the cone.
   [refs] are whole-graph fanout counts. *)
let deaths_in_cone aig refs nd cut =
  let in_cut = Hashtbl.create 8 in
  Array.iter (fun n -> Hashtbl.replace in_cut n ()) cut;
  let dec = Hashtbl.create 8 in
  let deref n =
    let d = try Hashtbl.find dec n with Not_found -> 0 in
    Hashtbl.replace dec n (d + 1);
    refs.(n) - (d + 1) = 0
  in
  let count = ref 0 in
  let rec go n =
    incr count;
    let visit f =
      let m = Aig.node_of f in
      if Aig.is_and aig m && (not (Hashtbl.mem in_cut m)) && deref m then go m
    in
    visit (Aig.fanin0 aig n);
    visit (Aig.fanin1 aig n)
  in
  go nd;
  !count

let refactor_impl ~zero_gain ~cut_size aig =
  let cut_size = min cut_size Tt.max_vars in
  let fresh = Aig.create ~size_hint:(Aig.num_nodes aig) () in
  let map = Hashtbl.create (Aig.num_nodes aig) in
  Hashtbl.add map 0 Aig.lit_false;
  for i = 0 to Aig.num_inputs aig - 1 do
    Hashtbl.add map (i + 1) (Aig.add_input ~name:(Aig.input_name aig i) fresh)
  done;
  let refs = Aig.fanout_counts aig in
  (* priority cuts plus the greedy reconvergent cut (the enumeration
     favors small cuts and can crowd out the reconvergent one) at small
     cut sizes; the greedy cut alone at large ones *)
  let enum_cuts =
    if cut_size <= 6 then begin
      let cuts = Cut_ref.compute aig ~k:cut_size ~limit:8 in
      fun nd ->
        let prio =
          List.filter_map
            (fun c ->
              let l = c.Cut_ref.leaves in
              if Array.length l < 2 then None else Some l)
            cuts.(nd)
        in
        let g = greedy_cut aig nd cut_size in
        if Array.length g >= 2 && not (List.mem g prio) then g :: prio
        else prio
    end
    else fun nd ->
      let c = greedy_cut aig nd cut_size in
      if Array.length c >= 2 then [ c ] else []
  in
  (* Candidates over all cuts and both output polarities, best score
     (nodes that die minus the rebuild estimate) first; the first 12 are
     dry-run. *)
  let analyze nd =
    let mffc = Aig.mffc_size aig refs nd in
    let candidates =
      List.concat_map
        (fun cut ->
          let deaths = deaths_in_cone aig refs nd cut in
          let tt = Aig.tt_of_cut aig (Aig.lit_of_node nd) cut in
          List.filter_map
            (fun (t, neg) ->
              match pick_form t with
              | Some (f, est) -> Some (cut, f, neg, deaths, deaths - est)
              | None -> None)
            [ (tt, false); (Tt.bnot tt, true) ])
        (enum_cuts nd)
    in
    let candidates =
      List.sort (fun (_, _, _, _, a) (_, _, _, _, b) -> compare b a) candidates
    in
    let rec take i = function
      | (cut, form, neg, deaths, _) :: tl when i < 12 ->
          (cut, form, neg, deaths) :: take (i + 1) tl
      | _ -> []
    in
    (mffc, take 0 candidates)
  in
  let commit nd =
    let replaced = ref false in
    if refs.(nd) > 0 then begin
      let mffc, cands = analyze nd in
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
  Aig.iter_ands aig commit;
  Array.iter
    (fun (name, l) -> Aig.add_output fresh name (lit_map_get map l))
    (Aig.outputs aig);
  Aig.cleanup fresh

(* The whole-pass size guard. *)
let guard pass aig =
  let out = pass aig in
  if Aig.num_ands out <= Aig.num_ands aig then out else aig

let refactor ?(zero_gain = false) ?(cut_size = 10) aig =
  guard (refactor_impl ~zero_gain ~cut_size) aig

let rewrite ?(zero_gain = false) aig = refactor ~zero_gain ~cut_size:4 aig

let resyn2rs aig =
  aig |> rewrite |> refactor |> Synth.balance |> rewrite
  |> rewrite ~zero_gain:true |> Synth.balance |> refactor ~zero_gain:true
  |> rewrite ~zero_gain:true |> Synth.balance
