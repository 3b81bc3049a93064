let rules =
  [
    ("map-range", "fanin/output references outside the netlist");
    ("map-order", "instance fanin not strictly earlier (cycle)");
    ("map-unused", "instance drives no fanin and no output");
    ("map-cell-unknown", "instance cell not present in the library");
    ("map-cell-npn", "instance function not an NPN variant of its cell");
    ("map-cell-char", "instance area/delay differ from the library");
    ("map-io", "PI/PO counts differ from the golden AIG");
    ("map-cover-missing", "instance carries no cover provenance");
    ("map-cover-shape", "cover shape inconsistent with the fanins");
    ("map-cover-cut", "cover leaves are not a structural cut of the root");
    ( "map-cover-shrunk",
      "support-reduced cover verified structurally via its recorded cut" );
    ("map-cell-function", "instance function differs from the covered cut");
    ("map-cover-chain", "fanin net does not carry the claimed literal");
    ("map-output", "output net does not carry the golden output");
    ("map-output-name", "output name differs from the golden AIG");
    ("map-delay-negative", "negative or NaN delay/capacitance/resistance");
    ("map-arrival-monotone", "arrival time decreases along a fanin chain");
    ( "map-sta-crit",
      "critical-path delay below the slowest reachable single stage" );
  ]

(* Shannon-expand a truth table into graph [g] over the literals [ins]. *)
let shannon g (ins : Aig.lit array) tt0 =
  let k = Array.length ins in
  let rec build tt i =
    if Tt.is_const0 tt then Aig.lit_false
    else if Tt.is_const1 tt then Aig.lit_true
    else if i >= k then Aig.lit_false
    else if not (Tt.depends_on tt i) then build tt (i + 1)
    else
      let lo = build (Tt.cofactor0 tt i) (i + 1) in
      let hi = build (Tt.cofactor1 tt i) (i + 1) in
      Aig.mk_mux g ins.(i) hi lo
  in
  build tt0 0

(* Shannon-expand a truth table into a fresh AIG over [k] inputs. *)
let aig_of_tt k tt =
  let g = Aig.create () in
  let ins = Array.init k (fun _ -> Aig.add_input g) in
  Aig.add_output g "f" (shannon g ins tt);
  g

(* Semantic cover check over the primary inputs: is [root_lit] equivalent
   to [inst_tt] — a function of the (positive) values of the leaf nodes
   [leaves] — composed with those nodes' functions?  This is the fallback
   when the recorded leaves are not a {e structural} cut of the root cone —
   the mapper shrinks cuts to their functional support, so a dropped
   don't-care leaf can leave the cone crossing the leaf boundary while the
   cover is still functionally sound. *)
let compose_equiv ?conflict_budget ?stats golden root_lit leaves inst_tt =
  let outs =
    ("r", root_lit)
    :: Array.to_list
         (Array.mapi
            (fun i n -> (Printf.sprintf "l%d" i, Aig.lit_of_node n))
            leaves)
  in
  let g, map = Aig.extract golden outs in
  let tr l =
    let nl = map.(Aig.node_of l) in
    if nl < 0 then invalid_arg "Map_lint.compose_equiv"
    else if Aig.is_compl l then Aig.lnot nl
    else nl
  in
  let composed =
    shannon g (Array.map (fun n -> tr (Aig.lit_of_node n)) leaves) inst_tt
  in
  let miter = Aig.mk_xor g (tr root_lit) composed in
  (* re-extract to a single-output graph and compare against constant 0 *)
  let gm, _ = Aig.extract g [ ("m", miter) ] in
  let g0 = Aig.create () in
  for _ = 1 to Aig.num_inputs gm do
    ignore (Aig.add_input g0)
  done;
  Aig.add_output g0 "m" Aig.lit_false;
  Cec.check ?conflict_budget ?stats gm g0

exception Cut_violation

(* Copy the cone of [root_lit] above the node cut [leaves] into a fresh
   AIG whose inputs are the leaves in order.  Raises [Cut_violation] if
   the leaves do not cut the cone. *)
let aig_of_cut golden root_lit leaves =
  let g = Aig.create () in
  let map = Hashtbl.create 32 in
  Array.iter
    (fun nd ->
      let l = Aig.add_input g in
      if not (Hashtbl.mem map nd) then Hashtbl.add map nd l)
    leaves;
  Hashtbl.replace map 0 Aig.lit_false;
  let rec copy nd =
    match Hashtbl.find_opt map nd with
    | Some l -> l
    | None ->
        if not (Aig.is_and golden nd) then raise Cut_violation;
        let f0 = Aig.fanin0 golden nd and f1 = Aig.fanin1 golden nd in
        let a = copy (Aig.node_of f0) in
        let b = copy (Aig.node_of f1) in
        let a = if Aig.is_compl f0 then Aig.lnot a else a in
        let b = if Aig.is_compl f1 then Aig.lnot b else b in
        let l = Aig.mk_and g a b in
        Hashtbl.add map nd l;
        l
  in
  let out = copy (Aig.node_of root_lit) in
  Aig.add_output g "f" (if Aig.is_compl root_lit then Aig.lnot out else out);
  g

let check ?(name = "mapped") ?lib ?golden ?(tt_max_leaves = 16)
    ?conflict_budget ?stats (m : Mapped.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ninst = Array.length m.Mapped.instances in
  let inst_loc j =
    Diag.Inst
      ( name,
        j )
  in
  (* ---- structure ---- *)
  let refs = Array.make (max ninst 1) 0 in
  let check_net ~loc ~bound (net : Mapped.net) =
    match net.Mapped.driver with
    | Mapped.Pi i ->
        if i < 0 || i >= m.Mapped.num_inputs then begin
          add
            (Diag.errorf ~rule:"map-range" loc
               "references primary input %d outside [0, %d)" i
               m.Mapped.num_inputs);
          false
        end
        else true
    | Mapped.Const _ -> true
    | Mapped.Inst j ->
        if j < 0 || j >= ninst then begin
          add
            (Diag.errorf ~rule:"map-range" loc
               "references instance %d outside [0, %d)" j ninst);
          false
        end
        else begin
          refs.(j) <- refs.(j) + 1;
          (match bound with
          | Some self when j >= self ->
              add
                (Diag.errorf ~rule:"map-order" loc
                   "fanin references instance %d, not strictly earlier \
                    (combinational cycle or forward reference)"
                   j)
          | _ -> ());
          true
        end
  in
  let structure_ok = ref true in
  Array.iteri
    (fun j inst ->
      Array.iter
        (fun net ->
          if not (check_net ~loc:(inst_loc j) ~bound:(Some j) net) then
            structure_ok := false)
        inst.Mapped.fanins)
    m.Mapped.instances;
  Array.iter
    (fun (oname, net) ->
      if not (check_net ~loc:(Diag.Map_out (name, oname)) ~bound:None net)
      then structure_ok := false)
    m.Mapped.outputs;
  Array.iteri
    (fun j _ ->
      if refs.(j) = 0 then
        add
          (Diag.warnf ~rule:"map-unused" (inst_loc j)
             "instance '%s' drives no fanin and no output"
             m.Mapped.instances.(j).Mapped.cell_name))
    m.Mapped.instances;
  (* ---- timing sanity (STA invariants; needs a well-formed structure) ---- *)
  if !structure_ok && ninst > 0 then begin
    Array.iteri
      (fun j (inst : Mapped.instance) ->
        let is_nan x = x <> x in
        let bad_drive =
          match inst.Mapped.drive with
          | None -> false
          | Some d ->
              d.Charlib.c_par < 0.0 || is_nan d.Charlib.c_par
              || d.Charlib.cin_ref <= 0.0
              || Array.exists (fun r -> r < 0.0 || is_nan r) d.Charlib.rs
        in
        if
          inst.Mapped.delay < 0.0 || is_nan inst.Mapped.delay || bad_drive
          || Array.exists (fun c -> c < 0.0 || is_nan c) inst.Mapped.fanin_caps
        then
          add
            (Diag.errorf ~rule:"map-delay-negative" (inst_loc j)
               "instance '%s' carries negative or NaN delay, capacitance or \
                resistance data"
               inst.Mapped.cell_name))
      m.Mapped.instances;
    let delays = Mapped.instance_delays m in
    Array.iteri
      (fun j d ->
        if d < 0.0 || d <> d then
          add
            (Diag.errorf ~rule:"map-delay-negative" (inst_loc j)
               "load-dependent delay of instance '%s' is %g"
               m.Mapped.instances.(j).Mapped.cell_name d))
      delays;
    let arr = Mapped.arrival_times_with m delays in
    Array.iteri
      (fun j (inst : Mapped.instance) ->
        Array.iteri
          (fun i (net : Mapped.net) ->
            match net.Mapped.driver with
            | Mapped.Inst d ->
                if arr.(j) +. 1e-9 < arr.(d) then
                  add
                    (Diag.errorf ~rule:"map-arrival-monotone" (inst_loc j)
                       "arrival %.4g at instance '%s' is earlier than \
                        arrival %.4g of its fanin %d (instance %d)"
                       arr.(j) inst.Mapped.cell_name arr.(d) i d)
            | Mapped.Pi _ | Mapped.Const _ -> ())
          inst.Mapped.fanins)
      m.Mapped.instances;
    (* the critical path is at least as long as the slowest single stage
       among instances that reach an output *)
    let reach = Array.make ninst false in
    let rec mark j =
      if not reach.(j) then begin
        reach.(j) <- true;
        Array.iter
          (fun (net : Mapped.net) ->
            match net.Mapped.driver with
            | Mapped.Inst i -> mark i
            | Mapped.Pi _ | Mapped.Const _ -> ())
          m.Mapped.instances.(j).Mapped.fanins
      end
    in
    let crit = ref 0.0 in
    Array.iter
      (fun (_, (net : Mapped.net)) ->
        match net.Mapped.driver with
        | Mapped.Inst j ->
            mark j;
            if arr.(j) > !crit then crit := arr.(j)
        | Mapped.Pi _ | Mapped.Const _ -> ())
      m.Mapped.outputs;
    let maxd = ref 0.0 in
    Array.iteri (fun j d -> if reach.(j) && d > !maxd then maxd := d) delays;
    if !crit +. 1e-9 < !maxd then
      add
        (Diag.errorf ~rule:"map-sta-crit" (Diag.Circuit name)
           "critical-path delay %.4g is below the slowest reachable single \
            stage %.4g"
           !crit !maxd)
  end;
  (* ---- library conformance ---- *)
  (match lib with
  | None -> ()
  | Some lib ->
      let by_name = Hashtbl.create 64 in
      List.iter
        (fun (c : Cell_lib.cell) -> Hashtbl.replace by_name c.Cell_lib.name c)
        (Cell_lib.cells lib);
      Array.iteri
        (fun j (inst : Mapped.instance) ->
          match Hashtbl.find_opt by_name inst.Mapped.cell_name with
          | None ->
              add
                (Diag.errorf ~rule:"map-cell-unknown" (inst_loc j)
                   "cell '%s' is not in library %s" inst.Mapped.cell_name
                   (Cell_lib.name lib))
          | Some c ->
              let k = Array.length inst.Mapped.fanins in
              if k <> c.Cell_lib.arity then
                add
                  (Diag.errorf ~rule:"map-cell-npn" (inst_loc j)
                     "instance of '%s' has %d fanins, cell arity is %d"
                     inst.Mapped.cell_name k c.Cell_lib.arity)
              else if k > 0 && k <= 6
                      && Npn.canonical_cached k inst.Mapped.tt
                         <> Npn.canonical_cached k c.Cell_lib.tt
              then
                add
                  (Diag.errorf ~rule:"map-cell-npn" (inst_loc j)
                     "instance function %016Lx is not an NPN variant of \
                      cell '%s' (%016Lx)"
                     inst.Mapped.tt inst.Mapped.cell_name c.Cell_lib.tt);
              if
                abs_float (inst.Mapped.area -. c.Cell_lib.area) > 1e-9
                || abs_float (inst.Mapped.delay -. c.Cell_lib.delay) > 1e-9
              then
                add
                  (Diag.warnf ~rule:"map-cell-char" (inst_loc j)
                     "area/delay %.4g/%.4g differ from cell '%s' %.4g/%.4g"
                     inst.Mapped.area inst.Mapped.delay
                     inst.Mapped.cell_name c.Cell_lib.area c.Cell_lib.delay))
        m.Mapped.instances);
  (* ---- cover verification against the golden AIG ---- *)
  (match golden with
  | None -> ()
  | Some golden ->
      let io_ok = ref true in
      if m.Mapped.num_inputs <> Aig.num_inputs golden then begin
        io_ok := false;
        add
          (Diag.errorf ~rule:"map-io" (Diag.Circuit name)
             "netlist has %d inputs, golden AIG has %d" m.Mapped.num_inputs
             (Aig.num_inputs golden))
      end;
      if Array.length m.Mapped.outputs <> Aig.num_outputs golden then begin
        io_ok := false;
        add
          (Diag.errorf ~rule:"map-io" (Diag.Circuit name)
             "netlist has %d outputs, golden AIG has %d"
             (Array.length m.Mapped.outputs)
             (Aig.num_outputs golden))
      end;
      if !io_ok && !structure_ok then begin
        let nnodes = Aig.num_nodes golden in
        let covers =
          Array.map (fun (i : Mapped.instance) -> i.Mapped.cover)
            m.Mapped.instances
        in
        (* literal carried by a net, per the drivers' covers *)
        let net_lit (net : Mapped.net) =
          let base =
            match net.Mapped.driver with
            | Mapped.Pi i -> Some (Aig.input_lit golden i)
            | Mapped.Const b ->
                Some (if b then Aig.lit_true else Aig.lit_false)
            | Mapped.Inst j -> (
                match covers.(j) with
                | Some c -> Some c.Mapped.root_lit
                | None -> None)
          in
          match base with
          | Some l when net.Mapped.negated -> Some (Aig.lnot l)
          | x -> x
        in
        (* functional comparison of two literals of the golden AIG; cached *)
        let equiv_cache = Hashtbl.create 64 in
        let lit_equiv l1 l2 =
          if l1 = l2 then `Proven
          else if l1 = Aig.lnot l2 then `Refuted
          else begin
            let key = (min l1 l2, max l1 l2) in
            match Hashtbl.find_opt equiv_cache key with
            | Some v -> v
            | None ->
                let g1, _ = Aig.extract golden [ ("o", l1) ] in
                let g2, _ = Aig.extract golden [ ("o", l2) ] in
                let v =
                  match Cec.check ?conflict_budget ?stats g1 g2 with
                  | Cec.Equivalent -> `Proven
                  | Cec.Inequivalent _ -> `Refuted
                  | Cec.Undecided -> `Unknown
                in
                Hashtbl.add equiv_cache key v;
                v
          end
        in
        let lit_in_range l =
          let n = Aig.node_of l in
          n >= 0 && n < nnodes
        in
        Array.iteri
          (fun j (inst : Mapped.instance) ->
            match covers.(j) with
            | None ->
                add
                  (Diag.warnf ~rule:"map-cover-missing" (inst_loc j)
                     "instance '%s' carries no cover provenance; its \
                      function cannot be verified"
                     inst.Mapped.cell_name)
            | Some cov ->
                let k = Array.length cov.Mapped.fanin_lits in
                if k <> Array.length inst.Mapped.fanins then
                  add
                    (Diag.errorf ~rule:"map-cover-shape" (inst_loc j)
                       "cover records %d leaves for %d fanins" k
                       (Array.length inst.Mapped.fanins))
                else if k = 0 || k > 6 then
                  add
                    (Diag.errorf ~rule:"map-cover-shape" (inst_loc j)
                       "cover with %d leaves is outside the representable \
                        1..6 arity range"
                       k)
                else if
                  not
                    (lit_in_range cov.Mapped.root_lit
                    && Array.for_all lit_in_range cov.Mapped.fanin_lits)
                then
                  add
                    (Diag.errorf ~rule:"map-cover-shape" (inst_loc j)
                       "cover references nodes outside the golden AIG")
                else begin
                  let leaves = Array.map Aig.node_of cov.Mapped.fanin_lits in
                  (* instance output as a function of the leaf node values:
                     flip the inputs consumed complemented *)
                  let inst_tt =
                    let t = ref (Tt.of_bits k inst.Mapped.tt) in
                    Array.iteri
                      (fun i fl ->
                        if Aig.is_compl fl then t := Tt.flip !t i)
                      cov.Mapped.fanin_lits;
                    !t
                  in
                  (* [Some ok] when the leaves structurally cut the cone
                     (the comparison is then exact), [None] when they do
                     not — which is legitimate for support-reduced covers
                     and resolved by the semantic fallback below *)
                  let structural =
                    if k <= tt_max_leaves then
                      match
                        Aig.tt_of_cut golden cov.Mapped.root_lit leaves
                      with
                      | expected ->
                          if Tt.equal expected inst_tt then Some `Ok
                          else
                            Some
                              (`Mismatch
                                (Printf.sprintf
                                   "instance '%s' implements %s over its \
                                    cut, the covered cone computes %s"
                                   inst.Mapped.cell_name (Tt.to_hex inst_tt)
                                   (Tt.to_hex expected)))
                      | exception Invalid_argument _ -> None
                    else
                      (* SAT path for wide cuts: miter the cut cone against
                         the Shannon expansion of the local tt *)
                      match
                        aig_of_cut golden cov.Mapped.root_lit leaves
                      with
                      | cone -> (
                          match
                            Cec.check ?conflict_budget ?stats cone
                              (aig_of_tt k inst_tt)
                          with
                          | Cec.Equivalent -> Some `Ok
                          | Cec.Inequivalent _ ->
                              Some
                                (`Mismatch
                                  (Printf.sprintf
                                     "instance '%s' differs from the \
                                      covered cone (SAT counterexample)"
                                     inst.Mapped.cell_name))
                          | Cec.Undecided -> Some `Undecided)
                      | exception Cut_violation -> None
                  in
                  (* Second structural chance for support-reduced covers:
                     the cover records the original pre-shrink cut, whose
                     function — shrunk to its support — must equal the
                     instance function over exactly the recorded leaves. *)
                  let structural =
                    match structural with
                    | Some _ -> structural
                    | None -> (
                        let cn = cov.Mapped.cut_nodes in
                        let nc = Array.length cn in
                        if nc = 0 || nc > min tt_max_leaves 16 then None
                        else
                          match
                            Aig.tt_of_cut golden cov.Mapped.root_lit cn
                          with
                          | full -> (
                              let small, sup = Tt.shrink_to_support full in
                              if Array.length sup <> k then None
                              else if
                                not
                                  (Array.for_all
                                     (fun i -> cn.(sup.(i)) = leaves.(i))
                                     (Array.init k (fun i -> i)))
                              then None
                              else if Tt.equal small inst_tt then begin
                                add
                                  (Diag.infof ~rule:"map-cover-shrunk"
                                     (inst_loc j)
                                     "support-reduced cover (%d of %d cut \
                                      leaves); verified structurally via \
                                      the recorded cut"
                                     k nc);
                                Some `Ok
                              end
                              else
                                Some
                                  (`Mismatch
                                    (Printf.sprintf
                                       "instance '%s' implements %s over \
                                        its shrunk cut, the recorded cut's \
                                        cone shrinks to %s"
                                       inst.Mapped.cell_name
                                       (Tt.to_hex inst_tt) (Tt.to_hex small))))
                          | exception Invalid_argument _ -> None)
                  in
                  (match structural with
                  | Some `Ok -> ()
                  | Some (`Mismatch msg) ->
                      add
                        (Diag.errorf ~rule:"map-cell-function" (inst_loc j)
                           "%s" msg)
                  | Some `Undecided ->
                      add
                        (Diag.warnf ~rule:"map-cell-function" (inst_loc j)
                           "SAT budget exhausted verifying instance '%s' \
                            against its cone"
                           inst.Mapped.cell_name)
                  | None -> (
                      match
                        compose_equiv ?conflict_budget ?stats golden
                          cov.Mapped.root_lit leaves inst_tt
                      with
                      | Cec.Equivalent ->
                          add
                            (Diag.infof ~rule:"map-cover-cut" (inst_loc j)
                               "support-reduced cover (leaves are not a \
                                structural cut); verified semantically over \
                                the primary inputs")
                      | Cec.Inequivalent _ ->
                          add
                            (Diag.errorf ~rule:"map-cell-function"
                               (inst_loc j)
                               "instance '%s': leaves do not cut the cone \
                                and the composed function differs from the \
                                root (SAT counterexample)"
                               inst.Mapped.cell_name)
                      | Cec.Undecided ->
                          add
                            (Diag.warnf ~rule:"map-cover-cut" (inst_loc j)
                               "leaves do not cut the cone and the SAT \
                                budget was exhausted on the semantic check")
                      | exception Invalid_argument _ ->
                          add
                            (Diag.errorf ~rule:"map-cover-cut" (inst_loc j)
                               "recorded leaves do not cut the cone of the \
                                recorded root")));
                  (* chain rule: each fanin net carries the claimed leaf *)
                  Array.iteri
                    (fun i fnet ->
                      match net_lit fnet with
                      | None -> () (* driver uncovered; warned there *)
                      | Some actual -> (
                          let claimed = cov.Mapped.fanin_lits.(i) in
                          if actual <> claimed then
                            match lit_equiv actual claimed with
                            | `Proven -> ()
                            | `Refuted ->
                                add
                                  (Diag.errorf ~rule:"map-cover-chain"
                                     (inst_loc j)
                                     "fanin %d carries literal %d but the \
                                      cover claims %d (inequivalent)"
                                     i actual claimed)
                            | `Unknown ->
                                add
                                  (Diag.warnf ~rule:"map-cover-chain"
                                     (inst_loc j)
                                     "fanin %d: could not decide literal %d \
                                      against claimed %d"
                                     i actual claimed)))
                    inst.Mapped.fanins
                end)
          m.Mapped.instances;
        (* outputs against the golden output literals *)
        Array.iteri
          (fun idx (oname, onet) ->
            let gname, glit = Aig.output golden idx in
            if oname <> gname then
              add
                (Diag.warnf ~rule:"map-output-name"
                   (Diag.Map_out (name, oname))
                   "output is named '%s' in the golden AIG" gname);
            match net_lit onet with
            | None -> () (* uncovered driver; warned at the instance *)
            | Some actual -> (
                if actual <> glit then
                  match lit_equiv actual glit with
                  | `Proven -> ()
                  | `Refuted ->
                      add
                        (Diag.errorf ~rule:"map-output"
                           (Diag.Map_out (name, oname))
                           "output carries literal %d, the golden AIG \
                            drives literal %d (inequivalent)"
                           actual glit)
                  | `Unknown ->
                      add
                        (Diag.warnf ~rule:"map-output"
                           (Diag.Map_out (name, oname))
                           "could not decide output literal %d against \
                            golden %d"
                           actual glit)))
          m.Mapped.outputs
      end);
  List.rev !diags
