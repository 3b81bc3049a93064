(* Gate-level stuck-at fault simulation over mapped netlists.

   The classic single-stuck-at model at mapped-netlist granularity: every
   primary input, every instance output and every instance input pin can be
   stuck at 0 or 1.  Detection runs 64 random patterns per word
   (Mapped.simulate_values gives the fault-free baseline once per round;
   each live fault then only resimulates its fanout cone against a scratch
   copy, with fault dropping), and the survivors go to SAT-based ATPG: a
   miter between the good netlist and a structurally injected faulty copy,
   decided by Cec under a conflict budget, degrading to Unknown — reported,
   never raised — when the budget runs out. *)

type site =
  | Pi_sa of int        (* primary input stuck *)
  | Out_sa of int       (* instance output stuck *)
  | Pin_sa of int * int (* instance fanin pin stuck *)

type fault = { site : site; stuck : bool }

type status =
  | Detected_sim
  | Detected_atpg of bool array
  | Redundant
  | Unknown

type result = { fault : fault; status : status }

type summary = {
  g_total : int;
  g_sim : int;
  g_atpg : int;
  g_redundant : int;
  g_unknown : int;
  g_rounds : int;
}

let coverage s =
  if s.g_total = 0 then 1.0
  else float_of_int (s.g_sim + s.g_atpg) /. float_of_int s.g_total

let testable_coverage s =
  let testable = s.g_total - s.g_redundant in
  if testable = 0 then 1.0
  else float_of_int (s.g_sim + s.g_atpg) /. float_of_int testable

let faults_of (m : Mapped.t) =
  let acc = ref [] in
  let push site =
    acc := { site; stuck = true } :: { site; stuck = false } :: !acc
  in
  for i = 0 to m.Mapped.num_inputs - 1 do
    push (Pi_sa i)
  done;
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      Array.iteri (fun p _ -> push (Pin_sa (j, p))) inst.Mapped.fanins;
      push (Out_sa j))
    m.Mapped.instances;
  Array.of_list (List.rev !acc)

let describe (m : Mapped.t) f =
  let sa = if f.stuck then "sa1" else "sa0" in
  match f.site with
  | Pi_sa i -> Printf.sprintf "pi:%s %s" m.Mapped.input_names.(i) sa
  | Out_sa j ->
      Printf.sprintf "inst%d:%s out %s" j
        m.Mapped.instances.(j).Mapped.cell_name sa
  | Pin_sa (j, p) ->
      Printf.sprintf "inst%d:%s pin%d %s" j
        m.Mapped.instances.(j).Mapped.cell_name p sa

let const_word b = if b then -1L else 0L

let cofactor_word tt v b =
  let t = Tt.of_words 6 [| tt |] in
  let t' = if b then Tt.cofactor1 t v else Tt.cofactor0 t v in
  (Tt.words t').(0)

(* Structural injection: a copy of the netlist computing the faulty
   function.  Used for ATPG miters and as the slow reference the packed
   simulator is property-tested against. *)
let inject (m : Mapped.t) f =
  let instances = Array.copy m.Mapped.instances in
  let outputs = ref m.Mapped.outputs in
  (match f.site with
  | Out_sa j ->
      instances.(j) <-
        { instances.(j) with Mapped.tt = const_word f.stuck }
  | Pin_sa (j, p) ->
      instances.(j) <-
        { instances.(j) with
          Mapped.tt = cofactor_word instances.(j).Mapped.tt p f.stuck }
  | Pi_sa i ->
      Array.iteri
        (fun j (inst : Mapped.instance) ->
          let tt = ref inst.Mapped.tt in
          Array.iteri
            (fun p (net : Mapped.net) ->
              match net.Mapped.driver with
              | Mapped.Pi k when k = i ->
                  tt := cofactor_word !tt p (f.stuck <> net.Mapped.negated)
              | _ -> ())
            inst.Mapped.fanins;
          if !tt <> inst.Mapped.tt then
            instances.(j) <- { inst with Mapped.tt = !tt })
        instances;
      outputs :=
        Array.map
          (fun (name, (net : Mapped.net)) ->
            match net.Mapped.driver with
            | Mapped.Pi k when k = i ->
                (name, { net with Mapped.driver = Mapped.Const f.stuck })
            | _ -> (name, net))
          m.Mapped.outputs);
  { m with Mapped.instances; Mapped.outputs = !outputs }

(* ---------------- packed simulation ---------------- *)

type cones = {
  fanout : int list array;       (* instance -> consuming instances *)
  pi_consumers : int list array; (* pi -> consuming instances *)
  visited : int array;           (* epoch stamps *)
  mutable epoch : int;
}

let build_cones (m : Mapped.t) =
  let n = Array.length m.Mapped.instances in
  let fanout = Array.make n [] in
  let pi_consumers = Array.make m.Mapped.num_inputs [] in
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      Array.iter
        (fun (net : Mapped.net) ->
          match net.Mapped.driver with
          | Mapped.Inst k ->
              if not (List.mem j fanout.(k)) then fanout.(k) <- j :: fanout.(k)
          | Mapped.Pi i ->
              if not (List.mem j pi_consumers.(i)) then
                pi_consumers.(i) <- j :: pi_consumers.(i)
          | Mapped.Const _ -> ())
        inst.Mapped.fanins)
    m.Mapped.instances;
  { fanout; pi_consumers; visited = Array.make (max n 1) 0; epoch = 0 }

(* topologically sorted transitive fanout closure of the seed instances
   (instances are emitted in topological index order) *)
let cone_of cones seeds =
  cones.epoch <- cones.epoch + 1;
  let e = cones.epoch in
  let acc = ref [] in
  let rec go j =
    if cones.visited.(j) <> e then begin
      cones.visited.(j) <- e;
      acc := j :: !acc;
      List.iter go cones.fanout.(j)
    end
  in
  List.iter go seeds;
  List.sort compare !acc

let outputs_word (m : Mapped.t) words vals =
  Array.map
    (fun (_, net) -> Mapped.net_value words vals net)
    m.Mapped.outputs

(* Simulate one fault against the baseline for this round.  [scratch] must
   equal [base_vals]; it is restored before returning. *)
let sim_fault (m : Mapped.t) cones words base_vals base_outs scratch f =
  let words', seeds, injected =
    match f.site with
    | Pi_sa i ->
        let w = Array.copy words in
        w.(i) <- const_word f.stuck;
        (w, cones.pi_consumers.(i), None)
    | Out_sa j ->
        scratch.(j) <- const_word f.stuck;
        (words, cones.fanout.(j), Some j)
    | Pin_sa (j, p) ->
        let inst = m.Mapped.instances.(j) in
        let faulty =
          { inst with Mapped.tt = cofactor_word inst.Mapped.tt p f.stuck }
        in
        scratch.(j) <- Mapped.eval_instance words scratch faulty;
        (words, cones.fanout.(j), Some j)
  in
  let cone = cone_of cones seeds in
  List.iter
    (fun k ->
      scratch.(k) <-
        Mapped.eval_instance words' scratch m.Mapped.instances.(k))
    cone;
  let detected =
    (* output nets read PIs directly too, so compare against the faulty
       words for PI faults *)
    let outs = outputs_word m words' scratch in
    outs <> base_outs
  in
  List.iter (fun k -> scratch.(k) <- base_vals.(k)) cone;
  (match injected with Some j -> scratch.(j) <- base_vals.(j) | None -> ());
  detected

(* ---------------- incremental ATPG ---------------- *)

(* One CNF miter per netlist: a good copy and a faulty copy sharing the
   primary inputs, with every surviving fault wired through a selector
   variable.  A fault is then decided by one [solve ~assumptions] with its
   selector true and all others false — the learned clauses, variable
   activities and the encoding itself are shared across the whole sweep,
   instead of rebuilding a fresh miter per fault.

   Injection matches [inject]'s semantics exactly: an output stuck forces
   the instance output, a pin stuck forces the {e post-negation} pin value
   feeding the truth table, and a PI stuck forces the {e pre-negation}
   input value (output nets reading the PI directly see it too). *)
module Atpg = struct
  type miter = {
    s : Solver.t;
    piv : int array;    (* good (= shared) primary-input variables *)
    sels : int array;   (* per-survivor selector variables *)
  }

  (* y <-> tt(lits), via ISOP covers of the on- and off-set: every on-set
     cube c contributes (y \/ ~c), every off-set cube d contributes
     (~y \/ ~d). *)
  let encode_tt s lits arity tt y =
    let t = Tt.of_bits arity tt in
    let cube_clause base c =
      let cl = ref [ base ] in
      for i = 0 to arity - 1 do
        if Cube.has_pos c i then cl := Solver.lit_not lits.(i) :: !cl
        else if Cube.has_neg c i then cl := lits.(i) :: !cl
      done;
      Solver.add_clause s !cl
    in
    List.iter (cube_clause y) (Sop.isop t).Sop.cubes;
    List.iter
      (cube_clause (Solver.lit_not y))
      (Sop.isop (Tt.bnot t)).Sop.cubes

  let build (m : Mapped.t) (survivors : fault array) =
    let s = Solver.create () in
    (* a dedicated constant-false variable *)
    let cfalse = Solver.new_var s in
    Solver.add_clause s [ Solver.neg cfalse ];
    let const_lit b = if b then Solver.neg cfalse else Solver.pos cfalse in
    let piv = Array.init m.Mapped.num_inputs (fun _ -> Solver.new_var s) in
    let sels = Array.map (fun _ -> Solver.new_var s) survivors in
    (* z = if sel then b else x *)
    let mux sel b x =
      let z = Solver.pos (Solver.new_var s) in
      let sl = Solver.pos sel in
      let nsl = Solver.lit_not sl in
      if b then Solver.add_clause s [ nsl; z ]
      else Solver.add_clause s [ nsl; Solver.lit_not z ];
      Solver.add_clause s [ sl; Solver.lit_not z; x ];
      Solver.add_clause s [ sl; z; Solver.lit_not x ];
      z
    in
    let chain faults x =
      List.fold_left (fun x (sel, b) -> mux sel b x) x faults
    in
    (* survivor lookup per injection point, in survivor order *)
    let pi_faults = Array.make m.Mapped.num_inputs [] in
    let n_inst = Array.length m.Mapped.instances in
    let out_faults = Array.make (max n_inst 1) [] in
    let pin_faults = Hashtbl.create 64 in
    Array.iteri
      (fun k f ->
        match f.site with
        | Pi_sa i -> pi_faults.(i) <- (sels.(k), f.stuck) :: pi_faults.(i)
        | Out_sa j -> out_faults.(j) <- (sels.(k), f.stuck) :: out_faults.(j)
        | Pin_sa (j, p) ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt pin_faults (j, p))
            in
            Hashtbl.replace pin_faults (j, p) ((sels.(k), f.stuck) :: prev))
      survivors;
    (* faulty primary-input values *)
    let fpi =
      Array.init m.Mapped.num_inputs (fun i ->
          chain pi_faults.(i) (Solver.pos piv.(i)))
    in
    (* the two circuit copies, in (topological) instance order *)
    let gv = Array.make (max n_inst 1) 0 in
    let fout = Array.make (max n_inst 1) 0 in
    let good_driver_lit (net : Mapped.net) =
      match net.Mapped.driver with
      | Mapped.Pi i -> Solver.pos piv.(i)
      | Mapped.Inst k -> Solver.pos gv.(k)
      | Mapped.Const b -> const_lit b
    in
    let faulty_driver_lit (net : Mapped.net) =
      match net.Mapped.driver with
      | Mapped.Pi i -> fpi.(i)
      | Mapped.Inst k -> fout.(k)
      | Mapped.Const b -> const_lit b
    in
    let net_lit driver_lit (net : Mapped.net) =
      let l = driver_lit net in
      if net.Mapped.negated then Solver.lit_not l else l
    in
    Array.iteri
      (fun j (inst : Mapped.instance) ->
        let arity = Array.length inst.Mapped.fanins in
        (* good copy *)
        let g = Solver.new_var s in
        gv.(j) <- g;
        let glits = Array.map (net_lit good_driver_lit) inst.Mapped.fanins in
        encode_tt s glits arity inst.Mapped.tt (Solver.pos g);
        (* faulty copy: pin stucks apply after the net negation *)
        let flits =
          Array.mapi
            (fun p net ->
              let x = net_lit faulty_driver_lit net in
              match Hashtbl.find_opt pin_faults (j, p) with
              | Some faults -> chain faults x
              | None -> x)
            inst.Mapped.fanins
        in
        let fr = Solver.new_var s in
        encode_tt s flits arity inst.Mapped.tt (Solver.pos fr);
        fout.(j) <- chain out_faults.(j) (Solver.pos fr))
      m.Mapped.instances;
    (* miter outputs: some output must differ *)
    let xors =
      Array.map
        (fun (_, net) ->
          let la = net_lit good_driver_lit net in
          let lb = net_lit faulty_driver_lit net in
          let x = Solver.pos (Solver.new_var s) in
          let nx = Solver.lit_not x in
          let nla = Solver.lit_not la and nlb = Solver.lit_not lb in
          Solver.add_clause s [ nx; la; lb ];
          Solver.add_clause s [ nx; nla; nlb ];
          Solver.add_clause s [ x; la; nlb ];
          Solver.add_clause s [ x; nla; lb ];
          x)
        m.Mapped.outputs
    in
    Solver.add_clause s (Array.to_list xors);
    { s; piv; sels }

  (* Decide survivor [k]: its selector true, every other selector false. *)
  let query mt ~conflict_budget k =
    let assumptions =
      Solver.pos mt.sels.(k)
      :: (Array.to_list
            (Array.mapi
               (fun g sel -> if g = k then -1 else Solver.neg sel)
               mt.sels)
         |> List.filter (fun l -> l >= 0))
    in
    match Solver.solve ~assumptions ~conflict_budget mt.s with
    | Solver.Unsat -> Redundant
    | Solver.Unknown -> Unknown
    | Solver.Sat ->
        Detected_atpg (Array.map (Solver.model_value mt.s) mt.piv)
end

(* ---------------- the analysis driver ---------------- *)

let analyze ?(rounds = 32) ?(seed = 2026L) ?(conflict_budget = 100_000)
    ?stats (m : Mapped.t) =
  let faults = faults_of m in
  let n = Array.length faults in
  let status = Array.make n None in
  let cones = build_cones m in
  let rng = Rand64.create seed in
  let live = ref n in
  let round = ref 0 in
  while !round < rounds && !live > 0 do
    incr round;
    let words =
      Array.init m.Mapped.num_inputs (fun _ -> Rand64.next rng)
    in
    let base_vals = Mapped.simulate_values m words in
    let base_outs = outputs_word m words base_vals in
    let scratch = Array.copy base_vals in
    Array.iteri
      (fun i f ->
        if status.(i) = None then
          if sim_fault m cones words base_vals base_outs scratch f then begin
            status.(i) <- Some Detected_sim;
            decr live
          end)
      faults
  done;
  (* ATPG sweep over the survivors *)
  (if !live > 0 then begin
     let surv_idx = ref [] in
     Array.iteri
       (fun i _ -> if status.(i) = None then surv_idx := i :: !surv_idx)
       faults;
     let surv_idx = Array.of_list (List.rev !surv_idx) in
     let survivors = Array.map (fun i -> faults.(i)) surv_idx in
     let mt = Atpg.build m survivors in
     Array.iteri
       (fun k i -> status.(i) <- Some (Atpg.query mt ~conflict_budget k))
       surv_idx;
     match stats with
     | Some acc -> Solver.stats_accum acc (Solver.stats_of mt.Atpg.s)
     | None -> ()
   end);
  let results =
    Array.mapi
      (fun i f ->
        { fault = f; status = Option.value ~default:Unknown status.(i) })
      faults
  in
  let count p = Array.fold_left (fun a r -> if p r.status then a + 1 else a)
      0 results in
  let summary =
    {
      g_total = n;
      g_sim = count (fun s -> s = Detected_sim);
      g_atpg = count (function Detected_atpg _ -> true | _ -> false);
      g_redundant = count (fun s -> s = Redundant);
      g_unknown = count (fun s -> s = Unknown);
      g_rounds = !round;
    }
  in
  (results, summary)

(* ---------------- rendering ---------------- *)

let summary_line s =
  Printf.sprintf
    "faults=%d detected=%d (sim %d + atpg %d) redundant=%d unknown=%d \
     coverage=%.1f%%"
    s.g_total (s.g_sim + s.g_atpg) s.g_sim s.g_atpg s.g_redundant s.g_unknown
    (100.0 *. coverage s)

let status_name = function
  | Detected_sim -> "detected-sim"
  | Detected_atpg _ -> "detected-atpg"
  | Redundant -> "redundant"
  | Unknown -> "unknown"

let tsv_header = String.concat "\t" [ "fault"; "status" ]

let results_tsv (m : Mapped.t) results =
  tsv_header
  :: (Array.to_list results
     |> List.map (fun r ->
            Printf.sprintf "%s\t%s" (describe m r.fault)
              (status_name r.status)))
  |> String.concat "\n"
