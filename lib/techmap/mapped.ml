type driver = Pi of int | Inst of int | Const of bool
type net = { driver : driver; negated : bool }

type cover = {
  root_lit : int;
  fanin_lits : int array;
  cut_nodes : int array;
}

type instance = {
  cell_name : string;
  area : float;
  delay : float;
  drive : Charlib.drive option;
  fanin_caps : float array;
  fanins : net array;
  tt : int64;
  cover : cover option;
}

type t = {
  lib_name : string;
  tau_ps : float;
  num_inputs : int;
  input_names : string array;
  instances : instance array;
  outputs : (string * net) array;
}

type stats = {
  gates : int;
  area : float;
  levels : int;
  norm_delay : float;
  abs_delay_ps : float;
  sta_norm_delay : float;
  sta_abs_delay_ps : float;
}

type delay_model = Unit_load | Loaded of float

(* Capacitance fanin pin [i] of [inst] presents to its driver.  Netlists
   without recorded pin capacitances (hand-built, genlib) default to the
   reference inverter input — one standard load per fanout. *)
let pin_cap (inst : instance) i =
  if i < Array.length inst.fanin_caps then inst.fanin_caps.(i)
  else
    match inst.drive with
    | Some d -> d.Charlib.cin_ref
    | None -> 1.0

let output_loads ?(po_fanout = 4.0) m =
  let loads = Array.make (Array.length m.instances) 0.0 in
  Array.iter
    (fun inst ->
      Array.iteri
        (fun i net ->
          match net.driver with
          | Inst j -> loads.(j) <- loads.(j) +. pin_cap inst i
          | Pi _ | Const _ -> ())
        inst.fanins)
    m.instances;
  (* each primary output drives [po_fanout] copies of a reference inverter
     (the FO4 convention of Sec. 4 at the default of 4) *)
  Array.iter
    (fun (_, net) ->
      match net.driver with
      | Inst j ->
          let cref =
            match m.instances.(j).drive with
            | Some d -> d.Charlib.cin_ref
            | None -> 1.0
          in
          loads.(j) <- loads.(j) +. (po_fanout *. cref)
      | Pi _ | Const _ -> ())
    m.outputs;
  loads

let instance_delays ?(model = Loaded 4.0) m =
  match model with
  | Unit_load -> Array.map (fun (i : instance) -> i.delay) m.instances
  | Loaded po_fanout ->
      let loads = output_loads ~po_fanout m in
      Array.mapi
        (fun j (inst : instance) ->
          match inst.drive with
          | Some d -> Charlib.drive_delay d ~load:loads.(j)
          | None -> inst.delay)
        m.instances

let arrival_times_with m delays =
  let arr = Array.make (Array.length m.instances) 0.0 in
  Array.iteri
    (fun j inst ->
      let worst =
        Array.fold_left
          (fun acc net ->
            match net.driver with
            | Inst i -> max acc arr.(i)
            | Pi _ | Const _ -> acc)
          0.0 inst.fanins
      in
      arr.(j) <- worst +. delays.(j))
    m.instances;
  arr

let arrival_times m = arrival_times_with m (instance_delays ~model:Unit_load m)

let instance_levels m =
  let lv = Array.make (Array.length m.instances) 0 in
  Array.iteri
    (fun j inst ->
      let worst =
        Array.fold_left
          (fun acc net ->
            match net.driver with
            | Inst i -> max acc lv.(i)
            | Pi _ | Const _ -> acc)
          0 inst.fanins
      in
      lv.(j) <- worst + 1)
    m.instances;
  lv

let stats m =
  let area =
    Array.fold_left (fun a (i : instance) -> a +. i.area) 0.0 m.instances
  in
  let arr = arrival_times m in
  let sta_arr = arrival_times_with m (instance_delays m) in
  let lv = instance_levels m in
  let out_max f dflt =
    Array.fold_left
      (fun acc (_, net) ->
        match net.driver with
        | Inst i -> max acc (f i)
        | Pi _ | Const _ -> acc)
      dflt m.outputs
  in
  {
    gates = Array.length m.instances;
    area;
    levels = out_max (fun i -> lv.(i)) 0;
    norm_delay = out_max (fun i -> arr.(i)) 0.0;
    abs_delay_ps = out_max (fun i -> arr.(i)) 0.0 *. m.tau_ps;
    sta_norm_delay = out_max (fun i -> sta_arr.(i)) 0.0;
    sta_abs_delay_ps = out_max (fun i -> sta_arr.(i)) 0.0 *. m.tau_ps;
  }

let net_value words vals net =
  let v =
    match net.driver with
    | Pi i -> words.(i)
    | Inst j -> vals.(j)
    | Const b -> if b then -1L else 0L
  in
  if net.negated then Int64.lognot v else v

(* Evaluate one instance over its fanin words at once, by Shannon
   expansion on the highest fanin: [f = x ? f1 : f0], where the cofactors
   [f0]/[f1] are the low and high halves of the table.  A fanin that the
   two halves do not depend on ([f0 = f1]) is skipped, so a k-input cell
   costs at most 2^k - 1 word muxes.  Only the low 2^k bits of [tt] are
   read.  [go t v] expands the function of fanins [0 .. v-1] held in the
   low [2^v] bits of [t]; for [v <= 5] that fits a native int. *)
let eval_instance words vals inst =
  let fanins = inst.fanins in
  let mux x f0 f1 = Int64.logxor f0 (Int64.logand x (Int64.logxor f0 f1)) in
  let rec go t v =
    if t = 0 then 0L
    else if v = 0 then -1L
    else
      let h = 1 lsl (v - 1) in
      let hi = t lsr h in
      let lo = t land ((1 lsl h) - 1) in
      let f0 = go lo (v - 1) in
      if hi = lo then f0
      else mux (net_value words vals fanins.(v - 1)) f0 (go hi (v - 1))
  in
  let k = Array.length fanins in
  if k < 6 then go (Int64.to_int inst.tt land ((1 lsl (1 lsl k)) - 1)) k
  else
    let lo = Int64.to_int inst.tt land 0xFFFF_FFFF in
    let hi = Int64.to_int (Int64.shift_right_logical inst.tt 32) in
    let f0 = go lo 5 in
    if hi = lo then f0
    else mux (net_value words vals fanins.(5)) f0 (go hi 5)

let simulate_values m words =
  if Array.length words <> m.num_inputs then invalid_arg "Mapped.simulate";
  let vals = Array.make (Array.length m.instances) 0L in
  Array.iteri (fun j inst -> vals.(j) <- eval_instance words vals inst)
    m.instances;
  vals

let simulate m words =
  let vals = simulate_values m words in
  Array.map (fun (_, net) -> net_value words vals net) m.outputs

let eval m bits =
  let words = Array.map (fun b -> if b then -1L else 0L) bits in
  let out = simulate m words in
  Array.map (fun w -> Int64.logand w 1L <> 0L) out

let to_aig m =
  let g = Aig.create ~size_hint:(Array.length m.instances * 8) () in
  let pis = Array.init m.num_inputs (fun i -> Aig.add_input ~name:m.input_names.(i) g) in
  let vals = Array.make (Array.length m.instances) Aig.lit_false in
  let net_lit net =
    let l =
      match net.driver with
      | Pi i -> pis.(i)
      | Inst j -> vals.(j)
      | Const b -> if b then Aig.lit_true else Aig.lit_false
    in
    if net.negated then Aig.lnot l else l
  in
  Array.iteri
    (fun j inst ->
      let k = Array.length inst.fanins in
      let leaves = Array.map net_lit inst.fanins in
      (* Shannon-expand the instance function over its fanin literals. *)
      let tt = Tt.of_bits (max k 1) inst.tt in
      let rec build tt i =
        if Tt.is_const0 tt then Aig.lit_false
        else if Tt.is_const1 tt then Aig.lit_true
        else if i >= k then Aig.lit_false
        else if not (Tt.depends_on tt i) then build tt (i + 1)
        else
          let lo = build (Tt.cofactor0 tt i) (i + 1) in
          let hi = build (Tt.cofactor1 tt i) (i + 1) in
          Aig.mk_mux g leaves.(i) hi lo
      in
      vals.(j) <- build tt 0)
    m.instances;
  Array.iter (fun (name, net) -> Aig.add_output g name (net_lit net)) m.outputs;
  g

let count_cells m =
  let h = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      let c = try Hashtbl.find h i.cell_name with Not_found -> 0 in
      Hashtbl.replace h i.cell_name (c + 1))
    m.instances;
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let pp_stats fmt m =
  let s = stats m in
  Format.fprintf fmt
    "%s: gates=%d area=%.1f levels=%d delay=%.1f (%.1f ps) sta=%.1f (%.1f ps)"
    m.lib_name s.gates s.area s.levels s.norm_delay s.abs_delay_ps
    s.sta_norm_delay s.sta_abs_delay_ps
