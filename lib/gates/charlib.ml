open Cell_netlist

type drive = {
  rs : float array;
  avg : bool;
  c_par : float;
  cin_ref : float;
  second_stage : float option;
}

type timing = { pin_caps : float array; drive : drive }

type row = {
  name : string;
  family : Cell_netlist.family;
  spec : Gate_spec.expr;
  transistors : int;
  area : float;
  fo4_worst : float;
  fo4_avg : float;
  timing : timing;
}

let tau_ps = function Cmos -> 3.00 | _ -> 0.59
let inverter_cin = function Cmos -> 3.0 | _ -> 2.0

let output_parasitic (c : cell) =
  (match c.pull_up with Some n -> top_cap n | None -> c.bias_width)
  +. top_cap c.pull_down

let cap_table (c : cell) =
  let caps : (signal, float) Hashtbl.t = Hashtbl.create 16 in
  let add s w =
    let cur = try Hashtbl.find caps s with Not_found -> 0.0 in
    Hashtbl.replace caps s (cur +. w)
  in
  List.iter
    (fun d ->
      add d.gate d.width;
      match d.polgate with Some pg -> add pg d.width | None -> ())
    (devices c);
  caps

let input_cap c s =
  match Hashtbl.find_opt (cap_table c) s with Some x -> x | None -> 0.0

(* Worst-case path resistances of the cell's transitions. *)
let transition_resistances (c : cell) =
  match c.family with
  | Tg_static | Pass_static | Cmos ->
      [ (match c.pull_up with
        | Some pu -> resistance pu
        | None -> assert false);
        resistance c.pull_down ]
  | Tg_pseudo | Pass_pseudo ->
      (* rising through the weak always-on pull-up, falling through the
         pull-down fighting it (net conductance 4/3 - 1/3 = 1) *)
      [ 1.0 /. c.bias_width; 1.0 ]

(* Resistance-weighted capacitance term of the first stage.  Static
   families take the worst transition (rise and fall are sized equal
   anyway); ratioed pseudo families report the rise/fall average, which is
   what Table 2's numbers correspond to (effective R of 2 between the weak
   pull-up's 3 and the fighting pull-down's 1). *)
let stage_delay d cap =
  if d.avg then
    Array.fold_left (fun a r -> a +. (r *. cap)) 0.0 d.rs
    /. float_of_int (Array.length d.rs)
  else Array.fold_left (fun a r -> max a (r *. cap)) 0.0 d.rs

let drive_delay d ~load =
  match d.second_stage with
  | Some c2 ->
      (* first stage drives the restoring inverter; the inverter (unit,
         R = 1, parasitic 2) drives the load *)
      (stage_delay d (d.c_par +. c2) +. (2.0 +. load)) /. d.cin_ref
  | None -> stage_delay d (d.c_par +. load) /. d.cin_ref

let cell_timing family (c : cell) =
  let caps = cap_table c in
  let vars = Gate_spec.vars c.spec in
  let arity = 1 + List.fold_left max 0 vars in
  let pin_caps = Array.make arity 0.0 in
  (* A pin's effective capacitance is the worst over its two phases (true
     and complemented rails are routed separately; the delay model keys on
     the heavier one, matching the per-variable worst of Table 2). *)
  Hashtbl.iter
    (fun s cap -> if s.v < arity then pin_caps.(s.v) <- max pin_caps.(s.v) cap)
    caps;
  let drive =
    {
      rs = Array.of_list (transition_resistances c);
      avg =
        (match c.family with Tg_pseudo | Pass_pseudo -> true | _ -> false);
      c_par = output_parasitic c;
      cin_ref = inverter_cin family;
      second_stage = (if c.restoring_inverter then Some 2.0 else None);
    }
  in
  { pin_caps; drive }

let characterize family (entry : Catalog.entry) =
  let c = elaborate family entry.Catalog.spec in
  let timing = cell_timing family c in
  let fo4_of_pin v =
    drive_delay timing.drive ~load:(4.0 *. timing.pin_caps.(v))
  in
  let vars = Gate_spec.vars entry.Catalog.spec in
  let fo4_worst = List.fold_left (fun a v -> max a (fo4_of_pin v)) 0.0 vars in
  let fo4_avg =
    List.fold_left (fun a v -> a +. fo4_of_pin v) 0.0 vars
    /. float_of_int (List.length vars)
  in
  {
    name = entry.Catalog.name;
    family;
    spec = entry.Catalog.spec;
    transistors = num_transistors c;
    area = area c;
    fo4_worst;
    fo4_avg;
    timing;
  }

let characterize_catalog family =
  let entries =
    match family with Cmos -> Catalog.cmos_subset | _ -> Catalog.all
  in
  List.map (characterize family) entries

let averages rows =
  let n = float_of_int (List.length rows) in
  let t, a, w, v =
    List.fold_left
      (fun (t, a, w, v) r ->
        (t +. float_of_int r.transistors, a +. r.area, w +. r.fo4_worst,
         v +. r.fo4_avg))
      (0.0, 0.0, 0.0, 0.0) rows
  in
  (t /. n, a /. n, w /. n, v /. n)
