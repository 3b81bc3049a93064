type family = [ `Tg_static | `Tg_pseudo | `Pass_pseudo | `Pass_static | `Cmos ]

let netlist_family = function
  | `Tg_static -> Cell_netlist.Tg_static
  | `Tg_pseudo -> Cell_netlist.Tg_pseudo
  | `Pass_pseudo -> Cell_netlist.Pass_pseudo
  | `Pass_static -> Cell_netlist.Pass_static
  | `Cmos -> Cell_netlist.Cmos

let library family = Cell_lib.cached (netlist_family family)

type result = {
  original : Aig.t;
  optimized : Aig.t;
  mapped : Mapped.t;
}

let simulation_check aig mapped =
  let rng = Rand64.create 97L in
  let ok = ref true in
  for _ = 1 to 8 do
    let words = Array.init (Aig.num_inputs aig) (fun _ -> Rand64.next rng) in
    if Aig.simulate_outputs aig words <> Mapped.simulate mapped words then
      ok := false
  done;
  !ok

let run ?(synthesize = true) ?(cut_size = 6) ?verify ?(family = `Tg_static) aig =
  let optimized = if synthesize then Synth.resyn2rs aig else aig in
  let params = { Mapper.default_params with Mapper.cut_size } in
  let mapped = Mapper.map ~params (library family) optimized in
  let verify =
    match verify with Some v -> v | None -> Aig.num_nodes aig < 10_000
  in
  if verify && not (simulation_check optimized mapped) then
    failwith "Core.run: mapped netlist disagrees with the source circuit";
  { original = aig; optimized; mapped }

let compare_families ?(synthesize = true) aig =
  let optimized = if synthesize then Synth.resyn2rs aig else aig in
  List.map
    (fun family ->
      let m = Mapper.map (library family) optimized in
      (Cell_lib.name (library family), Mapped.stats m))
    [ `Tg_static; `Tg_pseudo; `Cmos ]
