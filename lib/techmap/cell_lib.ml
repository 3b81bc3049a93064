type cell = {
  id : int;
  name : string;
  arity : int;
  tt : int64;
  area : float;
  delay : float;
  timing : Charlib.timing option;
}

type match_entry = {
  cell : cell;
  perm : int array;
  phase : int;
  out_neg : bool;
}

type t = {
  lib_name : string;
  lib_cells : cell list;
  lib_free_phases : bool;
  lib_inv : cell option;
  tables : match_entry list Word_tbl.t array; (* index = arity *)
  lib_tau : float;
  mutable entry_count : int;
}

let name t = t.lib_name
let cells t = t.lib_cells

let avg_pin_cap t =
  let pins = ref 0 and cap = ref 0.0 in
  List.iter
    (fun c ->
      match c.timing with
      | Some tm ->
          Array.iter
            (fun pc ->
              incr pins;
              cap := !cap +. pc)
            tm.Charlib.pin_caps
      | None -> ())
    t.lib_cells;
  if !pins = 0 then None else Some (!cap /. float_of_int !pins)
let free_phases t = t.lib_free_phases
let inverter t = t.lib_inv
let tau_ps t = t.lib_tau
let num_entries t = t.entry_count

let matches t arity tt =
  if arity < 0 || arity > 6 then []
  else
    match Word_tbl.find_opt t.tables.(arity) tt with
    | Some es -> es
    | None -> []

(* Keep a small pareto set per key: no entry both larger and slower than
   another. *)
let insert_entry t arity key ke =
  let tbl = t.tables.(arity) in
  let existing = try Word_tbl.find tbl key with Not_found -> [] in
  let dominated e =
    e.cell.area >= ke.cell.area -. 1e-12 && e.cell.delay >= ke.cell.delay -. 1e-12
  in
  let dominates e =
    e.cell.area <= ke.cell.area +. 1e-12 && e.cell.delay <= ke.cell.delay +. 1e-12
  in
  if List.exists dominates existing then ()
  else begin
    let kept = List.filter (fun e -> not (dominated e)) existing in
    t.entry_count <- t.entry_count + 1 - (List.length existing - List.length kept);
    Word_tbl.replace tbl key (ke :: kept)
  end

let expand t cell =
  let k = cell.arity in
  if k = 0 then ()
  else
    Npn.enumerate k cell.tt (fun v tr ->
        if tr.Npn.neg && not t.lib_free_phases then ()
        else if tr.Npn.phase <> 0 && not t.lib_free_phases then
          (* CMOS: input phases are handled by the mapper via leaf phases;
             tabulating them here would hide the inverter cost.  Only
             pin permutations are free. *)
          ()
        else
          insert_entry t k v
            { cell; perm = Array.copy tr.Npn.perm; phase = tr.Npn.phase;
              out_neg = tr.Npn.neg })

(* CMOS: pin permutations are free; input phases are tabulated but the
   mapper charges the leaf's complement phase (eventually an inverter);
   output negation is excluded — the opposite node phase is queried
   separately and bridged with the inverter cell. *)
let expand_cmos t cell =
  let k = cell.arity in
  if k = 0 then ()
  else
    Npn.enumerate k cell.tt (fun v tr ->
        if tr.Npn.neg then ()
        else
          insert_entry t k v
            { cell; perm = Array.copy tr.Npn.perm; phase = tr.Npn.phase;
              out_neg = false })

let is_inverter c =
  c.arity = 1 && c.tt = Npn.flip 0xAAAAAAAAAAAAAAAAL 0

let build ~name ~free_phases ~tau_ps cells =
  let t =
    {
      lib_name = name;
      lib_cells = cells;
      lib_free_phases = free_phases;
      lib_inv = List.find_opt is_inverter cells;
      tables = Array.init 7 (fun _ -> Word_tbl.create 1024);
      lib_tau = tau_ps;
      entry_count = 0;
    }
  in
  List.iter (fun c -> if free_phases then expand t c else expand_cmos t c) cells;
  t

let of_cells ~name ~free_phases ~tau_ps cells = build ~name ~free_phases ~tau_ps cells

let cntfet ?(family = Cell_netlist.Tg_static) () =
  let rows = Charlib.characterize_catalog family in
  let cells =
    List.mapi
      (fun i (r : Charlib.row) ->
        {
          id = i;
          name = r.Charlib.name;
          arity = Gate_spec.arity r.Charlib.spec;
          tt = Gate_spec.tt6 r.Charlib.spec;
          area = r.Charlib.area;
          delay = r.Charlib.fo4_worst;
          timing = Some r.Charlib.timing;
        })
      rows
  in
  build
    ~name:(Cell_netlist.family_name family)
    ~free_phases:true
    ~tau_ps:(Charlib.tau_ps family)
    cells

let cmos_cell_name = function
  | "F00" -> "INV"
  | "F02" -> "NOR2"
  | "F03" -> "NAND2"
  | "F10" -> "NOR3"
  | "F11" -> "OAI21"
  | "F12" -> "AOI21"
  | "F13" -> "NAND3"
  | n -> n ^ "N"

let cmos () =
  let rows = Charlib.characterize_catalog Cell_netlist.Cmos in
  let cells =
    List.mapi
      (fun i (r : Charlib.row) ->
        {
          id = i;
          name = cmos_cell_name r.Charlib.name;
          arity = Gate_spec.arity r.Charlib.spec;
          (* single-stage CMOS cells realize the complement of the
             catalog's positive function (NAND, NOR, AOI, OAI) *)
          tt = Int64.lognot (Gate_spec.tt6 r.Charlib.spec);
          area = r.Charlib.area;
          delay = r.Charlib.fo4_worst;
          (* the physical netlist Charlib characterized is this inverting
             cell, so its pin table and drive carry over unchanged *)
          timing = Some r.Charlib.timing;
        })
      rows
  in
  build ~name:"cmos-static" ~free_phases:false
    ~tau_ps:(Charlib.tau_ps Cell_netlist.Cmos) cells

(* ---- process-wide library cache ----

   Characterizing and NPN-expanding a family costs far more than any lookup,
   and every driver of the flow needs the same handful of libraries; the
   cache guarantees each family is elaborated exactly once per process.
   Guarded by a mutex so Domain-parallel runners can share it — the
   returned libraries themselves are immutable after construction. *)

let cache : (Cell_netlist.family, t) Hashtbl.t = Hashtbl.create 16

let cache_lock = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0

let cached_with_status family =
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache family with
      | Some lib ->
          incr cache_hits;
          (lib, `Hit)
      | None ->
          incr cache_misses;
          let lib =
            match family with
            | Cell_netlist.Cmos -> cmos ()
            | family -> cntfet ~family ()
          in
          Hashtbl.replace cache family lib;
          (lib, `Miss))

let cached family = fst (cached_with_status family)

type cache_stats = { hits : int; misses : int; entries : int }

(* One consistent snapshot: all three counters are read under the same
   mutex that guards the cache and its hit/miss increments, so a reader
   racing Domain-parallel [cached] calls can never observe hits and
   misses from different instants (e.g. hits+misses < entries). *)
let cache_stats () =
  Mutex.protect cache_lock (fun () ->
      { hits = !cache_hits; misses = !cache_misses;
        entries = Hashtbl.length cache })
