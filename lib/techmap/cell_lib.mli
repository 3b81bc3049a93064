(** Technology libraries for the mapper.

    A library is a set of cells (name, pin count, output function, area,
    delay) expanded into per-arity match tables: every useful
    negation/permutation variant of every cell function is tabulated so
    that Boolean matching during covering is a hash lookup.

    Phase economics differ per technology and drive the expansion:
    - {e free-phase} libraries (the ambipolar CNTFET families): any input
      may be consumed in either polarity (the polarity gate is set in-field)
      and every cell carries an output inverter providing both output
      polarities (Sec. 4.3) — so the full NPN orbit of every cell maps at
      the cell's own cost;
    - CMOS: only pin permutations are free; input or output complementation
      requires explicit inverter cells, which the mapper inserts. *)

type cell = {
  id : int;
  name : string;
  arity : int;
  tt : int64;      (** output function, 6-var replicated word over pins 0.. *)
  area : float;
  delay : float;   (** pin-to-pin delay, FO4 normalized to the family's tau *)
  timing : Charlib.timing option;
      (** pin capacitances and output drive for load-dependent delay;
          [None] for libraries without characterization (genlib, published
          numbers) — such cells fall back to the fixed [delay] *)
}

type match_entry = {
  cell : cell;
  perm : int array;  (** cut variable [i] drives cell pin [perm.(i)] *)
  phase : int;       (** bit [i]: cut variable [i] is consumed complemented *)
  out_neg : bool;    (** realized on the cell's complemented output
                         (free-phase libraries only) *)
}

type t

val name : t -> string
val cells : t -> cell list
val free_phases : t -> bool
val inverter : t -> cell option
(** The explicit inverter cell (phase repair in non-free-phase libraries). *)

val tau_ps : t -> float

val matches : t -> int -> int64 -> match_entry list
(** [matches lib arity tt]: entries whose expanded variant equals [tt] (a
    function of exactly [arity] support variables, replicated word).  For a
    free-phase library this already includes output-complemented variants
    ([out_neg]); for CMOS, query the complement separately and bridge with
    {!inverter}. *)

val num_entries : t -> int

val avg_pin_cap : t -> float option
(** Mean input-pin capacitance over all characterized cells — the mapper's
    a-priori estimate of the load one fanout contributes.  [None] when no
    cell carries timing data. *)

(** {1 Construction} *)

val cntfet : ?family:Cell_netlist.family -> unit -> t
(** Library of the 46 catalog cells characterized by {!Charlib} for the
    given family (default [Tg_static]), each cell's fixed delay its
    worst-case FO4 delay.  Free-phase. *)

val cmos : unit -> t
(** The CMOS reference library: INV, NAND2, NOR2, NAND3, NOR3, OAI21,
    AOI21 — the inverting forms of the 7 CMOS-expressible catalog entries
    — with Table 2 characterization.  Input phases cost inverters. *)

val cmos_cell_name : string -> string
(** Conventional name of the inverting CMOS form of a catalog entry
    (["F03"] -> ["NAND2"], ...). *)

(** {1 Process-wide library cache}

    Every characterized library the flow can target, elaborated at most once
    per process and shared across {!Domain}s (the cache is mutex-guarded;
    the libraries themselves are immutable once built). *)

val cached : Cell_netlist.family -> t
(** [cached family] is {!cntfet} (or {!cmos} for [Cell_netlist.Cmos]) served
    from the cache. *)

val cached_with_status : Cell_netlist.family -> t * [ `Hit | `Miss ]
(** Like {!cached}, also reporting whether this call was served from the
    cache — the flow engine's per-pass cache metric. *)

type cache_stats = { hits : int; misses : int; entries : int }
(** [entries] is the number of distinct family libraries built. *)

val cache_stats : unit -> cache_stats
(** Counters since process start, read as one consistent snapshot under
    the same mutex that guards the cache itself (served verbatim in the
    synthesis daemon's status reply). *)

val of_cells :
  name:string -> free_phases:bool -> tau_ps:float -> cell list -> t
(** Build a library from explicit cells (used by the genlib reader).  The
    inverter is detected by function. *)
