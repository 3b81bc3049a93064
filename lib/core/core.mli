(** Public umbrella API of the ambipolar-CNTFET synthesis library.

    The underlying modules ([Aig], [Synth], [Cell_lib], [Mapper], [Mapped],
    [Catalog], [Charlib], [Experiments], …) are all usable directly; this
    module bundles the common flow — build a circuit, optimize it, map it
    against one of the paper's libraries — into a few calls.

    {[
      let aig = Arith.adder 16 in
      let result = Core.run ~family:`Tg_static aig in
      Format.printf "%a@." Mapped.pp_stats result.Core.mapped
    ]} *)

type family = [ `Tg_static | `Tg_pseudo | `Pass_pseudo | `Pass_static | `Cmos ]

val netlist_family : family -> Cell_netlist.family

val library : family -> Cell_lib.t
(** The characterized match library, served from the process-wide
    {!Cell_lib.cached} cache (each family is elaborated at most once per
    process, across all drivers and {!Domain}s). *)

type result = {
  original : Aig.t;
  optimized : Aig.t;
  mapped : Mapped.t;
}

val run :
  ?synthesize:bool ->
  ?cut_size:int ->
  ?verify:bool ->
  ?family:family ->
  Aig.t ->
  result
(** The full flow: [resyn2rs]-style optimization (unless [synthesize] is
    false), technology mapping (default family [`Tg_static]), and — with
    [verify] (default true for graphs below 10k nodes) — a random-simulation
    equivalence check of the mapping.  Raises [Failure] if verification
    fails. *)

val compare_families :
  ?synthesize:bool -> Aig.t -> (string * Mapped.stats) list
(** Maps the circuit against the static, pseudo and CMOS libraries and
    returns the per-library statistics (the paper's Table 3 row). *)
