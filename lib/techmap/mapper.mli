(** Cut-based structural technology mapping (the algorithm family of ABC's
    [map]): K-feasible priority cuts with their functions
    ({!Cut.compute_packed}), Boolean matching by hash lookup in the
    NPN-expanded library tables, delay-optimal covering, and required-time
    driven area recovery.

    Both node phases are mapped.  In free-phase libraries (ambipolar
    CNTFET) the complement of every net is available for free — matching
    the paper's convention that each cell carries an output inverter — so a
    single phase is computed.  In the CMOS library, complement phases cost
    explicit inverter cells, which the mapper inserts and charges. *)

type params = {
  cut_size : int;      (** K, at most 6 (the largest library pin count) *)
  area_passes : int;   (** required-time-driven area-recovery iterations *)
  timing : bool;
      (** STA-backed timing mode.  The mapper first builds the default
          cover, charging every cell its fixed unit-load FO4.  It then
          measures the load that cover presents to each (node, phase) —
          one average library pin per AIG fanout for slots outside the
          cover — and re-maps with each candidate cell charged its
          load-dependent delay ({!Charlib.drive_delay}) at that load,
          keeping the cover with the best measured critical delay; area
          recovery then runs under the measured loads and a pass that
          slows the critical delay is rolled back.  Both modes run the
          same sweeps.  Cells without characterization fall back to the
          fixed delay.  Default [false] (the paper's convention). *)
  cost : (Cell_lib.cell -> float) option;
      (** Pluggable covering cost (the opening move of the ROADMAP's
          cost-generic mapping refactor).  When set, this function replaces
          raw cell area as the flow currency of matching, phase bridging
          and area recovery: delay stays lexicographically primary, but
          ties and the recovery passes minimize the plugged cost instead of
          area.  The caller supplies any [Cell_lib.cell -> float] — e.g.
          [Testability.cell_cost] charges cells with poorly-sensitizable
          pins.  [None] (the default) is exact area flow; reported netlist
          area is always real cell area either way. *)
  jobs : int;
      (** Domains for the per-node analyses (default 1).  Only the
          match-arena construction fans out ({!Par.run}): each node's
          candidate cuts, support-shrunk functions and leaf sets are
          counted and then written into disjoint per-node ranges.  The
          matching and area-recovery sweeps are dynamic programs in
          topological order and run sequentially in node-id order.  The
          chosen cover — and hence the netlist — is byte-identical for
          every [jobs] value. *)
}

val default_params : params

(** {1 Per-phase wall-clock breakdown} *)

type phase_ms = {
  mutable pm_cuts_ms : float;
      (** cut enumeration + match-arena construction *)
  mutable pm_match_ms : float;   (** delay-objective matching sweeps *)
  mutable pm_required_ms : float;
      (** required-time / load-measurement analyses *)
  mutable pm_recover_ms : float; (** area-recovery matching sweeps *)
  mutable pm_extract_ms : float; (** netlist extraction *)
}

val phase_ms_create : unit -> phase_ms
(** All-zero record; {!map_with_stats} {e adds} into the record it is
    handed, so one record can accumulate across calls. *)

val map : ?params:params -> Cell_lib.t -> Aig.t -> Mapped.t
(** Maps a combinational AIG.  The mapped netlist is logically equivalent
    to the AIG (checkable with {!Mapped.to_aig} and {!Cec}). *)

val map_with_stats :
  ?params:params -> ?phase:phase_ms -> Cell_lib.t -> Aig.t -> Mapped.t * Cut.stats
(** Same as {!map}, also returning the cut-enumeration counters of the
    run, with [probes] (match-table lookups) and [reevals] (node
    evaluations: every AND node in every matching sweep) filled in by the
    mapper.  [phase] receives the run's wall-clock breakdown (added into
    the record). *)
