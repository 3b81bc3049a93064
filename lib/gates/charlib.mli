(** Switch-level RC characterization of library cells (Sec. 4.1–4.3).

    The model the paper reports with:
    - every gate is sized to drive the current of a unit inverter
      ({!Cell_netlist} handles sizing);
    - the FO4 delay of input pin [s] is
      [R_path * (C_par + 4 * C_in(s)) / C_inv], where [C_par] is the
      parasitic capacitance on the output node (one drain per adjacent
      device), [C_in(s)] the capacitance the signal drives (gate and
      polarity-gate capacitances assumed equal), and [C_inv] the input
      capacitance of a unit inverter (2 for CNTFETs — equal n/p widths — and
      3 for CMOS);
    - the worst case maximizes over input signals and transitions, the
      average averages the per-variable worst over the gate's variables;
    - normalized delays convert to picoseconds with the technology constants
      τ1 = 0.59 ps (CNTFET) and τ2 = 3.00 ps (CMOS) from Deng et al. [1].

    Beyond the fixed FO4 numbers, every row carries a {!timing} record — the
    per-pin capacitance table and the output {!drive} — from which the delay
    at an {e arbitrary} capacitive load is computed with {!drive_delay}.
    This is what the STA subsystem ({!module:Sta}) and the mapper's timing
    mode consume; the FO4 columns are exactly [drive_delay] evaluated at
    [load = 4 * C_in(pin)]. *)

type drive = {
  rs : float array;
      (** worst-case path resistance of each transition (static: pull-up
          then pull-down; pseudo: weak rise then ratioed fall) *)
  avg : bool;
      (** ratioed pseudo families average the transitions; static families
          take the worst *)
  c_par : float;  (** parasitic capacitance on the driving node *)
  cin_ref : float;  (** normalizing inverter input capacitance *)
  second_stage : float option;
      (** [Some c2] when the output is restored through a unit inverter of
          input capacitance [c2]: the cell's networks drive [c_par + c2],
          the inverter (R = 1, parasitic 2) drives the external load *)
}

type timing = {
  pin_caps : float array;
      (** per-variable input capacitance, worst over the two phases *)
  drive : drive;
}

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

val tau_ps : Cell_netlist.family -> float
(** Technology-dependent intrinsic delay of a fanout-1 inverter. *)

val inverter_cin : Cell_netlist.family -> float

val drive_delay : drive -> load:float -> float
(** Normalized delay of the cell driving [load] units of capacitance.
    [drive_delay d ~load:(4.0 *. c_in)] is the FO4 delay of the pin with
    input capacitance [c_in]. *)

val cell_timing : Cell_netlist.family -> Cell_netlist.cell -> timing
(** Pin-capacitance table and output drive of an elaborated cell. *)

val characterize : Cell_netlist.family -> Catalog.entry -> row

val characterize_catalog : Cell_netlist.family -> row list
(** Every catalog entry the family can implement (the full 46 for CNTFET
    families, the 7-entry subset for CMOS). *)

val input_cap : Cell_netlist.cell -> Cell_netlist.signal -> float
val output_parasitic : Cell_netlist.cell -> float

val averages : row list -> float * float * float * float
(** [(transistors, area, fo4_worst, fo4_avg)] averaged over the rows. *)

