(** Gate-level single-stuck-at fault simulation and ATPG over {!Mapped.t}.

    Random-pattern detection runs 64 patterns per word with per-fault
    fanout-cone resimulation and fault dropping.  The undetected faults
    share one SAT miter between the netlist and a copy with every
    survivor wired in behind a selector variable; each survivor is
    decided by one assumption query under a conflict budget, so a hard
    fault degrades to {!Unknown} instead of an unbounded solve. *)

type site =
  | Pi_sa of int         (** primary input stuck *)
  | Out_sa of int        (** instance output stuck *)
  | Pin_sa of int * int  (** instance fanin pin stuck *)

type fault = { site : site; stuck : bool }

type status =
  | Detected_sim
  | Detected_atpg of bool array  (** a detecting input assignment *)
  | Redundant                    (** SAT-proved undetectable *)
  | Unknown                      (** conflict budget exhausted *)

type result = { fault : fault; status : status }

type summary = {
  g_total : int;
  g_sim : int;
  g_atpg : int;
  g_redundant : int;
  g_unknown : int;
  g_rounds : int;  (** random rounds actually run (stops when all drop) *)
}

val coverage : summary -> float
(** detected / total. *)

val testable_coverage : summary -> float
(** detected / (total - redundant). *)

val faults_of : Mapped.t -> fault array
(** The full stuck-at list in deterministic order: PI faults, then per
    instance its pin faults and output faults, sa0 before sa1. *)

val describe : Mapped.t -> fault -> string

val inject : Mapped.t -> fault -> Mapped.t
(** A copy of the netlist computing the faulty function (stuck values are
    folded into instance truth tables / output nets).  The copy simulates
    and converts with the ordinary {!Mapped} API; its cover provenance is
    stale by construction, so don't lint it. *)

val analyze :
  ?rounds:int ->
  ?seed:int64 ->
  ?conflict_budget:int ->
  ?stats:Solver.stats ->
  Mapped.t ->
  result array * summary
(** Full fault-simulation + ATPG run (defaults: 32 rounds, seed 2026,
    budget 100k conflicts per fault).  Deterministic for fixed arguments;
    never raises on hard SAT instances.  [stats], when given, accumulates
    the SAT effort of the ATPG sweep.

    A decided verdict is the one a fresh {!Cec.check} between the
    netlist and its {!inject}ed copy gives: {!Redundant} for
    [Equivalent], {!Detected_atpg} for [Inequivalent]. *)

val summary_line : summary -> string
val status_name : status -> string
val tsv_header : string
val results_tsv : Mapped.t -> result array -> string
