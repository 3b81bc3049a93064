(** Static testability analysis: SCOAP measures, fault collapsing and
    redundancy identification — all without simulation or SAT.

    Three classic analyses over a mapped netlist, generalized to arbitrary
    cells whose behaviour is only known as a truth table (the per-cell
    testability models are derived by exhaustive enumeration of the at most
    [2^6] pin assignments):

    {ul
    {- {b SCOAP.}  Controllability [CC0]/[CC1] (difficulty of setting a
       line to 0/1) and observability [CO] (difficulty of propagating a
       line's value to a primary output), per line and per instance pin.
       Scores are the usual additive SCOAP estimates: every finite score is
       achievable in isolation, and larger means harder; [infinity] means
       the analysis can prove no local assignment exists.  A companion
       COP-style signal-probability pass turns these into the per-fault
       detection-hardness {!t.score}.}
    {- {b Fault collapsing.}  Equivalence and dominance classes over the
       {!Gate_fault.faults_of} universe, computed from per-instance local
       error functions (the XOR of the good and faulty truth tables): equal
       error functions on one instance are equivalent; single-fanout wires
       identify a driver's output faults with the consumer's pin faults;
       containment of error sets gives dominance.  Detecting one
       representative per remaining class detects every fault outside the
       statically-redundant set.}
    {- {b Redundancy identification.}  A 3-valued implication engine
       (forward constant propagation through truth-table cofactors,
       backward justification, and static learning by
       assume-and-propagate) proves lines constant; faults that stick a
       line at its proven constant value, faults on logic that cannot
       reach an output, faults that do not change the cell function, and
       faults whose every propagation path is provably blocked by
       fanout-cone-disjoint constants are reported untestable without a
       single SAT call.  Every claim is {e sound} — [test_fault.ml]
       cross-checks each one against {!Gate_fault} ATPG.}}

    The derived per-cell pin-sensitization statistics also yield
    {!cell_cost}, the first plug-in for {!Mapper.params}[.cost]
    (testability-driven covering). *)

(** {1 SCOAP}

    Lines are numbered [0 .. num_inputs - 1] for primary inputs, then
    [num_inputs + j] for the output of instance [j].  Polarity is free:
    negated nets read the complemented line at no extra cost (the
    free-phase convention of the ambipolar libraries; CMOS inverters are
    explicit instances and charge their own level). *)

type scoap = {
  cc0 : float array;  (** per line: difficulty of driving it to 0 *)
  cc1 : float array;  (** per line: difficulty of driving it to 1 *)
  co : float array;   (** per line: difficulty of observing it at a PO *)
  pin_co : float array array;
      (** [pin_co.(j).(p)]: observability of instance [j]'s pin [p] —
          the cost of sensitizing the cell to that pin plus observing the
          instance output.  [infinity] when no side-pin assignment makes
          the output depend on the pin. *)
}

val line_of_net : Mapped.t -> Mapped.net -> int option
(** The line a net reads, if any ([None] for constants). *)

val scoap_of : Mapped.t -> scoap

(** {1 Collapsing and redundancy} *)

type reason =
  | Vacuous  (** the faulty truth table equals the good one *)
  | Dead     (** the site cannot reach any primary output *)
  | Const_line of bool
      (** the line is proven constant and the fault sticks it at exactly
          that value *)
  | Blocked
      (** every fanout path is blocked by proven-constant side pins whose
          cones are disjoint from the fault's fanout cone *)

val reason_name : reason -> string

type summary = {
  t_faults : int;      (** full fault universe, [Gate_fault.faults_of] *)
  t_classes : int;     (** equivalence classes *)
  t_dominated : int;   (** classes removable by dominance *)
  t_collapsed : int;   (** classes left after dominance and redundancy *)
  t_redundant : int;   (** faults statically proven untestable *)
  t_vacuous : int;     (** ... of which: function-preserving faults *)
  t_dead : int;        (** ... on logic with no path to an output *)
  t_const : int;       (** ... sticking a proven-constant line at itself *)
  t_blocked : int;     (** ... with all propagation paths blocked *)
  t_const_lines : int; (** lines proven constant by implication *)
  t_cc_mean : float;   (** mean over lines of [max cc0 cc1] (finite only) *)
  t_cc_max : float;
  t_co_mean : float;   (** mean over lines of [co] (finite only) *)
  t_co_max : float;
  t_score_mean : float;
      (** mean COP detection-hardness score (bits) over non-redundant
          faults with a finite score *)
}

type t = {
  faults : Gate_fault.fault array;  (** [Gate_fault.faults_of] order *)
  scoap : scoap;
  score : float array;
      (** per fault: random-pattern detection hardness, [-log2] of the
          COP-style estimate (excitation probability x propagation
          probability under independent uniform inputs); larger is harder,
          [infinity] when the estimate is zero.  The additive SCOAP parts
          stay available via {!scoap} — their sum is near-constant along
          circuit paths, so it ranks deterministic ATPG effort, not
          random-pattern hardness. *)
  cls : int array;     (** per fault: its equivalence class id *)
  rep : int array;     (** per class: smallest member fault index *)
  dominated : bool array;
      (** per class: removable because some fault of another,
          non-redundant class has a contained error set *)
  dom_by : int array;
      (** per class: the witness — a fault index of another class whose
          test set is contained in this class's, so any test detecting it
          detects this class; [-1] when the class is not dominated *)
  redundant : reason option array;  (** per fault *)
  summary : summary;
}

val analyze : ?learn:bool -> Mapped.t -> t
(** The full static analysis.  [learn] (default [true]) enables the
    assume-and-propagate constant learning; without it only forward
    propagation from explicit constants runs, so redundancy identification
    is weaker but the analysis is linear. *)

(** {1 Reporting} *)

val summary_line : summary -> string
val tsv_header : string

val to_tsv : Mapped.t -> t -> string
(** One row per fault: description, class, representative flag, dominated
    flag, redundancy reason, SCOAP score components. *)

val lint : ?threshold:float -> name:string -> Mapped.t -> t -> Diag.t list
(** Static findings: [map-low-observability] (instances whose output
    observability is [infinity] or beyond [threshold] — default 3x the
    median finite observability — the sites where a fault morphs
    silently), and [map-untestable-fault] (instances carrying statically
    redundant faults).  Severity [Warning] for unobservable / redundant,
    [Info] for merely hard. *)

(** {1 Testability-driven covering} *)

val cell_cost : Cell_lib.cell -> float
(** Covering cost for {!Mapper.params}[.cost]: the cell's area plus a
    penalty for poorly-sensitizable pins, computed from the truth table
    alone.  A pin sensitized by a fraction [s] of side-pin assignments
    contributes [1/s - 1] — zero for always-sensitized pins (inverter,
    XOR), large for the late pins of wide AND-like cells — so the mapper
    prefers covers whose internal faults stay excitable and observable. *)
