(** Gate-level single-stuck-at fault simulation and ATPG over {!Mapped.t}.

    Random-pattern detection runs 64 patterns per word with fault
    dropping, by stem regions: a {e stem} is a line (a primary input or an
    instance output) that an output net reads or that two or more cells
    read, and its {e fanout-free region} holds every line whose value
    reaches the outputs only through it.  Each round resimulates each
    stem whose region still holds a live fault once, flipped, evaluating
    only the cells whose inputs changed; the output change is the stem's
    observability word.  Within the region a line's observability is the
    stem's ANDed with the Boolean differences along its one path to the
    stem, and a fault is detected where its difference word meets its
    line's observability.  This is exact per pattern bit: it detects what
    resimulating each fault's whole fanout cone detects.

    Each undetected fault gets its own cone-local SAT miter (Larrabee's
    formulation): a faulty copy of the fault's fanout cone only, the part
    of the good netlist that cone and the outputs it reaches read, an XOR
    over those outputs and a unit clause that activates the fault.  A
    fault that reaches no output is {!Redundant} without a solve.  Each
    query runs under a conflict budget, so a hard fault degrades to
    {!Unknown} instead of an unbounded solve. *)

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

val const_word : bool -> int64
(** The pattern word of a line stuck at [b]: all ones or all zeros.  With
    {!Npn.cofactor} for a stuck cell pin, these are the stuck-at semantics
    that {!inject}, the fault simulator, the ATPG miter and
    {!Testability} share. *)

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
    the SAT effort of every ATPG query.

    A decided verdict is the one a fresh {!Cec.check} between the
    netlist and its {!inject}ed copy gives: {!Redundant} for
    [Equivalent], {!Detected_atpg} for [Inequivalent]. *)

val summary_line : summary -> string
val status_name : status -> string
val tsv_header : string
val results_tsv : Mapped.t -> result array -> string
