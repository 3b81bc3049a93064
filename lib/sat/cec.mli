(** Combinational equivalence checking of two AIGs.

    The graphs must have the same number of primary inputs and outputs;
    outputs are compared positionally.  A random-simulation filter runs
    first (cheap counterexamples), then a SAT miter over {!Solver}
    decides. *)

type verdict =
  | Equivalent
  | Inequivalent of bool array  (** a distinguishing input assignment *)
  | Undecided                   (** conflict budget exhausted *)

exception Undecided_budget
(** Raised by {!equivalent} when the conflict budget is exhausted. *)

val check :
  ?sim_rounds:int -> ?conflict_budget:int -> ?seed:int64 ->
  ?stats:Solver.stats ->
  Aig.t -> Aig.t -> verdict
(** [stats], when given, accumulates the SAT effort of the miter solve
    (nothing is added when simulation already found a counterexample). *)

val equivalent : ?conflict_budget:int -> Aig.t -> Aig.t -> bool
(** [check] specialized: raises {!Undecided_budget} on [Undecided] (which
    can only happen when a [conflict_budget] is given). *)
