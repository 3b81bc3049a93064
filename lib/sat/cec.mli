(** Combinational equivalence checking of two AIGs by SAT sweeping.

    The graphs must have the same number of primary inputs and outputs;
    outputs are compared positionally.  Both are strashed into one graph
    over shared inputs, and random simulation runs first (cheap
    counterexamples).  The nodes its patterns cannot tell apart form
    candidate classes, which the sweep proves node by node on one
    incremental {!Solver}, merging each proven pair and splitting the
    classes with every counterexample.  Output pairs the sweep leaves
    unmerged go to one final miter.  DESIGN.md §13 has the details. *)

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
(** [sim_rounds] (default 16) words of 64 random patterns, drawn from
    [seed], run before any SAT.  [conflict_budget] caps the conflicts of
    the whole check, every query and the final miter together; [stats],
    when given, accumulates the SAT effort of the check (nothing is added
    when simulation or strashing alone decides), so it gains at most
    [conflict_budget] conflicts.  The verdict depends only on the two
    graphs and the three arguments. *)

val equivalent : ?conflict_budget:int -> Aig.t -> Aig.t -> bool
(** [check] specialized: raises {!Undecided_budget} on [Undecided] (which
    can only happen when a [conflict_budget] is given). *)
