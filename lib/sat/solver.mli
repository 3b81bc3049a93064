(** CDCL SAT solving: two-watched-literal propagation with blocker
    literals, clauses in a flat int arena, VSIDS branching, phase saving,
    Luby restarts, an LBD-scored learned clause database with periodic
    compacting GC, and {e incremental solving under assumptions} with
    final-conflict (unsat-core) extraction.

    Literal encoding: variable [v] yields the positive literal [2*v] and
    the negative literal [2*v+1]. *)

type result = Sat | Unsat | Unknown

(** {1 Literals} *)

val pos : int -> int
(** Positive literal of a variable. *)

val neg : int -> int
(** Negative literal of a variable. *)

val lit_not : int -> int
val lit_var : int -> int

val lit_sign : int -> bool
(** [true] for positive literals. *)

(** {1 Aggregated statistics}

    A plain mutable accumulator consumers thread through verification
    passes ([Cec], [Map_lint], [Gate_fault]) and the flow metrics.
    Accumulate each solver instance exactly once, after its last
    [solve], with [stats_accum acc (stats_of s)]. *)

type stats = {
  mutable sat_solves : int;        (** [solve] calls *)
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable sat_restarts : int;
  mutable sat_learned : int;       (** learned clauses stored in the DB *)
}

val stats_create : unit -> stats
val stats_accum : stats -> stats -> unit
(** [stats_accum dst src] adds [src]'s counters into [dst]. *)

(** {1 The solver} *)

type t

val create : unit -> t

val new_var : t -> int
(** Returns the new variable's index. *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Adding the empty clause (or clauses that simplify to it at level 0)
    makes the instance trivially unsatisfiable. *)

val solve : ?assumptions:int list -> ?conflict_budget:int -> t -> result
(** Runs the search under the given assumption literals, optionally
    bounded by a number of conflicts ([Unknown] when exhausted).  May be
    called repeatedly, with different assumptions and after adding more
    clauses (incremental use).  [Unsat] under non-empty assumptions does
    {e not} poison the solver: a subsequent call with different
    assumptions can be [Sat]; use {!unsat_core} to retrieve the failed
    assumption subset.  The answer equals that of a fresh solve with the
    assumptions added as unit clauses. *)

val model_value : t -> int -> bool
(** Value of a variable in the model found by the last [Sat] answer. *)

val unsat_core : t -> int list
(** After [solve ~assumptions] returned [Unsat]: a subset of the
    assumption literals whose conjunction with the clauses is
    unsatisfiable ([[]] when the clauses alone are unsatisfiable).
    Not necessarily minimal. *)

val stats_of : t -> stats
(** Snapshot of the solver's cumulative counters. *)

val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int
val num_restarts : t -> int
val num_learned : t -> int

val num_gc_runs : t -> int
(** Learned-database compactions performed so far. *)
