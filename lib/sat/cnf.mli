(** Tseitin encoding of AIGs into CNF for {!Solver}, plus DIMACS
    import/export for reproducing solver behaviour outside the flow. *)

type formula = {
  fm_vars : int;                (** number of variables *)
  fm_clauses : int list list;   (** clauses of solver literals *)
}
(** A plain clause list, the exchange format between DIMACS text and
    the solver. *)

(** {1 Encoding} *)

val encode_lit : Solver.t -> Aig.t -> int array -> Aig.lit -> int
(** [encode_lit s aig vars l] is the solver literal for [l], encoding
    the part of [l]'s cone not encoded yet: [vars] maps nodes to solver
    variables, [-1] for a node without one, and is updated in place.
    An input gets a free variable, an AND node a variable and three
    clauses, and the constant node a variable clamped to false. *)

val add_formula : Solver.t -> formula -> unit
(** Creates variables up to [fm_vars] (if the solver has fewer) and adds
    every clause. *)

(** {1 DIMACS} *)

val to_dimacs : formula -> string
(** Standard DIMACS CNF: [p cnf vars clauses] header, one 0-terminated
    clause per line, variable [v] (internal) printed as [v+1]. *)

val of_dimacs : string -> (formula, string) result
(** Parses DIMACS CNF text ([c] comment lines and a trailing [%] section
    tolerated).  Literals out of the header's variable range, a missing
    header or trailing garbage are reported as [Error _]. *)
