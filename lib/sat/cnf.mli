(** Tseitin encoding of AIGs into CNF for {!Solver}, plus DIMACS
    import/export for reproducing solver behaviour outside the flow. *)

type formula = {
  fm_vars : int;                (** number of variables *)
  fm_clauses : int list list;   (** clauses of solver literals *)
}
(** A plain clause list, the exchange format between DIMACS text and
    the solver. *)

val lit_of : int array -> Aig.lit -> int
(** [lit_of vars l] is the solver literal for AIG literal [l], given the
    node-to-variable map returned by {!encode}. *)

(** {1 Encoding} *)

val encode : Solver.t -> Aig.t -> int array
(** Adds one solver variable per AIG node (constant node included,
    clamped to false) and the three AND-gate clauses per node.  Returns
    the node-indexed variable map.  Can be called for several graphs on
    one solver; to share inputs use {!encode_shared}. *)

val encode_shared : Solver.t -> Aig.t -> inputs:int array -> int array
(** Like {!encode} but uses the given solver variables for the primary
    inputs ([inputs.(i)] for input [i]). *)

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
