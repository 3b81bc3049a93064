(** Reduced ordered binary decision diagrams.

    A small, self-contained ROBDD package with a unique table and an
    ITE-based apply.  Test code: [test_bdd] crosschecks it against the
    truth-table code as an independent engine.  Node handles are only
    meaningful relative to their manager. *)

type man
(** A manager: unique table, computed table, node store. *)

type node = int
(** Node handle.  Canonical: two equivalent functions built in the same
    manager receive the same handle. *)

val create : ?size_hint:int -> int -> man
(** [create n] makes a manager over [n] variables with the natural order. *)

val num_vars : man -> int
val zero : node
val one : node
val var : man -> int -> node

val mnot : man -> node -> node
val mand : man -> node -> node -> node
val mor : man -> node -> node -> node
val mxor : man -> node -> node -> node
val ite : man -> node -> node -> node -> node
val cofactor : man -> node -> int -> bool -> node
val exists : man -> node -> int -> node

val size : man -> node -> int
(** Number of internal nodes reachable from the handle. *)

val num_nodes : man -> int
(** Total nodes allocated in the manager. *)

val eval : man -> node -> (int -> bool) -> bool
val sat_count : man -> node -> float
(** Number of satisfying assignments over all [num_vars] variables. *)

val any_sat : man -> node -> (int * bool) list option
(** A satisfying partial assignment, or [None] for [zero]. *)

val of_tt : man -> Tt.t -> node
val to_tt : man -> int -> node -> Tt.t
