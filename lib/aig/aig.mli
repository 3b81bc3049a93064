(** And-inverter graphs with structural hashing.

    Nodes are numbered densely: node [0] is the constant-false node, nodes
    [1..num_inputs] are primary inputs, and every AND node's two fanins have
    smaller indices than the node itself (so index order is a topological
    order).  Edges are literals: [2*node + c] where [c = 1] marks
    complementation. *)

type t
type lit = int

(** {1 Literals} *)

val lit_false : lit
val lit_true : lit
val lnot : lit -> lit
val node_of : lit -> int
val is_compl : lit -> bool
val lit_of_node : ?compl:bool -> int -> lit

(** {1 Construction} *)

val create : ?size_hint:int -> unit -> t

val add_input : ?name:string -> t -> lit
(** Appends a primary input; returns its positive literal.  Inputs must be
    created before any AND node. *)

val mk_and : t -> lit -> lit -> lit
(** Structurally-hashed AND with constant folding and the trivial
    simplifications [a*a = a], [a*!a = 0]. *)

val mk_or : t -> lit -> lit -> lit
val mk_xor : t -> lit -> lit -> lit
val mk_mux : t -> lit -> lit -> lit -> lit
(** [mk_mux t s a b] is [if s then a else b]. *)

val mk_and_list : t -> lit list -> lit
val mk_or_list : t -> lit list -> lit
val mk_maj3 : t -> lit -> lit -> lit -> lit

val add_output : t -> string -> lit -> unit
val set_output : t -> int -> lit -> unit

(** {1 Structure} *)

val num_nodes : t -> int
(** All nodes including the constant and the inputs. *)

val num_inputs : t -> int
val num_ands : t -> int
val num_outputs : t -> int
val outputs : t -> (string * lit) array
val output : t -> int -> string * lit
val input_lit : t -> int -> lit
(** [input_lit t i] is the positive literal of the [i]-th input (0-based). *)

val input_name : t -> int -> string
val is_input : t -> int -> bool
val is_and : t -> int -> bool
val fanin0 : t -> int -> lit
val fanin1 : t -> int -> lit

val iter_ands : t -> (int -> unit) -> unit
(** Ascending node order (topological). *)

val levels : t -> int array
(** Per-node level: inputs at 0, AND nodes 1 + max of fanins. *)

val depth : t -> int
val fanout_counts : t -> int array
(** References from AND nodes and outputs, per node. *)

val mffc_size : t -> int array -> int -> int
(** [mffc_size t refs n]: size of the maximum fanout-free cone of AND node
    [n] given the fanout counts [refs] (number of AND nodes that would die if
    [n] were removed). *)

val unsafe_set_and : t -> int -> lit -> lit -> unit
(** [unsafe_set_and t n f0 f1] overwrites the fanins of the existing AND
    node [n] without structural hashing or any invariant checking: the
    result may contain cycles, forward references, or duplicate nodes.
    This deliberately breaks the representation — it exists only so tests
    and the {e lint} subsystem can build negative fixtures (a well-formed
    AIG cannot be made ill-formed through the regular constructors).  Never
    use it on a graph that will be optimized or mapped. *)

(** {1 Checkpointing}

    Used for speculative construction: build tentatively, measure, and roll
    back if not profitable.  Rolling back removes all nodes created after
    the checkpoint; they must not be referenced by any retained structure. *)

val checkpoint : t -> int
val rollback : t -> int -> unit

(** {1 Semantics} *)

val simulate : t -> int64 array -> int64 array
(** [simulate t words] — one 64-bit pattern word per input — returns the
    per-node simulation values (indexed by node). *)

val simulate_outputs : t -> int64 array -> int64 array
val eval : t -> bool array -> bool array
(** Evaluate all outputs on one input assignment. *)

val tt_of_lit : t -> lit -> Tt.t
(** Truth table of a literal over the primary inputs.  Requires
    [num_inputs t <= Tt.max_vars]; exponential, for small graphs. *)

val tt_of_cut : t -> lit -> int array -> Tt.t
(** [tt_of_cut t root leaves]: function of [root] expressed over the node
    ids [leaves] (at most 16), which must form a cut of [root]'s cone. *)

(** {1 Copying} *)

val extract : t -> (string * lit) list -> t * lit array
(** Copy the cones of the given outputs into a fresh graph (dead logic is
    dropped); also returns the old-node to new-literal map, [-1] for the
    nodes outside the copied cones. *)

val cleanup : t -> t
(** [extract] on all the outputs of [t]. *)

val pp_stats : Format.formatter -> t -> unit
