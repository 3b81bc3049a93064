(** Multi-level logic optimization on AIGs.

    The passes mirror the algorithm family behind ABC's [resyn2rs] script,
    which the paper runs before mapping (Sec. 4.4):
    - {!balance} — rebuilds AND trees in minimum-depth (Huffman) order;
    - {!rewrite} — DAG-aware replacement of small (4-cut) cones by better
      factored-form structures;
    - {!refactor} — the same with large reconvergent cuts (10 leaves),
      using ISOP + algebraic factoring to re-express each cone;
    - {!resyn2rs} — the composed script.

    Every pass returns a fresh, structurally hashed, dead-node-free AIG
    that is combinationally equivalent to its input (tested by CEC). *)

val balance : Aig.t -> Aig.t

(** The cut-based passes read each priority cut's function straight out
    of the packed enumeration ({!Cut.compute_packed}) and keep their
    per-node bookkeeping in timestamp-stamped scratch arrays.  An
    optional [stats] record accumulates the enumeration's hot-path
    counters across the pass (and across every sub-pass of the composed
    scripts).

    [jobs] (default 1) runs each pass's per-node candidate analysis — cut
    enumeration, cone functions, ISOP factoring, MFFC accounting — across
    that many domains ({!Par.run}), window by window; the commit into
    the rebuilt graph stays sequential.  Because the analysis is a pure
    function of the immutable source graph, the output is byte-identical
    for every [jobs] value. *)

val rewrite :
  ?zero_gain:bool -> ?stats:Cut.stats -> ?jobs:int -> Aig.t -> Aig.t
(** Cut size 4; replaces a cone when the factored rebuild uses fewer nodes
    than the cone's MFFC ([zero_gain] accepts equal size, useful as a
    perturbation between other passes). *)

val refactor :
  ?zero_gain:bool ->
  ?cut_size:int ->
  ?stats:Cut.stats ->
  ?jobs:int ->
  Aig.t ->
  Aig.t
(** Default cut size 10 (at most {!Tt.max_vars}); cut sizes above 6 use a
    single greedy reconvergent cut per node, where the enumeration's
    incremental tables do not apply. *)

val resyn2rs : ?stats:Cut.stats -> ?jobs:int -> Aig.t -> Aig.t
(** rw; rf; b; rw; rw -z; b; rf -z; rw -z; b. *)

val light : ?stats:Cut.stats -> ?jobs:int -> Aig.t -> Aig.t
(** rw; b — a cheap script for quick runs. *)
