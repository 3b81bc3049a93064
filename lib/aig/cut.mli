(** K-feasible priority cuts of an AIG (Pan–Mishchenko style).

    A cut of node [n] is a set of node ids such that every path from a
    primary input to [n] crosses the set; the function of [n] can then be
    expressed over the cut leaves.  Only a bounded number of cuts per node
    is kept, which is the standard compromise used by technology mappers.

    Cut sets are stored in flat preallocated slabs, and each cut's truth
    table is computed incrementally during enumeration
    ({!compute_packed}). *)

val signature : int array -> int
(** Bloom-filter signature of a (sorted) leaf array.  Sound for subset
    pre-rejection: [leaves a ⊆ leaves b] implies
    [signature a land signature b = signature a]. *)

(** {1 Counters} *)

(** Hot-path counters, accumulated by whichever subsystem owns the record
    (one per pass in the flow).  The first four count work in the
    enumeration's bounded candidate scratch, re-runs included: [built] counts
    candidate cuts accepted into a node's scratch (including later-evicted
    or dropped ones), [dominated] counts candidates dropped — or evicted —
    by the dominance filter, [sign_rejects] counts subset walks skipped by
    the signature pre-filter, and [tt_merges] counts incremental
    truth-table merges.  A candidate sorting past a full scratch is neither
    built nor dominated.  [refills] counts nodes whose bounded enumeration
    could not be certified exact and was re-run at full capacity.
    [probes] counts match-table lookups (filled in by the mapper).
    [reevals] / [reeval_skips] count (node, pass) matching evaluations
    performed vs. skipped by the mapper's exact dirty-propagation (also
    filled in by the mapper; both are deterministic for every [jobs]
    value). *)
type stats = {
  mutable built : int;
  mutable dominated : int;
  mutable sign_rejects : int;
  mutable tt_merges : int;
  mutable refills : int;
  mutable probes : int;
  mutable reevals : int;
  mutable reeval_skips : int;
}

val stats_create : unit -> stats
val stats_add : stats -> stats -> unit
(** [stats_add acc s] adds [s]'s counters into [acc]. *)

(** {1 Packed cut sets} *)

type set
(** All cuts of all nodes, packed: slot [j] of node [nd] holds the leaf
    count, signature, leaves (sorted) and the truth table of [nd] over
    those leaves as a single replicated word ([k <= 6]). *)

val compute_packed : ?stats:stats -> Aig.t -> k:int -> limit:int -> set
(** [compute_packed aig ~k ~limit] keeps, for every node, up to [limit]
    [k]-feasible cuts: the [limit - 1] smallest of its dominance-filtered
    cuts in (leaf count, lexicographic leaves) order, then the trivial
    cut, always last.  Each cut's function is computed bottom-up during
    the merge.  [2 <= k <= 6].

    Each node is enumerated in a [limit]-entry candidate scratch with
    priority-cut truncation, and the result is certified exact when every
    committed cut sorts before the smallest key truncation dropped; a node
    that cannot be certified is enumerated again in a [limit²]-entry
    scratch, which is exact (counted in [stats.refills]). *)

val num_cuts : set -> int -> int
val cut_nleaves : set -> int -> int -> int
(** [cut_nleaves s nd j]: leaf count of cut [j] of node [nd]. *)

val cut_leaf : set -> int -> int -> int -> int
(** [cut_leaf s nd j i]: leaf [i] (ascending order) of cut [j]. *)

val cut_leaves : set -> int -> int -> int array
(** Fresh copy of cut [j]'s leaf array. *)

val cut_tt : set -> int -> int -> int64
(** Truth table of node [nd] over cut [j]'s leaves (replicated word; equals
    [Aig.tt_of_cut aig (Aig.lit_of_node nd) (cut_leaves s nd j)]). *)
