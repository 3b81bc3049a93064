(** NPN transformations of single-word truth tables.

    All functions here operate on 64-bit words holding a function of
    [k <= 6] variables replicated to fill the word (the {!Tt} convention for
    small tables).  They are the hot path of technology-library expansion,
    where every input-negation / input-permutation / output-negation variant
    of every cell function is tabulated. *)

val flip : int64 -> int -> int64
(** [flip t i] substitutes [NOT x_i] for variable [i] ([0 <= i < 6]). *)

val cofactor : int64 -> int -> bool -> int64
(** [cofactor t i b] substitutes the constant [b] for variable [i]
    ([0 <= i < 6]): {!Tt.cofactor1} or {!Tt.cofactor0} on one word.  The
    fault layer's stuck-at semantics for a cell pin. *)

val swap_adjacent : int64 -> int -> int64
(** [swap_adjacent t i] exchanges variables [i] and [i+1] ([0 <= i < 5]). *)

val permute : int64 -> int array -> int64
(** [permute t p] (with [p] a permutation of [0..k-1], [k <= 6]): the result
    [r] satisfies [r (x_0, .., x_{k-1}) = t (y)] where [y_(p.(i)) = x_i];
    i.e. position [p.(i)] of [t] is driven by variable [i] of the result. *)

val apply_phase : int64 -> int -> int64
(** [apply_phase t mask] flips every variable whose bit is set in [mask]. *)

type transform = {
  perm : int array;  (** gate pin [perm.(i)] is driven by cut variable [i] *)
  phase : int;       (** bit [i] set: cut variable [i] enters complemented *)
  neg : bool;        (** output is complemented *)
}

val identity : int -> transform

val enumerate : int -> int64 -> (int64 -> transform -> unit) -> unit
(** [enumerate k t f] calls [f variant tr] for every NPN variant of the
    [k]-variable function [t]: all [k! * 2^k * 2] combinations (duplicates
    possible when [t] has symmetries).  The [transform] arrays are fresh for
    each permutation but shared across its phases; copy if retained. *)

val canonical : int -> int64 -> int64
(** Exhaustive NPN-canonical representative (numerically smallest variant,
    comparing words as unsigned). *)

val canonical_cached : int -> int64 -> int64
(** [canonical], memoized per domain behind a size-bounded cache keyed by
    [(k, t)].  Same result as [canonical]; use on hot paths where the same
    functions recur (mapper lint, paper coverage). *)

val support_size : int64 -> int -> int
(** [support_size t m]: the number of variables among [0..m-1] that the
    [m]-variable function [t] depends on ([m <= 6]); the length of
    {!shrink}'s support, without building it. *)

val shrink : int64 -> int -> int64 * int array
(** [shrink t m] removes the non-support variables of the [m]-variable
    function [t] ([m <= 6], replicated-word convention): returns
    [(small, sup)] where [sup] lists the support variables in ascending
    order and [small] is [t] re-expressed over variables [0..len sup - 1]
    (variable [j] of [small] is variable [sup.(j)] of [t]).  Word-level
    equivalent of {!Tt.shrink_to_support} for single-word tables. *)

val num_classes : int -> int
(** Number of NPN equivalence classes among all functions of exactly [k <= 4]
    variables (exhaustive; exponential in [2^k], for tests and tooling). *)
