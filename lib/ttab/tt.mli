(** Truth tables over [n] variables, 0 <= n <= 16.

    A table is a bit vector of length [2^n] stored in 64-bit words.  For
    [n <= 6] the single word holds the function replicated periodically to
    fill all 64 bits (the usual convention in logic-synthesis packages),
    which lets word-wise operations ignore [n].

    Variable [i] has period [2^(i+1)]: bit [k] of the table is the value of
    the function on the assignment whose variable [i] equals bit [i] of
    [k]. *)

type t

val max_vars : int
(** Largest supported variable count (16). *)

val nvars : t -> int
val words : t -> int64 array

(** {1 Construction} *)

val const0 : int -> t
(** [const0 n] is the constant-false function of [n] variables. *)

val const1 : int -> t

val var : int -> int -> t
(** [var n i] is the projection on variable [i] ([0 <= i < n]). *)

val of_words : int -> int64 array -> t
(** [of_words n w] builds a table from raw words; for [n <= 6] the single
    word must already be replicated (use {!of_bits} otherwise). *)

val of_bits : int -> int64 -> t
(** [of_bits n b] builds an [n <= 6]-variable table from the low [2^n] bits
    of [b], replicating them across the word. *)

val of_fun : int -> (int -> bool) -> t
(** [of_fun n f] tabulates [f] over all [2^n] assignments; the argument is
    the assignment encoded as an integer (bit [i] = variable [i]). *)

(** {1 Boolean connectives} *)

val bnot : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bandn : t -> t -> t
(** [bandn a b] is [a AND (NOT b)]. *)

val mux : t -> t -> t -> t
(** [mux s a b] is [if s then a else b] pointwise. *)

(** {1 Queries} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val is_const0 : t -> bool
val is_const1 : t -> bool
val eval : t -> int -> bool
(** [eval t a] is the value of [t] on assignment [a] (bit [i] = var [i]). *)

val count_ones : t -> int
(** Number of satisfying assignments (on the [2^n] real bits). *)

val depends_on : t -> int -> bool
val support : t -> int list
(** Variables the function actually depends on, ascending. *)

val support_size : t -> int

(** {1 Cofactors} *)

val cofactor0 : t -> int -> t
val cofactor1 : t -> int -> t

(** {1 Variable manipulation} *)

val flip : t -> int -> t
(** [flip t i] substitutes [NOT x_i] for [x_i]. *)

val swap_adjacent : t -> int -> t
(** [swap_adjacent t i] exchanges variables [i] and [i+1]. *)

val swap : t -> int -> int -> t
val permute : t -> int array -> t
(** [permute t p]: variable [i] of the result reads variable [p.(i)] of [t]…
    precisely, [eval (permute t p) a = eval t b] where bit [p.(i)] of [b] is
    bit [i] of [a].  [p] must be a permutation of [0..n-1]. *)

val shrink_to_support : t -> t * int array
(** Re-expresses the function over its support only.  Returns the smaller
    table and the array mapping new variable index to old variable index. *)

val extend : t -> int -> t
(** [extend t n] views [t] as a function of [n >= nvars t] variables (the
    new variables are vacuous). *)

(** {1 Printing} *)

val to_hex : t -> string
val pp : Format.formatter -> t -> unit
