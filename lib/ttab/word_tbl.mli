(** Hash tables keyed on one truth-table word (the {!Tt} single-word
    convention: a function of [k <= 6] variables replicated to fill 64
    bits).

    Use these rather than the generic [Hashtbl] for such keys.  The
    generic hash of a boxed [int64] is [lo32 lxor hi32], which is 0 for
    every replicated table of at most 5 variables, and
    [Hashtbl.hash (Int64.to_int x)] takes only 4 values across all
    4-variable tables: either way a table of them is one long bucket. *)

val hash : int64 -> int
(** The SplitMix64 finalizer, made non-negative.  Every bit of the result
    depends on every bit of [x], the low bits included: [Hashtbl.Make]
    picks a bucket from [hash x land (size - 1)], so a hash whose low bits
    ignored the high minterms would put all the 6-variable tables that
    differ only there (e.g. every [x5·x4·h(x0..x3)], whose low 48 bits
    are 0) in one bucket. *)

include Hashtbl.S with type key = int64
