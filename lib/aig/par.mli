(** Fork-join parallel-for for within-circuit parallelism.

    {!run} splits an index range into contiguous chunks: the caller runs
    the first, a freshly spawned domain runs each other one, and every
    spawned domain is joined before {!run} returns or raises.  Callers
    guarantee determinism by writing only per-chunk or per-index state;
    under that contract results are identical for every [jobs], including
    [jobs = 1] (fully inline, no domain spawned). *)

val width : jobs:int -> int
(** Number of chunks {!run} uses at [jobs] ([max 1 jobs]): the size of a
    per-chunk scratch array. *)

val run : jobs:int -> n:int -> (int -> int -> int -> unit) -> unit
(** [run ~jobs ~n f] splits [0, n) into [width ~jobs] contiguous chunks
    and calls [f w lo hi] for each, concurrently; [w] is the chunk index
    in [0, width ~jobs), usable to index per-chunk scratch.  Small [n]
    runs inline as [f 0 0 n]; [n <= 0] does nothing.  Chunk writes are
    visible to the caller when [run] returns.  If a domain spawn or a
    chunk raises, that exception (a failed spawn first, else the
    lowest-indexed raising chunk's) is re-raised once every spawned
    domain has been joined. *)
