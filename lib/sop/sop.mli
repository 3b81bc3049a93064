(** Sum-of-products covers and the Minato–Morreale irredundant SOP. *)

type t = { n : int; cubes : Cube.t list }

val const0 : int -> t
val const1 : int -> t
val make : int -> Cube.t list -> t
val num_cubes : t -> int
val num_literals : t -> int
val to_tt : t -> Tt.t

val isop : Tt.t -> t
(** Irredundant sum-of-products of a completely-specified function. *)

val isop_lu : Tt.t -> Tt.t -> t
(** [isop_lu lower upper] computes an irredundant cover [f] with
    [lower <= f <= upper] (an incompletely-specified function whose
    don't-care set is [upper AND NOT lower]).  Raises [Invalid_argument]
    if the variable counts differ or [lower] is not contained in [upper];
    the result is checked against every bit of both bounds, so a table of
    at most 5 variables whose word is not replicated (see {!Tt.of_words})
    fails an assertion.  All working memory is per call, so domains may
    call it concurrently. *)

val pp : Format.formatter -> t -> unit
