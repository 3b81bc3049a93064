(** Bit-vector construction helpers over an AIG (little-endian). *)

type t = Aig.lit array

val inputs : Aig.t -> string -> int -> t
(** [inputs g name n] appends [n] primary inputs named [name0..].  Must be
    called before any logic is built (AIG input ordering). *)

val outputs : Aig.t -> string -> t -> unit
val const_of_int : int -> int -> t
(** [const_of_int n v]: [n]-bit constant [v] as constant literals. *)

val width : t -> int
val bnot : t -> t
val band : Aig.t -> t -> t -> t
val bor : Aig.t -> t -> t -> t
val bxor : Aig.t -> t -> t -> t

val full_adder : Aig.t -> Aig.lit -> Aig.lit -> Aig.lit -> Aig.lit * Aig.lit
(** [(sum, carry)] *)

val add : Aig.t -> ?cin:Aig.lit -> t -> t -> t * Aig.lit
(** Ripple-carry sum and carry-out; operands must have equal width. *)

val sub : Aig.t -> t -> t -> t * Aig.lit
(** Two's-complement subtraction; the carry-out is the not-borrow. *)

val mul : Aig.t -> t -> t -> t
(** Carry-save array multiplier (the structure of C6288); the result has
    [width a + width b] bits. *)

val mux : Aig.t -> Aig.lit -> t -> t -> t
(** [mux g s a b = if s then a else b] bitwise. *)

val mux_tree : Aig.t -> t -> t array -> t
(** [mux_tree g sel ways]: select among [2^width sel] equal-width vectors. *)

val equal : Aig.t -> t -> t -> Aig.lit
val ult : Aig.t -> t -> t -> Aig.lit
(** Unsigned less-than. *)

val parity : Aig.t -> t -> Aig.lit
val reduce_or : Aig.t -> t -> Aig.lit

val shift_left : Aig.t -> t -> t -> t
(** Barrel shifter: shift amount is a (small) bit vector. *)

val shift_right : Aig.t -> t -> t -> t
val select : t -> int list -> t
(** Pick bits by index (permutation/expansion networks). *)
