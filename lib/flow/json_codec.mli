(** Minimal JSON codec for the daemon's line-delimited wire protocol and
    the flow's JSON metrics.

    Parsing never raises: malformed input — including pathological
    nesting — comes back as [Error msg].  Printing is deterministic
    (field order preserved, integral numbers without a decimal point),
    so protocol replies built from the same data are byte-identical. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
val num_to_string : float -> string
val parse : string -> (t, string) result

(** {1 Accessors} — [None] on shape mismatch, never an exception *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int_ : t -> int option
(** Only integral numbers within [±10{^15}]. *)

val bool_ : t -> bool option
val arr : t -> t list option
val obj : t -> (string * t) list option

val mem_str : t -> string -> string option
val mem_int : t -> string -> int option
val mem_bool : t -> string -> bool option
