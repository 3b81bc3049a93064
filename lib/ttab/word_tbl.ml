(* The SplitMix64 finalizer ([Rand64.next] without the state step). *)
let hash x =
  let z = Int64.(mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(to_int (logxor z (shift_right_logical z 31))) land max_int

include Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash = hash
end)
