(* The seed bit-serial cell evaluator: the oracle the word-parallel
   [Mapped.eval_instance] is tested against.  It builds an instance's
   output one pattern bit at a time, reading the truth-table bit that the
   fanins' bits at that position index. *)

let eval_instance words vals (inst : Mapped.instance) =
  let k = Array.length inst.Mapped.fanins in
  let out = ref 0L in
  for bit = 0 to 63 do
    let idx = ref 0 in
    for i = 0 to k - 1 do
      if
        Int64.(
          logand
            (shift_right_logical
               (Mapped.net_value words vals inst.Mapped.fanins.(i))
               bit)
            1L)
        <> 0L
      then idx := !idx lor (1 lsl i)
    done;
    if Int64.(logand (shift_right_logical inst.Mapped.tt !idx) 1L) <> 0L then
      out := Int64.logor !out (Int64.shift_left 1L bit)
  done;
  !out

(* [Mapped.simulate] over the bit-serial evaluator. *)
let simulate (m : Mapped.t) words =
  if Array.length words <> m.Mapped.num_inputs then
    invalid_arg "Mapped_ref.simulate";
  let vals = Array.make (Array.length m.Mapped.instances) 0L in
  Array.iteri
    (fun j inst -> vals.(j) <- eval_instance words vals inst)
    m.Mapped.instances;
  Array.map (fun (_, net) -> Mapped.net_value words vals net) m.Mapped.outputs
