type verdict =
  | Equivalent
  | Inequivalent of bool array
  | Undecided

exception Undecided_budget

let simulate_differs a b rng =
  let n = Aig.num_inputs a in
  let words = Array.init n (fun _ -> Rand64.next rng) in
  let oa = Aig.simulate_outputs a words in
  let ob = Aig.simulate_outputs b words in
  let diff = ref (-1) in
  Array.iteri
    (fun i w -> if !diff < 0 && w <> ob.(i) then diff := i)
    oa;
  if !diff < 0 then None
  else begin
    (* Find a differing bit position and decode the assignment. *)
    let w = Int64.logxor oa.(!diff) ob.(!diff) in
    let rec bitpos k =
      if Int64.(logand (shift_right_logical w k) 1L) <> 0L then k
      else bitpos (k + 1)
    in
    let k = bitpos 0 in
    Some
      (Array.init n (fun i ->
           Int64.(logand (shift_right_logical words.(i) k) 1L) <> 0L))
  end

(* The SAT side of the check: build the miter (shared inputs, per-output
   XOR, "some output differs") and run one solve. *)
let miter_check ~conflict_budget ~stats a b =
  let s = Solver.create () in
  let inputs = Array.init (Aig.num_inputs a) (fun _ -> Solver.new_var s) in
  let va = Cnf.encode_shared s a ~inputs in
  let vb = Cnf.encode_shared s b ~inputs in
  (* xor_i <-> (out_a_i <> out_b_i); at least one xor_i true *)
  let xors =
    Array.init (Aig.num_outputs a) (fun i ->
        let la = Cnf.lit_of va (snd (Aig.output a i)) in
        let lb = Cnf.lit_of vb (snd (Aig.output b i)) in
        let x = Solver.pos (Solver.new_var s) in
        let nx = Solver.lit_not x in
        let nla = Solver.lit_not la and nlb = Solver.lit_not lb in
        Solver.add_clause s [ nx; la; lb ];
        Solver.add_clause s [ nx; nla; nlb ];
        Solver.add_clause s [ x; la; nlb ];
        Solver.add_clause s [ x; nla; lb ];
        x)
  in
  Solver.add_clause s (Array.to_list xors);
  let r = Solver.solve ~conflict_budget s in
  (match stats with
  | Some acc -> Solver.stats_accum acc (Solver.stats_of s)
  | None -> ());
  match r with
  | Solver.Unsat -> Equivalent
  | Solver.Unknown -> Undecided
  | Solver.Sat -> Inequivalent (Array.map (Solver.model_value s) inputs)

let check ?(sim_rounds = 16) ?(conflict_budget = max_int) ?(seed = 42L)
    ?stats a b =
  if Aig.num_inputs a <> Aig.num_inputs b then
    invalid_arg "Cec.check: input counts differ";
  if Aig.num_outputs a <> Aig.num_outputs b then
    invalid_arg "Cec.check: output counts differ";
  let rng = Rand64.create seed in
  let rec sim k =
    if k = 0 then None else
    match simulate_differs a b rng with
    | Some cex -> Some cex
    | None -> sim (k - 1)
  in
  match sim sim_rounds with
  | Some cex -> Inequivalent cex
  | None -> miter_check ~conflict_budget ~stats a b

let equivalent ?conflict_budget a b =
  match check ?conflict_budget a b with
  | Equivalent -> true
  | Inequivalent _ -> false
  | Undecided -> raise Undecided_budget
