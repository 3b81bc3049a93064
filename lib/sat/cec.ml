(* Combinational equivalence by SAT sweeping (DESIGN.md §13).

   Both graphs are strashed into one graph [g] over shared inputs.
   Simulation words group [g]'s nodes into candidate classes: nodes whose
   words agree up to complement, each class named by its smallest-index
   member, the representative.  The sweep walks [g] in index order, which
   is topological, rebuilds each node in the swept graph [f] over its
   fanins' images, and proves the rebuilt node against its
   representative's image with two assumption queries on one incremental
   solver that encodes a cone the first time a query reaches it.  A proof
   merges the node; a model becomes a simulation pattern that splits the
   classes.  Output pairs whose images still differ at the end go to one
   final miter over [f]. *)

type verdict =
  | Equivalent
  | Inequivalent of bool array
  | Undecided

exception Undecided_budget

(* Conflicts one node query may spend.  A node that runs out stays
   unmerged; its output pairs then fall to the final miter, which gets
   whatever the check's budget has left. *)
let node_conflicts = 1_000

(* A satisfying answer assigns every encoded variable, so its cost grows
   with everything encoded so far.  After one, a solver holding more than
   this many variables gives way to an empty one, which encodes only the
   cones later queries reach. *)
let recycle_vars = 4_000

exception Out_of_budget

type t = {
  g : Aig.t;
  ninputs : int;
  pairs : (Aig.lit * Aig.lit) array;  (** output pairs, as [g] literals *)
  words : Bytes.t;  (** each [g] node's latest simulation word *)
  phase : bool array;  (** each [g] node's value on the all-zero input *)
  swept : bool array;  (** in the cone of an output pair left apart *)
  repr : int array;  (** class representative, at most the node itself *)
  f : Aig.t;
  img : Aig.lit array;  (** [g] node -> [f] literal *)
  mutable solver : Solver.t option;
  var : int array;  (** [f] node -> solver variable, or -1 *)
  mutable remaining : int;  (** conflicts the check may still spend *)
  stats : Solver.stats option;
}

(* ---- the combined graph --------------------------------------------- *)

(* Copies [aig] into [g] (whose inputs are [aig]'s) and returns the
   outputs as [g] literals. *)
let copy_into g aig =
  let m = Array.make (Aig.num_nodes aig) Aig.lit_false in
  for i = 0 to Aig.num_inputs aig - 1 do
    m.(i + 1) <- Aig.input_lit g i
  done;
  let tr l =
    let x = m.(Aig.node_of l) in
    if Aig.is_compl l then Aig.lnot x else x
  in
  Aig.iter_ands aig (fun i ->
      m.(i) <- Aig.mk_and g (tr (Aig.fanin0 aig i)) (tr (Aig.fanin1 aig i)));
  Array.map (fun (_, l) -> tr l) (Aig.outputs aig)

(* ---- simulation and classes ----------------------------------------- *)

(* One 64-pattern word per input in, the word of every swept node out
   (the others keep stale words: they are in no class and no open
   pair). *)
let simulate t inputs =
  let w = t.words and g = t.g in
  Array.iteri (fun i x -> Bytes.set_int64_ne w (8 * (i + 1)) x) inputs;
  Aig.iter_ands g (fun n ->
      if t.swept.(n) then begin
        let l0 = Aig.fanin0 g n and l1 = Aig.fanin1 g n in
        let x0 = Bytes.get_int64_ne w (8 * Aig.node_of l0) in
        let x1 = Bytes.get_int64_ne w (8 * Aig.node_of l1) in
        let x0 = if Aig.is_compl l0 then Int64.lognot x0 else x0 in
        let x1 = if Aig.is_compl l1 then Int64.lognot x1 else x1 in
        Bytes.set_int64_ne w (8 * n) (Int64.logand x0 x1)
      end)

let lit_word t l =
  let x = Bytes.get_int64_ne t.words (8 * Aig.node_of l) in
  if Aig.is_compl l then Int64.lognot x else x

(* A node's word with its all-zero-input value normalized to 0, so that
   nodes equal up to complement get equal words. *)
let norm_word t n =
  let x = Bytes.get_int64_ne t.words (8 * n) in
  if t.phase.(n) then Int64.lognot x else x

(* Splits every class by the current words: a member whose normalized
   word differs from its representative's moves to the class of the
   first member (in index order) with the same old representative and
   the same word. *)
let refine t =
  let split = Hashtbl.create 64 in
  for n = 1 to Aig.num_nodes t.g - 1 do
    let r = t.repr.(n) in
    if r <> n then begin
      let x = norm_word t n in
      if not (Int64.equal x (norm_word t r)) then
        match Hashtbl.find_opt split (r, x) with
        | Some r' -> t.repr.(n) <- r'
        | None ->
            Hashtbl.add split (r, x) n;
            t.repr.(n) <- n
    end
  done

(* An input assignment the current words show to tell an output pair
   apart: the lowest differing pattern of the first such pair. *)
let distinguishing t inputs =
  Array.find_map
    (fun (la, lb) ->
      let d = Int64.logxor (lit_word t la) (lit_word t lb) in
      if d = 0L then None
      else
        let rec bitpos k =
          if Int64.(logand (shift_right_logical d k) 1L) <> 0L then k
          else bitpos (k + 1)
        in
        let k = bitpos 0 in
        Some
          (Array.map
             (fun x -> Int64.(logand (shift_right_logical x k) 1L) <> 0L)
             inputs))
    t.pairs

let create ~conflict_budget ~stats a b =
  let ninputs = Aig.num_inputs a in
  let g =
    Aig.create ~size_hint:(Aig.num_nodes a + Aig.num_nodes b) ()
  in
  for _ = 1 to ninputs do
    ignore (Aig.add_input g)
  done;
  let oa = copy_into g a in
  let ob = copy_into g b in
  let size = Aig.num_nodes g in
  (* Only the cones of the output pairs strashing left apart need a
     proof; every other node (dead ones included) stays out of the
     classes. *)
  let swept = Array.make size false in
  Array.iter2
    (fun la lb ->
      if la <> lb then begin
        swept.(Aig.node_of la) <- true;
        swept.(Aig.node_of lb) <- true
      end)
    oa ob;
  for n = size - 1 downto 1 do
    if swept.(n) && Aig.is_and g n then begin
      swept.(Aig.node_of (Aig.fanin0 g n)) <- true;
      swept.(Aig.node_of (Aig.fanin1 g n)) <- true
    end
  done;
  let f = Aig.create ~size_hint:size () in
  let img = Array.make size Aig.lit_false in
  for i = 1 to ninputs do
    img.(i) <- Aig.add_input f
  done;
  let t =
    {
      g;
      ninputs;
      pairs = Array.map2 (fun x y -> (x, y)) oa ob;
      words = Bytes.make (8 * size) '\000';
      phase = Array.make size false;
      swept;
      repr = Array.init size (fun n -> if swept.(n) then 0 else n);
      f;
      img;
      solver = None;
      var = Array.make size (-1);
      remaining = conflict_budget;
      stats;
    }
  in
  (* Every swept node starts in the constant's class: normalized by its
     value on the all-zero input, each one agrees with it there. *)
  simulate t (Array.make ninputs 0L);
  for n = 0 to size - 1 do
    t.phase.(n) <- Bytes.get_int64_ne t.words (8 * n) <> 0L
  done;
  t

(* ---- SAT ------------------------------------------------------------ *)

let flush_stats t =
  match (t.solver, t.stats) with
  | Some s, Some acc -> Solver.stats_accum acc (Solver.stats_of s)
  | _ -> ()

let solver t =
  match t.solver with
  | Some s -> s
  | None ->
      let s = Solver.create () in
      t.solver <- Some s;
      s

let slit t s l = Cnf.encode_lit s t.f t.var l

(* One solve under the check's budget: at most [cap] conflicts, and never
   more than the check has left. *)
let solve t s ~cap assumptions =
  if t.remaining <= 0 then raise Out_of_budget;
  let c0 = Solver.num_conflicts s in
  let r =
    Solver.solve ~assumptions ~conflict_budget:(min cap t.remaining) s
  in
  t.remaining <- t.remaining - (Solver.num_conflicts s - c0);
  if r = Solver.Unknown && t.remaining <= 0 then raise Out_of_budget;
  r

let model_inputs t s =
  Array.init t.ninputs (fun i ->
      let v = t.var.(i + 1) in
      v >= 0 && Solver.model_value s v)

(* Resimulates the model of the last answer, as bit 0 of each input word,
   and splits the classes by it.  The other 63 bits are the all-zero
   input, on which every normalized word is 0, so one pattern per word
   splits the classes exactly as packing 64 would. *)
let learn_pattern t s =
  let inputs = Array.map (fun b -> if b then 1L else 0L) (model_inputs t s) in
  if Solver.num_vars s > recycle_vars then begin
    flush_stats t;
    t.solver <- None;
    Array.fill t.var 0 (Array.length t.var) (-1)
  end;
  simulate t inputs;
  refine t

(* Is the conjunction of the [f] literals [lits] satisfiable?  A model is
   learned as a pattern before [Sat] returns. *)
let query t lits =
  if List.mem Aig.lit_false lits then Solver.Unsat
  else
    let s = solver t in
    let assumptions =
      List.filter_map
        (fun l -> if l = Aig.lit_true then None else Some (slit t s l))
        lits
    in
    let r = solve t s ~cap:node_conflicts assumptions in
    if r = Solver.Sat then learn_pattern t s;
    r

let image t l =
  let x = t.img.(Aig.node_of l) in
  if Aig.is_compl l then Aig.lnot x else x

(* The [f] literal of node [n], rebuilt as [fl]: its representative's
   image once the two are proved equal, else [fl].  A model tells [n]
   from [r], so the refinement it triggers always moves [n] to another
   class: each retry faces a new representative. *)
let rec merge t n fl =
  let r = t.repr.(n) in
  if r = n then fl
  else
    let target =
      if t.phase.(n) <> t.phase.(r) then Aig.lnot t.img.(r) else t.img.(r)
    in
    let retry () =
      assert (t.repr.(n) <> r);
      merge t n fl
    in
    if fl = target then fl
    else
      match query t [ fl; Aig.lnot target ] with
      | Solver.Sat -> retry ()
      | Solver.Unknown -> fl
      | Solver.Unsat -> (
          match query t [ Aig.lnot fl; target ] with
          | Solver.Sat -> retry ()
          | Solver.Unknown -> fl
          | Solver.Unsat -> target)

let sweep t =
  for n = t.ninputs + 1 to Aig.num_nodes t.g - 1 do
    if t.swept.(n) then begin
      let fl =
        Aig.mk_and t.f (image t (Aig.fanin0 t.g n))
          (image t (Aig.fanin1 t.g n))
      in
      t.img.(n) <- merge t n fl
    end
  done

(* The output pairs the sweep left apart, as one miter: some pair
   differs. *)
let final_miter t =
  let open_pairs =
    List.filter
      (fun (x, y) -> x <> y)
      (Array.to_list
         (Array.map (fun (la, lb) -> (image t la, image t lb)) t.pairs))
  in
  if open_pairs = [] then Equivalent
  else begin
    let s = solver t in
    let xors =
      List.map
        (fun (x, y) ->
          let lx = slit t s x and ly = slit t s y in
          let d = Solver.pos (Solver.new_var s) in
          Solver.add_clause s [ Solver.lit_not d; lx; ly ];
          Solver.add_clause s
            [ Solver.lit_not d; Solver.lit_not lx; Solver.lit_not ly ];
          d)
        open_pairs
    in
    Solver.add_clause s xors;
    match solve t s ~cap:max_int [] with
    | Solver.Unsat -> Equivalent
    | Solver.Sat -> Inequivalent (model_inputs t s)
    | Solver.Unknown -> Undecided
  end

let check ?(sim_rounds = 16) ?(conflict_budget = max_int) ?(seed = 42L)
    ?stats a b =
  if Aig.num_inputs a <> Aig.num_inputs b then
    invalid_arg "Cec.check: input counts differ";
  if Aig.num_outputs a <> Aig.num_outputs b then
    invalid_arg "Cec.check: output counts differ";
  let t = create ~conflict_budget ~stats a b in
  let rng = Rand64.create seed in
  let rec rounds k =
    if k = 0 then None
    else begin
      let inputs = Array.init t.ninputs (fun _ -> Rand64.next rng) in
      simulate t inputs;
      match distinguishing t inputs with
      | Some cex -> Some cex
      | None ->
          refine t;
          rounds (k - 1)
    end
  in
  let verdict =
    match rounds sim_rounds with
    | Some cex -> Inequivalent cex
    | None -> (
        try
          sweep t;
          final_miter t
        with Out_of_budget -> Undecided)
  in
  flush_stats t;
  verdict

let equivalent ?conflict_budget a b =
  match check ?conflict_budget a b with
  | Equivalent -> true
  | Inequivalent _ -> false
  | Undecided -> raise Undecided_budget
