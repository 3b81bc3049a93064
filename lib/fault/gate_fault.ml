(* Gate-level stuck-at fault simulation over mapped netlists.

   The classic single-stuck-at model at mapped-netlist granularity: every
   primary input, every instance output and every instance input pin can be
   stuck at 0 or 1.  Detection runs 64 random patterns per word
   (Mapped.simulate_values gives the fault-free baseline once per round; a
   cell evaluates over whole words at once) with fault dropping, one
   resimulation per fanout stem whose fanout-free region still holds a
   live fault, and the survivors go to SAT-based ATPG: one small miter per
   fault, holding a faulty copy of the fault's fanout cone only and the
   part of the good netlist it reads, decided under a per-fault conflict
   budget and degrading to Unknown — reported, never raised — when the
   budget runs out. *)

type site =
  | Pi_sa of int        (* primary input stuck *)
  | Out_sa of int       (* instance output stuck *)
  | Pin_sa of int * int (* instance fanin pin stuck *)

type fault = { site : site; stuck : bool }

type status =
  | Detected_sim
  | Detected_atpg of bool array
  | Redundant
  | Unknown

type result = { fault : fault; status : status }

type summary = {
  g_total : int;
  g_sim : int;
  g_atpg : int;
  g_redundant : int;
  g_unknown : int;
  g_rounds : int;
}

let coverage s =
  if s.g_total = 0 then 1.0
  else float_of_int (s.g_sim + s.g_atpg) /. float_of_int s.g_total

let testable_coverage s =
  let testable = s.g_total - s.g_redundant in
  if testable = 0 then 1.0
  else float_of_int (s.g_sim + s.g_atpg) /. float_of_int testable

let faults_of (m : Mapped.t) =
  let acc = ref [] in
  let push site =
    acc := { site; stuck = true } :: { site; stuck = false } :: !acc
  in
  for i = 0 to m.Mapped.num_inputs - 1 do
    push (Pi_sa i)
  done;
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      Array.iteri (fun p _ -> push (Pin_sa (j, p))) inst.Mapped.fanins;
      push (Out_sa j))
    m.Mapped.instances;
  Array.of_list (List.rev !acc)

let describe (m : Mapped.t) f =
  let sa = if f.stuck then "sa1" else "sa0" in
  match f.site with
  | Pi_sa i -> Printf.sprintf "pi:%s %s" m.Mapped.input_names.(i) sa
  | Out_sa j ->
      Printf.sprintf "inst%d:%s out %s" j
        m.Mapped.instances.(j).Mapped.cell_name sa
  | Pin_sa (j, p) ->
      Printf.sprintf "inst%d:%s pin%d %s" j
        m.Mapped.instances.(j).Mapped.cell_name p sa

let const_word b = if b then -1L else 0L

(* Structural injection: a copy of the netlist computing the faulty
   function.  The reference the packed simulator and the ATPG verdicts
   are tested against. *)
let inject (m : Mapped.t) f =
  let instances = Array.copy m.Mapped.instances in
  let outputs = ref m.Mapped.outputs in
  (match f.site with
  | Out_sa j ->
      instances.(j) <-
        { instances.(j) with Mapped.tt = const_word f.stuck }
  | Pin_sa (j, p) ->
      instances.(j) <-
        { instances.(j) with
          Mapped.tt = Npn.cofactor instances.(j).Mapped.tt p f.stuck }
  | Pi_sa i ->
      Array.iteri
        (fun j (inst : Mapped.instance) ->
          let tt = ref inst.Mapped.tt in
          Array.iteri
            (fun p (net : Mapped.net) ->
              match net.Mapped.driver with
              | Mapped.Pi k when k = i ->
                  tt := Npn.cofactor !tt p (f.stuck <> net.Mapped.negated)
              | _ -> ())
            inst.Mapped.fanins;
          if !tt <> inst.Mapped.tt then
            instances.(j) <- { inst with Mapped.tt = !tt })
        instances;
      outputs :=
        Array.map
          (fun (name, (net : Mapped.net)) ->
            match net.Mapped.driver with
            | Mapped.Pi k when k = i ->
                (name, { net with Mapped.driver = Mapped.Const f.stuck })
            | _ -> (name, net))
          m.Mapped.outputs);
  { m with Mapped.instances; Mapped.outputs = !outputs }

(* ---------------- the line graph ---------------- *)

(* A line is a value a fault can sit on: line [j] is instance [j]'s
   output, line [n + i] primary input [i].  A root is a line read by an
   output net, or by no cell or by two or more (a stem); every other line
   is read by exactly one cell, [succ], on one pin or several, so its
   value reaches the outputs only through that cell. *)
type graph = {
  n : int;                 (* instances *)
  fanout : int list array; (* line -> consuming instances, each once *)
  observed : bool array;   (* line -> read by some output net *)
  succ : int array;        (* non-root line -> its one consumer; root -> -1 *)
  visited : int array;     (* epoch stamps for [cone_of] *)
  mutable epoch : int;
}

let build_graph (m : Mapped.t) =
  let n = Array.length m.Mapped.instances in
  let lines = n + m.Mapped.num_inputs in
  let line_of (net : Mapped.net) =
    match net.Mapped.driver with
    | Mapped.Inst k -> k
    | Mapped.Pi i -> n + i
    | Mapped.Const _ -> -1
  in
  let fanout = Array.make lines [] in
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      Array.iter
        (fun net ->
          let l = line_of net in
          (* consumers arrive in increasing index order, so a cell
             reading [l] on two pins is already at the head *)
          if l >= 0 then
            match fanout.(l) with
            | k :: _ when k = j -> ()
            | ks -> fanout.(l) <- j :: ks)
        inst.Mapped.fanins)
    m.Mapped.instances;
  let observed = Array.make lines false in
  Array.iter
    (fun (_, net) ->
      let l = line_of net in
      if l >= 0 then observed.(l) <- true)
    m.Mapped.outputs;
  let succ =
    Array.init lines (fun l ->
        match fanout.(l) with [ j ] when not observed.(l) -> j | _ -> -1)
  in
  { n; fanout; observed; succ; visited = Array.make (max n 1) 0; epoch = 0 }

(* topologically sorted transitive fanout closure of the seed instances
   (instances are emitted in topological index order) *)
let cone_of g seeds =
  g.epoch <- g.epoch + 1;
  let e = g.epoch in
  let acc = ref [] in
  let rec go j =
    if g.visited.(j) <> e then begin
      g.visited.(j) <- e;
      acc := j :: !acc;
      List.iter go g.fanout.(j)
    end
  in
  List.iter go seeds;
  List.sort compare !acc

(* The line a fault's difference starts from: a stuck pin changes only
   its cell's output. *)
let line_of_fault g f =
  match f.site with
  | Pi_sa i -> g.n + i
  | Out_sa j | Pin_sa (j, _) -> j

(* The lines whose path through single consumers ends at root [r] form
   [r]'s fanout-free region; [root.(l)] names it. *)
let roots g =
  let lines = Array.length g.succ in
  let root = Array.init lines Fun.id in
  let settle l = if g.succ.(l) >= 0 then root.(l) <- root.(g.succ.(l)) in
  (* a line's consumer has a larger instance index than any line it reads *)
  for l = g.n - 1 downto 0 do settle l done;
  for l = g.n to lines - 1 do settle l done;
  root

(* ---------------- stem-region simulation ---------------- *)

(* One round's detection, region by region.  A difference word [d] at
   line [l] of [r]'s region changes an output exactly on the bits of
   [d & reach(l) & obs(r)]: [reach(l)] is the product of the Boolean
   differences along [l]'s path to [r] (at each step, the change of the
   consuming cell's output when the line it reads flips, on every pin
   that reads it), and [obs(r)] is the output change when [r] itself
   flips, which one event-driven resimulation of [r]'s fanout gives:
   only cells whose inputs changed are evaluated.  An output net reading
   [r] makes [obs(r)] all ones.  Every step is exact per pattern bit, so
   this detects what resimulating each fault's whole cone did.  A stuck
   pin's difference starts at its cell's output, as the cell with that
   pin cofactored computes it.

   [simulator m g faults ~detected] holds the per-analysis tables;
   applied to a round's [words] and fault-free [vals], it gives a
   function that takes a root and the live faults of its region (indices
   into [faults]), calls [detected] on each this round detects and
   returns the others. *)
module Iset = Set.Make (Int)

let simulator (m : Mapped.t) g faults ~detected =
  let insts = m.Mapped.instances in
  let n = g.n in
  (* [stuck.(j).(2p + v)]: instance [j] with pin [p] stuck at [v] *)
  let stuck =
    Array.map
      (fun (inst : Mapped.instance) ->
        Array.init
          (2 * Array.length inst.Mapped.fanins)
          (fun c ->
            let tt = Npn.cofactor inst.Mapped.tt (c / 2) (c land 1 = 1) in
            { inst with Mapped.tt = tt }))
      insts
  in
  let reach = Array.make (Array.length g.succ) 0L in
  let reach_at = Array.make (Array.length g.succ) 0 in
  let round = ref 0 in
  fun ~words ~vals ->
    incr round;
    let q = !round in
    (* equal to [words]/[vals] between the flips below *)
    let cur_words = Array.copy words and cur = Array.copy vals in
    let value l = if l < n then vals.(l) else words.(l - n) in
    let set l v = if l < n then cur.(l) <- v else cur_words.(l - n) <- v in
    let rec reach_of l =
      let j = g.succ.(l) in
      if j < 0 then -1L
      else if reach_at.(l) = q then reach.(l)
      else begin
        let r = reach_of j in
        let r =
          if Int64.equal r 0L then 0L
          else begin
            set l (Int64.lognot (value l));
            let v = Mapped.eval_instance cur_words cur insts.(j) in
            set l (value l);
            Int64.logand r (Int64.logxor v vals.(j))
          end
        in
        reach_at.(l) <- q;
        reach.(l) <- r;
        r
      end
    in
    let diff f =
      match f.site with
      | Pi_sa i -> Int64.logxor words.(i) (const_word f.stuck)
      | Out_sa j -> Int64.logxor vals.(j) (const_word f.stuck)
      | Pin_sa (j, p) ->
          let c = (2 * p) + if f.stuck then 1 else 0 in
          Int64.logxor vals.(j)
            (Mapped.eval_instance words vals stuck.(j).(c))
    in
    (* the output change when root [r] flips on the bits of [mask] *)
    let observe r mask =
      if g.observed.(r) then mask
      else begin
        (* the cells whose inputs changed, taken in index (topological)
           order, each once *)
        let add pending j = Iset.add j pending in
        let pending = ref (List.fold_left add Iset.empty g.fanout.(r)) in
        set r (Int64.logxor (value r) mask);
        let obs = ref 0L and changed = ref [] in
        (* differences only arise on [mask]: once it is all observed,
           nothing further can add to it *)
        while
          (not (Iset.is_empty !pending)) && not (Int64.equal !obs mask)
        do
          let j = Iset.min_elt !pending in
          pending := Iset.remove j !pending;
          let v = Mapped.eval_instance cur_words cur insts.(j) in
          let d = Int64.logxor v vals.(j) in
          if not (Int64.equal d 0L) then begin
            cur.(j) <- v;
            changed := j :: !changed;
            if g.observed.(j) then obs := Int64.logor !obs d;
            pending := List.fold_left add !pending g.fanout.(j)
          end
        done;
        set r (value r);
        List.iter (fun j -> cur.(j) <- vals.(j)) !changed;
        !obs
      end
    in
    fun r live ->
      let masked =
        List.map
          (fun i ->
            let f = faults.(i) in
            let reach = reach_of (line_of_fault g f) in
            if Int64.equal reach 0L then (i, 0L)
            else (i, Int64.logand reach (diff f)))
          live
      in
      let mask = List.fold_left (fun a (_, e) -> Int64.logor a e) 0L masked in
      if Int64.equal mask 0L then live
      else
        let obs = observe r mask in
        List.filter_map
          (fun (i, e) ->
            if Int64.equal (Int64.logand e obs) 0L then Some i
            else begin
              detected i;
              None
            end)
          masked

(* ---------------- cone-local ATPG ---------------- *)

(* The on-set and off-set ISOP covers of an [arity]-input table, as
   clause templates: code [2i] stands for fanin literal [i], [2i + 1] for
   its negation.  [covers] memoises them per arity and table. *)
let covers_of covers arity tt =
  let t = Tt.of_bits arity tt in
  let key = (Tt.words t).(0) in
  match Word_tbl.find_opt covers.(arity) key with
  | Some c -> c
  | None ->
      let template c =
        let codes = ref [] in
        for i = arity - 1 downto 0 do
          if Cube.has_pos c i then codes := ((2 * i) + 1) :: !codes
          else if Cube.has_neg c i then codes := (2 * i) :: !codes
        done;
        Array.of_list !codes
      in
      let cover f = List.map template (Sop.isop f).Sop.cubes in
      let c = (cover t, cover (Tt.bnot t)) in
      Word_tbl.add covers.(arity) key c;
      c

(* y <-> tt(lits): an on-set cube c gives the clause (y \/ ~c), an
   off-set cube d gives (~y \/ ~d). *)
let encode_tt covers s lits tt y =
  let on, off = covers_of covers (Array.length lits) tt in
  let clause base codes =
    Solver.add_clause s
      (base
      :: Array.fold_left
           (fun acc c ->
             let l = lits.(c lsr 1) in
             (if c land 1 = 1 then Solver.lit_not l else l) :: acc)
           [] codes)
  in
  List.iter (clause y) on;
  List.iter (clause (Solver.lit_not y)) off

(* The decision procedure for the faults of [m]: each call decides one
   fault with its own small miter, in the SAT-ATPG formulation of
   Larrabee (IEEE TCAD 1992), on a solver [Solver.reset] for it, which
   searches as a fresh one would.  Only the fault's fanout cone gets a
   faulty copy, and every fanin outside it reads the good copy.  The good
   copy is encoded on demand, only where the faulty cone, the fault site
   or a compared output reads it, and the XOR covers only the outputs the
   cone reaches — a fault that reaches none is redundant without a solve.
   A unit clause asks for activation: the good value at the site differs
   from the stuck value.  Each solve runs under [conflict_budget] and
   adds its effort to [stats].

   Injection matches [inject]: an output stuck forces the instance
   output, a pin stuck forces the post-negation pin value feeding the
   truth table (the cofactored table), and a PI stuck forces the
   pre-negation input value, which output nets reading the PI directly
   see too. *)
let atpg (m : Mapped.t) g ~conflict_budget ?stats () =
  let n = max (Array.length m.Mapped.instances) 1 in
  let ni = max m.Mapped.num_inputs 1 in
  let covers = Array.init 7 (fun _ -> Word_tbl.create 64) in
  (* solver literals of the good PIs, good instances and faulty-cone
     instances, valid where the matching stamp equals the query's *)
  let pi_lit = Array.make ni 0 and pi_at = Array.make ni 0 in
  let good_lit = Array.make n 0 and good_at = Array.make n 0 in
  let bad_lit = Array.make n 0 and bad_at = Array.make n 0 in
  (* one solver for all queries, reset for each: its per-variable
     storage and clause arena grow to the largest miter once *)
  let s = Solver.create () in
  let query = ref 0 in
  fun f ->
    incr query;
    let q = !query in
    (* the instances whose faulty value may differ, in topological order,
       and the faulty PI *)
    let cone, bad_pi =
      match f.site with
      | Pi_sa i -> (cone_of g g.fanout.(g.n + i), i)
      | Out_sa j | Pin_sa (j, _) -> (j :: cone_of g g.fanout.(j), -1)
    in
    List.iter (fun k -> bad_at.(k) <- q) cone;
    let reached =
      List.filter
        (fun (net : Mapped.net) ->
          match net.Mapped.driver with
          | Mapped.Pi i -> i = bad_pi
          | Mapped.Inst k -> bad_at.(k) = q
          | Mapped.Const _ -> false)
        (List.map snd (Array.to_list m.Mapped.outputs))
    in
    if reached = [] then Redundant
    else begin
      Solver.reset s;
      let fresh () = Solver.pos (Solver.new_var s) in
      let cfalse = fresh () in
      Solver.add_clause s [ Solver.lit_not cfalse ];
      let const_lit b = if b then Solver.lit_not cfalse else cfalse in
      let polarity (net : Mapped.net) l =
        if net.Mapped.negated then Solver.lit_not l else l
      in
      let pi_good i =
        if pi_at.(i) <> q then begin
          pi_at.(i) <- q;
          pi_lit.(i) <- fresh ()
        end;
        pi_lit.(i)
      in
      let rec good_inst j =
        if good_at.(j) <> q then begin
          let inst = m.Mapped.instances.(j) in
          let lits = Array.map good_net inst.Mapped.fanins in
          let y = fresh () in
          encode_tt covers s lits inst.Mapped.tt y;
          good_at.(j) <- q;
          good_lit.(j) <- y
        end;
        good_lit.(j)
      and good_net (net : Mapped.net) =
        polarity net
          (match net.Mapped.driver with
          | Mapped.Pi i -> pi_good i
          | Mapped.Inst j -> good_inst j
          | Mapped.Const b -> const_lit b)
      in
      let bad_net (net : Mapped.net) =
        match net.Mapped.driver with
        | Mapped.Pi i when i = bad_pi -> polarity net (const_lit f.stuck)
        | Mapped.Inst k when bad_at.(k) = q -> polarity net bad_lit.(k)
        | _ -> good_net net
      in
      (* the faulty copy: the site takes the stuck value, and the rest of
         the cone reads it *)
      List.iter
        (fun k ->
          let inst = m.Mapped.instances.(k) in
          let encode fanin_lit tt =
            let y = fresh () in
            encode_tt covers s (Array.map fanin_lit inst.Mapped.fanins) tt y;
            y
          in
          bad_lit.(k) <-
            (match f.site with
            | Out_sa j when j = k -> const_lit f.stuck
            | Pin_sa (j, p) when j = k ->
                encode good_net (Npn.cofactor inst.Mapped.tt p f.stuck)
            | _ -> encode bad_net inst.Mapped.tt))
        cone;
      (* activation: the good value at the site is not the stuck value *)
      let site =
        match f.site with
        | Pi_sa i -> pi_good i
        | Out_sa j -> good_inst j
        | Pin_sa (j, p) -> good_net m.Mapped.instances.(j).Mapped.fanins.(p)
      in
      Solver.add_clause s [ (if f.stuck then Solver.lit_not site else site) ];
      (* some reached output differs *)
      Solver.add_clause s
        (List.map
           (fun net ->
             let g = good_net net and b = bad_net net in
             let x = fresh () in
             Solver.add_clause s [ Solver.lit_not x; g; b ];
             Solver.add_clause s
               [ Solver.lit_not x; Solver.lit_not g; Solver.lit_not b ];
             x)
           reached);
      let status =
        match Solver.solve ~conflict_budget s with
        | Solver.Unsat -> Redundant
        | Solver.Unknown -> Unknown
        | Solver.Sat ->
            (* an input outside the encoded support reaches no compared
               output; any value detects *)
            Detected_atpg
              (Array.init m.Mapped.num_inputs (fun i ->
                   pi_at.(i) = q
                   && Solver.model_value s (Solver.lit_var pi_lit.(i))))
      in
      Option.iter (fun acc -> Solver.stats_accum acc (Solver.stats_of s)) stats;
      status
    end

(* ---------------- the analysis driver ---------------- *)

let analyze ?(rounds = 32) ?(seed = 2026L) ?(conflict_budget = 100_000)
    ?stats (m : Mapped.t) =
  let faults = faults_of m in
  let n = Array.length faults in
  let status = Array.make n None in
  let g = build_graph m in
  (* the live faults of each region whose root some output can see;
     a fault elsewhere is never detected by simulation *)
  let root = roots g in
  let live_in = Array.make (Array.length root) [] in
  for i = n - 1 downto 0 do
    let r = root.(line_of_fault g faults.(i)) in
    live_in.(r) <- i :: live_in.(r)
  done;
  let regions =
    List.filter
      (fun r -> live_in.(r) <> [] && (g.observed.(r) || g.fanout.(r) <> []))
      (List.init (Array.length root) Fun.id)
  in
  let live = ref n in
  let sim =
    simulator m g faults ~detected:(fun i ->
        status.(i) <- Some Detected_sim;
        decr live)
  in
  let rng = Rand64.create seed in
  let round = ref 0 in
  while !round < rounds && !live > 0 do
    incr round;
    let words =
      Array.init m.Mapped.num_inputs (fun _ -> Rand64.next rng)
    in
    let survivors = sim ~words ~vals:(Mapped.simulate_values m words) in
    List.iter
      (fun r ->
        if live_in.(r) <> [] then live_in.(r) <- survivors r live_in.(r))
      regions
  done;
  (* ATPG over the survivors, one cone-local miter each *)
  (if !live > 0 then
     let decide = atpg m g ~conflict_budget ?stats () in
     Array.iteri
       (fun i f -> if status.(i) = None then status.(i) <- Some (decide f))
       faults);
  let results =
    Array.mapi
      (fun i f ->
        { fault = f; status = Option.value ~default:Unknown status.(i) })
      faults
  in
  let count p = Array.fold_left (fun a r -> if p r.status then a + 1 else a)
      0 results in
  let summary =
    {
      g_total = n;
      g_sim = count (fun s -> s = Detected_sim);
      g_atpg = count (function Detected_atpg _ -> true | _ -> false);
      g_redundant = count (fun s -> s = Redundant);
      g_unknown = count (fun s -> s = Unknown);
      g_rounds = !round;
    }
  in
  (results, summary)

(* ---------------- rendering ---------------- *)

let summary_line s =
  Printf.sprintf
    "faults=%d detected=%d (sim %d + atpg %d) redundant=%d unknown=%d \
     coverage=%.1f%%"
    s.g_total (s.g_sim + s.g_atpg) s.g_sim s.g_atpg s.g_redundant s.g_unknown
    (100.0 *. coverage s)

let status_name = function
  | Detected_sim -> "detected-sim"
  | Detected_atpg _ -> "detected-atpg"
  | Redundant -> "redundant"
  | Unknown -> "unknown"

let tsv_header = String.concat "\t" [ "fault"; "status" ]

let results_tsv (m : Mapped.t) results =
  tsv_header
  :: (Array.to_list results
     |> List.map (fun r ->
            Printf.sprintf "%s\t%s" (describe m r.fault)
              (status_name r.status)))
  |> String.concat "\n"
