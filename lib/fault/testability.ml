(* Static testability analysis over mapped netlists.

   Everything here is computed from structure and truth tables alone —
   no simulation, no SAT.  The netlist is viewed as a set of *lines*
   (primary inputs, then instance outputs); cells are only known by their
   truth tables, so the per-cell testability models (SCOAP combination
   rules, local fault error sets, implication tables) are derived by
   exhaustive enumeration of the at most 2^6 pin assignments.

   Soundness matters more than strength: every redundancy claim made here
   is cross-checked against Gate_fault's SAT ATPG by test_fault.ml, so the
   rules below only fire when the proof argument is airtight:

   - Vacuous: the faulty truth table equals the good one, so the injected
     netlist *is* the good netlist.
   - Dead: the fault site has no path to any primary output; injection
     changes only logic outside every output cone.
   - Const_line: the implication engine proved the line constant v in the
     good circuit (assuming the opposite value propagates to a
     contradiction, which is sound because implications only follow
     necessary consequences).  Sticking the line at v then changes no
     value anywhere, for any input.
   - Blocked: every consumer of the faulty line is provably insensitive to
     it once its other pins are cofactored by proven constants whose
     driving cones are disjoint from the fault's fanout cone (disjointness
     makes the constants valid in the faulty circuit too). *)

(* ---------------- lines and netlist indexing ---------------- *)

(* readers.(l): consumer (instance, pin) pairs of line l;
   po_reads.(l): number of primary outputs reading line l directly *)
type wiring = {
  ni : int;
  nlines : int;
  readers : (int * int) list array;
  po_reads : int array;
}

let line_of_driver ni = function
  | Mapped.Pi i -> Some i
  | Mapped.Inst j -> Some (ni + j)
  | Mapped.Const _ -> None

let wiring_of (m : Mapped.t) =
  let ni = m.Mapped.num_inputs in
  let n = Array.length m.Mapped.instances in
  let nlines = ni + n in
  let readers = Array.make nlines [] in
  let po_reads = Array.make nlines 0 in
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      Array.iteri
        (fun p (net : Mapped.net) ->
          match line_of_driver ni net.Mapped.driver with
          | Some l -> readers.(l) <- (j, p) :: readers.(l)
          | None -> ())
        inst.Mapped.fanins)
    m.Mapped.instances;
  Array.iter
    (fun (_, (net : Mapped.net)) ->
      match line_of_driver ni net.Mapped.driver with
      | Some l -> po_reads.(l) <- po_reads.(l) + 1
      | None -> ())
    m.Mapped.outputs;
  (* reader lists in deterministic ascending order *)
  Array.iteri (fun l rs -> readers.(l) <- List.rev rs) readers;
  { ni; nlines; readers; po_reads }

let tt_bit tt a = Int64.to_int (Int64.logand (Int64.shift_right_logical tt a) 1L)

(* ---------------- SCOAP ---------------- *)

type scoap = {
  cc0 : float array;
  cc1 : float array;
  co : float array;
  pin_co : float array array;
}

let inf = infinity

(* controllability of the value *seen* at a pin, through the net polarity *)
let pin_cc (m : Mapped.t) cc0 cc1 (net : Mapped.net) want =
  let want_line = want <> net.Mapped.negated in
  match net.Mapped.driver with
  | Mapped.Const b -> if b = want_line then 0.0 else inf
  | Mapped.Pi i -> if want_line then cc1.(i) else cc0.(i)
  | Mapped.Inst j ->
      let l = m.Mapped.num_inputs + j in
      if want_line then cc1.(l) else cc0.(l)

let scoap_of (m : Mapped.t) =
  let ni = m.Mapped.num_inputs in
  let n = Array.length m.Mapped.instances in
  let nlines = ni + n in
  let cc0 = Array.make nlines inf and cc1 = Array.make nlines inf in
  for i = 0 to ni - 1 do
    cc0.(i) <- 1.0;
    cc1.(i) <- 1.0
  done;
  (* forward: per instance, minimize the summed pin cost over the
     assignments producing each output value *)
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      let k = Array.length inst.Mapped.fanins in
      let p0 = Array.make k inf and p1 = Array.make k inf in
      for p = 0 to k - 1 do
        p0.(p) <- pin_cc m cc0 cc1 inst.Mapped.fanins.(p) false;
        p1.(p) <- pin_cc m cc0 cc1 inst.Mapped.fanins.(p) true
      done;
      let best = [| inf; inf |] in
      for a = 0 to (1 lsl k) - 1 do
        let b = tt_bit inst.Mapped.tt a in
        let cost = ref 1.0 in
        for p = 0 to k - 1 do
          cost :=
            !cost +. (if (a lsr p) land 1 = 1 then p1.(p) else p0.(p))
        done;
        if !cost < best.(b) then best.(b) <- !cost
      done;
      cc0.(ni + j) <- best.(0);
      cc1.(ni + j) <- best.(1))
    m.Mapped.instances;
  (* backward: observability, primary outputs first, then instances in
     reverse topological order (consumers always have larger indices) *)
  let co = Array.make nlines inf in
  Array.iter
    (fun (_, (net : Mapped.net)) ->
      match line_of_driver ni net.Mapped.driver with
      | Some l -> co.(l) <- 0.0
      | None -> ())
    m.Mapped.outputs;
  let pin_co =
    Array.map
      (fun (inst : Mapped.instance) ->
        Array.make (Array.length inst.Mapped.fanins) inf)
      m.Mapped.instances
  in
  for j = n - 1 downto 0 do
    let inst = m.Mapped.instances.(j) in
    let k = Array.length inst.Mapped.fanins in
    let p0 = Array.make k inf and p1 = Array.make k inf in
    for p = 0 to k - 1 do
      p0.(p) <- pin_cc m cc0 cc1 inst.Mapped.fanins.(p) false;
      p1.(p) <- pin_cc m cc0 cc1 inst.Mapped.fanins.(p) true
    done;
    let col = co.(ni + j) in
    for p = 0 to k - 1 do
      (* cheapest side-pin assignment sensitizing the output to pin p *)
      let best = ref inf in
      for a = 0 to (1 lsl k) - 1 do
        if (a lsr p) land 1 = 0 then begin
          let a1 = a lor (1 lsl p) in
          if tt_bit inst.Mapped.tt a <> tt_bit inst.Mapped.tt a1 then begin
            let cost = ref 1.0 in
            for q = 0 to k - 1 do
              if q <> p then
                cost :=
                  !cost +. (if (a lsr q) land 1 = 1 then p1.(q) else p0.(q))
            done;
            if !cost < !best then best := !cost
          end
        end
      done;
      pin_co.(j).(p) <- col +. !best;
      match line_of_driver ni inst.Mapped.fanins.(p).Mapped.driver with
      | Some l -> if pin_co.(j).(p) < co.(l) then co.(l) <- pin_co.(j).(p)
      | None -> ()
    done
  done;
  { cc0; cc1; co; pin_co }

(* ---------------- COP-style detection probabilities ----------------

   The additive SCOAP estimates above measure deterministic justification
   effort; on tree-like netlists cc grows toward the POs exactly as co
   shrinks, so their sum is nearly constant and ranks nothing.  Random-
   pattern detection *hardness* is multiplicative instead — probability of
   exciting the site times probability of propagating the error — so the
   per-fault score is computed from a signal-probability pass (COP):
   forward, each line's probability of carrying 1 under independent
   uniform inputs (exact per cell by weighted truth-table enumeration);
   backward, each pin's probability of being sensitized to an observing
   output (side pins at their signal probabilities, readers combined by
   best case).  Independence is an approximation; the ranking is what the
   property test in test_fault.ml holds to account. *)

let cop_of (m : Mapped.t) =
  let ni = m.Mapped.num_inputs in
  let n = Array.length m.Mapped.instances in
  let nlines = ni + n in
  let p1 = Array.make nlines 0.5 in
  let pin_p (net : Mapped.net) =
    let pl =
      match net.Mapped.driver with
      | Mapped.Const b -> if b then 1.0 else 0.0
      | Mapped.Pi i -> p1.(i)
      | Mapped.Inst j -> p1.(ni + j)
    in
    if net.Mapped.negated then 1.0 -. pl else pl
  in
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      let k = Array.length inst.Mapped.fanins in
      let pp = Array.map pin_p inst.Mapped.fanins in
      let t = ref 0.0 in
      for a = 0 to (1 lsl k) - 1 do
        if tt_bit inst.Mapped.tt a = 1 then begin
          let w = ref 1.0 in
          for p = 0 to k - 1 do
            w := !w *. (if (a lsr p) land 1 = 1 then pp.(p) else 1.0 -. pp.(p))
          done;
          t := !t +. !w
        end
      done;
      p1.(ni + j) <- !t)
    m.Mapped.instances;
  let obs = Array.make nlines 0.0 in
  Array.iter
    (fun (_, (net : Mapped.net)) ->
      match line_of_driver ni net.Mapped.driver with
      | Some l -> obs.(l) <- 1.0
      | None -> ())
    m.Mapped.outputs;
  let pin_obs =
    Array.map
      (fun (inst : Mapped.instance) ->
        Array.make (Array.length inst.Mapped.fanins) 0.0)
      m.Mapped.instances
  in
  for j = n - 1 downto 0 do
    let inst = m.Mapped.instances.(j) in
    let k = Array.length inst.Mapped.fanins in
    let pp = Array.map pin_p inst.Mapped.fanins in
    let oj = obs.(ni + j) in
    for p = 0 to k - 1 do
      (* probability a random side assignment sensitizes the output to p *)
      let s = ref 0.0 in
      for a = 0 to (1 lsl k) - 1 do
        if (a lsr p) land 1 = 0 then
          if tt_bit inst.Mapped.tt a <> tt_bit inst.Mapped.tt (a lor (1 lsl p))
          then begin
            let w = ref 1.0 in
            for q = 0 to k - 1 do
              if q <> p then
                w :=
                  !w *. (if (a lsr q) land 1 = 1 then pp.(q) else 1.0 -. pp.(q))
            done;
            s := !s +. !w
          end
      done;
      pin_obs.(j).(p) <- oj *. !s;
      match line_of_driver ni inst.Mapped.fanins.(p).Mapped.driver with
      | Some l -> if pin_obs.(j).(p) > obs.(l) then obs.(l) <- pin_obs.(j).(p)
      | None -> ()
    done
  done;
  (p1, obs, pin_obs)

(* detection-hardness score: -log2(excitation x propagation probability),
   [inf] when the estimate is zero (nothing random can do) *)
let cop_score (m : Mapped.t) (p1, obs, pin_obs) (f : Gate_fault.fault) =
  let ni = m.Mapped.num_inputs in
  let est =
    match f.Gate_fault.site with
    | Gate_fault.Pi_sa i ->
        (if f.Gate_fault.stuck then 1.0 -. p1.(i) else p1.(i)) *. obs.(i)
    | Gate_fault.Out_sa j ->
        let l = ni + j in
        (if f.Gate_fault.stuck then 1.0 -. p1.(l) else p1.(l)) *. obs.(l)
    | Gate_fault.Pin_sa (j, p) ->
        let net = m.Mapped.instances.(j).Mapped.fanins.(p) in
        let pl =
          match net.Mapped.driver with
          | Mapped.Const b -> if b then 1.0 else 0.0
          | Mapped.Pi i -> p1.(i)
          | Mapped.Inst jj -> p1.(ni + jj)
        in
        let seen1 = if net.Mapped.negated then 1.0 -. pl else pl in
        (if f.Gate_fault.stuck then 1.0 -. seen1 else seen1)
        *. pin_obs.(j).(p)
  in
  if est > 0.0 then -.(Float.log est /. Float.log 2.0) else inf

(* ---------------- fault universe indexing ---------------- *)

(* Mirrors Gate_fault.faults_of order: PI faults, then per instance its
   pin faults and output faults, sa0 before sa1.  analyze asserts the
   layout against the real array so the two can never drift apart. *)
type layout = { inst_off : int array; nf : int }

let layout_of (m : Mapped.t) =
  let n = Array.length m.Mapped.instances in
  let inst_off = Array.make n 0 in
  let off = ref (2 * m.Mapped.num_inputs) in
  for j = 0 to n - 1 do
    inst_off.(j) <- !off;
    off :=
      !off + (2 * (Array.length m.Mapped.instances.(j).Mapped.fanins + 1))
  done;
  { inst_off; nf = !off }

let pi_idx i stuck = (2 * i) + Bool.to_int stuck

let pin_idx lay j p stuck = lay.inst_off.(j) + (2 * p) + Bool.to_int stuck

let out_idx (m : Mapped.t) lay j stuck =
  lay.inst_off.(j)
  + (2 * Array.length m.Mapped.instances.(j).Mapped.fanins)
  + Bool.to_int stuck

let check_layout (m : Mapped.t) lay (faults : Gate_fault.fault array) =
  assert (Array.length faults = lay.nf);
  Array.iteri
    (fun fi (f : Gate_fault.fault) ->
      let fi' =
        match f.Gate_fault.site with
        | Gate_fault.Pi_sa i -> pi_idx i f.Gate_fault.stuck
        | Gate_fault.Pin_sa (j, p) -> pin_idx lay j p f.Gate_fault.stuck
        | Gate_fault.Out_sa j -> out_idx m lay j f.Gate_fault.stuck
      in
      assert (fi = fi'))
    faults

(* ---------------- 3-valued implication engine ---------------- *)

exception Contradiction

(* vals.(l): -1 unknown, 0, 1.  Setting a line enqueues its consumer
   instances (forward) and, for instance outputs, the driving instance
   (backward justification). *)
let set_line w vals (queue : int Queue.t) l v =
  if vals.(l) = v then ()
  else if vals.(l) >= 0 then raise Contradiction
  else begin
    vals.(l) <- v;
    List.iter (fun (j, _) -> Queue.add j queue) w.readers.(l);
    if l >= w.ni then Queue.add (l - w.ni) queue
  end

(* Re-derive everything one instance implies from its currently-known pin
   and output values, by enumerating the consistent assignments of its
   truth table. *)
let exam (m : Mapped.t) w vals queue j =
  let inst = m.Mapped.instances.(j) in
  let k = Array.length inst.Mapped.fanins in
  let pv = Array.make k (-1) in
  for p = 0 to k - 1 do
    let net = inst.Mapped.fanins.(p) in
    let lv =
      match net.Mapped.driver with
      | Mapped.Const b -> Bool.to_int b
      | Mapped.Pi i -> vals.(i)
      | Mapped.Inst d -> vals.(w.ni + d)
    in
    pv.(p) <- (if lv < 0 then -1 else if net.Mapped.negated then 1 - lv else lv)
  done;
  let ol = w.ni + j in
  let o = vals.(ol) in
  let seen0 = ref false and seen1 = ref false in
  let can = Array.make (2 * k) false in
  for a = 0 to (1 lsl k) - 1 do
    let ok = ref true in
    for p = 0 to k - 1 do
      if pv.(p) >= 0 && (a lsr p) land 1 <> pv.(p) then ok := false
    done;
    if !ok then begin
      let b = tt_bit inst.Mapped.tt a in
      if o < 0 || b = o then begin
        if b = 0 then seen0 := true else seen1 := true;
        for p = 0 to k - 1 do
          if pv.(p) < 0 then can.((2 * p) + ((a lsr p) land 1)) <- true
        done
      end
    end
  done;
  if (not !seen0) && not !seen1 then raise Contradiction;
  if o < 0 && !seen0 <> !seen1 then
    set_line w vals queue ol (if !seen1 then 1 else 0);
  for p = 0 to k - 1 do
    if pv.(p) < 0 && can.(2 * p) <> can.((2 * p) + 1) then begin
      let forced = if can.(2 * p) then 0 else 1 in
      let net = inst.Mapped.fanins.(p) in
      let lv = if net.Mapped.negated then 1 - forced else forced in
      match net.Mapped.driver with
      | Mapped.Const b -> if Bool.to_int b <> lv then raise Contradiction
      | Mapped.Pi i -> set_line w vals queue i lv
      | Mapped.Inst d -> set_line w vals queue (w.ni + d) lv
    end
  done

let drain m w vals queue =
  while not (Queue.is_empty queue) do
    exam m w vals queue (Queue.pop queue)
  done

(* constant lines of the good circuit: forward propagation from explicit
   constants, then (learn) assume-and-propagate static learning — a line
   whose assumed value implies a contradiction is constant at the other *)
let learn_constants ?(learn = true) (m : Mapped.t) w =
  let n = Array.length m.Mapped.instances in
  let base = Array.make w.nlines (-1) in
  let queue = Queue.create () in
  for j = 0 to n - 1 do
    Queue.add j queue
  done;
  (* the unconstrained circuit is always consistent *)
  (try drain m w base queue with Contradiction -> assert false);
  let probe l v =
    let vals = Array.copy base in
    let q = Queue.create () in
    match
      set_line w vals q l v;
      drain m w vals q
    with
    | () -> true
    | exception Contradiction -> false
  in
  let fix l v =
    let q = Queue.create () in
    try
      set_line w base q l v;
      drain m w base q
    with Contradiction -> assert false
  in
  if learn then begin
    let changed = ref true and sweeps = ref 0 in
    while !changed && !sweeps < 4 do
      changed := false;
      incr sweeps;
      for l = w.ni to w.nlines - 1 do
        if base.(l) < 0 then
          if not (probe l 0) then begin
            fix l 1;
            changed := true
          end
          else if not (probe l 1) then begin
            fix l 0;
            changed := true
          end
      done
    done
  end;
  base

(* ---------------- collapsing, redundancy, scoring ---------------- *)

type reason = Vacuous | Dead | Const_line of bool | Blocked

let reason_name = function
  | Vacuous -> "vacuous"
  | Dead -> "dead"
  | Const_line b -> if b then "const1" else "const0"
  | Blocked -> "blocked"

type summary = {
  t_faults : int;
  t_classes : int;
  t_dominated : int;
  t_collapsed : int;
  t_redundant : int;
  t_vacuous : int;
  t_dead : int;
  t_const : int;
  t_blocked : int;
  t_const_lines : int;
  t_cc_mean : float;
  t_cc_max : float;
  t_co_mean : float;
  t_co_max : float;
  t_score_mean : float;
}

type t = {
  faults : Gate_fault.fault array;
  scoap : scoap;
  score : float array;
  cls : int array;
  rep : int array;
  dominated : bool array;
  dom_by : int array;
  redundant : reason option array;
  summary : summary;
}

(* union-find with path halving *)
let uf_find uf i =
  let i = ref i in
  while uf.(!i) <> !i do
    uf.(!i) <- uf.(uf.(!i));
    i := uf.(!i)
  done;
  !i

let uf_union uf a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if ra <> rb then if ra < rb then uf.(rb) <- ra else uf.(ra) <- rb

(* excitation cost, propagation cost — the two SCOAP score components *)
let score_parts (m : Mapped.t) sc (f : Gate_fault.fault) =
  let ni = m.Mapped.num_inputs in
  let line_cc l want = if want then sc.cc1.(l) else sc.cc0.(l) in
  match f.Gate_fault.site with
  | Gate_fault.Pi_sa i ->
      (line_cc i (not f.Gate_fault.stuck), sc.co.(i))
  | Gate_fault.Out_sa j ->
      (line_cc (ni + j) (not f.Gate_fault.stuck), sc.co.(ni + j))
  | Gate_fault.Pin_sa (j, p) ->
      let net = m.Mapped.instances.(j).Mapped.fanins.(p) in
      let want_seen = not f.Gate_fault.stuck in
      let exc =
        match net.Mapped.driver with
        | Mapped.Const b ->
            if b <> net.Mapped.negated = want_seen then 0.0 else inf
        | _ ->
            let l =
              match line_of_driver ni net.Mapped.driver with
              | Some l -> l
              | None -> assert false
            in
            line_cc l (want_seen <> net.Mapped.negated)
      in
      (exc, sc.pin_co.(j).(p))

let analyze ?(learn = true) (m : Mapped.t) =
  let ni = m.Mapped.num_inputs in
  let n = Array.length m.Mapped.instances in
  let w = wiring_of m in
  let faults = Gate_fault.faults_of m in
  let lay = layout_of m in
  check_layout m lay faults;
  let nf = lay.nf in
  let sc = scoap_of m in
  (* local error words: faulty tt XOR good tt, per instance fault *)
  let err = Array.make nf None in
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      let k = Array.length inst.Mapped.fanins in
      let tt = inst.Mapped.tt in
      List.iter
        (fun stuck ->
          for p = 0 to k - 1 do
            err.(pin_idx lay j p stuck) <-
              Some (Int64.logxor tt (Npn.cofactor tt p stuck))
          done;
          err.(out_idx m lay j stuck) <-
            Some (Int64.logxor tt (Gate_fault.const_word stuck)))
        [ false; true ])
    m.Mapped.instances;
  (* ---- equivalence ---- *)
  let uf = Array.init nf (fun i -> i) in
  (* same-instance equal error functions *)
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      let k = Array.length inst.Mapped.fanins in
      let tbl = Word_tbl.create 16 in
      let see fi =
        match err.(fi) with
        | None -> ()
        | Some e -> (
            match Word_tbl.find_opt tbl e with
            | Some fi0 -> uf_union uf fi0 fi
            | None -> Word_tbl.add tbl e fi)
      in
      List.iter
        (fun stuck ->
          for p = 0 to k - 1 do
            see (pin_idx lay j p stuck)
          done;
          see (out_idx m lay j stuck))
        [ false; true ])
    m.Mapped.instances;
  (* single-fanout wires: the driver's output fault is the consumer's pin
     fault seen through the net polarity *)
  for l = 0 to w.nlines - 1 do
    match (w.readers.(l), w.po_reads.(l)) with
    | [ (k, p) ], 0 ->
        let neg = m.Mapped.instances.(k).Mapped.fanins.(p).Mapped.negated in
        List.iter
          (fun stuck ->
            let src =
              if l < ni then pi_idx l stuck else out_idx m lay (l - ni) stuck
            in
            uf_union uf src (pin_idx lay k p (stuck <> neg)))
          [ false; true ]
    | _ -> ()
  done;
  (* renumber classes in fault-index order; representative = min member *)
  let cls = Array.make nf (-1) in
  let rep_rev = ref [] and n_classes = ref 0 in
  let root_cls = Hashtbl.create 256 in
  for fi = 0 to nf - 1 do
    let r = uf_find uf fi in
    match Hashtbl.find_opt root_cls r with
    | Some c -> cls.(fi) <- c
    | None ->
        let c = !n_classes in
        incr n_classes;
        Hashtbl.add root_cls r c;
        cls.(fi) <- c;
        rep_rev := fi :: !rep_rev
  done;
  let rep = Array.of_list (List.rev !rep_rev) in
  let n_classes = !n_classes in
  (* ---- liveness (reverse reachability from the primary outputs) ---- *)
  let live_inst = Array.make n false in
  let line_live l =
    w.po_reads.(l) > 0
    || List.exists (fun (k, _) -> live_inst.(k)) w.readers.(l)
  in
  for j = n - 1 downto 0 do
    live_inst.(j) <- line_live (ni + j)
  done;
  (* ---- constant lines ---- *)
  let base = learn_constants ~learn m w in
  let n_const_lines = ref 0 in
  for l = ni to w.nlines - 1 do
    if base.(l) >= 0 then incr n_const_lines
  done;
  (* ---- blocked lines ----
     A line is blocked when no primary output reads it and every consumer
     pin is provably insensitive to it: cofactoring the consumer's truth
     table by constant side pins (explicit constants, or learned-constant
     lines whose driving logic lies outside the fault's fanout cone)
     leaves a function independent of the pin. *)
  let cone_cache = Hashtbl.create 16 in
  let fanout_cone l =
    match Hashtbl.find_opt cone_cache l with
    | Some c -> c
    | None ->
        let c = Array.make n false in
        let rec go l =
          List.iter
            (fun (k, _) ->
              if not c.(k) then begin
                c.(k) <- true;
                go (ni + k)
              end)
            w.readers.(l)
        in
        go l;
        Hashtbl.add cone_cache l c;
        c
  in
  let reader_blocked l (k, p) =
    let inst = m.Mapped.instances.(k) in
    let nk = Array.length inst.Mapped.fanins in
    let tt = ref inst.Mapped.tt in
    for q = 0 to nk - 1 do
      if q <> p then begin
        let net = inst.Mapped.fanins.(q) in
        let const_seen =
          match net.Mapped.driver with
          | Mapped.Const b -> Some (b <> net.Mapped.negated)
          | Mapped.Pi i ->
              if base.(i) >= 0 then
                Some ((base.(i) = 1) <> net.Mapped.negated)
              else None
          | Mapped.Inst d ->
              if
                base.(ni + d) >= 0
                && (ni + d <> l)
                && not (fanout_cone l).(d)
              then Some ((base.(ni + d) = 1) <> net.Mapped.negated)
              else None
        in
        match const_seen with
        | Some b -> tt := Npn.cofactor !tt q b
        | None -> ()
      end
    done;
    Int64.equal (Npn.cofactor !tt p false) (Npn.cofactor !tt p true)
  in
  let line_blocked l =
    w.po_reads.(l) = 0
    && w.readers.(l) <> []
    && List.for_all (reader_blocked l) w.readers.(l)
  in
  (* ---- redundancy marking (first applicable reason wins) ---- *)
  let redundant = Array.make nf None in
  let mark fi r = if redundant.(fi) = None then redundant.(fi) <- Some r in
  (* vacuous instance faults *)
  for fi = 0 to nf - 1 do
    match err.(fi) with Some 0L -> mark fi Vacuous | _ -> ()
  done;
  (* dead sites *)
  for i = 0 to ni - 1 do
    if not (line_live i) then
      List.iter (fun s -> mark (pi_idx i s) Dead) [ false; true ]
  done;
  for j = 0 to n - 1 do
    if not live_inst.(j) then begin
      let k = Array.length m.Mapped.instances.(j).Mapped.fanins in
      List.iter
        (fun s ->
          for p = 0 to k - 1 do
            mark (pin_idx lay j p s) Dead
          done;
          mark (out_idx m lay j s) Dead)
        [ false; true ]
    end
  done;
  (* proven-constant lines and constant pins *)
  for j = 0 to n - 1 do
    if base.(ni + j) >= 0 then begin
      let v = base.(ni + j) = 1 in
      mark (out_idx m lay j v) (Const_line v)
    end
  done;
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      Array.iteri
        (fun p (net : Mapped.net) ->
          let seen =
            match net.Mapped.driver with
            | Mapped.Const b -> Some (b <> net.Mapped.negated)
            | Mapped.Pi i ->
                if base.(i) >= 0 then
                  Some ((base.(i) = 1) <> net.Mapped.negated)
                else None
            | Mapped.Inst d ->
                if base.(ni + d) >= 0 then
                  Some ((base.(ni + d) = 1) <> net.Mapped.negated)
                else None
          in
          match seen with
          | Some v -> mark (pin_idx lay j p v) (Const_line v)
          | None -> ())
        inst.Mapped.fanins)
    m.Mapped.instances;
  (* blocked propagation *)
  for i = 0 to ni - 1 do
    if redundant.(pi_idx i false) = None || redundant.(pi_idx i true) = None
    then
      if line_blocked i then
        List.iter (fun s -> mark (pi_idx i s) Blocked) [ false; true ]
  done;
  for j = 0 to n - 1 do
    if live_inst.(j) && line_blocked (ni + j) then begin
      let k = Array.length m.Mapped.instances.(j).Mapped.fanins in
      List.iter
        (fun s ->
          for p = 0 to k - 1 do
            mark (pin_idx lay j p s) Blocked
          done;
          mark (out_idx m lay j s) Blocked)
        [ false; true ]
    end
  done;
  (* equivalent faults compute identical faulty netlists: redundancy
     propagates across each class *)
  let cls_reason = Array.make n_classes None in
  for fi = 0 to nf - 1 do
    match (redundant.(fi), cls_reason.(cls.(fi))) with
    | Some r, None -> cls_reason.(cls.(fi)) <- Some r
    | _ -> ()
  done;
  for fi = 0 to nf - 1 do
    match (redundant.(fi), cls_reason.(cls.(fi))) with
    | None, Some r -> redundant.(fi) <- Some r
    | _ -> ()
  done;
  (* ---- dominance ----
     For faults of one instance, containment of local error sets gives
     test-set containment (excitation is local, propagation identical):
     E(g) subset-of E(f) means every test for g detects f, so f's class is
     removable as long as g is testable and in a different class. *)
  let dominated = Array.make n_classes false in
  let dom_by = Array.make n_classes (-1) in
  Array.iteri
    (fun j (inst : Mapped.instance) ->
      let k = Array.length inst.Mapped.fanins in
      let idxs = ref [] in
      List.iter
        (fun s ->
          idxs := out_idx m lay j s :: !idxs;
          for p = k - 1 downto 0 do
            idxs := pin_idx lay j p s :: !idxs
          done)
        [ true; false ];
      let idxs = !idxs in
      List.iter
        (fun f ->
          if redundant.(f) = None then
            List.iter
              (fun g ->
                if
                  g <> f
                  && cls.(g) <> cls.(f)
                  && redundant.(g) = None
                then
                  match (err.(g), err.(f)) with
                  | Some eg, Some ef ->
                      if
                        eg <> 0L && eg <> ef
                        && Int64.equal
                             (Int64.logand eg (Int64.lognot ef))
                             0L
                      then begin
                        dominated.(cls.(f)) <- true;
                        if dom_by.(cls.(f)) < 0 then dom_by.(cls.(f)) <- g
                      end
                  | _ -> ())
              idxs)
        idxs)
    m.Mapped.instances;
  (* ---- scores and summary ---- *)
  let cop = cop_of m in
  let score = Array.map (fun f -> cop_score m cop f) faults in
  let n_redundant = ref 0
  and n_vac = ref 0
  and n_dead = ref 0
  and n_const = ref 0
  and n_blocked = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some r -> (
          incr n_redundant;
          match r with
          | Vacuous -> incr n_vac
          | Dead -> incr n_dead
          | Const_line _ -> incr n_const
          | Blocked -> incr n_blocked))
    redundant;
  let n_red_classes = ref 0 and n_dom_classes = ref 0 in
  for c = 0 to n_classes - 1 do
    if redundant.(rep.(c)) <> None then incr n_red_classes
    else if dominated.(c) then incr n_dom_classes
  done;
  let mean_max a b =
    let sum = ref 0.0 and cnt = ref 0 and mx = ref 0.0 in
    for l = 0 to w.nlines - 1 do
      let v = Float.max a.(l) b.(l) in
      if Float.is_finite v then begin
        sum := !sum +. v;
        incr cnt;
        if v > !mx then mx := v
      end
    done;
    ((if !cnt = 0 then 0.0 else !sum /. float_of_int !cnt), !mx)
  in
  let cc_mean, cc_max = mean_max sc.cc0 sc.cc1 in
  let co_mean, co_max = mean_max sc.co sc.co in
  let score_mean =
    let sum = ref 0.0 and cnt = ref 0 in
    Array.iteri
      (fun fi s ->
        if redundant.(fi) = None && Float.is_finite s then begin
          sum := !sum +. s;
          incr cnt
        end)
      score;
    if !cnt = 0 then 0.0 else !sum /. float_of_int !cnt
  in
  let summary =
    {
      t_faults = nf;
      t_classes = n_classes;
      t_dominated = !n_dom_classes;
      t_collapsed = n_classes - !n_red_classes - !n_dom_classes;
      t_redundant = !n_redundant;
      t_vacuous = !n_vac;
      t_dead = !n_dead;
      t_const = !n_const;
      t_blocked = !n_blocked;
      t_const_lines = !n_const_lines;
      t_cc_mean = cc_mean;
      t_cc_max = cc_max;
      t_co_mean = co_mean;
      t_co_max = co_max;
      t_score_mean = score_mean;
    }
  in
  { faults; scoap = sc; score; cls; rep; dominated; dom_by; redundant; summary }

(* ---------------- reporting ---------------- *)

let summary_line s =
  Printf.sprintf
    "faults=%d classes=%d collapsed=%d dominated=%d redundant=%d(vac:%d \
     dead:%d const:%d blk:%d) const-lines=%d cc=%.1f/%.1f co=%.1f/%.1f \
     score=%.1f"
    s.t_faults s.t_classes s.t_collapsed s.t_dominated s.t_redundant
    s.t_vacuous s.t_dead s.t_const s.t_blocked s.t_const_lines s.t_cc_mean
    s.t_cc_max s.t_co_mean s.t_co_max s.t_score_mean

let tsv_header =
  "#idx\tfault\tclass\trep\tdominated\tredundant\texc_cc\tobs_co\tscore"

let fstr v = if Float.is_finite v then Printf.sprintf "%.1f" v else "inf"

let to_tsv (m : Mapped.t) t =
  let b = Buffer.create 4096 in
  Buffer.add_string b tsv_header;
  Buffer.add_char b '\n';
  Array.iteri
    (fun fi (f : Gate_fault.fault) ->
      let exc, obs = score_parts m t.scoap f in
      Printf.bprintf b "%d\t%s\t%d\t%c\t%c\t%s\t%s\t%s\t%s\n" fi
        (Gate_fault.describe m f)
        t.cls.(fi)
        (if t.rep.(t.cls.(fi)) = fi then 'R' else '-')
        (if t.dominated.(t.cls.(fi)) then 'D' else '-')
        (match t.redundant.(fi) with
        | None -> "-"
        | Some r -> reason_name r)
        (fstr exc) (fstr obs)
        (fstr t.score.(fi)))
    t.faults;
  Buffer.contents b

(* ---------------- lint ---------------- *)

let lint ?threshold ~name (m : Mapped.t) t =
  let ni = m.Mapped.num_inputs in
  let n = Array.length m.Mapped.instances in
  let lay = layout_of m in
  let dead j =
    t.redundant.(out_idx m lay j false) = Some Dead
  in
  (* threshold: 3x the median finite instance-output observability *)
  let finite =
    Array.to_list t.scoap.co
    |> List.filteri (fun l _ -> l >= ni)
    |> List.filter Float.is_finite
    |> List.sort compare
  in
  let median =
    match finite with
    | [] -> 0.0
    | l -> List.nth l (List.length l / 2)
  in
  let thr =
    match threshold with Some x -> x | None -> Float.max (3.0 *. median) 10.0
  in
  let ds = ref [] in
  (* unobservable / hard-to-observe live instances, worst first, capped *)
  let ranked =
    List.init n (fun j -> (t.scoap.co.(ni + j), j))
    |> List.filter (fun (co, j) ->
           (not (dead j)) && ((not (Float.is_finite co)) || co > thr))
    |> List.sort (fun (a, i) (b, j) -> compare (b, i) (a, j))
  in
  let total_low = List.length ranked in
  List.iteri
    (fun rank (co, j) ->
      if rank < 12 then
        let loc = Diag.Inst (name, j) in
        let cell = m.Mapped.instances.(j).Mapped.cell_name in
        ds :=
          (if Float.is_finite co then
             Diag.infof ~rule:"map-low-observability" loc
               "%s output is hard to observe (CO %.1f, median %.1f): faults \
                here resist random patterns"
               cell co median
           else
             Diag.warnf ~rule:"map-low-observability" loc
               "%s output is statically unobservable: any fault here morphs \
                the circuit silently"
               cell)
          :: !ds)
    ranked;
  if total_low > 12 then
    ds :=
      Diag.infof ~rule:"map-low-observability" (Diag.Circuit name)
        "%d more low-observability instances not listed" (total_low - 12)
      :: !ds;
  (* statically redundant faults, aggregated per instance *)
  let emitted = ref 0 in
  for j = 0 to n - 1 do
    if not (dead j) then begin
      let k = Array.length m.Mapped.instances.(j).Mapped.fanins in
      let count = ref 0 and reasons = ref [] in
      List.iter
        (fun s ->
          for p = 0 to k - 1 do
            match t.redundant.(pin_idx lay j p s) with
            | Some r ->
                incr count;
                if not (List.mem (reason_name r) !reasons) then
                  reasons := reason_name r :: !reasons
            | None -> ()
          done;
          match t.redundant.(out_idx m lay j s) with
          | Some r ->
              incr count;
              if not (List.mem (reason_name r) !reasons) then
                reasons := reason_name r :: !reasons
          | None -> ())
        [ false; true ];
      if !count > 0 && !emitted < 20 then begin
        incr emitted;
        ds :=
          Diag.infof ~rule:"map-untestable-fault" (Diag.Inst (name, j))
            "%d statically redundant fault%s (%s)" !count
            (if !count = 1 then "" else "s")
            (String.concat ", " (List.sort compare !reasons))
          :: !ds
      end
    end
  done;
  List.rev !ds

(* ---------------- testability-driven covering cost ---------------- *)

(* The covering cost behind [map(cost=testability)]: real area scaled by a
   penalty for poorly-sensitizable pins.  A pin whose value reaches the
   output under a fraction [s] of the side-pin assignments contributes
   [1/s - 1] (0 for always-sensitized pins; an unsensitizable pin is
   charged as if [s = 1/128], worse than anything a 6-input table can
   produce), normalized by pin count so wide cells are not punished for
   merely having more pins.  The 1/8 weight keeps area the dominant term:
   tuned on the Table-3 suite, it trades a bounded area regression for
   strictly better tg-pseudo random-pattern fault detection (see the
   bench harness's testability section). *)
let cell_cost (c : Cell_lib.cell) =
  let k = c.Cell_lib.arity in
  if k = 0 then c.Cell_lib.area
  else begin
    let pen = ref 0.0 in
    for p = 0 to k - 1 do
      let d =
        Int64.logxor
          (Npn.cofactor c.Cell_lib.tt p false)
          (Npn.cofactor c.Cell_lib.tt p true)
      in
      let s = float_of_int (Tt.count_ones (Tt.of_words 6 [| d |])) /. 64.0 in
      pen := !pen +. ((if s > 0.0 then 1.0 /. s else 128.0) -. 1.0)
    done;
    c.Cell_lib.area *. (1.0 +. (!pen /. (8.0 *. float_of_int (k + 1))))
  end
