(* A CDCL solver.

   Clauses live in a single int arena as
   [header; size; lit_0; ...; lit_{size-1}], referred to by the offset of
   the header word.  The header packs [(lbd lsl 1) lor learned]; the first
   two literals (offsets +2 and +3) are the watches.  Watcher lists are
   stride-2 int vectors of [cref; blocker] pairs: a watcher whose blocker
   literal is already true is skipped without touching the arena.  Learned
   clauses are LBD-scored and periodically garbage-collected by compacting
   the arena.  [solve ~assumptions] follows MiniSat: assumptions are
   replayed as the first decision levels on every (re)start, an already
   true assumption opens a dummy level, and a false one triggers
   final-conflict analysis yielding the unsat core. *)

type result = Sat | Unsat | Unknown

type stats = {
  mutable sat_solves : int;
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable sat_restarts : int;
  mutable sat_learned : int;
}

let stats_create () =
  {
    sat_solves = 0;
    sat_conflicts = 0;
    sat_decisions = 0;
    sat_propagations = 0;
    sat_restarts = 0;
    sat_learned = 0;
  }

let stats_accum dst src =
  dst.sat_solves <- dst.sat_solves + src.sat_solves;
  dst.sat_conflicts <- dst.sat_conflicts + src.sat_conflicts;
  dst.sat_decisions <- dst.sat_decisions + src.sat_decisions;
  dst.sat_propagations <- dst.sat_propagations + src.sat_propagations;
  dst.sat_restarts <- dst.sat_restarts + src.sat_restarts;
  dst.sat_learned <- dst.sat_learned + src.sat_learned

let pos v = 2 * v
let neg v = (2 * v) + 1
let lit_not l = l lxor 1
let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0 (* true for positive *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let push v x =
    if v.n >= Array.length v.a then begin
      let b = Array.make (2 * Array.length v.a) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let size v = v.n
  let shrink v n = v.n <- n
  let clear v = v.n <- 0
end

(* The reluctant-doubling (Luby) sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 … *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

type t = {
  mutable nvars : int;
  mutable assigns : int array;      (* var -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;       (* var -> clause offset, or -1 *)
  mutable activity : float array;
  mutable polarity : bool array;    (* saved phase *)
  mutable heap_pos : int array;     (* var -> heap index or -1 *)
  heap : Vec.t;                     (* binary max-heap of vars *)
  mutable arena : Vec.t;
  mutable watches : Vec.t array;    (* lit -> [cref; blocker; ...] pairs *)
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable var_inc : float;
  mutable seen : bool array;
  mutable stamp : int array;        (* level -> epoch, for LBD counting *)
  mutable stamp_epoch : int;
  learnts : Vec.t;                  (* crefs of learned clauses *)
  mutable max_learnts : int;
  mutable ok : bool;
  mutable core : int list;          (* failed assumptions of the last solve *)
  mutable solves : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned_total : int;
  mutable gc_runs : int;
}

let create () =
  {
    nvars = 0;
    assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    heap = Vec.create ();
    arena = Vec.create ();
    watches = Array.init 32 (fun _ -> Vec.create ());
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    seen = Array.make 16 false;
    stamp = Array.make 17 (-1);
    stamp_epoch = 0;
    learnts = Vec.create ();
    max_learnts = 2000;
    ok = true;
    core = [];
    solves = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned_total = 0;
    gc_runs = 0;
  }

let num_vars s = s.nvars
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_restarts s = s.restarts
let num_learned s = s.learned_total
let num_gc_runs s = s.gc_runs
let unsat_core s = s.core

let stats_of s =
  {
    sat_solves = s.solves;
    sat_conflicts = s.conflicts;
    sat_decisions = s.decisions;
    sat_propagations = s.propagations;
    sat_restarts = s.restarts;
    sat_learned = s.learned_total;
  }

(* -1 unassigned, 0 false, 1 true *)
let lit_value s l =
  let a = s.assigns.(lit_var l) in
  if a < 0 then -1 else if lit_sign l then a else 1 - a

(* Heap operations (max-heap on activity). *)
let heap_less s v1 v2 = s.activity.(v1) > s.activity.(v2)

let heap_swap s i j =
  let a = Vec.get s.heap i and b = Vec.get s.heap j in
  Vec.set s.heap i b;
  Vec.set s.heap j a;
  s.heap_pos.(a) <- j;
  s.heap_pos.(b) <- i

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s (Vec.get s.heap i) (Vec.get s.heap p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let n = Vec.size s.heap in
  let best = ref i in
  if l < n && heap_less s (Vec.get s.heap l) (Vec.get s.heap !best) then best := l;
  if r < n && heap_less s (Vec.get s.heap r) (Vec.get s.heap !best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    Vec.push s.heap v;
    s.heap_pos.(v) <- Vec.size s.heap - 1;
    heap_up s (Vec.size s.heap - 1)
  end

let heap_pop s =
  let top = Vec.get s.heap 0 in
  let last = Vec.get s.heap (Vec.size s.heap - 1) in
  Vec.shrink s.heap (Vec.size s.heap - 1);
  s.heap_pos.(top) <- -1;
  if Vec.size s.heap > 0 then begin
    Vec.set s.heap 0 last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  top

let grow_arrays s =
  let n = Array.length s.assigns in
  let m = 2 * n in
  let ext def a =
    let b = Array.make m def in
    Array.blit a 0 b 0 n;
    b
  in
  s.assigns <- ext (-1) s.assigns;
  s.level <- ext 0 s.level;
  s.reason <- ext (-1) s.reason;
  s.activity <- Array.append s.activity (Array.make n 0.0);
  s.polarity <- Array.append s.polarity (Array.make n false);
  s.heap_pos <- ext (-1) s.heap_pos;
  s.seen <- Array.append s.seen (Array.make n false);
  let st = Array.make (m + 1) (-1) in
  Array.blit s.stamp 0 st 0 (Array.length s.stamp);
  s.stamp <- st;
  let w = Array.init (2 * m) (fun _ -> Vec.create ()) in
  Array.blit s.watches 0 w 0 (2 * n);
  s.watches <- w

let new_var s =
  if s.nvars >= Array.length s.assigns then grow_arrays s;
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns.(v) <- -1;
  s.reason.(v) <- -1;
  s.heap_pos.(v) <- -1;
  heap_insert s v;
  v

let decision_level s = Vec.size s.trail_lim

let enqueue s l reason =
  s.assigns.(lit_var l) <- (if lit_sign l then 1 else 0);
  s.level.(lit_var l) <- decision_level s;
  s.reason.(lit_var l) <- reason;
  Vec.push s.trail l

(* Clause accessors: header at [cref], size at [cref+1], literals at
   [cref+2 .. cref+1+size].  The two watches are the literals in slots 0
   and 1 (offsets +2 and +3); [propagate] maintains the invariant that
   slot 0 holds the unit-implied literal of a reason clause. *)
let clause_size s cref = Vec.get s.arena (cref + 1)
let clause_lbd s cref = Vec.get s.arena cref lsr 1

(* Returns the offset of a conflicting clause, or -1. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = lit_not p in
    let ws = s.watches.(false_lit) in
    let i = ref 0 and j = ref 0 in
    let n = Vec.size ws in
    while !i < n do
      let cref = Vec.get ws !i and blocker = Vec.get ws (!i + 1) in
      i := !i + 2;
      if !confl >= 0 || lit_value s blocker = 1 then begin
        (* conflict already found, or the blocker satisfies the clause:
           keep the watcher without touching the arena *)
        Vec.set ws !j cref;
        Vec.set ws (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        let size = clause_size s cref in
        (* Ensure the false literal is in slot 1. *)
        if Vec.get s.arena (cref + 2) = false_lit then begin
          Vec.set s.arena (cref + 2) (Vec.get s.arena (cref + 3));
          Vec.set s.arena (cref + 3) false_lit
        end;
        let first = Vec.get s.arena (cref + 2) in
        if lit_value s first = 1 then begin
          (* satisfied: keep watching, remember [first] as the blocker *)
          Vec.set ws !j cref;
          Vec.set ws (!j + 1) first;
          j := !j + 2
        end
        else begin
          (* find a new watch *)
          let found = ref false in
          let k = ref 4 in
          while (not !found) && !k <= size + 1 do
            let l = Vec.get s.arena (cref + !k) in
            if lit_value s l <> 0 then begin
              Vec.set s.arena (cref + 3) l;
              Vec.set s.arena (cref + !k) false_lit;
              (* [l] is not false, hence [l <> false_lit]: never the list
                 being compacted. *)
              Vec.push s.watches.(l) cref;
              Vec.push s.watches.(l) first;
              found := true
            end;
            incr k
          done;
          if not !found then begin
            (* unit or conflict *)
            Vec.set ws !j cref;
            Vec.set ws (!j + 1) first;
            j := !j + 2;
            if lit_value s first = 0 then confl := cref
            else enqueue s first cref
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !confl

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 0 to s.nvars - 1 do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let attach s cref =
  let l0 = Vec.get s.arena (cref + 2) and l1 = Vec.get s.arena (cref + 3) in
  Vec.push s.watches.(l0) cref;
  Vec.push s.watches.(l0) l1;
  Vec.push s.watches.(l1) cref;
  Vec.push s.watches.(l1) l0

let push_clause s ~learned ~lbd lits =
  let cref = Vec.size s.arena in
  Vec.push s.arena ((lbd lsl 1) lor (if learned then 1 else 0));
  Vec.push s.arena (List.length lits);
  List.iter (Vec.push s.arena) lits;
  attach s cref;
  if learned then begin
    Vec.push s.learnts cref;
    s.learned_total <- s.learned_total + 1
  end;
  cref

let backtrack s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = lit_var l in
      s.assigns.(v) <- -1;
      s.polarity.(v) <- lit_sign l;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* Number of distinct decision levels among [lits] (the literal block
   distance of a learned clause), via an epoch-stamped per-level array. *)
let compute_lbd s lits =
  s.stamp_epoch <- s.stamp_epoch + 1;
  let e = s.stamp_epoch in
  let n = ref 0 in
  List.iter
    (fun l ->
      let lv = s.level.(lit_var l) in
      if s.stamp.(lv) <> e then begin
        s.stamp.(lv) <- e;
        incr n
      end)
    lits;
  !n

(* First-UIP conflict analysis.  Returns (learned clause with the asserting
   literal first, backtrack level). *)
let analyze s confl =
  let learned = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (Vec.size s.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  let btlevel = ref 0 in
  while !continue do
    let size = clause_size s !confl in
    (* slot 0 of a reason clause is the literal just resolved on: skip it *)
    let start = if !p < 0 then 2 else 3 in
    for k = start to size + 1 do
      let q = Vec.get s.arena (!confl + k) in
      let v = lit_var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr path
        else begin
          learned := q :: !learned;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* find next literal to expand on the trail *)
    while not s.seen.(lit_var (Vec.get s.trail !idx)) do
      decr idx
    done;
    p := Vec.get s.trail !idx;
    decr idx;
    s.seen.(lit_var !p) <- false;
    decr path;
    if !path > 0 then confl := s.reason.(lit_var !p) else continue := false
  done;
  let clause = lit_not !p :: !learned in
  List.iter (fun l -> s.seen.(lit_var l) <- false) !learned;
  (clause, !btlevel)

(* Final-conflict analysis, MiniSat's [analyzeFinal]: assumption literal
   [p] is false under the current trail; walk the reason chains of its
   complement back to the assumption decisions responsible.  Returns the
   failed subset of the assumptions, including [p]. *)
let analyze_final s p =
  let core = ref [ p ] in
  if decision_level s > 0 then begin
    s.seen.(lit_var p) <- true;
    for i = Vec.size s.trail - 1 downto Vec.get s.trail_lim 0 do
      let q = Vec.get s.trail i in
      let v = lit_var q in
      if s.seen.(v) then begin
        (let r = s.reason.(v) in
         if r < 0 then
           (* a decision above level 0 is an assumption *)
           core := q :: !core
         else
           (* slot 0 is [q] itself: expand the rest of its reason *)
           let size = clause_size s r in
           for k = 3 to size + 1 do
             let l = Vec.get s.arena (r + k) in
             if s.level.(lit_var l) > 0 then s.seen.(lit_var l) <- true
           done);
        s.seen.(v) <- false
      end
    done;
    s.seen.(lit_var p) <- false
  end;
  !core

let add_clause s lits =
  if s.ok then begin
    (* Incremental use: undo any model left by a previous [solve]. *)
    backtrack s 0;
    (* Level-0 simplification: drop false literals, detect satisfied or
       tautological clauses, deduplicate. *)
    let lits = List.sort_uniq compare lits in
    let tauto =
      List.exists (fun l -> List.mem (lit_not l) lits) lits
      || List.exists (fun l -> lit_value s l = 1) lits
    in
    if not tauto then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
          enqueue s l (-1);
          if propagate s >= 0 then s.ok <- false
      | lits -> ignore (push_clause s ~learned:false ~lbd:0 lits)
    end
  end

(* A learned clause is locked while it is the reason of its slot-0
   literal's assignment; locked clauses survive every reduction. *)
let locked s cref =
  let l0 = Vec.get s.arena (cref + 2) in
  lit_value s l0 = 1 && s.reason.(lit_var l0) = cref

(* Learned-database reduction + compacting arena GC.  Called at decision
   level 0 only (every clause's slot-0/1 watches are then valid to rebuild
   from, and no reason above level 0 exists to remap). *)
let reduce_db s =
  let glue_lbd = 3 in
  let keep = ref [] and cand = ref [] in
  for i = 0 to Vec.size s.learnts - 1 do
    let c = Vec.get s.learnts i in
    if clause_lbd s c <= glue_lbd || locked s c then keep := c :: !keep
    else cand := c :: !cand
  done;
  let cand = Array.of_list !cand in
  Array.sort
    (fun a b ->
      let c = compare (clause_lbd s a) (clause_lbd s b) in
      if c <> 0 then c else compare (clause_size s a) (clause_size s b))
    cand;
  let n_keep = Array.length cand / 2 in
  let removed = Hashtbl.create 64 in
  for i = n_keep to Array.length cand - 1 do
    Hashtbl.replace removed cand.(i) ()
  done;
  (* Compact the arena, building a forwarding table. *)
  let old = s.arena in
  let na = Vec.create () in
  let fwd = Hashtbl.create 256 in
  let cref = ref 0 in
  while !cref < Vec.size old do
    let header = Vec.get old !cref in
    let size = Vec.get old (!cref + 1) in
    if not (header land 1 = 1 && Hashtbl.mem removed !cref) then begin
      Hashtbl.replace fwd !cref (Vec.size na);
      Vec.push na header;
      Vec.push na size;
      for k = 2 to size + 1 do
        Vec.push na (Vec.get old (!cref + k))
      done
    end;
    cref := !cref + 2 + size
  done;
  s.arena <- na;
  (* Remap the learned list... *)
  let old_learnts = Array.init (Vec.size s.learnts) (Vec.get s.learnts) in
  Vec.clear s.learnts;
  Array.iter
    (fun c ->
      match Hashtbl.find_opt fwd c with
      | Some nc -> Vec.push s.learnts nc
      | None -> ())
    old_learnts;
  (* ... and the reasons of the (level-0) trail.  Removed clauses are
     never reasons — locked ones are kept — but be defensive. *)
  for i = 0 to Vec.size s.trail - 1 do
    let v = lit_var (Vec.get s.trail i) in
    let r = s.reason.(v) in
    if r >= 0 then
      s.reason.(v) <-
        (match Hashtbl.find_opt fwd r with Some nc -> nc | None -> -1)
  done;
  (* Rebuild the watcher lists from slots 0/1. *)
  for l = 0 to (2 * s.nvars) - 1 do
    Vec.clear s.watches.(l)
  done;
  let cref = ref 0 in
  while !cref < Vec.size s.arena do
    attach s !cref;
    cref := !cref + 2 + clause_size s !cref
  done;
  s.gc_runs <- s.gc_runs + 1;
  s.max_learnts <- s.max_learnts + (s.max_learnts / 2)

exception Finished of result

(* Pick the next decision.  The first [Array.length assumps] levels are
   the assumptions: an already true one opens a dummy level, a false one
   ends the search with the failed core. *)
let rec decide s assumps =
  let dl = decision_level s in
  if dl < Array.length assumps then begin
    let p = assumps.(dl) in
    match lit_value s p with
    | 1 ->
        (* dummy decision level *)
        Vec.push s.trail_lim (Vec.size s.trail);
        decide s assumps
    | 0 ->
        s.core <- analyze_final s p;
        raise (Finished Unsat)
    | _ ->
        s.decisions <- s.decisions + 1;
        Vec.push s.trail_lim (Vec.size s.trail);
        enqueue s p (-1)
  end
  else begin
    let rec pick () =
      if Vec.size s.heap = 0 then -1
      else
        let v = heap_pop s in
        if s.assigns.(v) < 0 then v else pick ()
    in
    let v = pick () in
    if v < 0 then
      (* Full assignment without conflict: the trail is the model; it is
         kept in place so [model_value] can read it. *)
      raise (Finished Sat)
    else begin
      s.decisions <- s.decisions + 1;
      Vec.push s.trail_lim (Vec.size s.trail);
      enqueue s (if s.polarity.(v) then pos v else neg v) (-1)
    end
  end

let solve ?(assumptions = []) ?(conflict_budget = max_int) s =
  s.solves <- s.solves + 1;
  s.core <- [];
  if not s.ok then Unsat
  else begin
    backtrack s 0;
    let assumps = Array.of_list assumptions in
    let budget = ref conflict_budget in
    let restart_num = ref 1 in
    let until_restart = ref (100 * luby !restart_num) in
    try
      while true do
        let confl = propagate s in
        if confl >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          decr budget;
          decr until_restart;
          if decision_level s = 0 then begin
            s.ok <- false;
            raise (Finished Unsat)
          end;
          if !budget <= 0 then begin
            backtrack s 0;
            raise (Finished Unknown)
          end;
          let clause, btlevel = analyze s confl in
          backtrack s btlevel;
          (match clause with
          | [ l ] -> enqueue s l (-1)
          | l :: _ ->
              let lbd = compute_lbd s clause in
              let cref = push_clause s ~learned:true ~lbd clause in
              enqueue s l cref
          | [] -> assert false);
          var_decay s
        end
        else if !until_restart <= 0 then begin
          s.restarts <- s.restarts + 1;
          incr restart_num;
          until_restart := 100 * luby !restart_num;
          backtrack s 0;
          if Vec.size s.learnts > s.max_learnts then reduce_db s
        end
        else decide s assumps
      done;
      assert false
    with Finished r -> r
  end

let model_value s v =
  if v < 0 || v >= s.nvars then invalid_arg "Solver.model_value";
  s.assigns.(v) = 1
