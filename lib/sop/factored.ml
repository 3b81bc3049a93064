

type t =
  | Const of bool
  | Lit of int * bool
  | And of t list
  | Or of t list

let of_cube c =
  match Cube.literals c with
  | [] -> Const true
  | [ (i, s) ] -> Lit (i, s)
  | lits -> And (List.map (fun (i, s) -> Lit (i, s)) lits)

(* Literal slot [2i + 1] is [x_i], [2i] is [NOT x_i]; [bucket] is where
   [Hashtbl.hash (i, sign)] files the literal in a 16-bucket [Hashtbl]
   (at most 32 keys never make one resize). *)
let bucket =
  Array.init (2 * Tt.max_vars) (fun k ->
      Hashtbl.hash (k lsr 1, k land 1 = 1) land 15)

(* Most frequent literal among cubes with >= 2 occurrences, if any.  Ties
   go the way a [Hashtbl.fold] over a table of literal counts meets them
   (lower bucket first, within a bucket the literal first seen later), the
   seed implementation's choice, so the factored forms are unchanged. *)
let best_literal cubes =
  let count = Array.make (2 * Tt.max_vars) 0 in
  let seen = Array.make (2 * Tt.max_vars) 0 in
  let seq = ref 0 in
  List.iter
    (fun (c : Cube.t) ->
      (* ascending variables, as [Cube.literals] lists them *)
      let lits = c.pos lor c.neg and i = ref 0 in
      while 1 lsl !i <= lits do
        let bit = 1 lsl !i in
        if lits land bit <> 0 then begin
          let k = (2 * !i) + (if c.pos land bit <> 0 then 1 else 0) in
          if count.(k) = 0 then begin
            incr seq;
            seen.(k) <- !seq
          end;
          count.(k) <- count.(k) + 1
        end;
        incr i
      done)
    cubes;
  let best = ref (-1) in
  for k = 0 to (2 * Tt.max_vars) - 1 do
    let b = !best in
    if
      count.(k) >= 2
      && (b < 0
         || count.(k) > count.(b)
         || count.(k) = count.(b)
            && (bucket.(k) < bucket.(b)
               || (bucket.(k) = bucket.(b) && seen.(k) > seen.(b))))
    then best := k
  done;
  if !best < 0 then None else Some (!best lsr 1, !best land 1 = 1)

let rec factor_cubes cubes =
  match cubes with
  | [] -> Const false
  | [ c ] -> of_cube c
  | _ -> (
      match best_literal cubes with
      | None -> Or (List.map of_cube cubes)
      | Some (i, sign) ->
          let with_l, without =
            List.partition
              (fun c -> if sign then Cube.has_pos c i else Cube.has_neg c i)
              cubes
          in
          let quotient = List.map (fun c -> Cube.remove_var c i) with_l in
          let lhs =
            match factor_cubes quotient with
            | Const true -> Lit (i, sign)
            | And fs -> And (Lit (i, sign) :: fs)
            | f -> And [ Lit (i, sign); f ]
          in
          if without = [] then lhs
          else
            match factor_cubes without with
            | Or fs -> Or (lhs :: fs)
            | f -> Or [ lhs; f ])

let factor (s : Sop.t) = factor_cubes s.Sop.cubes

let rec num_literals = function
  | Const _ -> 0
  | Lit _ -> 1
  | And fs | Or fs -> List.fold_left (fun a f -> a + num_literals f) 0 fs

let rec num_and2 = function
  | Const _ | Lit _ -> 0
  | And fs | Or fs ->
      List.length fs - 1
      + List.fold_left (fun a f -> a + num_and2 f) 0 fs

let rec to_tt n = function
  | Const b -> if b then Tt.const1 n else Tt.const0 n
  | Lit (i, s) -> if s then Tt.var n i else Tt.bnot (Tt.var n i)
  | And fs ->
      List.fold_left (fun acc f -> Tt.band acc (to_tt n f)) (Tt.const1 n) fs
  | Or fs ->
      List.fold_left (fun acc f -> Tt.bor acc (to_tt n f)) (Tt.const0 n) fs

let rec pp fmt = function
  | Const b -> Format.fprintf fmt "%d" (if b then 1 else 0)
  | Lit (i, s) -> Format.fprintf fmt "%sx%d" (if s then "" else "!") i
  | And fs ->
      Format.fprintf fmt "(";
      List.iteri
        (fun k f ->
          if k > 0 then Format.fprintf fmt " * ";
          pp fmt f)
        fs;
      Format.fprintf fmt ")"
  | Or fs ->
      Format.fprintf fmt "(";
      List.iteri
        (fun k f ->
          if k > 0 then Format.fprintf fmt " + ";
          pp fmt f)
        fs;
      Format.fprintf fmt ")"
