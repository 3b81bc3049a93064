type formula = { fm_vars : int; fm_clauses : int list list }

let lit_of vars l =
  let v = vars.(Aig.node_of l) in
  if Aig.is_compl l then Solver.neg v else Solver.pos v

let rec encode_lit s aig vars l =
  let n = Aig.node_of l in
  if vars.(n) < 0 then begin
    let v = Solver.new_var s in
    vars.(n) <- v;
    if n = 0 then Solver.add_clause s [ Solver.neg v ]
    else if Aig.is_and aig n then begin
      let a = encode_lit s aig vars (Aig.fanin0 aig n) in
      let b = encode_lit s aig vars (Aig.fanin1 aig n) in
      let y = Solver.pos v in
      (* y <-> a & b *)
      Solver.add_clause s [ Solver.lit_not y; a ];
      Solver.add_clause s [ Solver.lit_not y; b ];
      Solver.add_clause s [ y; Solver.lit_not a; Solver.lit_not b ]
    end
  end;
  lit_of vars l

let add_formula s fm =
  while Solver.num_vars s < fm.fm_vars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) fm.fm_clauses

(* ------------------------------------------------------------------ *)
(* DIMACS                                                             *)
(* ------------------------------------------------------------------ *)

let to_dimacs fm =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "p cnf %d %d\n" fm.fm_vars (List.length fm.fm_clauses));
  List.iter
    (fun clause ->
      List.iter
        (fun l ->
          let v = Solver.lit_var l + 1 in
          Buffer.add_string b
            (string_of_int (if Solver.lit_sign l then v else -v));
          Buffer.add_char b ' ')
        clause;
      Buffer.add_string b "0\n")
    fm.fm_clauses;
  Buffer.contents b

let of_dimacs text =
  (* Tokenize, dropping [c] comment lines and anything after a lone [%]
     (the SATLIB benchmark trailer). *)
  let lines = String.split_on_char '\n' text in
  let tokens = ref [] in
  (try
     List.iter
       (fun line ->
         let line = String.trim line in
         if line = "%" then raise Exit
         else if line <> "" && line.[0] <> 'c' then
           String.split_on_char ' ' line
           |> List.iter (fun tok -> if tok <> "" then tokens := tok :: !tokens))
       lines
   with Exit -> ());
  match List.rev !tokens with
  | "p" :: "cnf" :: nv :: nc :: rest -> (
      match (int_of_string_opt nv, int_of_string_opt nc) with
      | Some nv, Some nc when nv >= 0 && nc >= 0 -> (
          let err = ref None in
          let clauses = ref [] in
          let current = ref [] in
          List.iter
            (fun tok ->
              if !err = None then
                match int_of_string_opt tok with
                | None -> err := Some (Printf.sprintf "bad literal %S" tok)
                | Some 0 ->
                    clauses := List.rev !current :: !clauses;
                    current := []
                | Some d when abs d > nv ->
                    err := Some (Printf.sprintf "literal %d out of range" d)
                | Some d ->
                    let l =
                      if d > 0 then Solver.pos (d - 1) else Solver.neg (-d - 1)
                    in
                    current := l :: !current)
            rest;
          match !err with
          | Some e -> Error e
          | None ->
              if !current <> [] then Error "unterminated clause"
              else
                let clauses = List.rev !clauses in
                if List.length clauses <> nc then
                  Error
                    (Printf.sprintf "header says %d clauses, found %d" nc
                       (List.length clauses))
                else Ok { fm_vars = nv; fm_clauses = clauses })
      | _ -> Error "bad p-line counts")
  | _ -> Error "missing 'p cnf' header"
