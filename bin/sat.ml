(* Standalone DIMACS SAT front-end, for reproducing solver behaviour
   outside the flow:

     sat solve FILE.cnf [--conflict-budget N] [--assume LIT]...

   Prints the usual `s SATISFIABLE` / `s UNSATISFIABLE` / `s UNKNOWN`
   verdict plus a `v` model line or a `c core` line (the failed
   assumptions), and solver counters as comments.  Exit status follows
   the MiniSat convention: 10 satisfiable, 20 unsatisfiable, 0 unknown. *)

let prog = "sat"
let budget = ref 0
let assumes = ref []
let anon = ref []

let specs =
  [
    ( "--conflict-budget",
      Arg.Set_int budget,
      "N stop with UNKNOWN after N conflicts (default unbounded)" );
    ( "--assume",
      Arg.Int (fun d -> assumes := d :: !assumes),
      "LIT assume the DIMACS literal LIT (repeatable); on UNSAT the failed \
       subset is reported" );
  ]

let usage = "sat solve FILE.cnf [options]  (see --help)"

let dimacs_of_lit l =
  let v = Solver.lit_var l + 1 in
  if Solver.lit_sign l then v else -v

let run fm assumptions =
  let s = Solver.create () in
  Cnf.add_formula s fm;
  let conflict_budget = if !budget > 0 then !budget else max_int in
  let r = Solver.solve ~assumptions ~conflict_budget s in
  Printf.printf "c vars=%d clauses=%d\n" fm.Cnf.fm_vars
    (List.length fm.Cnf.fm_clauses);
  Printf.printf "c conflicts=%d decisions=%d propagations=%d restarts=%d \
                 learned=%d\n"
    (Solver.num_conflicts s) (Solver.num_decisions s)
    (Solver.num_propagations s) (Solver.num_restarts s)
    (Solver.num_learned s);
  match r with
  | Solver.Sat ->
      print_endline "s SATISFIABLE";
      let b = Buffer.create 256 in
      Buffer.add_char b 'v';
      for v = 0 to fm.Cnf.fm_vars - 1 do
        Buffer.add_char b ' ';
        Buffer.add_string b
          (string_of_int (if Solver.model_value s v then v + 1 else -(v + 1)))
      done;
      Buffer.add_string b " 0";
      print_endline (Buffer.contents b);
      10
  | Solver.Unsat ->
      (if assumptions <> [] then
         let core =
           Solver.unsat_core s
           |> List.map (fun l -> string_of_int (dimacs_of_lit l))
         in
         Printf.printf "c core %s\n" (String.concat " " core));
      print_endline "s UNSATISFIABLE";
      20
  | Solver.Unknown ->
      print_endline "s UNKNOWN";
      0

let () =
  Arg.parse (Arg.align specs) (fun a -> anon := a :: !anon) usage;
  let path =
    match List.rev !anon with
    | [ "solve"; path ] -> path
    | _ -> Cli_common.usage_die ~prog usage
  in
  let text =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> text
    | exception Sys_error e -> Cli_common.usage_die ~prog e
  in
  let fm =
    match Cnf.of_dimacs text with
    | Ok fm -> fm
    | Error e -> Cli_common.usage_die ~prog (path ^ ": " ^ e)
  in
  let assumptions =
    List.rev_map
      (fun d ->
        if d = 0 || abs d > fm.Cnf.fm_vars then
          Cli_common.usage_die ~prog
            (Printf.sprintf "--assume %d out of range" d)
        else if d > 0 then Solver.pos (d - 1)
        else Solver.neg (-d - 1))
      !assumes
  in
  exit (run fm assumptions)
