let family_of_name = function
  | "static" -> Some Cell_netlist.Tg_static
  | "pseudo" -> Some Cell_netlist.Tg_pseudo
  | "pass-pseudo" -> Some Cell_netlist.Pass_pseudo
  | "pass-static" -> Some Cell_netlist.Pass_static
  | "cmos" -> Some Cell_netlist.Cmos
  | _ -> None

let family_arg_name = function
  | Cell_netlist.Tg_static -> "static"
  | Cell_netlist.Tg_pseudo -> "pseudo"
  | Cell_netlist.Pass_pseudo -> "pass-pseudo"
  | Cell_netlist.Pass_static -> "pass-static"
  | Cell_netlist.Cmos -> "cmos"

let usage_die ~prog msg =
  prerr_endline (prog ^ ": " ^ msg);
  exit 2

let parse_families ~prog ?(allowed = Cell_netlist.all_families) s =
  if s = "all" then
    List.filter (fun f -> List.mem f allowed) Cell_netlist.all_families
  else
    List.map
      (fun f ->
        match family_of_name f with
        | Some fam when List.mem fam allowed -> fam
        | _ -> usage_die ~prog ("unknown family " ^ f))
      (String.split_on_char ',' s)

let bench_entries ~prog = function
  | [] -> Bench_suite.all
  | names ->
      List.map
        (fun s ->
          match Bench_suite.find s with
          | e -> e
          | exception Not_found -> usage_die ~prog ("unknown benchmark " ^ s))
        (List.rev names)

let synth_steps ~prog = function
  | "none" -> ""
  | "light" -> "light"
  | "full" -> "resyn2rs"
  | m -> usage_die ~prog ("unknown synth mode " ^ m)

let fast_subset = [ "C1908"; "t481"; "C1355"; "add-16"; "add-32"; "add-64" ]

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  try
                    Scanf.sscanf
                      (String.sub line 6 (String.length line - 6))
                      " %d kB"
                      (fun v -> Some v)
                  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
                else go ()
          in
          go ())

let nproc () =
  match Unix.open_process_in "nproc 2>/dev/null" with
  | exception _ -> Domain.recommended_domain_count ()
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l -> (
          match int_of_string_opt (String.trim l) with
          | Some n when n >= 1 -> n
          | _ -> Domain.recommended_domain_count ())
      | _ -> Domain.recommended_domain_count ())
