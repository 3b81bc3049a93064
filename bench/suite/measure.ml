(* Timing, process and statistics helpers shared by the workloads. *)

let now = Unix.gettimeofday

(* Process CPU time (every domain, user + system) in seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear-interpolation quantile (0 <= q <= 1); 0 for an empty sample,
   which only arises when every measurement of it failed (and was
   counted as failed). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Runs [f] in a forked child and returns its marshalled result; the
   child's own state (memo caches, heap) dies with it, so every call
   starts from the parent's state.  [Error] carries the reason a child
   failed. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  let r, w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let code =
        match f () with
        | v ->
            Marshal.to_channel oc (Ok v : ('a, string) result) [];
            0
        | exception e ->
            Marshal.to_channel oc
              (Error (Printexc.to_string e) : ('a, string) result)
              [];
            1
      in
      close_out oc;
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> Error "child died without a result"
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      (match (v, status) with
      | Ok _, Unix.WEXITED 0 -> v
      | Error _, _ -> v
      | Ok _, _ -> Error "child exited abnormally")

(* Peak resident set of process [pid] in kB ([VmHWM]); 0 when unknown. *)
let peak_rss_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0
            | l when String.starts_with ~prefix:"VmHWM:" l -> (
                try Scanf.sscanf l "VmHWM: %d kB" Fun.id with _ -> 0)
            | _ -> go ()
          in
          go ())

let self_rss_kb () = peak_rss_kb (Unix.getpid ())

(* CPU seconds of the children process [pid] has reaped ([cutime] +
   [cstime] of /proc/PID/stat, in USER_HZ = 100 ticks); 0 when unknown. *)
let reaped_children_cpu_s pid =
  let line =
    match open_in (Printf.sprintf "/proc/%d/stat" pid) with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> In_channel.input_line ic)
  in
  match line with
  | None -> 0.0
  | Some s -> (
      let after = String.rindex s ')' + 2 in
      let fields =
        String.split_on_char ' ' (String.sub s after (String.length s - after))
      in
      match (List.nth_opt fields 13, List.nth_opt fields 14) with
      | Some u, Some k -> (
          match (float_of_string_opt u, float_of_string_opt k) with
          | Some u, Some k -> (u +. k) /. 100.0
          | _ -> 0.0)
      | _ -> 0.0)

(* Online CPUs as the scheduler sees them ([nproc]); falls back to the
   runtime's estimate. *)
let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l -> (
          match int_of_string_opt (String.trim l) with
          | Some n when n >= 1 -> n
          | _ -> Domain.recommended_domain_count ())
      | _ -> Domain.recommended_domain_count ())

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* The checked-out commit, read from [.git] without running git (the
   benchmark may run from an exported tree, where it is "unknown"). *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      match String.index_opt head ' ' with
      | Some i when String.starts_with ~prefix:"ref:" head -> (
          let r =
            String.trim (String.sub head (i + 1) (String.length head - i - 1))
          in
          match read_file (Filename.concat ".git" r) with
          | Some h -> String.trim h
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some p ->
                  String.split_on_char '\n' p
                  |> List.find_map (fun l ->
                         match String.split_on_char ' ' l with
                         | [ h; name ] when name = r -> Some h
                         | _ -> None)
                  |> Option.value ~default:"unknown"))
      | _ -> head)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end
