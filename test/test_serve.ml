(* Chaos and protocol tests for the flowd supervisor (lib/serve).

   The daemon under test is a real forked process serving a real Unix
   socket; workers are its own forked children.  The tests SIGKILL
   workers mid-job, inject chaos kills, overrun budgets, send malformed
   and oversized requests, and SIGTERM the daemon — and assert that
   every reply is typed, every served result is byte-deterministic
   against an in-process baseline, and the daemon itself never dies. *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* ---- daemon + client harness ---- *)

let fresh_sock () =
  let path = Filename.temp_file "flowd" ".sock" in
  Sys.remove path;
  path

let start_daemon ?(workers = 2) ?(queue = 64) ?(max_attempts = 4)
    ?(chaos = 0.0) ?job_budget ?(max_request = 32 * 1024 * 1024)
    ?(warm = [ Cell_netlist.Tg_static ]) () =
  let sock = fresh_sock () in
  let cfg =
    {
      Server.default_config with
      Server.listen = Server.Unix_path sock;
      workers;
      queue_high_water = queue;
      max_attempts;
      retry_base_s = 0.01;
      retry_cap_s = 0.2;
      job_budget_s = job_budget;
      max_request_bytes = max_request;
      warm_families = warm;
      chaos_kill = chaos;
      seed = 7L;
    }
  in
  match Unix.fork () with
  | 0 ->
      (let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 devnull Unix.stderr;
       try Server.run cfg with _ -> ());
      Unix._exit 0
  | pid ->
      let rec wait n =
        if n = 0 then Alcotest.fail "daemon did not come up";
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX sock) with
        | () -> Unix.close fd
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            Unix.sleepf 0.05;
            wait (n - 1)
      in
      wait 200;
      (pid, sock)

let daemon_exit_code pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, Unix.WSIGNALED s -> Alcotest.fail (Printf.sprintf "daemon killed by %d" s)
  | _, Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped"

(* A failing assertion must not strand the daemon: it would inherit the
   test runner's stdout pipe and keep the whole suite's output open
   forever.  Every test body runs under this reaper. *)
let with_daemon (pid, sock) f =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f (pid, sock))

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; buf = Buffer.create 256 }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let send_line c line = write_all c.fd (line ^ "\n")

let recv_line ?(timeout = 120.0) c =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then Alcotest.fail "timed out waiting for a reply";
        (match Unix.select [ c.fd ] [] [] left with
        | [], _, _ -> Alcotest.fail "timed out waiting for a reply"
        | _ -> (
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> Alcotest.fail "daemon closed the connection"
            | n -> Buffer.add_subbytes c.buf chunk 0 n));
        go ()
  in
  go ()

let rpc c line =
  send_line c line;
  recv_line c

let parse_reply line =
  match Json_codec.parse line with
  | Ok j -> j
  | Error m -> Alcotest.fail (Printf.sprintf "unparseable reply %S: %s" line m)

let reply_field j k = Json_codec.mem_str j k
let reply_id j = Option.value (reply_field j "id") ~default:""
let is_ok j = reply_field j "status" = Some "ok"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_kind name expect j =
  Alcotest.(check string) name expect
    (Option.value (reply_field j "kind") ~default:"?")

(* ---- jobs ---- *)

let daemon_flow_base = Server.default_config.Server.flow

let submit_line ?(id = "") ?(name = "job") ?(family = Cell_netlist.Tg_static)
    ?(script = "b; rw; map; sta; lint") ?(params = Proto.default_params)
    circuit =
  Proto.submit_to_line
    {
      Proto.sub_id = id;
      sub_name = name;
      sub_format = Proto.Blif;
      sub_circuit = circuit;
      sub_script = script;
      sub_family = family;
      sub_params = params;
      sub_netlist = false;
    }

(* what the daemon must return: the same job computed in this process *)
let expected_result ?(name = "job") ?(family = Cell_netlist.Tg_static)
    ?(script = "b; rw; map; sta; lint") circuit =
  let sub =
    {
      Proto.sub_id = "";
      sub_name = name;
      sub_format = Proto.Blif;
      sub_circuit = circuit;
      sub_script = script;
      sub_family = family;
      sub_params = Proto.default_params;
      sub_netlist = false;
    }
  in
  let config = Job.flow_config ~base:daemon_flow_base sub in
  let steps = Job.parse_script sub in
  let aig = Job.parse_circuit sub in
  Job.result_json ~config ~steps ~aig sub

let bench_blif name = Blif.to_string ((Bench_suite.find name).Bench_suite.build ())

(* ---- basic protocol: ping, submit, cache, status, drain ---- *)

let test_basic () =
  with_daemon (start_daemon ()) @@ fun (pid, sock) ->
  let c = connect sock in
  let pong = parse_reply (rpc c (Proto.simple_to_line "ping")) in
  Alcotest.(check bool) "pong ok" true (is_ok pong);
  let circuit = bench_blif "add-16" in
  let r1 = parse_reply (rpc c (submit_line ~id:"a1" ~name:"add16" circuit)) in
  Alcotest.(check bool) "first ok" true (is_ok r1);
  Alcotest.(check (option bool)) "first uncached" (Some false)
    (Json_codec.mem_bool r1 "cached");
  (* byte-determinism against the in-process baseline *)
  Alcotest.(check bool) "result matches in-process run" true
    (Json_codec.member "result" r1
    = Result.to_option (Json_codec.parse (expected_result ~name:"add16" circuit)));
  (* resubmission: text-cache hit with the identical result *)
  let r2 = parse_reply (rpc c (submit_line ~id:"a2" ~name:"add16" circuit)) in
  Alcotest.(check (option bool)) "second cached" (Some true)
    (Json_codec.mem_bool r2 "cached");
  Alcotest.(check bool) "cached result identical" true
    (Json_codec.member "result" r1 = Json_codec.member "result" r2);
  (* status carries scheduler and library-cache counters *)
  let st = parse_reply (rpc c (Proto.simple_to_line "status")) in
  let result = Option.get (Json_codec.member "result" st) in
  let jobs = Option.get (Json_codec.member "jobs" result) in
  Alcotest.(check (option int)) "completed" (Some 1)
    (Json_codec.mem_int jobs "completed");
  Alcotest.(check (option int)) "cache hit" (Some 1)
    (Json_codec.mem_int jobs "cache_hits");
  let lib = Option.get (Json_codec.member "lib_cache" result) in
  Alcotest.(check bool) "lib cache characterized the warm family" true
    (Option.get (Json_codec.mem_int lib "entries") >= 1);
  Alcotest.(check bool) "lib cache counters present" true
    (Json_codec.mem_int lib "hits" <> None
    && Json_codec.mem_int lib "misses" <> None);
  let dr = parse_reply (rpc c (Proto.simple_to_line "drain")) in
  Alcotest.(check bool) "drain acknowledged" true (is_ok dr);
  close_conn c;
  Alcotest.(check int) "clean exit" 0 (daemon_exit_code pid);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

(* ---- the chaos batch: 50 pipelined jobs under injected SIGKILLs ---- *)

let test_chaos_batch () =
  let jobs =
    (* distinct (circuit, family, name) jobs; the batch cycles them so the
       coalescer and both cache paths are exercised too *)
    [
      ("add16", "add-16", Cell_netlist.Tg_static);
      ("t481", "t481", Cell_netlist.Tg_static);
      ("add16c", "add-16", Cell_netlist.Cmos);
      ("t481c", "t481", Cell_netlist.Cmos);
      ("add32", "add-32", Cell_netlist.Tg_static);
      ("c1908", "C1908", Cell_netlist.Tg_static);
    ]
  in
  let texts =
    List.map (fun (nm, bench, fam) -> (nm, bench_blif bench, fam)) jobs
  in
  (* the undisturbed sequential baseline, computed in this process *)
  let expected =
    List.map
      (fun (nm, text, fam) ->
        ( nm,
          Result.to_option
            (Json_codec.parse (expected_result ~name:nm ~family:fam text)) ))
      texts
  in
  with_daemon
    (start_daemon ~workers:3 ~chaos:0.15 ~max_attempts:8
       ~warm:[ Cell_netlist.Tg_static; Cell_netlist.Cmos ] ())
  @@ fun (pid, sock) ->
  let c = connect sock in
  let total = 50 in
  for i = 0 to total - 1 do
    let nm, text, fam = List.nth texts (i mod List.length texts) in
    send_line c
      (submit_line ~id:(Printf.sprintf "j%d:%s" i nm) ~name:nm ~family:fam text)
  done;
  let replies = List.init total (fun _ -> parse_reply (recv_line c)) in
  (* the daemon survived the whole batch *)
  Unix.kill pid 0;
  List.iter
    (fun r ->
      let id = reply_id r in
      Alcotest.(check bool) (id ^ " ok") true (is_ok r);
      let nm =
        match String.index_opt id ':' with
        | Some i -> String.sub id (i + 1) (String.length id - i - 1)
        | None -> Alcotest.fail ("bad id " ^ id)
      in
      Alcotest.(check bool)
        (id ^ " byte-identical to the sequential baseline")
        true
        (Json_codec.member "result" r = List.assoc nm expected))
    replies;
  let st = parse_reply (rpc c (Proto.simple_to_line "status")) in
  let jobs_j =
    Option.get (Json_codec.member "jobs" (Option.get (Json_codec.member "result" st)))
  in
  Alcotest.(check (option int)) "all fifty accepted" (Some total)
    (Json_codec.mem_int jobs_j "received");
  Alcotest.(check bool) "duplicates were coalesced or cached" true
    (Option.get (Json_codec.mem_int jobs_j "coalesced")
     + Option.get (Json_codec.mem_int jobs_j "cache_hits")
    >= total - List.length jobs);
  ignore (rpc c (Proto.simple_to_line "drain"));
  close_conn c;
  Alcotest.(check int) "clean exit after chaos" 0 (daemon_exit_code pid)

(* ---- an externally SIGKILLed worker: retried, then typed ---- *)

let test_worker_sigkill_retry () =
  with_daemon (start_daemon ~workers:1 ~max_attempts:4 ()) @@ fun (pid, sock) ->
  let c = connect sock in
  let circuit = bench_blif "add-16" in
  send_line c (submit_line ~id:"k1" ~script:"sleep(s=0.8); b" circuit);
  (* find the busy worker via the status op on a second connection *)
  let c2 = connect sock in
  let rec worker_pid n =
    if n = 0 then Alcotest.fail "no worker appeared";
    let st = parse_reply (rpc c2 (Proto.simple_to_line "status")) in
    let pids =
      Option.get (Json_codec.member "result" st)
      |> Json_codec.member "workers"
      |> Option.get |> Json_codec.member "pids" |> Option.get |> Json_codec.arr
      |> Option.get
      |> List.filter_map Json_codec.int_
    in
    match pids with
    | p :: _ -> p
    | [] ->
        Unix.sleepf 0.05;
        worker_pid (n - 1)
  in
  Unix.kill (worker_pid 100) Sys.sigkill;
  let r = parse_reply (recv_line c) in
  Alcotest.(check bool) "retried to completion" true (is_ok r);
  Alcotest.(check bool) "more than one attempt" true
    (Option.get (Json_codec.mem_int r "attempts") >= 2);
  let st = parse_reply (rpc c2 (Proto.simple_to_line "status")) in
  let jobs_j =
    Option.get (Json_codec.member "jobs" (Option.get (Json_codec.member "result" st)))
  in
  Alcotest.(check bool) "crash counted" true
    (Option.get (Json_codec.mem_int jobs_j "crashes") >= 1);
  Alcotest.(check bool) "retry counted" true
    (Option.get (Json_codec.mem_int jobs_j "retries") >= 1);
  ignore (rpc c (Proto.simple_to_line "drain"));
  close_conn c;
  close_conn c2;
  Alcotest.(check int) "clean exit" 0 (daemon_exit_code pid)

(* ---- a poison job that crashes every attempt: typed job-crashed ---- *)

let test_poison_job () =
  (* chaos 1.0 SIGKILLs every worker shortly after spawn; the 0.5s sleep
     guarantees the kill always lands before the job can finish *)
  with_daemon (start_daemon ~workers:1 ~chaos:1.0 ~max_attempts:3 ())
  @@ fun (pid, sock) ->
  let c = connect sock in
  let r =
    parse_reply
      (rpc c (submit_line ~id:"p1" ~script:"sleep(s=0.5); b" (bench_blif "add-16")))
  in
  Alcotest.(check (option string)) "typed failure" (Some "error")
    (reply_field r "status");
  check_kind "job-crashed" "job-crashed" r;
  Alcotest.(check (option int)) "attempts exhausted" (Some 3)
    (Json_codec.mem_int r "attempts");
  (* the daemon survived its workers *)
  Unix.kill pid 0;
  ignore (rpc c (Proto.simple_to_line "drain"));
  close_conn c;
  Alcotest.(check int) "clean exit" 0 (daemon_exit_code pid)

(* ---- budgets and typed SAT-budget exhaustion in a served job ---- *)

let test_budgets_and_cec () =
  with_daemon (start_daemon ~workers:1 ~job_budget:0.4 ())
  @@ fun (pid, sock) ->
  let c = connect sock in
  (* wall-clock budget: supervisor SIGKILL, typed job-budget reply *)
  let r =
    parse_reply
      (rpc c (submit_line ~id:"b1" ~script:"sleep(s=10)" (bench_blif "t481")))
  in
  check_kind "budget kill" "job-budget" r;
  (* SAT conflict budget inside a served job: Cec.Undecided territory must
     come back as a structured result with a cec-undecided Warning *)
  let r =
    parse_reply
      (rpc c
         (submit_line ~id:"b2" ~name:"add16" ~script:"b; rw; map; cec(budget=1)"
            (bench_blif "add-16")))
  in
  Alcotest.(check bool) "undecided CEC is still an ok reply" true (is_ok r);
  let result = Option.get (Json_codec.member "result" r) in
  Alcotest.(check (option bool)) "no crash" (Some false)
    (Json_codec.mem_bool result "pass_crashed");
  let diags =
    Option.get (Json_codec.arr (Option.get (Json_codec.member "diags" result)))
    |> List.filter_map Json_codec.str
  in
  Alcotest.(check bool) "cec-undecided diagnostic" true
    (List.exists (contains ~sub:"cec-undecided") diags);
  (* a script that fails to parse: deterministic typed reject, no retry *)
  let r =
    parse_reply
      (rpc c (submit_line ~id:"b3" ~script:"frobnicate" (bench_blif "t481")))
  in
  check_kind "bad script" "parse-error" r;
  Alcotest.(check (option int)) "rejected on the first attempt" (Some 1)
    (Json_codec.mem_int r "attempts");
  ignore (rpc c (Proto.simple_to_line "drain"));
  close_conn c;
  Alcotest.(check int) "clean exit" 0 (daemon_exit_code pid)

(* ---- bad pass arguments and params: typed reject, not a crash ---- *)

let test_param_ranges () =
  with_daemon (start_daemon ~workers:1 ()) @@ fun (pid, sock) ->
  let c = connect sock in
  let circuit = bench_blif "t481" in
  (* the plain job is served and cached first, so no reject below can be a
     text-cache hit in disguise *)
  let r = parse_reply (rpc c (submit_line ~id:"ok" circuit)) in
  Alcotest.(check bool) "plain job served" true (is_ok r);
  (* a raw line, as a client that misspells or predates the protocol sends
     it, with the plain job's script *)
  let raw ~id params =
    Printf.sprintf
      {|{"op":"submit","id":"%s","script":"b; rw; map; sta; lint","params":%s,"circuit":%s}|}
      id params
      (Json_codec.to_string (Json_codec.Str circuit))
  in
  List.iter
    (fun (id, names, line) ->
      (* twice: a rejected job is never cached *)
      for _ = 1 to 2 do
        let r = parse_reply (rpc c line) in
        check_kind (id ^ " rejected") "parse-error" r;
        Alcotest.(check (option int)) (id ^ " not retried") (Some 1)
          (Json_codec.mem_int r "attempts");
        let message = Option.value (reply_field r "message") ~default:"" in
        Alcotest.(check bool) (id ^ " names " ^ names) true
          (contains ~sub:names message)
      done)
    [
      ("c1", "cut", submit_line ~id:"c1" ~script:"map(cut=1)" circuit);
      ("m5", "max-cuts", submit_line ~id:"m5" ~script:"map(max-cuts=5)" circuit);
      ("typo", "cut-size", raw ~id:"typo" {|{"cut-size":9,"timng":true}|});
      ("stale", "timing", raw ~id:"stale" {|{"seed":7,"timing":true}|});
      ("mistyped", "seed", raw ~id:"mistyped" {|{"seed":"7"}|});
      ( "budget0",
        "conflict_budget",
        raw ~id:"budget0" {|{"conflict_budget":0}|} );
      ( "budget-7",
        "conflict_budget",
        raw ~id:"budget-7" {|{"conflict_budget":-7}|} );
    ];
  (* the two params keys that remain are accepted, and the daemon and the
     connection are fine afterwards *)
  let r =
    parse_reply (rpc c (raw ~id:"kept" {|{"seed":7,"conflict_budget":1000}|}))
  in
  Alcotest.(check bool) "seed and conflict_budget accepted" true (is_ok r);
  ignore (rpc c (Proto.simple_to_line "drain"));
  close_conn c;
  Alcotest.(check int) "clean exit" 0 (daemon_exit_code pid)

(* ---- load shedding and oversized-request framing recovery ---- *)

let test_overload_and_oversized () =
  with_daemon (start_daemon ~workers:1 ~queue:1 ~max_request:65536 ())
  @@ fun (pid, sock) ->
  let c = connect sock in
  (* occupy the worker, fill the one queue slot, then overflow it *)
  send_line c (submit_line ~id:"s0" ~script:"sleep(s=0.6)" (bench_blif "t481"));
  send_line c
    (submit_line ~id:"s1" ~name:"q1" ~script:"sleep(s=0.1)" (bench_blif "t481"));
  send_line c
    (submit_line ~id:"s2" ~name:"q2" ~script:"sleep(s=0.1)" (bench_blif "t481"));
  send_line c
    (submit_line ~id:"s3" ~name:"q3" ~script:"sleep(s=0.1)" (bench_blif "t481"));
  let replies = List.init 4 (fun _ -> parse_reply (recv_line c)) in
  let shed =
    List.filter (fun r -> reply_field r "kind" = Some "overloaded") replies
  in
  Alcotest.(check bool) "at least one job shed" true (List.length shed >= 1);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (reply_id r ^ " carries a positive retry_after")
        true
        (match Json_codec.member "retry_after" r with
        | Some v -> Option.get (Json_codec.num v) > 0.0
        | None -> false))
    shed;
  (* an oversized request poisons neither the daemon nor the connection *)
  let garbage = String.make 100_000 'x' in
  send_line c garbage;
  let r = parse_reply (recv_line c) in
  check_kind "oversized" "oversized" r;
  let pong = parse_reply (rpc c (Proto.simple_to_line "ping")) in
  Alcotest.(check bool) "framing recovered after oversized line" true
    (is_ok pong);
  ignore (rpc c (Proto.simple_to_line "drain"));
  close_conn c;
  Alcotest.(check int) "clean exit" 0 (daemon_exit_code pid)

(* ---- SIGTERM drain: finish in-flight, reject new, exit 0 ---- *)

let test_sigterm_drain () =
  with_daemon (start_daemon ~workers:1 ()) @@ fun (pid, sock) ->
  let c = connect sock in
  send_line c (submit_line ~id:"d1" ~script:"sleep(s=1.0); b" (bench_blif "t481"));
  Unix.sleepf 0.3;
  (* job is in flight *)
  Unix.kill pid Sys.sigterm;
  Unix.sleepf 0.1;
  send_line c (submit_line ~id:"d2" (bench_blif "t481"));
  let a = parse_reply (recv_line c) in
  let b = parse_reply (recv_line c) in
  let by_id id = if reply_id a = id then a else b in
  check_kind "new work rejected while draining" "draining" (by_id "d2");
  Alcotest.(check bool) "in-flight job still finished" true (is_ok (by_id "d1"));
  close_conn c;
  Alcotest.(check int) "drained exit" 0 (daemon_exit_code pid);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

(* ---- checkpoint resume after the whole driver is SIGKILLed ---- *)

let test_checkpoint_sigkill_resume () =
  let ck = Filename.temp_file "flow" ".ck" in
  Sys.remove ck;
  let entries =
    List.map Bench_suite.find [ "add-16"; "t481"; "add-32" ]
  in
  let config = { Flow.default_config with Flow.jobs = 1 } in
  let script = Flow.parse_script_exn "b; sleep(s=0.35); map" in
  let lines (r : Flow.bench_result) =
    List.map (fun (_, ctx, _) -> Flow.summary_line ctx) r.Flow.br_per_family
  in
  let run_with_checkpoint todo =
    let store = ref (Flow.Checkpoint.load ck) in
    let on_result r =
      store := !store @ [ Flow.Checkpoint.of_result r ~lines:(lines r) ];
      Flow.Checkpoint.save ck !store
    in
    ignore
      (Flow.run_matrix ~domains:1 ~config ~on_result ~script
         ~families:[ Cell_netlist.Tg_static ] todo)
  in
  (match Unix.fork () with
  | 0 ->
      (try run_with_checkpoint entries with _ -> ());
      Unix._exit 0
  | child ->
      (* let it finish at least one benchmark, then kill it mid-run *)
      let rec wait n =
        if n = 0 then Alcotest.fail "no checkpoint entry appeared";
        if Flow.Checkpoint.load ck = [] then begin
          Unix.sleepf 0.05;
          wait (n - 1)
        end
      in
      wait 400;
      Unix.kill child Sys.sigkill;
      ignore (Unix.waitpid [] child));
  let saved = Flow.Checkpoint.load ck in
  Alcotest.(check bool) "partial progress survived the SIGKILL" true
    (List.length saved >= 1 && List.length saved < 3);
  (* resume: recompute only what is missing, exactly like bin/flow *)
  let todo =
    List.filter
      (fun (e : Bench_suite.entry) ->
        not (Flow.Checkpoint.mem saved e.Bench_suite.name))
      entries
  in
  run_with_checkpoint todo;
  let final = Flow.Checkpoint.load ck in
  let resumed_lines =
    List.concat_map
      (fun (e : Bench_suite.entry) ->
        match
          List.find_opt
            (fun (k : Flow.Checkpoint.entry) ->
              k.Flow.Checkpoint.ck_bench = e.Bench_suite.name)
            final
        with
        | Some k -> k.Flow.Checkpoint.ck_lines
        | None -> Alcotest.fail ("missing benchmark " ^ e.Bench_suite.name))
      entries
  in
  (* the undisturbed run, straight through *)
  let fresh =
    Flow.run_matrix ~domains:1 ~config ~script
      ~families:[ Cell_netlist.Tg_static ] entries
    |> Array.to_list |> List.concat_map lines
  in
  Alcotest.(check (list string)) "resumed run is byte-identical" fresh
    resumed_lines;
  Sys.remove ck

let () =
  Alcotest.run "serve"
    [
      ( "flowd",
        [
          Alcotest.test_case "basic protocol and cache" `Quick test_basic;
          Alcotest.test_case "chaos batch determinism" `Slow test_chaos_batch;
          Alcotest.test_case "worker SIGKILL retry" `Quick
            test_worker_sigkill_retry;
          Alcotest.test_case "poison job bounded attempts" `Quick
            test_poison_job;
          Alcotest.test_case "budgets and cec-undecided" `Quick
            test_budgets_and_cec;
          Alcotest.test_case "out-of-range params rejected" `Quick
            test_param_ranges;
          Alcotest.test_case "overload and oversized" `Quick
            test_overload_and_oversized;
          Alcotest.test_case "sigterm drain" `Quick test_sigterm_drain;
          Alcotest.test_case "checkpoint sigkill resume" `Slow
            test_checkpoint_sigkill_resume;
        ] );
    ]
