(* The serve workload: a flowd daemon (Server.run in a forked process,
   2 workers, static library warmed) under three phases of load from one
   client process over one connection:
   - an open loop of seeded Poisson submissions, timed from each
     request's scheduled send time, whose first [warmup_s] are sent and
     checked but not timed; it gives the queueing and cache metrics of
     the server layer;
   - a serial loop of the same request mix, one request outstanding,
     each timed from its send: the end-to-end latency percentiles, and
     wall_s, the sum over the circuits of the median time to serve one
     fresh;
   - closed-loop bursts of fresh jobs that keep both workers fed: the
     capacity (server.capacity_jobs_per_s).

   The request mix is fixed in its counts and varies with the seed only
   in order, arrival times and which recent job a resubmission repeats:
   - 60% fresh: a pool circuit with a never-seen [seed] parameter, so both
     cache keys miss while the result stays equal to the circuit's
     in-process reference (the script runs no seeded pass);
   - 30% exact resubmissions of a recent request (text-key cache hits);
   - 10% structural variants: a recent request's circuit re-printed
     with a comment line, which misses the text key and hits the
     worker-side structural key.
   With 60% fresh the latency median lies inside the fresh jobs'
   distribution instead of on the edge between cached and fresh replies.

   Why the end-to-end times come from the serial loop: on the 2-CPU
   recording host a fresh job's latency with one job running reads the
   same to a few percent from second to second, while with both workers
   busy at once it switches, for seconds at a time, between that and
   about 1.8 times as much.  The open loop's tail and the bursts sample
   those switches, so that the open-loop p90 and the burst time spread
   by up to a quarter between runs of the same code; the serial loop's
   times spread by 4-7%. *)

(* Calibrated once on the 2-CPU recording host: at 30 submissions/s the
   two workers are about 25% busy (server.worker_busy_ratio). *)
let rate_per_s = 30.0
let warmup_s = 2.0
let open_share = 0.3  (* of the measuring window, after warm-up *)

(* Serial requests per second of the window: about 8 s of a 24 s window
   on the recording host. *)
let serial_per_s = 25.0

(* A resubmission repeats one of this many latest fresh jobs, well within
   the daemon's result cache (256 entries), so that it always hits. *)
let recent = 64
let script = "b; rw; map; sta"

(* The circuits fresh jobs cycle through: five of similar cost (19-31 ms
   served, in this order), the cheapest and the costliest drawn twice.
   With 60% fresh the mix's p50 and p90 are the 17th and 83rd
   percentiles of the fresh jobs, which then lie inside C1908's and
   C3540's latencies instead of on the edge between two circuits. *)
let pool = [ "C1908"; "C1908"; "C1355"; "t481"; "dalu"; "C3540"; "C3540" ]
let toy_pool = [ "add-16"; "t481" ]

(* Capacity: one warm-up burst, then the measured ones, each a closed
   loop that keeps every worker fed without piling requests up in the
   daemon's buffers. *)
let bursts = 5
let burst_jobs ~toy = if toy then 8 else 30
let burst_window = 4

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* The complete lines that arrive on [c] within [timeout] seconds. *)
let read_lines c timeout =
  match Unix.select [ c.fd ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> []
  | _ ->
      let chunk = Bytes.create 65536 in
      let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
      if n = 0 then failwith "flowd closed the connection";
      Buffer.add_subbytes c.buf chunk 0 n;
      let parts = String.split_on_char '\n' (Buffer.contents c.buf) in
      let rec split = function
        | [ rest ] ->
            Buffer.clear c.buf;
            Buffer.add_string c.buf rest;
            []
        | l :: tl -> l :: split tl
        | [] -> []
      in
      split parts

(* The next line; only used between phases, when at most one reply is
   due. *)
let read_line c =
  let give_up = Measure.now () +. 60.0 in
  let rec go () =
    match read_lines c 1.0 with
    | l :: _ -> l
    | [] when Measure.now () < give_up -> go ()
    | [] -> failwith "flowd did not answer"
  in
  go ()

let request c op =
  write_all c.fd (Proto.simple_to_line op ^ "\n");
  read_line c

(* ---------------- the daemon ---------------- *)

type daemon = { pid : int; conn : conn; mutable live : bool }

(* Forks the daemon and returns once it answered a ping: the elapsed time
   is the service's set-up (bind, library warm-up, first reply). *)
let start ~sock ~workers =
  let t0 = Measure.now () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (try
         let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
         Unix.dup2 devnull Unix.stderr;
         Server.run
           {
             Server.default_config with
             Server.listen = Server.Unix_path sock;
             workers;
             warm_families = [ Cell_netlist.Tg_static ];
           }
       with _ -> ());
      Unix._exit 0
  | pid ->
      let rec connect n =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX sock) with
        | () -> { fd; buf = Buffer.create 65536 }
        | exception Unix.Unix_error _ when n > 0 ->
            Unix.close fd;
            Unix.sleepf 0.002;
            connect (n - 1)
      in
      match
        let conn = connect 15000 in
        ignore (request conn "ping");
        conn
      with
      | conn -> ({ pid; conn; live = true }, Measure.now () -. t0)
      | exception e ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          raise e

(* Graceful drain, or SIGKILL when the daemon no longer answers. *)
let stop d =
  if d.live then begin
    (try ignore (request d.conn "drain")
     with _ -> ( try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
    Unix.close d.conn.fd;
    ignore (Unix.waitpid [] d.pid);
    d.live <- false
  end

(* ---------------- requests ---------------- *)

type kind = Fresh | Exact | Variant

type req = {
  id : string;
  kind : kind;
  circuit : string;
  line : string;
  sched : float;  (** send time, seconds after the phase starts *)
}

let submit ~id ~name ~text ~job_seed =
  {
    Proto.sub_id = id;
    sub_name = name;
    sub_format = Proto.Blif;
    sub_circuit = text;
    sub_script = script;
    sub_family = Cell_netlist.Tg_static;
    sub_params = { Proto.default_params with Proto.seed = Some job_seed };
    sub_netlist = false;
  }

let req ~id ~kind ~circuit ~text ~job_seed ~sched =
  let line =
    Proto.submit_to_line (submit ~id ~name:circuit ~text ~job_seed)
  in
  { id; kind; circuit; line; sched }

let uniform rng =
  Int64.to_float (Int64.shift_right_logical (Rand64.next rng) 11)
  /. 9007199254740992.0

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rand64.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A schedule of [n] requests: one fresh job per entry of [draws] first,
   then a seeded shuffle of the fixed mix, at Poisson arrival times; fresh
   jobs cycle through a seeded shuffle of [draws].  Ids are [tag] and the
   index; fresh job seeds are [seed0] plus the index. *)
let schedule rng ~texts ~draws ~tag ~seed0 ~n =
  let names = Array.of_list draws in
  shuffle rng names;
  let np = Array.length names in
  let n = max n np in
  let n_exact = n * 3 / 10 and n_variant = n / 10 in
  let kinds =
    Array.init (n - np) (fun i ->
        if i < n_exact then Exact
        else if i < n_exact + n_variant then Variant
        else Fresh)
  in
  shuffle rng kinds;
  let kinds = Array.append (Array.make np Fresh) kinds in
  let fresh = ref [] and n_fresh = ref 0 and t = ref 0.0 in
  Array.to_list kinds
  |> List.mapi (fun i kind ->
         t := !t -. (log (1.0 -. uniform rng) /. rate_per_s);
         let id = tag ^ string_of_int i in
         match kind with
         | Fresh ->
             let circuit = names.(!n_fresh mod np) in
             incr n_fresh;
             let job_seed = Int64.of_int (seed0 + i) in
             fresh := (circuit, job_seed) :: !fresh;
             req ~id ~kind ~circuit ~text:(List.assoc circuit texts)
               ~job_seed ~sched:!t
         | Exact | Variant ->
             let circuit, job_seed =
               List.nth !fresh (Rand64.int rng (min recent !n_fresh))
             in
             let text =
               (if kind = Variant then "# variant " ^ id ^ "\n" else "")
               ^ List.assoc circuit texts
             in
             req ~id ~kind ~circuit ~text ~job_seed ~sched:!t)
  |> Array.of_list

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* The raw [result] bytes of an ok reply, which end its envelope
   ({!Proto.ok_reply}). *)
let raw_result line =
  Option.map
    (fun i ->
      let s = i + String.length "\"result\":" in
      String.sub line s (String.length line - s - 1))
    (find_sub line "\"result\":")

type outcome = {
  ok : bool;  (** answered ok with the reference result *)
  t_sent : float;
  t_reply : float;
}

(* Sends each request at [t_base + sched], with at most [window]
   outstanding, and collects the replies, giving up [grace] seconds after
   the last scheduled send.  Returns the outcomes in request order and
   the most requests ever outstanding. *)
let drive c (reqs : req array) ~t_base ~window ~grace ~expected =
  let n = Array.length reqs in
  let index = Hashtbl.create n in
  Array.iteri (fun i r -> Hashtbl.replace index r.id i) reqs;
  let out = Array.make n None and sent = Array.make n 0.0 in
  let next = ref 0 and got = ref 0 and depth = ref 0 in
  let give_up =
    t_base +. (if n = 0 then 0.0 else reqs.(n - 1).sched) +. grace
  in
  let answer line =
    let t_reply = Measure.now () in
    match Json_codec.parse line with
    | Error _ -> ()
    | Ok j -> (
        match
          Option.bind (Json_codec.mem_str j "id") (Hashtbl.find_opt index)
        with
        | Some i when out.(i) = None ->
            let ok =
              Json_codec.mem_str j "status" = Some "ok"
              && raw_result line = Some (expected reqs.(i).circuit)
            in
            incr got;
            out.(i) <- Some { ok; t_sent = sent.(i); t_reply }
        | _ -> ())
  in
  while !got < n && Measure.now () < give_up do
    let tnow = Measure.now () in
    let due = !next < n && t_base +. reqs.(!next).sched <= tnow in
    if due && !next - !got < window then begin
      write_all c.fd (reqs.(!next).line ^ "\n");
      sent.(!next) <- Measure.now ();
      incr next;
      depth := max !depth (!next - !got)
    end
    else
      let wait =
        if !next < n && not due then t_base +. reqs.(!next).sched -. tnow
        else 0.05
      in
      List.iter answer (read_lines c wait)
  done;
  (out, !depth)

(* Request spans: the daemon's reply and, in the open loop, how late the
   generator sent the request. *)
let trace_requests reqs out ~t_base ~lag =
  Array.iteri
    (fun i r ->
      Option.iter
        (fun o ->
          if lag then
            ignore
              (Span.add ~parent:(-1) ~rid:r.id "loadgen.lag"
                 (t_base +. r.sched) o.t_sent);
          ignore
            (Span.add ~parent:(-1) ~rid:r.id "flowd.request" o.t_sent
               o.t_reply))
        out.(i))
    reqs

let status_counts c =
  let line = request c "status" in
  let jobs =
    Option.bind (Result.to_option (Json_codec.parse line)) (fun j ->
        Option.bind (Json_codec.member "result" j) (Json_codec.member "jobs"))
  in
  fun k ->
    match Option.bind jobs (fun j -> Json_codec.mem_int j k) with
    | Some v -> float_of_int v
    | None -> 0.0

let timed_ms name ?rid f =
  let t0 = Measure.now () in
  let r = Span.with_ ?rid name f in
  (r, 1000.0 *. (Measure.now () -. t0))

let num_field json k =
  match Json_codec.parse json with
  | Ok j ->
      Option.value (Option.bind (Json_codec.member k j) Json_codec.num)
        ~default:0.0
  | Error _ -> 0.0

(* In-process reference per pool circuit: (result json, parse ms,
   compute ms), computed the way a worker computes it. *)
let reference (circuit, text) =
  let sub = submit ~id:"ref" ~name:circuit ~text ~job_seed:0L in
  let aig, parse_ms =
    timed_ms "cio.parse" ~rid:circuit (fun () -> Job.parse_circuit sub)
  in
  let config = Job.flow_config ~base:Server.default_config.Server.flow sub in
  let steps = Job.parse_script sub in
  let json, compute_ms =
    timed_ms "job.compute" ~rid:circuit (fun () ->
        Job.result_json ~config ~steps ~aig sub)
  in
  (circuit, (json, parse_ms, compute_ms))

(* The latencies in ms of the requests [keep] selects that were answered
   ok, in request order, each from the time [from] gives it. *)
let latencies reqs out ~keep ~from =
  List.concat
    (List.mapi
       (fun i r ->
         match out.(i) with
         | Some o when o.ok && keep r -> [ 1000.0 *. (o.t_reply -. from r o) ]
         | _ -> [])
       (Array.to_list reqs))

let run ~toy ~seed ~seconds ~traced ~setup_samples ~workers ~out_dir =
  Span.reset ~enabled:traced;
  let draws = if toy then toy_pool else pool in
  let circuits = List.sort_uniq compare draws in
  let sock =
    Filename.concat out_dir (Printf.sprintf "flowd-%d.sock" (Unix.getpid ()))
  in
  let setups = ref [] in
  let rec start_n k =
    let t0 = Measure.now () in
    let d, s = start ~sock ~workers in
    ignore (Span.add ~rid:(string_of_int k) "flowd.start" t0 (Measure.now ()));
    setups := s :: !setups;
    if k + 1 < setup_samples then begin
      stop d;
      start_n (k + 1)
    end
    else d
  in
  let d = start_n 0 in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  (* the references run after the daemon forked, so it inherits nothing
     they warm *)
  let lib, char_ms =
    timed_ms "cell_lib.characterize" (fun () ->
        Cell_lib.cached Cell_netlist.Tg_static)
  in
  let texts =
    List.map
      (fun c -> (c, Blif.to_string ((Bench_suite.find c).Bench_suite.build ())))
      circuits
  in
  let refs = List.map reference texts in
  let expected c =
    let j, _, _ = List.assoc c refs in
    j
  in
  let failed = ref 0 in
  let count_failed out =
    Array.iter
      (function Some o when o.ok -> () | _ -> incr failed)
      out
  in
  let rng = Rand64.create seed in
  (* the open loop *)
  let warmup = if toy then 0.0 else warmup_s in
  let reqs =
    schedule rng ~texts ~draws ~tag:"o" ~seed0:0
      ~n:
        (int_of_float
           (Float.round (rate_per_s *. (warmup +. (open_share *. seconds)))))
  in
  let t_base = Measure.now () +. 0.05 in
  let cpu0 = Measure.reaped_children_cpu_s d.pid in
  let out, depth_max =
    drive d.conn reqs ~t_base ~window:max_int ~grace:(30.0 +. seconds)
      ~expected
  in
  count_failed out;
  trace_requests reqs out ~t_base ~lag:true;
  let count = status_counts d.conn in
  let busy =
    Layers.ratio
      (Measure.reaped_children_cpu_s d.pid -. cpu0)
      (float_of_int workers *. (Measure.now () -. t_base))
  in
  let lat kinds =
    latencies reqs out
      ~keep:(fun r -> r.sched >= warmup && List.mem r.kind kinds)
      ~from:(fun r _ -> t_base +. r.sched)
  in
  (* the serial loop: the same mix, all due at once, one outstanding *)
  let sreqs =
    schedule rng ~texts ~draws ~tag:"s" ~seed0:500_000
      ~n:(int_of_float (Float.round (serial_per_s *. seconds)))
    |> Array.map (fun r -> { r with sched = 0.0 })
  in
  let t0 = Measure.now () in
  let sout, _ =
    drive d.conn sreqs ~t_base:t0 ~window:1 ~grace:(30.0 +. seconds)
      ~expected
  in
  count_failed sout;
  trace_requests sreqs sout ~t_base:t0 ~lag:false;
  let serial_lat keep =
    latencies sreqs sout ~keep ~from:(fun _ o -> o.t_sent)
  in
  (* as for a flow workload, the sum over the circuits of the median time
     of one: here of serving it fresh *)
  let serial_wall_s =
    List.fold_left
      (fun a c ->
        a
        +. Measure.median
             (serial_lat (fun r -> r.kind = Fresh && r.circuit = c)))
      0.0 circuits
    /. 1000.0
  in
  (* capacity: closed-loop bursts of fresh jobs after a warm-up one; in a
     traced run the second measured one is traced, so the bursts also
     give the tracing overhead *)
  let names = Array.of_list draws in
  let burst b =
    let traced_b = traced && b = 2 in
    Span.on := traced_b;
    let reqs =
      Array.init (burst_jobs ~toy) (fun i ->
          let circuit = names.(i mod Array.length names) in
          req ~id:(Printf.sprintf "b%d_%d" b i) ~kind:Fresh ~circuit
            ~text:(List.assoc circuit texts)
            ~job_seed:(Int64.of_int (1_000_000 + (b * 1000) + i))
            ~sched:0.0)
    in
    let t0 = Measure.now () in
    let out, _ =
      drive d.conn reqs ~t_base:t0 ~window:burst_window
        ~grace:(30.0 +. seconds) ~expected
    in
    count_failed out;
    trace_requests reqs out ~t_base:t0 ~lag:false;
    let last =
      Array.fold_left
        (fun m -> function Some o -> Float.max m o.t_reply | None -> m)
        t0 out
    in
    Span.on := traced;
    (traced_b, last -. t0)
  in
  let walls = List.tl (List.init bursts burst) in
  let rss_kb = Measure.peak_rss_kb d.pid in
  stop d;
  let q = Measure.quantile in
  let walls_of t =
    List.filter_map (fun (t', w) -> if t = t' then Some w else None) walls
  in
  let sum k =
    List.fold_left (fun a (_, (j, _, _)) -> a +. num_field j k) 0.0 refs
  in
  let e2e =
    [
      ("wall_s", serial_wall_s);
      ("setup_s", Measure.median !setups);
      ("peak_rss_mb", float_of_int rss_kb /. 1024.0);
      ("area", sum "area");
      ("delay_tau", sum "sta_ps" /. Cell_lib.tau_ps lib);
      ("latency_p50_ms", q 0.5 (serial_lat (fun _ -> true)));
      ("latency_p90_ms", q 0.9 (serial_lat (fun _ -> true)));
    ]
  in
  let spans = Span.take () in
  let layers =
    if not traced then []
    else
      let compute_p50 =
        Measure.median (List.map (fun (_, (_, _, ms)) -> ms) refs)
      in
      let fresh_p50 = q 0.5 (lat [ Fresh ]) in
      let lag =
        List.concat
          (List.mapi
             (fun i r ->
               match out.(i) with
               | Some o -> [ 1000.0 *. (o.t_sent -. (t_base +. r.sched)) ]
               | None -> [])
             (Array.to_list reqs))
      in
      [
        ("cell_lib.characterize_ms", char_ms);
        ( "cio.parse_ms",
          Measure.median (List.map (fun (_, (_, ms, _)) -> ms) refs) );
        ("job.compute_p50_ms", compute_p50);
        ("server.fresh_latency_p50_ms", fresh_p50);
        ("server.cached_latency_p50_ms", q 0.5 (lat [ Exact ]));
        ("server.variant_latency_p50_ms", q 0.5 (lat [ Variant ]));
        ("server.overhead_p50_ms", fresh_p50 -. compute_p50);
        ("server.open_loop_p90_ms", q 0.9 (lat [ Fresh; Exact; Variant ]));
        ( "server.capacity_jobs_per_s",
          Layers.ratio
            (float_of_int (burst_jobs ~toy))
            (Measure.median (walls_of false)) );
        ( "server.cache_hit_ratio",
          Layers.ratio (count "cache_hits") (count "received") );
        ("server.coalesced", count "coalesced");
        ("server.retries", count "retries");
        ("server.crashes", count "crashes");
        ("server.queue_depth_max", float_of_int depth_max);
        ("server.worker_busy_ratio", busy);
        ("loadgen.lag_p99_ms", q 0.99 lag);
        ( "trace.overhead_pct",
          100.0
          *. (Layers.ratio (Measure.median (walls_of true))
                (Measure.median (walls_of false))
             -. 1.0) );
      ]
  in
  {
    Layers.attempted =
      Array.length reqs + Array.length sreqs + (bursts * burst_jobs ~toy);
    failed = !failed;
    inputs = circuits;
    samples = Array.length sreqs;
    e2e;
    layers;
    self_ms = Span.self_ms spans;
    spans = [ (0, spans) ];
  }
