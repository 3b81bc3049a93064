(* In-memory span recorder for the benchmark's traced runs.

   Spans are recorded only around calls the benchmark makes into the
   library layers (the library itself carries no tracing), kept in memory,
   and written out once at exit as Chrome trace-event JSON.  A span's
   self time is its duration minus the part of it covered by its
   children; the children of one span never overlap because every span
   is opened and closed by the single thread that runs the benchmark
   loop. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  rid : string;  (** request id: the circuit, or the served job's id *)
  t0 : float;
  t1 : float;
}

let on = ref false
let next_id = ref 0
let stack : int list ref = ref []
let spans : t list ref = ref []

let reset ~enabled =
  on := enabled;
  next_id := 0;
  stack := [];
  spans := []

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with p :: _ -> p | [] -> -1

(* A span with explicit bounds under [parent], for intervals measured by
   someone else (the mapper's phase breakdown, a served request). *)
let add ?(parent = current ()) ?(rid = "") name t0 t1 =
  if !on then begin
    let id = fresh_id () in
    spans := { id; parent; name; rid; t0; t1 } :: !spans;
    id
  end
  else -1

let with_ ?(rid = "") name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        stack := List.tl !stack;
        spans := { id; parent; name; rid; t0; t1 } :: !spans)
      f
  end

(* Everything recorded since [reset], oldest first. *)
let take () =
  let s = List.rev !spans in
  spans := [];
  s

(* Self time per span name, in ms, summed over [s]. *)
let self_ms (s : t list) =
  let child = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child sp.parent
          (Option.value (Hashtbl.find_opt child sp.parent) ~default:0.0
          +. (sp.t1 -. sp.t0)))
    s;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let own =
        sp.t1 -. sp.t0
        -. Option.value (Hashtbl.find_opt child sp.id) ~default:0.0
      in
      Hashtbl.replace acc sp.name
        (Option.value (Hashtbl.find_opt acc sp.name) ~default:0.0
        +. (1000.0 *. own)))
    s;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* Chrome trace-event JSON ("X" complete events, microseconds); [pid]
   separates the groups — one per forked repeat — whose ids are local. *)
let write_chrome path (groups : (int * t list) list) =
  let open Json_codec in
  let t_min =
    List.fold_left
      (fun m (_, s) -> List.fold_left (fun m sp -> Float.min m sp.t0) m s)
      infinity groups
  in
  let ev pid sp =
    Obj
      [
        ("name", Str sp.name);
        ("ph", Str "X");
        ("ts", Num (Float.round (1e6 *. (sp.t0 -. t_min))));
        ("dur", Num (Float.round (1e6 *. (sp.t1 -. sp.t0))));
        ("pid", Num (float_of_int pid));
        ("tid", Num 1.0);
        ( "args",
          Obj
            [
              ("id", Num (float_of_int sp.id));
              ("parent", Num (float_of_int sp.parent));
              ("rid", Str sp.rid);
            ] );
      ]
  in
  let events =
    List.concat_map (fun (pid, s) -> List.map (ev pid) s) groups
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string (Obj [ ("traceEvents", Arr events) ]));
      output_char oc '\n')
