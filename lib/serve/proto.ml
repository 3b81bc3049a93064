(* The flowd wire protocol: one JSON object per '\n'-terminated line, in
   both directions.  Requests:

     {"op":"submit","id":"j1","format":"blif","circuit":"...",
      "script":"synth(light); map(cut=5,timing); sta; lint",
      "family":"static","name":"add16",
      "params":{"seed":7,"conflict_budget":1000},"netlist":false}
     {"op":"status"}   {"op":"ping"}   {"op":"drain"}

   A pass's own parameters are arguments in the script, checked when it is
   parsed.  [params] holds only the two settings that span several passes:
   [seed] (verify, fault, cec) and [conflict_budget] (lint, fault, cec;
   at least 1).  Any other key is a parse-error naming it.

   Terminal replies carry the request's [id] plus a [status]:

     {"id":"j1","status":"ok","cached":false,"attempts":1,"result":{...}}
     {"id":"j1","status":"error","kind":"job-crashed","message":...,
      "attempts":3}

   The [result] object is a pure function of the job (circuit structure,
   script, family, params, name) — delivery metadata that may legitimately
   differ between runs (cache outcome, retry count) lives only in the
   envelope, so byte-comparing [result] across runs is meaningful. *)

type format = Blif | Bench

let format_name = function Blif -> "blif" | Bench -> "bench"

let format_of_name = function
  | "blif" -> Some Blif
  | "bench" -> Some Bench
  | _ -> None

(* Per-job overrides of the daemon's flow defaults.  Unset fields take the
   server's configuration; every field is part of the cache key.  Members
   the daemon cannot use (an unknown key, or a value of the wrong type) are
   kept in [invalid], so the job is rejected rather than run with defaults. *)
type params = {
  seed : int64 option;
  conflict_budget : int option;
  invalid : (string * Json_codec.t) list;
}

let default_params = { seed = None; conflict_budget = None; invalid = [] }

type submit = {
  sub_id : string;                    (* echoed in the reply envelope *)
  sub_name : string;                  (* circuit tag used in reports *)
  sub_format : format;
  sub_circuit : string;               (* BLIF or BENCH text *)
  sub_script : string;
  sub_family : Cell_netlist.family;
  sub_params : params;
  sub_netlist : bool;                 (* include the mapped BLIF in the result *)
}

type request =
  | Submit of submit
  | Status
  | Ping
  | Drain

(* Everything the supervisor can say about a job that did not finish.
   [Bad_request] and [Parse_error] are deterministic client errors and
   never retried; [Crashed] is transient (the worker died — retried with
   backoff up to the attempt bound); the budget kinds are typed verdicts
   of the supervisor itself. *)
type error_kind =
  | Bad_request
  | Parse_failed                      (* circuit or script failed to parse *)
  | Job_crashed
  | Job_budget                        (* wall-clock budget SIGKILL *)
  | Job_oom                           (* memory budget SIGKILL *)
  | Overloaded                        (* queue above the high-water mark *)
  | Draining
  | Oversized

let error_kind_name = function
  | Bad_request -> "bad-request"
  | Parse_failed -> "parse-error"
  | Job_crashed -> "job-crashed"
  | Job_budget -> "job-budget"
  | Job_oom -> "job-oom"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Oversized -> "oversized"

(* ---------------- request parsing (server side) ---------------- *)

let params_of_json j =
  match Json_codec.obj j with
  | None -> Error "submit: params must be an object"
  | Some members ->
      Ok
        (List.fold_right
           (fun (k, v) p ->
             match (k, Json_codec.int_ v) with
             | "seed", Some i -> { p with seed = Some (Int64.of_int i) }
             | "conflict_budget", Some i -> { p with conflict_budget = Some i }
             | _ -> { p with invalid = (k, v) :: p.invalid })
           members default_params)

let params_error p =
  match p.invalid with
  | [] -> None
  | (("seed" | "conflict_budget") as k, v) :: _ ->
      Some
        (Printf.sprintf "params.%s expects an integer, got %s" k
           (Json_codec.to_string v))
  | (k, _) :: _ ->
      Some
        (Printf.sprintf
           "params: unknown key %S (allowed: seed, conflict_budget; a pass's \
            own parameters are arguments in the script)"
           k)

let parse_request line : (request, string) result =
  match Json_codec.parse line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> (
      match Json_codec.mem_str j "op" with
      | None -> Error "missing op field"
      | Some "status" -> Ok Status
      | Some "ping" -> Ok Ping
      | Some "drain" -> Ok Drain
      | Some "submit" -> (
          let id = Option.value (Json_codec.mem_str j "id") ~default:"" in
          match
            ( Json_codec.mem_str j "circuit",
              Option.value (Json_codec.mem_str j "format") ~default:"blif" )
          with
          | None, _ -> Error "submit: missing circuit field"
          | Some _, fmt when format_of_name fmt = None ->
              Error (Printf.sprintf "submit: unknown format %S" fmt)
          | Some circuit, fmt ->
              let family_name =
                Option.value (Json_codec.mem_str j "family") ~default:"static"
              in
              let params =
                Option.fold ~none:(Ok default_params) ~some:params_of_json
                  (Json_codec.member "params" j)
              in
              (match (Cli_common.family_of_name family_name, params) with
              | None, _ ->
                  Error (Printf.sprintf "submit: unknown family %S" family_name)
              | _, (Error _ as e) -> e
              | Some family, Ok params ->
                  Ok
                    (Submit
                       {
                         sub_id = id;
                         sub_name =
                           Option.value (Json_codec.mem_str j "name")
                             ~default:"job";
                         sub_format = Option.get (format_of_name fmt);
                         sub_circuit = circuit;
                         sub_script =
                           Option.value (Json_codec.mem_str j "script")
                             ~default:"synth(light); map; sta; lint";
                         sub_family = family;
                         sub_params = params;
                         sub_netlist =
                           Option.value (Json_codec.mem_bool j "netlist")
                             ~default:false;
                       })))
      | Some op -> Error (Printf.sprintf "unknown op %S" op))

(* the request id of a line that failed to parse as a request, so error
   replies can still be correlated when the JSON itself was well-formed *)
let request_id line =
  match Json_codec.parse line with
  | Ok j -> Option.value (Json_codec.mem_str j "id") ~default:""
  | Error _ -> ""

(* ---------------- request printing (client side) ---------------- *)

let params_to_json p =
  let num i = Json_codec.Num (float_of_int i) in
  Json_codec.Obj
    (List.filter_map Fun.id
       [
         Option.map
           (fun s -> ("seed", Json_codec.Num (Int64.to_float s)))
           p.seed;
         Option.map (fun i -> ("conflict_budget", num i)) p.conflict_budget;
       ]
    @ p.invalid)

let submit_to_line (s : submit) =
  Json_codec.to_string
    (Json_codec.Obj
       [
         ("op", Json_codec.Str "submit");
         ("id", Json_codec.Str s.sub_id);
         ("name", Json_codec.Str s.sub_name);
         ("format", Json_codec.Str (format_name s.sub_format));
         ("family", Json_codec.Str (Cli_common.family_arg_name s.sub_family));
         ("script", Json_codec.Str s.sub_script);
         ("params", params_to_json s.sub_params);
         ("netlist", Json_codec.Bool s.sub_netlist);
         ("circuit", Json_codec.Str s.sub_circuit);
       ])

let simple_to_line op = Printf.sprintf "{\"op\":%S}" op

(* ---------------- reply printing (server side) ---------------- *)

(* Replies embed the result as a pre-rendered JSON string (the worker
   computed and cached it); the envelope is assembled around it. *)
let ok_reply ~id ~cached ~attempts ~result_json =
  Printf.sprintf "{\"id\":%s,\"status\":\"ok\",\"cached\":%b,\"attempts\":%d,\"result\":%s}"
    (Json_codec.to_string (Json_codec.Str id))
    cached attempts result_json

let error_reply ?(attempts = 0) ?retry_after ~id ~kind message =
  let b = Buffer.create 128 in
  Printf.bprintf b "{\"id\":%s,\"status\":\"error\",\"kind\":\"%s\",\"message\":%s"
    (Json_codec.to_string (Json_codec.Str id))
    (error_kind_name kind)
    (Json_codec.to_string (Json_codec.Str message));
  if attempts > 0 then Printf.bprintf b ",\"attempts\":%d" attempts;
  (match retry_after with
  | Some s -> Printf.bprintf b ",\"retry_after\":%s" (Json_codec.num_to_string s)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let pong_reply ~id =
  Printf.sprintf "{\"id\":%s,\"status\":\"ok\",\"result\":\"pong\"}"
    (Json_codec.to_string (Json_codec.Str id))
