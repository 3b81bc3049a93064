(** The flowd wire protocol: one JSON object per ['\n']-terminated line in
    both directions (see {!parse_request} / the reply builders).

    The [result] object of an [ok] reply is a pure function of the job;
    delivery metadata that may differ between runs of the same job (cache
    outcome, retry count) lives only in the envelope, so byte-comparing
    [result] across runs is meaningful — the chaos harness and
    [serve_bench] rely on this. *)

type format = Blif | Bench

val format_name : format -> string
val format_of_name : string -> format option

type params = {
  seed : int64 option;
      (** pattern seed of [verify], [fault] and [cec] *)
  conflict_budget : int option;
      (** SAT conflict cap of [lint], [fault] and [cec] *)
  invalid : (string * Json_codec.t) list;
      (** members the daemon cannot use — an unknown key, or a value of
          the wrong type — in request order; see {!params_error} *)
}
(** Per-job overrides of the daemon's flow defaults for the settings that
    span several passes; unset fields take the server configuration.  A
    pass's own parameters are arguments in the job's script.  Every field
    is part of the result-cache key. *)

val default_params : params

val params_error : params -> string option
(** The message naming the first {!params.invalid} member; a job whose
    params carry one is rejected as a [parse-error]. *)

val params_to_json : params -> Json_codec.t

type submit = {
  sub_id : string;       (** echoed in the reply envelope, not cached *)
  sub_name : string;     (** circuit tag used in reports (cache-keyed) *)
  sub_format : format;
  sub_circuit : string;  (** BLIF or BENCH text *)
  sub_script : string;
  sub_family : Cell_netlist.family;
  sub_params : params;
  sub_netlist : bool;    (** include the mapped BLIF in the result *)
}

type request =
  | Submit of submit
  | Status
  | Ping
  | Drain

type error_kind =
  | Bad_request   (** malformed request line — deterministic, not retried *)
  | Parse_failed  (** circuit or script failed to parse — not retried *)
  | Job_crashed   (** worker died; retried with backoff up to the bound *)
  | Job_budget    (** wall-clock budget SIGKILL *)
  | Job_oom       (** memory budget SIGKILL *)
  | Overloaded    (** queue above the high-water mark; see [retry_after] *)
  | Draining      (** daemon is shutting down gracefully *)
  | Oversized     (** request line exceeded the configured limit *)

val error_kind_name : error_kind -> string

val parse_request : string -> (request, string) result
(** Never raises; any malformed line is [Error reason]. *)

val request_id : string -> string
(** Best-effort [id] extraction from a line whose request failed
    validation, so the error reply can still be correlated. *)

val submit_to_line : submit -> string
val simple_to_line : string -> string
(** [simple_to_line op] for the bodyless ops [status], [ping], [drain]. *)

val ok_reply :
  id:string -> cached:bool -> attempts:int -> result_json:string -> string

val error_reply :
  ?attempts:int ->
  ?retry_after:float ->
  id:string ->
  kind:error_kind ->
  string ->
  string

val pong_reply : id:string -> string
