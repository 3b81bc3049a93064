(** Worker-side job execution: parsing, cache keying, flow run, result
    rendering.  Pure compute — process machinery lives in {!Server}. *)

exception Reject of string
(** Deterministic client error (malformed circuit, bad script): reported
    as a [parse-error] reply and never retried. *)

val parse_circuit : Proto.submit -> Aig.t
(** Raises {!Reject}. *)

val parse_script : Proto.submit -> Flow.step list
(** Raises {!Reject}. *)

val flow_config : base:Flow.config -> Proto.submit -> Flow.config
(** The submitted overrides resolved against the server defaults, with
    isolation forced on and within-job parallelism off.  Raises {!Reject}
    when the params carry an unknown key or a mistyped value
    ({!Proto.params_error}). *)

val cache_key :
  config:Flow.config -> steps:Flow.step list -> aig:Aig.t -> Proto.submit ->
  string
(** Content-addressed result key: MD5 over the canonical BLIF print of
    the parsed AIG (structure, not request text), the canonical script
    (which carries every per-pass setting), and the resolved config — so
    textual variants of one job, or an explicit parameter equal to the
    server default, share an entry. *)

val result_json :
  config:Flow.config -> steps:Flow.step list -> aig:Aig.t -> Proto.submit ->
  string
(** Runs the flow (isolated) and renders the deterministic result object:
    same job in, byte-identical JSON out — the property the result cache,
    retry logic, and the chaos harness all rest on. *)
