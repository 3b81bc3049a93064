(** Argument conventions shared by every command-line driver.

    The binaries ([flow], [sta], [fault], [lint], [cntfet_map]) accept the
    same [--bench], [--family] and [--synth] vocabulary; this module is the
    single implementation of the name tables, the comma-separated family
    lists (including the ["all"] shorthand) and the benchmark-name
    resolution, with the per-binary [prog: message] + exit 2 error
    convention the original drivers used.

    A pass's parameters (cut size, timing mode, STA loads, rounds) are not
    shared flags: [flow] takes them only as arguments in its script, and
    the wrappers that keep such flags ([sta], [fault], [cntfet_map]) write
    them into the script they run, so {!Flow.parse_script} checks every
    value in one place. *)

val family_of_name : string -> Cell_netlist.family option
(** ["static"], ["pseudo"], ["pass-pseudo"], ["pass-static"], ["cmos"]. *)

val family_arg_name : Cell_netlist.family -> string
(** Inverse of {!family_of_name} — the short CLI name of a family. *)

val usage_die : prog:string -> string -> 'a
(** [prerr_endline (prog ^ ": " ^ msg); exit 2]. *)

val parse_families :
  prog:string -> ?allowed:Cell_netlist.family list -> string ->
  Cell_netlist.family list
(** Parses a comma-separated family list; ["all"] expands to [allowed]
    (default: every family) in {!Cell_netlist.all_families} order.  Dies
    with [prog: unknown family f] on names outside [allowed]. *)

val bench_entries : prog:string -> string list -> Bench_suite.entry list
(** Resolves benchmark names accumulated by a repeatable [--bench] flag
    (newest first, as [Arg.String] pushes them); [[]] means the whole
    suite.  Dies with [prog: unknown benchmark n] on unknown names. *)

val synth_steps : prog:string -> string -> string
(** Script fragment of a [--synth] mode: [none] -> [""], [light] ->
    ["light"], [full] -> ["resyn2rs"].  Dies with
    [prog: unknown synth mode m] otherwise. *)

val fast_subset : string list
(** The small-benchmark subset the harnesses use for quick runs. *)

val peak_rss_kb : unit -> int option
(** Peak resident-set size of this process in kB ([VmHWM] from
    [/proc/self/status]); [None] on platforms without procfs.  Used by the
    bench harnesses to record memory alongside wall time. *)

val nproc : unit -> int
(** The host's online CPU count from [nproc], the CPUs the kernel will
    schedule on; [Domain.recommended_domain_count] when [nproc] fails.
    The bench harnesses record it beside their timings. *)
