(** Drivers that regenerate the paper's evaluation artifacts.

    Each [run_*] function returns structured results; each [render_*]
    produces a markdown report comparing computed values against the
    published numbers in {!Paper_data}. *)

type char_source =
  | Computed   (** our switch-level characterization ({!Charlib}) *)
  | Published  (** the numbers printed in the paper's Table 2 *)

type options = {
  char_source : char_source;
  free_output_polarity : bool;
      (** CNTFET cells provide both output polarities (the paper's
          output-inverter convention); disabling charges inverters like
          CMOS (ablation) *)
  verify : bool;           (** check every mapping by random simulation *)
  verify_seed : int64;
      (** RNG seed of the verification patterns (default 2026) — explicit
          so CI runs are reproducible *)
}
(** Every Table 3 / Figure 6 run optimizes with [resyn2rs] and maps with
    {!Mapper.default_params} (cut size 6, the fixed unit-load FO4 delay)
    against libraries whose cell delay is the worst-case FO4 — the paper's
    setup. *)

val default_options : options

(** {1 Table 1} *)

val render_table1 : unit -> string

(** {1 Table 2} *)

type t2_row = {
  gate : string;
  family : Cell_netlist.family;
  computed : Charlib.row;
  published : Paper_data.gate_char option;
}

val run_table2 : unit -> t2_row list
val render_table2 : unit -> string

(** {1 Table 3 / Figure 6} *)

type t3_cell = {
  stats : Mapped.stats;
  cells_used : (string * int) list;
}

type t3_row = {
  bench : string;
  description : string;
  aig_size : int;                  (** AND nodes after synthesis *)
  static_r : t3_cell;
  pseudo_r : t3_cell;
  cmos_r : t3_cell;
}

val verify_by_simulation :
  ?seed:int64 -> ?rounds:int -> Aig.t -> Mapped.t -> bool
(** [rounds] batches of 64 random patterns (default 8) from a {!Rand64}
    stream seeded with [seed] (default 2026). *)

val libraries : options -> Cell_lib.t * Cell_lib.t * Cell_lib.t
(** (static, pseudo, cmos) — the default computed/free-polarity
    configuration is served from the process-wide {!Cell_lib.cached}
    cache. *)

val run_bench : options -> Cell_lib.t * Cell_lib.t * Cell_lib.t ->
  Bench_suite.entry -> t3_row

val run_table3 : ?options:options -> ?benches:string list -> unit -> t3_row list
val render_table3 : ?options:options -> ?benches:string list -> unit -> string

val render_fig6 : ?options:options -> ?benches:string list -> unit -> string

val summarize :
  t3_row list ->
  (string * float) list
(** Aggregate improvement metrics matching Table 3's last rows:
    gate/area/level/delay reductions and absolute speed-ups for both
    CNTFET families. *)
