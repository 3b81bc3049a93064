(** Mapped netlists: the result of technology mapping, with the statistics
    the paper's Table 3 reports (gate count, area, logic depth, normalized
    and absolute delay), plus simulation for verification. *)

type driver =
  | Pi of int        (** primary input index *)
  | Inst of int      (** instance index *)
  | Const of bool

type net = { driver : driver; negated : bool }
(** [negated] uses the complemented value of the driver — free for
    free-phase (ambipolar) libraries whose cells expose both polarities,
    and for complemented constants/inputs where the library allows it. *)

type cover = {
  root_lit : int;
  fanin_lits : int array;
  cut_nodes : int array;
      (** the structural cut of the source AIG the cover was derived from,
          {e before} support reduction — node ids, ascending.  Equal to the
          fanin nodes when the cut function depended on every leaf; wider
          when the mapper shrank a don't-care leaf away.  Lets a checker
          re-derive the cut function structurally even for support-reduced
          instances. *)
}
(** Provenance of an instance with respect to the source AIG it was mapped
    from: the instance output carries the value of AIG literal [root_lit],
    and fanin [i] carries the value of AIG literal [fanin_lits.(i)] (the
    cut leaf, in the polarity the match consumes it).  Recorded by
    {!Mapper.map} so that a static checker ({!Map_lint}) can re-derive and
    verify every covered cut function without re-running the mapper. *)

type instance = {
  cell_name : string;
  area : float;
  delay : float;  (** fixed unit-load FO4 delay (the legacy convention) *)
  drive : Charlib.drive option;
      (** output drive for load-dependent delay; [None] when the cell was
          not characterized *)
  fanin_caps : float array;
      (** capacitance each fanin pin presents to its driver, permuted to
          fanin order; [[||]] when unknown (one reference load assumed) *)
  fanins : net array;
  tt : int64;  (** output function over the fanin values (Tt convention) *)
  cover : cover option;  (** [None] when the provenance is unknown (e.g.
                             netlists built by hand or read from a file) *)
}

type t = {
  lib_name : string;
  tau_ps : float;
  num_inputs : int;
  input_names : string array;
  instances : instance array;  (** topologically ordered *)
  outputs : (string * net) array;
}

type stats = {
  gates : int;
  area : float;
  levels : int;
  norm_delay : float;  (** unit-load: sum of fixed FO4 delays (legacy) *)
  abs_delay_ps : float;
  sta_norm_delay : float;
      (** load-aware: arrival under {!instance_delays} with the default
          [Loaded 4.0] model (real fanout loads, FO4 primary outputs) *)
  sta_abs_delay_ps : float;
}

val stats : t -> stats

(** {1 Delay models}

    [Unit_load] charges every instance its fixed [delay] field — the
    paper's FO4-per-cell convention.  [Loaded po_fanout] computes each
    instance's delay from its {e actual} output load — the sum of the
    fanin-pin capacitances it drives, plus [po_fanout] reference-inverter
    loads on every primary output — through {!Charlib.drive_delay}. *)

type delay_model = Unit_load | Loaded of float

val output_loads : ?po_fanout:float -> t -> float array
(** Capacitive load on each instance output (default [po_fanout] 4.0). *)

val instance_delays : ?model:delay_model -> t -> float array
(** Per-instance delay under the model (default [Loaded 4.0]). *)

val arrival_times_with : t -> float array -> float array
(** Arrival times given per-instance delays (topological propagation). *)

val arrival_times : t -> float array
(** Per-instance arrival (sum of cell delays along the slowest path).
    Equals [arrival_times_with m (instance_delays ~model:Unit_load m)]. *)

val instance_levels : t -> int array

val simulate : t -> int64 array -> int64 array
(** 64 parallel patterns: word per input, word per output. *)

val simulate_values : t -> int64 array -> int64 array
(** Like {!simulate} but returns the packed value of every {e instance}
    (indexed like [instances]); output nets are [net_value] over these.
    The fault simulator resimulates fanout cones against this baseline. *)

val net_value : int64 array -> int64 array -> net -> int64
(** [net_value input_words instance_vals net] resolves one net against
    packed input/instance values, applying the net's polarity. *)

val eval_instance : int64 array -> int64 array -> instance -> int64
(** One instance's packed output word given packed input words and the
    packed values of (at least) its fanin instances.  Evaluates all 64
    patterns at once, with at most [2^k - 1] word muxes for [k] fanins;
    only the low [2^k] bits of [tt] are read. *)

val eval : t -> bool array -> bool array

val to_aig : t -> Aig.t
(** Re-expands every instance function into AND/INV logic — used to verify
    a mapping against its source AIG with the {!Cec} checker. *)

val count_cells : t -> (string * int) list
(** Instance count per cell name, descending. *)

val pp_stats : Format.formatter -> t -> unit
