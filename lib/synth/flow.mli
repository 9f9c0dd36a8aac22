(** End-to-end synthesis flows (Figure 6), structured as a pipeline of
    named passes.

    Both flows share the back end (lowering, optimization, timing and
    area analysis); they differ in the front-end artifacts they emit —
    the OSSS flow materializes the resolved standard-SystemC
    intermediate files, the conventional flow goes through VHDL text.
    The measured differences between the two ExpoCU implementations
    therefore come from the designs the methodologies produce, not from
    back-end bias.

    Each pass records its wall-clock time, the artifacts it produced,
    its metrics (cell/area/timing before and after for the
    netlist-rewriting passes, each netlist analysed once per run) and,
    optionally, invariant checks: with [~check_invariants:true] the
    [opt] pass is followed by a BDD-based combinational equivalence
    check ({!Backend.Cec}) of its input against its output and by a
    bounded lockstep simulation of the two ({!opt_lockstep}).  Deltas are also
    accumulated into the global [Perf] registry under
    [flow.<pass>.cells_delta] / [flow.<pass>.area_delta_ge] /
    [flow.<pass>.critical_delta_ps]. *)

type kind = Osss | Vhdl

val kind_name : kind -> string

type lockstep = {
  stimulus : string;  (** ["random"] or ["directed"] *)
  cycles : int;  (** cycles compared *)
  first_mismatch : Backend.Equiv.mismatch option;
      (** first output that differed, with its port and cycle *)
}
(** One bounded lockstep run of a pass's input netlist (reference,
    labelled ["lowered"]) against its output (["optimised"]). *)

type pass = {
  pass_name : string;
  elapsed_ms : float;  (** CPU time spent in the pass *)
  artifacts : string list;
      (** names of the intermediate files this pass contributed *)
  metrics : (string * float) list;
      (** ordered pass-specific figures, e.g. [cells_before],
          [cells_after], [area_after_ge], [critical_after_ns] *)
  invariant : Backend.Cec.verdict option;
      (** before-vs-after equivalence verdict, when requested and the
          pass rewrites the netlist *)
  lockstep : lockstep list;
      (** before-vs-after lockstep runs, when requested ([opt] only) *)
}

val opt_lockstep :
  ?directed:int * (int -> string * Bitvec.t -> Bitvec.t) ->
  Backend.Netlist.t ->
  Backend.Netlist.t ->
  lockstep list
(** [opt_lockstep before after] drives both netlists ({!Backend.Nl_engine})
    in lockstep through {!Backend.Equiv.differential} and compares every
    output every cycle: 1000 cycles of seeded random stimulus with
    reset-like inputs held released ({!Power_dyn.reset_like}), then,
    when given, [directed = (cycles, drive)] — a [drive] function as
    {!Backend.Equiv.differential} takes it, e.g.
    [Expocu.Expocu_top.directed_frame]. *)

val pp_lockstep : Format.formatter -> lockstep -> unit

val pass_metric : pass -> string -> float option

type layout = {
  luts : int;
  ffs : int;
  depth : int;  (** LUT levels on the longest path *)
  grid : int * int;
  utilization : float;
  wirelength : float;
  post_fmax_mhz : float;
}

type module_breakdown = {
  bm_path : string;
      (** dot-separated instance path; [""] is the top module *)
  bm_cells : int;
  bm_ffs : int;
  bm_area : float;  (** gate equivalents *)
  bm_worst_ns : float;  (** worst arrival among the module's cells *)
  bm_power_mw : float option;
      (** average dynamic power, joined from the power pass when
          [~power_cycles] was given *)
}

type result = {
  flow_kind : kind;
  design : Ir.module_def;  (** as given, hierarchical *)
  flat : Ir.module_def;
  intermediate : (string * string) list;
      (** artifact name -> text, accumulated over all passes.
          Front-end artifacts are emitted at both hierarchy stages and
          labeled: unsuffixed names are pre-flatten, [_flat] names are
          post-flatten; [_netlist_raw.v] is the lowered netlist before
          optimization, [_netlist.v] after. *)
  netlist : Backend.Netlist.t;  (** optimized *)
  raw_cells : int;  (** cell count before optimization *)
  area : Backend.Area.report;
  timing : Backend.Timing.report;
  by_module : module_breakdown list;
      (** per-instance area/timing breakdown over the optimized netlist,
          keyed on the region annotations hierarchy-preserving lowering
          attached ({!Backend.Netlist.region_of}); sorted by path *)
  structure : string;  (** analyzer report *)
  passes : pass list;  (** the full pass trace, in execution order *)
  layout : layout option;  (** populated by [~layout:true] *)
  power : Power_dyn.report option;  (** populated by [~power_cycles] *)
}

val run :
  ?fold:bool ->
  ?check_invariants:bool ->
  ?directed:int * (int -> string * Bitvec.t -> Bitvec.t) ->
  ?layout:bool ->
  ?power_cycles:int ->
  kind ->
  Ir.module_def ->
  result
(** [check_invariants] (default [false]) runs CEC and
    {!opt_lockstep} (with [directed], when given) around the [opt]
    pass; [layout] (default [false]) extends the
    pipeline through technology mapping and place & route;
    [power_cycles] adds a dynamic-power pass that simulates the
    optimized netlist for that many cycles of deterministic seeded
    stimulus ({!Power_dyn.measure}; the techmap-aware library when
    [layout] also ran) and joins per-module averages into
    [by_module]. *)

val pass_table : result -> string
(** One line per pass: name, time, cell/area/timing deltas, invariant
    verdict. *)

val pass_json : pass -> Obs.Json.t
(** One pass as JSON: name, elapsed_ms, artifacts, metrics, and the
    invariant verdict when one was checked. *)

val result_json : result -> Obs.Json.t
(** The whole flow result as JSON — design, final area/timing, the
    pass table ({!pass_json} per pass), and layout when present.
    Machine-readable counterpart of {!summary}. *)

val summary : result -> string
(** Synthesis report: area, fmax, cell mix, then the pass table. *)
