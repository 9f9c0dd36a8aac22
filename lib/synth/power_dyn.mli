(** Dynamic power estimation from windowed switching activity.

    Folds a {!Cover.Activity} sampler (per-net toggle counts per cycle
    window, collected by [Backend.Nl_sim]) through a
    cell coefficient library into per-window power samples, cumulative
    energy and a per-module attribution aligned with the area/timing
    breakdowns of {!Flow.result}. *)

(** Cell coefficient library.  Capacitances are in fF (one transition
    costs [cap * vdd^2] fJ), leakage in uW per gate-equivalent. *)
type lib = {
  lib_name : string;
  cap_ff : Backend.Cell.kind -> float;
  clock_pin_cap_ff : float;  (** per flip-flop clock pin, charged 2x/cycle *)
  leakage_uw_per_ge : float;
}

(** Generic gate library: [cap = 1.5 + 2*area] fF, 1.0 fF clock
    pins, 0.12 uW/GE leakage. *)
val default_lib : lib

(** Techmap-aware library: uniform LUT4-class load for combinational
    cells (6.0 fF), heavier flip-flops (8.0 fF) and clock network
    (1.2 fF pins, 0.15 uW/GE), as after [Backend.Techmap]. *)
val lut4_lib : lib

type sample = {
  s_index : int;
  s_start : int;  (** first cycle of the window *)
  s_cycles : int;
  s_energy_pj : float;
  s_power_mw : float;
  s_by_module : (string * float) list;  (** per-module power, mW *)
}

type module_row = {
  pm_path : string;
  pm_energy_pj : float;
  pm_avg_mw : float;
  pm_toggles : int;
}

type report = {
  p_lib : string;
  p_freq_mhz : float;
  p_vdd : float;
  p_window : int;
  p_cycles : int;
  p_samples : sample list;
  p_total_energy_pj : float;
  p_avg_mw : float;
  p_peak_mw : float;
  p_leakage_mw : float;
  p_by_module : module_row list;
  p_peak_why : string option;
      (** hottest net of the peak window as ["net@cycle"] — the
          subject/cycle pair [osss_debug --why] expects *)
}

(** [analyze nl act] converts sampled activity into a power report
    (the sampler is {!Cover.Activity.flush}ed first so a trailing
    partial window is counted).  Defaults: 66 MHz, 1.8 V,
    {!default_lib}. *)
val analyze :
  ?freq_mhz:float -> ?vdd:float -> ?lib:lib -> Backend.Netlist.t ->
  Cover.Activity.t -> report

val reset_like : string -> bool
(** The input names the seeded stimulus convention holds at 0:
    ["ext_reset"], ["reset"] and ["rst"]. *)

(** [measure nl] simulates [nl] for [cycles] (default 256) under the
    deterministic seeded stimulus convention of [osss_debug]
    (reset-like inputs held released, every other input a pure function
    of seed/cycle/index) with the activity sampler on, then runs
    {!analyze} — a design-agnostic, reproducible power figure. *)
val measure :
  ?freq_mhz:float -> ?vdd:float -> ?lib:lib -> ?seed:int -> ?cycles:int ->
  ?window:int -> Backend.Netlist.t -> report

val to_json : report -> Obs.Json.t

(** Human-readable block: totals, peak, per-module table and the
    [osss_debug --why] pointer at the peak window. *)
val summary : report -> string

(** Write the power waveform as VCD: a real-valued [power_mw] in the
    root scope plus one per module (nested by instance path), stamped
    at each window boundary; the time unit is one simulation cycle. *)
val save_vcd : report -> string -> unit
