(** Static timing analysis over the cell library's delay model.

    Paths start at primary inputs (arrival 0) and flip-flop outputs
    (arrival = clock-to-q) and end at primary outputs or flip-flop data
    inputs (plus setup).  The critical path bounds the achievable clock
    frequency — the quantity the paper compares between the OSSS and the
    VHDL flows. *)

type report = {
  critical_ns : float;  (** longest register-to-register/IO path *)
  fmax_mhz : float;
  endpoint : string;  (** description of the critical endpoint *)
  levels : int;  (** logic depth in cells on the critical path *)
}

val analyze : Netlist.t -> report
(** One pass over the frozen topological order ({!Netlist.freeze});
    raises {!Netlist.Combinational_loop} on a combinational cycle, as
    does {!by_module}. *)

val meets : report -> freq_mhz:float -> bool
(** Does the netlist close timing at the given clock? (The ExpoCU
    requirement is 66 MHz.) *)

type module_row = {
  path : string;  (** instance path ({!Netlist.region_of}); [""] = top *)
  m_worst_ns : float;  (** worst arrival over the nets the module drives *)
  m_levels : int;  (** logic depth at that arrival *)
}

val by_module : Netlist.t -> module_row list
(** Per-module worst arrival times keyed on the netlist's region
    annotations, sorted by path — where the critical path spends its
    time, module by module. *)

val analyze_by_module : Netlist.t -> report * module_row list
(** [(analyze nl, by_module nl)] from one propagation. *)

val pp_report : Format.formatter -> report -> unit
