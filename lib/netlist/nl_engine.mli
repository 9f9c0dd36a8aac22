(** {!Engine} adapter for the gate-level netlist simulator
    ({!Nl_sim}).

    [kind] is ["netlist-event"] or ["netlist-full"] depending on the
    scheduling mode.  Input ports echo their last broadcast value (zero
    before the first drive) so the consolidated trace can record
    stimulus alongside outputs.  [Engine.lanes] reports the lane count,
    [Engine.set_input_lane] / [Engine.get_lane] address individual
    lanes, plain [Engine.set_input] broadcasts to every lane and
    [Engine.get], [Engine.probe], [Engine.cover] and
    [Engine.power_activity] read lane 0 — so in a lockstep differential
    the golden lane is what gets compared. *)

val create :
  ?label:string -> ?mode:Nl_sim.mode -> ?lanes:int -> Netlist.t -> Engine.t
(** [lanes] defaults to 1. *)

val create_word :
  ?label:string -> ?mode:Nl_sim.mode -> lanes:int -> Netlist.t -> Engine.t
(** [create] with a mandatory lane count. *)

val of_sim : ?label:string -> Nl_sim.t -> Engine.t
(** Wrap an existing simulator (e.g. one that already has faults
    injected via {!Nl_sim.inject_stuck_at}). *)
