(** Two-valued gate-level simulator — the "conventional RTL simulator"
    stand-in for the paper's simulation-speed comparison.  Flip-flops
    power up at 0.

    Every net carries [lanes] independent simulations packed bitwise
    into native ints (one word op per gate per {!lane_bits} lanes); a
    single-pattern simulation is [lanes = 1], the default.  Extra lanes
    carry independent stimulus streams ({!set_input_lane},
    {!set_input_packed}), per-lane stuck-at faults ({!inject_stuck_at})
    for lane-parallel fault campaigns, and per-lane toggle coverage and
    activity, so one run yields one collector per seed.  Lane 0 is the
    golden lane: the scalar views ({!get_output}, {!net_toggles},
    {!toggle_cover}, {!power_activity}, {!net_value}) read it.

    At creation the combinational cells are compiled, in topological
    order, into one flat opcode program that both modes evaluate.  The
    default {!Event_driven} mode is activity-based: cells are
    levelized at creation, each net knows its combinational readers, and
    a settle re-evaluates only cells where any lane of an input moved
    (one ascending sweep over the dirty levels).  {!Full_eval} evaluates
    everything every settle — both modes produce the same output values
    and the same per-net toggle counts, cycle for cycle. *)

type t

type mode =
  | Event_driven  (** dirty-set propagation (default) *)
  | Full_eval  (** every combinational cell, every settle *)

exception Combinational_loop of { module_name : string; net : int }
(** {!Netlist.Combinational_loop}: a combinational cycle through [net]
    in the named design — the gate-level counterpart of
    {!Rtl_sim.Combinational_loop}. *)

val lane_bits : int
(** Lanes packed per machine word ([Sys.int_size]: 63 on 64-bit). *)

val create : ?mode:mode -> ?lanes:int -> Netlist.t -> t
(** Checks the netlist and compiles its frozen view
    ({!Netlist.freeze}); raises {!Combinational_loop} naming the
    offending net on a combinational cycle, and [Invalid_argument] when
    [lanes < 1]. *)

val lanes : t -> int
val mode : t -> mode

val netlist : t -> Netlist.t

(** {1 Stimulus}

    In event-driven mode a changed net wakes its readers; in full-eval
    mode the value is just written.  Lane arguments are validated
    against [lanes]. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Broadcast: every lane sees the same port value. *)

val set_input_int : t -> string -> int -> unit

val set_input_lane : t -> lane:int -> string -> Bitvec.t -> unit
(** Drive one lane only; other lanes keep their values. *)

val set_input_packed : t -> string -> Bitvec.t array -> unit
(** Distinct per-lane stimulus in one call: element [i] of the array
    holds bit [i] of the port for every lane (width [lanes]) — i.e.
    [set_input_packed t p (Bitvec.transpose per_lane_values)]. *)

(** {2 Prebound input ports}

    {!set_input} pays a hash lookup per call; stimulus loops driving the
    same port every cycle bind it once and drive through the handle.
    Handles carry only netlist structure, so one is valid for any
    simulator instance over the same netlist. *)

type port

val in_port : t -> string -> port
(** Raises [Not_found] for an unknown input port. *)

val drive_port : t -> port -> Bitvec.t -> unit
(** Like {!set_input} but without the name lookup; bits of vectors up
    to 62 wide are extracted word-at-once rather than per-bit. *)

val drive_port_int : t -> port -> int -> unit
(** Broadcast the low bits of a two's-complement int (no [Bitvec]
    allocation at all). *)

(** {1 Observation} *)

val get_output : ?lane:int -> t -> string -> Bitvec.t
(** The port value seen by [lane] (default 0, the golden lane). *)

val get_output_int : ?lane:int -> t -> string -> int

val get_output_packed : t -> string -> Bitvec.t array
(** Inverse of {!set_input_packed}: bit [i] of the port across all
    lanes, per port bit ([Bitvec.transpose] recovers per-lane values). *)

val diverging_lanes : t -> string -> int list
(** Lanes whose current value of output [port] differs from lane 0, in
    ascending order — the per-cycle detection primitive of the
    lane-parallel fault campaign ([Equiv.fault_campaign]), computed on
    the packed words without unpacking lanes. *)

val net_value : t -> Netlist.net -> bool
(** Current lane-0 value of one net (read-only observation point). *)

val probes : t -> (string * Netlist.net) list
(** Hinted internal nets as hierarchical observation points, sorted by
    name ({!Netlist.describe_net}, e.g. ["u_hist.count[3]"]).  Port
    nets are excluded — they are observable under their port names. *)

(** {1 Execution} *)

val settle : t -> unit
(** Propagate combinational logic only. *)

val step : t -> unit
(** One clock cycle in every lane: settle, commit flip-flops, settle. *)

val run : t -> int -> unit

(** {1 Fault injection}

    Per-lane stuck-at forces: any value written to [net] in [lane] is
    overridden, which models a stuck-at fault at the driver output.
    Lane 0 is conventionally kept fault-free as the golden reference,
    but nothing enforces that. *)

val inject_stuck_at : t -> lane:int -> net:Netlist.net -> value:bool -> unit
(** Takes effect immediately (also on input and flip-flop nets) and
    persists for the rest of the run. *)

val faults : t -> int
(** Number of injected faults. *)

(** {1 Counters} *)

val cycles : t -> int

val gate_evals : t -> int
(** Cell evaluations so far, each advancing all lanes, flip-flop
    commits included (simulation-cost metric). *)

val cells_skipped : t -> int
(** Combinational evaluations avoided relative to a full settle
    (always 0 in {!Full_eval} mode). *)

val comb_cells : t -> int
val dff_cells : t -> int

val program : t -> int array
(** A copy of the compiled program: five ints per combinational cell,
    in frozen order — opcode, output net, then up to three input nets
    (unused slots 0). *)

val full_settles : t -> int
(** Settles that evaluated every combinational cell: all of them in
    {!Full_eval} mode, only the forced initial pass in
    {!Event_driven} mode. *)

val net_toggles : t -> Netlist.net -> int
(** Lane-0 value transitions of a net across clock cycles — the
    switching activity behind dynamic-power estimation. *)

val toggle_total : t -> int
(** Sum of {!net_toggles} over every net. *)

(** {1 Activity profiling}

    Per-net toggle ranking is always available; per-cell evaluation
    counts cost one increment per gate evaluation and are therefore
    off until {!enable_profile}. *)

val enable_profile : t -> unit
val profiling : t -> bool

val net_activity : t -> (string * int) list
(** Nets with at least one lane-0 toggle, most active first, labelled
    as {!Sched.net_labels}. *)

val cell_activity : t -> (string * int) list
(** Evaluations per combinational cell, most evaluated first,
    labelled ["<out-net>:<kind>"].  Empty unless {!enable_profile}
    was called before simulation. *)

(** {1 Toggle coverage and power sampling}

    One collector per lane, riding the per-cycle toggle accounting in
    both modes (so a disabled run pays one branch per changed word, and
    both modes record identical data).  Merge per-lane coverage via
    [Cover.Db.merge] for the multi-seed union. *)

val enable_toggle_cover : t -> unit
(** Start per-net toggle {e coverage} (directional 0->1 / 1->0 edges,
    as opposed to the always-on undirected toggle counters) in every
    lane, bits named as {!Sched.net_labels}.  Idempotent. *)

val toggle_cover : t -> Cover.Toggle.t option
(** Lane 0's collector; [None] before {!enable_toggle_cover}. *)

val lane_cover : t -> int -> Cover.Toggle.t option

val enable_power_sampler : ?window:int -> t -> unit
(** Allocate one windowed switching-activity sampler per lane over all
    nets ([window] cycles per window, default {!Cover.Activity} size).
    Idempotent; the first call wins. *)

val power_activity : t -> Cover.Activity.t option
(** Lane 0's sampler; [None] before {!enable_power_sampler}. *)

val lane_activity : t -> int -> Cover.Activity.t option

(** {1 Causal events and checkpointing} *)

val enable_events : t -> unit
(** Start emitting causal events into the global [Obs.Event] log
    (enabling it if needed): input edges as [Stimulus], net changes as
    [Net_change] caused by the latest change among the evaluated
    cell's input nets, flip-flop commits caused by the change that last
    moved the D input, and {!inject_stuck_at} as a [Fault] carrying its
    lane.  Events describe all lanes at once, valued with the lane-0
    bit; subjects are the {!Sched.net_labels}.  Fully supported in
    [Event_driven] mode; [Full_eval] records no change causality.
    Costs one branch per changed net while off. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Deep copy of the packed net values, scheduler state and cycle
    count.  Fault forces, toggle counters, coverage and profiles are
    not captured — a restore keeps whatever faults are armed. *)

val restore : t -> checkpoint -> unit
(** Rewind to a checkpoint taken on the same simulator; re-running the
    original stimulus afterwards is bit-identical in every lane. *)

val checkpoint_cycle : checkpoint -> int
