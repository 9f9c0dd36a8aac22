(** N-way lockstep differential simulation.

    The paper verifies that OSSS designs stay {e bit and cycle accurate}
    through every stage of the flow.  This harness drives one random
    (plus directed) stimulus stream into any number of {!Engine.t}
    instances — behavioural, RTL-interpreted, gate-level, in any mix —
    compares every output of every engine against the first (reference)
    engine after every cycle, and on the first divergence produces a
    {e minimal reproducer}: the stimulus window is shrunk to the
    shortest suffix that still reproduces a divergence from reset, and
    the mismatch window can be dumped as a single VCD covering all
    engines through the consolidated {!Engine.Trace} interface. *)

type mismatch = {
  at_cycle : int;
  port : string;
  expected : Bitvec.t;  (** reference engine's value *)
  got : Bitvec.t;
  ref_engine : string;  (** label of the reference engine *)
  got_engine : string;  (** label of the diverging engine *)
}

type provenance = {
  seed : int;  (** stimulus seed the run was driven from *)
  engines : string list;  (** instance labels, reference first *)
  lanes : int;  (** maximum lane count among the engines *)
}
(** Everything needed to re-create the run a reproducer came from. *)

type divergence = {
  first : mismatch;  (** first mismatch of the full run *)
  window_start : int;
      (** index into the original run where the shrunk window begins *)
  window : (string * Bitvec.t) list array;
      (** the shrunk reproducer: per-cycle input assignments that,
          replayed from reset, reproduce a divergence *)
  replay : mismatch option;
      (** the mismatch observed when replaying just [window] from
          reset (cycle numbers relative to the window) *)
  vcd : string option;
      (** waveforms of all engines over the replayed window, when
          requested *)
  provenance : provenance;
  causality : Obs.Event.t list;
      (** causal chain (effect first) behind the first mismatching
          output, from an automatic events-on replay of the shrunk
          window — fault injections along the way appear as [Fault]
          events.  [[]] when the window replay did not re-diverge.
          Render with [Obs.Causal]. *)
}

val pp_mismatch : Format.formatter -> mismatch -> unit
val pp_divergence : Format.formatter -> divergence -> unit

val differential :
  ?cycles:int ->
  ?seed:int ->
  ?drive:(int -> string * Bitvec.t -> Bitvec.t) ->
  ?shrink:bool ->
  ?dump_vcd:bool ->
  (unit -> Engine.t) list ->
  (int, divergence) result
(** [differential factories] instantiates every engine, drives all of
    them with identical stimulus and compares all outputs every cycle;
    the first factory builds the reference engine, whose input/output
    port lists define the interface (every engine must accept them).

    [drive cycle (name, random)] may override the stimulus for a port
    (default: pure random from [seed]).  [shrink] (default [true])
    minimizes the reproducer window by replaying recorded stimulus
    against fresh engine instances; [dump_vcd] (default [false])
    additionally replays the shrunk window under the consolidated
    trace and stores the VCD text in the report.

    [Ok n] reports the number of compared cycles.  Raises
    [Invalid_argument] with fewer than two factories. *)

(** {1 Lane-parallel fault campaign}

    Stuck-at fault simulation on the packed lanes of one {!Nl_sim}:
    one simulation carries the fault-free golden design in
    lane 0 and one faulty machine per extra lane, so every gate
    evaluation advances the golden run {e and} every fault candidate at
    once.  Detection is a packed xor against lane 0 per output port per
    cycle ({!Nl_sim.diverging_lanes}); a detected fault is then handed
    to the scalar {!differential} harness (golden scalar engine vs a
    single-lane faulty engine, same seed) for the usual
    shrink-and-replay minimal reproducer. *)

type lane_fault = { fault_net : Netlist.net; stuck_at : bool }

type fault_result = {
  fault : lane_fault;
  site : string;
      (** hierarchical description of the faulted net
          ({!Netlist.describe_net}, e.g. ["u_hist.count[3]"]) *)
  lane : int;
      (** the fault's 1-based position in the campaign's fault list
          (lane 0 of each shard simulation is golden).  With one shard
          this is exactly the physical lane that carried the fault; a
          sharded campaign re-indexes shard-local lanes to this stable
          campaign-wide numbering, so results are identical for every
          [jobs]. *)
  detected_at : int option;
      (** first cycle an output diverged from lane 0, if any *)
  detect_port : string option;
  shrunk : divergence option;
      (** minimal reproducer from the scalar differential replay *)
}

type campaign = {
  faults_total : int;
  faults_detected : int;
  campaign_cycles : int;  (** cycles simulated (stops once all detected) *)
  campaign_gate_evals : int;
      (** word-parallel gate evaluations spent on the whole campaign *)
  fault_results : fault_result list;
}

val pp_fault_result : Format.formatter -> fault_result -> unit

val fault_campaign :
  ?cycles:int ->
  ?seed:int ->
  ?drive:(int -> string * Bitvec.t -> Bitvec.t) ->
  ?mode:Nl_sim.mode ->
  ?shrink:bool ->
  ?jobs:int ->
  Netlist.t ->
  lane_fault list ->
  campaign
(** [fault_campaign nl faults] runs a [1 + faults-per-shard]-lane
    simulation under broadcast random stimulus (same protocol, default
    [seed] and [drive] override semantics as {!differential} — use
    [drive] e.g. to hold a reset released so faults propagate) for up to
    [cycles] (default [500]) cycles, stopping early once every fault has
    been observed at an output.  [shrink] (default [true]) replays each
    detected fault through {!differential} under the same [drive] for a
    shrunk stimulus window.

    [jobs] (default [Par.default_jobs ()]) splits the fault list into
    up to [jobs] contiguous shards, each simulated on its own domain
    with its own [Nl_sim] instance, and merges the shard results in
    fault order.  The stimulus is broadcast and faults are
    lane-isolated, so the merged [fault_results] — detection cycle,
    port, site, shrunk reproducer — are {e identical for every [jobs]}
    ([jobs = 1] runs the pre-sharding serial code inline).  Of the
    aggregates, [campaign_cycles] is the max over shards (equal to the
    serial figure) while [campaign_gate_evals] sums the work actually
    spent, which legitimately varies with the sharding. *)

val differential_sweep :
  ?cycles:int ->
  ?drive:(int -> string * Bitvec.t -> Bitvec.t) ->
  ?shrink:bool ->
  ?dump_vcd:bool ->
  ?jobs:int ->
  seeds:int list ->
  (unit -> Engine.t) list ->
  (int * (int, divergence) result) list
(** [differential_sweep ~seeds factories] runs one full
    {!differential} per stimulus seed — fresh engines each, created on
    the shard's own domain — and returns the per-seed results in seed
    order, [jobs] (default [Par.default_jobs ()]) sweeps at a time.
    One shard per seed: the work-stealing pool absorbs the cost skew
    of a diverging seed (shrink + events-on replay) against the
    straight-through ones.  Raises [Invalid_argument] with fewer than
    two factories.

    Factories run concurrently on several domains.  A factory over a
    netlist should be given one already frozen ({!Netlist.freeze}
    before the sweep): simulator creation builds and caches the frozen
    view on first use, and shards doing that at once each build their
    own copy and race on the cache. *)

val ir_vs_netlist :
  ?cycles:int ->
  ?seed:int ->
  ?drive:(int -> string * Bitvec.t -> Bitvec.t) ->
  Ir.module_def ->
  Netlist.t ->
  (int, divergence) result
(** {!differential} between the RTL interpretation of [design]
    (reference) and the event-driven gate-level simulation of the
    netlist. *)

val ir_vs_ir :
  ?cycles:int ->
  ?seed:int ->
  ?drive:(int -> string * Bitvec.t -> Bitvec.t) ->
  Ir.module_def ->
  Ir.module_def ->
  (int, divergence) result
(** Both designs must expose identically named and sized ports. *)
