(** First-class simulation engines.

    Every simulator in the flow — the behavioural kernel level, the RTL
    interpreter and the gate-level netlist simulator — is wrapped into
    one interface: named, sized ports driven with {!set_input} and read
    with {!get}, a {!settle}/{!step}/{!run} execution model with one
    [step] per clock cycle, and activity counters ({!stats}).  The
    N-way lockstep differential harness ([Backend.Equiv]), the traces
    and the benchmarks all consume this interface, so a new simulation
    backend only has to provide an {!S} implementation to plug into
    equivalence checking, waveforms and the performance reports.

    {b Thread affinity.}  Engines are {e not} domain-safe: every
    backend keeps plain mutable simulation state (net values, pending
    queues, schedulers) with no internal locking.  The contract for
    parallel campaigns (the [Par] domain pool) is {e one engine per
    domain, never shared}: create an engine {e inside} the shard that
    steps it — the engine factories of [Backend.Equiv] exist exactly
    for this — and let it die with the shard.  Read-only inputs
    ([Netlist.t], [Ir.module_def]) may be shared across shards; live
    engines, checkpoints and collectors obtained from an engine
    ([cover], [power_activity]) must stay on the domain that created
    them.  The process-global observability substrate ([Perf],
    [Obs.Span], [Obs.Hist], [Obs.Log]) is domain-safe, but the causal
    event ring ([Obs.Event]) is a single per-process buffer — engines
    with {!S.enable_events} on must not step concurrently. *)

module type S = sig
  type t

  val kind : string
  (** Static backend name, e.g. ["rtl-interp"] or ["netlist-event"]. *)

  val inputs : t -> (string * int) list
  (** Input ports with widths, in declaration order. *)

  val outputs : t -> (string * int) list

  val set_input : t -> string -> Bitvec.t -> unit
  (** Raises [Not_found] for a name that is not an input port (an
      output port included) and [Invalid_argument] on a width
      mismatch. *)

  val get : t -> string -> Bitvec.t
  (** Current value of any port (inputs echo their last driven value). *)

  val settle : t -> unit
  (** Propagate combinational activity without a clock edge. *)

  val step : t -> unit
  (** One full clock cycle. *)

  val cycles : t -> int

  val lanes : t -> int
  (** Independent stimulus lanes the backend advances per step: 1 for
      the scalar backends, the lane count of a word-parallel netlist
      engine.  All lanes share the clock — {!step} advances every
      lane. *)

  val set_input_lane : t -> lane:int -> string -> Bitvec.t -> unit
  (** Drive one lane only.  Lane 0 of a scalar backend is
      {!set_input}; any other lane raises [Invalid_argument]. *)

  val get_lane : t -> lane:int -> string -> Bitvec.t
  (** The port value seen by [lane] (lane 0 is {!get}). *)

  val stats : t -> (string * int) list
  (** Engine-specific activity counters (same figures the global
      [Perf] registry accumulates), e.g. gate evaluations. *)

  val probes : t -> (string * int) list
  (** Named internal observation points with widths — hierarchical,
      dot-separated names ("u_hist.count[3]") when the backend carries
      hierarchy information; [[]] for backends without internal
      visibility. *)

  val probe : t -> string -> Bitvec.t
  (** Current value of one {!probes} entry; raises [Not_found] for an
      unknown probe name. *)

  val enable_cover : t -> unit
  (** Start per-bit toggle coverage (a no-op for backends without
      coverage support). *)

  val cover : t -> Cover.Toggle.t option
  (** The live toggle collector once {!enable_cover} was called;
      [None] before, or always for unsupported backends. *)

  val enable_power_sampler : t -> unit
  (** Start windowed switching-activity sampling for dynamic power
      estimation (a no-op for backends without net-level activity;
      lane 0 on word-parallel backends). *)

  val power_activity : t -> Cover.Activity.t option
  (** The live activity sampler once {!enable_power_sampler} was
      called — feed it to [Synth.Power_dyn.analyze]; [None] before, or
      always for unsupported backends. *)

  val enable_events : t -> unit
  (** Start emitting causal events into the global [Obs.Event] log
      (enabling the log if needed).  Backends without event support
      still enable the global log so surrounding instrumentation
      records. *)

  val events : t -> Obs.Event.t list
  (** The retained causal events, oldest first (currently the global
      log — backends share one ring). *)

  val checkpoint : t -> (unit -> unit) option
  (** Capture the simulation state now and return the closure that
      rewinds to it; [None] for backends without checkpoint support. *)
end

type t = Pack : (module S with type t = 'a) * 'a * string -> t
(** An engine instance packed with its implementation and an instance
    label (used in mismatch reports and trace scopes). *)

val pack : ?label:string -> (module S with type t = 'a) -> 'a -> t
(** [label] defaults to the implementation's [kind]. *)

(** {1 Generic operations over packed engines} *)

val label : t -> string
val kind : t -> string
val inputs : t -> (string * int) list
val outputs : t -> (string * int) list
val set_input : t -> string -> Bitvec.t -> unit
val set_input_int : t -> string -> int -> unit
val get : t -> string -> Bitvec.t
val get_int : t -> string -> int
val settle : t -> unit
val step : t -> unit
val run : t -> int -> unit
val cycles : t -> int
val lanes : t -> int
val set_input_lane : t -> lane:int -> string -> Bitvec.t -> unit
val get_lane : t -> lane:int -> string -> Bitvec.t
val stats : t -> (string * int) list
val probes : t -> (string * int) list
val probe : t -> string -> Bitvec.t
val enable_cover : t -> unit
val cover : t -> Cover.Toggle.t option
val enable_power_sampler : t -> unit
val power_activity : t -> Cover.Activity.t option
val enable_events : t -> unit
val events : t -> Obs.Event.t list

(** {1 Checkpoint / replay}

    Record cheap, replay rich: take checkpoints during a fast
    uninstrumented run, then {!restore} the one before a failure and
    re-run the window with the event log (and any other observability)
    switched on. *)

type checkpoint = {
  ck_cycle : int;  (** cycle count when the checkpoint was taken *)
  ck_label : string;  (** engine instance label *)
  ck_restore : unit -> unit;
}

val checkpoint : t -> checkpoint option
(** Capture the engine's simulation state; [None] for backends without
    checkpoint support (the behavioural kernel backend).  Restoring is
    only meaningful on the engine the checkpoint was taken from. *)

val restore : checkpoint -> unit
val checkpoint_cycle : checkpoint -> int
val checkpoint_label : checkpoint -> string

val inject_fault : ?from_cycle:int -> ?lane:int -> port:string -> t -> t
(** A wrapper engine that behaves exactly like the inner one except
    that reads of output [port] come back with the least significant
    bit flipped once the engine has stepped at least [from_cycle]
    (default [0]) cycles.  Without [lane] the fault corrupts every
    lane's view (and {!get}); with [lane l] only {!get_lane}[ ~lane:l]
    — and {!get} iff [l = 0] — is corrupted, pinning one fault to one
    lane of a multi-lane engine.  Used to validate that the
    differential harness detects, localizes and shrinks a divergence,
    and by the lane-parallel fault campaigns.  While the [Obs.Event]
    log is enabled, the first corrupted read of each armed cycle also
    records a [Fault] event on the port (caused by whatever last moved
    it), so causality queries over the corrupted value reach the
    injection.  Raises [Invalid_argument] for an unknown port or an
    out-of-range lane. *)

(** {1 Consolidated tracing}

    One VCD document for any set of engines: every port of every engine
    is declared (scoped per engine label) and sampled against the
    engines' common cycle count.  Engines exposing {!probes} also get
    their internal observation points declared, nested into VCD scopes
    following the probes' dot-separated hierarchical paths (e.g. net
    ["u_hist.count[3]"] of engine [nl] appears as signal [count[3]] in
    scope [u_hist] inside scope [nl]). *)

module Trace : sig
  type tracer

  val create : ?top:string -> t list -> tracer
  val sample : tracer -> unit
  (** Record the current port values at the (maximum) engine cycle
      count; only changed values are written. *)

  val signal_count : tracer -> int
  val contents : tracer -> string
  val save : tracer -> string -> unit
end
