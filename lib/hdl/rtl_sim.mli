(** Cycle-accurate simulator for IR modules — the "RTL simulation"
    level of the flow.  The design is flattened and compiled on
    creation: every variable gets a slot in preallocated arrays (a
    native int masked to its width up to 62 bits, a [Bitvec.t] above
    that, one array per memory), and every process body becomes a tree
    of closures over those slots with all widths resolved statically.
    The semantics are {!Eval}'s, which the tests hold it to.

    Activity-based scheduling: combinational processes are ordered
    statically so writers run before readers (a cross-process cycle
    raises {!Combinational_loop} naming the offending process), and a
    settle runs only the processes whose inputs changed since the last
    settle — each at most once when the graph is acyclic.  Synchronous
    processes write private copies of their targets and read everything
    else from the shared state, which no synchronous body writes, so all
    of them see the same pre-edge state; their register writes then
    commit and combinational logic settles again. *)

type t

exception Combinational_loop of string

val create : Ir.module_def -> t

val set_input : t -> string -> Bitvec.t -> unit
(** Raises [Not_found] for a name that is not an input port (an output
    port included) and [Invalid_argument] on a width mismatch. *)

val set_input_int : t -> string -> int -> unit
val get : t -> string -> Bitvec.t
(** Value of any port by name. *)

val get_int : t -> string -> int
val peek_var : t -> Ir.var -> Bitvec.t
(** Value of an internal variable (post-flatten name resolution is the
    caller's concern; variables keep their identity through builder
    construction). *)

val peek_array : t -> Ir.var -> Bitvec.t array
(** A copy of a memory's contents. *)

val settle : t -> unit
(** Combinational settle without a clock edge. *)

val step : t -> unit
(** One full clock cycle. *)

val run : t -> int -> unit
(** [run t n] steps [n] cycles. *)

val cycles : t -> int
val design : t -> Ir.module_def
(** The flattened design being simulated. *)

(** {1 Activity counters}

    Per-instance equivalents of the global [Metrics.Perf] counters
    [rtl_sim.settles] / [rtl_sim.process_runs] / [rtl_sim.process_skips]. *)

val settles : t -> int
(** Number of combinational settles performed so far. *)

val comb_runs : t -> int
(** Combinational process activations actually executed. *)

val comb_skips : t -> int
(** Combinational process activations skipped because no input of the
    process had changed since its last run. *)

val sync_runs : t -> int
(** Synchronous process activations executed so far. *)

val process_activity : t -> (string * int) list
(** Activations per process (combinational evaluations plus synchronous
    runs), sorted by hierarchical process name — the raw material of the
    "hot processes" profile. *)

(** {1 Coverage and observation hooks} *)

val find_var : t -> string -> Ir.var option
(** Look up a port or local of the flattened design by hierarchical
    name ([u_i2c.slot]); use with {!peek_var}.  Arrays are found too —
    peek those with {!peek_array}. *)

val on_step : t -> (t -> unit) -> unit
(** Register a watcher called after every completed {!step} (post
    settle), in registration order — the hook FSM coverage sampling and
    attached assertion monitors use.  Costs one branch per step while
    no watcher is registered. *)

val enable_toggle_cover : t -> unit
(** Start per-bit toggle coverage over every scalar port and local of
    the flattened design (arrays/memories are not tracked).  Bits are
    named [var] or [var[i]] with hierarchical var names.  Edges are
    committed cycle-to-cycle transitions observed at each step's close;
    change detection rides the scheduler's dirty marking, so a disabled
    run pays one branch per dirty-marking.  Idempotent. *)

val toggle_cover : t -> Cover.Toggle.t option
(** The live collector, once {!enable_toggle_cover} has been called. *)

(** {1 Causal events and checkpointing} *)

val enable_events : t -> unit
(** Start emitting causal events into the global [Obs.Event] log
    (enabling it if needed): {!set_input} edges as [Stimulus], process
    activations as [Process_run] caused by the latest change among the
    variables the process observes (the dirty-set propagation), and
    committed writes as [Var_change] caused by the activation.  Costs
    one branch per candidate event while off. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Copy of the simulation state (every variable and memory, the dirty
    set, the cycle count).  Coverage collectors and watchers are not
    captured. *)

val restore : t -> checkpoint -> unit
(** Rewind to a checkpoint taken on the same simulator; re-running the
    original stimulus afterwards is bit-identical to the original
    window. *)

val checkpoint_cycle : checkpoint -> int
