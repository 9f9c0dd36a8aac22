(** Shared value-change-dump document builder.

    One VCD writer backs every trace front end in the repository — the
    RTL-level [Hdl.Rtl_trace] and the engine-level [Engine.Trace], which
    also traces kernel-level models through [Sim.Kernel_engine] — so
    all abstraction levels produce the same document structure and can
    be diffed in one waveform viewer.  The writer knows nothing about simulators: callers
    register signals (optionally grouped into sub-scopes), then report
    value changes against a monotonically non-decreasing timestamp. *)

type t

type id
(** Handle for a registered signal. *)

exception Non_monotonic_time of { last : int; got : int }
(** Raised by {!change} when a timestamp precedes one already emitted;
    VCD change sections are strictly append-only in time. *)

val create :
  ?date:string -> ?version:string -> ?timescale:string -> ?top:string ->
  unit -> t
(** [timescale] defaults to ["1ps"], [top] (the root scope name) to
    ["top"]. *)

val register : t -> ?scope:string -> ?initial:string -> name:string ->
  width:int -> unit -> id
(** Declare a signal.  [scope] nests it in a sub-scope of the root;
    dots in the scope string open nested scopes (["cpu.alu"] declares
    the signal inside scope [alu] within scope [cpu]), and signals
    sharing a [scope] string share the sub-scope.  [initial]
    is a binary value emitted in a [$dumpvars] section (the section is
    present iff at least one signal registered an initial value). *)

val register_real : t -> ?scope:string -> ?initial:float -> name:string ->
  unit -> id
(** Declare a real-valued (analog) signal — [$var real 64] in the
    header, [r<float>] value changes — e.g. a power waveform next to
    the digital nets.  [scope] nests exactly like {!register}. *)

val change : t -> time:int -> id -> string -> unit
(** Record a value change (binary string, no ["b"] prefix) at [time].
    Raises {!Non_monotonic_time} if [time] decreases across calls, and
    [Invalid_argument] on a signal registered with {!register_real}. *)

val change_bv : t -> time:int -> id -> Bitvec.t -> unit

val change_real : t -> time:int -> id -> float -> unit
(** Record a real value change at [time]; same monotonic-time rule as
    {!change}.  Raises [Invalid_argument] on a bit-vector signal. *)

val signal_count : t -> int

val contents : t -> string
(** The full VCD document: header, scoped declarations, optional
    [$dumpvars], then all recorded changes. *)

val save : t -> string -> unit
