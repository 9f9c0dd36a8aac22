(** Bounded causal event log.

    A process-global ring buffer of structured simulation events —
    stimulus edges, net/variable changes, process scheduling, delta
    cycles, fault injections, coverage epochs, checkpoints — each
    stamped with time, cycle, lane and a {e cause}: the sequence number
    of the event that scheduled it.  The causal debugger
    ({!module:Causal}) walks these links backward to answer "why did
    this net take this value".

    Sequence numbers are stable and monotonically increasing; cause
    references are sequence numbers, so ring wraparound can only make a
    cause unresolvable ({!find} returns [None]) — never wrong.

    The ring is stored as columns, one array per field, allocated by
    {!enable}.  Recording an event writes one slot of each column and
    allocates nothing, so a simulator's per-cycle emission path stays
    allocation-free; the queries and the JSONL export build {!t}
    records only when they read the log.  Hot paths call {!record},
    which takes every field as a plain labelled argument ({!emit}'s
    optional arguments are boxed at each call).

    Disabled by default with the same branch discipline as {!Span}: a
    run without the event log pays one branch per candidate emission. *)

type kind =
  | Stimulus  (** primary input driven from outside *)
  | Net_change  (** gate-level net moved *)
  | Var_change  (** RTL variable committed a new value *)
  | Process_wake
  | Process_run
  | Delta_open
  | Delta_close
  | Fault  (** fault injected, or a fault-corrupted read *)
  | Cover_epoch
  | Checkpoint

type t = {
  seq : int;  (** stable, monotonically increasing *)
  kind : kind;
  subject : string;  (** net label, variable, process or port name *)
  time : int;  (** kernel time (ps); [0] for cycle-based backends *)
  cycle : int;
  lane : int;  (** [-1]: lane-less, or aggregated over all lanes *)
  value : int;  (** low bits of the new value *)
  cause : int;  (** seq of the causing event, or {!no_cause} *)
}

val no_cause : int
(** The cause of a root event (stimulus, first delta): [-1]. *)

val kind_name : kind -> string
val kind_of_name : string -> kind option

(** {1 Collection} *)

val enable : ?capacity:int -> unit -> unit
(** Switch emission on.  [capacity] bounds the ring (default 16384
    events, or the current capacity when re-enabling); changing the
    capacity drops all retained events, re-enabling at the same
    capacity resumes the existing log.  Raises [Invalid_argument] for
    a capacity < 1. *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all retained events and restart sequence numbering (the
    capacity is kept). *)

val record :
  time:int ->
  cycle:int ->
  lane:int ->
  value:int ->
  cause:int ->
  kind ->
  string ->
  int
(** [record ~time ~cycle ~lane ~value ~cause kind subject] appends one
    event and returns its sequence number (for use as a downstream
    cause), allocating nothing.  Returns {!no_cause} without recording
    anything while the log is disabled — but hot paths should branch
    on {!enabled} themselves and skip the call. *)

val emit :
  ?time:int ->
  ?cycle:int ->
  ?lane:int ->
  ?value:int ->
  ?cause:int ->
  kind ->
  string ->
  int
(** [emit kind subject] is {!record} with defaults: time and cycle 0,
    lane [-1], value 0, no cause. *)

(** {1 Queries} *)

val count : unit -> int
(** Events currently retained (at most the capacity). *)

val dropped : unit -> int
(** Events evicted by wraparound since the last {!reset}. *)

val capacity : unit -> int

val events : unit -> t list
(** Retained events, oldest first. *)

val find : int -> t option
(** Resolve a sequence number; [None] once evicted (or never valid). *)

val find_last : (t -> bool) -> t option
(** Newest retained event satisfying the predicate. *)

val latest : ?cycle:int -> ?any_kind:bool -> subject:string -> unit -> t option
(** Newest value-carrying event ({!Stimulus}, {!Net_change},
    {!Var_change} or {!Fault}; any kind with [any_kind]) whose subject
    is [subject] or a bit of that bus (["pixel"] matches ["pixel[3]"]),
    at or before [cycle] when given. *)

(** {1 JSONL export — schema [osss.event-log/v1]}

    One header object stamped with the schema version and the retained
    / dropped counts, then one compact object per event, oldest
    first. *)

val schema_version : string

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val to_jsonl : unit -> string
val save_jsonl : string -> unit

val validate_jsonl : string -> (int, string) result
(** Structural schema check (header stamp, per-event fields,
    contiguous sequence numbers, causes older than their effects);
    returns the number of events.  Producers and the CI validation
    step share this single definition, like {!Report.validate}. *)

val validate_file : string -> (int, string) result
