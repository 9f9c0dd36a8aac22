(** Gate-level netlists.

    A netlist is a set of cells connected by integer-numbered nets, plus
    named primary input and output buses.  Construction goes through the
    gate builders below, which optionally perform constant folding and
    structural hashing (the "optimizing construction" that a production
    synthesis front end would do; it can be disabled to measure its
    effect — see DESIGN.md ablations). *)

type net = int

type cell = { kind : Cell.kind; ins : net array; out : net }

type t

exception Combinational_loop of { module_name : string; net : int }
(** A combinational cycle through [net] in the named design, raised by
    {!freeze} and so by every pass that reads the frozen view. *)

val create : ?fold:bool -> name:string -> unit -> t
(** [fold] (default [true]) enables constant folding plus structural
    hashing during construction. *)

val name : t -> string
val folding : t -> bool

(** {1 Primary connectivity} *)

val new_net : t -> net
val add_input : t -> string -> int -> net array
val add_output : t -> string -> net array -> unit
val inputs : t -> (string * net array) list
val outputs : t -> (string * net array) list

(** {1 Gate builders} *)

val const0 : t -> net
val const1 : t -> net
val constant : t -> Bitvec.t -> net array
val not_ : t -> net -> net
val and2 : t -> net -> net -> net
val or2 : t -> net -> net -> net
val xor2 : t -> net -> net -> net
val nand2 : t -> net -> net -> net
val nor2 : t -> net -> net -> net
val mux2 : t -> sel:net -> net -> net -> net
(** [mux2 ~sel a b] = [a] if [sel] else [b]. *)

val dff : t -> d:net -> net
(** Allocates a flip-flop and returns its [q] net. *)

val dff_deferred : t -> net
(** Allocate a flip-flop output whose [d] input is supplied later with
    {!connect_dff} — needed because registers are read before the logic
    producing their next value has been built. *)

val connect_dff : t -> q:net -> d:net -> unit
(** Raises [Invalid_argument] if [q] was not created by
    {!dff_deferred} or is already connected. *)

val substitute : t -> (net -> net) -> unit
(** [substitute t f] replaces every net [n] read by a cell input or a
    primary output bus by [f n] (flip-flops still pending keep their
    placeholder).  Used by lowering to resolve instance-port
    placeholders once the parent's drivers exist. *)

(** {1 Observation} *)

val cells : t -> cell list
(** All cells, in creation order. *)

val cell_count : t -> int
val net_count : t -> int
val driver : t -> net -> cell option
(** The cell driving a net; [None] for primary inputs and unconnected
    nets.  Constant time. *)

(** {1 The frozen view}

    One flat, read-only view of the netlist's structure that every
    analysis and simulator walks: {!Nl_sim}, {!Xprop}, {!Opt},
    {!Timing}, {!Cec} and the power attribution.  It is computed on
    first use and cached in the netlist; every mutator above
    ({!new_net}, the gate builders, {!connect_dff}, {!add_input},
    {!add_output}, {!substitute}) drops the cache, so the next
    {!freeze} sees the current structure.  Writing a cell's [ins] array
    directly bypasses that: do it only before the first [freeze].  The
    arrays and tables are shared by every reader and must not be
    mutated. *)

type frozen = {
  comb : cell array;
      (** the combinational cells in topological order: a depth-first
          search from each cell in creation order, inputs first *)
  dffs : cell array;  (** the flip-flops, in creation order *)
  driver : int array;
      (** net -> index into [comb] of its driver; [-1] for primary
          inputs, flip-flop outputs and undriven nets *)
  level : int array;
      (** logic depth per index into [comb]: one past the deepest
          input, where primary inputs and flip-flop outputs are 0 *)
  n_levels : int;  (** [1 +] the maximum level ([1] when empty) *)
  fanout_start : int array;
      (** CSR fanout, [net_count + 1] entries: the combinational
          readers of net [n] are [fanout.(fanout_start.(n))] to
          [fanout.(fanout_start.(n + 1) - 1)] *)
  fanout : int array;
      (** indices into [comb], ascending per net; a cell reading a net
          twice appears twice *)
  in_nets : (string, net array) Hashtbl.t;  (** primary inputs by name *)
  out_nets : (string, net array) Hashtbl.t;  (** primary outputs by name *)
}

val freeze : t -> frozen
(** The cached frozen view, built if a mutator dropped it.  Raises
    {!Combinational_loop} naming a net on the cycle when the
    combinational cells are cyclic.  Does not run {!check}. *)

(** {1 Hierarchy annotations}

    Advisory metadata carried alongside the structure: each driven net
    can belong to a {e region} — the dot-separated instance path of the
    module instance whose lowering produced it ([""] is the top module)
    — and can carry a {e name hint}, the design-level name of the value
    on the net (["count[3]"]).  The rewriting passes ({!Opt},
    {!Techmap}, {!Pnr}) preserve both, so per-module area/timing/power
    breakdowns, coverage names, profiles and fault sites all speak the
    same hierarchical language. *)

val region_of : t -> net -> string
(** Owning instance path of the cell driving [net]; [""] for the top
    module, primary inputs and untagged nets. *)

val set_region : t -> net -> string -> unit
val hint_of : t -> net -> string option
val set_hint : t -> net -> string -> unit
(** First hint wins; later calls on an already-hinted net are no-ops
    (structural hashing can merge nets across instances). *)

val copy_meta : src:t -> dst:t -> net -> net -> unit
(** [copy_meta ~src ~dst src_net dst_net] carries region and hint from
    [src_net] over to [dst_net], keeping whatever [dst_net] already
    has.  Used by the rewriting passes when they rebuild a netlist. *)

val describe_net : t -> net -> string
(** ["<region>.<hint>"], falling back to ["n<id>"] for the unnamed
    parts — the stable cross-layer name used in reports. *)

val region_table_size : t -> int
val hint_table_size : t -> int
val region_names : t -> string list
(** Distinct non-top regions present, sorted. *)

val net_labels : t -> string array
(** Human-readable per-net labels: port bits as ["bus[i]"] (bare name
    for width-1 ports), internal nets by their hierarchical description
    ({!describe_net}, e.g. ["u_hist.count[3]"]), remaining anonymous
    nets as ["n<id>"].  Cached like the frozen view: every structural
    mutator, {!set_region}, {!set_hint} and {!copy_meta} drop the
    cache.  The array is shared by every caller and must not be
    mutated. *)

val check : t -> unit
(** Verifies every non-input net has exactly one driver and every
    deferred flip-flop got connected.  Raises [Failure]. *)

val stats : t -> (Cell.kind * int) list
(** Instance count per cell kind (zero-count kinds omitted). *)

val emit_verilog : t -> string
(** Structural Verilog of the mapped netlist ([*.v] hand-off of the
    paper's flow). *)
