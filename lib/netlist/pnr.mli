(** Placement and post-layout timing — the "Place&Route" stage of the
    paper's flow (Figure 6), on an abstract island-style FPGA.

    LUTs and flip-flops occupy a square logic grid sized to the design;
    I/O pads sit on the perimeter.  Simulated annealing minimizes total
    half-perimeter wirelength; timing then combines LUT delay with a
    per-grid-unit wire delay over the placed positions, giving the
    post-layout frequency that corresponds to the paper's "achieved
    frequency of the ExpoCU". *)

type placement

type report = {
  grid : int * int;
  utilization : float;  (** logic elements / grid capacity *)
  wirelength : float;  (** total half-perimeter wirelength, grid units *)
  initial_wirelength : float;  (** before annealing *)
  critical_ns : float;
  fmax_mhz : float;
  lut_levels : int;  (** logic depth of the critical path *)
}

val place : ?seed:int -> ?moves:int -> Techmap.mapped -> placement
(** [moves] bounds the annealing effort (default 150_000 attempted
    moves; none at all for a design with fewer than 4 core elements).

    Determinism: the placement is a function of [mapped], [seed]
    (default 17) and [moves] alone.  Every random number comes from one
    [Random.State.make [| seed |]], drawn in a fixed order per move:
    the element to move, the y offset, the x offset, and only when the
    move lengthens the wirelength the acceptance number.  Costs are
    summed as integers, so the acceptance test sees the same deltas on
    every host.  The implementation reproduces the placer's original
    draw order and results exactly; a change to either is a change of
    results, not of speed. *)

val analyze : placement -> report

val positions : placement -> (int * int) array
(** Grid position [(x, y)] of every placed element, in element order:
    LUTs (in {!Techmap.luts} order), then flip-flops ({!Techmap.ffs}
    order), then input pads and output pads, each in port order, bit 0
    first.  Core elements sit at [1..w-2]; pads on the perimeter. *)

val by_module : placement -> (string * int) list
(** Placed core elements (LUTs + flip-flops) per module, keyed on the
    source netlist's region annotations and sorted by path; pads are
    not attributed. *)

val lut_delay_ns : float
val wire_base_ns : float
(** Fixed switch cost per routed connection. *)

val wire_delay_ns_per_unit : float
(** Distance-dependent term per grid unit (Manhattan). *)
