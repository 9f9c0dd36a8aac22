(** Four-state gate-level simulation for reset-coverage analysis.

    Flip-flops power up unknown ([X]) and inputs are unknown until
    driven, exactly like a conservative sign-off simulator.  Running a
    reset sequence and then asking which outputs or flip-flops are
    still unknown verifies that the design's reset logic actually
    initializes everything the environment can observe — the question
    behind the two-valued simulator's silent power-up-to-zero
    assumption. *)

type t

val create : Netlist.t -> t
(** All flip-flops and inputs start at [X].  Raises
    {!Netlist.Combinational_loop} on a combinational cycle. *)

val set_input : t -> string -> Bitvec.t -> unit
val set_input_x : t -> string -> unit

val settle : t -> unit
val step : t -> unit
val run : t -> int -> unit

val output_string : t -> string -> string
(** MSB-first characters ['0'], ['1'], ['x']. *)

val output_known : t -> string -> bool
(** No [X] bit in the named output. *)

val unknown_outputs : t -> (string * int) list
(** Outputs still carrying unknown bits, with the count of such bits. *)

val unknown_ffs : t -> int
(** Flip-flops whose state is still unknown. *)
