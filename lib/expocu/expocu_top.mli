(** The complete Exposure Control Unit (Figure 1).

    Per-frame control loop: acquire a pixel histogram while the frame
    streams in, scan it for the median brightness band at frame end,
    update the exposure gain, and write the new setting to the imager
    over I²C — exactly the module inventory of §2 (camera data
    synchronization, histogram acquisition, threshold calculation,
    parameter calculation, I²C bus control, reset control).

    Interface:
    in  [ext_reset](1), [pixel](8), [line_valid](1), [frame_sync](1)
        (high during a frame), [sda_in](1), [target_bin](8);
    out [scl](1), [sda_out](1), [sda_oe](1), [exposure](16),
        [frame_done](1), [ack_error](1), [median_bin](8).

    [osss_top] assembles the OSSS-style component implementations,
    [rtl_top] the conventional VHDL-style ones; the two are
    cycle-equivalent by construction, which experiment E8 checks. *)

type config = { bins : int; count_w : int; divider : int }

val default_config : config
(** 16 bins, 16-bit counters, I²C divider 4. *)

val osss_top : ?config:config -> unit -> Ir.module_def
val rtl_top : ?config:config -> unit -> Ir.module_def

(** {1 Directed stimulus} *)

val directed_frame : int -> string * Bitvec.t -> Bitvec.t
(** [directed_frame cycle (port, random)] is the directed 256-pixel
    frame as an {!Backend.Equiv.differential} [drive] function: reset
    released, 15 idle cycles, [frame_sync] high for a 4-cycle lead-in,
    then one pixel per cycle with [line_valid] high, pixel [i] =
    [i * 53 mod 256], then idle while the frame is processed;
    [target_bin] is 7 and every other input 0 throughout. *)

val directed_frame_pixels : int
(** 256. *)

val directed_frame_cycles : int
(** Cycles that cover the frame and its processing through
    [frame_done]. *)

val i2c_dev_addr : int
val i2c_reg_addr : int

(** {1 Sequencer state encoding}

    Values of the 4-bit [top_state] register, exposed for coverage
    registration (see [Coverpoints]). *)

val st_acquire : int
val st_scan_settle : int
val st_scan : int
val st_update : int
val st_param_settle : int
val st_wait_param : int
val st_send : int
val st_i2c_settle : int
val st_wait_i2c : int
