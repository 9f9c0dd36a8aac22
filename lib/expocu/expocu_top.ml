type config = { bins : int; count_w : int; divider : int }

let default_config = { bins = 16; count_w = 16; divider = 4 }
let i2c_dev_addr = 0x48
let i2c_reg_addr = 0x10

(* Top-level sequencer states. *)
let st_acquire = 0
let st_scan_settle = 1
let st_scan = 2
let st_update = 3
let st_param_settle = 4
let st_wait_param = 5
let st_send = 6
let st_i2c_settle = 7
let st_wait_i2c = 8

type parts = {
  p_sync : Ir.module_def;
  p_hist : Ir.module_def;
  p_thresh : Ir.module_def;
  p_param : Ir.module_def;
  p_i2c : Ir.module_def;
  p_reset : Ir.module_def;
}

let build name (parts : parts) (cfg : config) =
  let open Builder.Dsl in
  let b = Builder.create name in
  let ext_reset = Builder.input b "ext_reset" 1 in
  let pixel = Builder.input b "pixel" 8 in
  let line_valid = Builder.input b "line_valid" 1 in
  let frame_sync = Builder.input b "frame_sync" 1 in
  let sda_in = Builder.input b "sda_in" 1 in
  let target_bin = Builder.input b "target_bin" 8 in
  let scl = Builder.output b "scl" 1 in
  let sda_out = Builder.output b "sda_out" 1 in
  let sda_oe = Builder.output b "sda_oe" 1 in
  let exposure = Builder.output b "exposure" 16 in
  let frame_done = Builder.output b "frame_done" 1 in
  let ack_error = Builder.output b "ack_error" 1 in
  let median_out = Builder.output b "median_bin" 8 in
  (* internal nets *)
  let w n width = Builder.wire b n width in
  let sys_reset = w "sys_reset" 1 in
  let fs_value = w "fs_value" 4 in
  let fs_rising = w "fs_rising" 1 in
  let fs_falling = w "fs_falling" 1 in
  let fs_stable = w "fs_stable" 1 in
  let hist_clear = w "hist_clear" 1 in
  let hist_valid = w "hist_valid" 1 in
  let rd_idx = w "rd_idx" 8 in
  let rd_count = w "rd_count" cfg.count_w in
  let hist_total = w "hist_total" cfg.count_w in
  let thr_start = w "thr_start" 1 in
  let thr_busy = w "thr_busy" 1 in
  let thr_done = w "thr_done" 1 in
  let median = w "median" 8 in
  let under = w "under" 1 in
  let over = w "over" 1 in
  let pc_update = w "pc_update" 1 in
  let pc_ready = w "pc_ready" 1 in
  let pc_busy = w "pc_busy" 1 in
  let expo = w "expo" 16 in
  let i2c_go = w "i2c_go" 1 in
  let i2c_busy = w "i2c_busy" 1 in
  let i2c_done = w "i2c_done" 1 in
  let i2c_rw = w "i2c_rw" 1 in
  let i2c_rd = w "i2c_rd" 8 in
  let i2c_dev = w "i2c_dev" 7 in
  let i2c_reg = w "i2c_reg" 8 in
  let i2c_data = w "i2c_data" 8 in
  let fsm = w "top_state" 4 in
  let frame_done_r = w "frame_done_r" 1 in
  (* reset control *)
  Builder.instantiate b ~name:"u_reset" parts.p_reset
    [ ("ext_reset", ext_reset); ("sys_reset", sys_reset) ];
  (* frame_sync conditioning through the SyncRegister-based module *)
  Builder.instantiate b ~name:"u_sync" parts.p_sync
    [
      ("reset", sys_reset); ("data", frame_sync); ("value", fs_value);
      ("rising", fs_rising); ("falling", fs_falling); ("stable", fs_stable);
    ];
  Builder.instantiate b ~name:"u_hist" parts.p_hist
    [
      ("reset", sys_reset); ("clear", hist_clear);
      ("pixel_valid", hist_valid); ("pixel", pixel); ("rd_idx", rd_idx);
      ("rd_count", rd_count); ("total", hist_total);
    ];
  Builder.instantiate b ~name:"u_thresh" parts.p_thresh
    [
      ("reset", sys_reset); ("start", thr_start); ("total", hist_total);
      ("rd_count", rd_count); ("rd_idx", rd_idx); ("busy", thr_busy);
      ("done", thr_done); ("median_bin", median); ("underexposed", under);
      ("overexposed", over);
    ];
  Builder.instantiate b ~name:"u_param" parts.p_param
    [
      ("reset", sys_reset); ("update", pc_update); ("median_bin", median);
      ("target_bin", target_bin); ("exposure", expo); ("ready", pc_ready);
      ("busy", pc_busy);
    ];
  Builder.instantiate b ~name:"u_i2c" parts.p_i2c
    [
      ("reset", sys_reset); ("go", i2c_go); ("rw", i2c_rw);
      ("dev_addr", i2c_dev); ("reg_addr", i2c_reg); ("data", i2c_data);
      ("sda_in", sda_in); ("scl", scl); ("sda_out", sda_out);
      ("sda_oe", sda_oe); ("busy", i2c_busy); ("done", i2c_done);
      ("ack_error", ack_error); ("rd_data", i2c_rd);
    ];
  (* static I2C transaction parameters *)
  Builder.comb b "i2c_params"
    [
      i2c_rw <-- c ~width:1 0;
      i2c_dev <-- c ~width:7 i2c_dev_addr;
      i2c_reg <-- c ~width:8 i2c_reg_addr;
      i2c_data <-- slice (v expo) ~hi:15 ~lo:8;
    ];
  (* datapath glue *)
  Builder.comb b "glue"
    [
      hist_valid <-- (v line_valid &: (v fsm ==: c ~width:4 st_acquire));
      hist_clear <-- (v fs_rising &: (v fsm ==: c ~width:4 st_acquire));
      exposure <-- v expo;
      median_out <-- v median;
      frame_done <-- v frame_done_r;
    ];
  (* per-frame sequencer *)
  Builder.sync b "sequencer"
    [
      if_ (v sys_reset)
        [
          fsm <-- c ~width:4 st_acquire;
          thr_start <-- c ~width:1 0;
          pc_update <-- c ~width:1 0;
          i2c_go <-- c ~width:1 0;
          frame_done_r <-- c ~width:1 0;
        ]
        [
          thr_start <-- c ~width:1 0;
          pc_update <-- c ~width:1 0;
          i2c_go <-- c ~width:1 0;
          frame_done_r <-- c ~width:1 0;
          case (v fsm)
            [
              ( st_acquire,
                [
                  when_ (v fs_falling)
                    [
                      thr_start <-- c ~width:1 1;
                      fsm <-- c ~width:4 st_scan_settle;
                    ];
                ] );
              (* one settle cycle so the threshold module has consumed
                 the start pulse before its done flag is sampled *)
              (st_scan_settle, [ fsm <-- c ~width:4 st_scan ]);
              ( st_scan,
                [
                  when_ (v thr_done)
                    [ pc_update <-- c ~width:1 1; fsm <-- c ~width:4 st_update ];
                ] );
              (* the update pulse is registered this cycle; give the
                 parameter stage one cycle to drop ready, then wait out
                 its serial multiplication *)
              (st_update, [ fsm <-- c ~width:4 st_param_settle ]);
              (st_param_settle, [ fsm <-- c ~width:4 st_wait_param ]);
              ( st_wait_param,
                [ when_ (v pc_ready) [ fsm <-- c ~width:4 st_send ] ] );
              ( st_send,
                [ i2c_go <-- c ~width:1 1; fsm <-- c ~width:4 st_i2c_settle ] );
              (st_i2c_settle, [ fsm <-- c ~width:4 st_wait_i2c ]);
              ( st_wait_i2c,
                [
                  when_ (v i2c_done)
                    [
                      frame_done_r <-- c ~width:1 1;
                      fsm <-- c ~width:4 st_acquire;
                    ];
                ] );
            ]
            [ fsm <-- c ~width:4 st_acquire ];
        ];
    ];
  ignore (thr_busy, i2c_busy, pc_busy, under, over, fs_value, fs_stable, i2c_rd);
  Builder.finish b

let osss_top ?(config = default_config) () =
  build "expocu_osss"
    {
      p_sync = Sync.osss_module ();
      p_hist = Histogram.osss_module ~bins:config.bins ~count_w:config.count_w ();
      p_thresh =
        Threshold.osss_module ~bins:config.bins ~count_w:config.count_w ();
      p_param = Param_calc.osss_module ();
      p_i2c = I2c.osss_module ~divider:config.divider ();
      p_reset = Reset_ctrl.osss_module ();
    }
    config

let rtl_top ?(config = default_config) () =
  build "expocu_rtl"
    {
      p_sync = Sync.rtl_module ();
      p_hist = Histogram.rtl_module ~bins:config.bins ~count_w:config.count_w ();
      p_thresh =
        Threshold.rtl_module ~bins:config.bins ~count_w:config.count_w ();
      p_param = Param_calc.rtl_module ();
      p_i2c = I2c.vhdl_module ~divider:config.divider ();
      p_reset = Reset_ctrl.rtl_module ();
    }
    config

(* The directed frame: reset released, 15 idle cycles, frame_sync high
   for a 4-cycle lead-in, then one pixel per cycle with line_valid high,
   pixel [i] = [i * 53 mod 256], then idle while the frame is
   processed (frame_done rises at cycle 780); target_bin is 7
   throughout. *)
let directed_frame_pixels = 256
let directed_frame_cycles = 900

let directed_frame cycle (name, random) =
  let px = cycle - 19 in
  let in_frame = px >= 0 && px < directed_frame_pixels in
  let value =
    match name with
    | "frame_sync" -> if cycle >= 15 && px < directed_frame_pixels then 1 else 0
    | "line_valid" -> if in_frame then 1 else 0
    | "pixel" -> if in_frame then px * 53 mod 256 else 0
    | "target_bin" -> 7
    | _ -> 0
  in
  Bitvec.of_int ~width:(Bitvec.width random) value
