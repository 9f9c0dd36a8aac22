(* Benchmark harness: one experiment per claim of the paper's
   evaluation (see DESIGN.md experiment index), plus the smoke
   workload behind the CI gates.  Run with no argument for every
   experiment, or with a list of experiment ids:

     dune exec bench/main.exe            # all
     dune exec bench/main.exe -- e1 e6   # selected
     dune exec bench/main.exe -- --help  # gates, reports, collectors *)

open Hdl
module CD = Osss.Class_def
module OI = Osss.Object_inst

let section id title =
  Printf.printf "\n=== %s: %s ===\n" (String.uppercase_ascii id) title

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Shared synthesis helpers                                            *)

let synthesize kind design = Synth.Flow.run kind design

let flow_columns (r : Synth.Flow.result) =
  ( Backend.Netlist.cell_count r.netlist,
    r.area.Backend.Area.total,
    r.area.Backend.Area.n_ffs,
    r.timing.Backend.Timing.critical_ns,
    r.timing.Backend.Timing.fmax_mhz )

(* ------------------------------------------------------------------ *)
(* E1/E2: full ExpoCU, OSSS flow vs conventional VHDL flow             *)

let expocu_results =
  lazy
    ( synthesize Synth.Flow.Osss (Expocu.Expocu_top.osss_top ()),
      synthesize Synth.Flow.Vhdl (Expocu.Expocu_top.rtl_top ()) )

let e1 () =
  section "e1"
    "ExpoCU netlist area: OSSS flow vs VHDL flow (paper: almost equivalent)";
  let osss, vhdl = Lazy.force expocu_results in
  let print name r =
    let cells, area, ffs, _, _ = flow_columns r in
    row "  %-12s %8d cells %10.1f GE %6d flip-flops\n" name cells area ffs
  in
  print "OSSS" osss;
  print "VHDL" vhdl;
  let _, a_o, _, _, _ = flow_columns osss in
  let _, a_v, _, _, _ = flow_columns vhdl in
  row "  area ratio OSSS/VHDL = %.3f (paper: ~1.0)\n" (a_o /. a_v);
  row "  OSSS flow pass trace:\n%s" (Synth.Flow.pass_table osss);
  row "  VHDL flow pass trace:\n%s" (Synth.Flow.pass_table vhdl)

let e2 () =
  section "e2"
    "ExpoCU achieved frequency (paper: OSSS below VHDL flow; target 66 MHz)";
  let osss, vhdl = Lazy.force expocu_results in
  let print name (r : Synth.Flow.result) =
    let _, _, _, ns, mhz = flow_columns r in
    row "  %-12s critical path %6.2f ns   fmax %7.1f MHz   66 MHz: %s\n" name
      ns mhz
      (if Backend.Timing.meets r.Synth.Flow.timing ~freq_mhz:66.0 then "met"
       else "missed")
  in
  print "OSSS" osss;
  print "VHDL" vhdl;
  let _, _, _, _, f_o = flow_columns osss in
  let _, _, _, _, f_v = flow_columns vhdl in
  row "  fmax ratio OSSS/VHDL = %.3f (paper: < 1.0)\n" (f_o /. f_v);
  (* The paper attributes the OSSS frequency deficit to the SystemC
     behavioral-synthesis stage ("restrictions and unnecessary
     overhead"); our shared back end removes that stage's bias from the
     full-chip numbers, so the mechanism is measured in isolation: the
     same multiply datapath hand-registered vs behaviorally synthesized
     with functional-unit sharing. *)
  let hand_mul =
    let open Builder.Dsl in
    let b = Builder.create "hand_mac" in
    let a = Builder.input b "a" 8 in
    let x = Builder.input b "x" 8 in
    let y = Builder.output b "y" 8 in
    Builder.sync b "mac" [ y <-- (v a *: v x) ];
    Builder.finish b
  in
  let behav_mul =
    let open Synth.Behavioral in
    let g =
      create ~name:"behav_mac"
        ~inputs:[ ("a", 8); ("x", 8); ("a2", 8); ("x2", 8) ]
    in
    let m0 = node g Mul [ Input "a"; Input "x" ] in
    let m1 = node g Mul [ Input "a2"; Input "x2" ] in
    let s = node g Add [ Node m0; Node m1 ] in
    output g "y" (Node s);
    to_module g
      (list_schedule g ~resources:(fun k ->
           match k with Mul -> 1 | Add | Sub | And | Or | Xor | Mux -> 4))
  in
  let fmax m =
    (Backend.Timing.analyze (Backend.Opt.optimize (Backend.Lower.lower m)))
      .Backend.Timing.fmax_mhz
  in
  let f_hand = fmax hand_mul and f_behav = fmax behav_mul in
  row
    "  behavioral-synthesis overhead in isolation (one multiplier per \
     cycle):\n";
  row "    hand-registered datapath   fmax %7.1f MHz\n" f_hand;
  row "    behaviorally synthesized   fmax %7.1f MHz (%.2fx, the paper's \
       frequency-gap mechanism)\n"
    f_behav (f_behav /. f_hand)

(* ------------------------------------------------------------------ *)
(* E3: class/template resolution has zero logic overhead               *)

let e3 () =
  section "e3" "SyncRegister: class resolution overhead (paper/Fig.7-8: none)";
  let gates m = Backend.Opt.optimize (Backend.Lower.lower m) in
  let print name nl =
    let a = Backend.Area.analyze nl in
    row "  %-28s %6d cells %8.1f GE %4d flip-flops\n" name
      (Backend.Netlist.cell_count nl)
      a.Backend.Area.total a.Backend.Area.n_ffs
  in
  let osss = gates (Expocu.Sync.osss_module ()) in
  let rtl = gates (Expocu.Sync.rtl_module ()) in
  print "OSSS classes + templates" osss;
  print "hand-written RTL" rtl;
  row "  overhead: %+d cells (paper: 0)\n"
    (Backend.Netlist.cell_count osss - Backend.Netlist.cell_count rtl)

(* ------------------------------------------------------------------ *)
(* E4: polymorphism costs exactly the dispatch multiplexers            *)

let alu_base =
  CD.declare ~name:"AluBase" []
    [
      CD.fn_method ~name:"Execute" ~params:[ ("A", 8); ("B", 8) ] ~return:8
        (fun ctx -> ([], Ir.Binop (Ir.Add, ctx.CD.arg "A", ctx.CD.arg "B")));
    ]

let alu_variant name op =
  CD.declare ~parent:alu_base ~name []
    [
      CD.fn_method ~name:"Execute" ~params:[ ("A", 8); ("B", 8) ] ~return:8
        (fun ctx -> ([], Ir.Binop (op, ctx.CD.arg "A", ctx.CD.arg "B")));
    ]

let poly_alu_module () =
  let b = Builder.create "poly_alu" in
  let sel = Builder.input b "sel" 2 in
  let a = Builder.input b "a" 8 in
  let x = Builder.input b "x" 8 in
  let y = Builder.output b "y" 8 in
  let variants =
    [ alu_variant "AluAdd" Ir.Add; alu_variant "AluSub" Ir.Sub;
      alu_variant "AluXor" Ir.Xor; alu_variant "AluAnd" Ir.And ]
  in
  let poly = Osss.Polymorph.instantiate b ~name:"alu" ~base:alu_base variants in
  let _, result = Osss.Polymorph.vcall_fn poly "Execute" [ Ir.Var a; Ir.Var x ] in
  Builder.sync b "drive"
    [
      Ir.Case
        ( Ir.Var sel,
          List.mapi
            (fun i variant ->
              (Bitvec.of_int ~width:2 i, Osss.Polymorph.assign_class poly variant))
            variants,
          [] );
      Ir.Assign (y, result);
    ];
  Builder.finish b

let manual_alu_module () =
  let open Builder.Dsl in
  let b = Builder.create "manual_alu" in
  let sel = Builder.input b "sel" 2 in
  let a = Builder.input b "a" 8 in
  let x = Builder.input b "x" 8 in
  let y = Builder.output b "y" 8 in
  let mode = Builder.wire b "mode" 2 in
  Builder.sync b "drive"
    [
      mode <-- v sel;
      case (v mode)
        [
          (0, [ y <-- (v a +: v x) ]);
          (1, [ y <-- (v a -: v x) ]);
          (2, [ y <-- (v a ^: v x) ]);
        ]
        [ y <-- (v a &: v x) ];
    ];
  Builder.finish b

let e4 () =
  section "e4"
    "Polymorphic ALU vs hand-multiplexed ALU (paper: polymorphism inserts \
     only the selection muxes)";
  let gates m = Backend.Opt.optimize (Backend.Lower.lower m) in
  let print name nl =
    let a = Backend.Area.analyze nl in
    let muxes =
      List.fold_left
        (fun acc (k, n) -> if k = Backend.Cell.Mux2 then acc + n else acc)
        0 (Backend.Netlist.stats nl)
    in
    row "  %-24s %6d cells %8.1f GE %4d flip-flops %4d mux2\n" name
      (Backend.Netlist.cell_count nl)
      a.Backend.Area.total a.Backend.Area.n_ffs muxes
  in
  let poly = gates (poly_alu_module ()) in
  let manual = gates (manual_alu_module ()) in
  print "OSSS polymorphism" poly;
  print "manual mux select" manual;
  let c_p = Backend.Netlist.cell_count poly
  and c_m = Backend.Netlist.cell_count manual in
  row "  cell ratio poly/manual = %.2f (paper: ~1, muxes exist either way)\n"
    (float_of_int c_p /. float_of_int c_m)

(* ------------------------------------------------------------------ *)
(* E5: global objects add only the arbiter a shared resource needs     *)

let counter_class =
  CD.declare ~name:"BenchCounter"
    [ CD.field "count" 8 ]
    [
      CD.proc_method ~name:"Tick" ~params:[] (fun ctx ->
          [
            ctx.CD.set "count"
              (Ir.Binop
                 (Ir.Add, ctx.CD.get "count", Ir.Const (Bitvec.of_int ~width:8 1)));
          ]);
    ]

let shared_object_module policy =
  let b = Builder.create "shared_obj" in
  let reset = Builder.input b "reset" 1 in
  let reqs = Builder.input b "reqs" 3 in
  let value = Builder.output b "value" 8 in
  let shared =
    Osss.Shared.create b ~name:"cnt" ~class_:counter_class ~policy ~clients:3
      ~methods:[ "Tick" ] ~reset
  in
  List.iteri
    (fun i () ->
      let cl = Osss.Shared.client shared i in
      Builder.comb b
        (Printf.sprintf "drv%d" i)
        [
          Ir.Assign (Osss.Shared.req cl, Ir.Slice (Ir.Var reqs, i, i));
          Ir.Assign (Osss.Shared.op cl, Ir.Const (Bitvec.zero 1));
        ])
    [ (); (); () ];
  Builder.comb b "obs"
    [ Ir.Assign (value, OI.field_expr (Osss.Shared.state shared) "count") ];
  Builder.finish b

let manual_arbiter_module () =
  let open Builder.Dsl in
  let b = Builder.create "manual_arbiter" in
  let reset = Builder.input b "reset" 1 in
  let reqs = Builder.input b "reqs" 3 in
  let value = Builder.output b "value" 8 in
  let count = Builder.wire b "count" 8 in
  let last = Builder.wire b "last" 2 in
  let grant = Builder.wire b "grant" 3 in
  (* hand-written rotating-priority arbiter + shared counter *)
  let r i = bit (v reqs) i in
  let fixed order =
    List.concat
      (List.mapi
         (fun pos j ->
           let earlier = List.filteri (fun p _ -> p < pos) order in
           let none_before =
             List.fold_left (fun acc k -> acc &: notb (r k)) (cb true) earlier
           in
           [ assign_slice grant ~lo:j (r j &: none_before) ])
         order)
  in
  Builder.comb b "arbiter"
    [
      grant <-- c ~width:3 0;
      case (v last)
        [ (0, fixed [ 1; 2; 0 ]); (1, fixed [ 2; 0; 1 ]); (2, fixed [ 0; 1; 2 ]) ]
        (fixed [ 1; 2; 0 ]);
    ];
  Builder.sync b "server"
    [
      if_ (v reset)
        [ count <-- c ~width:8 0; last <-- c ~width:2 0 ]
        [
          when_ (bit (v grant) 0)
            [ count <-- (v count +: c ~width:8 1); last <-- c ~width:2 0 ];
          when_ (bit (v grant) 1)
            [ count <-- (v count +: c ~width:8 1); last <-- c ~width:2 1 ];
          when_ (bit (v grant) 2)
            [ count <-- (v count +: c ~width:8 1); last <-- c ~width:2 2 ];
        ];
    ];
  Builder.comb b "obs" [ value <-- v count ];
  Builder.finish b

let e5 () =
  section "e5"
    "Shared (global) object vs hand-written arbiter (paper: scheduler \
     logic would be needed anyway)";
  let gates m = Backend.Opt.optimize (Backend.Lower.lower m) in
  let print name nl =
    let a = Backend.Area.analyze nl in
    row "  %-34s %6d cells %8.1f GE %4d flip-flops\n" name
      (Backend.Netlist.cell_count nl)
      a.Backend.Area.total a.Backend.Area.n_ffs
  in
  print "OSSS global object (round-robin)"
    (gates (shared_object_module Osss.Shared.Round_robin));
  print "hand arbiter + shared counter" (gates (manual_arbiter_module ()));
  print "OSSS global object (priority)"
    (gates (shared_object_module Osss.Shared.Fixed_priority));
  print "OSSS global object (FCFS)"
    (gates (shared_object_module Osss.Shared.Fcfs))

(* ------------------------------------------------------------------ *)
(* The ExpoCU frame workload shared by E6, POWER and the gates         *)

let gate_netlist = lazy (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))

(* One ExpoCU frame of stimulus against an already-created simulator.
   [bind] resolves a port name to its drive closure once, up front, so
   backends with prebound port handles (Nl_sim.in_port) pay no name
   lookup in the stimulus loop; all simulators share the exact same
   drive sequence.  [drive_pixel i] drives the [i]th pixel; by default
   every simulator sees the stream (i*53) mod 256. *)
let drive_frame ?drive_pixel ~bind ~step ~get ~pixels () =
  let ext_reset = bind "ext_reset"
  and target_bin = bind "target_bin"
  and sda_in = bind "sda_in"
  and frame_sync = bind "frame_sync"
  and line_valid = bind "line_valid"
  and pixel = bind "pixel" in
  let drive_pixel =
    match drive_pixel with Some f -> f | None -> fun i -> pixel (i * 53 mod 256)
  in
  ext_reset 0;
  target_bin 7;
  sda_in 0;
  frame_sync 0;
  line_valid 0;
  pixel 0;
  for _ = 1 to 15 do step () done;
  frame_sync 1;
  for _ = 1 to 4 do step () done;
  line_valid 1;
  for i = 0 to pixels - 1 do
    drive_pixel i;
    step ()
  done;
  line_valid 0;
  frame_sync 0;
  let guard = ref 0 in
  while get "frame_done" = 0 && !guard < 4000 do
    step ();
    incr guard
  done

let drive_nl ?drive_pixel ~pixels sim =
  drive_frame ?drive_pixel
    ~bind:(fun name ->
      Backend.Nl_sim.drive_port_int sim (Backend.Nl_sim.in_port sim name))
    ~step:(fun () -> Backend.Nl_sim.step sim)
    ~get:(Backend.Nl_sim.get_output_int sim)
    ~pixels ()

let drive_rtl ~pixels sim =
  drive_frame ~bind:(Rtl_sim.set_input_int sim)
    ~step:(fun () -> Rtl_sim.step sim)
    ~get:(Rtl_sim.get_int sim) ~pixels ()

let nl_frame ?(profile = false) ?mode ~pixels () =
  let sim = Backend.Nl_sim.create ?mode (Lazy.force gate_netlist) in
  if profile then Backend.Nl_sim.enable_profile sim;
  drive_nl ~pixels sim;
  sim

let rtl_frame ~pixels () =
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  drive_rtl ~pixels sim;
  sim

(* The same frame on a full-eval [lanes]-lane simulator: control inputs
   broadcast, the pixel stream distinct per lane — lane 0 carries the
   scalar frame and lane l offsets it by l*17, so one run is [lanes]
   stimulus seeds. *)
let word_frame ~lanes ~pixels () =
  let sim =
    Backend.Nl_sim.create ~mode:Backend.Nl_sim.Full_eval ~lanes
      (Lazy.force gate_netlist)
  in
  drive_nl ~pixels sim ~drive_pixel:(fun i ->
      Backend.Nl_sim.set_input_packed sim "pixel"
        (Array.init 8 (fun b ->
             Bitvec.init lanes (fun l ->
                 (((i * 53) + (l * 17)) mod 256) lsr b land 1 = 1))));
  sim

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

(* ------------------------------------------------------------------ *)
(* E6: simulation speed across abstraction levels                      *)

let behavioural_frame_sim () =
  let r = Expocu.Behave_model.run ~frames:1 ~pixels_per_frame:256 () in
  r.Expocu.Behave_model.sim_cycles

(* Rounds of E6: each round times one frame per level back to back, so
   host load drifting during the run hits every level of a round alike;
   the figures are medians over the rounds, after one warm-up round. *)
let e6_rounds = 15

let e6 () =
  section "e6"
    "Simulation speed per abstraction level (paper: behavioural SystemC \
     much faster than conventional RTL simulators)";
  let design = Expocu.Expocu_top.rtl_top () in
  let rtl () =
    let sim = Rtl_sim.create design in
    drive_rtl ~pixels:256 sim;
    sim
  in
  let levels =
    [|
      ("behavioural", fun () -> ignore (behavioural_frame_sim ()));
      ("RTL", fun () -> ignore (rtl ()));
      ("gate-level", fun () -> ignore (nl_frame ~pixels:256 ()));
    |]
  in
  let round () = Array.map (fun (_, f) -> snd (timed f)) levels in
  ignore (round ());
  let rounds = List.init e6_rounds (fun _ -> round ()) in
  let cycles = float_of_int (Rtl_sim.cycles (rtl ())) in
  row "  (median of %d alternating rounds)\n" e6_rounds;
  Array.iteri
    (fun i (name, _) ->
      let s = median (List.map (fun r -> r.(i)) rounds) in
      row "  %-14s %12.2f ms/frame %12.0f cycles/s\n" name (s *. 1e3) (cycles /. s))
    levels;
  let ratio slow fast = median (List.map (fun r -> r.(slow) /. r.(fast)) rounds) in
  row
    "  speedups: behavioural/RTL = %.1fx, RTL/gate = %.1fx, \
     behavioural/gate = %.1fx\n"
    (ratio 1 0) (ratio 2 1) (ratio 2 0)

(* ------------------------------------------------------------------ *)
(* E7: development effort, I2C master in three methodologies           *)

let e7 () =
  section "e7"
    "I2C master development effort (paper: OSSS 1 day, SystemC ~2 days, \
     VHDL RTL slightly longer)";
  let variants =
    [
      ("OSSS", Expocu.I2c.osss_module (), 1.0);
      ("SystemC", Expocu.I2c.systemc_module (), 2.0);
      ("VHDL RTL", Expocu.I2c.vhdl_module (), 2.5);
    ]
  in
  row "  %-10s %8s %8s %10s %18s %12s\n" "style" "stmts" "tokens" "decisions"
    "effort-model" "paper(days)";
  let base = ref 0.0 in
  List.iter
    (fun (name, m, paper_days) ->
      let metrics = Metrics.of_module m in
      let effort = Metrics.effort_days metrics in
      if !base = 0.0 then base := effort;
      row "  %-10s %8d %8d %10d %10.2f (%4.1fx) %12.1f\n" name
        metrics.Metrics.lines metrics.Metrics.tokens metrics.Metrics.decisions
        effort (effort /. !base) paper_days)
    variants;
  row "  emitted artifact sizes (non-blank lines):\n";
  List.iter
    (fun (name, m, _) ->
      let text =
        match name with
        | "VHDL RTL" -> Vhdl.emit m
        | _ -> Osss.Resolve.emit_module (Elaborate.flatten m)
      in
      let tm = Metrics.of_text text in
      row "    %-10s %6d lines\n" name tm.Metrics.lines)
    variants

(* ------------------------------------------------------------------ *)
(* E8: bit and cycle accuracy through the whole flow                   *)

let e8 () =
  section "e8"
    "Bit/cycle accuracy across flow stages (paper: every stage bit and \
     cycle accurate)";
  let osss_top = Expocu.Expocu_top.osss_top () in
  let rtl_top = Expocu.Expocu_top.rtl_top () in
  let report name result =
    match result with
    | Ok n -> row "  %-46s %5d cycles, 0 mismatches\n" name n
    | Error m ->
        row "  %-46s MISMATCH: %s\n" name
          (Format.asprintf "%a" Backend.Equiv.pp_divergence m)
  in
  report "OSSS design vs conventional design"
    (Backend.Equiv.ir_vs_ir ~cycles:2000 osss_top rtl_top);
  report "OSSS design vs its synthesized netlist"
    (Backend.Equiv.ir_vs_netlist ~cycles:800 osss_top
       (Backend.Lower.lower osss_top));
  report "OSSS design vs optimized netlist"
    (Backend.Equiv.ir_vs_netlist ~cycles:800 osss_top
       (Backend.Opt.optimize (Backend.Lower.lower osss_top)));
  report "conventional design vs its netlist"
    (Backend.Equiv.ir_vs_netlist ~cycles:800 rtl_top
       (Backend.Lower.lower rtl_top));
  (* The directed 256-pixel frame (pixel i = i * 53 mod 256) through
     the frame's processing: each optimized netlist against the netlist
     it was optimized from. *)
  List.iter
    (fun (label, top) ->
      let raw = Backend.Lower.lower top in
      report
        (Printf.sprintf "%s opt vs lowered, directed frame" label)
        (Backend.Equiv.differential
           ~cycles:Expocu.Expocu_top.directed_frame_cycles
           ~drive:Expocu.Expocu_top.directed_frame
           [
             (fun () -> Backend.Nl_engine.create ~label:"lowered" raw);
             (fun () ->
               Backend.Nl_engine.create ~label:"optimized"
                 (Backend.Opt.optimize raw));
           ]))
    [ ("OSSS", osss_top); ("conventional", rtl_top) ];
  (* All levels in one N-way lockstep run through the engine harness:
     the first factory is the reference, every output of every other
     engine is compared against it each cycle. *)
  let factories =
    [
      (fun () -> Rtl_engine.create ~label:"rtl:osss" osss_top);
      (fun () -> Rtl_engine.create ~label:"rtl:conventional" rtl_top);
      (fun () ->
        Backend.Nl_engine.create ~label:"gates:osss"
          (Backend.Opt.optimize (Backend.Lower.lower osss_top)));
    ]
  in
  report "3-way lockstep: osss rtl / conv rtl / gates"
    (Backend.Equiv.differential ~cycles:500 factories);
  (* Negative control: a fault seeded into a fourth engine must be
     detected, localized and shrunk to a minimal reproducer window. *)
  (match
     Backend.Equiv.differential ~cycles:500
       (factories
       @ [
           (fun () ->
             Engine.inject_fault ~from_cycle:120 ~port:"frame_done"
               (Rtl_engine.create ~label:"rtl:seeded-fault" osss_top));
         ])
   with
  | Ok _ -> row "  seeded fault: NOT DETECTED (harness is broken)\n"
  | Error d ->
      row "  seeded fault detected and shrunk: %s\n"
        (Format.asprintf "%a" Backend.Equiv.pp_divergence d))

(* ------------------------------------------------------------------ *)
(* E9: behavioral synthesis exploration                                *)

let e9 () =
  section "e9"
    "Behavioral synthesis: resource constraints vs latency/area (the \
     'behavioral synthesis overhead' of the paper's flow)";
  let g =
    Synth.Behavioral.create ~name:"filter_tap"
      ~inputs:
        [ ("x0", 8); ("x1", 8); ("x2", 8); ("x3", 8); ("k0", 8); ("k1", 8) ]
  in
  let open Synth.Behavioral in
  let m0 = node g Mul [ Input "x0"; Input "k0" ] in
  let m1 = node g Mul [ Input "x1"; Input "k1" ] in
  let m2 = node g Mul [ Input "x2"; Input "k0" ] in
  let m3 = node g Mul [ Input "x3"; Input "k1" ] in
  let s0 = node g Add [ Node m0; Node m1 ] in
  let s1 = node g Add [ Node m2; Node m3 ] in
  let s = node g Add [ Node s0; Node s1 ] in
  output g "y" (Node s);
  row "  %-22s %8s %8s %10s %10s\n" "schedule" "states" "cells" "area GE"
    "fmax MHz";
  List.iter
    (fun (name, sched) ->
      let m = to_module g sched in
      let nl = Backend.Opt.optimize (Backend.Lower.lower m) in
      let a = Backend.Area.analyze nl in
      let t = Backend.Timing.analyze nl in
      row "  %-22s %8d %8d %10.1f %10.1f\n" name (latency sched)
        (Backend.Netlist.cell_count nl)
        a.Backend.Area.total t.Backend.Timing.fmax_mhz)
    [
      ("unconstrained (ASAP)", asap g);
      ( "2 multipliers",
        list_schedule g ~resources:(fun k ->
            match k with Mul -> 2 | Add | Sub | And | Or | Xor | Mux -> 4) );
      ( "1 multiplier",
        list_schedule g ~resources:(fun k ->
            match k with Mul -> 1 | Add | Sub | And | Or | Xor | Mux -> 4) );
      ("1 of everything", list_schedule g ~resources:(fun _ -> 1));
    ]

(* ------------------------------------------------------------------ *)
(* F12: synthesized design structure                                   *)

let f12 () =
  section "f12" "ExpoCU top-level structure (paper Figure 12)";
  print_string (Synth.Analyzer.report (Expocu.Expocu_top.osss_top ()))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation () =
  section "ablation" "design-choice ablations (DESIGN.md)";
  let design = Expocu.Expocu_top.osss_top () in
  let with_fold = Backend.Lower.lower ~fold:true design in
  let without = Backend.Lower.lower ~fold:false design in
  row "  netlist folding: on=%d cells, off=%d cells (%.1fx), off+opt=%d\n"
    (Backend.Netlist.cell_count with_fold)
    (Backend.Netlist.cell_count without)
    (float_of_int (Backend.Netlist.cell_count without)
    /. float_of_int (Backend.Netlist.cell_count with_fold))
    (Backend.Netlist.cell_count (Backend.Opt.optimize without));
  let throughput_of policy =
    let sim = Rtl_sim.create (shared_object_module policy) in
    Rtl_sim.set_input_int sim "reset" 1;
    Rtl_sim.step sim;
    Rtl_sim.set_input_int sim "reset" 0;
    Rtl_sim.set_input_int sim "reqs" 7;
    Rtl_sim.run sim 30;
    Rtl_sim.get_int sim "value"
  in
  row
    "  scheduler throughput over 30 contended cycles: RR=%d, priority=%d, \
     FCFS=%d ticks\n"
    (throughput_of Osss.Shared.Round_robin)
    (throughput_of Osss.Shared.Fixed_priority)
    (throughput_of Osss.Shared.Fcfs)

(* ------------------------------------------------------------------ *)
(* Formal verification table                                           *)

let formal () =
  section "formal"
    "Formal equivalence proofs (BDD-based; strengthens the sampled E3/E8 \
     results)";
  let prove name a b =
    let t0 = Unix.gettimeofday () in
    let verdict = Backend.Cec.check_ir a b in
    row "  %-44s %-22s (%.2f s)\n" name
      (Format.asprintf "%a" Backend.Cec.pp_verdict verdict)
      (Unix.gettimeofday () -. t0)
  in
  prove "sync: OSSS vs hand RTL" (Expocu.Sync.osss_module ())
    (Expocu.Sync.rtl_module ());
  prove "i2c: OSSS vs plain SystemC" (Expocu.I2c.osss_module ())
    (Expocu.I2c.systemc_module ());
  prove "i2c: OSSS vs VHDL two-process" (Expocu.I2c.osss_module ())
    (Expocu.I2c.vhdl_module ());
  prove "reset: OSSS vs hand RTL" (Expocu.Reset_ctrl.osss_module ())
    (Expocu.Reset_ctrl.rtl_module ());
  (* optimizer soundness, from raw unfolded gates to optimized *)
  let design = Expocu.I2c.vhdl_module () in
  let raw = Backend.Lower.lower ~fold:false design in
  let optimized = Backend.Opt.optimize raw in
  row "  %-44s %-22s\n" "i2c: unfolded netlist vs optimized"
    (Format.asprintf "%a" Backend.Cec.pp_verdict
       (Backend.Cec.check raw optimized))

(* ------------------------------------------------------------------ *)
(* Power comparison                                                    *)

let power () =
  section "power"
    "Dynamic power per frame from sampled switching activity (model \
     units; extension beyond the paper's area/frequency metrics)";
  let run design =
    let nl = Backend.Opt.optimize (Backend.Lower.lower design) in
    let sim = Backend.Nl_sim.create nl in
    Backend.Nl_sim.enable_power_sampler sim;
    drive_nl ~pixels:256 sim;
    Synth.Power_dyn.analyze nl (Option.get (Backend.Nl_sim.power_activity sim))
  in
  let p_osss = run (Expocu.Expocu_top.osss_top ()) in
  let p_vhdl = run (Expocu.Expocu_top.rtl_top ()) in
  let pp (p : Synth.Power_dyn.report) =
    Printf.sprintf
      "%.3f mW avg (%.3f leakage), %.3f mW peak, %.1f pJ over %d cycles"
      p.p_avg_mw p.p_leakage_mw p.p_peak_mw p.p_total_energy_pj p.p_cycles
  in
  row "  %-6s %s\n" "OSSS" (pp p_osss);
  row "  %-6s %s\n" "VHDL" (pp p_vhdl);
  row "  power ratio OSSS/VHDL = %.3f\n"
    (p_osss.Synth.Power_dyn.p_avg_mw /. p_vhdl.Synth.Power_dyn.p_avg_mw)

(* ------------------------------------------------------------------ *)
(* Layout: technology mapping and place & route                        *)

let layout () =
  section "layout"
    "Technology map + place & route (completes Figure 6: map tool, \
     place&route, post-layout frequency)";
  row "  %-6s %6s %6s %7s %9s %11s %9s %7s\n" "flow" "LUT4" "FFs" "depth"
    "grid" "wirelength" "fmax MHz" "66 MHz";
  List.iter
    (fun (name, design) ->
      let nl = Backend.Opt.optimize (Backend.Lower.lower design) in
      let mapped = Backend.Techmap.map nl in
      let placement = Backend.Pnr.place ~seed:42 ~moves:800_000 mapped in
      let r = Backend.Pnr.analyze placement in
      let w, h = r.Backend.Pnr.grid in
      row "  %-6s %6d %6d %7d %5dx%-3d %11.0f %9.1f %7s\n" name
        (Backend.Techmap.lut_count mapped)
        (Backend.Techmap.ff_count mapped)
        (Backend.Techmap.depth mapped)
        w h r.Backend.Pnr.wirelength r.Backend.Pnr.fmax_mhz
        (if r.Backend.Pnr.fmax_mhz >= 66.0 then "met" else "missed"))
    [
      ("OSSS", Expocu.Expocu_top.osss_top ());
      ("VHDL", Expocu.Expocu_top.rtl_top ());
    ];
  row "  (LUT4 %.2f ns; wire %.2f ns + %.2f ns per grid unit)\n"
    Backend.Pnr.lut_delay_ns Backend.Pnr.wire_base_ns
    Backend.Pnr.wire_delay_ns_per_unit

(* ------------------------------------------------------------------ *)
(* Reset coverage                                                      *)

let xcheck () =
  section "xcheck"
    "Four-state reset coverage of the full ExpoCU (extension: conservative \
     X-propagation instead of the power-up-to-zero assumption)";
  let nl = Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()) in
  let sim = Backend.Xprop.create nl in
  Backend.Xprop.set_input sim "ext_reset" (Bitvec.of_int ~width:1 1);
  Backend.Xprop.set_input sim "pixel" (Bitvec.of_int ~width:8 0);
  Backend.Xprop.set_input sim "line_valid" (Bitvec.of_int ~width:1 0);
  Backend.Xprop.set_input sim "frame_sync" (Bitvec.of_int ~width:1 0);
  Backend.Xprop.set_input sim "sda_in" (Bitvec.of_int ~width:1 0);
  Backend.Xprop.set_input sim "target_bin" (Bitvec.of_int ~width:8 7);
  let report label =
    row "  %-34s unknown flip-flops: %4d; unknown output bits: %d\n" label
      (Backend.Xprop.unknown_ffs sim)
      (List.fold_left (fun a (_, n) -> a + n) 0
         (Backend.Xprop.unknown_outputs sim))
  in
  Backend.Xprop.settle sim;
  report "power-up";
  Backend.Xprop.run sim 4;
  report "after 4 cycles of ext_reset";
  Backend.Xprop.set_input sim "ext_reset" (Bitvec.of_int ~width:1 0);
  Backend.Xprop.run sim 15;
  report "after POR stretch elapses"

(* ------------------------------------------------------------------ *)
(* Lane-parallel fault campaign on the full ExpoCU netlist             *)

(* [n] seeded random stuck-at faults on the ExpoCU gate netlist. *)
let random_faults ~seed n =
  let rng = Random.State.make [| seed |] in
  let n_nets = Backend.Netlist.net_count (Lazy.force gate_netlist) in
  List.init n (fun _ ->
      {
        Backend.Equiv.fault_net = Random.State.int rng n_nets;
        stuck_at = Random.State.bool rng;
      })

(* Pure random stimulus would toggle ext_reset every other cycle and
   keep the design in reset; hold it released so faults propagate. *)
let hold_reset_released _ (name, r) =
  if name = "ext_reset" then Bitvec.zero 1 else r

let faults_exp () =
  section "faults"
    "Lane-parallel stuck-at campaign: 63 fault candidates + golden lane, \
     one word-parallel run";
  let nl = Lazy.force gate_netlist in
  let faults = random_faults ~seed:0xFA17 63 in
  let drive = hold_reset_released in
  let (c : Backend.Equiv.campaign), s =
    timed (fun () ->
        Backend.Equiv.fault_campaign ~cycles:400 ~drive ~shrink:false nl faults)
  in
  row "  %d/%d faults detected in %d cycles (%.2f s, %d word gate evals)\n"
    c.Backend.Equiv.faults_detected c.Backend.Equiv.faults_total
    c.Backend.Equiv.campaign_cycles s c.Backend.Equiv.campaign_gate_evals;
  row
    "  (a scalar simulator would re-run the stimulus once per fault: %dx \
     the gate evaluations)\n"
    (1 + List.length faults);
  let detected =
    List.filter_map
      (fun (r : Backend.Equiv.fault_result) -> r.detected_at)
      c.Backend.Equiv.fault_results
  in
  (match List.sort compare detected with
  | [] -> ()
  | sorted ->
      let n = List.length sorted in
      let nth p = List.nth sorted (p * (n - 1) / 100) in
      row "  detection latency over %d detected: min %d  median %d  p90 %d  \
           max %d cycles\n"
        n (List.hd sorted) (nth 50) (nth 90) (nth 100));
  (* Hierarchical fault sites: undetected faults grouped by the instance
     that owns the faulted net — the per-component view of testability. *)
  let undetected =
    List.filter
      (fun (r : Backend.Equiv.fault_result) -> r.detected_at = None)
      c.Backend.Equiv.fault_results
  in
  if undetected <> [] then begin
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (r : Backend.Equiv.fault_result) ->
        let m =
          match String.rindex_opt r.Backend.Equiv.site '.' with
          | Some i -> String.sub r.Backend.Equiv.site 0 i
          | None -> "<top>"
        in
        Hashtbl.replace tbl m
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl m)))
      undetected;
    let per_module =
      List.sort compare (Hashtbl.fold (fun m n acc -> (m, n) :: acc) tbl [])
    in
    row "  undetected sites by instance: %s\n"
      (String.concat ", "
         (List.map (fun (m, n) -> Printf.sprintf "%s (%d)" m n) per_module))
  end;
  (* Hand one early-detected fault back to the scalar differential
     harness for a minimal reproducer. *)
  match
    List.find_opt
      (fun (r : Backend.Equiv.fault_result) ->
        match r.detected_at with Some cyc -> cyc < 60 | None -> false)
      c.Backend.Equiv.fault_results
  with
  | None -> ()
  | Some r -> (
      let c1 =
        Backend.Equiv.fault_campaign ~cycles:80 ~drive nl
          [ r.Backend.Equiv.fault ]
      in
      match c1.Backend.Equiv.fault_results with
      | [ { Backend.Equiv.shrunk = Some d; fault; site; _ } ] ->
          row "  shrunk reproducer for stuck-at-%d on %s: %d-cycle window\n"
            (Bool.to_int fault.Backend.Equiv.stuck_at)
            site
            (Array.length d.Backend.Equiv.window)
      | _ -> row "  (no shrunk reproducer)\n")

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("f12", f12); ("formal", formal);
    ("power", power); ("layout", layout); ("xcheck", xcheck);
    ("ablation", ablation); ("faults", faults_exp);
  ]

(* ------------------------------------------------------------------ *)
(* Gate workloads: the figures CI gates on and BENCH_sim.json records  *)

let cps cycles s = if s > 0.0 then float_of_int cycles /. s else 0.0

let evals_per_cycle sim =
  float_of_int (Backend.Nl_sim.gate_evals sim)
  /. float_of_int (Backend.Nl_sim.cycles sim)

(* The two perf-gate figures, on the small smoke frame: the
   deterministic event-driven vs full-eval evals-per-cycle ratio, and
   the 64-lane full-eval per-pattern throughput over the scalar
   full-eval simulator.  The speedup is the median over alternating
   scalar/word sample pairs, so host load drifting during the run hits
   both sides of each pair alike.  [ev] is profiled: its activity is
   the smoke report's hot-net and hot-cell profile. *)
let perf_gate_pixels = 32
let perf_gate_lanes = 64
let perf_gate_samples = 7

type perf = {
  ev : Backend.Nl_sim.t;
  fl : Backend.Nl_sim.t;
  ratio : float;
  speedup : float;
  perf_fields : (string * Obs.Json.t) list;
}

let measure_perf_gate () =
  let pixels = perf_gate_pixels and lanes = perf_gate_lanes in
  let ev =
    nl_frame ~profile:true ~mode:Backend.Nl_sim.Event_driven ~pixels ()
  in
  let fl = nl_frame ~mode:Backend.Nl_sim.Full_eval ~pixels () in
  let ratio = evals_per_cycle ev /. evals_per_cycle fl in
  let pairs =
    List.init perf_gate_samples (fun _ ->
        let s, s_s =
          timed (fun () -> nl_frame ~mode:Backend.Nl_sim.Full_eval ~pixels ())
        in
        let w, w_s = timed (word_frame ~lanes ~pixels) in
        ( cps (Backend.Nl_sim.cycles s) s_s,
          cps (Backend.Nl_sim.cycles w * lanes) w_s ))
  in
  let speedup = median (List.map (fun (s, w) -> w /. s) pairs) in
  let perf_fields =
    let open Obs.Json in
    [
      ("pixels", Int pixels);
      ("lanes", Int lanes);
      ("samples", Int perf_gate_samples);
      ("evals_per_cycle_ratio", Float ratio);
      ("scalar_full_patterns_per_sec", Float (median (List.map fst pairs)));
      ("word_full_patterns_per_sec", Float (median (List.map snd pairs)));
      ("word64_per_pattern_speedup", Float speedup);
    ]
  in
  { ev; fl; ratio; speedup; perf_fields }

(* Hierarchy & memo-cache measurements: run the OSSS flow over the full
   ExpoCU top twice from a cleared module cache.  The warm run must hit
   the lowering cache for every module and therefore finish no slower
   than the cold run (modulo timer noise — see the gate tolerance). *)
let measure_hierarchy () =
  Backend.Lower.clear_cache ();
  let design = Expocu.Expocu_top.osss_top () in
  let lower_metric (r : Synth.Flow.result) key =
    match
      List.find_opt
        (fun (p : Synth.Flow.pass) -> p.Synth.Flow.pass_name = "lower")
        r.Synth.Flow.passes
    with
    | Some p -> Option.value ~default:0.0 (Synth.Flow.pass_metric p key)
    | None -> 0.0
  in
  let cold, cold_s = timed (fun () -> Synth.Flow.run Synth.Flow.Osss design) in
  let warm, warm_s = timed (fun () -> Synth.Flow.run Synth.Flow.Osss design) in
  let warm_hits = int_of_float (lower_metric warm "cache_hits") in
  let nl = warm.Synth.Flow.netlist in
  let detail =
    let open Obs.Json in
    Obj
      [
        ("design", String design.Ir.mod_name);
        ("cold_flow_ms", Float (cold_s *. 1000.0));
        ("warm_flow_ms", Float (warm_s *. 1000.0));
        ("cold_cache_hits", Float (lower_metric cold "cache_hits"));
        ("cold_cache_misses", Float (lower_metric cold "cache_misses"));
        ("warm_cache_hits", Float (lower_metric warm "cache_hits"));
        ("warm_cache_misses", Float (lower_metric warm "cache_misses"));
        ("region_nets", Int (Backend.Netlist.region_table_size nl));
        ("hinted_nets", Int (Backend.Netlist.hint_table_size nl));
        ( "modules",
          List
            (List.map (fun r -> String r) (Backend.Netlist.region_names nl)) );
      ]
  in
  (cold_s, warm_s, warm_hits, detail)

(* Dynamic power on the synthesized ExpoCU, OSSS flow vs conventional
   flow: [Power_dyn.measure] drives both optimized netlists with the
   same deterministic seeded stimulus, so the energy totals are
   reproducible figures the CI energy gate can diff against a
   checked-in baseline. *)
let power_cycles = 256

let measure_power =
  lazy
    (let open Synth.Power_dyn in
     let osss, vhdl = Lazy.force expocu_results in
     let run (r : Synth.Flow.result) =
       measure ~cycles:power_cycles r.Synth.Flow.netlist
     in
     let po = run osss and pv = run vhdl in
     let open Obs.Json in
     let side p =
       Obj
         [
           ("total_energy_pj", Float p.p_total_energy_pj);
           ("avg_mw", Float p.p_avg_mw);
           ("peak_mw", Float p.p_peak_mw);
           ("leakage_mw", Float p.p_leakage_mw);
           ( "peak_why",
             match p.p_peak_why with Some s -> String s | None -> Null );
         ]
     in
     let rows =
       List.sort (fun a b -> compare b.pm_energy_pj a.pm_energy_pj)
         po.p_by_module
     in
     let module_rows rows =
       List
         (List.map
            (fun r ->
              Obj
                [
                  ( "path",
                    String (if r.pm_path = "" then "<top>" else r.pm_path) );
                  ("energy_pj", Float r.pm_energy_pj);
                  ("avg_mw", Float r.pm_avg_mw);
                  ("toggles", Int r.pm_toggles);
                ])
            rows)
     in
     let detail =
       Obj
         [
           ("workload", String "expocu_seeded");
           ("cycles", Int power_cycles);
           ("lib", String po.p_lib);
           ("freq_mhz", Float po.p_freq_mhz);
           ("osss", side po);
           ("conventional", side pv);
           ( "energy_ratio",
             Float
               (if pv.p_total_energy_pj > 0.0 then
                  po.p_total_energy_pj /. pv.p_total_energy_pj
                else 0.0) );
           ("top_modules", module_rows (List.filteri (fun i _ -> i < 5) rows));
           ("osss_by_module", module_rows rows);
         ]
     in
     (po, detail))

(* Coverage-instrumented smoke frame: the RTL interpreter carries the
   full model (toggle bits + FSMs + covergroups + protocol monitor),
   and the event-driven netlist contributes its per-net toggle bits
   under the "nl:" prefix, so one DB spans both abstraction levels. *)
let smoke_cover_db () =
  let pixels = perf_gate_pixels in
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  Rtl_sim.enable_toggle_cover sim;
  let cp = Expocu.Coverpoints.attach sim in
  let mon = Expocu.Monitors.expocu_monitor sim in
  drive_rtl ~pixels sim;
  Expocu.Coverpoints.sample_frame cp sim;
  Assert_mon.finish mon;
  if not (Assert_mon.ok mon) then begin
    List.iter
      (fun v -> Format.eprintf "%a@." Assert_mon.pp_violation v)
      (Assert_mon.violations mon);
    failwith "smoke coverage run violated a protocol monitor"
  end;
  let nl =
    Backend.Nl_sim.create ~mode:Backend.Nl_sim.Event_driven
      (Lazy.force gate_netlist)
  in
  Backend.Nl_sim.enable_toggle_cover nl;
  drive_nl ~pixels nl;
  let tg = function Some tg -> tg | None -> assert false in
  Cover.Db.make
    ~toggles:
      (Cover.Db.toggle_entries ~prefix:"rtl:" (tg (Rtl_sim.toggle_cover sim))
      @ Cover.Db.toggle_entries ~prefix:"nl:"
          (tg (Backend.Nl_sim.toggle_cover nl)))
    ~fsms:(Expocu.Coverpoints.fsms cp)
    ~groups:(Expocu.Coverpoints.groups cp)
    ~monitors:(Assert_mon.db_monitors mon)
    ~run:"bench-smoke" ()

(* Coverage gate: the freshly collected DB must not regress against the
   checked-in baseline — every item the baseline covered must still be
   covered (totals may grow, never shrink item-wise). *)
let cover_gate_check ~baseline db =
  match Cover.Db.load baseline with
  | Error e ->
      Obs.Log.errorf "cover-gate: %s" e;
      1
  | Ok base -> (
      match Cover.Db.diff base db with
      | [] ->
          Obs.Log.infof
            "cover-gate: ok — baseline %s held (%.1f%% toggle coverage now)"
            baseline
            (100.0 *. Cover.Db.toggle_coverage db);
          0
      | lost ->
          Obs.Log.errorf "cover-gate: %d items covered in %s are now uncovered:"
            (List.length lost) baseline;
          List.iter
            (fun (kind, item) -> Obs.Log.errorf "  %-9s %s" kind item)
            lost;
          1)

(* Campaign wall-clock for the parallel gate: one fault list at jobs=1
   and jobs=4.  248 faults keep each 4-way shard's 63 lanes (golden +
   62 faults) inside one machine word, while the serial run packs all
   249 lanes into four words — equal total gate work either way, so
   the ratio isolates pool overhead and the host's core count rather
   than a packing artefact. *)
let parallel_jobs = 4

let measure_parallel () =
  let nl = Lazy.force gate_netlist in
  let faults = random_faults ~seed:0x9A8 248 in
  let run jobs =
    snd
      (timed (fun () ->
           Backend.Equiv.fault_campaign ~cycles:120 ~drive:hold_reset_released
             ~shrink:false ~jobs nl faults))
  in
  let serial_s = run 1 in
  (serial_s, run parallel_jobs)

(* Run the behavioural model on the sc_method kernel and the synthesis
   flow once, so a trace and the histograms also cover those layers. *)
let run_other_layers () =
  let beh = Expocu.Behave_model.run ~frames:1 ~pixels_per_frame:32 () in
  if beh.Expocu.Behave_model.kernel_runs = 0 then
    failwith "bench: behavioural model ran no kernel processes";
  let flow = Synth.Flow.run Synth.Flow.Osss (Expocu.Sync.osss_module ()) in
  if flow.Synth.Flow.passes = [] then failwith "bench: flow recorded no passes"

(* Raw (name, count) activity of one netlist and one RTL frame, as
   [Obs_cli.finish] takes it. *)
let activity_profiles ev rtl =
  let rtl_activity = Rtl_sim.process_activity rtl in
  [
    ("hot_nets", Backend.Nl_sim.net_activity ev);
    ("hot_cells", Backend.Nl_sim.cell_activity ev);
    ("hot_processes", rtl_activity);
    ("hot_modules", Obs.Profile.by_module rtl_activity);
  ]

let ranked profiles =
  List.map (fun (title, raw) -> (title, Obs.Profile.top raw)) profiles

(* BENCH_sim.json: the perf-gate figures plus the event-driven
   evals/cycle of the full frame (the history ledger's headline
   count), the hierarchy and power sections the gates read, every
   histogram, and the full frame's activity profiles.  Wall-clock
   simulator speed is bench/suite's to measure, not this file's. *)
let frame_pixels = 256

let bench_json () =
  Obs.Hist.enable ();
  Obs.Hist.reset_all ();
  run_other_layers ();
  let ev =
    nl_frame ~profile:true ~mode:Backend.Nl_sim.Event_driven
      ~pixels:frame_pixels ()
  in
  let rtl = rtl_frame ~pixels:frame_pixels () in
  let perf = measure_perf_gate () in
  let _, _, _, hierarchy = measure_hierarchy () in
  let power, power_detail = Lazy.force measure_power in
  let profiles = activity_profiles ev rtl in
  let open Obs.Json in
  let doc =
    Obj
      [
        ("workload", String "expocu_frame");
        ("pixels", Int frame_pixels);
        ( "perf_gate",
          Obj
            (perf.perf_fields
            @ [ ("frame_event_evals_per_cycle", Float (evals_per_cycle ev)) ])
        );
        ("hierarchy", hierarchy);
        ("power", power_detail);
        ("histograms", Obs.Hist.all_to_json ());
        ( "profiles",
          Obj
            (List.map
               (fun (title, entries) -> (title, Obs.Profile.to_json entries))
               (ranked profiles)) );
      ]
  in
  save doc "BENCH_sim.json";
  print_endline (to_string ~pretty:true doc);
  Obs.Log.info "wrote BENCH_sim.json";
  (profiles, power)

let read_json path =
  try
    Some
      (Obs.Json.of_string
         (In_channel.with_open_bin path In_channel.input_all))
  with _ -> None

let json_number doc keys =
  List.fold_left
    (fun acc k -> Option.bind acc (Obs.Json.member k))
    (Some doc) keys
  |> Fun.flip Option.bind Obs.Json.number_value

(* CI perf gate, one in-process comparison against the checked-in
   BENCH_sim.json.  The evals-per-cycle ratio is a deterministic count
   and may grow at most 20%; the 64-lane per-pattern speedup may fall
   at most 20% and never under the absolute 10x floor; the warm flow
   run must hit the lowering cache and take at most 1.2x the cold run;
   the OSSS dynamic energy on the seeded power workload is
   deterministic and may grow at most 20% — an optimization that
   trades area for a hot, always-toggling structure trips it.  On
   hosts with at least 4 recommended domains the 4-job fault campaign
   must take at most 0.6x the serial wall-clock (scaling needs real
   cores).  A baseline missing any figure fails the gate. *)
let perf_gate_check ~baseline perf (cold_s, warm_s, warm_hits)
    (power : Synth.Power_dyn.report) =
  match read_json baseline with
  | None ->
      Obs.Log.errorf "perf-gate: cannot read baseline %s" baseline;
      1
  | Some doc -> (
      let failures = ref [] in
      let fail fmt =
        Printf.ksprintf (fun f -> failures := f :: !failures) fmt
      in
      let base keys =
        match json_number doc keys with
        | Some v -> v
        | None ->
            fail "baseline %s has no %s" baseline (String.concat "." keys);
            nan
      in
      let base_ratio = base [ "perf_gate"; "evals_per_cycle_ratio" ] in
      let base_speedup = base [ "perf_gate"; "word64_per_pattern_speedup" ] in
      let base_energy = base [ "power"; "osss"; "total_energy_pj" ] in
      let energy = power.Synth.Power_dyn.p_total_energy_pj in
      if perf.ratio > base_ratio *. 1.2 then
        fail "evals_per_cycle_ratio regressed: %.4f, baseline %.4f (+20%% \
              tolerance)" perf.ratio base_ratio;
      if perf.speedup < base_speedup *. 0.8 then
        fail "word64_per_pattern_speedup regressed: %.1fx, baseline %.1fx \
              (-20%% tolerance)" perf.speedup base_speedup;
      if perf.speedup < 10.0 then
        fail "word64_per_pattern_speedup %.1fx is under the absolute 10x floor"
          perf.speedup;
      if warm_hits = 0 then fail "warm flow run hit the lowering cache 0 times";
      if warm_s > cold_s *. 1.2 then
        fail "warm flow run took %.1f ms against %.1f ms cold (over the 1.2x \
              tolerance)" (warm_s *. 1000.0) (cold_s *. 1000.0);
      if energy > base_energy *. 1.2 then
        fail "osss dynamic energy regressed: %.1f pJ, baseline %.1f pJ (+20%% \
              tolerance)" energy base_energy;
      let serial_s, par_s = measure_parallel () in
      let domains = Domain.recommended_domain_count () in
      if domains < parallel_jobs then
        Obs.Log.infof
          "perf-gate: host recommends %d domains (< %d); parallel gate \
           skipped (campaign %.0f ms serial, %.0f ms at %d jobs)"
          domains parallel_jobs (serial_s *. 1000.0) (par_s *. 1000.0)
          parallel_jobs
      else if par_s > serial_s *. 0.6 then
        fail "%d-job fault campaign took %.0f ms against %.0f ms serial (over \
              the 0.6x ceiling)" parallel_jobs (par_s *. 1000.0)
          (serial_s *. 1000.0);
      match List.rev !failures with
      | [] ->
          Obs.Log.infof
            "perf-gate: ok — ratio %.4f (baseline %.4f), word64 speedup \
             %.1fx (baseline %.1fx), warm flow %.1f ms vs %.1f ms cold (%d \
             cache hits), energy %.1f pJ (baseline %.1f pJ), campaign %.0f \
             ms at %d jobs vs %.0f ms serial"
            perf.ratio base_ratio perf.speedup base_speedup (warm_s *. 1000.0)
            (cold_s *. 1000.0) warm_hits energy base_energy (par_s *. 1000.0)
            parallel_jobs (serial_s *. 1000.0);
          0
      | fs ->
          List.iter (Obs.Log.errorf "perf-gate: %s") fs;
          1)

(* The smoke workload behind `dune build @bench-smoke` and the CI
   gates: the perf-gate figures, an RTL frame for the process profile,
   the hierarchy and power measurements, and the coverage DB when a
   coverage flag or the coverage gate asks for it.  With [json] the
   schema-versioned run report goes to stdout. *)
let run_smoke ~json ~cover_gate ~perf_gate obs =
  let perf = measure_perf_gate () in
  let rtl = rtl_frame ~pixels:perf_gate_pixels () in
  let cold_s, warm_s, warm_hits, hierarchy = measure_hierarchy () in
  let power, power_compare = Lazy.force measure_power in
  let cover =
    if Obs_cli.covering obs || cover_gate <> None then Some (smoke_cover_db ())
    else None
  in
  if Obs_cli.tracing obs then run_other_layers ();
  let profiles = activity_profiles perf.ev rtl in
  Obs.Log.infof
    "bench-smoke: %d cycles, gate evals %d (event) vs %d (full), word64 \
     per-pattern speedup %.1fx (ratio %.3f), rtl process runs %d skips %d"
    (Backend.Nl_sim.cycles perf.ev)
    (Backend.Nl_sim.gate_evals perf.ev)
    (Backend.Nl_sim.gate_evals perf.fl)
    perf.speedup perf.ratio (Rtl_sim.comb_runs rtl) (Rtl_sim.comb_skips rtl);
  if json then begin
    let open Obs.Json in
    let smoke =
      Obj
        [
          ("workload", String "expocu_frame");
          ("pixels", Int perf_gate_pixels);
          ("cycles", Int (Backend.Nl_sim.cycles perf.ev));
          ("gate_evals_event", Int (Backend.Nl_sim.gate_evals perf.ev));
          ("gate_evals_full", Int (Backend.Nl_sim.gate_evals perf.fl));
          ("rtl_process_runs", Int (Rtl_sim.comb_runs rtl));
          ("rtl_process_skips", Int (Rtl_sim.comb_skips rtl));
        ]
    in
    print_endline
      (to_string ~pretty:true
         (Obs.Report.make
            ?coverage:(Option.map Cover.Db.to_json cover)
            ~power:(Synth.Power_dyn.to_json power) ~profiles:(ranked profiles)
            ~extra:
              [
                ("smoke", smoke);
                ("perf_gate", Obj perf.perf_fields);
                ("hierarchy", hierarchy);
                (* The schema-shaped power section rides in the report's
                   own power slot; this extra carries the
                   OSSS-vs-conventional comparison. *)
                ("power_compare", power_compare);
              ]
            ~run:"bench-smoke" ()))
  end;
  Obs_cli.finish obs ~json ~profiles ?cover ~power ~run:"bench-smoke";
  let perf_rc =
    match perf_gate with
    | Some baseline ->
        perf_gate_check ~baseline perf (cold_s, warm_s, warm_hits) power
    | None -> 0
  in
  let cover_rc =
    match (cover_gate, cover) with
    | Some baseline, Some db -> cover_gate_check ~baseline db
    | _ -> 0
  in
  max perf_rc cover_rc

(* One-line performance ledger: append the headline figures of a
   checked-in BENCH_sim.json to bench/history.jsonl, so trend questions
   ("when did the event-driven evals/cycle move?") are a grep, not an
   archaeology dig through git history of the full report.  Each line
   is stamped osss.bench-history/v1; --history-check validates a whole
   ledger against that schema. *)
let history_schema = "osss.bench-history/v1"

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Some (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

let append_history ~date ~baseline ~history =
  match read_json baseline with
  | None ->
      Obs.Log.errorf "append-history: cannot read %s" baseline;
      1
  | Some doc -> (
      let num = json_number doc in
      let workload =
        Option.bind (Obs.Json.member "workload" doc) Obs.Json.string_value
        |> Option.value ~default:"expocu_frame"
      in
      match
        ( num [ "perf_gate"; "frame_event_evals_per_cycle" ],
          num [ "perf_gate"; "word64_per_pattern_speedup" ],
          num [ "hierarchy"; "cold_flow_ms" ] )
      with
      | Some evals, Some speedup, Some flow_ms ->
          (* Energy totals entered the report later; older baselines
             simply omit the power keys. *)
          let power_fields =
            match
              ( num [ "power"; "osss"; "total_energy_pj" ],
                num [ "power"; "conventional"; "total_energy_pj" ] )
            with
            | Some osss_pj, Some conv_pj ->
                [
                  ("osss_energy_pj", Obs.Json.Float osss_pj);
                  ("conventional_energy_pj", Obs.Json.Float conv_pj);
                ]
            | _ -> []
          in
          let line =
            let open Obs.Json in
            to_string
              (Obj
                 ([
                    ("schema", String history_schema);
                    ("date", String date);
                    ("workload", String workload);
                    ("evals_per_cycle", Float evals);
                    ("word64_speedup", Float speedup);
                    ("cold_flow_ms", Float flow_ms);
                  ]
                 @ power_fields))
          in
          (* Refuse a duplicate ledger entry: re-running the CI step on
             the same day must not stack identical lines.  Only the
             LAST entry for this workload is consulted — an older
             same-date line (a backfill) is someone's explicit edit. *)
          let last_date_for_workload =
            List.fold_left
              (fun last l ->
                match Obs.Json.of_string l with
                | exception Obs.Json.Parse_error _ -> last
                | j ->
                    let str k =
                      Option.bind (Obs.Json.member k j) Obs.Json.string_value
                    in
                    if str "workload" = Some workload then str "date" else last)
              None
              (List.filter
                 (fun l -> String.trim l <> "")
                 (Option.value ~default:[] (read_lines history)))
          in
          if last_date_for_workload = Some date then begin
            Obs.Log.errorf
              "append-history: %s already ends with a %s entry for %s — \
               refusing the duplicate"
              history date workload;
            1
          end
          else begin
            Out_channel.with_open_gen
              [ Open_append; Open_creat ] 0o644 history (fun oc ->
                output_string oc (line ^ "\n"));
            Obs.Log.infof "append-history: %s >> %s" line history;
            0
          end
      | _ ->
          Obs.Log.errorf
            "append-history: %s is missing the expected sections" baseline;
          1)

(* Validate every line of a bench-history ledger: parseable JSON,
   the v1 stamp, a date, and numeric headline figures.  CI runs this
   against the checked-in bench/history.jsonl so the ledger stays
   greppable. *)
let history_check ~history =
  match read_lines history with
  | None ->
      Obs.Log.errorf "history-check: cannot read %s" history;
      1
  | Some lines -> (
      let check_line i line =
        if String.trim line = "" then None
        else
          match Obs.Json.of_string line with
          | exception Obs.Json.Parse_error msg ->
              Some (Printf.sprintf "line %d: not valid JSON: %s" i msg)
          | json -> (
              let str k =
                Option.bind (Obs.Json.member k json) Obs.Json.string_value
              in
              let num k =
                Option.bind (Obs.Json.member k json) Obs.Json.number_value
              in
              match str "schema" with
              | Some s when s <> history_schema ->
                  Some
                    (Printf.sprintf "line %d: schema %S, expected %S" i s
                       history_schema)
              | None -> Some (Printf.sprintf "line %d: missing schema" i)
              | Some _ ->
                  if str "date" = None then
                    Some (Printf.sprintf "line %d: missing date" i)
                  else if str "workload" = None then
                    Some (Printf.sprintf "line %d: missing workload" i)
                  else
                    List.find_map
                      (fun k ->
                        if num k = None then
                          Some
                            (Printf.sprintf "line %d: %S is not a number" i k)
                        else None)
                      [ "evals_per_cycle"; "word64_speedup"; "cold_flow_ms" ])
      in
      let errors =
        List.concat
          (List.mapi
             (fun i line -> Option.to_list (check_line (i + 1) line))
             lines)
      in
      let entries =
        List.length (List.filter (fun l -> String.trim l <> "") lines)
      in
      match errors with
      | [] ->
          Printf.printf "%s: ok (%d entries, schema %s)\n" history entries
            history_schema;
          0
      | es ->
          List.iter (fun e -> Obs.Log.errorf "history-check: %s" e) es;
          1)

(* Validate a run report: the in-repo schema check CI runs against a
   report produced moments earlier.  A coverage section must not
   merely look like a coverage DB — it has to parse back as one. *)
let check_report file =
  match Obs.Report.validate_file file with
  | Error e ->
      Obs.Log.errorf "%s: invalid run report: %s" file e;
      1
  | Ok () -> (
      match Option.bind (read_json file) (Obs.Json.member "coverage") with
      | None ->
          Printf.printf "%s: valid (no coverage section)\n" file;
          0
      | Some c -> (
          match Cover.Db.of_json c with
          | Ok db ->
              Printf.printf "%s: valid, coverage %d/%d toggle bits\n" file
                (Cover.Db.totals db).Cover.Db.toggle_covered
                (Cover.Db.totals db).Cover.Db.toggle_bits;
              0
          | Error e ->
              Obs.Log.errorf "%s: coverage section: %s" file e;
              1))

let run_experiments ids obs =
  let find id = List.assoc_opt (String.lowercase_ascii id) experiments in
  match List.filter (fun id -> find id = None) ids with
  | _ :: _ as unknown ->
      List.iter (Obs.Log.errorf "unknown experiment %s") unknown;
      Printf.eprintf "valid experiments: %s\n"
        (String.concat " " (List.map fst experiments));
      2
  | [] ->
      let selected =
        match ids with
        | [] -> experiments
        | ids -> List.map (fun id -> (id, Option.get (find id))) ids
      in
      Printf.printf
        "OSSS evaluation reproduction — experiments from Bannow & Haug, DATE \
         2004\n";
      List.iter (fun (_, f) -> f ()) selected;
      Obs_cli.finish obs ~run:"bench";
      0

let main smoke json check_report_file cover_gate perf_gate append_date
    history_file ids obs =
  let refuse msg =
    Obs.Log.error msg;
    2
  in
  match (append_date, history_file, Obs_cli.merge_requested obs) with
  | Some date, _, _ ->
      (* The summarized baseline follows --perf-gate. *)
      append_history ~date
        ~baseline:(Option.value perf_gate ~default:"BENCH_sim.json")
        ~history:"bench/history.jsonl"
  | None, Some history, _ -> history_check ~history
  | None, None, Some pair -> Obs_cli.run_merge obs pair
  | None, None, None -> (
      match check_report_file with
      | Some file -> check_report file
      | None ->
          if (Obs_cli.covering obs || cover_gate <> None) && not smoke then
            refuse
              "coverage collection is attached to the smoke workload; add \
               --smoke"
          else if perf_gate <> None && not smoke then
            refuse "--perf-gate is attached to the smoke workload; add --smoke"
          else if Obs_cli.powering obs && not (smoke || json) then
            refuse
              "power collection is attached to the smoke/json workloads; add \
               --smoke or --json"
          else begin
            Obs_cli.setup obs;
            if smoke then run_smoke ~json ~cover_gate ~perf_gate obs
            else if json then begin
              let profiles, power = bench_json () in
              Obs_cli.finish obs ~json ~profiles ~power ~run:"bench";
              0
            end
            else run_experiments ids obs
          end)

open Cmdliner

let smoke_arg =
  let doc =
    "Run the small smoke workload behind the CI gates (perf-gate figures, \
     hierarchy, power, coverage) instead of the experiments."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let json_arg =
  let doc =
    "With --smoke, print the schema-versioned run report on stdout; alone, \
     write BENCH_sim.json and print it.  Human-readable tables go to stderr."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let string_opt name ~docv doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let check_report_arg =
  string_opt "check-report" ~docv:"FILE"
    "Validate the run report $(docv) (and its coverage section) and exit."

let cover_gate_arg =
  string_opt "cover-gate" ~docv:"BASELINE"
    "With --smoke, fail if any item covered in the coverage database \
     $(docv) is now uncovered."

let perf_gate_arg =
  string_opt "perf-gate" ~docv:"BASELINE"
    "With --smoke, fail if the perf figures, the warm-cache flow run, the \
     OSSS dynamic energy or the parallel campaign regress against the \
     BENCH_sim.json $(docv)."

let append_history_arg =
  string_opt "append-history" ~docv:"DATE"
    "Append the headline figures of BENCH_sim.json (or of the --perf-gate \
     baseline) to bench/history.jsonl, stamped $(docv), and exit."

let history_check_arg =
  string_opt "history-check" ~docv:"FILE"
    "Validate every line of the bench-history ledger $(docv) and exit."

let ids_arg =
  let doc =
    "Experiments to run (default: all): "
    ^ String.concat ", " (List.map fst experiments)
    ^ "."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "reproduce the paper's experiments and run the CI gates" in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const main $ smoke_arg $ json_arg $ check_report_arg $ cover_gate_arg
      $ perf_gate_arg $ append_history_arg $ history_check_arg $ ids_arg
      $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
