(* Benchmark harness: one experiment per claim of the paper's
   evaluation (see DESIGN.md experiment index).  Run with no argument
   for everything, or with a list of experiment ids:

     dune exec bench/main.exe            # all
     dune exec bench/main.exe -- e1 e6   # selected *)

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
(* E6: simulation speed across abstraction levels                      *)

let rtl_frame_sim () =
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  let frame = Array.init 256 (fun i -> i * 53 mod 256) in
  Rtl_sim.set_input_int sim "ext_reset" 0;
  Rtl_sim.set_input_int sim "target_bin" 7;
  Rtl_sim.run sim 15;
  Rtl_sim.set_input_int sim "frame_sync" 1;
  Rtl_sim.run sim 4;
  Rtl_sim.set_input_int sim "line_valid" 1;
  Array.iter
    (fun px ->
      Rtl_sim.set_input_int sim "pixel" px;
      Rtl_sim.step sim)
    frame;
  Rtl_sim.set_input_int sim "line_valid" 0;
  Rtl_sim.set_input_int sim "frame_sync" 0;
  let guard = ref 0 in
  while Rtl_sim.get_int sim "frame_done" = 0 && !guard < 4000 do
    Rtl_sim.step sim;
    incr guard
  done;
  Rtl_sim.cycles sim

let gate_netlist = lazy (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))

(* One 256-pixel frame on a gate-level simulator; returns its cycles. *)
let gate_frame sim =
  let frame = Array.init 256 (fun i -> i * 53 mod 256) in
  Backend.Nl_sim.set_input_int sim "ext_reset" 0;
  Backend.Nl_sim.set_input_int sim "target_bin" 7;
  Backend.Nl_sim.set_input_int sim "sda_in" 0;
  Backend.Nl_sim.set_input_int sim "frame_sync" 0;
  Backend.Nl_sim.set_input_int sim "line_valid" 0;
  Backend.Nl_sim.set_input_int sim "pixel" 0;
  Backend.Nl_sim.run sim 15;
  Backend.Nl_sim.set_input_int sim "frame_sync" 1;
  Backend.Nl_sim.run sim 4;
  Backend.Nl_sim.set_input_int sim "line_valid" 1;
  Array.iter
    (fun px ->
      Backend.Nl_sim.set_input_int sim "pixel" px;
      Backend.Nl_sim.step sim)
    frame;
  Backend.Nl_sim.set_input_int sim "line_valid" 0;
  Backend.Nl_sim.set_input_int sim "frame_sync" 0;
  let guard = ref 0 in
  while Backend.Nl_sim.get_output_int sim "frame_done" = 0 && !guard < 4000 do
    Backend.Nl_sim.step sim;
    incr guard
  done;
  Backend.Nl_sim.cycles sim

let gate_frame_sim () =
  gate_frame (Backend.Nl_sim.create (Lazy.force gate_netlist))

let behavioural_frame_sim () =
  let r = Expocu.Behave_model.run ~frames:1 ~pixels_per_frame:256 () in
  r.Expocu.Behave_model.sim_cycles

let measure_ns tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.6) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"sim" ~fmt:"%s/%s" tests)
  in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> acc)
    results []

let e6 () =
  section "e6"
    "Simulation speed per abstraction level (paper: behavioural SystemC \
     much faster than conventional RTL simulators)";
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"behavioural"
        (Staged.stage (fun () -> behavioural_frame_sim ()));
      Test.make ~name:"rtl" (Staged.stage (fun () -> rtl_frame_sim ()));
      Test.make ~name:"gate-level" (Staged.stage (fun () -> gate_frame_sim ()));
    ]
  in
  let results = measure_ns tests in
  let find key =
    List.fold_left
      (fun acc (name, est) ->
        let nl = String.length name and kl = String.length key in
        if nl >= kl && String.sub name (nl - kl) kl = key then Some est
        else acc)
      None results
  in
  let cycles = float_of_int (rtl_frame_sim ()) in
  let print name key =
    match find key with
    | Some ns ->
        row "  %-14s %12.2f ms/frame %12.0f cycles/s\n" name (ns /. 1e6)
          (cycles /. (ns /. 1e9))
    | None -> row "  %-14s (no estimate)\n" name
  in
  print "behavioural" "behavioural";
  print "RTL" "rtl";
  print "gate-level" "gate-level";
  match (find "behavioural", find "rtl", find "gate-level") with
  | Some b, Some r, Some g ->
      row
        "  speedups: behavioural/RTL = %.1fx, RTL/gate = %.1fx, \
         behavioural/gate = %.1fx\n"
        (r /. b) (g /. r) (g /. b)
  | _, _, _ -> ()

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
    ignore (gate_frame sim);
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
(* Simulation-core benchmark: activity-based vs full evaluation        *)

(* One ExpoCU frame of stimulus against an already-created simulator.
   [bind] resolves a port name to its drive closure once, up front, so
   backends with prebound port handles (Nl_sim.in_port) pay no name
   lookup in the stimulus loop; all simulators share the exact same
   drive sequence.  [seed] offsets the pixel stream (seed 0 is the
   historical stream, and matches lane [seed] of the word-parallel
   frame's per-lane offsets), giving the multi-seed coverage runs
   distinct but deterministic stimulus. *)
let drive_frame ?(seed = 0) ~bind ~step ~get ~pixels () =
  let frame = Array.init pixels (fun i -> ((i * 53) + (seed * 17)) mod 256) in
  let ext_reset = bind "ext_reset"
  and target_bin = bind "target_bin"
  and sda_in = bind "sda_in"
  and frame_sync = bind "frame_sync"
  and line_valid = bind "line_valid"
  and pixel = bind "pixel" in
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
  Array.iter
    (fun px ->
      pixel px;
      step ())
    frame;
  line_valid 0;
  frame_sync 0;
  let guard = ref 0 in
  while get "frame_done" = 0 && !guard < 4000 do
    step ();
    incr guard
  done

let nl_bind sim name =
  let port = Backend.Nl_sim.in_port sim name in
  Backend.Nl_sim.drive_port_int sim port

let nl_frame ?(profile = false) ~mode ~pixels () =
  let sim = Backend.Nl_sim.create ~mode (Lazy.force gate_netlist) in
  if profile then Backend.Nl_sim.enable_profile sim;
  drive_frame ~bind:(nl_bind sim)
    ~step:(fun () -> Backend.Nl_sim.step sim)
    ~get:(Backend.Nl_sim.get_output_int sim)
    ~pixels ();
  sim

let rtl_frame ~pixels () =
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  drive_frame
    ~bind:(fun name -> Rtl_sim.set_input_int sim name)
    ~step:(fun () -> Rtl_sim.step sim)
    ~get:(Rtl_sim.get_int sim)
    ~pixels ();
  sim

(* The same frame against the word-parallel simulator: control inputs
   broadcast, the pixel stream distinct per lane — lane 0 carries the
   scalar frame ((i*53) mod 256) and lane l offsets it by l*17, so one
   run is [lanes] stimulus seeds. *)
let wsim_frame ?(cover = false) ~mode ~lanes ~pixels () =
  let w = Backend.Nl_sim.create ~mode ~lanes (Lazy.force gate_netlist) in
  if cover then Backend.Nl_sim.enable_toggle_cover w;
  let set = Backend.Nl_sim.set_input_int w in
  let step () = Backend.Nl_sim.step w in
  set "ext_reset" 0;
  set "target_bin" 7;
  set "sda_in" 0;
  set "frame_sync" 0;
  set "line_valid" 0;
  set "pixel" 0;
  for _ = 1 to 15 do step () done;
  set "frame_sync" 1;
  for _ = 1 to 4 do step () done;
  set "line_valid" 1;
  for i = 0 to pixels - 1 do
    Backend.Nl_sim.set_input_packed w "pixel"
      (Array.init 8 (fun b ->
           Bitvec.init lanes (fun l ->
               (((i * 53) + (l * 17)) mod 256) lsr b land 1 = 1)));
    step ()
  done;
  set "line_valid" 0;
  set "frame_sync" 0;
  let guard = ref 0 in
  while Backend.Nl_sim.get_output_int w "frame_done" = 0 && !guard < 4000 do
    step ();
    incr guard
  done;
  w

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best wall time of [n] runs of a deterministic workload (the
   simulators produce identical state each run, so min time is the
   noise-free estimate). *)
let timed_best n f =
  let result, s0 = timed f in
  let best = ref s0 in
  for _ = 2 to n do
    let _, s = timed f in
    if s < !best then best := s
  done;
  (result, !best)

let cps cycles s = if s > 0.0 then float_of_int cycles /. s else 0.0

(* The two figures the CI perf gate watches, measured on the small smoke
   workload so the gate and the emitted baseline agree on the workload:
   the (deterministic) event-driven vs full-eval evals-per-cycle ratio,
   and the 64-lane full-eval per-pattern throughput over the scalar
   full-eval simulator. *)
let perf_gate_pixels = 32
let perf_gate_lanes = 64

let measure_perf_gate () =
  let pixels = perf_gate_pixels in
  let ev = nl_frame ~mode:Backend.Nl_sim.Event_driven ~pixels () in
  let fl, fl_s =
    timed_best 3 (fun () -> nl_frame ~mode:Backend.Nl_sim.Full_eval ~pixels ())
  in
  let w, w_s =
    timed_best 3 (fun () ->
        wsim_frame ~mode:Backend.Nl_sim.Full_eval ~lanes:perf_gate_lanes
          ~pixels ())
  in
  let per_cycle evals cycles = float_of_int evals /. float_of_int cycles in
  let ratio =
    per_cycle (Backend.Nl_sim.gate_evals ev) (Backend.Nl_sim.cycles ev)
    /. per_cycle (Backend.Nl_sim.gate_evals fl) (Backend.Nl_sim.cycles fl)
  in
  let scalar_pps = cps (Backend.Nl_sim.cycles fl) fl_s in
  let word_pps = cps (Backend.Nl_sim.cycles w * perf_gate_lanes) w_s in
  let speedup = if scalar_pps > 0.0 then word_pps /. scalar_pps else 0.0 in
  let detail =
    let open Obs.Json in
    Obj
      [
        ("pixels", Int pixels);
        ("lanes", Int perf_gate_lanes);
        ("evals_per_cycle_ratio", Float ratio);
        ("scalar_full_patterns_per_sec", Float scalar_pps);
        ("word_full_patterns_per_sec", Float word_pps);
        ("word64_per_pattern_speedup", Float speedup);
      ]
  in
  (ratio, speedup, detail)

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
    (let osss, vhdl = Lazy.force expocu_results in
     let run (r : Synth.Flow.result) =
       Synth.Power_dyn.measure ~cycles:power_cycles r.Synth.Flow.netlist
     in
     let po = run osss and pv = run vhdl in
     let side (p : Synth.Power_dyn.report) =
       let open Obs.Json in
       Obj
         [
           ("total_energy_pj", Float p.Synth.Power_dyn.p_total_energy_pj);
           ("avg_mw", Float p.Synth.Power_dyn.p_avg_mw);
           ("peak_mw", Float p.Synth.Power_dyn.p_peak_mw);
           ("leakage_mw", Float p.Synth.Power_dyn.p_leakage_mw);
           ( "peak_why",
             match p.Synth.Power_dyn.p_peak_why with
             | Some s -> String s
             | None -> Null );
         ]
     in
     let module_rows ?limit (p : Synth.Power_dyn.report) =
       let rows =
         List.sort
           (fun (a : Synth.Power_dyn.module_row) b ->
             compare b.Synth.Power_dyn.pm_energy_pj
               a.Synth.Power_dyn.pm_energy_pj)
           p.Synth.Power_dyn.p_by_module
       in
       let rec take n = function
         | x :: rest when n > 0 -> x :: take (n - 1) rest
         | _ -> []
       in
       let rows = match limit with Some n -> take n rows | None -> rows in
       let open Obs.Json in
       List
         (List.map
            (fun (r : Synth.Power_dyn.module_row) ->
              Obj
                [
                  ( "path",
                    String
                      (if r.Synth.Power_dyn.pm_path = "" then "<top>"
                       else r.Synth.Power_dyn.pm_path) );
                  ("energy_pj", Float r.Synth.Power_dyn.pm_energy_pj);
                  ("avg_mw", Float r.Synth.Power_dyn.pm_avg_mw);
                  ("toggles", Int r.Synth.Power_dyn.pm_toggles);
                ])
            rows)
     in
     let detail =
       let open Obs.Json in
       Obj
         [
           ("workload", String "expocu_seeded");
           ("cycles", Int power_cycles);
           ("lib", String po.Synth.Power_dyn.p_lib);
           ("freq_mhz", Float po.Synth.Power_dyn.p_freq_mhz);
           ("osss", side po);
           ("conventional", side pv);
           ( "energy_ratio",
             Float
               (if pv.Synth.Power_dyn.p_total_energy_pj > 0.0 then
                  po.Synth.Power_dyn.p_total_energy_pj
                  /. pv.Synth.Power_dyn.p_total_energy_pj
                else 0.0) );
           ("top_modules", module_rows ~limit:5 po);
           ("osss_by_module", module_rows po);
         ]
     in
     (po, pv, detail))

(* Coverage-instrumented smoke frame: the RTL interpreter carries the
   full model (toggle bits + FSMs + covergroups + protocol monitor),
   and the event-driven netlist contributes its per-net toggle bits
   under the "nl:" prefix, so one DB spans both abstraction levels.
   Safe to run as a [Par] shard: all simulators and collectors are
   created here, inside the shard, and only the finished immutable DB
   escapes. *)
let smoke_cover_db ?(seed = 0) ~pixels () =
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  Rtl_sim.enable_toggle_cover sim;
  let cp = Expocu.Coverpoints.attach sim in
  let mon = Expocu.Monitors.expocu_monitor sim in
  drive_frame ~seed
    ~bind:(fun name -> Rtl_sim.set_input_int sim name)
    ~step:(fun () -> Rtl_sim.step sim)
    ~get:(Rtl_sim.get_int sim)
    ~pixels ();
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
  drive_frame ~seed ~bind:(nl_bind nl)
    ~step:(fun () -> Backend.Nl_sim.step nl)
    ~get:(Backend.Nl_sim.get_output_int nl)
    ~pixels ();
  let tg = function Some tg -> tg | None -> assert false in
  Cover.Db.make
    ~toggles:
      (Cover.Db.toggle_entries ~prefix:"rtl:" (tg (Rtl_sim.toggle_cover sim))
      @ Cover.Db.toggle_entries ~prefix:"nl:"
          (tg (Backend.Nl_sim.toggle_cover nl)))
    ~fsms:(Expocu.Coverpoints.fsms cp)
    ~groups:(Expocu.Coverpoints.groups cp)
    ~monitors:(Assert_mon.db_monitors mon)
    ~run:(if seed = 0 then "bench-smoke" else Printf.sprintf "bench-smoke:seed%d" seed)
    ()

(* Multi-seed coverage closure, sharded one seed per domain: each shard
   builds its own simulators and per-seed [Cover.Db], and the per-seed
   databases merge in seed order with the monotone [Cover.Db.merge] —
   so the merged DB is byte-identical for every [jobs]. *)
let multi_seed_cover_db ?jobs ~seeds ~pixels () =
  ignore (Lazy.force gate_netlist) (* force outside the shards *);
  Par.map_list ?jobs
    ~label:(Printf.sprintf "cover-seed-%d")
    (fun seed -> smoke_cover_db ~seed ~pixels ())
    seeds
  |> function
  | [] -> failwith "multi_seed_cover_db: no seeds"
  | first :: rest -> List.fold_left Cover.Db.merge first rest

(* Coverage gate: the freshly collected DB must not regress against the
   checked-in baseline — every item the baseline covered must still be
   covered (totals may grow, never shrink item-wise). *)
let cover_gate ~baseline db =
  match Cover.Db.load baseline with
  | Error e ->
      Obs.Log.errorf "cover-gate: %s" e;
      exit 1
  | Ok base -> (
      match Cover.Db.diff base db with
      | [] ->
          Obs.Log.infof
            "cover-gate: ok — baseline %s held (%.1f%% toggle coverage now)"
            baseline
            (100.0 *. Cover.Db.toggle_coverage db)
      | lost ->
          Obs.Log.errorf "cover-gate: %d items covered in %s are now uncovered:"
            (List.length lost) baseline;
          List.iter
            (fun (kind, item) -> Obs.Log.errorf "  %-9s %s" kind item)
            lost;
          exit 1)

(* Parallel campaign measurement for the [Par] domain pool: the same
   fault list and seed set run at jobs=1 and jobs=4, and the results
   must be bit-identical (the determinism contract) while the
   wall-clock ratio gives the speedup figure the CI parallel gate
   watches.  The fault count is tuned to the word packing: 62 faults
   per 4-way shard keep each shard's 63 lanes (golden + faults) inside
   one machine word, while the serial run packs all 249 lanes into
   four words — equal total gate work either way, so the ratio
   isolates pool overhead and the host's core count rather than a
   packing artefact. *)
let parallel_jobs = 4
let parallel_faults = 248
let parallel_cover_seeds = [ 0; 1; 2; 3 ]

let measure_parallel () =
  let jobs = parallel_jobs in
  let nl = Lazy.force gate_netlist in
  let rng = Random.State.make [| 0x9A8 |] in
  let n_nets = Backend.Netlist.net_count nl in
  let faults =
    List.init parallel_faults (fun _ ->
        {
          Backend.Equiv.fault_net = Random.State.int rng n_nets;
          stuck_at = Random.State.bool rng;
        })
  in
  let drive _ (name, r) = if name = "ext_reset" then Bitvec.zero 1 else r in
  let run_campaign jobs =
    timed (fun () ->
        Backend.Equiv.fault_campaign ~cycles:120 ~drive ~shrink:false ~jobs nl
          faults)
  in
  let serial, serial_s = run_campaign 1 in
  let par, par_s = run_campaign jobs in
  (* Determinism contract: per-fault detection results and the cycle
     figure are identical for every [jobs]; only the gate-eval total
     legitimately varies with the sharding. *)
  if
    serial.Backend.Equiv.fault_results <> par.Backend.Equiv.fault_results
    || serial.Backend.Equiv.faults_detected
       <> par.Backend.Equiv.faults_detected
    || serial.Backend.Equiv.campaign_cycles
       <> par.Backend.Equiv.campaign_cycles
  then failwith "parallel: sharded fault campaign diverged from jobs=1";
  let db_string db = Obs.Json.to_string (Cover.Db.to_json db) in
  let cov_serial, cov_serial_s =
    timed (fun () ->
        multi_seed_cover_db ~jobs:1 ~seeds:parallel_cover_seeds
          ~pixels:perf_gate_pixels ())
  in
  let cov_par, cov_par_s =
    timed (fun () ->
        multi_seed_cover_db ~jobs ~seeds:parallel_cover_seeds
          ~pixels:perf_gate_pixels ())
  in
  if db_string cov_serial <> db_string cov_par then
    failwith "parallel: sharded multi-seed coverage DB diverged from jobs=1";
  (* N-way differential sweep across stimulus seeds, one shard per
     seed: every seed must hold RTL and gate level in lockstep. *)
  let sweep_seeds = [ 42; 43; 44; 45 ] in
  let sweep =
    Backend.Equiv.differential_sweep ~cycles:100 ~shrink:false ~jobs
      ~seeds:sweep_seeds
      [
        (fun () ->
          Rtl_engine.create ~label:"rtl:expocu" (Expocu.Expocu_top.rtl_top ()));
        (fun () ->
          Backend.Nl_engine.create ~label:"gates:event"
            ~mode:Backend.Nl_sim.Event_driven nl);
      ]
  in
  List.iter
    (fun (seed, r) ->
      match r with
      | Ok _ -> ()
      | Error _ ->
          failwith
            (Printf.sprintf "parallel: differential sweep diverged at seed %d"
               seed))
    sweep;
  let speedup num den = if den > 0.0 then num /. den else 0.0 in
  let detail =
    let open Obs.Json in
    let shard_h = Obs.Hist.histogram "par.shard_ms" in
    Obj
      [
        ("jobs", Int jobs);
        ("recommended_domains", Int (Domain.recommended_domain_count ()));
        ("identical", Bool true);
        ( "fault_campaign",
          Obj
            [
              ("faults", Int parallel_faults);
              ("cycles", Int serial.Backend.Equiv.campaign_cycles);
              ("detected", Int serial.Backend.Equiv.faults_detected);
              ("serial_ms", Float (serial_s *. 1000.0));
              ("parallel_ms", Float (par_s *. 1000.0));
              ("speedup", Float (speedup serial_s par_s));
            ] );
        ( "multi_seed_cover",
          Obj
            [
              ("seeds", List (List.map (fun s -> Int s) parallel_cover_seeds));
              ("pixels", Int perf_gate_pixels);
              ("serial_ms", Float (cov_serial_s *. 1000.0));
              ("parallel_ms", Float (cov_par_s *. 1000.0));
              ("speedup", Float (speedup cov_serial_s cov_par_s));
            ] );
        ( "differential_sweep",
          Obj
            [
              ("seeds", List (List.map (fun (s, _) -> Int s) sweep));
              ("all_ok", Bool true);
            ] );
        ( "shard_ms",
          if Obs.Hist.count shard_h > 0 then Obs.Hist.to_json shard_h else Null
        );
      ]
  in
  (serial_s, par_s, detail)

(* Emit BENCH_sim.json: cycles/sec and evals/cycle for the ExpoCU frame
   workload — netlist simulator in both modes, plus the RTL
   interpreter's process-run rate — with the per-settle histograms and
   the hot-nets / hot-cells / hot-processes activity profiles.  See
   docs/PERFORMANCE.md and docs/OBSERVABILITY.md. *)
let bench_json ~profile ~lanes () =
  (* Histograms are part of the emitted document; recording costs one
     branch per settle and is paid identically by every contestant. *)
  Obs.Hist.enable ();
  Obs.Hist.reset_all ();
  (* The kernel.* and flow.* histograms are fed by the behavioural model
     and the synthesis flow; run one of each so every registered
     histogram in the emitted document carries samples. *)
  let beh = Expocu.Behave_model.run ~frames:1 ~pixels_per_frame:32 () in
  if beh.Expocu.Behave_model.kernel_runs = 0 then
    failwith "bench: behavioural model ran no kernel processes";
  let flow = Synth.Flow.run Synth.Flow.Osss (Expocu.Sync.osss_module ()) in
  if flow.Synth.Flow.passes = [] then
    failwith "bench: flow recorded no passes";
  let pixels = 256 in
  let ev, ev_s =
    timed (fun () ->
        nl_frame ~profile:true ~mode:Backend.Nl_sim.Event_driven ~pixels ())
  in
  let fl, fl_s = timed (fun () -> nl_frame ~mode:Backend.Nl_sim.Full_eval ~pixels ()) in
  let rtl, rtl_s = timed (fun () -> rtl_frame ~pixels ()) in
  let per_cycle count sim = float_of_int count /. float_of_int (Backend.Nl_sim.cycles sim) in
  let rtl_cycles = Rtl_sim.cycles rtl in
  let lane_sweep = match lanes with Some n -> [ n ] | None -> [ 1; 8; 64 ] in
  let sweep_entry lanes =
    let open Obs.Json in
    let wmode mode =
      let w, s = timed (fun () -> wsim_frame ~mode ~lanes ~pixels ()) in
      let cycles = Backend.Nl_sim.cycles w in
      Obj
        [
          ("cycles", Int cycles);
          ("gate_evals", Int (Backend.Nl_sim.gate_evals w));
          ("cycles_per_sec", Float (cps cycles s));
          ("patterns_per_sec", Float (cps (cycles * lanes) s));
        ]
    in
    Obj
      [
        ("lanes", Int lanes);
        ("event_driven", wmode Backend.Nl_sim.Event_driven);
        ("full_eval", wmode Backend.Nl_sim.Full_eval);
      ]
  in
  let _, _, perf_gate_detail = measure_perf_gate () in
  let _, _, _, hierarchy_detail = measure_hierarchy () in
  let _, _, power_detail = Lazy.force measure_power in
  let _, _, parallel_detail = measure_parallel () in
  let open Obs.Json in
  let mode_obj sim seconds extras =
    Obj
      ([
         ("cycles", Int (Backend.Nl_sim.cycles sim));
         ("gate_evals", Int (Backend.Nl_sim.gate_evals sim));
         ( "evals_per_cycle",
           Float (per_cycle (Backend.Nl_sim.gate_evals sim) sim) );
       ]
      @ extras
      @ [ ("cycles_per_sec", Float (cps (Backend.Nl_sim.cycles sim) seconds)) ])
  in
  let rank raw = Obs.Profile.to_json (Obs.Profile.top raw) in
  let rtl_activity = Rtl_sim.process_activity rtl in
  let doc =
    Obj
      [
        ("workload", String "expocu_frame");
        ("pixels", Int pixels);
        ( "netlist",
          Obj
            [
              ("comb_cells", Int (Backend.Nl_sim.comb_cells ev));
              ("dff_cells", Int (Backend.Nl_sim.dff_cells ev));
              ( "event_driven",
                mode_obj ev ev_s
                  [ ("cells_skipped", Int (Backend.Nl_sim.cells_skipped ev)) ]
              );
              ("full_eval", mode_obj fl fl_s []);
              ( "evals_per_cycle_ratio",
                Float
                  (per_cycle (Backend.Nl_sim.gate_evals ev) ev
                  /. per_cycle (Backend.Nl_sim.gate_evals fl) fl) );
            ] );
        ( "word_parallel",
          Obj
            [
              ("lane_bits", Int Backend.Nl_sim.lane_bits);
              ("sweep", List (List.map sweep_entry lane_sweep));
            ] );
        ("perf_gate", perf_gate_detail);
        ("hierarchy", hierarchy_detail);
        ("power", power_detail);
        ("parallel", parallel_detail);
        ( "rtl",
          Obj
            [
              ("cycles", Int rtl_cycles);
              ("process_runs", Int (Rtl_sim.comb_runs rtl));
              ("process_skips", Int (Rtl_sim.comb_skips rtl));
              ( "runs_per_cycle",
                Float
                  (float_of_int (Rtl_sim.comb_runs rtl)
                  /. float_of_int rtl_cycles) );
              ("cycles_per_sec", Float (cps rtl_cycles rtl_s));
            ] );
        ("histograms", Obs.Hist.all_to_json ());
        ( "profiles",
          Obj
            [
              ("hot_nets", rank (Backend.Nl_sim.net_activity ev));
              ("hot_cells", rank (Backend.Nl_sim.cell_activity ev));
              ("hot_processes", rank rtl_activity);
              ("hot_modules", rank (Obs.Profile.by_module rtl_activity));
            ] );
      ]
  in
  Obs.Json.save doc "BENCH_sim.json";
  print_endline (to_string ~pretty:true doc);
  List.iter
    (fun h ->
      if Obs.Hist.count h > 0 then
        Obs.Log.infof "%-30s p50 %10.1f  p95 %10.1f  max %10.0f"
          (Obs.Hist.name h)
          (Obs.Hist.percentile h 50.0)
          (Obs.Hist.percentile h 95.0)
          (Obs.Hist.max_value h))
    (Obs.Hist.all ());
  if profile then begin
    Obs.Log.info "hot nets (event-driven netlist):";
    prerr_string
      (Obs.Profile.table ~title:"hot nets" ~unit_name:"toggles"
         (Obs.Profile.top (Backend.Nl_sim.net_activity ev)))
  end;
  Obs.Log.info "wrote BENCH_sim.json"

(* Small self-checking run for `dune build @bench-smoke`: the
   ENGINE-based differential harness must keep all three simulation
   levels in lockstep, catch and shrink a seeded fault, and the
   event-driven core must agree with full evaluation while doing
   strictly less work. *)
let bench_smoke ~profile () =
  let pixels = 32 in
  let nl = Lazy.force gate_netlist in
  let factories =
    [
      (fun () ->
        Rtl_engine.create ~label:"rtl:expocu" (Expocu.Expocu_top.rtl_top ()));
      (fun () ->
        Backend.Nl_engine.create ~label:"gates:event"
          ~mode:Backend.Nl_sim.Event_driven nl);
      (fun () ->
        Backend.Nl_engine.create ~label:"gates:full"
          ~mode:Backend.Nl_sim.Full_eval nl);
      (* Word-parallel engine under broadcast stimulus: Engine.get reads
         lane 0, so the lockstep compares the golden lane against every
         scalar level each cycle. *)
      (fun () -> Backend.Nl_engine.create ~label:"gates:word" ~lanes:8 nl);
    ]
  in
  (match Backend.Equiv.differential ~cycles:200 factories with
  | Ok _ -> ()
  | Error d ->
      failwith
        (Format.asprintf "bench-smoke: lockstep divergence: %a"
           Backend.Equiv.pp_divergence d));
  (match
     Backend.Equiv.differential ~cycles:200
       (factories
       @ [
           (fun () ->
             Engine.inject_fault ~port:"frame_done"
               (Backend.Nl_engine.create ~label:"gates:seeded-fault" nl));
         ])
   with
  | Ok _ -> failwith "bench-smoke: seeded fault not detected"
  | Error d ->
      if d.Backend.Equiv.first.Backend.Equiv.port <> "frame_done" then
        failwith "bench-smoke: seeded fault localized to wrong port";
      if Array.length d.Backend.Equiv.window <> 1 then
        failwith "bench-smoke: seeded fault window did not shrink");
  let ev = nl_frame ~profile ~mode:Backend.Nl_sim.Event_driven ~pixels () in
  let fl = nl_frame ~mode:Backend.Nl_sim.Full_eval ~pixels () in
  assert (Backend.Nl_sim.cycles ev = Backend.Nl_sim.cycles fl);
  for n = 0 to Backend.Netlist.net_count nl - 1 do
    if Backend.Nl_sim.net_toggles ev n <> Backend.Nl_sim.net_toggles fl n then
      failwith (Printf.sprintf "bench-smoke: toggle mismatch on net %d" n)
  done;
  if Backend.Nl_sim.gate_evals ev >= Backend.Nl_sim.gate_evals fl then
    failwith "bench-smoke: event-driven mode did not reduce gate evals";
  (* Lane 0 of the word-parallel simulator must be bit-identical to the
     scalar simulator on the frame workload in both scheduling modes:
     same cycle count, same per-net toggle counts. *)
  let lanes = 64 in
  let wev = wsim_frame ~mode:Backend.Nl_sim.Event_driven ~lanes ~pixels () in
  let wfl = wsim_frame ~mode:Backend.Nl_sim.Full_eval ~lanes ~pixels () in
  List.iter
    (fun (who, w) ->
      if Backend.Nl_sim.cycles w <> Backend.Nl_sim.cycles ev then
        failwith (Printf.sprintf "bench-smoke: %s cycle count diverged" who);
      for n = 0 to Backend.Netlist.net_count nl - 1 do
        if Backend.Nl_sim.net_toggles ev n <> Backend.Nl_sim.net_toggles w n
        then
          failwith
            (Printf.sprintf "bench-smoke: %s lane-0 toggle mismatch on net %d"
               who n)
      done)
    [ ("word-event", wev); ("word-full", wfl) ];
  (* Lane-parallel fault campaign: a stuck-at-1 on the frame_done output
     net must be observed against the golden lane and hand the scalar
     harness a shrunk, replaying reproducer. *)
  let frame_done_net = (List.assoc "frame_done" (Backend.Netlist.outputs nl)).(0) in
  let campaign =
    Backend.Equiv.fault_campaign ~cycles:120
      nl
      [ { Backend.Equiv.fault_net = frame_done_net; stuck_at = true } ]
  in
  if campaign.Backend.Equiv.faults_detected <> 1 then
    failwith "bench-smoke: fault campaign missed stuck-at-1 on frame_done";
  (match campaign.Backend.Equiv.fault_results with
  | [ r ] -> (
      match r.Backend.Equiv.shrunk with
      | Some d
        when Array.length d.Backend.Equiv.window >= 1
             && d.Backend.Equiv.replay <> None ->
          ()
      | Some _ | None ->
          failwith "bench-smoke: campaign fault has no replaying reproducer")
  | _ -> assert false);
  (* Multi-seed coverage in one run: a 4-lane frame with per-lane pixel
     streams yields one toggle collector per seed; the union must cover
     at least as much as any single seed. *)
  let wc =
    wsim_frame ~cover:true ~mode:Backend.Nl_sim.Event_driven ~lanes:4 ~pixels
      ()
  in
  let lane_cov l =
    match Backend.Nl_sim.lane_cover wc l with
    | Some c -> c
    | None -> failwith "bench-smoke: lane collector missing"
  in
  let cover_lanes = 4 in
  let per_lane_covered =
    List.init cover_lanes (fun l -> Cover.Toggle.covered (lane_cov l))
  in
  let cover_bits = Cover.Toggle.bits (lane_cov 0) in
  let union_covered =
    let n = ref 0 in
    for i = 0 to cover_bits - 1 do
      let any f = List.exists (fun l -> f (lane_cov l) i > 0) (List.init cover_lanes Fun.id) in
      if any Cover.Toggle.rises && any Cover.Toggle.falls then incr n
    done;
    !n
  in
  if List.exists (fun c -> union_covered < c) per_lane_covered then
    failwith "bench-smoke: multi-seed union covers less than a single seed";
  let ratio, speedup, perf_gate_detail = measure_perf_gate () in
  let hier_cold_s, hier_warm_s, hier_warm_hits, hierarchy_detail =
    measure_hierarchy ()
  in
  let power_osss, _, power_detail = Lazy.force measure_power in
  let par_serial_s, par_par_s, parallel_detail = measure_parallel () in
  let rtl = rtl_frame ~pixels () in
  if Rtl_sim.comb_skips rtl = 0 then
    failwith "bench-smoke: rtl scheduler never skipped a process";
  Obs.Log.infof
    "bench-smoke ok: 4-way lockstep + fault shrink + %d-lane lane-0 \
     identity + fault campaign, %d cycles, gate evals %d (event) vs %d \
     (full), word64 per-pattern speedup %.1fx (ratio %.3f), rtl process \
     runs %d skips %d"
    lanes
    (Backend.Nl_sim.cycles ev)
    (Backend.Nl_sim.gate_evals ev)
    (Backend.Nl_sim.gate_evals fl)
    speedup ratio (Rtl_sim.comb_runs rtl) (Rtl_sim.comb_skips rtl);
  Obs.Log.infof
    "bench-smoke parallel: %d-fault campaign + %d-seed coverage + sweep \
     identical at jobs 1 and %d (campaign %.0f ms serial, %.0f ms at %d \
     jobs on %d recommended domains)"
    parallel_faults
    (List.length parallel_cover_seeds)
    parallel_jobs (par_serial_s *. 1000.0) (par_par_s *. 1000.0)
    parallel_jobs
    (Domain.recommended_domain_count ());
  let rtl_activity = Rtl_sim.process_activity rtl in
  let extra =
    let open Obs.Json in
    [
      ( "smoke",
        Obj
          [
            ("workload", String "expocu_frame");
            ("pixels", Int pixels);
            ("cycles", Int (Backend.Nl_sim.cycles ev));
            ("gate_evals_event", Int (Backend.Nl_sim.gate_evals ev));
            ("gate_evals_full", Int (Backend.Nl_sim.gate_evals fl));
            ("rtl_process_runs", Int (Rtl_sim.comb_runs rtl));
            ("rtl_process_skips", Int (Rtl_sim.comb_skips rtl));
            ("word_lanes", Int lanes);
            ("word_gate_evals_event", Int (Backend.Nl_sim.gate_evals wev));
            ("word_gate_evals_full", Int (Backend.Nl_sim.gate_evals wfl));
            ( "campaign_detected_at",
              match campaign.Backend.Equiv.fault_results with
              | [ { Backend.Equiv.detected_at = Some c; _ } ] -> Int c
              | _ -> Null );
            ( "campaign_site",
              match campaign.Backend.Equiv.fault_results with
              | [ { Backend.Equiv.site; _ } ] -> String site
              | _ -> Null );
          ] );
      ("perf_gate", perf_gate_detail);
      ("hierarchy", hierarchy_detail);
      (* The schema-shaped power section rides in the report's own
         ?power slot; this extra carries the OSSS-vs-conventional
         comparison the energy gate reads. *)
      ("power_compare", power_detail);
      ("parallel", parallel_detail);
      ( "multi_seed_cover",
        Obj
          [
            ("lanes", Int cover_lanes);
            ("bits", Int cover_bits);
            ("per_lane_covered", List (List.map (fun c -> Int c) per_lane_covered));
            ("union_covered", Int union_covered);
          ] );
    ]
  in
  let profiles =
    [
      ("hot_nets", Obs.Profile.top (Backend.Nl_sim.net_activity ev));
      ("hot_cells", Obs.Profile.top (Backend.Nl_sim.cell_activity ev));
      ("hot_processes", Obs.Profile.top rtl_activity);
      ("hot_modules", Obs.Profile.top (Obs.Profile.by_module rtl_activity));
    ]
  in
  ( extra,
    profiles,
    (ratio, speedup),
    (hier_cold_s, hier_warm_s, hier_warm_hits),
    power_osss,
    (par_serial_s, par_par_s) )

(* When the smoke run is being traced, pull the remaining instrumented
   layers (the sc_method kernel and the synthesis flow) into the same
   process so one Chrome trace covers kernel steps, engine settles and
   every Flow pass. *)
let cover_traced_layers () =
  let beh = Expocu.Behave_model.run ~frames:1 ~pixels_per_frame:32 () in
  if beh.Expocu.Behave_model.kernel_runs = 0 then
    failwith "bench-smoke: behavioural model ran no kernel processes";
  let flow = Synth.Flow.run Synth.Flow.Osss (Expocu.Sync.osss_module ()) in
  if flow.Synth.Flow.passes = [] then
    failwith "bench-smoke: flow recorded no passes"

(* ------------------------------------------------------------------ *)
(* Lane-parallel fault campaign on the full ExpoCU netlist             *)

let faults_exp () =
  section "faults"
    "Lane-parallel stuck-at campaign: 63 fault candidates + golden lane, \
     one word-parallel run";
  let nl = Lazy.force gate_netlist in
  let rng = Random.State.make [| 0xFA17 |] in
  let n_nets = Backend.Netlist.net_count nl in
  let faults =
    List.init 63 (fun _ ->
        {
          Backend.Equiv.fault_net = Random.State.int rng n_nets;
          stuck_at = Random.State.bool rng;
        })
  in
  (* Pure random stimulus would toggle ext_reset every other cycle and
     keep the design in reset; hold it released so faults propagate. *)
  let drive _ (name, r) = if name = "ext_reset" then Bitvec.zero 1 else r in
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

type opts = {
  mutable smoke : bool;
  mutable json : bool;
  mutable profile : bool;
  mutable lanes : int option;
  mutable trace_out : string option;
  mutable stats_json : string option;
  mutable check_report : string option;
  mutable cover_out : string option;
  mutable cover_summary : bool;
  mutable cover_merge : (string * string) option;
  mutable cover_gate : string option;
  mutable perf_gate : string option;
  mutable append_history : string option;  (* date stamp for the entry *)
  mutable history_check : string option;
  mutable power_out : string option;
  mutable power_summary : bool;
  mutable jobs : int option;
  mutable ids : string list;  (* reverse order *)
}

let usage () =
  Obs.Log.error
    "usage: bench [--smoke] [--json] [--profile] [--lanes N] [--trace-out \
     FILE] [--stats-json FILE] [--check-report FILE] [--cover-out FILE] \
     [--cover-summary] [--cover-merge A B] [--cover-gate BASELINE] \
     [--perf-gate BASELINE] [--append-history DATE] [--history-check FILE] \
     [--power-out FILE] [--power-summary] [--jobs N] [experiment ids...]";
  exit 2

(* CI perf gate: compare the fresh smoke-workload measurements against
   the checked-in BENCH_sim.json.  The evals-per-cycle ratio is a
   deterministic count and may not grow more than 20% over baseline; the
   64-lane per-pattern speedup is wall-clock and may not fall more than
   20% below baseline nor under the absolute 10x floor.  The OSSS
   dynamic energy total on the seeded power workload is deterministic
   and may not grow more than 20% — an optimization that trades area
   for a hot, always-toggling structure trips this gate. *)
let perf_gate_check ~baseline (ratio, speedup)
    (hier_cold_s, hier_warm_s, hier_warm_hits)
    (power_osss : Synth.Power_dyn.report) (par_serial_s, par_par_s) =
  let doc =
    try
      let ic = open_in_bin baseline in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (Obs.Json.of_string s)
    with _ -> None
  in
  match doc with
  | None ->
      Obs.Log.errorf "perf-gate: cannot read baseline %s" baseline;
      exit 1
  | Some doc -> (
      let field key =
        Option.bind (Obs.Json.member "perf_gate" doc) (fun pg ->
            Option.bind (Obs.Json.member key pg) Obs.Json.number_value)
      in
      match
        (field "evals_per_cycle_ratio", field "word64_per_pattern_speedup")
      with
      | Some base_ratio, Some base_speedup ->
          let failures = ref [] in
          if ratio > base_ratio *. 1.2 then
            failures :=
              Printf.sprintf
                "evals_per_cycle_ratio regressed: %.4f, baseline %.4f (+20%% \
                 tolerance)"
                ratio base_ratio
              :: !failures;
          if speedup < base_speedup *. 0.8 then
            failures :=
              Printf.sprintf
                "word64_per_pattern_speedup regressed: %.1fx, baseline %.1fx \
                 (-20%% tolerance)"
                speedup base_speedup
              :: !failures;
          if speedup < 10.0 then
            failures :=
              Printf.sprintf
                "word64_per_pattern_speedup %.1fx is under the absolute 10x \
                 floor"
                speedup
              :: !failures;
          (* Module-cache gate: the warm flow run re-lowers nothing, so
             it must not be meaningfully slower than the cold run. *)
          if hier_warm_hits = 0 then
            failures :=
              "warm flow run hit the lowering cache 0 times" :: !failures;
          if hier_warm_s > hier_cold_s *. 1.2 then
            failures :=
              Printf.sprintf
                "warm flow run took %.1f ms against %.1f ms cold (over the \
                 1.2x tolerance)"
                (hier_warm_s *. 1000.0) (hier_cold_s *. 1000.0)
              :: !failures;
          (* Energy gate: deterministic seeded-stimulus total vs the
             baseline's power section (older baselines without one skip
             the check with a warning rather than failing). *)
          let energy = power_osss.Synth.Power_dyn.p_total_energy_pj in
          let base_energy =
            List.fold_left
              (fun acc k -> Option.bind acc (Obs.Json.member k))
              (Some doc)
              [ "power"; "osss"; "total_energy_pj" ]
            |> Fun.flip Option.bind Obs.Json.number_value
          in
          (match base_energy with
          | Some base when energy > base *. 1.2 ->
              failures :=
                Printf.sprintf
                  "osss dynamic energy regressed: %.1f pJ, baseline %.1f pJ \
                   (+20%% tolerance)"
                  energy base
                :: !failures
          | Some base ->
              Obs.Log.infof
                "perf-gate: energy %.1f pJ within tolerance of baseline \
                 %.1f pJ"
                energy base
          | None ->
              Obs.Log.infof
                "perf-gate: baseline %s has no power section; energy gate \
                 skipped"
                baseline);
          (* Parallel gate: the 4-job campaign must finish in at most
             0.6x the serial wall-clock.  Wall-clock scaling needs real
             cores, so hosts with fewer than 4 recommended domains skip
             with a warning — as do baselines predating the parallel
             section. *)
          (match
             Option.bind (Obs.Json.member "parallel" doc) (fun p ->
                 Obs.Json.member "jobs" p)
           with
          | None ->
              Obs.Log.infof
                "perf-gate: baseline %s has no parallel section; parallel \
                 gate skipped"
                baseline
          | Some _ ->
              if Domain.recommended_domain_count () < 4 then
                Obs.Log.infof
                  "perf-gate: host recommends %d domains (< 4); parallel \
                   gate skipped (campaign %.0f ms serial, %.0f ms at 4 jobs)"
                  (Domain.recommended_domain_count ())
                  (par_serial_s *. 1000.0) (par_par_s *. 1000.0)
              else if par_par_s > par_serial_s *. 0.6 then
                failures :=
                  Printf.sprintf
                    "4-job fault campaign took %.0f ms against %.0f ms \
                     serial (over the 0.6x ceiling)"
                    (par_par_s *. 1000.0) (par_serial_s *. 1000.0)
                  :: !failures
              else
                Obs.Log.infof
                  "perf-gate: parallel ok — campaign %.0f ms at 4 jobs vs \
                   %.0f ms serial (%.1fx)"
                  (par_par_s *. 1000.0) (par_serial_s *. 1000.0)
                  (par_serial_s /. par_par_s));
          (match !failures with
          | [] ->
              Obs.Log.infof
                "perf-gate: ok — ratio %.4f (baseline %.4f), word64 speedup \
                 %.1fx (baseline %.1fx), warm flow %.1f ms vs %.1f ms cold \
                 (%d cache hits)"
                ratio base_ratio speedup base_speedup
                (hier_warm_s *. 1000.0) (hier_cold_s *. 1000.0) hier_warm_hits
          | fs ->
              List.iter (fun f -> Obs.Log.errorf "perf-gate: %s" f) fs;
              exit 1)
      | _ ->
          Obs.Log.errorf "perf-gate: baseline %s has no perf_gate section"
            baseline;
          exit 1)

(* One-line performance ledger: append the headline figures of a
   checked-in BENCH_sim.json to bench/history.jsonl, so trend questions
   ("when did the event-driven ratio move?") are a grep, not an
   archaeology dig through git history of the full report.  Each line
   is stamped osss.bench-history/v1; --history-check validates a whole
   ledger against that schema. *)
let history_schema = "osss.bench-history/v1"

let append_history ~date ~baseline ~history =
  let doc =
    try
      let ic = open_in_bin baseline in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (Obs.Json.of_string s)
    with _ -> None
  in
  match doc with
  | None ->
      Obs.Log.errorf "append-history: cannot read %s" baseline;
      exit 1
  | Some doc -> (
      let path keys =
        List.fold_left
          (fun acc k -> Option.bind acc (Obs.Json.member k))
          (Some doc) keys
        |> Fun.flip Option.bind Obs.Json.number_value
      in
      let workload =
        match
          Option.bind (Obs.Json.member "workload" doc) Obs.Json.string_value
        with
        | Some w -> w
        | None -> "expocu_frame"
      in
      match
        ( path [ "netlist"; "event_driven"; "evals_per_cycle" ],
          path [ "perf_gate"; "word64_per_pattern_speedup" ],
          path [ "hierarchy"; "cold_flow_ms" ] )
      with
      | Some evals, Some speedup, Some flow_ms ->
          (* Energy totals entered the report later; older baselines
             simply omit the power keys. *)
          let power_fields =
            match
              ( path [ "power"; "osss"; "total_energy_pj" ],
                path [ "power"; "conventional"; "total_energy_pj" ] )
            with
            | Some osss_pj, Some conv_pj ->
                [
                  ("osss_energy_pj", Obs.Json.Float osss_pj);
                  ("conventional_energy_pj", Obs.Json.Float conv_pj);
                ]
            | _ -> []
          in
          let line =
            Obs.Json.to_string
              (Obs.Json.Obj
                 ([
                    ("schema", Obs.Json.String history_schema);
                    ("date", Obs.Json.String date);
                    ("workload", Obs.Json.String workload);
                    ("evals_per_cycle", Obs.Json.Float evals);
                    ("word64_speedup", Obs.Json.Float speedup);
                    ("cold_flow_ms", Obs.Json.Float flow_ms);
                  ]
                 @ power_fields))
          in
          (* Refuse a duplicate ledger entry: re-running the CI step on
             the same day must not stack identical lines.  Only the
             LAST entry for this workload is consulted — an older
             same-date line (a backfill) is someone's explicit edit. *)
          let last_date_for_workload =
            try
              let ic = open_in history in
              let last = ref None in
              (try
                 while true do
                   let l = input_line ic in
                   if String.trim l <> "" then
                     match Obs.Json.of_string l with
                     | exception Obs.Json.Parse_error _ -> ()
                     | j ->
                         let str k =
                           Option.bind (Obs.Json.member k j)
                             Obs.Json.string_value
                         in
                         if str "workload" = Some workload then
                           last := str "date"
                 done
               with End_of_file -> ());
              close_in ic;
              !last
            with Sys_error _ -> None
          in
          if last_date_for_workload = Some date then begin
            Obs.Log.errorf
              "append-history: %s already ends with a %s entry for %s — \
               refusing the duplicate"
              history date workload;
            exit 1
          end;
          let oc =
            open_out_gen [ Open_append; Open_creat ] 0o644 history
          in
          output_string oc (line ^ "\n");
          close_out oc;
          Obs.Log.infof "append-history: %s >> %s" line history;
          exit 0
      | _ ->
          Obs.Log.errorf
            "append-history: %s is missing the expected sections" baseline;
          exit 1)

(* Validate every line of a bench-history ledger: parseable JSON,
   the v1 stamp, a date, and numeric headline figures.  CI runs this
   against the checked-in bench/history.jsonl so the ledger stays
   greppable. *)
let history_check ~history =
  let lines =
    try
      let ic = open_in history in
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      Some (go [])
    with Sys_error _ -> None
  in
  match lines with
  | None ->
      Obs.Log.errorf "history-check: cannot read %s" history;
      exit 1
  | Some lines ->
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
             (fun i line ->
               Option.to_list (check_line (i + 1) line))
             lines)
      in
      let entries =
        List.length (List.filter (fun l -> String.trim l <> "") lines)
      in
      (match errors with
      | [] ->
          Printf.printf "%s: ok (%d entries, schema %s)\n" history entries
            history_schema;
          exit 0
      | es ->
          List.iter (fun e -> Obs.Log.errorf "history-check: %s" e) es;
          exit 1)

let () =
  let o =
    {
      smoke = false;
      json = false;
      profile = false;
      lanes = None;
      trace_out = None;
      stats_json = None;
      check_report = None;
      cover_out = None;
      cover_summary = false;
      cover_merge = None;
      cover_gate = None;
      perf_gate = None;
      append_history = None;
      history_check = None;
      power_out = None;
      power_summary = false;
      jobs = None;
      ids = [];
    }
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        o.smoke <- true;
        parse rest
    | "--json" :: rest ->
        o.json <- true;
        parse rest
    | "--profile" :: rest ->
        o.profile <- true;
        parse rest
    | "--lanes" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            o.lanes <- Some n;
            parse rest
        | Some _ | None ->
            Obs.Log.errorf "--lanes expects a positive integer, got %s" n;
            usage ())
    | "--perf-gate" :: file :: rest ->
        o.perf_gate <- Some file;
        parse rest
    | "--append-history" :: date :: rest ->
        o.append_history <- Some date;
        parse rest
    | "--history-check" :: file :: rest ->
        o.history_check <- Some file;
        parse rest
    | "--power-out" :: file :: rest ->
        o.power_out <- Some file;
        parse rest
    | "--power-summary" :: rest ->
        o.power_summary <- true;
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            o.jobs <- Some n;
            parse rest
        | Some _ | None ->
            Obs.Log.errorf "--jobs expects a positive integer, got %s" n;
            usage ())
    | "--trace-out" :: file :: rest ->
        o.trace_out <- Some file;
        parse rest
    | "--stats-json" :: file :: rest ->
        o.stats_json <- Some file;
        parse rest
    | "--check-report" :: file :: rest ->
        o.check_report <- Some file;
        parse rest
    | "--cover-out" :: file :: rest ->
        o.cover_out <- Some file;
        parse rest
    | "--cover-summary" :: rest ->
        o.cover_summary <- true;
        parse rest
    | "--cover-merge" :: a :: b :: rest ->
        o.cover_merge <- Some (a, b);
        parse rest
    | "--cover-gate" :: file :: rest ->
        o.cover_gate <- Some file;
        parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        Obs.Log.errorf "unknown or incomplete option %s" arg;
        usage ()
    | id :: rest ->
        o.ids <- id :: o.ids;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Campaign parallelism: every ?jobs default in the process follows
     this ([Par.default_jobs]); jobs=1 runs the serial code paths. *)
  (match o.jobs with Some j -> Par.set_default_jobs j | None -> ());
  (* --append-history summarizes a checked-in baseline and exits; the
     baseline defaults to BENCH_sim.json but follows --perf-gate. *)
  (match o.append_history with
  | Some date ->
      append_history ~date
        ~baseline:(Option.value o.perf_gate ~default:"BENCH_sim.json")
        ~history:"bench/history.jsonl"
  | None -> ());
  (* --history-check validates the ledger and exits. *)
  (match o.history_check with
  | Some file -> history_check ~history:file
  | None -> ());
  (* --cover-merge unions two coverage DBs and exits: CI merges the
     per-seed databases into the uploaded artifact with this. *)
  (match o.cover_merge with
  | Some (a, b) -> (
      match (Cover.Db.load a, Cover.Db.load b) with
      | Ok da, Ok db ->
          let merged = Cover.Db.merge da db in
          (match o.cover_out with
          | Some path ->
              Cover.Db.save merged path;
              Obs.Log.infof "merged coverage written to %s" path
          | None -> ());
          if o.cover_summary || o.cover_out = None then
            print_string (Cover.Db.summary merged);
          exit 0
      | (Error e, _ | _, Error e) ->
          Obs.Log.errorf "cover-merge: %s" e;
          exit 1)
  | None -> ());
  (* --check-report validates and exits: the in-repo schema check CI
     runs against a report produced moments earlier.  A coverage
     section must not merely look like a coverage DB — it has to parse
     back as one. *)
  (match o.check_report with
  | Some file -> (
      match Obs.Report.validate_file file with
      | Error e ->
          Obs.Log.errorf "%s: invalid run report: %s" file e;
          exit 1
      | Ok () -> (
          let doc =
            let ic = open_in_bin file in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            Obs.Json.of_string s
          in
          match Obs.Json.member "coverage" doc with
          | None ->
              Printf.printf "%s: valid (no coverage section)\n" file;
              exit 0
          | Some c -> (
              match Cover.Db.of_json c with
              | Ok db ->
                  Printf.printf "%s: valid, coverage %d/%d toggle bits\n" file
                    (Cover.Db.totals db).Cover.Db.toggle_covered
                    (Cover.Db.totals db).Cover.Db.toggle_bits;
                  exit 0
              | Error e ->
                  Obs.Log.errorf "%s: coverage section: %s" file e;
                  exit 1)))
  | None -> ());
  let tracing = o.trace_out <> None || o.stats_json <> None in
  if tracing then begin
    Obs.Span.enable ();
    Obs.Hist.enable ()
  end;
  let covering =
    o.cover_out <> None || o.cover_summary || o.cover_gate <> None
  in
  if covering && not o.smoke then begin
    Obs.Log.error
      "coverage collection is attached to the smoke workload; add --smoke";
    exit 2
  end;
  if o.perf_gate <> None && not o.smoke then begin
    Obs.Log.error "--perf-gate is attached to the smoke workload; add --smoke";
    exit 2
  end;
  let powering = o.power_out <> None || o.power_summary in
  if powering && not (o.smoke || o.json) then begin
    Obs.Log.error
      "power collection is attached to the smoke/json workloads; add --smoke \
       or --json";
    exit 2
  end;
  (* Exports shared by the smoke and full-json paths: the OSSS power
     report's VCD waveform and human summary.  In --json mode stdout
     must stay pure JSON, so the summary goes to stderr. *)
  let export_power (po : Synth.Power_dyn.report) =
    (match o.power_out with
    | Some path ->
        Synth.Power_dyn.save_vcd po path;
        Obs.Log.infof "power waveform written to %s" path
    | None -> ());
    if o.power_summary then
      (if o.json then prerr_string else print_string)
        (Synth.Power_dyn.summary po)
  in
  let collected = ref None in
  let power_report = ref None in
  if o.smoke then begin
    let extra, profiles, gate_vals, hier_vals, power_osss, par_vals =
      bench_smoke ~profile:(o.profile || o.json) ()
    in
    power_report := Some power_osss;
    if powering then export_power power_osss;
    (match o.perf_gate with
    | Some baseline ->
        perf_gate_check ~baseline gate_vals hier_vals power_osss par_vals
    | None -> ());
    if covering then begin
      let db = smoke_cover_db ~pixels:32 () in
      collected := Some db;
      (match o.cover_out with
      | Some path ->
          Cover.Db.save db path;
          Obs.Log.infof "coverage database written to %s" path
      | None -> ());
      (* In --json mode stdout must stay pure JSON (CI pipes it into
         --check-report), so the human-readable summary goes to stderr. *)
      if o.cover_summary then
        (if o.json then prerr_string else print_string)
          (Cover.Db.summary db);
      match o.cover_gate with
      | Some baseline -> cover_gate ~baseline db
      | None -> ()
    end;
    if tracing then cover_traced_layers ();
    if o.json then
      print_endline
        (Obs.Json.to_string ~pretty:true
           (Obs.Report.make
              ?coverage:(Option.map Cover.Db.to_json !collected)
              ?power:(Option.map Synth.Power_dyn.to_json !power_report)
              ~profiles ~extra ~run:"bench-smoke" ()))
  end
  else if o.json then begin
    bench_json ~profile:o.profile ~lanes:o.lanes ();
    if powering then begin
      let po, _, _ = Lazy.force measure_power in
      power_report := Some po;
      export_power po
    end
  end
  else begin
    let find id = List.assoc_opt (String.lowercase_ascii id) experiments in
    (match List.filter (fun id -> find id = None) (List.rev o.ids) with
    | [] -> ()
    | unknown ->
        List.iter (Obs.Log.errorf "unknown experiment %s") unknown;
        Printf.eprintf "valid experiments: %s\n"
          (String.concat " " (List.map fst experiments));
        exit 2);
    let selected =
      match List.rev o.ids with
      | [] -> experiments
      | ids -> List.map (fun id -> (id, Option.get (find id))) ids
    in
    Printf.printf
      "OSSS evaluation reproduction — experiments from Bannow & Haug, DATE \
       2004\n";
    List.iter (fun (_, f) -> f ()) selected
  end;
  (match o.stats_json with
  | Some path ->
      let run = if o.smoke then "bench-smoke" else "bench" in
      Obs.Json.save
        (Obs.Report.make
           ?coverage:(Option.map Cover.Db.to_json !collected)
           ?power:(Option.map Synth.Power_dyn.to_json !power_report)
           ~run ())
        path;
      Obs.Log.infof "run report written to %s" path
  | None -> ());
  match o.trace_out with
  | Some path ->
      Obs.Span.save_chrome path;
      Obs.Log.infof "chrome trace written to %s" path
  | None -> ()
