(* Tests for the netlist back end: gate builders, lowering, gate-level
   simulation, timing/area analysis, optimization, equivalence. *)

open Hdl
open Builder.Dsl
module N = Backend.Netlist

let test_builder_folding () =
  let nl = N.create ~name:"t" () in
  let a = N.add_input nl "a" 1 in
  let one = N.const1 nl in
  let zero = N.const0 nl in
  Alcotest.(check int) "and with 1 is identity" a.(0)
    (N.and2 nl a.(0) one);
  Alcotest.(check int) "and with 0 is 0" zero (N.and2 nl a.(0) zero);
  Alcotest.(check int) "xor self is 0" zero (N.xor2 nl a.(0) a.(0));
  let n1 = N.not_ nl a.(0) in
  Alcotest.(check int) "double negation cancels" a.(0) (N.not_ nl n1);
  let g1 = N.and2 nl a.(0) n1 and g2 = N.and2 nl n1 a.(0) in
  Alcotest.(check int) "structural hashing commutes" g1 g2;
  Alcotest.(check int) "mux with equal arms" a.(0)
    (N.mux2 nl ~sel:one a.(0) a.(0))

let test_builder_no_folding () =
  let nl = N.create ~fold:false ~name:"t" () in
  let a = N.add_input nl "a" 1 in
  let g1 = N.and2 nl a.(0) a.(0) and g2 = N.and2 nl a.(0) a.(0) in
  Alcotest.(check bool) "duplicates kept" true (g1 <> g2)

(* Reference designs reused below. *)
let alu_design () =
  let b = Builder.create "mini_alu" in
  let op = Builder.input b "op" 2 in
  let a = Builder.input b "a" 8 in
  let x = Builder.input b "x" 8 in
  let y = Builder.output b "y" 8 in
  Builder.comb b "alu"
    [
      case (v op)
        [
          (0, [ y <-- (v a +: v x) ]);
          (1, [ y <-- (v a -: v x) ]);
          (2, [ y <-- (v a &: v x) ]);
        ]
        [ y <-- (v a ^: v x) ];
    ];
  Builder.finish b

let counter_design () =
  let b = Builder.create "counter" in
  let reset = Builder.input b "reset" 1 in
  let count = Builder.output b "count" 8 in
  Builder.sync b "tick"
    [
      if_ (v reset)
        [ count <-- c ~width:8 0 ]
        [ count <-- (v count +: c ~width:8 1) ];
    ];
  Builder.finish b

let mul_design () =
  let b = Builder.create "mult" in
  let a = Builder.input b "a" 8 in
  let x = Builder.input b "x" 8 in
  let p = Builder.output b "p" 16 in
  Builder.comb b "mul" [ p <-- (zext (v a) 16 *: zext (v x) 16) ];
  Builder.finish b

let test_lower_and_simulate_alu () =
  let nl = Backend.Lower.lower (alu_design ()) in
  let sim = Backend.Nl_sim.create nl in
  let expect op a x value =
    Backend.Nl_sim.set_input_int sim "op" op;
    Backend.Nl_sim.set_input_int sim "a" a;
    Backend.Nl_sim.set_input_int sim "x" x;
    Backend.Nl_sim.settle sim;
    Alcotest.(check int)
      (Printf.sprintf "op=%d a=%d x=%d" op a x)
      value
      (Backend.Nl_sim.get_output_int sim "y")
  in
  expect 0 200 100 44;
  expect 1 100 30 70;
  expect 2 0xCC 0xAA 0x88;
  expect 3 0xCC 0xAA 0x66

let test_lower_counter () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let sim = Backend.Nl_sim.create nl in
  Backend.Nl_sim.set_input_int sim "reset" 1;
  Backend.Nl_sim.step sim;
  Backend.Nl_sim.set_input_int sim "reset" 0;
  Backend.Nl_sim.run sim 5;
  Alcotest.(check int) "counted to 5" 5
    (Backend.Nl_sim.get_output_int sim "count")

let test_equivalence_random () =
  List.iter
    (fun design ->
      let nl = Backend.Lower.lower design in
      match Backend.Equiv.ir_vs_netlist ~cycles:300 design nl with
      | Ok n -> Alcotest.(check int) "cycles compared" 300 n
      | Error m ->
          Alcotest.failf "%s: %a" design.Ir.mod_name Backend.Equiv.pp_divergence
            m)
    [ alu_design (); counter_design (); mul_design () ]

let test_equivalence_unfolded () =
  (* Disabling construction-time folding must not change behaviour. *)
  let design = alu_design () in
  let nl = Backend.Lower.lower ~fold:false design in
  match Backend.Equiv.ir_vs_netlist ~cycles:200 design nl with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_memory_lowering () =
  let b = Builder.create "regfile" in
  let we = Builder.input b "we" 1 in
  let waddr = Builder.input b "waddr" 2 in
  let wdata = Builder.input b "wdata" 4 in
  let raddr = Builder.input b "raddr" 2 in
  let rdata = Builder.output b "rdata" 4 in
  let mem = Builder.memory b "mem" ~width:4 ~depth:4 in
  Builder.sync b "write" [ when_ (v we) [ awrite mem (v waddr) (v wdata) ] ];
  Builder.comb b "read" [ rdata <-- aread mem (v raddr) ];
  let design = Builder.finish b in
  let nl = Backend.Lower.lower design in
  (match Backend.Equiv.ir_vs_netlist ~cycles:400 design nl with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m);
  let area = Backend.Area.analyze nl in
  Alcotest.(check int) "16 state bits" 16 area.Backend.Area.n_ffs

let test_barrel_shifter () =
  let b = Builder.create "shifter" in
  let a = Builder.input b "a" 8 in
  let amount = Builder.input b "amount" 4 in
  let left = Builder.output b "left" 8 in
  let right = Builder.output b "right" 8 in
  Builder.comb b "shift"
    [ left <-- (v a <<: v amount); right <-- (v a >>: v amount) ];
  let design = Builder.finish b in
  let nl = Backend.Lower.lower design in
  match Backend.Equiv.ir_vs_netlist ~cycles:300 design nl with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_signed_compare_lowering () =
  let b = Builder.create "signed_cmp" in
  let a = Builder.input b "a" 6 in
  let x = Builder.input b "x" 6 in
  let lt = Builder.output b "lt" 1 in
  let le = Builder.output b "le" 1 in
  Builder.comb b "cmp"
    [
      lt <-- Ir.Binop (Ir.Slt, v a, v x);
      le <-- Ir.Binop (Ir.Sle, v a, v x);
    ];
  let design = Builder.finish b in
  let nl = Backend.Lower.lower design in
  match Backend.Equiv.ir_vs_netlist ~cycles:500 design nl with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_timing_analysis () =
  let nl = Backend.Lower.lower (mul_design ()) in
  let report = Backend.Timing.analyze nl in
  Alcotest.(check bool) "positive delay" true
    (report.Backend.Timing.critical_ns > 0.5);
  Alcotest.(check bool) "levels counted" true (report.Backend.Timing.levels > 5);
  let small = Backend.Lower.lower (counter_design ()) in
  let small_report = Backend.Timing.analyze small in
  Alcotest.(check bool) "mult slower than counter" true
    (report.Backend.Timing.critical_ns
    > small_report.Backend.Timing.critical_ns)

let test_area_analysis () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let report = Backend.Area.analyze nl in
  Alcotest.(check int) "8 flip-flops" 8 report.Backend.Area.n_ffs;
  Alcotest.(check bool) "total includes comb" true
    (report.Backend.Area.total > report.Backend.Area.sequential)

let test_optimize_removes_dead_logic () =
  let b = Builder.create "deadwood" in
  let a = Builder.input b "a" 8 in
  let out = Builder.output b "out" 8 in
  let unused = Builder.wire b "unused" 8 in
  Builder.comb b "dead" [ unused <-- (v a *: v a) ];
  Builder.comb b "live" [ out <-- (v a +: c ~width:8 1) ];
  let design = Builder.finish b in
  let nl = Backend.Lower.lower ~fold:false design in
  let optimized = Backend.Opt.optimize nl in
  Alcotest.(check bool) "smaller" true
    (N.cell_count optimized < N.cell_count nl);
  match Backend.Equiv.ir_vs_netlist ~cycles:100 design optimized with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

let test_power_estimation () =
  (* An active counter burns more dynamic energy than a held one. *)
  let nl = Backend.Lower.lower (counter_design ()) in
  let power reset =
    let sim = Backend.Nl_sim.create nl in
    Backend.Nl_sim.enable_power_sampler sim;
    Backend.Nl_sim.set_input_int sim "reset" reset;
    Backend.Nl_sim.run sim 200;
    Synth.Power_dyn.analyze nl (Option.get (Backend.Nl_sim.power_activity sim))
  in
  let active = power 0 in
  (* held in reset: the counter stays at zero *)
  let idle = power 1 in
  Alcotest.(check bool) "active burns more" true
    (active.Synth.Power_dyn.p_total_energy_pj
    > idle.Synth.Power_dyn.p_total_energy_pj);
  Alcotest.(check (float 1e-12))
    "leakage equal" active.Synth.Power_dyn.p_leakage_mw
    idle.Synth.Power_dyn.p_leakage_mw;
  Alcotest.(check bool) "idle still pays clock" true
    (idle.Synth.Power_dyn.p_avg_mw > idle.Synth.Power_dyn.p_leakage_mw)

let test_netlist_verilog () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let text = N.emit_verilog nl in
  let contains needle hay =
    let nl' = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl' <= hl && (String.sub hay i nl' = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "module" true (contains "module counter" text);
  Alcotest.(check bool) "dff always" true (contains "always @(posedge clk)" text)

let test_netlist_check_catches_dangling () =
  let nl = N.create ~name:"broken" () in
  let _q = N.dff_deferred nl in
  Alcotest.(check bool) "check raises" true
    (try
       N.check nl;
       false
     with Failure _ -> true)

let test_event_driven_matches_full_eval () =
  (* The event-driven scheduler must be indistinguishable from the
     retained full-evaluation reference: same output bits every cycle
     and the same per-net toggle counts at the end, over randomized
     ExpoCU stimulus — while actually skipping work. *)
  let nl = Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()) in
  let ev = Backend.Nl_sim.create ~mode:Backend.Nl_sim.Event_driven nl in
  let full = Backend.Nl_sim.create ~mode:Backend.Nl_sim.Full_eval nl in
  let rng = Random.State.make [| 0xE5C0 |] in
  let outputs = List.map fst (N.outputs nl) in
  let drive name v =
    Backend.Nl_sim.set_input_int ev name v;
    Backend.Nl_sim.set_input_int full name v
  in
  drive "ext_reset" 1;
  drive "pixel" 0;
  drive "line_valid" 0;
  drive "frame_sync" 0;
  drive "sda_in" 0;
  drive "target_bin" 7;
  let cycles = 1200 in
  for cycle = 1 to cycles do
    if Random.State.int rng 100 = 0 then
      drive "ext_reset" (Random.State.int rng 2);
    if cycle > 5 then drive "ext_reset" 0;
    drive "pixel" (Random.State.int rng 256);
    drive "line_valid" (if Random.State.int rng 3 > 0 then 1 else 0);
    drive "frame_sync" (if Random.State.int rng 40 = 0 then 1 else 0);
    drive "sda_in" (Random.State.int rng 2);
    if Random.State.int rng 200 = 0 then
      drive "target_bin" (Random.State.int rng 16);
    Backend.Nl_sim.step ev;
    Backend.Nl_sim.step full;
    List.iter
      (fun name ->
        let a = Backend.Nl_sim.get_output ev name in
        let b = Backend.Nl_sim.get_output full name in
        if not (Bitvec.equal a b) then
          Alcotest.failf "cycle %d output %s: event %s <> full %s" cycle name
            (Bitvec.to_string a) (Bitvec.to_string b))
      outputs
  done;
  for n = 0 to N.net_count nl - 1 do
    if Backend.Nl_sim.net_toggles ev n <> Backend.Nl_sim.net_toggles full n
    then
      Alcotest.failf "net %d toggles: event %d <> full %d" n
        (Backend.Nl_sim.net_toggles ev n)
        (Backend.Nl_sim.net_toggles full n)
  done;
  Alcotest.(check int) "same cycle count" cycles (Backend.Nl_sim.cycles ev);
  Alcotest.(check bool) "event mode skipped work" true
    (Backend.Nl_sim.cells_skipped ev > 0);
  Alcotest.(check bool) "event mode evaluated fewer gates" true
    (Backend.Nl_sim.gate_evals ev < Backend.Nl_sim.gate_evals full)

let test_netlist_loop_detection () =
  (* The gate builders cannot produce a combinational cycle (every gate
     drives a fresh net), so craft one by rewiring a cell input; every
     pass that reads the frozen view must refuse it with the same typed
     exception, naming the offending net and design. *)
  let nl = N.create ~fold:false ~name:"ring" () in
  let a = N.add_input nl "a" 1 in
  let g1 = N.and2 nl a.(0) a.(0) in
  let g2 = N.or2 nl g1 a.(0) in
  let cell_of out =
    List.find (fun (c : N.cell) -> c.out = out) (N.cells nl)
  in
  (cell_of g1).ins.(1) <- g2;
  let loop =
    Backend.Nl_sim.Combinational_loop { module_name = "ring"; net = g1 }
  in
  List.iter
    (fun (what, f) -> Alcotest.check_raises what loop f)
    [
      ("loop raises", fun () -> ignore (Backend.Nl_sim.create nl));
      ("xprop raises the same loop", fun () -> ignore (Backend.Xprop.create nl));
      ("freeze", fun () -> ignore (N.freeze nl));
      ("timing", fun () -> ignore (Backend.Timing.analyze nl));
      ("timing by module", fun () -> ignore (Backend.Timing.by_module nl));
      ("opt", fun () -> ignore (Backend.Opt.optimize nl));
      ("cec", fun () -> ignore (Backend.Cec.check nl nl));
      ("power", fun () -> ignore (Synth.Power_dyn.measure ~cycles:2 nl));
    ]

let test_freeze_cache () =
  (* The frozen view is cached until a mutator drops it. *)
  let nl = N.create ~name:"grow" () in
  let a = N.add_input nl "a" 2 in
  let x = N.and2 nl a.(0) a.(1) in
  N.add_output nl "x" [| x |];
  let f1 = N.freeze nl in
  Alcotest.(check bool) "cached" true (f1 == N.freeze nl);
  let y = N.xor2 nl x a.(0) in
  let f2 = N.freeze nl in
  Alcotest.(check bool) "gate builder drops the cache" true (f1 != f2);
  Alcotest.(check int) "new cell in view" 2 (Array.length f2.comb);
  N.add_output nl "y" [| y |];
  Alcotest.(check bool) "new output in view" true
    (Hashtbl.mem (N.freeze nl).out_nets "y");
  let q = N.dff_deferred nl in
  N.connect_dff nl ~q ~d:y;
  Alcotest.(check int) "flip-flop in view" 1 (Array.length (N.freeze nl).dffs);
  N.substitute nl (fun n -> if n = y then x else n);
  Alcotest.(check int) "substitute rewires the view" x
    (N.freeze nl).dffs.(0).ins.(0)

(* [net_labels] is cached like the frozen view, and every mutator and
   annotation drops it: a hint or region set after the first read shows
   in the next one. *)
let test_label_cache () =
  let nl = N.create ~name:"labels" () in
  let a = N.add_input nl "a" 2 in
  let x = N.and2 nl a.(0) a.(1) in
  let l1 = N.net_labels nl in
  Alcotest.(check bool) "cached" true (l1 == N.net_labels nl);
  Alcotest.(check string) "port bit" "a[1]" l1.(a.(1));
  Alcotest.(check string) "anonymous" (Printf.sprintf "n%d" x) l1.(x);
  N.set_hint nl x "both";
  Alcotest.(check string) "hint set after the first read" "both"
    (N.net_labels nl).(x);
  N.set_region nl x "u_and";
  Alcotest.(check string) "region set after the first read" "u_and.both"
    (N.net_labels nl).(x);
  N.add_output nl "x" [| x |];
  Alcotest.(check string) "output port after the first read" "x"
    (N.net_labels nl).(x);
  let y = N.xor2 nl x a.(0) in
  Alcotest.(check int) "new net labelled" (N.net_count nl)
    (Array.length (N.net_labels nl));
  Alcotest.(check string) "new net" (Printf.sprintf "n%d" y)
    (N.net_labels nl).(y)

(* Property: random expression trees lower to netlists that agree with
   the interpreter on random inputs, and simulating them agrees with the
   reference evaluator in every mode and lane count. *)
let gen_expr_design =
  let open QCheck2.Gen in
  let rec gen_expr env depth =
    if depth = 0 then
      oneof
        [
          (let* i = int_range 0 (List.length env - 1) in
           return (v (List.nth env i)));
          (let* n = int_range 0 255 in
           return (c ~width:8 n));
        ]
    else
      let sub = gen_expr env (depth - 1) in
      oneof
        [
          (let* a = sub and* b = sub in
           let* op =
             oneofl
               [ Ir.Add; Ir.Sub; Ir.And; Ir.Or; Ir.Xor; Ir.Mul ]
           in
           return (Ir.Binop (op, a, b)));
          (let* a = sub and* b = sub and* s = sub in
           return (mux2 (slice s ~hi:0 ~lo:0) a b));
          (let* a = sub in
           return (notb a));
          (let* a = sub and* b = sub in
           return (zext (Ir.Binop (Ir.Eq, a, b)) 8));
        ]
  in
  let* depth = int_range 1 4 in
  let b = Builder.create "random_expr" in
  let i0 = Builder.input b "i0" 8 in
  let i1 = Builder.input b "i1" 8 in
  let out = Builder.output b "out" 8 in
  let* e = gen_expr [ i0; i1 ] depth in
  Builder.comb b "f" [ out <-- e ];
  return (Builder.finish b)

let prop_random_exprs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"random expr lowering equivalence"
       gen_expr_design (fun design ->
         let nl = Backend.Lower.lower design in
         Result.is_ok (Backend.Equiv.ir_vs_netlist ~cycles:40 design nl)
         && List.for_all
              (fun (mode, lanes) ->
                Nl_oracle.lane0_divergence ~mode ~lanes ~cycles:20 ~seed:3 nl
                = None)
              Nl_oracle.configs))

(* Oracle checks: the analyses must reproduce the reference
   implementations of test/netlist_oracle.ml on the same netlist. *)
module O = Netlist_oracle

let same_cells what (a : N.cell array) (b : N.cell array) =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (c : N.cell) ->
      if c <> b.(i) then Alcotest.failf "%s: cell %d differs" what i)
    a

let check_against_oracle label nl =
  let frozen = N.freeze nl in
  let ref_sched = O.sched nl in
  same_cells (label ^ " order") frozen.comb ref_sched.order;
  same_cells (label ^ " dffs") frozen.dffs ref_sched.dffs;
  Alcotest.(check (array int)) (label ^ " levels") ref_sched.level
    frozen.level;
  Alcotest.(check int) (label ^ " level count") ref_sched.n_levels
    frozen.n_levels;
  Alcotest.(check bool) (label ^ " fanout") true
    (Array.init (N.net_count nl) (fun n ->
         Array.sub frozen.fanout frozen.fanout_start.(n)
           (frozen.fanout_start.(n + 1) - frozen.fanout_start.(n)))
    = ref_sched.fanout);
  Alcotest.(check (array int)) (label ^ " program")
    (O.program ref_sched.order)
    (Backend.Nl_sim.program (Backend.Nl_sim.create nl));
  Array.iteri
    (fun ci (c : N.cell) ->
      Array.iter
        (fun n ->
          if frozen.driver.(n) >= ci then
            Alcotest.failf "%s: cell %d reads net %d driven later" label ci n)
        c.ins;
      if frozen.driver.(c.out) <> ci then
        Alcotest.failf "%s: driver index of net %d" label c.out)
    frozen.comb;
  let readers = Array.make (N.net_count nl) [] in
  for ci = Array.length frozen.comb - 1 downto 0 do
    Array.iter (fun n -> readers.(n) <- ci :: readers.(n)) frozen.comb.(ci).ins
  done;
  Array.iteri
    (fun n r ->
      if
        Array.to_list
          (Array.sub frozen.fanout frozen.fanout_start.(n)
             (frozen.fanout_start.(n + 1) - frozen.fanout_start.(n)))
        <> r
      then Alcotest.failf "%s: fanout of net %d" label n)
    readers;
  let x_order, x_dffs = O.xprop_tables nl in
  same_cells (label ^ " xprop order") frozen.comb x_order;
  same_cells (label ^ " xprop dffs") frozen.dffs x_dffs;
  Alcotest.(check bool) (label ^ " timing report") true
    (Backend.Timing.analyze nl = O.Timing_ref.analyze nl);
  Alcotest.(check bool) (label ^ " timing by module") true
    (Backend.Timing.by_module nl = O.Timing_ref.by_module nl);
  let m = Backend.Techmap.map nl in
  Alcotest.(check (pair int int)) (label ^ " techmap luts and depth")
    (O.Techmap_ref.summary nl)
    (Backend.Techmap.lut_count m, Backend.Techmap.depth m)

let check_cec_against_oracle ?max_nodes label a b =
  let pp = Backend.Cec.pp_verdict in
  let got = Backend.Cec.check ?max_nodes a b
  and want = O.Cec_ref.check ?max_nodes a b in
  if got <> want then
    Alcotest.failf "%s: cec verdict %a, oracle %a" label pp got pp want

let test_oracle_expocu () =
  List.iter
    (fun (label, top) ->
      let raw = Backend.Lower.lower (top ()) in
      let opt = Backend.Opt.optimize raw in
      check_against_oracle (label ^ " raw") raw;
      check_against_oracle (label ^ " opt") opt;
      check_cec_against_oracle (label ^ " raw vs opt") raw opt;
      check_cec_against_oracle ~max_nodes:20_000 (label ^ " raw vs raw") raw
        raw)
    [
      ("osss", fun () -> Expocu.Expocu_top.osss_top ());
      ("conventional", fun () -> Expocu.Expocu_top.rtl_top ());
    ]

let prop_oracle_random_exprs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"oracle random expr netlists"
       QCheck2.Gen.(pair gen_expr_design gen_expr_design)
       (fun (d1, d2) ->
         let a = Backend.Lower.lower d1 and b = Backend.Lower.lower d2 in
         let unfolded = Backend.Lower.lower ~fold:false d1 in
         List.iter
           (fun (label, nl) -> check_against_oracle label nl)
           [
             ("raw", a);
             ("unfolded", unfolded);
             ("opt", Backend.Opt.optimize unfolded);
           ];
         check_cec_against_oracle "self" a (Backend.Opt.optimize unfolded);
         check_cec_against_oracle "pair" a b;
         true))

let suite =
  [
    Alcotest.test_case "builder folding" `Quick test_builder_folding;
    Alcotest.test_case "builder no folding" `Quick test_builder_no_folding;
    Alcotest.test_case "lower+simulate alu" `Quick test_lower_and_simulate_alu;
    Alcotest.test_case "lower counter" `Quick test_lower_counter;
    Alcotest.test_case "random equivalence" `Quick test_equivalence_random;
    Alcotest.test_case "unfolded equivalence" `Quick test_equivalence_unfolded;
    Alcotest.test_case "memory lowering" `Quick test_memory_lowering;
    Alcotest.test_case "barrel shifter" `Quick test_barrel_shifter;
    Alcotest.test_case "signed compares" `Quick test_signed_compare_lowering;
    Alcotest.test_case "timing analysis" `Quick test_timing_analysis;
    Alcotest.test_case "area analysis" `Quick test_area_analysis;
    Alcotest.test_case "optimizer" `Quick test_optimize_removes_dead_logic;
    Alcotest.test_case "power estimation" `Quick test_power_estimation;
    Alcotest.test_case "netlist verilog" `Quick test_netlist_verilog;
    Alcotest.test_case "netlist check" `Quick test_netlist_check_catches_dangling;
    Alcotest.test_case "event-driven matches full eval" `Quick
      test_event_driven_matches_full_eval;
    Alcotest.test_case "netlist loop detection" `Quick
      test_netlist_loop_detection;
    Alcotest.test_case "freeze cache" `Quick test_freeze_cache;
    Alcotest.test_case "label cache" `Quick test_label_cache;
    Alcotest.test_case "oracle expocu netlists" `Quick test_oracle_expocu;
    prop_random_exprs;
    prop_oracle_random_exprs;
  ]

let () = Alcotest.run "backend" [ ("backend", suite) ]
