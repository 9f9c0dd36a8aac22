(* Tests for the HDL IR: typing, evaluation, builder, elaboration, the
   RTL interpreter, and the VHDL/Verilog emitters. *)

open Hdl
open Builder.Dsl

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A small synchronous accumulator used by several tests. *)
let make_accumulator () =
  let b = Builder.create "accumulator" in
  let reset = Builder.input b "reset" 1 in
  let enable = Builder.input b "enable" 1 in
  let data = Builder.input b "data" 8 in
  let total = Builder.output b "total" 8 in
  Builder.sync b "accumulate"
    [
      if_ (v reset)
        [ total <-- c ~width:8 0 ]
        [ when_ (v enable) [ total <-- (v total +: v data) ] ];
    ];
  Builder.finish b

let test_width_inference () =
  let x = Ir.fresh_var ~name:"x" ~width:8 () in
  Alcotest.(check int) "add width" 8 (Ir.width_of (v x +: v x));
  Alcotest.(check int) "cmp width" 1 (Ir.width_of (v x ==: v x));
  Alcotest.(check int) "concat width" 16 (Ir.width_of (concat [ v x; v x ]));
  Alcotest.(check int) "slice width" 4 (Ir.width_of (slice (v x) ~hi:7 ~lo:4));
  Alcotest.(check int) "zext width" 12 (Ir.width_of (zext (v x) 12));
  Alcotest.check_raises "mismatch"
    (Ir.Type_error "binop operand widths 8 vs 4") (fun () ->
      ignore (Ir.width_of (v x +: c ~width:4 0)))

let test_single_driver_check () =
  let b = Builder.create "bad" in
  let _i = Builder.input b "i" 1 in
  let w = Builder.wire b "w" 4 in
  Builder.comb b "p1" [ w <-- c ~width:4 1 ];
  Builder.sync b "p2" [ w <-- c ~width:4 2 ];
  Alcotest.check_raises "double driver"
    (Ir.Type_error "w driven by both comb and sync logic") (fun () ->
      ignore (Builder.finish b))

let test_eval_expr () =
  let env = Eval.create () in
  let x = Ir.fresh_var ~name:"x" ~width:8 () in
  Eval.set env x (Bitvec.of_int ~width:8 200);
  let e = v x +: c ~width:8 100 in
  Alcotest.(check int) "wrapping add" 44 (Bitvec.to_int (Eval.eval_expr env e));
  let m = mux2 (v x >: c ~width:8 100) (c ~width:8 1) (c ~width:8 2) in
  Alcotest.(check int) "mux true" 1 (Bitvec.to_int (Eval.eval_expr env m));
  let shifted = v x <<: c ~width:4 2 in
  Alcotest.(check int) "shl" (200 * 4 land 0xff)
    (Bitvec.to_int (Eval.eval_expr env shifted))

let test_eval_sequential_visibility () =
  let env = Eval.create () in
  let x = Ir.fresh_var ~name:"x" ~width:8 () in
  let y = Ir.fresh_var ~name:"y" ~width:8 () in
  Eval.run_body env [ x <-- c ~width:8 5; y <-- (v x +: v x) ];
  Alcotest.(check int) "sees earlier assign" 10 (Bitvec.to_int (Eval.get env y))

let test_rtl_sim_accumulator () =
  let sim = Rtl_sim.create (make_accumulator ()) in
  Rtl_sim.set_input_int sim "reset" 1;
  Rtl_sim.set_input_int sim "enable" 0;
  Rtl_sim.set_input_int sim "data" 0;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "reset" 0;
  Rtl_sim.set_input_int sim "enable" 1;
  Rtl_sim.set_input_int sim "data" 7;
  Rtl_sim.run sim 3;
  Alcotest.(check int) "3 x 7" 21 (Rtl_sim.get_int sim "total");
  Rtl_sim.set_input_int sim "enable" 0;
  Rtl_sim.run sim 5;
  Alcotest.(check int) "hold" 21 (Rtl_sim.get_int sim "total")

let test_rtl_sim_comb_chain () =
  (* Two chained combinational processes must settle in one call even in
     unfavourable declaration order. *)
  let b = Builder.create "chain" in
  let a = Builder.input b "a" 4 in
  let out = Builder.output b "out" 4 in
  let mid = Builder.wire b "mid" 4 in
  Builder.comb b "second" [ out <-- (v mid +: c ~width:4 1) ];
  Builder.comb b "first" [ mid <-- (v a +: c ~width:4 1) ];
  let sim = Rtl_sim.create (Builder.finish b) in
  Rtl_sim.set_input_int sim "a" 3;
  Rtl_sim.settle sim;
  Alcotest.(check int) "a+2" 5 (Rtl_sim.get_int sim "out")

let test_rtl_sim_memory () =
  let b = Builder.create "mem_test" in
  let we = Builder.input b "we" 1 in
  let waddr = Builder.input b "waddr" 3 in
  let wdata = Builder.input b "wdata" 8 in
  let raddr = Builder.input b "raddr" 3 in
  let rdata = Builder.output b "rdata" 8 in
  let mem = Builder.memory b "mem" ~width:8 ~depth:8 in
  Builder.sync b "write" [ when_ (v we) [ awrite mem (v waddr) (v wdata) ] ];
  Builder.comb b "read" [ rdata <-- aread mem (v raddr) ];
  let sim = Rtl_sim.create (Builder.finish b) in
  Rtl_sim.set_input_int sim "we" 1;
  Rtl_sim.set_input_int sim "waddr" 5;
  Rtl_sim.set_input_int sim "wdata" 0xAB;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "we" 0;
  Rtl_sim.set_input_int sim "raddr" 5;
  Rtl_sim.settle sim;
  Alcotest.(check int) "read back" 0xAB (Rtl_sim.get_int sim "rdata");
  Rtl_sim.set_input_int sim "raddr" 2;
  Rtl_sim.settle sim;
  Alcotest.(check int) "other slot zero" 0 (Rtl_sim.get_int sim "rdata")

let test_case_statement () =
  let b = Builder.create "decoder" in
  let sel = Builder.input b "sel" 2 in
  let out = Builder.output b "out" 4 in
  Builder.comb b "decode"
    [
      case (v sel)
        [ (0, [ out <-- c ~width:4 1 ]); (1, [ out <-- c ~width:4 2 ]);
          (2, [ out <-- c ~width:4 4 ]) ]
        [ out <-- c ~width:4 8 ];
    ];
  let sim = Rtl_sim.create (Builder.finish b) in
  let expect sel value =
    Rtl_sim.set_input_int sim "sel" sel;
    Rtl_sim.settle sim;
    Alcotest.(check int) (Printf.sprintf "sel=%d" sel) value
      (Rtl_sim.get_int sim "out")
  in
  expect 0 1;
  expect 1 2;
  expect 2 4;
  expect 3 8

let make_hierarchical () =
  (* adder leaf instantiated twice: out = (a+b) + (a+b) *)
  let leaf =
    let b = Builder.create "adder_leaf" in
    let x = Builder.input b "x" 8 in
    let y = Builder.input b "y" 8 in
    let s = Builder.output b "s" 8 in
    Builder.comb b "add" [ s <-- (v x +: v y) ];
    Builder.finish b
  in
  let b = Builder.create "top" in
  let a = Builder.input b "a" 8 in
  let c_in = Builder.input b "b" 8 in
  let out = Builder.output b "out" 8 in
  let mid = Builder.wire b "mid" 8 in
  Builder.instantiate b ~name:"u1" leaf [ ("x", a); ("y", c_in); ("s", mid) ];
  Builder.instantiate b ~name:"u2" leaf [ ("x", mid); ("y", mid); ("s", out) ];
  Builder.finish b

let test_elaboration () =
  let top = make_hierarchical () in
  let flat = Elaborate.flatten top in
  Alcotest.(check int) "no instances left" 0 (List.length flat.Ir.instances);
  Alcotest.(check int) "two inlined processes" 2
    (List.length flat.Ir.processes);
  let sim = Rtl_sim.create top in
  Rtl_sim.set_input_int sim "a" 3;
  Rtl_sim.set_input_int sim "b" 4;
  Rtl_sim.settle sim;
  Alcotest.(check int) "2*(a+b)" 14 (Rtl_sim.get_int sim "out")

let test_hierarchy_report () =
  let rows = Elaborate.hierarchy (make_hierarchical ()) in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  match rows with
  | (path, name, depth) :: _ ->
      Alcotest.(check string) "root path" "/top" path;
      Alcotest.(check string) "root name" "top" name;
      Alcotest.(check int) "root depth" 0 depth
  | [] -> Alcotest.fail "empty hierarchy"

let test_module_stats () =
  let stats = Ir.module_stats (make_accumulator ()) in
  Alcotest.(check int) "one process" 1 stats.Ir.n_processes;
  Alcotest.(check int) "state bits" 8 stats.Ir.n_state_bits

let test_verilog_emission () =
  let text = Verilog.emit (make_accumulator ()) in
  Alcotest.(check bool) "module decl" true (contains "module accumulator" text);
  Alcotest.(check bool) "posedge block" true
    (contains "always @(posedge clk)" text);
  Alcotest.(check bool) "ranged output" true (contains "[7:0]" text);
  let hier = Verilog.emit (make_hierarchical ()) in
  Alcotest.(check bool) "leaf emitted once" true
    (contains "module adder_leaf" hier);
  Alcotest.(check bool) "instantiation" true (contains "adder_leaf u1" hier)

let test_vhdl_emission () =
  let text = Vhdl.emit (make_accumulator ()) in
  Alcotest.(check bool) "entity" true (contains "entity accumulator is" text);
  Alcotest.(check bool) "rising edge" true (contains "rising_edge(clk)" text);
  Alcotest.(check bool) "numeric_std" true (contains "use ieee.numeric_std.all" text);
  let hier = Vhdl.emit (make_hierarchical ()) in
  Alcotest.(check bool) "component instantiation" true
    (contains "entity work.adder_leaf" hier)

let test_comb_loop_detection () =
  let b = Builder.create "looped" in
  let _i = Builder.input b "i" 1 in
  let x = Builder.wire b "x" 4 in
  let y = Builder.wire b "y" 4 in
  Builder.comb b "p1" [ x <-- (v y +: c ~width:4 1) ];
  Builder.comb b "p2" [ y <-- (v x +: c ~width:4 1) ];
  let m = Builder.finish b in
  let sim = Rtl_sim.create m in
  (* The static scheduler names both the module and a process on the
     cycle in the diagnostic. *)
  Alcotest.check_raises "loop raises"
    (Rtl_sim.Combinational_loop "looped: combinational cycle through process p1")
    (fun () -> Rtl_sim.settle sim)

let test_comb_self_dependence () =
  (* A process that reads its own write target before assigning it is
     not a combinational loop: sequential body semantics resolve it.
     The scheduler must not reject it, and the default-then-override
     idiom must still evaluate correctly. *)
  let b = Builder.create "self_dep" in
  let a = Builder.input b "a" 4 in
  let out = Builder.output b "out" 4 in
  Builder.comb b "dflt"
    [ out <-- c ~width:4 9; when_ (v a >: c ~width:4 7) [ out <-- v a ] ];
  let sim = Rtl_sim.create (Builder.finish b) in
  Rtl_sim.set_input_int sim "a" 3;
  Rtl_sim.settle sim;
  Alcotest.(check int) "default arm" 9 (Rtl_sim.get_int sim "out");
  Rtl_sim.set_input_int sim "a" 12;
  Rtl_sim.settle sim;
  Alcotest.(check int) "override arm" 12 (Rtl_sim.get_int sim "out")

let test_comb_activity_scheduling () =
  (* Activity-based settling: an acyclic design runs each combinational
     process at most once per settle, and processes whose inputs did not
     change are skipped entirely.  Checked through both the per-instance
     accessors and the global Metrics.Perf counters. *)
  let runs_ctr = Metrics.Perf.counter "rtl_sim.process_runs" in
  let b = Builder.create "activity" in
  let reset = Builder.input b "reset" 1 in
  let enable = Builder.input b "enable" 1 in
  let data = Builder.input b "data" 8 in
  let total = Builder.output b "total" 8 in
  let twice = Builder.output b "twice" 8 in
  let flag = Builder.output b "flag" 1 in
  Builder.sync b "accumulate"
    [
      if_ (v reset)
        [ total <-- c ~width:8 0 ]
        [ when_ (v enable) [ total <-- (v total +: v data) ] ];
    ];
  Builder.comb b "double" [ twice <-- (v total +: v total) ];
  Builder.comb b "compare" [ flag <-- (v twice >: c ~width:8 100) ];
  let sim = Rtl_sim.create (Builder.finish b) in
  let n_combs = 2 in
  Rtl_sim.set_input_int sim "reset" 0;
  Rtl_sim.set_input_int sim "enable" 1;
  Rtl_sim.set_input_int sim "data" 7;
  let perf_before = Metrics.Perf.value runs_ctr in
  Rtl_sim.run sim 10;
  Alcotest.(check int) "total" 70 (Rtl_sim.get_int sim "total");
  Alcotest.(check int) "twice" 140 (Rtl_sim.get_int sim "twice");
  Alcotest.(check int) "flag" 1 (Rtl_sim.get_int sim "flag");
  (* Every settle accounts for every comb process exactly once, as a run
     or a skip — i.e. nothing ran twice in one settle. *)
  Alcotest.(check int) "at most once per settle"
    (n_combs * Rtl_sim.settles sim)
    (Rtl_sim.comb_runs sim + Rtl_sim.comb_skips sim);
  Alcotest.(check int) "global counter tracks instance"
    (Rtl_sim.comb_runs sim)
    (Metrics.Perf.value runs_ctr - perf_before);
  (* Freeze the accumulator: after the first quiescent settle nothing is
     dirty any more, so further settles skip both processes. *)
  Rtl_sim.set_input_int sim "enable" 0;
  Rtl_sim.run sim 1;
  let runs0 = Rtl_sim.comb_runs sim and skips0 = Rtl_sim.comb_skips sim in
  Rtl_sim.run sim 5;
  Alcotest.(check int) "quiescent cycles run nothing" runs0
    (Rtl_sim.comb_runs sim);
  Alcotest.(check int) "quiescent cycles skip everything"
    (skips0 + (5 * 2 * n_combs))
    (Rtl_sim.comb_skips sim);
  Alcotest.(check int) "outputs hold" 140 (Rtl_sim.get_int sim "twice");
  (* On the full ExpoCU, a directed frame start leaves processes
     quiescent in some settles, which the scheduler skips. *)
  let sim = Rtl_sim.create (Expocu.Expocu_top.rtl_top ()) in
  Rtl_sim.set_input_int sim "target_bin" 7;
  Rtl_sim.run sim 15;
  Rtl_sim.set_input_int sim "frame_sync" 1;
  Rtl_sim.run sim 4;
  Rtl_sim.set_input_int sim "line_valid" 1;
  for i = 0 to 31 do
    Rtl_sim.set_input_int sim "pixel" (i * 53 mod 256);
    Rtl_sim.step sim
  done;
  Alcotest.(check bool) "expocu processes skipped" true
    (Rtl_sim.comb_skips sim > 0)

let suite =
  [
    Alcotest.test_case "width inference" `Quick test_width_inference;
    Alcotest.test_case "single driver check" `Quick test_single_driver_check;
    Alcotest.test_case "expression evaluation" `Quick test_eval_expr;
    Alcotest.test_case "sequential visibility" `Quick
      test_eval_sequential_visibility;
    Alcotest.test_case "rtl sim accumulator" `Quick test_rtl_sim_accumulator;
    Alcotest.test_case "comb chain settles" `Quick test_rtl_sim_comb_chain;
    Alcotest.test_case "memory ops" `Quick test_rtl_sim_memory;
    Alcotest.test_case "case statement" `Quick test_case_statement;
    Alcotest.test_case "elaboration" `Quick test_elaboration;
    Alcotest.test_case "hierarchy report" `Quick test_hierarchy_report;
    Alcotest.test_case "module stats" `Quick test_module_stats;
    Alcotest.test_case "verilog emission" `Quick test_verilog_emission;
    Alcotest.test_case "vhdl emission" `Quick test_vhdl_emission;
    Alcotest.test_case "comb loop detection" `Quick test_comb_loop_detection;
    Alcotest.test_case "comb self dependence" `Quick test_comb_self_dependence;
    Alcotest.test_case "comb activity scheduling" `Quick
      test_comb_activity_scheduling;
  ]

let () = Alcotest.run "hdl" [ ("hdl", suite) ]
