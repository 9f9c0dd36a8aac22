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

(* ------------------------------------------------------------------ *)
(* Rtl_sim against the reference interpreter (test/rtl_oracle.ml).     *)

module O = Rtl_oracle

(* One simulator seen through the operations the comparisons need. *)
type sim_ops = {
  set : string -> Bitvec.t -> unit;
  step : unit -> unit;
  get : string -> Bitvec.t;
  peek : Ir.var -> Bitvec.t;
  peek_arr : Ir.var -> Bitvec.t array;
  counters : unit -> int list;  (* settles, comb runs, comb skips, sync runs *)
  activity : unit -> (string * int) list;
  enable_cover : unit -> unit;
  toggles : unit -> (int array * int array) option;  (* rises, falls *)
  enable_events : unit -> unit;
  checkpoint : unit -> unit -> unit;  (* returns the restore *)
}

let toggle_counts t =
  let n = Cover.Toggle.bits t in
  (Array.init n (Cover.Toggle.rises t), Array.init n (Cover.Toggle.falls t))

let oracle_ops d =
  let s = O.create d in
  {
    set = O.set_input s;
    step = (fun () -> O.step s);
    get = O.get s;
    peek = O.peek_var s;
    peek_arr = (fun v -> Array.copy (O.peek_array s v));
    counters =
      (fun () -> [ O.settles s; O.comb_runs s; O.comb_skips s; O.sync_runs s ]);
    activity = (fun () -> O.process_activity s);
    enable_cover = (fun () -> O.enable_toggle_cover s);
    toggles = (fun () -> Option.map toggle_counts (O.toggle_cover s));
    enable_events = (fun () -> O.enable_events s);
    checkpoint =
      (fun () ->
        let ck = O.checkpoint s in
        fun () -> O.restore s ck);
  }

let rtl_ops d =
  let s = Rtl_sim.create d in
  {
    set = Rtl_sim.set_input s;
    step = (fun () -> Rtl_sim.step s);
    get = Rtl_sim.get s;
    peek = Rtl_sim.peek_var s;
    peek_arr = Rtl_sim.peek_array s;
    counters =
      (fun () ->
        [
          Rtl_sim.settles s;
          Rtl_sim.comb_runs s;
          Rtl_sim.comb_skips s;
          Rtl_sim.sync_runs s;
        ]);
    activity = (fun () -> Rtl_sim.process_activity s);
    enable_cover = (fun () -> Rtl_sim.enable_toggle_cover s);
    toggles = (fun () -> Option.map toggle_counts (Rtl_sim.toggle_cover s));
    enable_events = (fun () -> Rtl_sim.enable_events s);
    checkpoint =
      (fun () ->
        let ck = Rtl_sim.checkpoint s in
        fun () -> Rtl_sim.restore s ck);
  }

(* Everything one run shows: a row per cycle (observed values, then the
   four counters), the per-process activity, the toggle counts and the
   event log — or the exception that ended the run. *)
type run_result = {
  rows : string list list;
  activity : (string * int) list;
  toggles : (int array * int array) option;
  events : Obs.Event.t list;
}

let describe_exn = function
  | O.Combinational_loop m | Rtl_sim.Combinational_loop m -> "loop: " ^ m
  | e -> Printexc.to_string e

(* Applies [stim.(k)] then steps, for every cycle k.  With [ck_at] the
   run checkpoints before that cycle, runs to the end, restores and
   replays the rest, so the rows after the restore come twice. *)
let run_ops ops ~observe ~stim ?ck_at ~events () =
  Obs.Event.reset ();
  if events then ops.enable_events ();
  ops.enable_cover ();
  let rows = ref [] in
  let exec k =
    List.iter (fun (name, bv) -> ops.set name bv) stim.(k);
    ops.step ();
    rows := (observe ops @ List.map string_of_int (ops.counters ())) :: !rows
  in
  let n = Array.length stim in
  let result =
    match
      match ck_at with
      | None -> for k = 0 to n - 1 do exec k done
      | Some c ->
          for k = 0 to c - 1 do exec k done;
          let restore = ops.checkpoint () in
          for k = c to n - 1 do exec k done;
          restore ();
          for k = c to n - 1 do exec k done
    with
    | () ->
        Ok
          {
            rows = List.rev !rows;
            activity = ops.activity ();
            toggles = ops.toggles ();
            events = (if events then Obs.Event.events () else []);
          }
    | exception e -> Error (describe_exn e, List.length !rows)
  in
  Obs.Event.disable ();
  Obs.Event.reset ();
  result

(* First difference between two runs, if any. *)
let run_difference a b =
  match (a, b) with
  | Error ea, Error eb -> if ea = eb then None else Some "different failures"
  | Error (e, _), Ok _ -> Some ("oracle failed alone: " ^ e)
  | Ok _, Error (e, _) -> Some ("simulator failed alone: " ^ e)
  | Ok ra, Ok rb ->
      let rec first_row i = function
        | x :: xs, y :: ys ->
            if x = y then first_row (i + 1) (xs, ys)
            else
              Some
                (Printf.sprintf "row %d: oracle [%s], simulator [%s]" i
                   (String.concat " " x) (String.concat " " y))
        | [], [] -> None
        | _ -> Some "row counts differ"
      in
      match first_row 0 (ra.rows, rb.rows) with
      | Some d -> Some d
      | None ->
          if ra.activity <> rb.activity then Some "process activity differs"
          else if ra.toggles <> rb.toggles then Some "toggle counts differ"
          else if List.length ra.events <> List.length rb.events then
            Some
              (Printf.sprintf "event counts %d vs %d" (List.length ra.events)
                 (List.length rb.events))
          else
            List.find_map
              (fun ((x : Obs.Event.t), (y : Obs.Event.t)) ->
                if x = y then None
                else
                  Some
                    (Printf.sprintf
                       "event %d: oracle %s %s=%d cause %d, simulator %s %s=%d \
                        cause %d"
                       x.seq (Obs.Event.kind_name x.kind) x.subject x.value x.cause
                       (Obs.Event.kind_name y.kind) y.subject y.value y.cause))
              (List.combine ra.events rb.events)

let expocu_outputs =
  [ "scl"; "sda_out"; "sda_oe"; "exposure"; "frame_done"; "ack_error"; "median_bin" ]

(* Per-cycle input changes of one ExpoCU frame, as the benchmark drives
   it: 15 reset cycles, 4 frame-sync lead-in cycles, one pixel per
   cycle, then [tail] idle cycles for the scan and the I2C write. *)
let frame_stimulus (d : Ir.module_def) pixels ~tail =
  let bv name n =
    (name, Bitvec.of_int ~width:(Ir.find_port d name).port_var.Ir.width n)
  in
  let np = Array.length pixels in
  Array.init (19 + np + tail) (fun k ->
      if k = 0 then
        List.map
          (fun n -> bv n 0)
          [ "ext_reset"; "sda_in"; "frame_sync"; "line_valid"; "pixel" ]
        @ [ bv "target_bin" 7 ]
      else if k = 15 then [ bv "frame_sync" 1 ]
      else if k = 19 then [ bv "line_valid" 1; bv "pixel" pixels.(0) ]
      else if k > 19 && k < 19 + np then [ bv "pixel" pixels.(k - 19) ]
      else if k = 19 + np then [ bv "line_valid" 0; bv "frame_sync" 0 ]
      else [])

let observe_ports ops = List.map (fun p -> Bitvec.to_string (ops.get p)) expocu_outputs

let expocu_tops =
  [
    ("rtl_top", fun () -> Expocu.Expocu_top.rtl_top ());
    ("osss_top", fun () -> Expocu.Expocu_top.osss_top ());
  ]

let check_same label oracle sim =
  match run_difference oracle sim with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" label d

(* Seeded frames on both ExpoCU tops, long enough for the exposure
   update's I2C write: outputs and counters every cycle, activity and
   toggle counts at the end.  The global Perf counters must move with
   the instance counters. *)
let test_oracle_expocu_frames () =
  let perf () =
    List.map
      (fun name -> Metrics.Perf.value (Metrics.Perf.counter name))
      [ "rtl_sim.settles"; "rtl_sim.process_runs"; "rtl_sim.process_skips"; "rtl_sim.sync_runs" ]
  in
  List.iter
    (fun (top, build) ->
      let d = build () in
      List.iter
        (fun seed ->
          let rng = Random.State.make [| seed |] in
          let pixels = Array.init 96 (fun _ -> Random.State.int rng 256) in
          let stim = frame_stimulus d pixels ~tail:700 in
          let run ops = run_ops ops ~observe:observe_ports ~stim ~events:false () in
          let oracle = run (oracle_ops d) in
          let before = perf () in
          let sim = run (rtl_ops d) in
          let after = perf () in
          check_same (Printf.sprintf "%s seed %d" top seed) oracle sim;
          match oracle with
          | Ok r ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s seed %d: Perf counters" top seed)
                (List.filteri (fun i _ -> i >= 7) (List.nth r.rows (List.length r.rows - 1)))
                (List.map2 (fun a b -> string_of_int (b - a)) before after)
          | Error (e, _) -> Alcotest.failf "%s: oracle failed: %s" top e)
        [ 1; 2; 3 ])
    expocu_tops

(* The causal event log (kinds, subjects, values, causes) and a
   mid-frame checkpoint/restore replay on both tops; the replayed
   cycles must repeat the first pass exactly. *)
let test_oracle_expocu_events_checkpoint () =
  List.iter
    (fun (top, build) ->
      let d = build () in
      let rng = Random.State.make [| 11 |] in
      let pixels = Array.init 48 (fun _ -> Random.State.int rng 256) in
      let stim = frame_stimulus d pixels ~tail:20 in
      let ck_at = 40 in
      Obs.Event.enable ~capacity:400_000 ();
      Obs.Event.disable ();
      let run ops = run_ops ops ~observe:observe_ports ~stim ~ck_at ~events:true () in
      let oracle = run (oracle_ops d) in
      let sim = run (rtl_ops d) in
      check_same top oracle sim;
      match sim with
      | Ok r ->
          Alcotest.(check bool)
            (top ^ ": events recorded") true
            (List.length r.events > 1000);
          let n = Array.length stim in
          let outputs row = List.filteri (fun i _ -> i < 7) row in
          let first = List.filteri (fun i _ -> i >= ck_at && i < n) r.rows in
          let replay = List.filteri (fun i _ -> i >= n) r.rows in
          Alcotest.(check (list (list string)))
            (top ^ ": replay repeats the first pass")
            (List.map outputs first) (List.map outputs replay)
      | Error (e, _) -> Alcotest.failf "%s failed: %s" top e)
    expocu_tops;
  Obs.Event.enable ~capacity:16384 ();
  Obs.Event.disable ()

(* Random designs for the property: a fixed pool of vars on both sides
   of the 62-bit boundary, with random process bodies over them. *)
let rd_var (name, width) = Ir.fresh_var ~name ~width ()
let rd_inputs =
  List.map rd_var [ ("i0", 1); ("i1", 7); ("i2", 33); ("i3", 62); ("i4", 63); ("i5", 96) ]

let rd_regs = List.map rd_var [ ("r0", 4); ("r1", 40); ("r2", 62); ("r3", 64); ("r4", 130) ]
let rd_wires = List.map rd_var [ ("w0", 6); ("w1", 62); ("w2", 75); ("w3", 1) ]
let rd_selfs = List.map rd_var [ ("s0", 9); ("s1", 70) ]

let rd_mems =
  [
    Ir.fresh_var ~depth:5 ~name:"m0" ~width:8 ();
    Ir.fresh_var ~depth:3 ~name:"m1" ~width:70 ();
  ]

let gen_const w =
  let open QCheck2.Gen in
  oneof
    [
      return (Bitvec.zero w);
      return (Bitvec.ones w);
      map (fun n -> Bitvec.of_int ~width:w n) (int_range 0 9);
      map3
        (fun a b c ->
          let words = [| a; b; c |] in
          Bitvec.init w (fun i -> (words.(i / 50 mod 3) lsr (i mod 50)) land 1 = 1))
        int int int;
    ]

let gen_width =
  QCheck2.Gen.(oneof [ int_range 1 62; int_range 63 130; oneofl [ 1; 2; 8; 62; 63; 64 ] ])

(* An expression of width [w] over [readable]; a few nodes are outside
   the type rules on purpose (compares of unequal widths, multi-bit
   selects), where the simulator must follow the reference evaluator. *)
let rec gen_expr readable w depth =
  let open QCheck2.Gen in
  let fit e we = if we = w then return e else map (fun s -> Ir.Resize (s, e, w)) bool in
  let leaf =
    oneof
      [
        map (fun c -> Ir.Const c) (gen_const w);
        (let* x = oneofl readable in
         fit (Ir.Var x) x.Ir.width);
      ]
  in
  if depth = 0 then leaf
  else
    let sub w' = gen_expr readable w' (depth - 1) in
    let same = sub w in
    frequency
      ([
         (2, leaf);
         ( 3,
           let* op = oneofl Ir.[ Add; Sub; Mul; And; Or; Xor ]
           and* a = same
           and* b = same in
           return (Ir.Binop (op, a, b)) );
         ( 1,
           let* op = oneofl Ir.[ Not; Neg ] and* a = same in
           return (Ir.Unop (op, a)) );
         ( 2,
           let* ws = gen_width in
           let* op = oneofl Ir.[ Eq; Ne; Ult; Ule; Slt; Sle ]
           and* a = sub ws
           and* b = sub ws in
           fit (Ir.Binop (op, a, b)) 1 );
         ( 1,
           let* wa = gen_width and* wb = gen_width in
           let* op = oneofl Ir.[ Eq; Ne ] and* a = sub wa and* b = sub wb in
           fit (Ir.Binop (op, a, b)) 1 );
         ( 1,
           let* ws = gen_width in
           let* op = oneofl Ir.[ Reduce_and; Reduce_or; Reduce_xor ] and* a = sub ws in
           fit (Ir.Unop (op, a)) 1 );
         ( 2,
           let* wb = gen_width in
           let* op = oneofl Ir.[ Shl; Lshr; Ashr ]
           and* a = same
           and* b =
             oneof
               [
                 sub wb;
                 map (fun n -> Ir.Const (Bitvec.of_int ~width:8 n)) (int_range 0 140);
               ]
           in
           return (Ir.Binop (op, a, b)) );
         ( 2,
           let* sw = oneofl [ 1; 1; 1; 3 ] in
           let* s = sub sw and* a = same and* b = same in
           return (Ir.Mux (s, a, b)) );
         ( 1,
           let* extra = int_range 0 70 in
           let* lo = int_range 0 extra and* e = sub (w + extra) in
           return (Ir.Slice (e, lo + w - 1, lo)) );
         ( 1,
           let* ws = gen_width and* signed = bool in
           let* e = sub ws in
           return (Ir.Resize (signed, e, w)) );
         ( 1,
           let* m = oneofl rd_mems
           and* wi = frequency [ (15, oneofl [ 2; 3; 4; 12 ]); (1, return 64) ] in
           let* i = sub wi in
           fit (Ir.Array_read (m, i)) m.Ir.width );
       ]
      @
      if w >= 2 then
        [
          ( 1,
            let* wa = int_range 1 (w - 1) in
            let* a = sub wa and* b = sub (w - wa) in
            return (Ir.Concat (a, b)) );
        ]
      else [])

(* A statement writing only [writable] (and the memories when [sync]);
   [Case] labels repeat and some have the wrong width. *)
let rec gen_stmt readable writable ~sync depth =
  let open QCheck2.Gen in
  frequency
    ([
       ( 4,
         let* x = oneofl writable in
         let* e = gen_expr readable x.Ir.width 3 in
         return (Ir.Assign (x, e)) );
       ( 2,
         let* x = oneofl writable in
         let* k = int_range 1 x.Ir.width in
         let* lo = int_range 0 (x.Ir.width - k) in
         let* e = gen_expr readable k 2 in
         return (Ir.Assign_slice (x, lo, e)) );
     ]
    @ (if sync then
         [
           ( 2,
             let* m = oneofl rd_mems and* wi = oneofl [ 2; 3; 4; 12 ] in
             let* i = gen_expr readable wi 1 and* e = gen_expr readable m.Ir.width 2 in
             return (Ir.Array_write (m, i, e)) );
         ]
       else [])
    @
    if depth <= 0 then []
    else
      let body =
        list_size (int_range 0 3) (gen_stmt readable writable ~sync (depth - 1))
      in
      [
        ( 2,
          let* cw = oneofl [ 1; 1; 2 ] in
          let* c = gen_expr readable cw 2 and* t = body and* e = body in
          return (Ir.If (c, t, e)) );
        ( 2,
          let* ws = oneofl [ 2; 3; 5; 64 ] in
          let* s = gen_expr readable ws 2
          and* arms =
            list_size (int_range 1 4)
              (let* lw = frequency [ (5, return ws); (1, return (ws + 1)) ]
               and* n = int_range 0 4
               and* b = body in
               return (Bitvec.of_int ~width:lw n, b))
          and* dflt = body in
          return (Ir.Case (s, arms, dflt)) );
      ])

let gen_body readable writable ~sync =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 4) (gen_stmt readable writable ~sync 2)

(* Comb process k writes wire k from the inputs, the registers and the
   wires before it, so there is no cross-process cycle; one more comb
   process reads s0 before writing it (a self-reading process).  Two
   sync processes share the registers and write the memories. *)
let gen_random_design =
  let open QCheck2.Gen in
  let base = rd_inputs @ rd_regs in
  let combs =
    List.mapi
      (fun k w ->
        let readable = base @ List.filteri (fun j _ -> j < k) rd_wires in
        map
          (fun body -> Ir.Comb { proc_name = Printf.sprintf "c%d" k; body })
          (gen_body readable [ w ] ~sync:false))
      rd_wires
  in
  let s0 = List.nth rd_selfs 0 and s1 = List.nth rd_selfs 1 in
  let self =
    let readable = base @ rd_wires in
    let* first = gen_expr (s0 :: readable) s1.Ir.width 2
    and* second = gen_expr readable s0.Ir.width 2
    and* rest = list_size (int_range 0 2) (gen_stmt readable [ s0; s1 ] ~sync:false 1) in
    let body = Ir.Assign (s1, first) :: Ir.Assign (s0, second) :: rest in
    return (Ir.Comb { proc_name = "self"; body })
  in
  let everything = base @ rd_wires @ rd_selfs in
  let sync name regs =
    map
      (fun body -> Ir.Sync { proc_name = name; body })
      (gen_body everything regs ~sync:true)
  in
  let* combs = flatten_l (self :: combs)
  and* syncs =
    flatten_l
      [
        sync "sa" (List.filteri (fun i _ -> i < 3) rd_regs);
        sync "sb" (List.filteri (fun i _ -> i >= 3) rd_regs);
      ]
  in
  let* processes = shuffle_l (combs @ syncs) in
  return
    {
      Ir.mod_name = "random_design";
      ports =
        List.map
          (fun v -> { Ir.port_name = v.Ir.var_name; dir = Ir.Input; port_var = v })
          rd_inputs;
      locals = rd_regs @ rd_wires @ rd_selfs @ rd_mems;
      processes;
      instances = [];
    }

let observe_all ops =
  List.map (fun v -> Bitvec.to_string (ops.peek v)) (rd_inputs @ rd_regs @ rd_wires @ rd_selfs)
  @ List.concat_map
      (fun m -> List.map Bitvec.to_string (Array.to_list (ops.peek_arr m)))
      rd_mems

let random_stimulus seed =
  let rng = Random.State.make [| seed |] in
  Array.init 10 (fun _ ->
      List.filter_map
        (fun (v : Ir.var) ->
          match Random.State.int rng 4 with
          | 0 -> None
          | 1 -> Some (v.Ir.var_name, Bitvec.zero v.Ir.width)
          | 2 -> Some (v.Ir.var_name, Bitvec.ones v.Ir.width)
          | _ ->
              Some (v.Ir.var_name, Bitvec.init v.Ir.width (fun _ -> Random.State.bool rng)))
        rd_inputs)

let prop_random_designs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"oracle random designs"
       ~print:(fun (d, seed) -> Format.asprintf "seed %d@.%a" seed Ir.pp_module d)
       QCheck2.Gen.(pair gen_random_design (int_range 0 1_000_000))
       (fun (d, seed) ->
         let stim = random_stimulus seed in
         (* From cycle 0 the checkpoint holds the first, full settle. *)
         let run ops =
           run_ops ops ~observe:observe_all ~stim ~ck_at:(seed mod 5) ~events:true ()
         in
         let oracle = run (oracle_ops d) in
         let sim = run (rtl_ops d) in
         match run_difference oracle sim with
         | None -> true
         | Some diff -> QCheck2.Test.fail_report diff))

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
    Alcotest.test_case "oracle expocu frames" `Quick test_oracle_expocu_frames;
    Alcotest.test_case "oracle expocu events and checkpoint" `Quick
      test_oracle_expocu_events_checkpoint;
    prop_random_designs;
  ]

let () = Alcotest.run "hdl" [ ("hdl", suite) ]
