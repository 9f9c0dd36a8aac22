(* Tests for the SystemC-like simulation kernel: delta cycles, signals,
   clocks, clocked threads with reset restart, async threads, VCD. *)

module K = Sim.Kernel
module S = Sim.Signal
module C = Sim.Clock
module P = Sim.Process

let test_signal_update_phase () =
  let k = K.create () in
  let s = S.create k ~name:"s" 0 in
  let observed_during_eval = ref (-1) in
  K.add_startup k (fun () ->
      S.write s 7;
      (* Write is not visible until the update phase. *)
      observed_during_eval := S.read s);
  K.run_for k 10;
  Alcotest.(check int) "read before update" 0 !observed_during_eval;
  Alcotest.(check int) "read after update" 7 (S.read s)

let test_change_notification () =
  let k = K.create () in
  let s = S.create k ~name:"s" 0 in
  let fires = ref 0 in
  K.subscribe_static (S.changed_event s) (fun () -> incr fires);
  K.add_startup k (fun () -> S.write s 1);
  K.schedule_at k 5 (fun () -> S.write s 1);
  (* same value: no change *)
  K.schedule_at k 9 (fun () -> S.write s 2);
  K.run_for k 20;
  Alcotest.(check int) "changes fired" 2 !fires

let test_clock_edges () =
  let k = K.create () in
  let clk = C.create k ~period_ps:10 () in
  let pos = ref 0 and neg = ref 0 in
  K.subscribe_static (C.posedge clk) (fun () -> incr pos);
  K.subscribe_static (C.negedge clk) (fun () -> incr neg);
  K.run_until k 100;
  (* Edges at 5,10,15,...,100: rising at 5,15,...,95 -> 10 each. *)
  Alcotest.(check int) "posedges" 10 !pos;
  Alcotest.(check int) "negedges" 10 !neg

let test_cthread_counts_cycles () =
  let k = K.create () in
  let clk = C.create k ~period_ps:10 () in
  let count = ref 0 in
  let _t =
    P.cthread k ~name:"counter" ~clock:clk (fun ctx ->
        let rec loop () =
          P.wait ctx;
          incr count;
          loop ()
        in
        loop ())
  in
  K.run_until k 102;
  (* rising edges at 5, 15, ..., 95 *)
  Alcotest.(check int) "one increment per rising edge" 10 !count

let test_cthread_reset_restart () =
  let k = K.create () in
  let clk = C.create k ~period_ps:10 () in
  let reset = S.create k ~name:"reset" true in
  let resets_seen = ref 0 and work = ref 0 in
  let th =
    P.cthread k ~name:"worker" ~clock:clk ~reset (fun ctx ->
        incr resets_seen;
        (* reset prologue, as in the paper's Figure 5 *)
        P.wait ctx;
        let rec loop () =
          incr work;
          P.wait ctx;
          loop ()
        in
        loop ())
  in
  (* Hold reset for 3 rising edges, then release. *)
  K.schedule_at k 32 (fun () -> S.write reset false);
  K.run_until k 100;
  Alcotest.(check bool) "restarted at least twice" true (!resets_seen >= 3);
  Alcotest.(check bool) "worked after release" true (!work > 0);
  Alcotest.(check int) "thread restart count matches" (!resets_seen - 1)
    (P.restarts th)

let test_wait_n_and_until () =
  let k = K.create () in
  let clk = C.create k ~period_ps:10 () in
  let flag = S.create k ~name:"flag" false in
  let t_wait3 = ref 0 and t_until = ref 0 in
  let _a =
    P.cthread k ~name:"wait3" ~clock:clk (fun ctx ->
        P.wait_n ctx 3;
        t_wait3 := K.now k)
  in
  let _b =
    P.cthread k ~name:"until" ~clock:clk (fun ctx ->
        P.wait_until ctx (fun () -> S.read flag);
        t_until := K.now k)
  in
  K.schedule_at k 41 (fun () -> S.write flag true);
  K.run_until k 200;
  (* Rising edges at 5,15,25: third edge at 25ps. *)
  Alcotest.(check int) "wait_n 3 edges" 25 !t_wait3;
  (* flag set at 41ps commits at 41; first edge observing it is 45. *)
  Alcotest.(check int) "wait_until sees flag" 45 !t_until

let test_method_sensitivity () =
  let k = K.create () in
  let a = S.create k ~name:"a" 0 and b = S.create k ~name:"b" 0 in
  let sum = S.create k ~name:"sum" 0 in
  let _m =
    P.method_ k ~name:"adder"
      ~sensitive:[ S.changed_event a; S.changed_event b ]
      (fun () -> S.write sum (S.read a + S.read b))
  in
  K.add_startup k (fun () -> S.write a 2);
  K.schedule_at k 10 (fun () -> S.write b 40);
  K.run_until k 20;
  Alcotest.(check int) "combinational result" 42 (S.read sum)

let test_async_thread () =
  let k = K.create () in
  let ev = K.make_event k "go" in
  let log = ref [] in
  let _t =
    P.thread k ~name:"tb" (fun ctx ->
        P.delay ctx 15;
        log := ("after delay", K.now k) :: !log;
        P.await_event ctx ev;
        log := ("after event", K.now k) :: !log)
  in
  K.schedule_at k 40 (fun () -> K.notify ev);
  K.run_until k 100;
  Alcotest.(check (list (pair string int)))
    "thread timeline"
    [ ("after event", 40); ("after delay", 15) ]
    !log

let test_stop () =
  let k = K.create () in
  let clk = C.create k ~period_ps:10 () in
  let count = ref 0 in
  let _t =
    P.cthread k ~name:"c" ~clock:clk (fun ctx ->
        let rec loop () =
          P.wait ctx;
          incr count;
          if !count = 3 then K.stop k;
          loop ()
        in
        loop ())
  in
  K.run_until k 10_000;
  Alcotest.(check int) "stopped at 3" 3 !count;
  Alcotest.(check bool) "time did not run away" true (K.now k < 100)

let test_thread_termination () =
  let k = K.create () in
  let clk = C.create k ~period_ps:10 () in
  let t =
    P.cthread k ~name:"finite" ~clock:clk (fun ctx ->
        P.wait ctx;
        P.wait ctx)
  in
  K.run_until k 200;
  Alcotest.(check bool) "terminated" true (P.terminated t)

(* A kernel-level model traced through its engine adapter: the clock
   and a 4-bit data signal become the engine's two output ports, each
   sampled into the consolidated VCD once per cycle. *)
let test_vcd_output () =
  let k = K.create () in
  let clk = C.create k ~period_ps:10 () in
  let data = S.create k ~name:"data" (Bitvec.of_int ~width:4 0) in
  let t = Sim.Kernel_engine.create k ~step:(fun () -> K.run_for k 10) () in
  Sim.Kernel_engine.bool_output_signal t (C.signal clk);
  Sim.Kernel_engine.output_signal t ~width:4 data;
  let e = Sim.Kernel_engine.engine ~label:"tb" t in
  let vcd = Engine.Trace.create ~top:"tb" [ e ] in
  K.schedule_at k 12 (fun () -> S.write data (Bitvec.of_int ~width:4 9));
  Engine.Trace.sample vcd;
  for _ = 1 to 4 do
    Engine.step e;
    Engine.Trace.sample vcd
  done;
  let doc = Engine.Trace.contents vcd in
  Alcotest.(check int) "two signals" 2 (Engine.Trace.signal_count vcd);
  Alcotest.(check bool) "header" true
    (String.length doc > 0
    && String.sub doc 0 5 = "$date");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "var decl for data" true
    (contains "$var wire 4" doc);
  Alcotest.(check bool) "value change to 9" true (contains "b1001" doc)

let test_notify_after () =
  let k = K.create () in
  let ev = K.make_event k "timed" in
  let fired_at = ref (-1) in
  K.subscribe_static ev (fun () -> fired_at := K.now k);
  K.add_startup k (fun () -> K.notify_after ev 37);
  K.run_until k 100;
  Alcotest.(check int) "timed notification" 37 !fired_at

let test_subscribe_once_consumed () =
  let k = K.create () in
  let ev = K.make_event k "once" in
  let count = ref 0 in
  K.subscribe_once ev (fun () -> incr count);
  K.add_startup k (fun () -> K.notify ev);
  K.schedule_at k 10 (fun () -> K.notify ev);
  K.run_until k 50;
  Alcotest.(check int) "fired exactly once" 1 !count

let test_run_for_advances_relative () =
  let k = K.create () in
  K.schedule_at k 5 (fun () -> ());
  K.run_for k 20;
  Alcotest.(check int) "now = 20" 20 (K.now k);
  K.run_for k 15;
  Alcotest.(check int) "now = 35" 35 (K.now k)

let test_clock_of_freq () =
  let k = K.create () in
  let clk = C.of_freq_mhz k 66.0 in
  (* 66 MHz = 15151 ps period (rounded) *)
  Alcotest.(check bool) "period close to 15.15 ns" true
    (abs (C.period_ps clk - 15151) <= 1);
  K.run_until k 1_000_000;
  Alcotest.(check int) "cycles elapsed" (1_000_000 / C.period_ps clk)
    (C.cycles_elapsed clk k)

let test_timed_queue_insertion_order () =
  (* Events scheduled for the same instant must fire in insertion order,
     including across the timed queue's internal heap growth (the
     initial capacity is 64; schedule several hundred).  Also mixes in
     later-time events posted first, which must not jump the queue. *)
  let k = K.create () in
  let n = 300 in
  let log = ref [] in
  K.schedule_at k 20 (fun () -> log := (-1) :: !log);
  for i = 0 to n - 1 do
    K.schedule_at k 10 (fun () -> log := i :: !log)
  done;
  K.run_until k 50;
  let fired = List.rev !log in
  Alcotest.(check int) "all fired" (n + 1) (List.length fired);
  Alcotest.(check (list int)) "same-time events in insertion order"
    (List.init n (fun i -> i))
    (List.filteri (fun idx _ -> idx < n) fired);
  Alcotest.(check int) "later time fires last" (-1) (List.nth fired n)

let test_timed_queue_heavy_use () =
  (* Create-then-heavy-use: a fresh kernel fed far more timed events
     than the queue's initial capacity, at descending times, must still
     release them in time order. *)
  let k = K.create () in
  let order = ref [] in
  for i = 999 downto 0 do
    K.schedule_at k (i + 1) (fun () -> order := K.now k :: !order)
  done;
  K.run_until k 2_000;
  let fired = List.rev !order in
  Alcotest.(check int) "all fired" 1000 (List.length fired);
  Alcotest.(check (list int)) "time order" (List.init 1000 (fun i -> i + 1))
    fired

let test_delta_determinism () =
  (* Two runs of the same stochastic-free model must agree exactly. *)
  let run () =
    let k = K.create () in
    let clk = C.create k ~period_ps:14 () in
    let x = S.create k ~name:"x" 0 in
    let _t =
      P.cthread k ~name:"t" ~clock:clk (fun ctx ->
          let rec loop () =
            P.wait ctx;
            S.write x (S.read x + 3);
            loop ()
          in
          loop ())
    in
    K.run_until k 1000;
    (S.read x, K.delta_count k, K.process_runs k)
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "deterministic" a b

let suite =
  [
    Alcotest.test_case "signal update phase" `Quick test_signal_update_phase;
    Alcotest.test_case "change notification" `Quick test_change_notification;
    Alcotest.test_case "clock edges" `Quick test_clock_edges;
    Alcotest.test_case "cthread counts cycles" `Quick test_cthread_counts_cycles;
    Alcotest.test_case "cthread reset restart" `Quick test_cthread_reset_restart;
    Alcotest.test_case "wait_n and wait_until" `Quick test_wait_n_and_until;
    Alcotest.test_case "method sensitivity" `Quick test_method_sensitivity;
    Alcotest.test_case "async thread" `Quick test_async_thread;
    Alcotest.test_case "kernel stop" `Quick test_stop;
    Alcotest.test_case "thread termination" `Quick test_thread_termination;
    Alcotest.test_case "vcd output" `Quick test_vcd_output;
    Alcotest.test_case "notify after" `Quick test_notify_after;
    Alcotest.test_case "subscribe once" `Quick test_subscribe_once_consumed;
    Alcotest.test_case "run_for relative" `Quick test_run_for_advances_relative;
    Alcotest.test_case "clock of freq" `Quick test_clock_of_freq;
    Alcotest.test_case "timed queue insertion order" `Quick
      test_timed_queue_insertion_order;
    Alcotest.test_case "timed queue heavy use" `Quick
      test_timed_queue_heavy_use;
    Alcotest.test_case "determinism" `Quick test_delta_determinism;
  ]

let () = Alcotest.run "sim" [ ("sim", suite) ]
