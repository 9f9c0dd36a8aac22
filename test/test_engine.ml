(* Tests for the unified engine abstraction: adapters at all three
   simulation levels, the consolidated trace, and the N-way lockstep
   differential harness with its failure paths (fault localization,
   window shrinking, stimulus override, VCD dump). *)

open Hdl
open Builder.Dsl
module N = Backend.Netlist
module E = Backend.Equiv

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* An 8-bit accumulator: y <= y + x every cycle. *)
let acc_design () =
  let b = Builder.create "acc" in
  let x = Builder.input b "x" 8 in
  let y = Builder.output b "y" 8 in
  Builder.sync b "accumulate" [ y <-- (v y +: v x) ];
  Builder.finish b

(* The same accumulator as an untimed behavioural model on the
   discrete-event kernel. *)
let behavioural_acc ?label () =
  let k = Sim.Kernel.create () in
  let xr = ref (Bitvec.zero 8) in
  let acc = ref (Bitvec.zero 8) in
  let t =
    Sim.Kernel_engine.create k
      ~step:(fun () ->
        acc := Bitvec.add !acc !xr;
        Sim.Kernel.run_for k 10)
      ()
  in
  Sim.Kernel_engine.add_input t "x" ~width:8 (fun bv -> xr := bv);
  Sim.Kernel_engine.add_output t "y" ~width:8 (fun () -> !acc);
  Sim.Kernel_engine.engine ?label t

let test_engine_interface () =
  let e = Rtl_engine.create (acc_design ()) in
  Alcotest.(check string) "kind" "rtl-interp" (Engine.kind e);
  Alcotest.(check (list (pair string int))) "inputs" [ ("x", 8) ]
    (Engine.inputs e);
  Alcotest.(check (list (pair string int))) "outputs" [ ("y", 8) ]
    (Engine.outputs e);
  Engine.set_input_int e "x" 5;
  Engine.step e;
  Engine.step e;
  Alcotest.(check int) "accumulated" 10 (Engine.get_int e "y");
  Alcotest.(check int) "cycles" 2 (Engine.cycles e);
  Alcotest.(check bool) "has stats" true (Engine.stats e <> [])

let test_adapter_kinds () =
  let design = acc_design () in
  let nl = Backend.Lower.lower design in
  Alcotest.(check string) "event kind" "netlist-event"
    (Engine.kind (Backend.Nl_engine.create nl));
  Alcotest.(check string) "full kind" "netlist-full"
    (Engine.kind (Backend.Nl_engine.create ~mode:Backend.Nl_sim.Full_eval nl));
  Alcotest.(check string) "behavioural kind" "behavioural"
    (Engine.kind (behavioural_acc ()));
  (* a netlist engine echoes driven inputs, so it is fully traceable *)
  let e = Backend.Nl_engine.create nl in
  Engine.set_input_int e "x" 42;
  Alcotest.(check int) "input echo" 42 (Engine.get_int e "x")

let check_lockstep ~cycles factories =
  match E.differential ~cycles factories with
  | Ok n -> Alcotest.(check int) "cycles compared" cycles n
  | Error d -> Alcotest.failf "%a" E.pp_divergence d

(* The ExpoCU at RTL against its gate netlist under every scheduling:
   event-driven, full evaluation and 8 word-parallel lanes under
   broadcast stimulus (Engine.get reads the golden lane 0). *)
let expocu_netlist = lazy (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))

let expocu_factories () =
  let nl = Lazy.force expocu_netlist in
  [
    (fun () ->
      Rtl_engine.create ~label:"rtl:expocu" (Expocu.Expocu_top.rtl_top ()));
    (fun () ->
      Backend.Nl_engine.create ~label:"gates:event"
        ~mode:Backend.Nl_sim.Event_driven nl);
    (fun () ->
      Backend.Nl_engine.create ~label:"gates:full"
        ~mode:Backend.Nl_sim.Full_eval nl);
    (fun () -> Backend.Nl_engine.create ~label:"gates:word" ~lanes:8 nl);
  ]

let test_three_level_lockstep () =
  let design = acc_design () in
  let nl = Backend.Opt.optimize (Backend.Lower.lower design) in
  check_lockstep ~cycles:300
    [
      (fun () -> behavioural_acc ~label:"beh:acc" ());
      (fun () -> Rtl_engine.create ~label:"rtl:acc" design);
      (fun () -> Backend.Nl_engine.create ~label:"gates:acc" nl);
    ];
  check_lockstep ~cycles:200 (expocu_factories ())

let test_fault_injection_shrinks () =
  let design = acc_design () in
  let factories =
    [
      (fun () -> Rtl_engine.create ~label:"ref" design);
      (fun () ->
        Engine.inject_fault ~from_cycle:25 ~port:"y"
          (Rtl_engine.create ~label:"faulty" design));
    ]
  in
  (match E.differential ~cycles:200 factories with
  | Ok _ -> Alcotest.fail "seeded fault not detected"
  | Error d ->
      Alcotest.(check string) "port" "y" d.E.first.E.port;
      (* the fault arms once the faulty engine has stepped 25 times *)
      Alcotest.(check int) "cycle" 24 d.E.first.E.at_cycle;
      Alcotest.(check bool) "faulty engine named" true
        (contains "faulty" d.E.first.E.got_engine);
      (* minimal: any shorter replay never arms the cycle-count fault *)
      Alcotest.(check int) "shrunk window" 25 (Array.length d.E.window);
      (match d.E.replay with
      | Some m -> Alcotest.(check string) "replay port" "y" m.E.port
      | None -> Alcotest.fail "reproducer window does not replay"));
  (* A fault armed from cycle 0 on an ExpoCU gate engine, next to the
     clean engines at every level, shrinks to a one-cycle window. *)
  match
    E.differential ~cycles:200
      (expocu_factories ()
      @ [
          (fun () ->
            Engine.inject_fault ~port:"frame_done"
              (Backend.Nl_engine.create ~label:"gates:seeded-fault"
                 (Lazy.force expocu_netlist)));
        ])
  with
  | Ok _ -> Alcotest.fail "seeded expocu fault not detected"
  | Error d ->
      Alcotest.(check string) "expocu port" "frame_done" d.E.first.E.port;
      Alcotest.(check int) "expocu window shrunk to one cycle" 1
        (Array.length d.E.window)

(* y = a AND b, and a hand-corrupted netlist computing OR instead. *)
let and_design () =
  let b = Builder.create "andgate" in
  let a = Builder.input b "a" 1 in
  let bb = Builder.input b "b" 1 in
  let y = Builder.output b "y" 1 in
  Builder.comb b "gate" [ y <-- (v a &: v bb) ];
  Builder.finish b

let corrupted_netlist () =
  let nl = N.create ~name:"andgate_corrupt" () in
  let a = N.add_input nl "a" 1 in
  let b = N.add_input nl "b" 1 in
  N.add_output nl "y" [| N.or2 nl a.(0) b.(0) |];
  nl

(* Directed stimulus makes the corruption visible exactly once, so the
   report's cycle and port are fully predictable, and the window must
   shrink to that single cycle. *)
let test_corrupted_netlist_localized () =
  let drive cycle (name, _) =
    Bitvec.of_int ~width:1
      (match name with "a" -> 1 | _ -> if cycle = 5 then 0 else 1)
  in
  match
    E.differential ~cycles:50 ~drive ~dump_vcd:true
      [
        (fun () -> Rtl_engine.create ~label:"rtl:and" (and_design ()));
        (fun () -> Backend.Nl_engine.create ~label:"gates:or" (corrupted_netlist ()));
      ]
  with
  | Ok _ -> Alcotest.fail "corrupted netlist not detected"
  | Error d ->
      Alcotest.(check int) "divergence cycle" 5 d.E.first.E.at_cycle;
      Alcotest.(check string) "divergence port" "y" d.E.first.E.port;
      Alcotest.(check int) "expected (and)" 0 (Bitvec.to_int d.E.first.E.expected);
      Alcotest.(check int) "got (or)" 1 (Bitvec.to_int d.E.first.E.got);
      Alcotest.(check string) "diverging engine" "gates:or"
        d.E.first.E.got_engine;
      Alcotest.(check int) "window shrunk to one cycle" 1
        (Array.length d.E.window);
      Alcotest.(check int) "window carries driving inputs" 0
        (Bitvec.to_int (List.assoc "b" d.E.window.(0)));
      (match d.E.vcd with
      | Some text ->
          Alcotest.(check bool) "vcd has var decls" true
            (contains "$var" text);
          Alcotest.(check bool) "vcd scoped per engine" true
            (contains "gates:or" text)
      | None -> Alcotest.fail "vcd dump missing")

(* With the override holding both inputs high, AND and OR agree, so the
   corrupted netlist must NOT be flagged — proving the random stimulus
   is really replaced by the callback. *)
let test_drive_override_honored () =
  let drive _ (_, _) = Bitvec.of_int ~width:1 1 in
  match
    E.differential ~cycles:100 ~drive
      [
        (fun () -> Rtl_engine.create (and_design ()));
        (fun () -> Backend.Nl_engine.create (corrupted_netlist ()));
      ]
  with
  | Ok n -> Alcotest.(check int) "no divergence under override" 100 n
  | Error d -> Alcotest.failf "override ignored: %a" E.pp_divergence d

let test_consolidated_trace () =
  let design = acc_design () in
  let e1 = Rtl_engine.create ~label:"rtl" design in
  let e2 = Backend.Nl_engine.create ~label:"gates" (Backend.Lower.lower design) in
  let tr = Engine.Trace.create [ e1; e2 ] in
  Alcotest.(check int) "every port of every engine" 4
    (Engine.Trace.signal_count tr);
  Engine.Trace.sample tr;
  List.iter
    (fun e ->
      Engine.set_input_int e "x" 3;
      Engine.step e)
    [ e1; e2 ];
  Engine.Trace.sample tr;
  let text = Engine.Trace.contents tr in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle text))
    [ "$var"; "$scope"; "rtl"; "gates"; "$enddefinitions" ]

let test_inject_fault_unknown_port () =
  let e = Rtl_engine.create (acc_design ()) in
  Alcotest.check_raises "unknown port rejected"
    (Invalid_argument "Engine.inject_fault: no output port nope")
    (fun () -> ignore (Engine.inject_fault ~port:"nope" e))

(* Driving a name that is not an input, or a value of the wrong width,
   fails the same way on the RTL and the gate engine. *)
let test_set_input_errors () =
  let design = acc_design () in
  List.iter
    (fun e ->
      let kind = Engine.kind e in
      Alcotest.check_raises (kind ^ ": output port") Not_found (fun () ->
          Engine.set_input e "y" (Bitvec.zero 8));
      Alcotest.check_raises (kind ^ ": unknown port") Not_found (fun () ->
          Engine.set_input e "nope" (Bitvec.zero 8));
      match Engine.set_input e "x" (Bitvec.zero 4) with
      | () -> Alcotest.failf "%s: width mismatch accepted" kind
      | exception Invalid_argument _ -> ())
    [ Rtl_engine.create design; Backend.Nl_engine.create (Backend.Lower.lower design) ]

let suite =
  [
    Alcotest.test_case "engine interface" `Quick test_engine_interface;
    Alcotest.test_case "adapter kinds" `Quick test_adapter_kinds;
    Alcotest.test_case "three-level lockstep" `Quick test_three_level_lockstep;
    Alcotest.test_case "fault injection shrinks" `Quick
      test_fault_injection_shrinks;
    Alcotest.test_case "corrupted netlist localized" `Quick
      test_corrupted_netlist_localized;
    Alcotest.test_case "drive override honored" `Quick
      test_drive_override_honored;
    Alcotest.test_case "consolidated trace" `Quick test_consolidated_trace;
    Alcotest.test_case "inject_fault validates port" `Quick
      test_inject_fault_unknown_port;
    Alcotest.test_case "set_input errors" `Quick test_set_input_errors;
  ]

let () = Alcotest.run "engine" [ ("engine", suite) ]
