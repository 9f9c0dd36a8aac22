(* Tests for the synthesis tool chain: analyzer, behavioral synthesis,
   flows, and the effort metrics. *)

open Hdl
module B = Synth.Behavioral

(* Digest of the lowered conventional ExpoCU top, taken at module
   initialisation: before this process has run any test, so it stands
   for a fresh process's lowering. *)
let lowered_digest () =
  Backend.Lower.clear_cache ();
  Digest.to_hex
    (Digest.string
       (Backend.Netlist.emit_verilog
          (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))))

let fresh_digest = lowered_digest ()

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* dfg: out = (a+b) * (a-b) + (a*b) over 8 bits *)
let sample_dfg () =
  let g = B.create ~name:"poly_eval" ~inputs:[ ("a", 8); ("b", 8) ] in
  let s = B.node g B.Add [ B.Input "a"; B.Input "b" ] in
  let d = B.node g B.Sub [ B.Input "a"; B.Input "b" ] in
  let p = B.node g B.Mul [ B.Node s; B.Node d ] in
  let q = B.node g B.Mul [ B.Input "a"; B.Input "b" ] in
  let r = B.node g B.Add [ B.Node p; B.Node q ] in
  B.output g "result" (B.Node r);
  g


let test_asap_schedule () =
  let g = sample_dfg () in
  let s = B.asap g in
  Alcotest.(check int) "critical path states" 3 (B.latency s);
  (* add, sub and the independent mul are all input-ready *)
  Alcotest.(check int) "three ops in state 0" 3
    (List.length (B.ops_in_state s 0))

let test_list_schedule_constrained () =
  let g = sample_dfg () in
  (* one unit of each kind: adds serialize, muls serialize *)
  let s = B.list_schedule g ~resources:(fun _ -> 1) in
  Alcotest.(check bool) "longer than asap" true (B.latency s >= 3);
  (* no state uses two units of one kind *)
  let g_ops = [| B.Add; B.Sub; B.Mul; B.Mul; B.Add |] in
  for st = 0 to B.latency s - 1 do
    let ops = B.ops_in_state s st in
    List.iter
      (fun kind ->
        let same = List.filter (fun i -> g_ops.(i) = kind) ops in
        Alcotest.(check bool)
          (Printf.sprintf "state %d: one unit of each kind" st)
          true
          (List.length same <= 1))
      [ B.Add; B.Sub; B.Mul ]
  done

let run_behavioral design ~a ~b =
  let sim = Rtl_sim.create design in
  Rtl_sim.set_input_int sim "a" a;
  Rtl_sim.set_input_int sim "b" b;
  Rtl_sim.set_input_int sim "start" 1;
  Rtl_sim.step sim;
  Rtl_sim.set_input_int sim "start" 0;
  let rec wait n =
    if n > 100 then Alcotest.fail "behavioral module never finished";
    if Rtl_sim.get_int sim "done" = 1 then Rtl_sim.get_int sim "result"
    else begin
      Rtl_sim.step sim;
      wait (n + 1)
    end
  in
  wait 0

let test_behavioral_module_asap () =
  let g = sample_dfg () in
  let design = B.to_module g (B.asap g) in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "f(%d,%d)" a b)
        ((((a + b) * (a - b)) + (a * b)) land 0xff)
        (run_behavioral design ~a ~b))
    [ (5, 3); (200, 100); (0, 0); (255, 255); (17, 4) ]

let test_behavioral_module_constrained () =
  let g = sample_dfg () in
  let design = B.to_module g (B.list_schedule g ~resources:(fun _ -> 1)) in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "f(%d,%d)" a b)
        ((((a + b) * (a - b)) + (a * b)) land 0xff)
        (run_behavioral design ~a ~b))
    [ (5, 3); (200, 100); (255, 1) ]

let test_behavioral_resource_sharing_area () =
  (* Two independent multiplications: ASAP instantiates two multiplier
     units; constraining to one shares a single unit through input
     muxes, trading combinational area for latency. *)
  let g = B.create ~name:"two_muls" ~inputs:[ ("a", 8); ("b", 8); ("c2", 8); ("d", 8) ] in
  let m1 = B.node g B.Mul [ B.Input "a"; B.Input "b" ] in
  let m2 = B.node g B.Mul [ B.Input "c2"; B.Input "d" ] in
  let r = B.node g B.Add [ B.Node m1; B.Node m2 ] in
  B.output g "result" (B.Node r);
  let parallel = B.to_module g (B.asap g) in
  let serial = B.to_module g (B.list_schedule g ~resources:(fun _ -> 1)) in
  let area m =
    (Backend.Area.analyze (Backend.Opt.optimize (Backend.Lower.lower m)))
      .Backend.Area.combinational
  in
  Alcotest.(check bool) "sharing saves combinational area" true
    (area serial < area parallel);
  Alcotest.(check bool) "sharing costs latency" true
    (B.latency (B.list_schedule g ~resources:(fun _ -> 1)) > B.latency (B.asap g))

let test_behavioral_netlist_equiv () =
  let g = sample_dfg () in
  let design = B.to_module g (B.asap g) in
  let nl = Backend.Lower.lower design in
  match Backend.Equiv.ir_vs_netlist ~cycles:400 design nl with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m

(* Property: random dataflow graphs scheduled under random resource
   budgets compute the same function as a direct evaluation of the
   graph. *)
let prop_random_dfg =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"random dfg schedules are correct"
       QCheck2.Gen.(
         triple (int_range 1 10)
           (list_size (return 12) (int_range 0 1000))
           (int_range 1 3))
       (fun (n_ops, choices, budget) ->
         let g =
           B.create ~name:"rand_dfg" ~inputs:[ ("a", 8); ("b", 8); ("c2", 8) ]
         in
         let operands = ref [ B.Input "a"; B.Input "b"; B.Input "c2" ] in
         let pick k = List.nth !operands (k mod List.length !operands) in
         let kinds = [| B.Add; B.Sub; B.Mul; B.And; B.Or; B.Xor |] in
         let rec build i remaining =
           match remaining with
           | [] -> ()
           | choice :: rest when i < n_ops ->
               let kind = kinds.(choice mod Array.length kinds) in
               let x = pick choice and y = pick (choice / 7) in
               let id = B.node g kind [ x; y ] in
               operands := B.Node id :: !operands;
               build (i + 1) rest
           | _ -> ()
         in
         build 0 choices;
         let out_operand = List.hd !operands in
         B.output g "y" out_operand;
         let sched = B.list_schedule g ~resources:(fun _ -> budget) in
         let m = B.to_module g sched in
         let inputs = [ ("a", 173); ("b", 41); ("c2", 200) ] in
         (* reference: replay the same construction over plain ints *)
         let values = ref [ 173; 41; 200 ] in
         let pickv k = List.nth !values (k mod List.length !values) in
         let rec replay i remaining =
           match remaining with
           | [] -> ()
           | choice :: rest when i < n_ops ->
               let kind = kinds.(choice mod Array.length kinds) in
               let vx = pickv choice and vy = pickv (choice / 7) in
               let r =
                 (match kind with
                 | B.Add -> vx + vy
                 | B.Sub -> vx - vy
                 | B.Mul -> vx * vy
                 | B.And -> vx land vy
                 | B.Or -> vx lor vy
                 | B.Xor -> vx lxor vy
                 | B.Mux -> 0)
                 land 0xff
               in
               values := r :: !values;
               replay (i + 1) rest
           | _ -> ()
         in
         replay 0 choices;
         let expected = List.hd !values in
         let sim = Rtl_sim.create m in
         List.iter (fun (n, v) -> Rtl_sim.set_input_int sim n v) inputs;
         Rtl_sim.set_input_int sim "start" 1;
         Rtl_sim.step sim;
         Rtl_sim.set_input_int sim "start" 0;
         let guard = ref 0 in
         while Rtl_sim.get_int sim "done" = 0 && !guard < 100 do
           Rtl_sim.step sim;
           incr guard
         done;
         Rtl_sim.get_int sim "y" = expected))

let test_analyzer_report () =
  let top = Expocu.Expocu_top.rtl_top () in
  let entries = Synth.Analyzer.analyze top in
  Alcotest.(check bool) "root plus six components" true
    (List.length entries >= 7);
  let report = Synth.Analyzer.report top in
  Alcotest.(check bool) "mentions histogram" true
    (contains "histogram_rtl" report);
  Alcotest.(check bool) "mentions i2c" true (contains "i2c_vhdl" report);
  Alcotest.(check bool) "state bits positive" true
    (Synth.Analyzer.total_state_bits top > 100)

let test_flow_runs () =
  let design = Expocu.Sync.rtl_module () in
  let r = Synth.Flow.run Synth.Flow.Vhdl design in
  Alcotest.(check bool) "area positive" true (r.Synth.Flow.area.Backend.Area.total > 0.0);
  Alcotest.(check bool) "fmax finite" true
    (r.Synth.Flow.timing.Backend.Timing.fmax_mhz > 0.0);
  Alcotest.(check bool) "vhdl artifact" true
    (List.exists (fun (n, _) -> n = "sync_rtl.vhd") r.Synth.Flow.intermediate);
  let r2 = Synth.Flow.run Synth.Flow.Osss (Expocu.Sync.osss_module ()) in
  Alcotest.(check bool) "resolved systemc artifact" true
    (List.exists
       (fun (n, _) -> n = "sync_osss_resolved_flat.cpp")
       r2.Synth.Flow.intermediate);
  Alcotest.(check bool) "pre-flatten vhdl artifact" true
    (List.exists (fun (n, _) -> n = "sync_rtl.vhd") r.Synth.Flow.intermediate);
  Alcotest.(check bool) "post-flatten vhdl artifact" true
    (List.exists
       (fun (n, _) -> n = "sync_rtl_flat.vhd")
       r.Synth.Flow.intermediate);
  Alcotest.(check bool) "pre-flatten verilog in osss flow" true
    (List.exists (fun (n, _) -> n = "sync_osss.v") r2.Synth.Flow.intermediate);
  Alcotest.(check bool) "raw netlist artifact" true
    (List.exists
       (fun (n, _) -> n = "sync_osss_netlist_raw.v")
       r2.Synth.Flow.intermediate);
  Alcotest.(check bool) "summary text" true
    (contains "fmax" (Synth.Flow.summary r2))

let test_flow_pass_trace () =
  let r = Synth.Flow.run Synth.Flow.Vhdl (Expocu.Sync.rtl_module ()) in
  Alcotest.(check (list string)) "pass sequence"
    [ "check"; "flatten"; "emit-frontend"; "lower"; "opt"; "analyze" ]
    (List.map (fun p -> p.Synth.Flow.pass_name) r.Synth.Flow.passes);
  let opt =
    List.find
      (fun p -> p.Synth.Flow.pass_name = "opt")
      r.Synth.Flow.passes
  in
  (match
     ( Synth.Flow.pass_metric opt "before_cells",
       Synth.Flow.pass_metric opt "after_cells" )
   with
  | Some before, Some after ->
      Alcotest.(check bool) "opt shrinks or holds" true (after <= before);
      Alcotest.(check (float 0.0)) "raw cell count matches"
        (float_of_int r.Synth.Flow.raw_cells)
        before
  | _ -> Alcotest.fail "opt pass missing cell metrics");
  Alcotest.(check bool) "pass table renders deltas" true
    (contains "->" (Synth.Flow.pass_table r));
  Alcotest.(check bool) "summary embeds pass table" true
    (contains "opt" (Synth.Flow.summary r));
  (* every pass feeds the global Perf registry *)
  Alcotest.(check bool) "perf runs counter" true
    (Metrics.Perf.value (Metrics.Perf.counter "flow.opt.runs") > 0)

let test_flow_invariants_and_layout () =
  (* a design with no dead registers: CEC must prove the opt pass *)
  let b = Builder.create "invcnt" in
  let reset = Builder.input b "reset" 1 in
  let count = Builder.output b "count" 8 in
  Builder.sync b "tick"
    [
      Builder.Dsl.if_
        (Builder.Dsl.v reset)
        [ Builder.Dsl.( <-- ) count (Builder.Dsl.c ~width:8 0) ]
        [
          Builder.Dsl.( <-- ) count
            Builder.Dsl.(v count +: c ~width:8 1);
        ];
    ];
  let design = Builder.finish b in
  let r =
    Synth.Flow.run ~check_invariants:true ~layout:true Synth.Flow.Vhdl design
  in
  let opt =
    List.find (fun p -> p.Synth.Flow.pass_name = "opt") r.Synth.Flow.passes
  in
  (match opt.Synth.Flow.invariant with
  | Some Backend.Cec.Proved -> ()
  | Some v ->
      Alcotest.failf "opt invariant not proved: %a" Backend.Cec.pp_verdict v
  | None -> Alcotest.fail "invariant missing despite check_invariants");
  Alcotest.(check (list string)) "opt lockstep ran and passed"
    [ "random 1000 cycles ok" ]
    (List.map (Format.asprintf "%a" Synth.Flow.pp_lockstep)
       opt.Synth.Flow.lockstep);
  match r.Synth.Flow.layout with
  | Some l ->
      Alcotest.(check bool) "ffs placed" true (l.Synth.Flow.ffs >= 8);
      Alcotest.(check bool) "post-layout fmax positive" true
        (l.Synth.Flow.post_fmax_mhz > 0.0);
      Alcotest.(check bool) "layout in summary" true
        (contains "layout" (Synth.Flow.summary r))
  | None -> Alcotest.fail "layout report missing despite ~layout:true"

let expocu_tops =
  [
    ("osss", fun () -> Expocu.Expocu_top.osss_top ());
    ("conventional", fun () -> Expocu.Expocu_top.rtl_top ());
  ]

let directed_lockstep raw opt =
  Backend.Equiv.differential ~cycles:Expocu.Expocu_top.directed_frame_cycles
    ~drive:Expocu.Expocu_top.directed_frame ~shrink:false
    [
      (fun () -> Backend.Nl_engine.create ~label:"lowered" raw);
      (fun () -> Backend.Nl_engine.create ~label:"optimised" opt);
    ]

let test_opt_directed_frame () =
  (* The directed 256-pixel frame through the frame's processing: the
     optimised netlist must track the lowered one on every output every
     cycle, on both tops. *)
  List.iter
    (fun (label, top) ->
      let raw = Backend.Lower.lower (top ()) in
      match directed_lockstep raw (Backend.Opt.optimize raw) with
      | Ok n ->
          Alcotest.(check int) (label ^ " cycles")
            Expocu.Expocu_top.directed_frame_cycles n
      | Error d ->
          Alcotest.failf "%s: optimised diverges: %a" label
            Backend.Equiv.pp_divergence d)
    expocu_tops

let test_opt_invariant_catches_creation_order () =
  (* Rebuilding the live cells in creation order (Netlist_oracle's
     Opt_ref) reads hierarchical child-input nets before their drivers
     are copied; the opt pass's lockstep invariant must fail, naming the
     port and the cycle. *)
  let raw = Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()) in
  let broken = Netlist_oracle.Opt_ref.optimize raw in
  let verdicts =
    Synth.Flow.opt_lockstep
      ~directed:
        ( Expocu.Expocu_top.directed_frame_cycles,
          Expocu.Expocu_top.directed_frame )
      raw broken
  in
  Alcotest.(check (list string)) "both stimuli diverge"
    [ "random"; "directed" ]
    (List.filter_map
       (fun (l : Synth.Flow.lockstep) ->
         Option.map (fun _ -> l.stimulus) l.first_mismatch)
       verdicts);
  List.iter
    (fun (l : Synth.Flow.lockstep) ->
      let m = Option.get l.first_mismatch in
      Alcotest.(check string) (l.stimulus ^ " port") "median_bin" m.port;
      Alcotest.(check bool) (l.stimulus ^ " cycle named") true
        (contains
           (Printf.sprintf "cycle %d, port median_bin" m.at_cycle)
           (Format.asprintf "%a" Synth.Flow.pp_lockstep l)))
    verdicts;
  Alcotest.(check int) "directed frame diverges where the suite saw it" 285
    (Option.get (List.nth verdicts 1).first_mismatch).at_cycle

let test_lowering_canonical () =
  (* Var ids are process-global; the lowered netlist must not depend on
     how many of them earlier builds drew. *)
  List.iter
    (fun earlier ->
      for _ = 1 to earlier do
        ignore (Expocu.Expocu_top.rtl_top ())
      done;
      Alcotest.(check string)
        (Printf.sprintf "digest after %d earlier builds" earlier)
        fresh_digest (lowered_digest ()))
    [ 0; 1; 5 ]

let test_whole_catalogue_synthesizes () =
  (* every registered design lowers to a checked netlist with sane
     area and timing, through both flows *)
  List.iter
    (fun (name, (_, make)) ->
      let design = make () in
      let nl = Backend.Opt.optimize (Backend.Lower.lower design) in
      Backend.Netlist.check nl;
      let area = Backend.Area.analyze nl in
      let timing = Backend.Timing.analyze nl in
      Alcotest.(check bool) (name ^ " area positive") true
        (area.Backend.Area.total > 0.0);
      Alcotest.(check bool)
        (name ^ " timing sane")
        true
        (timing.Backend.Timing.fmax_mhz > 1.0))
    Expocu.Registry.registry

let test_catalogue_distinct_names () =
  let names = List.map fst Expocu.Registry.registry in
  Alcotest.(check int) "no duplicates"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "lookup works" true
    (Expocu.Registry.find "expocu_osss" <> None);
  Alcotest.(check bool) "unknown rejected" true
    (Expocu.Registry.find "nope" = None)

let test_metrics_text () =
  let m =
    Metrics.of_text
      "// a comment\nif (x) { y = 1; }\n/* block\ncomment */\ncase (z)\n"
  in
  Alcotest.(check int) "lines without comments" 2 m.Metrics.lines;
  Alcotest.(check int) "decisions" 2 m.Metrics.decisions

let test_metrics_module () =
  let osss = Metrics.of_module (Expocu.I2c.osss_module ()) in
  let vhdl = Metrics.of_module (Expocu.I2c.vhdl_module ()) in
  Alcotest.(check bool) "vhdl style is more verbose" true
    (vhdl.Metrics.lines > osss.Metrics.lines);
  Alcotest.(check bool) "effort positive" true (Metrics.effort_days osss > 0.0)

let suite =
  [
    Alcotest.test_case "asap schedule" `Quick test_asap_schedule;
    Alcotest.test_case "list schedule" `Quick test_list_schedule_constrained;
    Alcotest.test_case "behavioral asap module" `Quick
      test_behavioral_module_asap;
    Alcotest.test_case "behavioral constrained module" `Quick
      test_behavioral_module_constrained;
    Alcotest.test_case "resource sharing area" `Quick
      test_behavioral_resource_sharing_area;
    Alcotest.test_case "behavioral netlist equiv" `Quick
      test_behavioral_netlist_equiv;
    prop_random_dfg;
    Alcotest.test_case "analyzer report" `Quick test_analyzer_report;
    Alcotest.test_case "flows run" `Quick test_flow_runs;
    Alcotest.test_case "flow pass trace" `Quick test_flow_pass_trace;
    Alcotest.test_case "flow invariants and layout" `Quick
      test_flow_invariants_and_layout;
    Alcotest.test_case "opt on the directed frame" `Quick
      test_opt_directed_frame;
    Alcotest.test_case "opt invariant catches a creation-order walk" `Quick
      test_opt_invariant_catches_creation_order;
    Alcotest.test_case "lowering is canonical" `Quick test_lowering_canonical;
    Alcotest.test_case "whole catalogue synthesizes" `Quick
      test_whole_catalogue_synthesizes;
    Alcotest.test_case "catalogue names" `Quick test_catalogue_distinct_names;
    Alcotest.test_case "metrics text" `Quick test_metrics_text;
    Alcotest.test_case "metrics module" `Quick test_metrics_module;
  ]

let () = Alcotest.run "synth" [ ("synth", suite) ]
