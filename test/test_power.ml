(* Dynamic power estimation: the Power_dyn model over sampled
   switching activity, scalar/word-parallel sampler agreement, and the
   power pass joined into the synthesis flow result. *)

open Hdl
open Builder.Dsl

(* A leaf and a two-instance top, so per-module attribution has real
   regions to land in. *)
let counter_leaf () =
  let b = Builder.create "cnt_leaf" in
  let en = Builder.input b "en" 1 in
  let q = Builder.output b "q" 4 in
  Builder.sync b "count" [ when_ (v en) [ q <-- (v q +: c ~width:4 1) ] ];
  Builder.finish b

let hier_design () =
  let leaf = counter_leaf () in
  let b = Builder.create "cnt_pair" in
  let en = Builder.input b "en" 1 in
  let q0 = Builder.output b "q0" 4 in
  let q1 = Builder.output b "q1" 4 in
  let sum = Builder.output b "sum" 4 in
  let w0 = Builder.wire b "w0" 4 in
  let w1 = Builder.wire b "w1" 4 in
  Builder.instantiate b ~name:"u_c0" leaf [ ("en", en); ("q", w0) ];
  Builder.instantiate b ~name:"u_c1" leaf [ ("en", en); ("q", w1) ];
  Builder.comb b "mix"
    [ q0 <-- v w0; q1 <-- v w1; sum <-- (v w0 +: v w1) ];
  Builder.finish b

let lowered () = Backend.Opt.optimize (Backend.Lower.lower (hier_design ()))

(* ------------------------------------------------------------------ *)
(* Model sanity                                                        *)

let test_measure_sanity () =
  let nl = lowered () in
  let r = Synth.Power_dyn.measure ~cycles:64 ~window:16 nl in
  Alcotest.(check int) "all cycles sampled" 64 r.Synth.Power_dyn.p_cycles;
  Alcotest.(check bool) "energy flowed" true
    (r.Synth.Power_dyn.p_total_energy_pj > 0.0);
  Alcotest.(check bool) "leakage present" true
    (r.Synth.Power_dyn.p_leakage_mw > 0.0);
  Alcotest.(check bool) "peak bounds average" true
    (r.Synth.Power_dyn.p_peak_mw >= r.Synth.Power_dyn.p_avg_mw);
  Alcotest.(check int) "windows tile the run" 4
    (List.length r.Synth.Power_dyn.p_samples);
  (* Energy is additive: windows must sum to the total. *)
  let from_samples =
    List.fold_left
      (fun acc s -> acc +. s.Synth.Power_dyn.s_energy_pj)
      0.0 r.Synth.Power_dyn.p_samples
  in
  Alcotest.(check bool) "window energies sum to total" true
    (Float.abs (from_samples -. r.Synth.Power_dyn.p_total_energy_pj) < 1e-9)

let test_measure_by_module () =
  let nl = lowered () in
  let r = Synth.Power_dyn.measure ~cycles:64 nl in
  let paths =
    List.map (fun m -> m.Synth.Power_dyn.pm_path) r.Synth.Power_dyn.p_by_module
  in
  List.iter
    (fun inst ->
      if not (List.mem inst paths) then
        Alcotest.failf "instance %s missing from power attribution" inst)
    [ "u_c0"; "u_c1" ];
  (* Attributed paths come from the netlist's region tags, nowhere else. *)
  let regions = "" :: Backend.Netlist.region_names nl in
  List.iter
    (fun p ->
      if not (List.mem p regions) then
        Alcotest.failf "power attributed to unknown region %S" p)
    paths;
  (* Two instances of the same counter under the same enable stream
     must burn the same energy. *)
  let energy inst =
    let m =
      List.find
        (fun m -> m.Synth.Power_dyn.pm_path = inst)
        r.Synth.Power_dyn.p_by_module
    in
    m.Synth.Power_dyn.pm_energy_pj
  in
  Alcotest.(check bool) "identical twins, identical energy" true
    (Float.abs (energy "u_c0" -. energy "u_c1") < 1e-9)

let test_measure_deterministic () =
  let nl = lowered () in
  let a = Synth.Power_dyn.measure ~seed:7 ~cycles:48 nl in
  let b = Synth.Power_dyn.measure ~seed:7 ~cycles:48 nl in
  Alcotest.(check (float 0.0)) "same seed, same energy"
    a.Synth.Power_dyn.p_total_energy_pj b.Synth.Power_dyn.p_total_energy_pj;
  Alcotest.(check (float 0.0)) "same seed, same peak"
    a.Synth.Power_dyn.p_peak_mw b.Synth.Power_dyn.p_peak_mw

let test_peak_why_shape () =
  let nl = lowered () in
  let r = Synth.Power_dyn.measure ~cycles:64 ~window:16 nl in
  match r.Synth.Power_dyn.p_peak_why with
  | None -> Alcotest.fail "active design has no peak_why"
  | Some spec -> (
      (* Must be the "net@cycle" shape osss_debug --why consumes. *)
      match String.rindex_opt spec '@' with
      | None -> Alcotest.failf "peak_why %S has no @cycle suffix" spec
      | Some i ->
          let cycle =
            String.sub spec (i + 1) (String.length spec - i - 1)
          in
          (match int_of_string_opt cycle with
          | Some c ->
              Alcotest.(check bool) "cycle within the run" true
                (c >= 0 && c <= 64)
          | None -> Alcotest.failf "peak_why cycle %S not an int" cycle);
          Alcotest.(check bool) "net name non-empty" true (i > 0))

(* ------------------------------------------------------------------ *)
(* Scalar vs word-parallel sampler agreement (acceptance criterion:
   lane 0 of the word simulator matches the scalar simulator
   bit-for-bit under identical stimulus).                              *)

let window_shape act =
  List.map
    (fun (w : Cover.Activity.window) ->
      (w.w_index, w.w_start, w.w_cycles, w.w_counts))
    (Cover.Activity.windows act)

let test_lane0_matches_scalar () =
  let nl = lowered () in
  let ssim = Backend.Nl_sim.create nl in
  let wsim = Backend.Nl_sim.create ~lanes:5 nl in
  Backend.Nl_sim.enable_power_sampler ~window:4 ssim;
  Backend.Nl_sim.enable_power_sampler ~window:4 wsim;
  for c = 0 to 17 do
    (* Same stimulus on the scalar sim and on every word lane (a
       broadcast write drives lane 0 too). *)
    let en = if c mod 3 = 0 then 0 else 1 in
    Backend.Nl_sim.set_input_int ssim "en" en;
    Backend.Nl_sim.set_input wsim "en" (Bitvec.of_int ~width:1 en);
    Backend.Nl_sim.step ssim;
    Backend.Nl_sim.step wsim
  done;
  let sact =
    match Backend.Nl_sim.power_activity ssim with
    | Some a -> a
    | None -> Alcotest.fail "scalar sampler missing"
  in
  let wact =
    match Backend.Nl_sim.lane_activity wsim 0 with
    | Some a -> a
    | None -> Alcotest.fail "word lane-0 sampler missing"
  in
  Cover.Activity.flush sact;
  Cover.Activity.flush wact;
  Alcotest.(check int) "same cycle count" (Cover.Activity.cycles sact)
    (Cover.Activity.cycles wact);
  Alcotest.(check int) "same toggle total"
    (Cover.Activity.total_toggles sact)
    (Cover.Activity.total_toggles wact);
  Alcotest.(check bool) "lane 0 windows match scalar bit-for-bit" true
    (window_shape sact = window_shape wact);
  Alcotest.(check bool) "activity was non-trivial" true
    (Cover.Activity.total_toggles sact > 0)

(* ------------------------------------------------------------------ *)
(* Power pass joined into the synthesis flow                           *)

let test_flow_power_pass () =
  let design = hier_design () in
  let plain = Synth.Flow.run Synth.Flow.Osss design in
  Alcotest.(check bool) "no power unless requested" true
    (plain.Synth.Flow.power = None);
  List.iter
    (fun bm ->
      if bm.Synth.Flow.bm_power_mw <> None then
        Alcotest.failf "module %s has power without a power pass"
          bm.Synth.Flow.bm_path)
    plain.Synth.Flow.by_module;
  let result = Synth.Flow.run ~power_cycles:64 Synth.Flow.Osss design in
  let pow =
    match result.Synth.Flow.power with
    | Some p -> p
    | None -> Alcotest.fail "power pass produced no report"
  in
  Alcotest.(check int) "requested cycles simulated" 64
    pow.Synth.Power_dyn.p_cycles;
  (* Instance rows of the area/timing breakdown carry the joined
     average power. *)
  List.iter
    (fun inst ->
      match
        List.find_opt
          (fun bm -> bm.Synth.Flow.bm_path = inst)
          result.Synth.Flow.by_module
      with
      | None -> Alcotest.failf "no breakdown row for %s" inst
      | Some bm ->
          if bm.Synth.Flow.bm_power_mw = None then
            Alcotest.failf "breakdown row %s missing joined power" inst)
    [ "u_c0"; "u_c1" ];
  (* The JSON surface exposes both the power section and the per-row
     dynamic_mw join. *)
  let json = Synth.Flow.result_json result in
  Alcotest.(check bool) "result json has a power section" true
    (Obs.Json.member "power" json <> None);
  let rows =
    match Obs.Json.member "by_module" json with
    | Some (Obs.Json.List rows) -> rows
    | _ -> Alcotest.fail "result json has no by_module list"
  in
  Alcotest.(check bool) "rows carry dynamic_mw" true
    (List.exists (fun row -> Obs.Json.member "dynamic_mw" row <> None) rows)

let test_analyze_flushes_partial_window () =
  let nl = lowered () in
  let sim = Backend.Nl_sim.create nl in
  Backend.Nl_sim.enable_power_sampler ~window:64 sim;
  Backend.Nl_sim.set_input_int sim "en" 1;
  for _ = 1 to 10 do
    Backend.Nl_sim.step sim
  done;
  let act =
    match Backend.Nl_sim.power_activity sim with
    | Some a -> a
    | None -> Alcotest.fail "sampler missing"
  in
  let r = Synth.Power_dyn.analyze nl act in
  Alcotest.(check int) "partial window counted" 10 r.Synth.Power_dyn.p_cycles;
  Alcotest.(check int) "one flushed sample" 1
    (List.length r.Synth.Power_dyn.p_samples);
  Alcotest.(check bool) "partial window carries energy" true
    (r.Synth.Power_dyn.p_total_energy_pj > 0.0)

let suite =
  [
    Alcotest.test_case "measure sanity" `Quick test_measure_sanity;
    Alcotest.test_case "per-module attribution" `Quick test_measure_by_module;
    Alcotest.test_case "deterministic stimulus" `Quick
      test_measure_deterministic;
    Alcotest.test_case "peak_why shape" `Quick test_peak_why_shape;
    Alcotest.test_case "lane 0 matches scalar" `Quick
      test_lane0_matches_scalar;
    Alcotest.test_case "flow power pass" `Quick test_flow_power_pass;
    Alcotest.test_case "analyze flushes partial window" `Quick
      test_analyze_flushes_partial_window;
  ]

let () = Alcotest.run "power" [ ("power", suite) ]
