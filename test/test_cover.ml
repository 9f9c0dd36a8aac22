(* Tests for the osss.cover coverage library — toggle, FSM and
   covergroup collectors, the serializable coverage DB (merge
   monotonicity, diff, JSON round-trip) — and for the collection
   plumbing in the simulators and engines. *)

open Hdl

(* ------------------------------------------------------------------ *)
(* Toggle                                                              *)

let test_toggle () =
  let t = Cover.Toggle.create ~names:[| "a"; "b"; "c" |] in
  Alcotest.(check int) "bits" 3 (Cover.Toggle.bits t);
  Alcotest.(check (float 1e-9)) "empty coverage" 0.0 (Cover.Toggle.coverage t);
  Cover.Toggle.record t 0 ~rising:true;
  Cover.Toggle.record t 0 ~rising:false;
  Cover.Toggle.record t 1 ~rising:true;
  Alcotest.(check int) "covered needs both edges" 1 (Cover.Toggle.covered t);
  Alcotest.(check int) "touched counts one edge" 2 (Cover.Toggle.touched t);
  Alcotest.(check int) "rises" 1 (Cover.Toggle.rises t 0);
  Alcotest.(check int) "falls" 1 (Cover.Toggle.falls t 0);
  Alcotest.(check (float 1e-9)) "coverage" (1.0 /. 3.0)
    (Cover.Toggle.coverage t);
  Alcotest.(check (list string)) "uncovered in slot order" [ "b"; "c" ]
    (Cover.Toggle.uncovered t);
  Alcotest.(check (list string)) "uncovered bounded" [ "b" ]
    (Cover.Toggle.uncovered ~k:1 t);
  let empty = Cover.Toggle.create ~names:[||] in
  Alcotest.(check (float 1e-9)) "no bits = full" 1.0
    (Cover.Toggle.coverage empty)

(* ------------------------------------------------------------------ *)
(* Fsm                                                                 *)

let test_fsm () =
  let f =
    Cover.Fsm.create ~name:"m"
      ~states:[ (0, "idle"); (1, "run"); (2, "done") ]
      ~arcs:[ (0, 1); (1, 2); (2, 0); (1, 1) ]
      ()
  in
  Alcotest.(check bool) "nothing covered yet" false (Cover.Fsm.fully_covered f);
  List.iter (Cover.Fsm.sample f) [ 0; 1; 1; 2; 0 ];
  Alcotest.(check (float 1e-9)) "all states seen" 1.0
    (Cover.Fsm.state_coverage f);
  Alcotest.(check (float 1e-9)) "all declared arcs traversed" 1.0
    (Cover.Fsm.arc_coverage f);
  Alcotest.(check bool) "fully covered" true (Cover.Fsm.fully_covered f);
  Alcotest.(check int) "no unknowns" 0 (Cover.Fsm.unknown_hits f);
  (* an undeclared transition is recorded as an undeclared arc *)
  List.iter (Cover.Fsm.sample f) [ 2; 1 ];
  let undeclared =
    List.filter (fun a -> not a.Cover.Fsm.a_declared) (Cover.Fsm.arcs f)
  in
  Alcotest.(check int) "undeclared arc 0->2 and 2->1" 2
    (List.length undeclared);
  (* undeclared self-loops (a parked register) are not recorded *)
  Cover.Fsm.sample f 0 (* arrive in idle: records the undeclared 1->0 arc *);
  let before = List.length (Cover.Fsm.arcs f) in
  List.iter (Cover.Fsm.sample f) [ 0; 0; 0 ];
  Alcotest.(check int) "idle dwell adds no arc" before
    (List.length (Cover.Fsm.arcs f));
  (* a value outside the declared encoding counts as unknown *)
  Cover.Fsm.sample f 7;
  Alcotest.(check int) "unknown sample" 1 (Cover.Fsm.unknown_hits f);
  Alcotest.(check bool) "unknowns break full coverage" false
    (Cover.Fsm.fully_covered f);
  Alcotest.(check string) "label falls back to value" "<7>"
    (Cover.Fsm.state_label f 7);
  Alcotest.(check string) "declared label" "run" (Cover.Fsm.state_label f 1)

(* ------------------------------------------------------------------ *)
(* Group                                                               *)

let test_group () =
  let g =
    Cover.Group.create ~name:"g" ~goal:2
      [
        ("zero", Cover.Group.Value 0);
        ("small", Cover.Group.Span (1, 9));
        ("bad", Cover.Group.Illegal_value 99);
      ]
  in
  List.iter (Cover.Group.sample g) [ 0; 0; 5; 42 ];
  let hits name =
    let b =
      List.find (fun b -> b.Cover.Group.bin_name = name) (Cover.Group.bins g)
    in
    b.Cover.Group.hits
  in
  Alcotest.(check int) "zero hit twice" 2 (hits "zero");
  Alcotest.(check int) "span hit once" 1 (hits "small");
  Alcotest.(check int) "unmatched goes to other" 1 (Cover.Group.other_hits g);
  (* goal=2: "zero" is at goal, "small" is not, "bad" is illegal and
     excluded from the denominator *)
  Alcotest.(check (float 1e-9)) "coverage counts goal-reaching legal bins"
    0.5 (Cover.Group.coverage g);
  Alcotest.(check int) "no illegal hits yet" 0 (Cover.Group.illegal_hits g);
  Cover.Group.sample g 99;
  Alcotest.(check int) "illegal hit recorded" 1 (Cover.Group.illegal_hits g)

(* ------------------------------------------------------------------ *)
(* Db: construction, merge, diff, serialization                        *)

let sample_db ?(run = "run-a") ?(extra_samples = []) () =
  let tg = Cover.Toggle.create ~names:[| "x"; "y" |] in
  Cover.Toggle.record tg 0 ~rising:true;
  Cover.Toggle.record tg 0 ~rising:false;
  let fsm =
    Cover.Fsm.create ~name:"m" ~states:[ (0, "a"); (1, "b") ] ~arcs:[ (0, 1) ]
      ()
  in
  List.iter (Cover.Fsm.sample fsm) ([ 0; 1 ] @ extra_samples);
  let g =
    Cover.Group.create ~name:"g"
      [ ("lo", Cover.Group.Span (0, 7)); ("hi", Cover.Group.Span (8, 15)) ]
  in
  List.iter (Cover.Group.sample g) (3 :: extra_samples);
  Cover.Db.make
    ~toggles:(Cover.Db.toggle_entries tg)
    ~fsms:[ fsm ] ~groups:[ g ]
    ~monitors:[ Cover.Db.monitor ~name:"p" ~pass:5 ~vacuous:2 ~fail:0 ]
    ~run ()

let test_db_totals () =
  let db = sample_db () in
  let t = Cover.Db.totals db in
  Alcotest.(check int) "toggle bits keep denominator" 2
    t.Cover.Db.toggle_bits;
  Alcotest.(check int) "toggle covered" 1 t.Cover.Db.toggle_covered;
  Alcotest.(check int) "fsm states" 2 t.Cover.Db.fsm_states;
  Alcotest.(check int) "fsm states hit" 2 t.Cover.Db.fsm_states_hit;
  Alcotest.(check int) "group bins hit" 1 t.Cover.Db.group_bins_hit;
  Alcotest.(check int) "monitor passes" 5 t.Cover.Db.monitor_passes;
  Alcotest.(check (list string)) "fully covered fsm list" [ "m" ]
    (Cover.Db.fully_covered_fsms db)

let test_db_merge_monotone () =
  let a = sample_db ~run:"run-a" () in
  (* run-b additionally hits the "hi" bin (value 9 also revisits fsm
     state 1... 9 is unknown to the fsm, making b strictly different) *)
  let b = sample_db ~run:"run-b" ~extra_samples:[ 9 ] () in
  let m = Cover.Db.merge a b in
  let cov db =
    let t = Cover.Db.totals db in
    ( t.Cover.Db.toggle_covered,
      t.Cover.Db.fsm_states_hit,
      t.Cover.Db.group_bins_hit )
  in
  let ta, _, ba = cov a in
  let tm, _, bm = cov m in
  let _, _, bb = cov b in
  Alcotest.(check bool) "merged toggle >= a" true (tm >= ta);
  Alcotest.(check bool) "merged bins >= either input" true
    (bm >= ba && bm >= bb);
  Alcotest.(check (list string)) "runs concatenated" [ "run-a"; "run-b" ]
    m.Cover.Db.runs;
  (* merging a DB with itself dedups provenance and doubles counts *)
  let self = Cover.Db.merge a a in
  Alcotest.(check (list string)) "self-merge dedups runs" [ "run-a" ]
    self.Cover.Db.runs;
  let hits db =
    match db.Cover.Db.toggles with e :: _ -> e.Cover.Db.t_rise | [] -> 0
  in
  Alcotest.(check int) "self-merge sums counts" (2 * hits a) (hits self)

let test_db_diff () =
  let a = sample_db ~extra_samples:[ 9 ] () in
  let b = sample_db () in
  let lost = Cover.Db.diff a b in
  Alcotest.(check bool) "bin hi covered only in a" true
    (List.mem ("bin", "g.hi") lost
    || List.exists (fun (k, i) -> k = "bin" && String.length i > 0) lost);
  Alcotest.(check (list (pair string string))) "diff of equal DBs is empty" []
    (Cover.Db.diff b b)

let test_db_json_roundtrip () =
  let db = sample_db ~extra_samples:[ 9 ] () in
  (match Cover.Db.of_json (Cover.Db.to_json db) with
  | Ok back ->
      Alcotest.(check bool) "round-trip preserves the DB" true (back = db)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (match Cover.Db.of_json (Obs.Json.Obj [ ("schema", Obs.Json.Int 3) ]) with
  | Ok _ -> Alcotest.fail "bad schema accepted"
  | Error _ -> ());
  let path = Filename.temp_file "cover" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cover.Db.save db path;
      match Cover.Db.load path with
      | Ok back ->
          Alcotest.(check bool) "save/load round-trip" true (back = db)
      | Error e -> Alcotest.failf "load failed: %s" e);
  match Cover.Db.load "/nonexistent/cover.json" with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error _ -> ()

let test_db_summary () =
  let s = Cover.Db.summary (sample_db ()) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "mentions toggle line" true
    (contains "toggle bits" s);
  Alcotest.(check bool) "marks full fsm" true (contains "[FULL]" s)

(* ------------------------------------------------------------------ *)
(* Collection in the simulators and engines                            *)

let small_design () =
  let open Builder.Dsl in
  let b = Builder.create "cov_demo" in
  let a = Builder.input b "a" 2 in
  let y = Builder.output b "y" 2 in
  Builder.sync b "reg" [ y <-- v a ];
  Builder.finish b

let drive_int set step =
  List.iter
    (fun v ->
      set "a" v;
      step ())
    [ 0; 3; 0; 2; 1 ]

let test_rtl_sim_toggle_cover () =
  let sim = Rtl_sim.create (small_design ()) in
  Rtl_sim.set_input_int sim "a" 0;
  Rtl_sim.step sim;
  Alcotest.(check bool) "off by default" true
    (Rtl_sim.toggle_cover sim = None);
  Rtl_sim.enable_toggle_cover sim;
  Rtl_sim.enable_toggle_cover sim (* idempotent *);
  drive_int (Rtl_sim.set_input_int sim) (fun () -> Rtl_sim.step sim);
  let tg =
    match Rtl_sim.toggle_cover sim with
    | Some tg -> tg
    | None -> Alcotest.fail "no collector after enable"
  in
  Alcotest.(check bool) "some bits covered" true (Cover.Toggle.covered tg > 0);
  (* y follows a through 0->3->0: both bits rose and fell *)
  let both = Cover.Toggle.covered tg in
  Alcotest.(check bool) "output bits move both ways" true (both >= 2)

(* A 4-bit accumulator: the clock-edge epoch writes combinational nets
   (the adder) as well as flip-flop outputs. *)
let acc_design () =
  let open Builder.Dsl in
  let b = Builder.create "cov_acc" in
  let a = Builder.input b "a" 4 in
  let y = Builder.output b "y" 4 in
  Builder.sync b "acc" [ y <-- (v y +: v a) ];
  Builder.finish b

(* The same run in both scheduling modes at [lanes] lanes: lane [k]
   sees its own stimulus stream through [set_input_packed], lanes 5 and
   65 (where present) carry stuck-at faults.  [collect] enables a
   collector and [read sim lane] returns a comparable view of it.  The
   two modes must agree on every lane, every lane must match a one-lane
   run of its own stimulus and fault, and distinct stimulus must make
   some lane differ from lane 0. *)
let check_modes_agree ~lanes ~collect ~read =
  let module S = Backend.Nl_sim in
  let nl = Backend.Lower.lower (acc_design ()) in
  let y = List.assoc "y" (Backend.Netlist.outputs nl) in
  let faults =
    [ (5, y.(1), true); (65, Backend.Netlist.net_count nl / 2, false) ]
  in
  (* Lanes [first ..] of the sweep, simulated as lanes [0 ..]. *)
  let run mode ~lanes ~first =
    let sim = S.create ~mode ~lanes nl in
    collect sim;
    List.iter
      (fun (lane, net, value) ->
        if lane >= first && lane < first + lanes then
          S.inject_stuck_at sim ~lane:(lane - first) ~net ~value)
      faults;
    for c = 0 to 11 do
      S.set_input_packed sim "a"
        (Bitvec.transpose
           (Array.init lanes (fun k ->
                let lane = first + k in
                let a = ((c * 5) + (lane * (c + 1))) land 15 in
                Bitvec.of_int ~width:4 a)));
      S.step sim
    done;
    Array.init lanes (read sim)
  in
  let ev = run S.Event_driven ~lanes ~first:0
  and fl = run S.Full_eval ~lanes ~first:0 in
  Array.iteri
    (fun lane e ->
      if e <> fl.(lane) then
        Alcotest.failf "%d lanes: modes disagree on lane %d" lanes lane;
      if e <> (run S.Event_driven ~lanes:1 ~first:lane).(0) then
        Alcotest.failf "%d lanes: lane %d differs from its one-lane run" lanes
          lane)
    ev;
  if lanes > 1 then
    Alcotest.(check bool) "lanes carry distinct stimulus" true
      (Array.exists (fun e -> e <> ev.(0)) ev)

let test_nl_sim_modes_agree lanes () =
  let some_covered = ref false in
  check_modes_agree ~lanes ~collect:Backend.Nl_sim.enable_toggle_cover
    ~read:(fun sim lane ->
      match Backend.Nl_sim.lane_cover sim lane with
      | Some tg ->
          if Cover.Toggle.covered tg > 0 then some_covered := true;
          List.init (Cover.Toggle.bits tg) (fun i ->
              (Cover.Toggle.rises tg i, Cover.Toggle.falls tg i))
      | None -> Alcotest.fail "no collector after enable");
  Alcotest.(check bool) "netlist covered something" true !some_covered

(* ------------------------------------------------------------------ *)
(* Activity: windowed switching-activity sampling for power            *)

let test_activity_windows () =
  let a = Cover.Activity.create ~window:4 ~slots:3 () in
  Alcotest.(check int) "window size" 4 (Cover.Activity.window_size a);
  Alcotest.(check int) "slots" 3 (Cover.Activity.slots a);
  (* 6 cycles: slot 0 toggles every cycle, slot 2 only in cycle 5 *)
  for c = 0 to 5 do
    Cover.Activity.record a 0;
    if c = 5 then Cover.Activity.record a 2;
    Cover.Activity.end_cycle a
  done;
  Alcotest.(check int) "one full window closed" 1
    (Cover.Activity.window_count a);
  Alcotest.(check int) "totals include the open window" 7
    (Cover.Activity.total_toggles a);
  Alcotest.(check int) "cycles include the open window" 6
    (Cover.Activity.cycles a);
  Cover.Activity.flush a;
  Cover.Activity.flush a (* idempotent *);
  (match Cover.Activity.windows a with
  | [ w0; w1 ] ->
      Alcotest.(check int) "w0 index" 0 w0.Cover.Activity.w_index;
      Alcotest.(check int) "w0 start" 0 w0.Cover.Activity.w_start;
      Alcotest.(check int) "w0 cycles" 4 w0.Cover.Activity.w_cycles;
      Alcotest.(check (list (pair int int))) "w0 sparse counts" [ (0, 4) ]
        w0.Cover.Activity.w_counts;
      Alcotest.(check int) "w1 start" 4 w1.Cover.Activity.w_start;
      Alcotest.(check int) "w1 partial cycles" 2 w1.Cover.Activity.w_cycles;
      Alcotest.(check (list (pair int int)))
        "w1 counts ascending by slot"
        [ (0, 2); (2, 1) ]
        w1.Cover.Activity.w_counts;
      Alcotest.(check int) "window_toggles" 3
        (Cover.Activity.window_toggles w1)
  | ws -> Alcotest.failf "expected 2 windows after flush, got %d"
            (List.length ws));
  (match Cover.Activity.peak a with
  | Some w -> Alcotest.(check int) "peak is the full window" 0
                w.Cover.Activity.w_index
  | None -> Alcotest.fail "no peak window");
  (* flushing with no pending cycles must not add an empty window *)
  Alcotest.(check int) "flush is idempotent" 2 (Cover.Activity.window_count a)

(* A window lists its slots ascending whatever order they first
   toggled in, and recording allocates nothing: every window's slots
   fit in the sampler's own stack. *)
let test_activity_record_order () =
  let a = Cover.Activity.create ~window:2 ~slots:5 () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Cover.Activity.record a 4;
    Cover.Activity.record a 1;
    Cover.Activity.record a 3;
    Cover.Activity.record a 1;
    Cover.Activity.record a 0;
    Cover.Activity.record a 2
  done;
  let words = Gc.minor_words () -. before in
  if words > 8. then Alcotest.failf "record allocated %.0f words" words;
  Cover.Activity.end_cycle a;
  Cover.Activity.record a 3;
  Cover.Activity.end_cycle a;
  Cover.Activity.record a 2;
  Cover.Activity.end_cycle a;
  Cover.Activity.flush a;
  Alcotest.(check (list (list (pair int int))))
    "ascending slots, windows start empty"
    [ [ (0, 1000); (1, 2000); (2, 1000); (3, 1001); (4, 1000) ]; [ (2, 1) ] ]
    (List.map
       (fun w -> w.Cover.Activity.w_counts)
       (Cover.Activity.windows a))

let test_activity_rejects_bad_geometry () =
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero-length window" true
    (raises (fun () -> Cover.Activity.create ~window:0 ~slots:4 ()));
  Alcotest.(check bool) "negative window" true
    (raises (fun () -> Cover.Activity.create ~window:(-3) ~slots:4 ()));
  Alcotest.(check bool) "negative slots" true
    (raises (fun () -> Cover.Activity.create ~slots:(-1) ()));
  (* zero slots is a legal degenerate sampler *)
  let a = Cover.Activity.create ~slots:0 () in
  Cover.Activity.end_cycle a;
  Alcotest.(check int) "zero-slot sampler counts cycles" 1
    (Cover.Activity.cycles a)

(* A sampler window that straddles a coverage epoch boundary: toggle
   coverage (per-epoch pre/post comparison) and the activity sampler
   ride the same change detection, so neither loses or double-counts
   toggles when their periods are coprime. *)
let test_activity_straddles_epoch () =
  let nl = Backend.Lower.lower (small_design ()) in
  let sim = Backend.Nl_sim.create ~mode:Backend.Nl_sim.Event_driven nl in
  Backend.Nl_sim.enable_toggle_cover sim;
  Backend.Nl_sim.enable_events sim (* epoch emission on *);
  Backend.Nl_sim.enable_power_sampler ~window:5 sim;
  Backend.Nl_sim.set_input_int sim "a" 0;
  for c = 1 to 13 do
    Backend.Nl_sim.set_input_int sim "a" (c land 3);
    Backend.Nl_sim.step sim
  done;
  let act =
    match Backend.Nl_sim.power_activity sim with
    | Some a -> a
    | None -> Alcotest.fail "no sampler after enable"
  in
  Alcotest.(check int) "sampler saw every cycle"
    (Backend.Nl_sim.cycles sim)
    (Cover.Activity.cycles act);
  Alcotest.(check int) "sampler toggles = simulator toggles"
    (Backend.Nl_sim.toggle_total sim)
    (Cover.Activity.total_toggles act);
  Cover.Activity.flush act;
  (* windows tile the run contiguously: starts 0,5,10 with 5,5,3 cycles *)
  let ws = Cover.Activity.windows act in
  Alcotest.(check (list (pair int int)))
    "window tiling"
    [ (0, 5); (5, 5); (10, 3) ]
    (List.map
       (fun w -> (w.Cover.Activity.w_start, w.Cover.Activity.w_cycles))
       ws)

(* Event-driven and full-eval scheduling must report identical windowed
   activity, not merely identical toggle totals. *)
let test_activity_modes_agree lanes () =
  let some_activity = ref false in
  check_modes_agree ~lanes
    ~collect:(Backend.Nl_sim.enable_power_sampler ~window:3)
    ~read:(fun sim lane ->
      match Backend.Nl_sim.lane_activity sim lane with
      | Some a ->
          Cover.Activity.flush a;
          if Cover.Activity.total_toggles a > 0 then some_activity := true;
          List.map
            (fun w ->
              ( w.Cover.Activity.w_index,
                w.Cover.Activity.w_start,
                w.Cover.Activity.w_cycles,
                w.Cover.Activity.w_counts ))
            (Cover.Activity.windows a)
      | None -> Alcotest.fail "no sampler after enable");
  Alcotest.(check bool) "some activity recorded" true !some_activity

let test_engine_power_threading () =
  let design = small_design () in
  let nl = Backend.Lower.lower design in
  let exercise expect_support eng =
    Alcotest.(check bool)
      (Engine.label eng ^ " sampler off by default")
      true
      (Engine.power_activity eng = None);
    Engine.enable_power_sampler eng;
    Engine.set_input_int eng "a" 3;
    Engine.step eng;
    Engine.set_input_int eng "a" 0;
    Engine.step eng;
    match (Engine.power_activity eng, expect_support) with
    | Some act, true ->
        Alcotest.(check bool)
          (Engine.label eng ^ " recorded activity")
          true
          (Cover.Activity.total_toggles act > 0)
    | None, false -> ()
    | Some _, false ->
        Alcotest.failf "%s unexpectedly supports power" (Engine.label eng)
    | None, true ->
        Alcotest.failf "%s lost its sampler" (Engine.label eng)
  in
  exercise true (Backend.Nl_engine.create ~label:"nl" nl);
  exercise true (Backend.Nl_engine.create ~label:"word" ~lanes:4 nl);
  exercise false (Rtl_engine.create ~label:"rtl" design);
  (* the Faulty wrapper must delegate both operations *)
  exercise true
    (Engine.inject_fault ~port:"y" (Backend.Nl_engine.create ~label:"fnl" nl))

let test_engine_cover_threading () =
  let design = small_design () in
  let exercise eng =
    Alcotest.(check bool)
      (Engine.label eng ^ " cover off by default")
      true
      (Engine.cover eng = None);
    Engine.enable_cover eng;
    Engine.set_input_int eng "a" 3;
    Engine.step eng;
    Engine.set_input_int eng "a" 0;
    Engine.step eng;
    match Engine.cover eng with
    | Some tg ->
        Alcotest.(check bool)
          (Engine.label eng ^ " recorded toggles")
          true
          (Cover.Toggle.touched tg > 0)
    | None -> Alcotest.failf "%s lost its collector" (Engine.label eng)
  in
  exercise (Rtl_engine.create ~label:"rtl" design);
  exercise (Backend.Nl_engine.create ~label:"nl" (Backend.Lower.lower design));
  (* the Faulty wrapper must delegate both operations *)
  exercise (Engine.inject_fault ~port:"y" (Rtl_engine.create ~label:"faulty" design))

let suite =
  [
    Alcotest.test_case "toggle collector" `Quick test_toggle;
    Alcotest.test_case "fsm collector" `Quick test_fsm;
    Alcotest.test_case "covergroup" `Quick test_group;
    Alcotest.test_case "db totals" `Quick test_db_totals;
    Alcotest.test_case "db merge monotone" `Quick test_db_merge_monotone;
    Alcotest.test_case "db diff" `Quick test_db_diff;
    Alcotest.test_case "db json round-trip" `Quick test_db_json_roundtrip;
    Alcotest.test_case "db summary" `Quick test_db_summary;
    Alcotest.test_case "rtl_sim toggle cover" `Quick test_rtl_sim_toggle_cover;
    Alcotest.test_case "nl_sim modes agree" `Quick (test_nl_sim_modes_agree 1);
    Alcotest.test_case "nl_sim modes agree (63 lanes)" `Quick
      (test_nl_sim_modes_agree 63);
    Alcotest.test_case "nl_sim modes agree (70 lanes)" `Quick
      (test_nl_sim_modes_agree 70);
    Alcotest.test_case "engine cover threading" `Quick
      test_engine_cover_threading;
    Alcotest.test_case "activity windows" `Quick test_activity_windows;
    Alcotest.test_case "activity rejects bad geometry" `Quick
      test_activity_rejects_bad_geometry;
    Alcotest.test_case "activity record order" `Quick
      test_activity_record_order;
    Alcotest.test_case "activity straddles epoch" `Quick
      test_activity_straddles_epoch;
    Alcotest.test_case "activity modes agree" `Quick
      (test_activity_modes_agree 1);
    Alcotest.test_case "activity modes agree (63 lanes)" `Quick
      (test_activity_modes_agree 63);
    Alcotest.test_case "activity modes agree (70 lanes)" `Quick
      (test_activity_modes_agree 70);
    Alcotest.test_case "engine power threading" `Quick
      test_engine_power_threading;
  ]

let () = Alcotest.run "cover" [ ("cover", suite) ]
