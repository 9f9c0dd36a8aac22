(* Tests for the osss.obs observability library: the JSON codec, the
   span tracer, histograms, gauges, Perf snapshots, activity profiles,
   the schema-versioned run report, and the span coverage of the
   simulator / synthesis hot paths. *)

open Hdl

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Collectors are process-global; every test leaves them off and empty. *)
let pristine f () =
  let finish () =
    Obs.Span.disable ();
    Obs.Span.reset ();
    Obs.Hist.disable ();
    Obs.Hist.reset_all ()
  in
  finish ();
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("int", Int 42);
        ("neg", Int (-7));
        ("float", Float 2.5);
        ("string", String "line\nquote\"backslash\\tab\t");
        ("list", List [ Bool true; Bool false; Null ]);
        ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
      ]
  in
  let compact = of_string (to_string doc) in
  let pretty = of_string (to_string ~pretty:true doc) in
  Alcotest.(check bool) "compact round-trip" true (compact = doc);
  Alcotest.(check bool) "pretty round-trip" true (pretty = doc)

let test_json_accessors () =
  let open Obs.Json in
  let doc = of_string {|{"a": 1, "b": [2, 3], "c": "x"}|} in
  Alcotest.(check bool) "member a" true (member "a" doc = Some (Int 1));
  Alcotest.(check bool) "member missing" true (member "z" doc = None);
  Alcotest.(check (option string)) "string_value" (Some "x")
    (Option.bind (member "c" doc) string_value);
  Alcotest.(check int) "list length" 2
    (List.length (Option.get (Option.bind (member "b" doc) to_list)))

let test_json_parse_error () =
  let bad s =
    try
      ignore (Obs.Json.of_string s);
      false
    with Obs.Json.Parse_error _ -> true
  in
  Alcotest.(check bool) "unterminated object" true (bad "{\"a\": 1");
  Alcotest.(check bool) "garbage" true (bad "nope");
  Alcotest.(check bool) "trailing junk" true (bad "{} {}")

(* ------------------------------------------------------------------ *)
(* Span                                                                *)

let test_span_disabled () =
  Alcotest.(check bool) "off by default" false (Obs.Span.enabled ());
  let r = Obs.Span.with_ ~name:"ghost" (fun () -> 42) in
  Alcotest.(check int) "transparent" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (Obs.Span.span_count ())

let test_span_nesting () =
  Obs.Span.enable ();
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_
        ~attrs:[ ("key", "value") ]
        ~name:"inner"
        (fun () -> ());
      Obs.Span.add_attr "note" "after-child");
  let roots = Obs.Span.root_spans () in
  Alcotest.(check int) "one root" 1 (List.length roots);
  let outer = List.hd roots in
  Alcotest.(check string) "root name" "outer" (Obs.Span.name outer);
  Alcotest.(check bool) "root attr" true
    (List.mem_assoc "note" (Obs.Span.attrs outer));
  (match Obs.Span.children outer with
  | [ inner ] ->
      Alcotest.(check string) "child name" "inner" (Obs.Span.name inner);
      Alcotest.(check (option string)) "child attr" (Some "value")
        (List.assoc_opt "key" (Obs.Span.attrs inner));
      Alcotest.(check bool) "duration non-negative" true
        (Obs.Span.duration_ms inner >= 0.0)
  | other ->
      Alcotest.failf "expected exactly one child, got %d" (List.length other));
  Alcotest.(check bool) "find_root inner" true
    (Obs.Span.find_root ~name:"inner" <> None)

let test_span_exception () =
  Obs.Span.enable ();
  (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  match Obs.Span.find_root ~name:"boom" with
  | None -> Alcotest.fail "span lost on exception"
  | Some sp ->
      Alcotest.(check bool) "exception attr" true
        (List.mem_assoc "exception" (Obs.Span.attrs sp))

let test_span_chrome_export () =
  Obs.Span.enable ();
  Obs.Span.with_ ~name:"parent" (fun () ->
      Obs.Span.with_ ~name:"child" (fun () -> ()));
  (* the array form of the trace-event format: a bare list of events *)
  let events =
    match Obs.Json.to_list (Obs.Span.to_chrome_events ()) with
    | Some evs -> evs
    | None -> Alcotest.fail "chrome export is not a JSON array"
  in
  Alcotest.(check int) "two events" 2 (List.length events);
  List.iter
    (fun ev ->
      Alcotest.(check (option string)) "complete event" (Some "X")
        (Option.bind (Obs.Json.member "ph" ev) Obs.Json.string_value);
      Alcotest.(check bool) "has ts" true (Obs.Json.member "ts" ev <> None);
      Alcotest.(check bool) "has dur" true (Obs.Json.member "dur" ev <> None))
    events;
  (* the exported text parses back *)
  Alcotest.(check bool) "chrome_json parses" true
    (Obs.Json.of_string (Obs.Span.chrome_json ()) <> Obs.Json.Null)

(* ------------------------------------------------------------------ *)
(* Hist / Gauge                                                       *)

let test_hist () =
  let h = Obs.Hist.histogram "test.hist" in
  Obs.Hist.observe_int h 99;
  Alcotest.(check int) "disabled: not recorded" 0 (Obs.Hist.count h);
  Obs.Hist.enable ();
  List.iter (Obs.Hist.observe_int h) [ 1; 2; 3; 4; 100 ];
  Alcotest.(check int) "count" 5 (Obs.Hist.count h);
  Alcotest.(check (float 1e-9)) "sum" 110.0 (Obs.Hist.sum h);
  Alcotest.(check (float 1e-9)) "mean" 22.0 (Obs.Hist.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Obs.Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Obs.Hist.max_value h);
  Alcotest.(check bool) "same name, same histogram" true
    (Obs.Hist.histogram "test.hist" == h);
  let j = Obs.Hist.to_json h in
  Alcotest.(check bool) "json has buckets" true
    (Obs.Json.member "buckets" j <> None)

let test_hist_percentile () =
  Obs.Hist.enable ();
  let h = Obs.Hist.histogram "test.pct" in
  List.iter (Obs.Hist.observe_int h) [ 1; 2; 4; 8 ];
  (* power-of-two buckets hold exactly one observation each, so the
     interpolated percentiles are exact *)
  Alcotest.(check (float 1e-9)) "p0 is the min" 1.0 (Obs.Hist.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p50" 4.0 (Obs.Hist.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p100 is the max" 8.0
    (Obs.Hist.percentile h 100.0);
  Alcotest.(check bool) "monotone in q" true
    (Obs.Hist.percentile h 25.0 <= Obs.Hist.percentile h 75.0);
  let single = Obs.Hist.histogram "test.pct.single" in
  List.iter (Obs.Hist.observe_int single) [ 5; 5; 5 ];
  Alcotest.(check (float 1e-9)) "single-valued bucket exact" 5.0
    (Obs.Hist.percentile single 50.0);
  Alcotest.(check (float 1e-9)) "clamped above" 5.0
    (Obs.Hist.percentile single 400.0);
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0
    (Obs.Hist.percentile (Obs.Hist.histogram "test.pct.empty") 50.0)

let test_gauge () =
  let g = Obs.Gauge.gauge "test.gauge" in
  Obs.Gauge.set_int g 7;
  Obs.Gauge.add g 0.5;
  Alcotest.(check (float 1e-9)) "value" 7.5 (Obs.Gauge.value g);
  Alcotest.(check bool) "in all_to_json" true
    (Obs.Json.member "test.gauge" (Obs.Gauge.all_to_json ()) <> None)

(* ------------------------------------------------------------------ *)
(* Perf snapshot/diff                                                  *)

let test_perf_snapshot () =
  let c = Perf.counter "test.obs.snapshot" in
  Perf.incr c;
  let before = Perf.snapshot () in
  Perf.incr ~by:3 c;
  let deltas = Perf.since before in
  Alcotest.(check (option int)) "delta of bumped counter" (Some 3)
    (List.assoc_opt "test.obs.snapshot" deltas);
  Alcotest.(check bool) "quiet counters excluded" true
    (List.for_all (fun (_, d) -> d <> 0) deltas);
  let after = Perf.snapshot () in
  Alcotest.(check bool) "no-change diff is empty of this counter" true
    (List.assoc_opt "test.obs.snapshot" (Perf.diff ~before:after ~after) = None)

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)

let test_profile_top () =
  let entries = Obs.Profile.top ~k:2 [ ("a", 1); ("b", 6); ("c", 3) ] in
  Alcotest.(check (list string)) "ranked" [ "b"; "c" ]
    (List.map (fun e -> e.Obs.Profile.label) entries);
  Alcotest.(check (float 1e-9)) "share over full total" 0.6
    (List.hd entries).Obs.Profile.share;
  let table = Obs.Profile.table ~title:"hot things" entries in
  Alcotest.(check bool) "table titled" true (contains "hot things" table);
  Alcotest.(check bool) "table lists winner" true (contains "b" table)

let test_profile_by_module () =
  let agg =
    Obs.Profile.by_module
      [ ("u_i2c.status", 3); ("u_i2c.bit", 2); ("u_hist.read", 4); ("top", 1) ]
  in
  Alcotest.(check (option int)) "u_i2c" (Some 5) (List.assoc_opt "u_i2c" agg);
  Alcotest.(check (option int)) "u_hist" (Some 4) (List.assoc_opt "u_hist" agg);
  Alcotest.(check (option int)) "no-dot name kept" (Some 1)
    (List.assoc_opt "top" agg)

let test_profile_by_module_degenerate () =
  (* Names without a hierarchy separator, or with a leading one, must
     stay whole — nothing may land in an invisible ""-module bucket. *)
  let agg =
    Obs.Profile.by_module [ ("plain", 3); (".leading", 2); ("a.b", 1) ]
  in
  Alcotest.(check (option int)) "no empty-string bucket" None
    (List.assoc_opt "" agg);
  Alcotest.(check (option int)) "separator-free name is its own module"
    (Some 3) (List.assoc_opt "plain" agg);
  Alcotest.(check (option int)) "leading-dot name kept whole" (Some 2)
    (List.assoc_opt ".leading" agg);
  Alcotest.(check (option int)) "normal name still split" (Some 1)
    (List.assoc_opt "a" agg);
  Alcotest.(check int) "every count lands somewhere" 6
    (List.fold_left (fun acc (_, n) -> acc + n) 0 agg)

(* ------------------------------------------------------------------ *)
(* Run report                                                          *)

let test_report_roundtrip () =
  Obs.Hist.enable ();
  Obs.Hist.observe_int (Obs.Hist.histogram "test.report.hist") 5;
  let report =
    Obs.Report.make
      ~profiles:[ ("hot_nets", Obs.Profile.top [ ("n1", 2); ("n2", 1) ]) ]
      ~extra:[ ("workload", Obs.Json.String "unit-test") ]
      ~run:"test" ()
  in
  (match Obs.Report.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh report invalid: %s" e);
  (* full serialize/parse/validate round trip, as CI does it *)
  (match Obs.Report.validate_string (Obs.Json.to_string ~pretty:true report) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "round-tripped report invalid: %s" e);
  Alcotest.(check (option string)) "extra preserved" (Some "unit-test")
    (Option.bind (Obs.Json.member "workload" report) Obs.Json.string_value)

let test_report_rejects_corrupt () =
  let report = Obs.Report.make ~run:"test" () in
  let patch key value =
    match report with
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) kvs)
    | _ -> Alcotest.fail "report is not an object"
  in
  let rejected doc =
    match Obs.Report.validate doc with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "wrong schema" true
    (rejected (patch "schema" (Obs.Json.String "osss.run-report/v999")));
  Alcotest.(check bool) "non-integer counters" true
    (rejected
       (patch "counters" (Obs.Json.Obj [ ("x", Obs.Json.String "nope") ])));
  Alcotest.(check bool) "spans not a list" true
    (rejected (patch "spans" (Obs.Json.Int 3)));
  Alcotest.(check bool) "not even an object" true
    (rejected (Obs.Json.List []));
  Alcotest.(check bool) "garbage text" true
    (match Obs.Report.validate_string "]]" with
    | Ok () -> false
    | Error _ -> true)

(* A report as PR-3-era tooling wrote it (schema v1, no coverage
   section), frozen as text: old artifacts must keep validating. *)
let v1_fixture =
  {|{
  "schema": "osss.run-report/v1",
  "run": "pr3-era",
  "counters": {"rtl_sim.steps": 10},
  "histograms": {"h": {"count": 1, "sum": 2.0, "buckets": [[2.0, 1]]}},
  "gauges": {},
  "spans": [],
  "profiles": {"hot_nets": []}
}|}

let test_report_v1_regression () =
  (match Obs.Report.validate_string v1_fixture with
  | Ok () -> ()
  | Error e -> Alcotest.failf "v1 report rejected: %s" e);
  (* ...but a v1 stamp cannot carry the v2 coverage section *)
  let with_coverage =
    match Obs.Json.of_string v1_fixture with
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj (kvs @ [ ("coverage", Obs.Json.Obj []) ])
    | _ -> Alcotest.fail "fixture is not an object"
  in
  Alcotest.(check bool) "v1 with coverage rejected" true
    (match Obs.Report.validate with_coverage with
    | Ok () -> false
    | Error _ -> true)

let test_report_v2_coverage () =
  let db = Cover.Db.make ~run:"unit" () in
  let report =
    Obs.Report.make ~coverage:(Cover.Db.to_json db) ~run:"test" ()
  in
  (match Obs.Report.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "v2 report with coverage invalid: %s" e);
  let patched value =
    match report with
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.map (fun (k, v) -> if k = "coverage" then (k, value) else (k, v)) kvs)
    | _ -> Alcotest.fail "report is not an object"
  in
  let rejected doc =
    match Obs.Report.validate doc with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "coverage must be an object" true
    (rejected (patched (Obs.Json.Int 3)));
  Alcotest.(check bool) "coverage needs a schema stamp" true
    (rejected (patched (Obs.Json.Obj [ ("toggles", Obs.Json.List []) ])));
  Alcotest.(check bool) "stamp must be a coverage-db stamp" true
    (rejected
       (patched (Obs.Json.Obj [ ("schema", Obs.Json.String "osss.run-report/v2") ])))

(* A report as PR-8-era tooling wrote it (schema v2, coverage but no
   power section), frozen as text: old artifacts must keep validating. *)
let v2_fixture =
  {|{
  "schema": "osss.run-report/v2",
  "run": "pr8-era",
  "counters": {"nl_sim.steps": 12},
  "histograms": {},
  "gauges": {},
  "spans": [],
  "profiles": {},
  "coverage": {"schema": "osss.coverage-db/v1", "run": "pr8-era",
               "toggles": [], "fsms": [], "groups": [], "monitors": []}
}|}

let append_section fixture key value =
  match Obs.Json.of_string fixture with
  | Obs.Json.Obj kvs -> Obs.Json.Obj (kvs @ [ (key, value) ])
  | _ -> Alcotest.fail "fixture is not an object"

let test_report_v2_regression () =
  (match Obs.Report.validate_string v2_fixture with
  | Ok () -> ()
  | Error e -> Alcotest.failf "v2 report rejected: %s" e);
  (* ...but neither a v1 nor a v2 stamp can carry the v3 power section *)
  let rejected doc =
    match Obs.Report.validate doc with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "v2 with power rejected" true
    (rejected (append_section v2_fixture "power" (Obs.Json.Obj [])));
  Alcotest.(check bool) "v1 with power rejected" true
    (rejected (append_section v1_fixture "power" (Obs.Json.Obj [])))

(* ------------------------------------------------------------------ *)
(* Span coverage of the instrumented layers                            *)

let small_design () =
  let open Builder.Dsl in
  let b = Builder.create "obs_demo" in
  let a = Builder.input b "a" 4 in
  let x = Builder.input b "x" 4 in
  let y = Builder.output b "y" 4 in
  Builder.sync b "acc" [ y <-- (v a +: v x) ];
  Builder.finish b

let test_report_v3_power () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (small_design ())) in
  let pow = Synth.Power_dyn.measure ~cycles:32 nl in
  let report =
    Obs.Report.make ~power:(Synth.Power_dyn.to_json pow) ~run:"test" ()
  in
  (match Obs.Report.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "v3 report with power invalid: %s" e);
  (* full serialize/parse/validate round trip, as CI does it *)
  (match Obs.Report.validate_string (Obs.Json.to_string ~pretty:true report) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "round-tripped v3 report invalid: %s" e);
  let patched value =
    match report with
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.map (fun (k, v) -> if k = "power" then (k, value) else (k, v)) kvs)
    | _ -> Alcotest.fail "report is not an object"
  in
  let rejected doc =
    match Obs.Report.validate doc with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "power must be an object" true
    (rejected (patched (Obs.Json.String "hot")));
  let drop key =
    match Obs.Json.member "power" report with
    | Some (Obs.Json.Obj kvs) ->
        patched (Obs.Json.Obj (List.filter (fun (k, _) -> k <> key) kvs))
    | _ -> Alcotest.fail "power section is not an object"
  in
  Alcotest.(check bool) "power needs total_energy_pj" true
    (rejected (drop "total_energy_pj"));
  Alcotest.(check bool) "power needs avg_mw" true (rejected (drop "avg_mw"));
  Alcotest.(check bool) "power needs samples" true (rejected (drop "samples"));
  let replace key value =
    match Obs.Json.member "power" report with
    | Some (Obs.Json.Obj kvs) ->
        patched
          (Obs.Json.Obj
             (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) kvs))
    | _ -> Alcotest.fail "power section is not an object"
  in
  Alcotest.(check bool) "samples must be a list" true
    (rejected (replace "samples" (Obs.Json.Int 3)));
  Alcotest.(check bool) "by_module must be a list" true
    (rejected (replace "by_module" (Obs.Json.String "u_top")));
  Alcotest.(check bool) "peak_mw must be a number" true
    (rejected (replace "peak_mw" (Obs.Json.String "1.5")))

let test_flow_span_coverage () =
  Obs.Span.enable ();
  let result = Synth.Flow.run Synth.Flow.Osss (small_design ()) in
  let root =
    match Obs.Span.find_root ~name:"flow.run" with
    | Some sp -> sp
    | None -> Alcotest.fail "no flow.run span"
  in
  List.iter
    (fun (p : Synth.Flow.pass) ->
      let sub = "flow." ^ p.Synth.Flow.pass_name in
      if Obs.Span.find ~name:sub root = None then
        Alcotest.failf "pass %s has no span" sub)
    result.Synth.Flow.passes;
  Alcotest.(check bool) "pass count sane" true
    (List.length result.Synth.Flow.passes >= 5)

let test_sim_span_coverage () =
  Obs.Span.enable ();
  Obs.Hist.enable ();
  let design = small_design () in
  (* RTL interpreter *)
  let sim = Rtl_sim.create design in
  Rtl_sim.set_input_int sim "a" 3;
  Rtl_sim.set_input_int sim "x" 4;
  Rtl_sim.step sim;
  (match Obs.Span.find_root ~name:"rtl_sim.step" with
  | None -> Alcotest.fail "no rtl_sim.step span"
  | Some sp ->
      Alcotest.(check bool) "settle nested under step" true
        (Obs.Span.find ~name:"rtl_sim.settle" sp <> None));
  (* gate-level simulator *)
  let nl = Backend.Lower.lower design in
  let gsim = Backend.Nl_sim.create nl in
  Backend.Nl_sim.set_input_int gsim "a" 3;
  Backend.Nl_sim.set_input_int gsim "x" 4;
  Backend.Nl_sim.step gsim;
  (match Obs.Span.find_root ~name:"nl_sim.step" with
  | None -> Alcotest.fail "no nl_sim.step span"
  | Some sp ->
      Alcotest.(check bool) "evals attr" true
        (List.mem_assoc "evals" (Obs.Span.attrs sp)));
  Alcotest.(check int) "results agree" 7
    (Backend.Nl_sim.get_output_int gsim "y");
  Alcotest.(check bool) "settle histogram recorded" true
    (Obs.Hist.count (Obs.Hist.histogram "rtl_sim.dirty_vars_per_settle") > 0);
  (* Nets touched per step counts nets, not words: broadcast stimulus
     touches the same nets at 70 lanes (two words per net) as at one.
     An accumulator, so the clock edge also moves combinational nets. *)
  let acc =
    let open Builder.Dsl in
    let b = Builder.create "obs_acc" in
    let a = Builder.input b "a" 4 in
    let y = Builder.output b "y" 4 in
    Builder.sync b "acc" [ y <-- (v y +: v a) ];
    Backend.Lower.lower (Builder.finish b)
  in
  let touched lanes =
    let h = Obs.Hist.histogram "nl_sim.nets_touched_per_step" in
    Obs.Hist.reset h;
    let s = Backend.Nl_sim.create ~lanes acc in
    List.iter
      (fun a ->
        Backend.Nl_sim.set_input_int s "a" a;
        Backend.Nl_sim.step s)
      [ 3; 5; 0 ];
    Obs.Hist.sum h
  in
  Alcotest.(check bool) "nets touched recorded" true (touched 1 > 0.0);
  Alcotest.(check (float 0.0)) "nets touched at 70 lanes" (touched 1)
    (touched 70)

let test_nl_profiling () =
  let design = small_design () in
  let nl = Backend.Lower.lower design in
  let sim = Backend.Nl_sim.create nl in
  Backend.Nl_sim.enable_profile sim;
  Backend.Nl_sim.set_input_int sim "a" 1;
  Backend.Nl_sim.set_input_int sim "x" 2;
  for i = 0 to 9 do
    Backend.Nl_sim.set_input_int sim "a" (i mod 16);
    Backend.Nl_sim.step sim
  done;
  let cells = Backend.Nl_sim.cell_activity sim in
  Alcotest.(check bool) "cell profile non-empty" true (cells <> []);
  Alcotest.(check bool) "cell counts ranked" true
    (match cells with
    | (_, a) :: (_, b) :: _ -> a >= b
    | _ -> true);
  let nets = Backend.Nl_sim.net_activity sim in
  Alcotest.(check bool) "net profile non-empty" true (nets <> []);
  Alcotest.(check bool) "port bits labelled" true
    (List.exists (fun (l, _) -> contains "a[" l || l = "a" || contains "y[" l) nets);
  Alcotest.(check bool) "toggle_total consistent" true
    (Backend.Nl_sim.toggle_total sim
    = List.fold_left (fun acc (_, c) -> acc + c) 0 nets)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick (pristine test_json_roundtrip);
    Alcotest.test_case "json accessors" `Quick (pristine test_json_accessors);
    Alcotest.test_case "json parse errors" `Quick (pristine test_json_parse_error);
    Alcotest.test_case "span disabled" `Quick (pristine test_span_disabled);
    Alcotest.test_case "span nesting" `Quick (pristine test_span_nesting);
    Alcotest.test_case "span exception" `Quick (pristine test_span_exception);
    Alcotest.test_case "span chrome export" `Quick
      (pristine test_span_chrome_export);
    Alcotest.test_case "histogram" `Quick (pristine test_hist);
    Alcotest.test_case "histogram percentile" `Quick
      (pristine test_hist_percentile);
    Alcotest.test_case "gauge" `Quick (pristine test_gauge);
    Alcotest.test_case "perf snapshot" `Quick (pristine test_perf_snapshot);
    Alcotest.test_case "profile top" `Quick (pristine test_profile_top);
    Alcotest.test_case "profile by module" `Quick
      (pristine test_profile_by_module);
    Alcotest.test_case "profile by module degenerate names" `Quick
      (pristine test_profile_by_module_degenerate);
    Alcotest.test_case "report round-trip" `Quick (pristine test_report_roundtrip);
    Alcotest.test_case "report rejects corrupt" `Quick
      (pristine test_report_rejects_corrupt);
    Alcotest.test_case "report v1 regression" `Quick
      (pristine test_report_v1_regression);
    Alcotest.test_case "report v2 regression" `Quick
      (pristine test_report_v2_regression);
    Alcotest.test_case "report v3 power" `Quick
      (pristine test_report_v3_power);
    Alcotest.test_case "report v2 coverage" `Quick
      (pristine test_report_v2_coverage);
    Alcotest.test_case "flow span coverage" `Quick
      (pristine test_flow_span_coverage);
    Alcotest.test_case "sim span coverage" `Quick
      (pristine test_sim_span_coverage);
    Alcotest.test_case "netlist profiling" `Quick (pristine test_nl_profiling);
  ]

let () = Alcotest.run "obs" [ ("obs", suite) ]
