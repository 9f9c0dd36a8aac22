(* One benchmark run of one workload: set-up, the timed closed loop and,
   in a traced run, the layer probes; the result is the run's document.

   A traced run traces every other op (the odd ones), so the untraced
   ops of the same run give the end-to-end figures and the difference
   between the two halves is the tracing overhead.  After its own ops it
   runs op 1 of every other workload and the layer probes under the
   recorder in the [Probe] phase: each per-layer metric is read from the
   workload's own ops where they reach that layer, from the probe
   otherwise, and the document says which. *)

type config = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  max_ops : int;
  setup_repeats : int;
}

let end_to_end_units =
  [
    ("setup_s", "s");
    ("op_ms_p10", "ms");
    ("items_per_s", "1/s");
    ("top_heap_mb", "MB");
  ]

(* Per-layer metrics: name, unit, and how to read it from the data of
   one phase ([None] when that phase did not reach the layer). *)
let per_layer_metrics =
  let med a = if Array.length a = 0 then None else Some (Stats.median a) in
  let span_ms name ph = med (Recorder.durations_ms name ph) in
  let span_mwords name ph =
    Option.map (fun w -> w /. 1e6) (med (Recorder.allocs_words name ph))
  in
  let noted name ph = med (Recorder.notes_of name ph) in
  let step_us name q ph =
    Option.map (fun h -> Recorder.Hist.quantile_ns h q /. 1e3) (Recorder.hist_of name ph)
  in
  let speedup ph =
    match
      (span_ms "equiv.fault_campaign.jobs1" ph, span_ms "equiv.fault_campaign.jobs2" ph)
    with
    | Some serial, Some sharded -> Some (serial /. sharded)
    | _ -> None
  in
  [
    ("expocu.build_ms", "ms", span_ms "expocu.build");
    ("osss.resolve_emit_ms", "ms", span_ms "osss.resolve_emit");
    ("hdl.check_ms", "ms", span_ms "hdl.check");
    ("hdl.flatten_ms", "ms", span_ms "hdl.flatten");
    ("hdl.emit_ms", "ms", span_ms "hdl.emit");
    ("backend.lower_ms", "ms", span_ms "backend.lower");
    ("backend.lower_alloc_mwords", "Mwords", span_mwords "backend.lower");
    ("backend.lower_cells", "count", noted "backend.lower_cells");
    ("backend.opt_ms", "ms", span_ms "backend.opt");
    ("backend.opt_cells", "count", noted "backend.opt_cells");
    ("backend.opt_dffs", "count", noted "backend.opt_dffs");
    ("backend.analyze_ms", "ms", span_ms "backend.analyze");
    ("synth.flow_overhead_ms", "ms", noted "synth.flow_overhead_ms");
    ("backend.techmap_ms", "ms", span_ms "backend.techmap");
    ("backend.luts", "count", noted "backend.luts");
    ("backend.pnr_place_ms", "ms", span_ms "backend.pnr_place");
    ("backend.pnr_place_alloc_mwords", "Mwords", span_mwords "backend.pnr_place");
    ("backend.pnr_analyze_ms", "ms", span_ms "backend.pnr_analyze");
    ("backend.area_ge.osss", "GE", noted "backend.area_ge.osss");
    ("backend.area_ge.conventional", "GE", noted "backend.area_ge.conventional");
    ("backend.post_fmax_mhz.osss", "MHz", noted "backend.post_fmax_mhz.osss");
    ("backend.wirelength.osss", "grid", noted "backend.wirelength.osss");
    ("hdl.rtl_create_ms", "ms", span_ms "hdl.rtl_create");
    ("hdl.rtl_step_us.p50", "us", step_us "hdl.rtl_step" 0.5);
    ("hdl.rtl_step_us.p90", "us", step_us "hdl.rtl_step" 0.9);
    ("hdl.rtl_comb_runs_per_cycle", "runs/cycle", noted "hdl.rtl_comb_runs_per_cycle");
    ("hdl.rtl_alloc_words_per_cycle", "words/cycle", noted "hdl.rtl_alloc_words_per_cycle");
    ("backend.nl_create_ms", "ms", span_ms "backend.nl_create");
    ("backend.nl_step_us.p50", "us", step_us "backend.nl_step" 0.5);
    ("backend.nl_step_us.p90", "us", step_us "backend.nl_step" 0.9);
    ("backend.nl_evals_per_cycle", "evals/cycle", noted "backend.nl_evals_per_cycle");
    ("backend.nl_alloc_words_per_cycle", "words/cycle", noted "backend.nl_alloc_words_per_cycle");
    ("backend.nl_full_step_us.p50", "us", step_us "backend.nl_full_step" 0.5);
    ("backend.nl_full_evals_per_cycle", "evals/cycle", noted "backend.nl_full_evals_per_cycle");
    ("backend.wsim252_create_ms", "ms", span_ms "backend.wsim252_create");
    ("backend.wsim252_step_us.p50", "us", step_us "backend.wsim252_step" 0.5);
    ("backend.campaign_gate_evals", "count", noted "backend.campaign_gate_evals");
    ("backend.campaign_cycles", "count", noted "backend.campaign_cycles");
    ("backend.faults_detected", "count", noted "backend.faults_detected");
    ("backend.campaign_alloc_mwords", "Mwords", span_mwords "equiv.fault_campaign.jobs1");
    ("par.campaign_jobs1_ms.p50", "ms", span_ms "equiv.fault_campaign.jobs1");
    ("par.speedup", "ratio", speedup);
    ("par.shards", "count", noted "par.shards");
    ("par.steals", "count", noted "par.steals");
    ("cover.toggle_overhead", "ratio", noted "cover.toggle_overhead");
    ("cover.activity_overhead", "ratio", noted "cover.activity_overhead");
    ("cover.rtl_coverpoints_overhead", "ratio", noted "cover.rtl_coverpoints_overhead");
    ("obs.events_overhead", "ratio", noted "obs.events_overhead");
    ("cover.db_make_ms", "ms", span_ms "cover.db_make");
    ("cover.toggle_coverage", "ratio", noted "cover.toggle_coverage");
    ("synth.power_analyze_ms", "ms", span_ms "synth.power_analyze");
    ("obs.events_emitted", "count", noted "obs.events_emitted");
    ("engine.harness_share", "ratio", noted "engine.harness_share");
  ]

(* A fixed loop timed between ops: 100k dependent loads walking one
   random cycle through 256 KiB, timed on its second pass so that the
   op before it does not matter.  Like the simulators, it slows down when
   other tenants contend for the caches, which a register-only loop does
   not show.  Its spread says how steady the host was during the run: a
   diagnostic, not a metric. *)
let canary_ring =
  lazy
    (let n = 1 lsl 15 in
     let order = Array.init n Fun.id in
     let rng = Random.State.make [| 0xca9 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = order.(i) in
       order.(i) <- order.(j);
       order.(j) <- t
     done;
     let next = Array.make n 0 in
     Array.iteri (fun i slot -> next.(slot) <- order.((i + 1) mod n)) order;
     next)

let canary_ms () =
  let next = Lazy.force canary_ring in
  let walk () =
    let t0 = Recorder.now () in
    let j = ref 0 in
    for _ = 1 to 100_000 do
      j := next.(!j)
    done;
    ignore (Sys.opaque_identity !j);
    Recorder.ms_between t0 (Recorder.now ())
  in
  ignore (walk ());
  walk ()

let canary_limit = 0.10

type sample = { ms : float; items : float }

(* The timed part of one op, then its checks.  Traced, the op runs inside
   a root span and is followed by its per-layer breakdown; an op that
   steps engines also notes its harness share: the part of the op spent
   neither in a library call with its own span nor in an engine step. *)
let run_op ~traced (w : Workloads.t) (op : Workloads.op) =
  Recorder.on := traced;
  Recorder.sampling := (not traced) && !Recorder.phase = Recorder.Own;
  let stepped0 = Recorder.hist_total_ns () in
  let t0 = Recorder.now () in
  Recorder.span ("op." ^ w.Workloads.name) op.Workloads.run;
  let ms = Recorder.ms_between t0 (Recorder.now ()) in
  Recorder.sampling := false;
  if traced then begin
    let stepped_ms = float_of_int (Recorder.hist_total_ns () - stepped0) /. 1e6 in
    (match !Recorder.spans with
    | root :: _ when stepped_ms > 0.0 ->
        let op_ms = Recorder.span_ms root in
        Recorder.note "engine.harness_share"
          ((op_ms -. Recorder.children_ms root.Recorder.id -. stepped_ms) /. op_ms)
    | _ -> ());
    op.Workloads.breakdown ()
  end;
  let s = { ms; items = op.Workloads.items () } in
  let outcomes = op.Workloads.check () in
  Recorder.on := false;
  (s, outcomes)

type tally = { mutable passed : int; mutable known : int; mutable failed : int }

let max_failures_kept = 20
let setup_every_s = 1.0

let run cfg =
  Recorder.reset ();
  let w = cfg.workload in
  (* Every set-up and every op starts from a collected heap, so each
     measures its own work and not the garbage of the ones before; a
     set-up also starts from a cold lowering cache. *)
  let setup_once () =
    Backend.Lower.clear_cache ();
    Gc.full_major ();
    let t0 = Recorder.now () in
    let issue = w.Workloads.setup cfg.seed in
    (issue, Recorder.ms_between t0 (Recorder.now ()))
  in
  let issue, first_setup = setup_once () in
  let setup_ms = ref [ first_setup ] in
  (* More set-ups are timed between ops, one per [setup_every_s], so that
     their median spans the run as the ops do (a slow stretch of the host
     lasts seconds); short runs top up to [setup_repeats] at the end. *)
  let timed_setups traced n =
    Recorder.on := traced;
    let times = List.init n (fun _ -> snd (setup_once ())) in
    Recorder.on := false;
    times
  in
  let plain = ref [] and traced = ref [] and calib = ref [] and counts = ref [] in
  let tallies = Hashtbl.create 8 and failures = ref [] and known = ref [] in
  let failed_ops = ref 0 in
  let record k outcomes =
    let failed = ref false in
    List.iter
      (fun (check, outcome) ->
        let t =
          match Hashtbl.find_opt tallies check with
          | Some t -> t
          | None ->
              let t = { passed = 0; known = 0; failed = 0 } in
              Hashtbl.replace tallies check t;
              t
        in
        match outcome with
        | Workloads.Pass -> t.passed <- t.passed + 1
        | Workloads.Known what ->
            t.known <- t.known + 1;
            if not (List.mem what !known) then known := what :: !known
        | Workloads.Fail detail ->
            t.failed <- t.failed + 1;
            failed := true;
            if List.length !failures < max_failures_kept then
              failures := (k, check, detail) :: !failures)
      outcomes;
    if !failed then incr failed_ops
  in
  let after s = Int64.add (Recorder.now ()) (Int64.of_float (s *. 1e9)) in
  let passed t = Int64.compare (Recorder.now ()) t >= 0 in
  let deadline = after cfg.seconds and next_setup = ref (after setup_every_s) in
  let k = ref 0 in
  while !k < cfg.max_ops && (!k = 0 || not (passed deadline)) do
    if passed !next_setup then begin
      setup_ms := timed_setups false 1 @ !setup_ms;
      next_setup := after setup_every_s
    end;
    let op = issue !k in
    Gc.full_major ();
    let is_traced = cfg.trace && !k mod 2 = 1 in
    let s, outcomes = run_op ~traced:is_traced w op in
    if is_traced then traced := s :: !traced else plain := s :: !plain;
    record !k outcomes;
    if !k = 0 then counts := op.Workloads.counts ();
    calib := canary_ms () :: !calib;
    incr k
  done;
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let missing = cfg.setup_repeats - List.length !setup_ms in
  if missing > 0 then setup_ms := timed_setups false missing @ !setup_ms;
  let traced_setups = if cfg.trace then timed_setups true cfg.setup_repeats else [] in
  if cfg.trace then begin
    Recorder.phase := Recorder.Probe;
    List.iter
      (fun (other : Workloads.t) ->
        if other.Workloads.name <> w.Workloads.name then begin
          Backend.Lower.clear_cache ();
          Recorder.on := true;
          ignore (run_op ~traced:true other (other.Workloads.setup cfg.seed 1))
        end)
      Workloads.all;
    Recorder.on := true;
    Workloads.probe_layers cfg.seed;
    Recorder.on := false
  end;
  (* On a shared host, co-tenants slow whole stretches of a run down;
     the fast end of the op distribution tracks the code's own speed
     and repeats from run to run where the median does not.  Throughput
     is read at the same end: the 90th percentile of per-op rates. *)
  let figures samples setup_ms =
    let ms = Array.of_list (List.map (fun s -> s.ms) samples) in
    let rates = Array.of_list (List.map (fun s -> s.items /. (s.ms /. 1e3)) samples) in
    [
      ("setup_s", Stats.median (Array.of_list setup_ms) /. 1e3);
      ("op_ms_p10", Stats.quantile 0.1 ms);
      ("items_per_s", Stats.quantile 0.9 rates);
      ("top_heap_mb", top_heap_mb);
    ]
  in
  let untraced = figures !plain !setup_ms in
  let open Obs.Json in
  let metric_obj rows units =
    Obj
      (List.map
         (fun (name, v) ->
           (name, Obj [ ("value", Float v); ("unit", String (List.assoc name units)) ]))
         rows)
  in
  let series_obj xs =
    let s = Stats.summary (Array.of_list xs) in
    Obj [ ("p50", Float s.Stats.p50); ("p90", Float s.Stats.p90); ("n", Int s.Stats.n) ]
  in
  let series =
    [
      ("op_ms", series_obj (List.map (fun s -> s.ms) !plain));
      ("setup_ms", series_obj !setup_ms);
    ]
    @ List.sort compare
        (("host.calib_ms", series_obj !calib)
        :: Hashtbl.fold (fun name xs l -> (name, series_obj xs) :: l) Recorder.samples [])
  in
  let canary = Stats.summary (Array.of_list !calib) in
  let canary_spread = (canary.Stats.p90 -. canary.Stats.p50) /. canary.Stats.p50 in
  let tracing =
    if not cfg.trace then []
    else begin
      let traced_fig = figures !traced traced_setups in
      let recorder_mb = float_of_int (Recorder.retained_words () * (Sys.word_size / 8)) /. 1e6 in
      let per_layer =
        List.filter_map
          (fun (name, unit, read) ->
            match read Recorder.Own with
            | Some v -> Some (name, unit, v, "own")
            | None -> Option.map (fun v -> (name, unit, v, "probe")) (read Recorder.Probe))
          per_layer_metrics
      in
      [
        ( "per_layer",
          Obj
            (List.map
               (fun (name, unit, v, _) ->
                 (name, Obj [ ("value", Float v); ("unit", String unit) ]))
               per_layer) );
        ( "per_layer_source",
          Obj (List.map (fun (name, _, _, source) -> (name, String source)) per_layer) );
        ( "tracing",
          Obj
            [
              ( "overhead",
                Obj
                  (List.map
                     (fun (name, v) ->
                       (* The heap is one figure per process: its overhead
                          is what the recorder keeps alive. *)
                       if name = "top_heap_mb" then
                         (name, Obj [ ("untraced", Float v); ("traced", Null); ("delta", Float recorder_mb) ])
                       else
                         let t = List.assoc name traced_fig in
                         (name, Obj [ ("untraced", Float v); ("traced", Float t); ("delta", Float (t -. v)) ]))
                     untraced) );
              ("traced_ops", Int (List.length !traced));
              ( "self_ms",
                List
                  (List.map
                     (fun (name, ph, ms, n) ->
                       Obj
                         [
                           ("span", String name);
                           ("phase", String (Recorder.phase_name ph));
                           ("total_ms", Float ms);
                           ("spans", Int n);
                         ])
                     (Recorder.self_times ())) );
            ] );
      ]
    end
  in
  let doc =
    Obj
      ([
         ("schema", String Result_doc.schema);
         ("workload", String w.Workloads.name);
         ("seed", Int cfg.seed);
         ("seconds", Float cfg.seconds);
         ("traced", Bool cfg.trace);
         ( "host",
           Obj
             [
               ("recommended_domains", Int (Domain.recommended_domain_count ()));
               ("ocaml", String Sys.ocaml_version);
               ("word_size", Int Sys.word_size);
             ] );
         ("item", String w.Workloads.item);
         ("attempted", Int (List.length !plain + List.length !traced));
         ("failed", Int !failed_ops);
         ("metrics", metric_obj untraced end_to_end_units);
         ("series", Obj series);
         ("counts", Obj (List.map (fun (name, v) -> (name, Float v)) !counts));
         ( "checks",
           Obj
             (List.sort compare
                (Hashtbl.fold
                   (fun name t l ->
                     ( name,
                       Obj [ ("passed", Int t.passed); ("known", Int t.known); ("failed", Int t.failed) ] )
                     :: l)
                   tallies [])) );
         ( "failures",
           List
             (List.rev_map
                (fun (k, check, detail) ->
                  Obj [ ("op", Int k); ("check", String check); ("detail", String detail) ])
                !failures) );
         ("known_divergences", List (List.rev_map (fun s -> String s) !known));
         ("host_noisy", Bool (canary_spread > canary_limit));
       ]
      @ tracing)
  in
  (doc, if cfg.trace then Some (Recorder.chrome ()) else None)
