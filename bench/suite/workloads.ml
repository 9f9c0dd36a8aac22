(* The six benchmark workloads.

   Each is a closed loop with one client: ops run back to back, the next
   one issued only after the previous op and its checks are done, and
   every op of a workload does the same work.  The seed picks every
   generated input (pixel streams, campaign stimulus); the library only
   receives the generated inputs.  Output checks run outside the timed
   part of an op.

   Library entry points driven here, all public; a change to one of
   their signatures is a change to the benchmark:
   - Expocu.Expocu_top.{osss_top,rtl_top}
   - Synth.Flow.run
   - Ir.check_module, Elaborate.flatten, Verilog.emit, Vhdl.emit,
     Osss.Resolve.emit_module, Synth.Analyzer.report and
     Backend.{Lower,Opt,Techmap,Pnr,Area,Timing}
   - Rtl_sim, Rtl_engine, Backend.Nl_engine.{create,create_word} and the
     Engine.* functions
   - Backend.Equiv.fault_campaign, Cover.Db, Expocu.{Coverpoints,Monitors},
     Assert_mon, Synth.Power_dyn.analyze and Obs.Event *)

type outcome = Pass | Known of string | Fail of string

type op = {
  run : unit -> unit;  (* the timed part *)
  items : unit -> float;  (* work completed by [run] *)
  check : unit -> (string * outcome) list;  (* untimed *)
  counts : unit -> (string * float) list;
      (* simulated statistics, repeating exactly for a seed; read from op 0 *)
  breakdown : unit -> unit;
      (* traced ops only, untimed: direct calls into each layer *)
}

type t = {
  name : string;
  item : string;  (* what [items] counts *)
  setup : int -> int -> op;
      (* [setup seed] is everything before op 0; applied to [k] it
         generates op [k]'s inputs (untimed) *)
}

let span = Recorder.span
let note = Recorder.note
let nothing () = ()

(* Wall time of [f ()] in ms, kept as a named series of the run. *)
let timed name f =
  let t0 = Recorder.now () in
  let v = f () in
  Recorder.sample name (Recorder.ms_between t0 (Recorder.now ()));
  v

let frame_pixels = 1024

(* The set-up of the simulation workloads: the conventional top, its
   lowered netlist, and the seeded input generator. *)
let sim_setup seed =
  let rtl = span "expocu.build" (fun () -> Expocu.Expocu_top.rtl_top ()) in
  let nl = span "backend.lower" (fun () -> Backend.Lower.lower rtl) in
  (rtl, nl, Random.State.make [| seed |])

(* ------------------------------------------------------------------ *)
(* synth_flow and layout_flow                                          *)

(* Opt.optimize drops 28 of the 491 flip-flops of both ExpoCU tops (the
   flow's CEC invariant only reports differing register counts).  On the
   directed frame the optimised netlist first departs from the RTL
   interpreter exactly here.  Until Opt is fixed this divergence is
   reported as known on every run; any other divergence fails the op. *)
let known_opt_divergence =
  { Frames.cycle = 286; port = "median_bin"; expected = 7; got = 0 }

let check_pixels = 256

(* One op takes the OSSS top, then the conventional top, through
   Synth.Flow.run from a cold lowering cache; with [layout] the flow goes
   on through techmap and place & route. *)
let flow_workload ~name ~layout =
  let setup seed =
    let designs =
      span "expocu.build" (fun () ->
          [
            (Synth.Flow.Osss, "osss", Expocu.Expocu_top.osss_top ());
            (Synth.Flow.Vhdl, "conventional", Expocu.Expocu_top.rtl_top ());
          ])
    in
    let directed = Frames.directed_pixels check_pixels in
    let seeded = Frames.random_pixels (Random.State.make [| seed |]) check_pixels in
    let refs =
      List.map
        (fun (_, label, d) ->
          let reference px = Frames.record (Rtl_engine.create d) px in
          (label, (reference directed, reference seeded)))
        designs
    in
    (* Per design, the netlist texts and layout already verified, with
       their outcomes: an op producing the same ones behaves the same. *)
    let verified = Hashtbl.create 2 in
    let against nl reference px =
      Frames.first_mismatch ~reference (Frames.record (Backend.Nl_engine.create nl) px)
    in
    let verify label d (r : Synth.Flow.result) raw_text =
      let on_directed, on_seeded = List.assoc label refs in
      let raw = Backend.Lower.lower d in
      let lowered =
        if Backend.Netlist.emit_verilog raw <> raw_text then
          Fail "memoized lowering differs from the flow's lowered netlist"
        else
          match (against raw on_directed directed, against raw on_seeded seeded) with
          | None, None -> Pass
          | Some m, _ -> Fail ("directed frame: " ^ Frames.describe m)
          | None, Some m -> Fail ("seeded frame: " ^ Frames.describe m)
      in
      let optimised =
        match against r.Synth.Flow.netlist on_directed directed with
        | None -> Pass
        | Some m when m = known_opt_divergence ->
            Known ("opt_vs_rtl " ^ label ^ ", directed frame: " ^ Frames.describe m)
        | Some m -> Fail ("directed frame: " ^ Frames.describe m)
      in
      let placed =
        if layout && r.Synth.Flow.layout = None then
          [ ("layout", Fail "layout flow returned no layout") ]
        else []
      in
      [ ("lower_vs_rtl", lowered); ("opt_vs_rtl", optimised) ] @ placed
    in
    fun _ ->
      let results = ref [] in
      let run () =
        results :=
          List.map
            (fun (kind, label, d) ->
              Backend.Lower.clear_cache ();
              let t0 = Recorder.now () in
              let r = span "synth.flow_run" (fun () -> Synth.Flow.run ~layout kind d) in
              (kind, label, d, Recorder.ms_between t0 (Recorder.now ()), r))
            designs
      in
      let check () =
        List.concat_map
          (fun (_, label, d, _, (r : Synth.Flow.result)) ->
            let text suffix =
              List.assoc_opt (d.Ir.mod_name ^ suffix) r.Synth.Flow.intermediate
            in
            match (text "_netlist_raw.v", text "_netlist.v") with
            | Some raw_text, Some opt_text -> (
                let key = (raw_text, opt_text, r.Synth.Flow.layout) in
                match Hashtbl.find_opt verified label with
                | Some (seen, outcomes) when seen = key -> outcomes
                | _ ->
                    let outcomes = verify label d r raw_text in
                    Hashtbl.replace verified label (key, outcomes);
                    outcomes)
            | _ -> [ ("netlist_artifacts", Fail "flow emitted no netlist text") ])
          !results
      in
      let counts () =
        List.concat_map
          (fun (_, label, _, _, (r : Synth.Flow.result)) ->
            let c field v = (name ^ "." ^ label ^ "." ^ field, v) in
            [
              c "raw_cells" (float_of_int r.Synth.Flow.raw_cells);
              c "cells" (float_of_int (Backend.Netlist.cell_count r.Synth.Flow.netlist));
              c "ffs" (float_of_int r.Synth.Flow.area.Backend.Area.n_ffs);
              c "area_ge" r.Synth.Flow.area.Backend.Area.total;
              c "critical_ns" r.Synth.Flow.timing.Backend.Timing.critical_ns;
            ]
            @
            match r.Synth.Flow.layout with
            | Some l ->
                [
                  c "luts" (float_of_int l.Synth.Flow.luts);
                  c "wirelength" l.Synth.Flow.wirelength;
                  c "post_fmax_mhz" l.Synth.Flow.post_fmax_mhz;
                ]
            | None -> [])
          !results
      in
      (* The flow's passes called one by one on the same design, so each
         layer gets its own span; what Flow.run takes beyond their sum is
         the flow's own overhead (artifact texts, pass bookkeeping). *)
      let breakdown () =
        List.iter
          (fun (kind, label, d, flow_ms, (r : Synth.Flow.result)) ->
            Backend.Lower.clear_cache ();
            let direct_ms = ref 0.0 in
            let pass name f =
              let t0 = Recorder.now () in
              let v = span name f in
              direct_ms := !direct_ms +. Recorder.ms_between t0 (Recorder.now ());
              v
            in
            let osss = label = "osss" in
            pass "hdl.check" (fun () -> Ir.check_module d);
            let flat = pass "hdl.flatten" (fun () -> Elaborate.flatten d) in
            pass "hdl.emit" (fun () ->
                ignore (Verilog.emit d);
                ignore (Verilog.emit flat);
                if kind = Synth.Flow.Vhdl then begin
                  ignore (Vhdl.emit d);
                  ignore (Vhdl.emit flat)
                end);
            if osss then
              ignore (pass "osss.resolve_emit" (fun () -> Osss.Resolve.emit_module flat));
            let raw = pass "backend.lower" (fun () -> Backend.Lower.lower d) in
            let nl = pass "backend.opt" (fun () -> Backend.Opt.optimize raw) in
            if layout then begin
              let mapped = pass "backend.techmap" (fun () -> Backend.Techmap.map nl) in
              let placement = pass "backend.pnr_place" (fun () -> Backend.Pnr.place mapped) in
              ignore (pass "backend.pnr_analyze" (fun () -> Backend.Pnr.analyze placement));
              if osss then note "backend.luts" (float_of_int (Backend.Techmap.lut_count mapped))
            end;
            let area =
              pass "backend.analyze" (fun () ->
                  let area = Backend.Area.analyze nl in
                  ignore (Backend.Timing.analyze nl);
                  ignore (Backend.Area.by_module nl);
                  ignore (Backend.Timing.by_module nl);
                  ignore (Synth.Analyzer.report d);
                  area)
            in
            note "synth.flow_overhead_ms" (flow_ms -. !direct_ms);
            note ("backend.area_ge." ^ label) r.Synth.Flow.area.Backend.Area.total;
            if osss then begin
              note "backend.lower_cells" (float_of_int (Backend.Netlist.cell_count raw));
              note "backend.opt_cells" (float_of_int (Backend.Netlist.cell_count nl));
              note "backend.opt_dffs" (float_of_int area.Backend.Area.n_ffs);
              match r.Synth.Flow.layout with
              | Some l ->
                  note "backend.post_fmax_mhz.osss" l.Synth.Flow.post_fmax_mhz;
                  note "backend.wirelength.osss" l.Synth.Flow.wirelength
              | None -> ()
            end)
          !results
      in
      {
        run;
        items = (fun () -> float_of_int (List.length !results));
        check;
        counts;
        breakdown;
      }
  in
  { name; item = "designs"; setup }

let synth_flow = flow_workload ~name:"synth_flow" ~layout:false
let layout_flow = flow_workload ~name:"layout_flow" ~layout:true

(* ------------------------------------------------------------------ *)
(* frame_sim and full_eval_sim                                         *)

type frame = { cycles : int; final : int array; stats : (string * int) list }

(* One fresh engine through one frame.  Traced, the create call is a
   span named [layer ^ "_create"], every step lands in the
   [layer ^ "_step"] histogram, and allocation and the engine's [work]
   counter are noted per cycle under [layer]. *)
let frame ~layer ~work:(stat, work) create pixels =
  let e = span (layer ^ "_create") create in
  let traced = !Recorder.on in
  let hist = if traced then Some (Recorder.hist (layer ^ "_step")) else None in
  let a0 = if traced then Recorder.allocated_words () else 0.0 in
  let cycles = Frames.run ?hist e pixels in
  let stats = Engine.stats e in
  if traced then begin
    let per_cycle v = v /. float_of_int cycles in
    note (layer ^ "_alloc_words_per_cycle")
      (per_cycle (Recorder.allocated_words () -. a0));
    note (layer ^ "_" ^ work ^ "_per_cycle")
      (per_cycle (float_of_int (List.assoc stat stats)))
  end;
  { cycles; final = Frames.final e; stats }

let rtl_frame rtl pixels =
  frame ~layer:"hdl.rtl" ~work:("comb_runs", "comb_runs")
    (fun () -> Rtl_engine.create rtl)
    pixels

let same_frame ~reference f =
  if f.cycles <> reference.cycles then
    Fail (Printf.sprintf "frame took %d cycles, RTL %d" f.cycles reference.cycles)
  else
    match
      List.find_opt
        (fun j -> f.final.(j) <> reference.final.(j))
        (List.init Frames.n_out Fun.id)
    with
    | None -> Pass
    | Some j ->
        Fail
          (Printf.sprintf "final %s = %d, RTL %d" Frames.outputs.(j) f.final.(j)
             reference.final.(j))

let frame_counts prefix f =
  ((prefix ^ ".cycles", float_of_int f.cycles)
  :: List.mapi (fun j port -> (prefix ^ ".final." ^ port, float_of_int f.final.(j)))
       (Array.to_list Frames.outputs))
  @ List.map (fun (stat, v) -> (prefix ^ "." ^ stat, float_of_int v)) f.stats

(* One op: a fresh frame of pixels on the RTL interpreter, then on the
   event-driven gate engine; the gate frame must end like the RTL one. *)
let frame_sim =
  let setup seed =
    let rtl, nl, rng = sim_setup seed in
    fun _ ->
      let pixels = Frames.random_pixels rng frame_pixels in
      let frames = ref None in
      let run () =
        let r = timed "frame.rtl_ms" (fun () -> rtl_frame rtl pixels) in
        let g =
          timed "frame.gate_ms" (fun () ->
              frame ~layer:"backend.nl" ~work:("gate_evals", "evals")
                (fun () -> Backend.Nl_engine.create nl)
                pixels)
        in
        frames := Some (r, g)
      in
      let check () =
        match !frames with
        | Some (reference, g) -> [ ("gate_vs_rtl", same_frame ~reference g) ]
        | None -> [ ("frames", Fail "op produced no frames") ]
      in
      let counts () =
        match !frames with
        | Some (r, g) -> frame_counts "frame.rtl" r @ frame_counts "frame.gate" g
        | None -> []
      in
      {
        run;
        items = (fun () -> match !frames with Some (r, g) -> float_of_int (r.cycles + g.cycles) | None -> 0.0);
        check;
        counts;
        breakdown = nothing;
      }
  in
  { name = "frame_sim"; item = "cycles"; setup }

(* One op: a fresh frame of pixels on the full-evaluation gate engine,
   checked against the RTL interpreter on the same pixels. *)
let full_eval_sim =
  let setup seed =
    let rtl, nl, rng = sim_setup seed in
    fun _ ->
      let pixels = Frames.random_pixels rng frame_pixels in
      let result = ref None in
      let run () =
        result :=
          Some
            (frame ~layer:"backend.nl_full" ~work:("gate_evals", "evals")
               (fun () -> Backend.Nl_engine.create ~mode:Backend.Nl_sim.Full_eval nl)
               pixels)
      in
      let check () =
        match !result with
        | Some f ->
            let on = !Recorder.on in
            Recorder.on := false;
            let reference = rtl_frame rtl pixels in
            Recorder.on := on;
            [ ("gate_full_vs_rtl", same_frame ~reference f) ]
        | None -> [ ("frame", Fail "op produced no frame") ]
      in
      {
        run;
        items = (fun () -> match !result with Some f -> float_of_int f.cycles | None -> 0.0);
        check;
        counts = (fun () -> match !result with Some f -> frame_counts "full" f | None -> []);
        breakdown = nothing;
      }
  in
  { name = "full_eval_sim"; item = "cycles"; setup }

(* ------------------------------------------------------------------ *)
(* fault_campaign                                                      *)

(* 502 faults split over 2 shards gives 252 lanes per shard (4 words of
   63) against 503 lanes (8 words) serially: equal gate work either
   way. *)
let campaign_faults = 502
let campaign_cycles = 500
let campaign_jobs = 2

(* A fixed systematic sample of the netlist: evenly spaced nets,
   alternating polarity.  A few faults (a stuck reset or enable) make
   whole words of lanes active, so a random fault list changes the gate
   work by up to 15% from seed to seed; this list keeps it within 2%,
   and the seed picks the campaign's stimulus. *)
let campaign_fault_list nl =
  let n_nets = Backend.Netlist.net_count nl in
  List.init campaign_faults (fun i ->
      {
        Backend.Equiv.fault_net = ((2 * i) + 1) * n_nets / (2 * campaign_faults);
        stuck_at = i mod 2 = 1;
      })

(* One op: the campaign on 2 domains.  Every 10th op is replayed
   serially, untimed: sharding must not change any fault's result. *)
let fault_campaign =
  let setup seed =
    let _, nl, _ = sim_setup seed in
    let faults = campaign_fault_list nl in
    let drive _ (name, r) = if name = "ext_reset" then Bitvec.zero 1 else r in
    let campaign jobs =
      Backend.Equiv.fault_campaign ~cycles:campaign_cycles ~seed ~drive ~shrink:false
        ~jobs nl faults
    in
    let first = ref None in
    let steals = Perf.counter "par.steals" and shards = Perf.counter "par.shards" in
    fun k ->
      let result = ref None in
      let run () =
        let steals0 = Perf.value steals and shards0 = Perf.value shards in
        let c = span "equiv.fault_campaign.jobs2" (fun () -> campaign campaign_jobs) in
        result := Some c;
        note "par.steals" (float_of_int (Perf.value steals - steals0));
        note "par.shards" (float_of_int (Perf.value shards - shards0));
        note "backend.campaign_gate_evals" (float_of_int c.Backend.Equiv.campaign_gate_evals);
        note "backend.campaign_cycles" (float_of_int c.Backend.Equiv.campaign_cycles);
        note "backend.faults_detected" (float_of_int c.Backend.Equiv.faults_detected)
      in
      let differ (a : Backend.Equiv.campaign) (b : Backend.Equiv.campaign) =
        if a.Backend.Equiv.fault_results = b.Backend.Equiv.fault_results
           && a.Backend.Equiv.campaign_cycles = b.Backend.Equiv.campaign_cycles
        then None
        else
          let rec first_diff i = function
            | x :: xs, y :: ys -> if x = y then first_diff (i + 1) (xs, ys) else i
            | _ -> i
          in
          Some
            (Printf.sprintf "fault results differ from fault %d on"
               (first_diff 1 (a.Backend.Equiv.fault_results, b.Backend.Equiv.fault_results)))
      in
      let check () =
        match !result with
        | None -> [ ("campaign", Fail "op produced no campaign") ]
        | Some c ->
            let stable =
              match !first with
              | None ->
                  first := Some c;
                  Pass
              | Some c0 -> (
                  match differ c0 c with None -> Pass | Some d -> Fail (d ^ " (vs op 0)"))
            in
            let replay =
              if k mod 10 <> 1 then []
              else
                let serial = span "equiv.fault_campaign.jobs1" (fun () -> campaign 1) in
                [ ("jobs1_replay",
                   match differ serial c with None -> Pass | Some d -> Fail (d ^ " (jobs 1)")) ]
            in
            ("results_stable", stable) :: replay
      in
      let counts () =
        match !result with
        | Some c ->
            [
              ("campaign.faults_detected", float_of_int c.Backend.Equiv.faults_detected);
              ("campaign.cycles", float_of_int c.Backend.Equiv.campaign_cycles);
              ("campaign.gate_evals", float_of_int c.Backend.Equiv.campaign_gate_evals);
            ]
        | None -> []
      in
      {
        run;
        items = (fun () -> float_of_int campaign_faults);
        check;
        counts;
        breakdown = nothing;
      }
  in
  { name = "fault_campaign"; item = "faults"; setup }

(* ------------------------------------------------------------------ *)
(* observed_sim                                                        *)

type observed = {
  rtl_rows : Frames.capture;
  gate_rows : Frames.capture;
  monitor : Assert_mon.t;
  db : Cover.Db.t;
  power : Synth.Power_dyn.report option;
  events : int;
}

(* One op: a fresh frame of pixels on the RTL interpreter and the
   event-driven gate engine in lockstep, every collector on, ending with
   the coverage database and the power report. *)
let observed_sim =
  let setup seed =
    let rtl, nl, rng = sim_setup seed in
    fun _ ->
      let pixels = Frames.random_pixels rng frame_pixels in
      let result = ref None in
      let run () =
        let sim = span "hdl.rtl_create" (fun () -> Rtl_sim.create rtl) in
        Rtl_sim.enable_toggle_cover sim;
        let cp = Expocu.Coverpoints.attach sim in
        let monitor = Expocu.Monitors.expocu_monitor sim in
        let r = Rtl_engine.of_sim sim in
        let g = span "backend.nl_create" (fun () -> Backend.Nl_engine.create nl) in
        Engine.enable_cover g;
        Engine.enable_power_sampler g;
        Obs.Event.reset ();
        Engine.enable_events g;
        let rtl_rows = Frames.capture pixels and gate_rows = Frames.capture pixels in
        let hist name = if !Recorder.on then Some (Recorder.hist name) else None in
        let step_r = Frames.stepper ?hist:(hist "hdl.rtl_step") r in
        let step_g = Frames.stepper ?hist:(hist "backend.nl_step") g in
        let set name v =
          Engine.set_input_int r name v;
          Engine.set_input_int g name v
        in
        let step () =
          step_r ();
          step_g ();
          Frames.read_outputs r rtl_rows;
          Frames.read_outputs g gate_rows
        in
        ignore (Frames.drive ~set ~step ~frame_done:(Frames.frame_done r) pixels);
        Expocu.Coverpoints.sample_frame cp sim;
        Assert_mon.finish monitor;
        let db =
          span "cover.db_make" (fun () ->
              let toggles prefix = function
                | Some t -> Cover.Db.toggle_entries ~prefix t
                | None -> []
              in
              Cover.Db.make
                ~toggles:(toggles "rtl:" (Rtl_sim.toggle_cover sim) @ toggles "nl:" (Engine.cover g))
                ~fsms:(Expocu.Coverpoints.fsms cp) ~groups:(Expocu.Coverpoints.groups cp)
                ~monitors:(Assert_mon.db_monitors monitor) ~run:"observed_sim" ())
        in
        let power =
          Option.map
            (fun act -> span "synth.power_analyze" (fun () -> Synth.Power_dyn.analyze nl act))
            (Engine.power_activity g)
        in
        let events = Obs.Event.count () + Obs.Event.dropped () in
        Obs.Event.disable ();
        note "cover.toggle_coverage" (Cover.Db.toggle_coverage db);
        note "obs.events_emitted" (float_of_int events);
        result := Some { rtl_rows; gate_rows; monitor; db; power; events }
      in
      let check () =
        match !result with
        | None -> [ ("observed", Fail "op produced no result") ]
        | Some o ->
            [
              ( "rtl_vs_gate_lockstep",
                match Frames.first_mismatch ~reference:o.rtl_rows o.gate_rows with
                | None -> Pass
                | Some m -> Fail (Frames.describe m) );
              ( "protocol_monitor",
                match Assert_mon.violations o.monitor with
                | [] -> Pass
                | v :: _ -> Fail (Format.asprintf "%a" Assert_mon.pp_violation v) );
              ( "power_report",
                match o.power with
                | Some p when p.Synth.Power_dyn.p_total_energy_pj > 0.0 -> Pass
                | _ -> Fail "no dynamic energy reported" );
              ( "coverage_db",
                if Cover.Db.toggle_coverage o.db > 0.0 then Pass
                else Fail "no toggle coverage collected" );
            ]
      in
      let counts () =
        match !result with
        | Some o ->
            let t = Cover.Db.totals o.db in
            [
              ("observed.cycles", float_of_int o.rtl_rows.Frames.rows);
              ("observed.toggle_bits", float_of_int t.Cover.Db.toggle_bits);
              ("observed.toggle_covered", float_of_int t.Cover.Db.toggle_covered);
              ("observed.fsm_states_hit", float_of_int t.Cover.Db.fsm_states_hit);
              ("observed.monitor_passes", float_of_int t.Cover.Db.monitor_passes);
              ("observed.events", float_of_int o.events);
              ( "observed.energy_pj",
                match o.power with Some p -> p.Synth.Power_dyn.p_total_energy_pj | None -> 0.0 );
            ]
        | None -> []
      in
      {
        run;
        items =
          (fun () ->
            match !result with Some o -> float_of_int o.rtl_rows.Frames.rows | None -> 0.0);
        check;
        counts;
        breakdown = nothing;
      }
  in
  { name = "observed_sim"; item = "cycles"; setup }

let all = [ synth_flow; layout_flow; frame_sim; full_eval_sim; fault_campaign; observed_sim ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Layer probes of a traced run                                        *)

(* Host time of [f ()] in ms. *)
let ms f =
  let t0 = Recorder.now () in
  f ();
  Recorder.ms_between t0 (Recorder.now ())

(* Each collector's cost: a frame with one collector on, divided by the
   plain frame of the same pixels.  Variants run interleaved, three
   rounds, and medians are compared, so a slow host phase hits them
   alike. *)
let collector_overheads rtl nl pixels =
  let gate setup () =
    let g = Backend.Nl_engine.create nl in
    setup g;
    ignore (Frames.run g pixels)
  in
  let rtl_frame attach () =
    let sim = Rtl_sim.create rtl in
    let finish = attach sim in
    ignore (Frames.run (Rtl_engine.of_sim sim) pixels);
    finish ()
  in
  let variants =
    [
      ("gate", gate ignore);
      ("cover.toggle_overhead", gate Engine.enable_cover);
      ("cover.activity_overhead", gate Engine.enable_power_sampler);
      ( "obs.events_overhead",
        fun () ->
          Obs.Event.reset ();
          gate Engine.enable_events ();
          Obs.Event.disable () );
      ("rtl", rtl_frame (fun _ () -> ()));
      ( "cover.rtl_coverpoints_overhead",
        rtl_frame (fun sim ->
            let cp = Expocu.Coverpoints.attach sim in
            fun () -> Expocu.Coverpoints.sample_frame cp sim) );
    ]
  in
  let times = List.map (fun (name, _) -> (name, ref [])) variants in
  for _ = 1 to 3 do
    List.iter (fun (name, f) -> let t = List.assoc name times in t := ms f :: !t) variants
  done;
  let med name = Stats.median (Array.of_list !(List.assoc name times)) in
  List.iter
    (fun (name, _) ->
      if name <> "gate" && name <> "rtl" then
        let base = if name = "cover.rtl_coverpoints_overhead" then "rtl" else "gate" in
        note name (med name /. med base))
    variants

(* Outside proxies for one fault-campaign shard: a 252-lane word engine
   created and stepped under broadcast random stimulus. *)
let wsim_proxy nl rng =
  for _ = 1 to 3 do
    let e =
      span "backend.wsim252_create" (fun () -> Backend.Nl_engine.create_word ~lanes:252 nl)
    in
    let step = Frames.stepper ~hist:(Recorder.hist "backend.wsim252_step") e in
    let ins = Engine.inputs e in
    for _ = 1 to 100 do
      List.iter
        (fun (name, width) ->
          Engine.set_input e name
            (if name = "ext_reset" then Bitvec.zero 1
             else Bitvec.init width (fun _ -> Random.State.bool rng)))
        ins;
      step ()
    done
  done

let probe_layers seed =
  let rtl, nl, rng = sim_setup seed in
  collector_overheads rtl nl (Frames.random_pixels rng frame_pixels);
  wsim_proxy nl rng
