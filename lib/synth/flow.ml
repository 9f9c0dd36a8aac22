type kind = Osss | Vhdl

let kind_name = function Osss -> "osss" | Vhdl -> "vhdl"

type lockstep = {
  stimulus : string;
  cycles : int;
  first_mismatch : Backend.Equiv.mismatch option;
}

type pass = {
  pass_name : string;
  elapsed_ms : float;
  artifacts : string list;
  metrics : (string * float) list;
  invariant : Backend.Cec.verdict option;
  lockstep : lockstep list;
}

let pass_metric p key = List.assoc_opt key p.metrics

type layout = {
  luts : int;
  ffs : int;
  depth : int;
  grid : int * int;
  utilization : float;
  wirelength : float;
  post_fmax_mhz : float;
}

type module_breakdown = {
  bm_path : string;
  bm_cells : int;
  bm_ffs : int;
  bm_area : float;
  bm_worst_ns : float;
  bm_power_mw : float option;  (* joined from the power pass, when run *)
}

type result = {
  flow_kind : kind;
  design : Ir.module_def;
  flat : Ir.module_def;
  intermediate : (string * string) list;
  netlist : Backend.Netlist.t;
  raw_cells : int;
  area : Backend.Area.report;
  timing : Backend.Timing.report;
  by_module : module_breakdown list;
  structure : string;
  passes : pass list;
  layout : layout option;
  power : Power_dyn.report option;
}

let lockstep_cycles = 1000
let lockstep_seed = 1

let pp_lockstep fmt l =
  match l.first_mismatch with
  | None -> Format.fprintf fmt "%s %d cycles ok" l.stimulus l.cycles
  | Some m ->
      Format.fprintf fmt "%s FAILED: %a" l.stimulus Backend.Equiv.pp_mismatch m

let opt_lockstep ?directed before after =
  let run stimulus cycles drive =
    let first_mismatch =
      match
        Backend.Equiv.differential ~cycles ~seed:lockstep_seed ~drive
          ~shrink:false
          [
            (fun () -> Backend.Nl_engine.create ~label:"lowered" before);
            (fun () -> Backend.Nl_engine.create ~label:"optimised" after);
          ]
      with
      | Ok _ -> None
      | Error d -> Some d.Backend.Equiv.first
    in
    { stimulus; cycles; first_mismatch }
  in
  let released _ (name, v) =
    if Power_dyn.reset_like name then Bitvec.zero (Bitvec.width v) else v
  in
  run "random" lockstep_cycles released
  ::
  (match directed with
  | Some (cycles, drive) -> [ run "directed" cycles drive ]
  | None -> [])

(* Area and timing of one netlist; a flow reports each netlist's from
   one computation, however many passes read it. *)
type analysis = {
  an_area : Backend.Area.report;
  an_timing : Backend.Timing.report;
  an_modules : Backend.Timing.module_row list;
}

let memo_analysis () =
  let memo = ref [] in
  fun nl ->
    match List.assq_opt nl !memo with
    | Some a -> a
    | None ->
        let an_timing, an_modules = Backend.Timing.analyze_by_module nl in
        let a = { an_area = Backend.Area.analyze nl; an_timing; an_modules } in
        memo := (nl, a) :: !memo;
        a

(* Cell/area/timing snapshot of a netlist, prefixed "before_"/"after_". *)
let nl_metrics prefix nl a =
  [
    (prefix ^ "cells", float_of_int (Backend.Netlist.cell_count nl));
    (prefix ^ "area_ge", a.an_area.Backend.Area.total);
    (prefix ^ "critical_ns", a.an_timing.Backend.Timing.critical_ns);
  ]

(* Mutable pass-trace accumulator threaded through [run]. *)
type trace = {
  mutable t_passes : pass list;  (* reverse order *)
  mutable t_artifacts : (string * string) list;  (* reverse order *)
}

let perf_deltas name metrics =
  let delta key scale counter_suffix =
    match
      (List.assoc_opt ("before_" ^ key) metrics,
       List.assoc_opt ("after_" ^ key) metrics)
    with
    | Some before, Some after ->
        Perf.incr
          ~by:(int_of_float (Float.round ((after -. before) *. scale)))
          (Perf.counter (Printf.sprintf "flow.%s.%s" name counter_suffix))
    | _ -> ()
  in
  delta "cells" 1.0 "cells_delta";
  delta "area_ge" 1.0 "area_delta_ge";
  delta "critical_ns" 1000.0 "critical_delta_ps"

(* Per-pass cell/area deltas feed a histogram each in addition to the
   plain counters, so a run report shows the distribution across
   passes, not just the final sum. *)
let hist_cells_delta = Obs.Hist.histogram "flow.pass_cells_removed"
let hist_elapsed = Obs.Hist.histogram "flow.pass_elapsed_us"

let run_pass tr name ?(artifacts = fun _ -> []) ?invariant
    ?(lockstep = fun _ -> []) ?(metrics = fun _ -> []) f =
  let exec () =
    let t0 = Sys.time () in
    let value = f () in
    let elapsed_ms = (Sys.time () -. t0) *. 1000.0 in
    let artifacts = artifacts value in
    let metrics = metrics value in
    let invariant = Option.map (fun check -> check value) invariant in
    let lockstep = lockstep value in
    Perf.incr (Perf.counter (Printf.sprintf "flow.%s.runs" name));
    perf_deltas name metrics;
    Obs.Hist.observe hist_elapsed (elapsed_ms *. 1000.0);
    (match
       ( List.assoc_opt "before_cells" metrics,
         List.assoc_opt "after_cells" metrics )
     with
    | Some before, Some after when before >= after ->
        Obs.Hist.observe hist_cells_delta (before -. after)
    | _ -> ());
    List.iter (fun (k, v) -> Obs.Span.add_attr k (Printf.sprintf "%g" v)) metrics;
    (match invariant with
    | Some v ->
        Obs.Span.add_attr "invariant"
          (Format.asprintf "%a" Backend.Cec.pp_verdict v)
    | None -> ());
    List.iter
      (fun l ->
        Obs.Span.add_attr ("lockstep_" ^ l.stimulus)
          (Format.asprintf "%a" pp_lockstep l))
      lockstep;
    tr.t_artifacts <- List.rev_append artifacts tr.t_artifacts;
    tr.t_passes <-
      {
        pass_name = name;
        elapsed_ms;
        artifacts = List.map fst artifacts;
        metrics;
        invariant;
        lockstep;
      }
      :: tr.t_passes;
    value
  in
  if Obs.Span.enabled () then Obs.Span.with_ ~name:("flow." ^ name) exec
  else exec ()

let run ?(fold = true) ?(check_invariants = false) ?directed ?(layout = false)
    ?power_cycles flow_kind (design : Ir.module_def) =
  (if Obs.Span.enabled () then
     Obs.Span.with_ ~name:"flow.run"
       ~attrs:[ ("kind", kind_name flow_kind); ("design", design.Ir.mod_name) ]
   else fun f -> f ())
  @@ fun () ->
  let tr = { t_passes = []; t_artifacts = [] } in
  let analysis = memo_analysis () in
  let base = design.Ir.mod_name in
  run_pass tr "check" (fun () -> Ir.check_module design);
  let flat =
    run_pass tr "flatten"
      ~metrics:(fun flat ->
        [
          ( "before_modules",
            float_of_int (List.length (Elaborate.hierarchy design)) );
          ( "before_processes",
            float_of_int (List.length design.Ir.processes) );
          ("after_processes", float_of_int (List.length flat.Ir.processes));
        ])
      (fun () -> Elaborate.flatten design)
  in
  (* Front-end artifacts, at both hierarchy stages: the unsuffixed
     files render the design as written (pre-flatten), the [_flat]
     files the single module the back end actually consumes. *)
  ignore
    (run_pass tr "emit-frontend"
       ~artifacts:(fun arts -> arts)
       (fun () ->
         let common =
           [ (base ^ ".v", Verilog.emit design);
             (base ^ "_flat.v", Verilog.emit flat) ]
         in
         match flow_kind with
         | Osss ->
             (base ^ "_resolved_flat.cpp", Osss.Resolve.emit_module flat)
             :: common
         | Vhdl ->
             (base ^ ".vhd", Vhdl.emit design)
             :: (base ^ "_flat.vhd", Vhdl.emit flat)
             :: common));
  (* Lowering consumes the hierarchical design (the flatten pass above
     still feeds the front-end artifacts): each module lowers once into
     a memoized segment, so a repeat run — or the other flow of a pair
     sharing leaf IP — hits the cache instead of re-lowering. *)
  let cache_hits0, cache_misses0 = Backend.Lower.cache_stats () in
  let raw =
    run_pass tr "lower"
      ~artifacts:(fun raw ->
        [ (base ^ "_netlist_raw.v", Backend.Netlist.emit_verilog raw) ])
      ~metrics:(fun raw ->
        let hits, misses = Backend.Lower.cache_stats () in
        nl_metrics "after_" raw (analysis raw)
        @ [
            ("cache_hits", float_of_int (hits - cache_hits0));
            ("cache_misses", float_of_int (misses - cache_misses0));
          ])
      (fun () -> Backend.Lower.lower ~fold design)
  in
  let cache_hits1, _ = Backend.Lower.cache_stats () in
  Perf.incr ~by:(cache_hits1 - cache_hits0)
    (Perf.counter "flow.lower.cache_hits");
  let netlist =
    run_pass tr "opt"
      ~artifacts:(fun nl ->
        [ (base ^ "_netlist.v", Backend.Netlist.emit_verilog nl) ])
      ~metrics:(fun nl ->
        nl_metrics "before_" raw (analysis raw)
        @ nl_metrics "after_" nl (analysis nl))
      ?invariant:
        (if check_invariants then Some (fun nl -> Backend.Cec.check raw nl)
         else None)
      ~lockstep:(fun nl ->
        if check_invariants then opt_lockstep ?directed raw nl else [])
      (fun () -> Backend.Opt.optimize raw)
  in
  let layout_report =
    if not layout then None
    else begin
      let depth = ref 0 in
      let mapped =
        run_pass tr "techmap"
          ~metrics:(fun mapped ->
            depth := Backend.Techmap.depth mapped;
            [
              ("after_luts", float_of_int (Backend.Techmap.lut_count mapped));
              ("after_ffs", float_of_int (Backend.Techmap.ff_count mapped));
              ("after_depth", float_of_int !depth);
            ])
          (fun () -> Backend.Techmap.map netlist)
      in
      let report =
        run_pass tr "pnr"
          ~metrics:(fun r ->
            let w, h = r.Backend.Pnr.grid in
            [
              ("after_grid_w", float_of_int w);
              ("after_grid_h", float_of_int h);
              ("after_wirelength", r.Backend.Pnr.wirelength);
              ("after_fmax_mhz", r.Backend.Pnr.fmax_mhz);
            ])
          (fun () -> Backend.Pnr.analyze (Backend.Pnr.place mapped))
      in
      Some
        {
          luts = Backend.Techmap.lut_count mapped;
          ffs = Backend.Techmap.ff_count mapped;
          depth = !depth;
          grid = report.Backend.Pnr.grid;
          utilization = report.Backend.Pnr.utilization;
          wirelength = report.Backend.Pnr.wirelength;
          post_fmax_mhz = report.Backend.Pnr.fmax_mhz;
        }
    end
  in
  let area, timing, by_module, structure =
    run_pass tr "analyze"
      ~metrics:(fun (a, t, bm, _) ->
        [
          ("after_area_ge", a.Backend.Area.total);
          ("after_critical_ns", t.Backend.Timing.critical_ns);
          ("after_fmax_mhz", t.Backend.Timing.fmax_mhz);
          ("after_modules", float_of_int (List.length bm));
        ])
      (fun () ->
        let a = analysis netlist in
        let by_module =
          List.map
            (fun (r : Backend.Area.module_row) ->
              let worst =
                match
                  List.find_opt
                    (fun (t : Backend.Timing.module_row) ->
                      t.Backend.Timing.path = r.Backend.Area.path)
                    a.an_modules
                with
                | Some t -> t.Backend.Timing.m_worst_ns
                | None -> 0.0
              in
              {
                bm_path = r.Backend.Area.path;
                bm_cells = r.Backend.Area.m_cells;
                bm_ffs = r.Backend.Area.m_ffs;
                bm_area = r.Backend.Area.m_area;
                bm_worst_ns = worst;
                bm_power_mw = None;
              })
            (Backend.Area.by_module netlist)
        in
        ( a.an_area,
          a.an_timing,
          by_module,
          Analyzer.report design ))
  in
  (* Dynamic power, under the deterministic seeded stimulus convention
     (see Power_dyn.measure): the techmap-aware library when the layout
     passes ran, the generic one otherwise.  Per-module averages join
     the area/timing breakdown rows like any other analysis column. *)
  let power_report =
    match power_cycles with
    | None -> None
    | Some cycles ->
        Some
          (run_pass tr "power"
             ~metrics:(fun (p : Power_dyn.report) ->
               [
                 ("after_energy_pj", p.Power_dyn.p_total_energy_pj);
                 ("after_avg_mw", p.Power_dyn.p_avg_mw);
                 ("after_peak_mw", p.Power_dyn.p_peak_mw);
               ])
             (fun () ->
               let lib =
                 if layout then Power_dyn.lut4_lib else Power_dyn.default_lib
               in
               Power_dyn.measure ~lib ~cycles netlist))
  in
  let by_module =
    match power_report with
    | None -> by_module
    | Some p ->
        List.map
          (fun bm ->
            {
              bm with
              bm_power_mw =
                Option.map
                  (fun (m : Power_dyn.module_row) -> m.Power_dyn.pm_avg_mw)
                  (List.find_opt
                     (fun (m : Power_dyn.module_row) ->
                       m.Power_dyn.pm_path = bm.bm_path)
                     p.Power_dyn.p_by_module);
            })
          by_module
  in
  {
    flow_kind;
    design;
    flat;
    intermediate = List.rev tr.t_artifacts;
    netlist;
    raw_cells = Backend.Netlist.cell_count raw;
    area;
    timing;
    by_module;
    structure;
    passes = List.rev tr.t_passes;
    layout = layout_report;
    power = power_report;
  }

let pass_table r =
  let buf = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "  %-14s %8s  %-18s %-22s %-16s %s\n" "pass" "ms" "cells" "area GE"
    "critical ns" "invariant";
  List.iter
    (fun pass ->
      let pair key fmt_one =
        match
          (pass_metric pass ("before_" ^ key), pass_metric pass ("after_" ^ key))
        with
        | Some b, Some a ->
            Printf.sprintf "%s -> %s" (fmt_one b) (fmt_one a)
        | None, Some a -> Printf.sprintf "-> %s" (fmt_one a)
        | _ -> ""
      in
      let cells = pair "cells" (fun v -> Printf.sprintf "%.0f" v) in
      let area = pair "area_ge" (fun v -> Printf.sprintf "%.1f" v) in
      let crit = pair "critical_ns" (fun v -> Printf.sprintf "%.2f" v) in
      let inv =
        String.concat "; "
          ((match pass.invariant with
           | Some v -> [ Format.asprintf "%a" Backend.Cec.pp_verdict v ]
           | None -> [])
          @ List.map
              (fun l -> Format.asprintf "lockstep %a" pp_lockstep l)
              pass.lockstep)
      in
      let extra =
        if pass.artifacts = [] then ""
        else Printf.sprintf "  [%d artifacts]" (List.length pass.artifacts)
      in
      p "  %-14s %8.1f  %-18s %-22s %-16s %s%s\n" pass.pass_name
        pass.elapsed_ms cells area crit inv extra)
    r.passes;
  Buffer.contents buf

let pass_json (p : pass) =
  let open Obs.Json in
  Obj
    ([
       ("name", String p.pass_name);
       ("elapsed_ms", Float p.elapsed_ms);
       ("artifacts", List (List.map (fun a -> String a) p.artifacts));
       ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) p.metrics));
     ]
    @ (match p.invariant with
      | Some v ->
          [
            ( "invariant",
              String (Format.asprintf "%a" Backend.Cec.pp_verdict v) );
          ]
      | None -> [])
    @
    match p.lockstep with
    | [] -> []
    | ls ->
        [
          ( "lockstep",
            List
              (List.map
                 (fun l ->
                   Obj
                     [
                       ("stimulus", String l.stimulus);
                       ("cycles", Int l.cycles);
                       ( "mismatch",
                         match l.first_mismatch with
                         | Some m ->
                             String
                               (Format.asprintf "%a"
                                  Backend.Equiv.pp_mismatch m)
                         | None -> Null );
                     ])
                 ls) );
        ])

let result_json r =
  let open Obs.Json in
  let layout =
    match r.layout with
    | None -> Null
    | Some l ->
        let w, h = l.grid in
        Obj
          [
            ("luts", Int l.luts);
            ("ffs", Int l.ffs);
            ("depth", Int l.depth);
            ("grid", List [ Int w; Int h ]);
            ("utilization", Float l.utilization);
            ("wirelength", Float l.wirelength);
            ("post_fmax_mhz", Float l.post_fmax_mhz);
          ]
  in
  Obj
    [
      ("flow", String (kind_name r.flow_kind));
      ("design", String r.design.Ir.mod_name);
      ("cells", Int (Backend.Netlist.cell_count r.netlist));
      ("raw_cells", Int r.raw_cells);
      ("area_ge", Float r.area.Backend.Area.total);
      ("ffs", Int r.area.Backend.Area.n_ffs);
      ("critical_ns", Float r.timing.Backend.Timing.critical_ns);
      ("fmax_mhz", Float r.timing.Backend.Timing.fmax_mhz);
      ("meets_66mhz", Bool (Backend.Timing.meets r.timing ~freq_mhz:66.0));
      ( "by_module",
        List
          (List.map
             (fun bm ->
               Obj
                 ([
                    ( "path",
                      String (if bm.bm_path = "" then "<top>" else bm.bm_path)
                    );
                    ("cells", Int bm.bm_cells);
                    ("ffs", Int bm.bm_ffs);
                    ("area_ge", Float bm.bm_area);
                    ("worst_ns", Float bm.bm_worst_ns);
                  ]
                 @
                 match bm.bm_power_mw with
                 | Some mw -> [ ("dynamic_mw", Float mw) ]
                 | None -> []))
             r.by_module) );
      ("passes", List (List.map pass_json r.passes));
      ("layout", layout);
      ( "power",
        match r.power with Some p -> Power_dyn.to_json p | None -> Null );
    ]

let summary r =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "%s flow, design %s:\n" (kind_name r.flow_kind) r.design.Ir.mod_name;
  p "  cells: %d (from %d before optimization)\n"
    (Backend.Netlist.cell_count r.netlist)
    r.raw_cells;
  p "  area: %.1f GE (%d flip-flops)\n" r.area.Backend.Area.total
    r.area.Backend.Area.n_ffs;
  p "  timing: %.2f ns critical path, fmax %.1f MHz\n"
    r.timing.Backend.Timing.critical_ns r.timing.Backend.Timing.fmax_mhz;
  p "  66 MHz target: %s\n"
    (if Backend.Timing.meets r.timing ~freq_mhz:66.0 then "met" else "missed");
  (match r.by_module with
  | [] | [ _ ] -> ()
  | rows ->
      let with_power = r.power <> None in
      p "  per-module:\n";
      p "    %-24s %6s %5s %9s %9s%s\n" "instance" "cells" "ffs" "area GE"
        "worst ns"
        (if with_power then "    dyn mW" else "");
      List.iter
        (fun bm ->
          p "    %-24s %6d %5d %9.1f %9.2f%s\n"
            (if bm.bm_path = "" then "<top>" else bm.bm_path)
            bm.bm_cells bm.bm_ffs bm.bm_area bm.bm_worst_ns
            (match bm.bm_power_mw with
            | Some mw -> Printf.sprintf " %9.4f" mw
            | None -> if with_power then Printf.sprintf " %9s" "-" else ""))
        rows);
  (match r.power with
  | Some pr -> p "  %s" (Power_dyn.summary pr)
  | None -> ());
  (match r.layout with
  | Some l ->
      let w, h = l.grid in
      p
        "  layout: %d LUT4 + %d FFs (depth %d) on %dx%d (util %.0f%%), \
         wirelength %.0f, post-layout fmax %.1f MHz\n"
        l.luts l.ffs l.depth w h (100.0 *. l.utilization) l.wirelength
        l.post_fmax_mhz
  | None -> ());
  p "  passes:\n%s" (pass_table r);
  Buffer.contents buf
