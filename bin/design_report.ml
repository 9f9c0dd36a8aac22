(* design_report: the ODETTE analyzer as a command-line tool — design
   structure (Figure 12), per-module statistics and effort metrics. *)

open Cmdliner

(* The registry names implementation pairs by suffix: <base>_osss is the
   OSSS-methodology design, <base>_rtl (or _vhdl/_systemc) the
   conventional one.  Given either half, find the other. *)
let paired_name name =
  let strip suffix =
    if Filename.check_suffix name suffix then
      Some (Filename.chop_suffix name suffix)
    else None
  in
  let exists n = Designs.find n <> None in
  let conventional base =
    List.find_opt exists [ base ^ "_rtl"; base ^ "_vhdl"; base ^ "_systemc" ]
  in
  match strip "_osss" with
  | Some base -> Option.map (fun p -> (name, p)) (conventional base)
  | None -> (
      match
        List.find_map strip [ "_rtl"; "_vhdl"; "_systemc" ]
      with
      | Some base when exists (base ^ "_osss") -> Some (base ^ "_osss", name)
      | Some _ | None -> None)

(* Instance tree with per-module cells/FFs/area — and dynamic power
   when the power pass ran — for both flows side by side, joined on the
   hierarchical instance path. *)
let hierarchy_table osss_result vhdl_result =
  let buf = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let with_power =
    osss_result.Synth.Flow.power <> None
    || vhdl_result.Synth.Flow.power <> None
  in
  let rows (r : Synth.Flow.result) =
    List.map
      (fun (bm : Synth.Flow.module_breakdown) -> (bm.Synth.Flow.bm_path, bm))
      r.Synth.Flow.by_module
  in
  let o_rows = rows osss_result and v_rows = rows vhdl_result in
  let paths =
    List.sort_uniq compare (List.map fst o_rows @ List.map fst v_rows)
  in
  let label path =
    if path = "" then "<top>"
    else
      let depth =
        String.fold_left (fun n c -> if c = '.' then n + 1 else n) 0 path
      in
      let leaf =
        match String.rindex_opt path '.' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      String.make (2 * depth) ' ' ^ leaf
  in
  let power_cell = function
    | Some { Synth.Flow.bm_power_mw = Some mw; _ } ->
        Printf.sprintf " %8.4f" mw
    | Some _ | None -> if with_power then Printf.sprintf " %8s" "-" else ""
  in
  let side bm =
    (match bm with
    | Some (bm : Synth.Flow.module_breakdown) ->
        Printf.sprintf "%6d %5d %9.1f" bm.Synth.Flow.bm_cells
          bm.Synth.Flow.bm_ffs bm.Synth.Flow.bm_area
    | None -> Printf.sprintf "%6s %5s %9s" "-" "-" "-")
    ^ power_cell bm
  in
  let head =
    Printf.sprintf "%6s %5s %9s%s" "cells" "ffs" "area GE"
      (if with_power then Printf.sprintf " %8s" "dyn mW" else "")
  in
  let width = 22 + if with_power then 9 else 0 in
  p "  %-24s | %s | %s\n" "instance" head head;
  p "  %-24s | %-*s | %-*s\n" "" width "OSSS flow" width "conventional flow";
  List.iter
    (fun path ->
      p "  %-24s | %s | %s\n" (label path)
        (side (List.assoc_opt path o_rows))
        (side (List.assoc_opt path v_rows)))
    paths;
  Buffer.contents buf

let hierarchy_report name obs =
  match paired_name name with
  | None ->
      Printf.eprintf
        "--hierarchy needs an <base>_osss / <base>_rtl design pair; %s has \
         no counterpart\n"
        name;
      1
  | Some (osss_name, conv_name) ->
      let make n =
        match Designs.find n with
        | Some (_, make) -> make ()
        | None -> assert false
      in
      let power_cycles = if Obs_cli.powering obs then Some 256 else None in
      let osss_result =
        Synth.Flow.run ?power_cycles Synth.Flow.Osss (make osss_name)
      in
      let vhdl_result =
        Synth.Flow.run ?power_cycles Synth.Flow.Vhdl (make conv_name)
      in
      Printf.printf "hierarchy: %s (OSSS flow) vs %s (conventional flow)\n\n"
        osss_name conv_name;
      print_string (hierarchy_table osss_result vhdl_result);
      Printf.printf
        "\ntotals: OSSS %.1f GE / %.2f ns critical — conventional %.1f GE / \
         %.2f ns critical\n"
        osss_result.Synth.Flow.area.Backend.Area.total
        osss_result.Synth.Flow.timing.Backend.Timing.critical_ns
        vhdl_result.Synth.Flow.area.Backend.Area.total
        vhdl_result.Synth.Flow.timing.Backend.Timing.critical_ns;
      (match (osss_result.Synth.Flow.power, vhdl_result.Synth.Flow.power) with
      | Some op, Some vp ->
          Printf.printf
            "power:  OSSS %.3f pJ / %.4f mW avg — conventional %.3f pJ / \
             %.4f mW avg\n"
            op.Synth.Power_dyn.p_total_energy_pj op.Synth.Power_dyn.p_avg_mw
            vp.Synth.Power_dyn.p_total_energy_pj vp.Synth.Power_dyn.p_avg_mw
      | _ -> ());
      (* The OSSS side's waveform/summary are the exported ones. *)
      Obs_cli.finish obs ~run:"design_report"
        ?power:osss_result.Synth.Flow.power;
      0

let report name show_metrics show_systemc show_passes flow_name json coverage
    hierarchy obs =
  if hierarchy then begin
    Obs_cli.setup obs;
    hierarchy_report name obs
  end
  else
  match Designs.find name with
  | None ->
      Printf.eprintf "unknown design %s; available:\n%s\n" name
        (String.concat "\n" (Designs.list_lines ()));
      1
  | Some (desc, make) ->
      let design = make () in
      Obs_cli.setup obs;
      let flow_kind () =
        match flow_name with
        | "osss" -> Synth.Flow.Osss
        | "vhdl" -> Synth.Flow.Vhdl
        | other ->
            Printf.eprintf "unknown flow %s (osss|vhdl)\n" other;
            exit 1
      in
      let power_cycles = if Obs_cli.powering obs then Some 256 else None in
      let flow_power = ref None in
      if json then begin
        (* Machine-readable mode: run the flow and print its result
           (including the per-pass table) as the only stdout output.
           With the power flags the result carries the dynamic power
           table under the same by_module key layout as area. *)
        let result = Synth.Flow.run ?power_cycles (flow_kind ()) design in
        flow_power := result.Synth.Flow.power;
        print_endline
          (Obs.Json.to_string ~pretty:true (Synth.Flow.result_json result))
      end
      else begin
        Printf.printf "%s — %s\n\n" name desc;
        print_string (Synth.Analyzer.report design);
        if show_metrics then begin
          let m = Metrics.of_module design in
          Printf.printf "\nmetrics: %s\n" (Format.asprintf "%a" Metrics.pp m);
          Printf.printf "effort model: %.2f units\n" (Metrics.effort_days m)
        end;
        if show_systemc then begin
          print_endline "\n-- resolved standard SystemC --";
          print_string (Osss.Resolve.emit_module (Hdl.Elaborate.flatten design))
        end;
        if show_passes || Obs_cli.powering obs then begin
          let result = Synth.Flow.run ?power_cycles (flow_kind ()) design in
          flow_power := result.Synth.Flow.power;
          if show_passes then begin
            Printf.printf "\n-- %s flow pass trace --\n"
              (Synth.Flow.kind_name (flow_kind ()));
            print_string (Synth.Flow.pass_table result)
          end
        end;
        match coverage with
        | Some path -> (
            match Cover.Db.load path with
            | Ok db ->
                print_newline ();
                print_string (Cover.Db.summary db)
            | Error e ->
                Printf.eprintf "coverage: %s\n" e;
                exit 1)
        | None -> ()
      end;
      Obs_cli.finish obs ~json ~run:"design_report" ?power:!flow_power;
      0

let design_arg =
  let doc = "Design to report on (see osss_synth --list)." in
  Arg.(value & pos 0 string "expocu_osss" & info [] ~docv:"DESIGN" ~doc)

let metrics_arg =
  let doc = "Include code metrics and the effort model." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let systemc_arg =
  let doc = "Print the resolved SystemC rendering of the flattened design." in
  Arg.(value & flag & info [ "systemc" ] ~doc)

let passes_arg =
  let doc =
    "Run the synthesis flow and print the per-pass trace (time, cell/area \
     deltas, artifacts)."
  in
  Arg.(value & flag & info [ "passes" ] ~doc)

let flow_arg =
  let doc = "Flow used by --passes/--json: osss or vhdl." in
  Arg.(value & opt string "osss" & info [ "flow" ] ~docv:"FLOW" ~doc)

let json_arg =
  let doc =
    "Run the synthesis flow and print its result (final area/timing plus \
     the per-pass table) as JSON — the only stdout output in this mode."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let coverage_arg =
  let doc =
    "Print the coverage summary table from a coverage database written by \
     expocu_sim/bench --cover-out (not available with --json)."
  in
  Arg.(value & opt (some string) None & info [ "coverage" ] ~docv:"FILE" ~doc)

let hierarchy_arg =
  let doc =
    "Run both synthesis flows over the design pair (<base>_osss vs its \
     conventional counterpart) and print the instance tree with per-module \
     cells, flip-flops and area side by side."
  in
  Arg.(value & flag & info [ "hierarchy" ] ~doc)

let cmd =
  let doc = "design structure and metrics report (the ODETTE analyzer)" in
  Cmd.v
    (Cmd.info "design_report" ~doc)
    Term.(
      const report $ design_arg $ metrics_arg $ systemc_arg $ passes_arg
      $ flow_arg $ json_arg $ coverage_arg $ hierarchy_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
