(* osss_synth: run a design through the synthesis flow of Figure 6 and
   report/emit the artifacts. *)

open Cmdliner

(* --sweep N: differential sweep between the RTL interpretation of the
   flattened design and the event-driven simulation of the synthesized
   netlist, one full lockstep run per stimulus seed, sharded across the
   --jobs domain pool.  Exits non-zero on any divergence. *)
let sweep_check (result : Synth.Flow.result) nseeds =
  let design = result.Synth.Flow.flat in
  let nl = result.Synth.Flow.netlist in
  let seeds = List.init nseeds (fun i -> i) in
  (* Frozen once here, not by each shard's simulator. *)
  ignore (Backend.Netlist.freeze nl);
  let outcomes =
    Backend.Equiv.differential_sweep ~cycles:300 ~seeds
      [
        (fun () -> Rtl_engine.create ~label:"rtl" design);
        (fun () ->
          Backend.Nl_engine.create ~label:"gates"
            ~mode:Backend.Nl_sim.Event_driven nl);
      ]
  in
  Printf.printf "differential sweep: rtl vs gates, %d seeds, jobs %d\n"
    nseeds (Par.default_jobs ());
  let divergent =
    List.fold_left
      (fun acc (seed, r) ->
        match r with
        | Ok cycles ->
            Printf.printf "  seed %4d: ok (%d cycles in lockstep)\n" seed
              cycles;
            acc
        | Error d ->
            Format.printf "  seed %4d: DIVERGED %a@." seed
              Backend.Equiv.pp_mismatch d.Backend.Equiv.first;
            acc + 1)
      0 outcomes
  in
  if divergent > 0 then begin
    Obs.Log.errorf "sweep: %d of %d seeds diverged" divergent nseeds;
    1
  end
  else 0

let synthesize name flow_name out_dir emit_artifacts no_fold layout cec json
    sweep obs =
  match Designs.find name with
  | None ->
      Printf.eprintf "unknown design %s; available:\n%s\n" name
        (String.concat "\n" (Designs.list_lines ()));
      1
  | Some (_, make) ->
      let kind =
        match flow_name with
        | "osss" -> Synth.Flow.Osss
        | "vhdl" -> Synth.Flow.Vhdl
        | other ->
            Printf.eprintf "unknown flow %s (osss|vhdl)\n" other;
            exit 1
      in
      Obs_cli.setup obs;
      (* --power-out/--power-summary append the dynamic-power pass to
         the flow (256 cycles of deterministic seeded stimulus). *)
      let power_cycles = if Obs_cli.powering obs then Some 256 else None in
      (* The ExpoCU tops also get the directed frame in the opt pass's
         lockstep check. *)
      let directed =
        if String.starts_with ~prefix:"expocu_" name then
          Some
            ( Expocu.Expocu_top.directed_frame_cycles,
              Expocu.Expocu_top.directed_frame )
        else None
      in
      let result =
        Synth.Flow.run ~fold:(not no_fold) ~check_invariants:cec ?directed
          ~layout ?power_cycles kind (make ())
      in
      (* --json keeps stdout machine-readable; the narrative goes to
         stderr through the logger. *)
      if json then
        print_endline
          (Obs.Json.to_string ~pretty:true (Synth.Flow.result_json result))
      else begin
        print_string (Synth.Flow.summary result);
        print_newline ();
        print_string result.Synth.Flow.structure
      end;
      if emit_artifacts then begin
        (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        List.iter
          (fun (file, text) ->
            let path = Filename.concat out_dir file in
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Obs.Log.infof "wrote %s (%d bytes)" path (String.length text))
          result.Synth.Flow.intermediate
      end;
      let rc =
        match sweep with
        | Some n when n >= 1 -> sweep_check result n
        | Some n ->
            Printf.eprintf "--sweep expects a positive seed count, got %d\n" n;
            1
        | None -> 0
      in
      let diverged =
        List.concat_map
          (fun (p : Synth.Flow.pass) ->
            List.filter
              (fun (l : Synth.Flow.lockstep) -> l.first_mismatch <> None)
              p.lockstep)
          result.Synth.Flow.passes
      in
      List.iter
        (fun l ->
          Obs.Log.errorf "opt invariant: lockstep %s"
            (Format.asprintf "%a" Synth.Flow.pp_lockstep l))
        diverged;
      let rc = if diverged <> [] then 1 else rc in
      Obs_cli.finish obs ~json ~run:"osss_synth"
        ?power:result.Synth.Flow.power;
      rc

let design_arg =
  let doc = "Design to synthesize (run with --list to enumerate)." in
  Arg.(value & pos 0 string "expocu_osss" & info [] ~docv:"DESIGN" ~doc)

let flow_arg =
  let doc = "Flow to run: osss or vhdl." in
  Arg.(value & opt string "osss" & info [ "flow" ] ~docv:"FLOW" ~doc)

let out_arg =
  let doc = "Directory for emitted artifacts." in
  Arg.(value & opt string "_artifacts" & info [ "out" ] ~docv:"DIR" ~doc)

let emit_arg =
  let doc = "Write the intermediate files (resolved SystemC / VHDL / netlist Verilog)." in
  Arg.(value & flag & info [ "emit" ] ~doc)

let nofold_arg =
  let doc = "Disable construction-time netlist folding (ablation)." in
  Arg.(value & flag & info [ "no-fold" ] ~doc)

let layout_arg =
  let doc = "Continue through technology mapping and place & route." in
  Arg.(value & flag & info [ "layout" ] ~doc)

let cec_arg =
  let doc =
    "Check the opt pass with combinational equivalence and a bounded \
     lockstep simulation of the lowered against the optimised netlist \
     (seeded random stimulus, plus the directed frame on the ExpoCU \
     tops); exits 1 when the lockstep diverges."
  in
  Arg.(value & flag & info [ "cec" ] ~doc)

let list_arg =
  let doc = "List the available designs." in
  Arg.(value & flag & info [ "list" ] ~doc)

let json_arg =
  let doc =
    "Print the flow result (final area/timing plus the per-pass table) as \
     JSON on stdout instead of the text summary."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let sweep_arg =
  let doc =
    "After the flow, run an N-way differential sweep — RTL interpretation \
     vs the synthesized netlist in lockstep — across $(docv) stimulus \
     seeds, sharded across the --jobs domain pool.  Non-zero exit on any \
     divergence."
  in
  Arg.(value & opt (some int) None & info [ "sweep" ] ~docv:"SEEDS" ~doc)

let main design flow out emit no_fold layout cec list json sweep obs =
  if list then begin
    List.iter print_endline (Designs.list_lines ());
    0
  end
  else synthesize design flow out emit no_fold layout cec json sweep obs

let cmd =
  let doc = "synthesize OSSS/RTL designs down to a gate netlist" in
  Cmd.v
    (Cmd.info "osss_synth" ~doc)
    Term.(
      const main $ design_arg $ flow_arg $ out_arg $ emit_arg $ nofold_arg
      $ layout_arg $ cec_arg $ list_arg $ json_arg $ sweep_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
