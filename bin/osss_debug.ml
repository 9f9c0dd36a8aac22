(* osss_debug: time-travel debugging over the causal event log.

   Record cheap, replay rich: the requested design is first run with
   all instrumentation off, taking checkpoints along the way; then the
   window before the cycle under investigation is restored and re-run
   with causal events on.  --why walks the cause links behind a net's
   value backward to its stimulus (or to an injected fault);
   --events-out exports the replayed window as schema-checked JSONL. *)

open Cmdliner
open Hdl

(* "port@cycle" (the cycle is optional for fault specs). *)
let split_spec s =
  match String.rindex_opt s '@' with
  | None -> (s, None)
  | Some i -> (
      let name = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some c -> (name, Some c)
      | None -> (s, None))

let make_engine design engine_kind lanes fault =
  match Expocu.Registry.find design with
  | None ->
      Printf.eprintf "unknown design %s (try --list)\n" design;
      exit 2
  | Some (_, ctor) ->
      let m = ctor () in
      let base, netlist =
        match engine_kind with
        | "rtl" -> (Rtl_engine.create ~label:("rtl:" ^ design) m, None)
        | "netlist" ->
            let nl = Backend.Opt.optimize (Backend.Lower.lower m) in
            (Backend.Nl_engine.create ~label:("gates:" ^ design) nl, Some nl)
        | "word" ->
            let nl = Backend.Opt.optimize (Backend.Lower.lower m) in
            ( Backend.Nl_engine.create ~label:("word:" ^ design) ~lanes nl,
              Some nl )
        | other ->
            Printf.eprintf "unknown engine %s (rtl|netlist|word)\n" other;
            exit 2
      in
      let e =
        match fault with
        | Some (port, from_cycle) ->
            Engine.inject_fault
              ~from_cycle:(Option.value from_cycle ~default:0)
              ~port base
        | None -> base
      in
      (e, netlist)

(* Stimulus as a pure function of (seed, cycle): replaying any window
   of cycles reproduces the original run exactly, which is what makes
   restore-and-re-run equivalent to never having left.  Reset-like
   inputs are held released so the circuit actually operates. *)
let drive_cycle e seed c =
  List.iteri
    (fun i (name, width) ->
      let v =
        match name with
        | "ext_reset" | "reset" | "rst" -> Bitvec.zero width
        | _ ->
            let rng = Random.State.make [| seed; c; i |] in
            Bitvec.init width (fun _ -> Random.State.bool rng)
      in
      Engine.set_input e name v)
    (Engine.inputs e)

let read_outputs e =
  List.iter (fun (port, _) -> ignore (Engine.get e port)) (Engine.outputs e)

let simulate design engine_kind lanes cycles seed fault why_spec ckpt_every
    events_out obs =
  let e, netlist = make_engine design engine_kind lanes fault in
  if Obs_cli.powering obs then begin
    if netlist = None then
      Obs.Log.infof
        "power sampling needs a netlist engine (--engine netlist|word); \
         ignoring power flags";
    Engine.enable_power_sampler e
  end;
  (* Phase 1 — record: no events, checkpoints only.  Cheap. *)
  let cks = ref [] in
  let take_ck () =
    match Engine.checkpoint e with
    | Some ck -> cks := ck :: !cks
    | None -> ()
  in
  take_ck ();
  for c = 0 to cycles - 1 do
    drive_cycle e seed c;
    Engine.step e;
    if ckpt_every > 0 && (c + 1) mod ckpt_every = 0 && c + 1 < cycles then
      take_ck ()
  done;
  Obs.Log.infof "recorded %d cycles, %d checkpoint%s" cycles
    (List.length !cks)
    (if List.length !cks = 1 then "" else "s");
  (* Power is read off the recording run, before the replay re-executes
     (and would double-count) the window under investigation. *)
  let power =
    match netlist with
    | Some nl when Obs_cli.powering obs ->
        Option.map
          (fun act -> Synth.Power_dyn.analyze nl act)
          (Engine.power_activity e)
    | Some _ | None -> None
  in
  (* Phase 2 — replay the window before the cycle under investigation
     with causal events on.  Rich. *)
  let target =
    match why_spec with
    | Some (_, Some cyc) -> min cyc cycles
    | Some (_, None) | None -> cycles
  in
  let ck =
    List.fold_left
      (fun best ck ->
        if Engine.checkpoint_cycle ck >= target then best
        else
          match best with
          | Some b when Engine.checkpoint_cycle b >= Engine.checkpoint_cycle ck
            ->
              best
          | _ -> Some ck)
      None !cks
  in
  let start =
    match ck with
    | Some ck ->
        Engine.restore ck;
        Engine.checkpoint_cycle ck
    | None -> Engine.cycles e
  in
  Engine.enable_events e;
  for c = start to target - 1 do
    drive_cycle e seed c;
    Engine.step e;
    (* Read every output each cycle so corrupted reads of a fault
       wrapper enter the causal record. *)
    read_outputs e
  done;
  Obs.Log.infof "replayed cycles %d..%d with events on (%d retained, %d \
                 dropped)"
    start target (Obs.Event.count ()) (Obs.Event.dropped ());
  (match events_out with
  | Some path ->
      Obs.Event.save_jsonl path;
      Obs.Log.infof "event log written to %s" path
  | None -> ());
  let rc =
    match why_spec with
    | None -> 0
    | Some (subject, cyc) -> (
        let cycle = Option.value cyc ~default:target in
        match Obs.Causal.why ~subject ~cycle () with
        | None ->
            Printf.eprintf "no retained event on %s at or before cycle %d\n"
              subject cycle;
            1
        | Some node ->
            Printf.printf "why %s@%d:\n%s" subject cycle
              (Obs.Causal.render node);
            if
              Obs.Causal.reaches
                (fun ev -> ev.Obs.Event.kind = Obs.Event.Fault)
                node
            then
              print_endline "=> chain reaches a fault injection";
            0)
  in
  Obs_cli.finish obs ~run:"osss_debug" ?power;
  rc

(* --why-peak: pull the "net@cycle" hint a power report left behind
   (peak_why — hottest net of the peak-power window) out of a JSON
   document and use it as the --why spec.  Accepts both a run report
   (power at top level, schema v3) and an osss_synth --json flow
   result (same key). *)
let peak_why_of_file path =
  let text =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Json.of_string text with
  | exception Obs.Json.Parse_error msg ->
      Printf.eprintf "%s: not valid JSON: %s\n" path msg;
      exit 2
  | json -> (
      match
        Option.bind (Obs.Json.member "power" json) (fun p ->
            Option.bind (Obs.Json.member "peak_why" p) Obs.Json.string_value)
      with
      | Some spec -> spec
      | None ->
          Printf.eprintf
            "%s: no power.peak_why in this report (was it produced with \
             --power-summary/--power-out?)\n"
            path;
          exit 2)

let main list_designs check_events design engine_kind lanes cycles seed fault
    why_spec why_peak ckpt_every events_out obs =
  if list_designs then begin
    List.iter print_endline (Expocu.Registry.list_lines ());
    0
  end
  else
    match check_events with
    | Some path -> (
        match Obs.Event.validate_file path with
        | Ok n ->
            Printf.printf "%s: ok (%d events, schema %s)\n" path n
              Obs.Event.schema_version;
            0
        | Error e ->
            Printf.eprintf "%s: invalid event log: %s\n" path e;
            1)
    | None ->
        Obs_cli.setup obs;
        let why_spec =
          match (why_spec, why_peak) with
          | Some _, _ -> why_spec
          | None, Some path -> Some (peak_why_of_file path)
          | None, None -> None
        in
        simulate design engine_kind lanes cycles seed
          (Option.map split_spec fault)
          (Option.map split_spec why_spec)
          ckpt_every events_out obs

let list_arg =
  let doc = "List the named designs and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let check_events_arg =
  let doc =
    "Validate an event-log JSONL file written by --events-out (schema, \
     sequence continuity, cause ordering) and exit."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "check-events" ] ~docv:"FILE" ~doc)

let design_arg =
  let doc = "Design to debug (see --list)." in
  Arg.(value & opt string "expocu_osss" & info [ "design" ] ~docv:"NAME" ~doc)

let engine_arg =
  let doc = "Simulation backend: rtl, netlist or word (word-parallel)." in
  Arg.(value & opt string "rtl" & info [ "engine" ] ~docv:"KIND" ~doc)

let lanes_arg =
  let doc = "Lane count for the word backend." in
  Arg.(value & opt int 4 & info [ "lanes" ] ~docv:"N" ~doc)

let cycles_arg =
  let doc = "Cycles to simulate." in
  Arg.(value & opt int 200 & info [ "cycles" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Stimulus seed (stimulus is a pure function of seed and cycle)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let fault_arg =
  let doc =
    "Inject a fault: flip the LSB of output $(i,PORT) from cycle $(i,N) \
     on (PORT@N, default cycle 0)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-fault" ] ~docv:"PORT@N" ~doc)

let why_arg =
  let doc =
    "Explain a value: walk the causal chain behind $(i,NET) at cycle \
     $(i,N) (NET@N) backward to its stimulus or fault, and print it as \
     a tree."
  in
  Arg.(value & opt (some string) None & info [ "why" ] ~docv:"NET@N" ~doc)

let why_peak_arg =
  let doc =
    "Explain the peak-power window: read $(i,power.peak_why) (the \
     hottest net of the peak window, as NET@N) from a JSON report \
     written with --stats-json or osss_synth --json under the power \
     flags, and run --why on it.  An explicit --why wins."
  in
  Arg.(
    value & opt (some string) None & info [ "why-peak" ] ~docv:"FILE" ~doc)

let ckpt_arg =
  let doc =
    "Take a checkpoint every $(docv) cycles during the recording run (0: \
     only at reset); the replay resumes from the last checkpoint before \
     the cycle under investigation."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let events_out_arg =
  let doc =
    "Write the replayed window's causal event log as JSONL (schema \
     osss.event-log/v1) to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "events-out" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "time-travel debugging: causal \"why\" queries over a replay" in
  Cmd.v
    (Cmd.info "osss_debug" ~doc)
    Term.(
      const main $ list_arg $ check_events_arg $ design_arg $ engine_arg
      $ lanes_arg $ cycles_arg $ seed_arg $ fault_arg $ why_arg
      $ why_peak_arg $ ckpt_arg $ events_out_arg $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
