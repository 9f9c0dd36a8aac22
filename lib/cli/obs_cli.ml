(* Shared observability plumbing for the command-line tools and the
   bench harness: the --trace-out / --stats-json / --flame-out /
   --profile flags, the coverage family (--cover-out / --cover-summary
   / --cover-merge), the power family (--power-out / --power-summary)
   and --jobs, switching the collectors on up front and exporting when
   the run finishes.  Every collector flag is defined here only. *)

open Cmdliner

type t = {
  trace_out : string option;
  stats_json : string option;
  flame_out : string option;
  profile : bool;
  cover_out : string option;
  cover_summary : bool;
  cover_merge : (string * string) option;
  power_out : string option;
  power_summary : bool;
  jobs : int option;
}

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON of the run to $(docv) (open in Perfetto \
     or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc =
    "Write a machine-readable run report (Perf counters, histograms, span \
     tree, activity profiles, coverage when collected) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let flame_arg =
  let doc =
    "Write the span tree in collapsed-stack format to $(docv) (one \
     'a;b;c count' line per stack, self time in microseconds — feed to \
     flamegraph.pl or speedscope)."
  in
  Arg.(value & opt (some string) None & info [ "flame-out" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Collect activity profiles and print the hot-spot tables (hot nets, hot \
     cells, hot processes)."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let cover_out_arg =
  let doc =
    "Collect coverage (toggle, FSM, covergroups, protocol monitors) and \
     write the coverage database to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "cover-out" ] ~docv:"FILE" ~doc)

let cover_summary_arg =
  let doc =
    "Collect coverage and print the human-readable coverage summary table."
  in
  Arg.(value & flag & info [ "cover-summary" ] ~doc)

let cover_merge_arg =
  let doc =
    "Merge two coverage databases written by --cover-out (union; counts are \
     summed) instead of simulating.  Writes the result to --cover-out if \
     given, otherwise prints the merged summary."
  in
  Arg.(
    value
    & opt (some (pair string string)) None
    & info [ "cover-merge" ] ~docv:"A,B" ~doc)

let power_out_arg =
  let doc =
    "Collect windowed switching activity and write the dynamic power \
     waveform (real-valued total plus one trace per module) as VCD to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "power-out" ] ~docv:"FILE" ~doc)

let power_summary_arg =
  let doc =
    "Collect windowed switching activity and print the dynamic power \
     summary (total energy, average/peak power, per-module table)."
  in
  Arg.(value & flag & info [ "power-summary" ] ~doc)

let jobs_arg =
  let doc =
    "Run sharded campaigns (fault lists, multi-seed sweeps) on $(docv) \
     domains.  Defaults to the machine's recommended domain count (or the \
     OSSS_JOBS environment variable); 1 runs the serial code paths. \
     Results are bit-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)

let term =
  let make trace_out stats_json flame_out profile cover_out cover_summary
      cover_merge power_out power_summary jobs =
    {
      trace_out;
      stats_json;
      flame_out;
      profile;
      cover_out;
      cover_summary;
      cover_merge;
      power_out;
      power_summary;
      jobs;
    }
  in
  Term.(
    const make $ trace_arg $ stats_arg $ flame_arg $ profile_arg
    $ cover_out_arg $ cover_summary_arg $ cover_merge_arg $ power_out_arg
    $ power_summary_arg $ jobs_arg)

let profiling t = t.profile

(* Span and histogram collection feed the trace, the run report and
   the collapsed stacks alike. *)
let tracing t =
  t.trace_out <> None || t.stats_json <> None || t.flame_out <> None

(* Coverage flags imply collection; --stats-json alone does not (the
   report simply carries no coverage section then). *)
let covering t = t.cover_out <> None || t.cover_summary
let merge_requested t = t.cover_merge

(* Power flags imply activity sampling, mirroring the coverage rule. *)
let powering t = t.power_out <> None || t.power_summary

let run_merge t (a, b) =
  match (Cover.Db.load a, Cover.Db.load b) with
  | Ok da, Ok db ->
      let merged = Cover.Db.merge da db in
      (match t.cover_out with
      | Some path ->
          Cover.Db.save merged path;
          Obs.Log.infof "merged coverage written to %s" path
      | None -> ());
      if t.cover_summary || t.cover_out = None then
        print_string (Cover.Db.summary merged);
      0
  | (Error e, _ | _, Error e) ->
      Printf.eprintf "cover-merge: %s\n" e;
      1

let setup t =
  (match t.jobs with
  | Some j when j >= 1 -> Par.set_default_jobs j
  | Some j -> invalid_arg (Printf.sprintf "--jobs %d: expected >= 1" j)
  | None -> ());
  if tracing t then begin
    Obs.Span.enable ();
    Obs.Hist.enable ()
  end

(* [profiles] are raw (name, count) activity lists; ranking and
   serialization happen here.  [cover] is the run's coverage database:
   written to --cover-out, printed on --cover-summary and embedded in
   the --stats-json report.  [power] is the run's dynamic power report:
   its waveform goes to --power-out, its summary to --power-summary and
   its JSON into the --stats-json report (schema v3).  With [json] the
   command's stdout carries a JSON document, so the human-readable
   tables go to stderr instead. *)
let finish ?(json = false) ?(profiles = []) ?cover ?power ~run t =
  let table text =
    let oc = if json then stderr else stdout in
    output_char oc '\n';
    output_string oc text;
    flush oc
  in
  let ranked =
    List.map (fun (title, raw) -> (title, Obs.Profile.top raw)) profiles
  in
  if t.profile then
    List.iter
      (fun (title, entries) -> table (Obs.Profile.table ~title entries))
      ranked;
  (match cover with
  | Some db ->
      (match t.cover_out with
      | Some path ->
          Cover.Db.save db path;
          Obs.Log.infof "coverage database written to %s" path
      | None -> ());
      if t.cover_summary then table (Cover.Db.summary db)
  | None -> ());
  (match (power : Synth.Power_dyn.report option) with
  | Some pr ->
      (match t.power_out with
      | Some path ->
          Synth.Power_dyn.save_vcd pr path;
          Obs.Log.infof "power waveform written to %s" path
      | None -> ());
      if t.power_summary then table (Synth.Power_dyn.summary pr)
  | None -> ());
  (match t.stats_json with
  | Some path ->
      let coverage = Option.map Cover.Db.to_json cover in
      let power = Option.map Synth.Power_dyn.to_json power in
      Obs.Json.save
        (Obs.Report.make ?coverage ?power ~profiles:ranked ~run ())
        path;
      Obs.Log.infof "run report written to %s" path
  | None -> ());
  (match t.trace_out with
  | Some path ->
      Obs.Span.save_chrome path;
      Obs.Log.infof "chrome trace written to %s" path
  | None -> ());
  match t.flame_out with
  | Some path ->
      Obs.Span.save_collapsed path;
      Obs.Log.infof "collapsed stacks written to %s" path
  | None -> ()
