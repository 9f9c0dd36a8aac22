(* The repository benchmark.  See README.md in this directory.

     suite.exe [run] --workload NAME|all --seed N [--seconds S] [--trace 0|1]
               [--out DIR] [--spec FILE]
     suite.exe compare A/ B/ [--spec FILE]
     suite.exe selftest [--spec FILE]

   [run] prints every metric by name with its unit and, as its last
   line, one JSON object with the keys correct, attempted, failed and
   metrics (the end-to-end metrics, or with --trace 1 the per-layer
   ones).  Exit codes: 0 when the run completed, whether or not outputs
   passed their checks (failed ops are counted, not fatal); 1 on an
   invalid result document; 2 on a usage error; [compare] exits 3 when a
   metric got worse or a count differs. *)

let usage_error msg =
  prerr_endline ("suite: " ^ msg);
  exit 2

let load_spec path =
  match Spec.load path with Ok s -> s | Error e -> usage_error e

(* Every metric BENCHMARK.json names must be one this suite emits, with
   the same unit. *)
let check_spec (spec : Spec.t) =
  let check kind emitted (m : Spec.metric) =
    match List.assoc_opt m.Spec.name emitted with
    | Some unit when unit = m.Spec.unit -> ()
    | Some unit ->
        usage_error
          (Printf.sprintf "%s metric %s: BENCHMARK.json says unit %s, the suite emits %s" kind
             m.Spec.name m.Spec.unit unit)
    | None ->
        usage_error
          (Printf.sprintf "%s metric %s is named in BENCHMARK.json but not emitted" kind
             m.Spec.name)
  in
  List.iter (check "end-to-end" Runner.end_to_end_units) spec.Spec.end_to_end;
  List.iter
    (check "per-layer" (List.map (fun (n, u, _) -> (n, u)) Runner.per_layer_metrics))
    spec.Spec.per_layer;
  List.iter
    (fun name ->
      if Workloads.find name = None then
        usage_error ("BENCHMARK.json names unknown workload " ^ name))
    spec.Spec.workloads

(* The metric names a run of [doc] must report, and those it lacks. *)
let missing (spec : Spec.t) (doc : Result_doc.t) =
  let need =
    List.map (fun (m : Spec.metric) -> (m.Spec.name, doc.Result_doc.metrics)) spec.Spec.end_to_end
    @
    if doc.Result_doc.traced then
      List.map (fun (m : Spec.metric) -> (m.Spec.name, doc.Result_doc.per_layer)) spec.Spec.per_layer
    else []
  in
  List.filter_map (fun (name, have) -> if List.mem_assoc name have then None else Some name) need

(* The summary line: the end-to-end metrics, or the per-layer ones of a
   traced run, in BENCHMARK.json order. *)
let last_line (spec : Spec.t) (doc : Result_doc.t) =
  let names, have =
    if doc.Result_doc.traced then (spec.Spec.per_layer, doc.Result_doc.per_layer)
    else (spec.Spec.end_to_end, doc.Result_doc.metrics)
  in
  let metric (m : Spec.metric) =
    let v = List.assoc m.Spec.name have in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Spec.name v.Result_doc.value
      v.Result_doc.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (doc.Result_doc.failed = 0) doc.Result_doc.attempted doc.Result_doc.failed
    (String.concat ", " (List.map metric names))

let print_summary (spec : Spec.t) json (doc : Result_doc.t) =
  let open Obs.Json in
  let get path = List.fold_left (fun j k -> Option.bind j (member k)) (Some json) path in
  let item = Option.value ~default:"items" (Option.bind (get [ "item" ]) string_value) in
  Printf.printf "%s, seed %d%s: %d ops, %d failed; items_per_s counts %s\n"
    doc.Result_doc.workload doc.Result_doc.seed
    (if doc.Result_doc.traced then ", traced" else "")
    doc.Result_doc.attempted doc.Result_doc.failed item;
  let rows title metrics (specs : Spec.metric list) =
    Printf.printf "%s\n" title;
    List.iter
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.Spec.name metrics with
        | Some v ->
            Printf.printf "  %-34s %14.6g %s\n" m.Spec.name v.Result_doc.value v.Result_doc.unit
        | None -> ())
      specs
  in
  rows "end to end:" doc.Result_doc.metrics spec.Spec.end_to_end;
  (match get [ "series" ] with
  | Some (Obj series) ->
      Printf.printf "series (p50 / p90 / n):\n";
      List.iter
        (fun (name, s) ->
          let f k = Option.value ~default:nan (Option.bind (member k s) number_value) in
          Printf.printf "  %-34s %10.4g %10.4g %6.0f\n" name (f "p50") (f "p90") (f "n"))
        series
  | _ -> ());
  (match get [ "checks" ] with
  | Some (Obj checks) ->
      Printf.printf "checks (passed / known / failed):\n";
      List.iter
        (fun (name, c) ->
          let f k = Option.value ~default:0.0 (Option.bind (member k c) number_value) in
          Printf.printf "  %-34s %6.0f %6.0f %6.0f\n" name (f "passed") (f "known") (f "failed"))
        checks
  | _ -> ());
  List.iter
    (fun j ->
      match string_value j with Some s -> Printf.printf "known divergence: %s\n" s | None -> ())
    (Option.value ~default:[] (Option.bind (get [ "known_divergences" ]) to_list));
  List.iter
    (fun f ->
      let s k = Option.value ~default:"" (Option.bind (member k f) string_value) in
      Printf.printf "FAILED op %.0f, %s: %s\n"
        (Option.value ~default:(-1.0) (Option.bind (member "op" f) number_value))
        (s "check") (s "detail"))
    (Option.value ~default:[] (Option.bind (get [ "failures" ]) to_list));
  if get [ "host_noisy" ] = Some (Bool true) then
    Printf.printf "HOST NOISY: the host.calib_ms canary's p90 exceeds its p50 by more than %.0f%%\n"
      (100.0 *. Runner.canary_limit);
  if doc.Result_doc.traced then begin
    rows "per layer:" doc.Result_doc.per_layer spec.Spec.per_layer;
    match get [ "tracing"; "overhead" ] with
    | Some (Obj rows) ->
        Printf.printf "tracing overhead (traced - untraced):\n";
        List.iter
          (fun (name, o) ->
            let f k = Option.value ~default:nan (Option.bind (member k o) number_value) in
            Printf.printf "  %-34s %+14.6g\n" name (f "delta"))
          rows
    | _ -> ()
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_outputs dir (doc : Result_doc.t) json chrome =
  mkdir_p dir;
  let base =
    Printf.sprintf "%s-s%d-%s" doc.Result_doc.workload doc.Result_doc.seed
      (if doc.Result_doc.traced then "traced" else "plain")
  in
  let rec free i =
    let stem = Filename.concat dir (Printf.sprintf "%s-r%d" base i) in
    if Sys.file_exists (stem ^ ".json") then free (i + 1) else stem
  in
  let stem = free 1 in
  Obs.Json.save json (stem ^ ".json");
  Option.iter (fun c -> Obs.Json.save c (stem ^ ".chrome.json")) chrome

(* One workload in this process: the run, its document validated and
   checked against BENCHMARK.json.  Returns the exit code. *)
let run_one spec ~out (cfg : Runner.config) =
  let json, chrome = Runner.run cfg in
  match Result_doc.validate json with
  | Error e ->
      prerr_endline ("suite: invalid result document: " ^ Result_doc.error_to_string e);
      1
  | Ok doc -> (
      match missing spec doc with
      | _ :: _ as names ->
          usage_error ("metrics named in BENCHMARK.json but not emitted: " ^ String.concat ", " names)
      | [] ->
          Option.iter (fun dir -> write_outputs dir doc json chrome) out;
          print_summary spec json doc;
          print_endline (last_line spec doc);
          0)

(* [--workload all]: each workload in a fresh process, one after another. *)
let run_all spec args =
  let codes =
    List.map
      (fun name ->
        let argv =
          Array.of_list
            (Sys.executable_name :: "run" :: "--workload" :: name
             :: List.concat_map (fun (k, v) -> [ k; v ]) args)
        in
        flush_all ();
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 1)
      spec.Spec.workloads
  in
  List.fold_left max 0 codes

let parse argv specs ~anon usage =
  try Arg.parse_argv ~current:(ref 0) argv (Arg.align specs) anon usage with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0

let cmd_run argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let out = ref None and spec_path = ref "BENCHMARK.json" in
  parse argv
    [
      ("--workload", Arg.Set_string workload, "NAME a workload of BENCHMARK.json, or all");
      ("--seed", Arg.Set_int seed, "N input seed (default 1; 7 is held out)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default: run_seconds)");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics and a Chrome trace");
      ("--out", Arg.String (fun d -> out := Some d), "DIR write the result document(s) here");
      ("--spec", Arg.Set_string spec_path, "FILE benchmark definition (default BENCHMARK.json)");
    ]
    ~anon:(fun a -> usage_error ("unexpected argument " ^ a))
    "suite.exe run --workload NAME|all --seed N [options]";
  let spec = load_spec !spec_path in
  check_spec spec;
  if !seed < 0 then usage_error "--seed must be a non-negative integer";
  if !trace <> 0 && !trace <> 1 then usage_error "--trace must be 0 or 1";
  if !seconds < 0.0 || Float.is_nan !seconds then usage_error "--seconds must be positive";
  let seconds = if !seconds = 0.0 then float_of_int spec.Spec.run_seconds else !seconds in
  if !workload = "all" then
    exit
      (run_all spec
         ([
            ("--seed", string_of_int !seed);
            ("--seconds", Printf.sprintf "%.17g" seconds);
            ("--trace", string_of_int !trace);
            ("--spec", !spec_path);
          ]
         @ match !out with Some d -> [ ("--out", d) ] | None -> []))
  else
    match Workloads.find !workload with
    | Some w when List.mem !workload spec.Spec.workloads ->
        exit
          (run_one spec ~out:!out
             {
               Runner.workload = w;
               seed = !seed;
               seconds;
               trace = !trace = 1;
               max_ops = max_int;
               setup_repeats = 15;
             })
    | _ ->
        usage_error
          (Printf.sprintf "unknown workload %S (one of: %s, all)" !workload
             (String.concat ", " spec.Spec.workloads))

let cmd_compare argv =
  let dirs = ref [] and spec_path = ref "BENCHMARK.json" in
  parse argv
    [ ("--spec", Arg.Set_string spec_path, "FILE benchmark definition (default BENCHMARK.json)") ]
    ~anon:(fun d -> dirs := d :: !dirs)
    "suite.exe compare A/ B/ [--spec FILE]";
  let spec = load_spec !spec_path in
  match List.rev !dirs with
  | [ a; b ] -> (
      match (Compare.load_dir a, Compare.load_dir b) with
      | Ok a_docs, Ok b_docs -> exit (if Compare.report spec a_docs b_docs then 0 else 3)
      | Error e, _ | _, Error e ->
          prerr_endline ("suite: " ^ e);
          exit 1)
  | _ -> usage_error "compare takes two directories of result documents"

(* Two ops of every workload, each document validated and checked for
   every BENCHMARK.json metric (layout_flow's run is traced: its own ops
   and the probes reach every layer), and the validator fed malformed
   documents. *)
let cmd_selftest argv =
  let spec_path = ref "BENCHMARK.json" in
  parse argv
    [ ("--spec", Arg.Set_string spec_path, "FILE benchmark definition (default BENCHMARK.json)") ]
    ~anon:(fun a -> usage_error ("unexpected argument " ^ a))
    "suite.exe selftest [--spec FILE]";
  let spec = load_spec !spec_path in
  check_spec spec;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let one (w : Workloads.t) ~trace =
    let json, _ =
      Runner.run
        { Runner.workload = w; seed = 1; seconds = 600.0; trace; max_ops = 2; setup_repeats = 1 }
    in
    match Result_doc.validate json with
    | Error e -> problem "%s: invalid document: %s" w.Workloads.name (Result_doc.error_to_string e)
    | Ok doc -> (
        match missing spec doc with
        | [] -> ()
        | names -> problem "%s: missing metrics %s" w.Workloads.name (String.concat ", " names))
  in
  List.iter (fun (w : Workloads.t) -> one w ~trace:(w == Workloads.layout_flow)) Workloads.all;
  List.iter
    (fun text ->
      match Result_doc.of_string text with
      | Ok _ -> problem "validator accepted %S" text
      | Error _ -> ())
    [
      "";
      "{\"schema\": ";
      "[1, 2]";
      String.make 100_000 '[';
      "{\"schema\": \"osss.bench-result/v0\"}";
      "{\"schema\": \"osss.bench-result/v1\", \"workload\": \"w\", \"seed\": 1, \
       \"traced\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": {}, \"counts\": {}}";
      "{\"schema\": \"osss.bench-result/v1\", \"workload\": \"w\", \"seed\": 1, \
       \"traced\": false, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"m\": {\"value\": \
       \"1\", \"unit\": \"ms\"}}, \"counts\": {}}";
    ];
  match List.rev !problems with
  | [] -> print_endline "selftest: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("selftest: " ^ p)) ps;
      exit 1

let () =
  Par.set_default_jobs 1;
  let argv = Sys.argv in
  let n = Array.length argv in
  let sub, first =
    if n > 1 && String.length argv.(1) > 0 && argv.(1).[0] <> '-' then (argv.(1), 2) else ("run", 1)
  in
  let rest = Array.append [| argv.(0) ^ " " ^ sub |] (Array.sub argv first (n - first)) in
  match sub with
  | "run" -> cmd_run rest
  | "compare" -> cmd_compare rest
  | "selftest" -> cmd_selftest rest
  | other -> usage_error ("unknown command " ^ other ^ " (run, compare or selftest)")
