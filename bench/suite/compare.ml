(* [suite.exe compare A/ B/]: two sets of result documents, typically of
   a parent commit (A) and a change (B), judged against the
   BENCHMARK.json bounds, workload by workload.

   An end-to-end metric is "worse" when B's median is worse than A's by
   more than the bound, "better" when every B run beats A's median and
   the medians differ by more than either side's spread, and
   "unresolved" when either side's run-to-run spread exceeds the bound
   (unless every B run beats every A run).  Simulated statistics
   ([counts]) must be identical for a seed on both sides. *)

type verdict = Better | Within | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Within -> "within bound"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

let judge (m : Spec.metric) a b =
  let bound = Option.value ~default:0.0 m.Spec.bound in
  let beats x y = match m.Spec.better with Spec.Lower -> x < y | Spec.Higher -> x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let worse_by =
    match m.Spec.better with
    | Spec.Lower -> (mb -. ma) /. Float.abs ma
    | Spec.Higher -> (ma -. mb) /. Float.abs ma
  in
  let spread xs = match Stats.spread xs with s when Float.is_nan s -> 0.0 | s -> s in
  let sa = spread a and sb = spread b in
  let all_beat = Array.for_all (fun y -> Array.for_all (fun x -> beats y x) a) b in
  if all_beat && -.worse_by > Float.max sa sb then Better
  else if sa > bound || sb > bound then Unresolved
  else if worse_by > bound then Worse
  else if Array.for_all (fun y -> beats y ma) b && -.worse_by > Float.max sa sb then Better
  else Within

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | files ->
      Array.sort compare files;
      Array.fold_left
        (fun acc f ->
          match acc with
          | Error _ -> acc
          | Ok docs ->
              if Filename.check_suffix f ".json" && not (Filename.check_suffix f ".chrome.json")
              then
                match Result_doc.load (Filename.concat dir f) with
                | Ok d -> Ok (d :: docs)
                | Error e -> Error (Filename.concat dir f ^ ": " ^ Result_doc.error_to_string e)
              else acc)
        (Ok []) files
      |> Result.map List.rev

(* Counts of one side for one seed; [Error] when that side's own runs
   disagree. *)
let counts_for docs seed =
  match List.filter (fun (d : Result_doc.t) -> d.Result_doc.seed = seed) docs with
  | [] -> None
  | d :: rest ->
      let c = d.Result_doc.counts in
      Some
        (if List.for_all (fun (o : Result_doc.t) -> o.Result_doc.counts = c) rest then Ok c
         else Error "runs of this side disagree")

(* Prints the comparison; true when nothing got worse and every count
   matched. *)
let report (spec : Spec.t) a_docs b_docs =
  let ok = ref true in
  let workloads =
    List.sort_uniq compare
      (List.map (fun (d : Result_doc.t) -> d.Result_doc.workload) (a_docs @ b_docs))
  in
  List.iter
    (fun wl ->
      let side docs ~traced =
        List.filter
          (fun (d : Result_doc.t) -> d.Result_doc.workload = wl && d.Result_doc.traced = traced)
          docs
      in
      let a = side a_docs ~traced:false and b = side b_docs ~traced:false in
      Printf.printf "%s: A %d runs, B %d runs\n" wl (List.length a) (List.length b);
      let values docs pick name =
        Array.of_list
          (List.filter_map (fun d -> Option.map (fun m -> m.Result_doc.value) (List.assoc_opt name (pick d))) docs)
      in
      let row (m : Spec.metric) ~judged av bv =
        if Array.length av > 0 && Array.length bv > 0 then begin
          let ma = Stats.median av and mb = Stats.median bv in
          let verdict =
            if judged then begin
              let v = judge m av bv in
              if v = Worse then ok := false;
              Printf.sprintf "%-12s (bound %.0f%%)" (verdict_name v)
                (100.0 *. Option.value ~default:0.0 m.Spec.bound)
            end
            else ""
          in
          Printf.printf "  %-34s A %12.6g  B %12.6g %-6s %+7.2f%%  spread %5.1f%%/%5.1f%%  %s\n"
            m.Spec.name ma mb m.Spec.unit
            (100.0 *. (mb -. ma) /. Float.abs ma)
            (100.0 *. Stats.spread av) (100.0 *. Stats.spread bv) verdict
        end
      in
      List.iter
        (fun m ->
          let pick (d : Result_doc.t) = d.Result_doc.metrics in
          row m ~judged:true (values a pick m.Spec.name) (values b pick m.Spec.name))
        spec.Spec.end_to_end;
      let ta = side a_docs ~traced:true and tb = side b_docs ~traced:true in
      if ta <> [] && tb <> [] then begin
        Printf.printf "  per layer (traced runs: A %d, B %d; no bounds):\n" (List.length ta)
          (List.length tb);
        List.iter
          (fun m ->
            let pick (d : Result_doc.t) = d.Result_doc.per_layer in
            row m ~judged:false (values ta pick m.Spec.name) (values tb pick m.Spec.name))
          spec.Spec.per_layer
      end;
      let all_a = side a_docs ~traced:false @ ta and all_b = side b_docs ~traced:false @ tb in
      let seeds =
        List.sort_uniq compare (List.map (fun (d : Result_doc.t) -> d.Result_doc.seed) all_a)
      in
      List.iter
        (fun seed ->
          match (counts_for all_a seed, counts_for all_b seed) with
          | Some (Ok ca), Some (Ok cb) when ca = cb ->
              Printf.printf "  counts, seed %d: identical (%d)\n" seed (List.length ca)
          | Some (Ok ca), Some (Ok cb) ->
              ok := false;
              Printf.printf "  counts, seed %d: DIFFERENT\n" seed;
              List.iter
                (fun (name, va) ->
                  match List.assoc_opt name cb with
                  | Some vb when vb = va -> ()
                  | Some vb -> Printf.printf "    %s: A %.17g, B %.17g\n" name va vb
                  | None -> Printf.printf "    %s: only in A\n" name)
                ca;
              List.iter
                (fun (name, _) ->
                  if not (List.mem_assoc name ca) then Printf.printf "    %s: only in B\n" name)
                cb
          | Some (Error e), _ | _, Some (Error e) ->
              ok := false;
              Printf.printf "  counts, seed %d: %s\n" seed e
          | _ -> ())
        seeds)
    workloads;
  !ok
