(* The benchmark definition, BENCHMARK.json at the repository root: the
   workload names and each metric's unit, direction and, for end-to-end
   metrics, the share by which it may worsen before a change counts as a
   regression. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better; bound : float option }

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let parse json =
  let open Obs.Json in
  let field name j =
    match member name j with Some v -> Ok v | None -> Error ("missing " ^ name)
  in
  let ( let* ) = Result.bind in
  let list name j =
    let* v = field name j in
    Option.to_result ~none:(name ^ " is not a list") (to_list v)
  in
  let string name j =
    let* v = field name j in
    Option.to_result ~none:(name ^ " is not a string") (string_value v)
  in
  let all f xs =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      xs (Ok [])
  in
  let metric ~bounded j =
    let* name = string "name" j in
    let* unit = string "unit" j in
    let* better =
      match string "better" j with
      | Ok "lower" -> Ok Lower
      | Ok "higher" -> Ok Higher
      | _ -> Error (name ^ ": better must be \"lower\" or \"higher\"")
    in
    let bound = Option.bind (member "bound" j) number_value in
    if bounded && bound = None then Error (name ^ ": no bound")
    else Ok { name; unit; better; bound }
  in
  let* run_seconds =
    let* v = field "run_seconds" json in
    match v with Int n when n > 0 -> Ok n | _ -> Error "run_seconds is not a positive integer"
  in
  let* workloads = list "workloads" json in
  let* workloads = all (string "name") workloads in
  let* end_to_end = list "end_to_end" json in
  let* end_to_end = all (metric ~bounded:true) end_to_end in
  let* per_layer = list "per_layer" json in
  let* per_layer = all (metric ~bounded:false) per_layer in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Obs.Json.of_string text with
      | exception Obs.Json.Parse_error e -> Error (path ^ ": " ^ e)
      | json -> Result.map_error (fun e -> path ^ ": " ^ e) (parse json))
