(* The result document of one benchmark run, schema [osss.bench-result/v1],
   and its validator.  The validator returns typed errors and never
   raises, whatever the input. *)

let schema = "osss.bench-result/v1"

type metric = { value : float; unit : string }

(* What consumers of a document (compare, selftest, the summary line)
   read from it. *)
type t = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : (string * metric) list;  (* end-to-end, from untraced ops *)
  per_layer : (string * metric) list;  (* traced runs only *)
  counts : (string * float) list;  (* simulated statistics, exact per seed *)
}

type error =
  | Not_json of string
  | Wrong_schema of string  (* the schema found *)
  | Missing of string  (* path of a required field *)
  | Wrong_type of { path : string; expected : string }
  | Out_of_range of { path : string; why : string }

let error_to_string = function
  | Not_json why -> "not a JSON document: " ^ why
  | Wrong_schema found -> Printf.sprintf "schema is %S, expected %S" found schema
  | Missing path -> "missing field " ^ path
  | Wrong_type { path; expected } -> Printf.sprintf "%s is not %s" path expected
  | Out_of_range { path; why } -> Printf.sprintf "%s: %s" path why

exception Invalid of error

let validate json =
  let open Obs.Json in
  let get path j name =
    match j with
    | Obj _ -> (
        match member name j with
        | Some v -> v
        | None -> raise (Invalid (Missing (path ^ "." ^ name))))
    | _ -> raise (Invalid (Wrong_type { path; expected = "an object" }))
  in
  let typed expected conv path v =
    match conv v with
    | Some x -> x
    | None -> raise (Invalid (Wrong_type { path; expected }))
  in
  let int path = typed "an integer" (function Int n -> Some n | _ -> None) path in
  let number path = typed "a number" number_value path in
  let string path = typed "a string" string_value path in
  let bool path = typed "a boolean" (function Bool b -> Some b | _ -> None) path in
  let fields path = typed "an object" (function Obj kv -> Some kv | _ -> None) path in
  let metrics path v =
    List.map
      (fun (name, m) ->
        let p = path ^ "." ^ name in
        let value = number (p ^ ".value") (get p m "value") in
        if not (Float.is_finite value) then
          raise (Invalid (Out_of_range { path = p; why = "value is not finite" }));
        (name, { value; unit = string (p ^ ".unit") (get p m "unit") }))
      (fields path v)
  in
  let doc () =
    let field = get "$" json in
    let found = string "$.schema" (field "schema") in
    if found <> schema then raise (Invalid (Wrong_schema found));
    let attempted = int "$.attempted" (field "attempted") in
    let failed = int "$.failed" (field "failed") in
    if attempted < 1 then
      raise (Invalid (Out_of_range { path = "$.attempted"; why = "no op attempted" }));
    if failed < 0 || failed > attempted then
      raise (Invalid (Out_of_range { path = "$.failed"; why = "not within 0..attempted" }));
    let traced = bool "$.traced" (field "traced") in
    let seed = int "$.seed" (field "seed") in
    if seed < 0 then raise (Invalid (Out_of_range { path = "$.seed"; why = "negative" }));
    {
      workload = string "$.workload" (field "workload");
      seed;
      traced;
      attempted;
      failed;
      metrics = metrics "$.metrics" (field "metrics");
      per_layer = (if traced then metrics "$.per_layer" (field "per_layer") else []);
      counts =
        List.map
          (fun (name, v) -> (name, number ("$.counts." ^ name) v))
          (fields "$.counts" (field "counts"));
    }
  in
  match doc () with
  | d -> Ok d
  | exception Invalid e -> Error e
  | exception e -> Error (Not_json (Printexc.to_string e))

let of_string text =
  match Obs.Json.of_string text with
  | json -> validate json
  | exception Obs.Json.Parse_error why -> Error (Not_json why)
  | exception e -> Error (Not_json (Printexc.to_string e))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error why -> Error (Not_json why)
