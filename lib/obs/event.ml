(* Bounded causal event log.  One process-global ring buffer of
   structured simulation events; every emission returns a stable,
   monotonically increasing sequence number that other emissions store
   as their *cause*.  Because cause references are sequence numbers
   (not slot indices), wraparound can only make a cause unresolvable
   ([find] returns [None] once the referenced event has been evicted)
   — it can never silently point at the wrong event.

   Disabled by default, same discipline as [Span]: hot paths guard
   every emission on [enabled ()], so a run without the event log pays
   one branch per candidate event. *)

let schema_version = "osss.event-log/v1"

type kind =
  | Stimulus  (* primary input driven from outside *)
  | Net_change  (* gate-level net moved *)
  | Var_change  (* RTL variable committed a new value *)
  | Process_wake
  | Process_run
  | Delta_open
  | Delta_close
  | Fault  (* fault injected / corrupted read *)
  | Cover_epoch
  | Checkpoint

type t = {
  seq : int;
  kind : kind;
  subject : string;
  time : int;  (* kernel picoseconds; 0 for cycle-based backends *)
  cycle : int;
  lane : int;  (* -1: lane-less or aggregate over all lanes *)
  value : int;  (* low bits of the new value *)
  cause : int;  (* seq of the causing event, or [no_cause] *)
}

let no_cause = -1

let kind_name = function
  | Stimulus -> "stimulus"
  | Net_change -> "net-change"
  | Var_change -> "var-change"
  | Process_wake -> "process-wake"
  | Process_run -> "process-run"
  | Delta_open -> "delta-open"
  | Delta_close -> "delta-close"
  | Fault -> "fault"
  | Cover_epoch -> "cover-epoch"
  | Checkpoint -> "checkpoint"

let kind_of_name = function
  | "stimulus" -> Some Stimulus
  | "net-change" -> Some Net_change
  | "var-change" -> Some Var_change
  | "process-wake" -> Some Process_wake
  | "process-run" -> Some Process_run
  | "delta-open" -> Some Delta_open
  | "delta-close" -> Some Delta_close
  | "fault" -> Some Fault
  | "cover-epoch" -> Some Cover_epoch
  | "checkpoint" -> Some Checkpoint
  | _ -> None

(* The ring, one column per field: slot [seq mod cap] holds the event
   with sequence number [seq] until [cap] newer events have evicted it,
   so a slot's seq is never stored — [find] and [events] know it
   already.  An emission writes seven array slots and allocates
   nothing; records are built only when the log is read. *)
type ring = {
  kinds : kind array;
  subjects : string array;
  times : int array;
  cycles : int array;
  lanes : int array;
  values : int array;
  causes : int array;
}

let make_ring c =
  {
    kinds = Array.make c Stimulus;
    subjects = Array.make c "";
    times = Array.make c 0;
    cycles = Array.make c 0;
    lanes = Array.make c (-1);
    values = Array.make c 0;
    causes = Array.make c no_cause;
  }

(* Single-threaded global state; [total] doubles as the next sequence
   number.  [cap] is 0 until the first [enable]. *)
let flag = ref false
let ring = ref (make_ring 0)
let cap = ref 0
let total = ref 0
let default_capacity = 16384

let enabled () = !flag
let capacity () = !cap
let count () = min !total !cap
let dropped () = max 0 (!total - !cap)

let enable ?capacity () =
  let c =
    match capacity with
    | Some c ->
        if c < 1 then invalid_arg "Obs.Event.enable: capacity must be >= 1";
        c
    | None -> if !cap > 0 then !cap else default_capacity
  in
  (* Re-enabling at the current capacity keeps the retained events (and
     the sequence numbering), so a paused log can be resumed. *)
  if c <> !cap then begin
    ring := make_ring c;
    cap := c;
    total := 0
  end;
  flag := true

let disable () = flag := false

let reset () =
  (* Release the retained subjects; every other column is overwritten
     before it is read again. *)
  Array.fill !ring.subjects 0 !cap "";
  total := 0

let record ~time ~cycle ~lane ~value ~cause kind subject =
  if not !flag then no_cause
  else begin
    let r = !ring and seq = !total in
    let i = seq mod !cap in
    Array.unsafe_set r.kinds i kind;
    Array.unsafe_set r.subjects i subject;
    Array.unsafe_set r.times i time;
    Array.unsafe_set r.cycles i cycle;
    Array.unsafe_set r.lanes i lane;
    Array.unsafe_set r.values i value;
    Array.unsafe_set r.causes i cause;
    total := seq + 1;
    seq
  end

let emit ?(time = 0) ?(cycle = 0) ?(lane = -1) ?(value = 0) ?(cause = no_cause)
    kind subject =
  record ~time ~cycle ~lane ~value ~cause kind subject

(* The retained event [seq], as a record. *)
let get seq =
  let r = !ring and i = seq mod !cap in
  {
    seq;
    kind = r.kinds.(i);
    subject = r.subjects.(i);
    time = r.times.(i);
    cycle = r.cycles.(i);
    lane = r.lanes.(i);
    value = r.values.(i);
    cause = r.causes.(i);
  }

let find seq =
  if seq < 0 || seq >= !total || seq < !total - !cap then None
  else Some (get seq)

let events () =
  let first = !total - count () in
  List.init (count ()) (fun k -> get (first + k))

(* Newest retained seq satisfying [p], scanning newest first: the
   natural direction for "what last touched this subject" queries. *)
let scan_last p =
  let oldest = !total - count () in
  let rec go seq =
    if seq < oldest then None else if p seq then Some seq else go (seq - 1)
  in
  go (!total - 1)

let find_last p = Option.map get (scan_last (fun seq -> p (get seq)))

(* Latest event on [subject] — exact name, or a bit of the named bus
   ("pixel" matches "pixel[7]") — at or before [cycle] when given,
   restricted to value-carrying kinds unless [any_kind].  Reads the
   columns, so only the match becomes a record. *)
let latest ?cycle ?(any_kind = false) ~subject () =
  let prefix = subject ^ "[" in
  let plen = String.length prefix in
  let r = !ring in
  Option.map get
    (scan_last (fun seq ->
         let i = seq mod !cap in
         let s = r.subjects.(i) in
         (s = subject
         || String.length s > plen && String.sub s 0 plen = prefix)
         && (match cycle with None -> true | Some c -> r.cycles.(i) <= c)
         && (any_kind
            ||
            match r.kinds.(i) with
            | Stimulus | Net_change | Var_change | Fault -> true
            | _ -> false)))

(* ------------------------------------------------------------------ *)
(* JSONL export: one header object stamped with the schema version,
   then one compact object per retained event, oldest first.           *)

let to_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("kind", Json.String (kind_name e.kind));
       ("subject", Json.String e.subject);
       ("time", Json.Int e.time);
       ("cycle", Json.Int e.cycle);
       ("value", Json.Int e.value);
     ]
    @ (if e.lane >= 0 then [ ("lane", Json.Int e.lane) ] else [])
    @ if e.cause >= 0 then [ ("cause", Json.Int e.cause) ] else [])

let of_json json =
  let int_field name default =
    match Json.member name json with
    | Some (Json.Int v) -> Ok v
    | Some _ -> Error (Printf.sprintf "event field %S is not an integer" name)
    | None -> Ok default
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* seq =
    match Json.member "seq" json with
    | Some (Json.Int v) -> Ok v
    | _ -> Error "event lacks an integer \"seq\""
  in
  let* kind =
    match Json.member "kind" json with
    | Some (Json.String s) -> (
        match kind_of_name s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "unknown event kind %S" s))
    | _ -> Error "event lacks a string \"kind\""
  in
  let* subject =
    match Json.member "subject" json with
    | Some (Json.String s) -> Ok s
    | _ -> Error "event lacks a string \"subject\""
  in
  let* time = int_field "time" 0 in
  let* cycle = int_field "cycle" 0 in
  let* lane = int_field "lane" (-1) in
  let* value = int_field "value" 0 in
  let* cause = int_field "cause" no_cause in
  Ok { seq; kind; subject; time; cycle; lane; value; cause }

let header_json () =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("events", Json.Int (count ()));
      ("dropped", Json.Int (dropped ()));
      ("capacity", Json.Int (capacity ()));
    ]

let to_jsonl () =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Json.to_string (header_json ()));
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      Buffer.add_string b (Json.to_string (to_json e));
      Buffer.add_char b '\n')
    (events ());
  Buffer.contents b

let save_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl ()))

(* Structural schema check over a JSONL document — the single
   definition every producer and the CI validation step go through
   (mirrors [Report.validate]).  Returns the number of events. *)
let validate_jsonl text =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty event log"
  | header :: rest ->
      let* hdr =
        match Json.of_string header with
        | exception Json.Parse_error msg ->
            Error ("header is not valid JSON: " ^ msg)
        | j -> Ok j
      in
      let* () =
        match Json.member "schema" hdr with
        | Some (Json.String s) when s = schema_version -> Ok ()
        | Some (Json.String s) ->
            Error
              (Printf.sprintf "schema %S, expected %S" s schema_version)
        | Some _ -> Error "field \"schema\" is not a string"
        | None -> Error "header lacks a \"schema\" stamp"
      in
      let* declared =
        match Json.member "events" hdr with
        | Some (Json.Int n) -> Ok n
        | _ -> Error "header lacks an integer \"events\" count"
      in
      let* () =
        match Json.member "dropped" hdr with
        | Some (Json.Int _) -> Ok ()
        | _ -> Error "header lacks an integer \"dropped\" count"
      in
      let rec check i prev = function
        | [] ->
            if i = declared then Ok i
            else
              Error
                (Printf.sprintf "header declares %d events, found %d" declared
                   i)
        | line :: rest ->
            let* ev =
              match Json.of_string line with
              | exception Json.Parse_error msg ->
                  Error (Printf.sprintf "event %d is not valid JSON: %s" i msg)
              | j -> of_json j
            in
            let* () =
              match prev with
              | Some p when ev.seq <> p + 1 ->
                  Error
                    (Printf.sprintf
                       "event %d: seq %d does not follow seq %d" i ev.seq p)
              | _ -> Ok ()
            in
            let* () =
              if ev.cause >= ev.seq && ev.cause <> no_cause then
                Error
                  (Printf.sprintf "event %d: cause %d is not older than seq %d"
                     i ev.cause ev.seq)
              else Ok ()
            in
            check (i + 1) (Some ev.seq) rest
      in
      check 0 None rest

let validate_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  validate_jsonl text
