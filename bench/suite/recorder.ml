(* In-memory recorder for traced benchmark runs.

   Spans are taken around the suite's own calls into the library's
   layers, at op and pass granularity; the library's [Obs.Span] stays
   off, so nothing is traced inside lib/.  Per-step timings go into
   histograms rather than being stored.  Every datum is tagged with the
   phase it was taken in: [Own] for the workload's own setup and ops,
   [Probe] for the extra calls a traced run makes so that every
   per-layer metric is measured in every workload (see Runner). *)

type phase = Own | Probe

let phase_name = function Own -> "own" | Probe -> "probe"

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  phase : phase;
  t0 : int64;  (* monotonic ns *)
  t1 : int64;
  alloc_words : float;  (* allocated on the calling domain *)
}

let on = ref false
let phase = ref Own
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let now () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let span_ms s = ms_between s.t0 s.t1

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = allocated_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let alloc_words = allocated_words () -. a0 in
      stack := List.tl !stack;
      spans :=
        { id; parent; name; phase = !phase; t0; t1; alloc_words } :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Log-bucketed histogram of nanosecond durations.  Buckets are 1%
   wide, so a quantile read back is within 1% of the exact order
   statistic, in constant memory however many steps are timed. *)
module Hist = struct
  let log_ratio = log 1.01
  let buckets = 2400 (* 1 ns .. ~2e10 ns *)

  type t = { counts : int array; mutable n : int; mutable total_ns : int }

  let create () = { counts = Array.make buckets 0; n = 0; total_ns = 0 }

  let add t ns =
    let b =
      if ns <= 1 then 0
      else min (buckets - 1) (int_of_float (log (float_of_int ns) /. log_ratio))
    in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.total_ns <- t.total_ns + ns

  let count t = t.n

  let quantile_ns t q =
    if t.n = 0 then nan
    else begin
      let rank = int_of_float (q *. float_of_int (t.n - 1)) in
      let b = ref 0 and seen = ref t.counts.(0) in
      while !seen <= rank do
        incr b;
        seen := !seen + t.counts.(!b)
      done;
      exp ((float_of_int !b +. 0.5) *. log_ratio)
    end
end

let hists : (string * phase, Hist.t) Hashtbl.t = Hashtbl.create 16
let notes : (string * phase, float list) Hashtbl.t = Hashtbl.create 64

(* The histogram [name] of the current phase; look it up once per frame,
   then [Hist.add] per step. *)
let hist name =
  let key = (name, !phase) in
  match Hashtbl.find_opt hists key with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.replace hists key h;
      h

(* Record one observation of a per-layer quantity (a count, a ratio). *)
let note name v =
  if !on then begin
    let key = (name, !phase) in
    let prev = Option.value ~default:[] (Hashtbl.find_opt notes key) in
    Hashtbl.replace notes key (v :: prev)
  end

(* Sum of every histogram's recorded time in the current phase. *)
let hist_total_ns () =
  Hashtbl.fold
    (fun (_, ph) h acc -> if ph = !phase then acc + h.Hist.total_ns else acc)
    hists 0

(* Named series of plain timings (ms) of the parts of an op, such as
   each engine's frame, kept while [sampling] is set (untraced ops). *)
let sampling = ref false
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let sample name v =
  if !sampling then
    Hashtbl.replace samples name
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  Hashtbl.reset hists;
  Hashtbl.reset notes;
  Hashtbl.reset samples;
  sampling := false;
  on := false;
  phase := Own

(* {1 Reading back} *)

let spans_named name ph =
  List.filter (fun s -> s.name = name && s.phase = ph) !spans

(* Summed duration of the direct children of span [id]. *)
let children_ms id =
  List.fold_left
    (fun acc s -> if s.parent = id then acc +. span_ms s else acc)
    0.0 !spans

let durations_ms name ph =
  Array.of_list (List.rev_map span_ms (spans_named name ph))

let allocs_words name ph =
  Array.of_list (List.rev_map (fun s -> s.alloc_words) (spans_named name ph))

let notes_of name ph =
  Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt notes (name, ph))))

let hist_of name ph =
  match Hashtbl.find_opt hists (name, ph) with
  | Some h when Hist.count h > 0 -> Some h
  | _ -> None

(* Per span name and phase: summed self time (duration minus the part
   covered by child spans) in ms, and the number of spans. *)
let self_times () =
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (span_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    !spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = span_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id) in
      let key = (s.name, s.phase) in
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc key) in
      Hashtbl.replace acc key (t +. self, n + 1))
    !spans;
  List.sort compare
    (Hashtbl.fold (fun (name, ph) (t, n) l -> (name, ph, t, n) :: l) acc [])

(* Words kept alive by the recorder: its own contribution to the heap. *)
let retained_words () = Obj.reachable_words (Obj.repr (!spans, hists, notes))

(* Chrome trace-event document (load in chrome://tracing or Perfetto). *)
let chrome () =
  let open Obs.Json in
  let origin =
    List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m)
      Int64.max_int !spans
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  Obj
    [
      ( "traceEvents",
        List
          (List.rev_map
             (fun s ->
               Obj
                 [
                   ("name", String s.name);
                   ("cat", String (phase_name s.phase));
                   ("ph", String "X");
                   ("ts", Float (us s.t0));
                   ("dur", Float (us s.t1 -. us s.t0));
                   ("pid", Int 1);
                   ("tid", Int 1);
                   ("args", Obj [ ("alloc_words", Float s.alloc_words) ]);
                 ])
             !spans) );
      ("displayTimeUnit", String "ms");
    ]
