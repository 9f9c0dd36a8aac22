type time = int

exception Deadlock of string

module Timed_queue = struct
  (* Binary min-heap of (time, sequence, thunk).  The sequence number
     keeps notifications at equal times in insertion order, which gives
     deterministic simulations. *)
  type entry = { at : time; seq : int; thunk : unit -> unit }

  type t = {
    mutable heap : entry array;
    mutable size : int;
    mutable next_seq : int;
  }

  let dummy = { at = 0; seq = 0; thunk = (fun () -> ()) }

  let create ?(capacity = 64) () =
    { heap = Array.make (max 1 capacity) dummy; size = 0; next_seq = 0 }

  let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let push q ~at thunk =
    if q.size = Array.length q.heap then begin
      (* [max]: a queue created small (or emptied to a tiny heap by an
         earlier shrink) must still at least double past the default. *)
      let bigger = Array.make (max 64 (2 * q.size)) dummy in
      Array.blit q.heap 0 bigger 0 q.size;
      q.heap <- bigger
    end;
    let e = { at; seq = q.next_seq; thunk } in
    q.next_seq <- q.next_seq + 1;
    q.heap.(q.size) <- e;
    q.size <- q.size + 1;
    (* sift up *)
    let i = ref (q.size - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      less q.heap.(!i) q.heap.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = q.heap.(p) in
      q.heap.(p) <- q.heap.(!i);
      q.heap.(!i) <- tmp;
      i := p
    done

  let min_time q = if q.size = 0 then None else Some q.heap.(0).at

  let size q = q.size

  let pop q =
    assert (q.size > 0);
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    q.heap.(0) <- q.heap.(q.size);
    q.heap.(q.size) <- dummy;
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < q.size && less q.heap.(l) q.heap.(!smallest) then smallest := l;
      if r < q.size && less q.heap.(r) q.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = q.heap.(!smallest) in
        q.heap.(!smallest) <- q.heap.(!i);
        q.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    top
end

(* Global activity counters and distributions (see Metrics.Perf and
   Obs.Hist); per-kernel totals live in [t] below. *)
let ctr_deltas = Perf.counter "kernel.deltas"
let ctr_runs = Perf.counter "kernel.process_runs"
let hist_deltas_per_run = Obs.Hist.histogram "kernel.deltas_per_run"
let hist_queue_depth = Obs.Hist.histogram "kernel.timed_queue_depth"

type t = {
  mutable now : time;
  mutable deltas : int;
  mutable runs : int;
  runnable : (unit -> unit) Queue.t;
  mutable woken : (unit -> unit) list;
  mutable updates : (unit -> unit) list;
  timed : Timed_queue.t;
  mutable startup : (unit -> unit) list;
  mutable started : bool;
  mutable stop_requested : bool;
  wake_tally : (string, int ref) Hashtbl.t;
      (* per-process wake counts, recorded by Process on activation *)
  (* Causal events (see Obs.Event): seq of the current delta's open
     event and of the latest process activation, the causes stamped on
     process wakes.  Gated on the global [Obs.Event.enabled] flag only
     — one branch each while the log is off. *)
  mutable ev_delta : int;
  mutable ev_cause : int;
}

type event = {
  ev_name : string;
  kernel : t;
  mutable static : (unit -> unit) list;
  mutable dynamic : (unit -> unit) list;
}

let create () =
  {
    now = 0;
    deltas = 0;
    runs = 0;
    runnable = Queue.create ();
    woken = [];
    updates = [];
    timed = Timed_queue.create ();
    startup = [];
    started = false;
    stop_requested = false;
    wake_tally = Hashtbl.create 16;
    ev_delta = Obs.Event.no_cause;
    ev_cause = Obs.Event.no_cause;
  }

let now k = k.now
let delta_count k = k.deltas
let process_runs k = k.runs

(* A lane-less, value-less event at the current time and delta, through
   the allocation-free primitive (see Obs.Event.record). *)
let ev_record k ~cause kind subject =
  Obs.Event.record ~time:k.now ~cycle:k.deltas ~lane:(-1) ~value:0 ~cause kind
    subject

let record_wake k name =
  (match Hashtbl.find_opt k.wake_tally name with
  | Some r -> incr r
  | None -> Hashtbl.replace k.wake_tally name (ref 1));
  if Obs.Event.enabled () then
    k.ev_cause <- ev_record k ~cause:k.ev_delta Obs.Event.Process_run name

let wake_counts k =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) k.wake_tally []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let make_event kernel ev_name = { ev_name; kernel; static = []; dynamic = [] }
let event_name e = e.ev_name

let subscribe_static e f = e.static <- f :: e.static
let subscribe_once e f = e.dynamic <- f :: e.dynamic

let notify e =
  let k = e.kernel in
  if Obs.Event.enabled () then
    ignore (ev_record k ~cause:k.ev_cause Obs.Event.Process_wake e.ev_name);
  (* Static subscribers run at every notification; dynamic subscribers
     are consumed.  Subscription order is preserved for determinism. *)
  k.woken <- List.rev_append (List.rev e.dynamic) k.woken;
  k.woken <- List.fold_left (fun acc f -> f :: acc) k.woken (List.rev e.static);
  e.dynamic <- []

let schedule_now k f = Queue.push f k.runnable
let schedule_update k f = k.updates <- f :: k.updates
let schedule_at k delay f = Timed_queue.push k.timed ~at:(k.now + delay) f
let notify_after e delay = schedule_at e.kernel delay (fun () -> notify e)
let add_startup k f = k.startup <- f :: k.startup

let stop k = k.stop_requested <- true
let stopped k = k.stop_requested

(* One delta cycle: evaluation, then update, then wake. *)
let run_delta k =
  k.deltas <- k.deltas + 1;
  Perf.incr ctr_deltas;
  if Obs.Event.enabled () then begin
    (* Chain deltas to each other: each open is caused by the previous
       one, giving [why] a spine to walk along between process events. *)
    k.ev_delta <- ev_record k ~cause:k.ev_delta Obs.Event.Delta_open "delta";
    k.ev_cause <- k.ev_delta
  end;
  while not (Queue.is_empty k.runnable) do
    let p = Queue.pop k.runnable in
    k.runs <- k.runs + 1;
    Perf.incr ctr_runs;
    p ()
  done;
  let commits = List.rev k.updates in
  k.updates <- [];
  List.iter (fun commit -> commit ()) commits;
  let woken = List.rev k.woken in
  k.woken <- [];
  List.iter (fun f -> Queue.push f k.runnable) woken;
  if Obs.Event.enabled () then
    ignore (ev_record k ~cause:k.ev_delta Obs.Event.Delta_close "delta")

let has_delta_work k =
  (not (Queue.is_empty k.runnable)) || k.updates <> [] || k.woken <> []

let run_until_raw k bound =
  if not k.started then begin
    k.started <- true;
    List.iter (fun f -> Queue.push f k.runnable) (List.rev k.startup);
    k.startup <- []
  end;
  let continue = ref true in
  while !continue && not k.stop_requested do
    while has_delta_work k && not k.stop_requested do
      run_delta k
    done;
    if k.stop_requested then continue := false
    else
      match Timed_queue.min_time k.timed with
      | None -> continue := false
      | Some t when t > bound -> continue := false
      | Some t ->
          k.now <- t;
          (* Release every timed thunk scheduled for this instant. *)
          let rec drain () =
            match Timed_queue.min_time k.timed with
            | Some t' when t' = t ->
                let e = Timed_queue.pop k.timed in
                Queue.push e.Timed_queue.thunk k.runnable;
                drain ()
            | _ -> ()
          in
          drain ()
  done;
  if k.now < bound && not k.stop_requested then k.now <- bound

(* The observed wrapper costs one branch when tracing and histogram
   recording are both off; each kernel step (run of the scheduler up to
   a time bound) becomes one span with its delta/run consumption. *)
let run_until k bound =
  if Obs.Span.enabled () || Obs.Hist.enabled () then begin
    let d0 = k.deltas and r0 = k.runs in
    Obs.Hist.observe_int hist_queue_depth (Timed_queue.size k.timed);
    Obs.Span.with_ ~name:"kernel.run"
      ~attrs:[ ("until_ps", string_of_int bound) ]
      (fun () ->
        run_until_raw k bound;
        Obs.Span.add_attr_int "deltas" (k.deltas - d0);
        Obs.Span.add_attr_int "process_runs" (k.runs - r0));
    Obs.Hist.observe_int hist_deltas_per_run (k.deltas - d0)
  end
  else run_until_raw k bound

let run_for k d = run_until k (k.now + d)
