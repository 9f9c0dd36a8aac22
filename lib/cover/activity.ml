(* Windowed switching-activity sampler.

   Like Toggle, the collector is passive: the simulators own change
   detection and call [record] only for slots that actually toggled, so
   disabled sampling costs nothing and enabled sampling costs one array
   increment per changed bit.  [end_cycle] advances the window clock;
   when a window fills, the dense per-slot counters are snapshotted
   into a sparse (slot, count) list so long runs with mostly-quiet nets
   stay cheap to keep around. *)

type window = {
  w_index : int;
  w_start : int;  (* first cycle in the window *)
  w_cycles : int;
  w_counts : (int * int) list;  (* (slot, toggles), ascending slot *)
}

type t = {
  window : int;
  slots : int;
  cur : int array;
  (* Slots with [cur > 0], unordered: [touched.(0)] to
     [touched.(n_touched - 1)].  Each slot is pushed at most once per
     window, so [slots] entries always suffice and [record] allocates
     nothing. *)
  touched : int array;
  mutable n_touched : int;
  mutable cur_cycles : int;
  mutable closed : window list;  (* reverse order *)
  mutable n_closed : int;
  mutable total : int;
  mutable cycles : int;
}

let default_window = 64

let create ?(window = default_window) ~slots () =
  if window <= 0 then
    invalid_arg "Cover.Activity.create: window must be positive";
  if slots < 0 then invalid_arg "Cover.Activity.create: negative slot count";
  {
    window;
    slots;
    cur = Array.make slots 0;
    touched = Array.make slots 0;
    n_touched = 0;
    cur_cycles = 0;
    closed = [];
    n_closed = 0;
    total = 0;
    cycles = 0;
  }

let window_size t = t.window
let slots t = t.slots
let total_toggles t = t.total
let cycles t = t.cycles

let record t slot =
  let c = t.cur.(slot) in
  if c = 0 then begin
    t.touched.(t.n_touched) <- slot;
    t.n_touched <- t.n_touched + 1
  end;
  t.cur.(slot) <- c + 1;
  t.total <- t.total + 1

let close_window t =
  let touched = Array.sub t.touched 0 t.n_touched in
  Array.sort Int.compare touched;
  let counts =
    Array.fold_right
      (fun s acc ->
        let c = (s, t.cur.(s)) in
        t.cur.(s) <- 0;
        c :: acc)
      touched []
  in
  t.closed <-
    {
      w_index = t.n_closed;
      w_start = t.cycles - t.cur_cycles;
      w_cycles = t.cur_cycles;
      w_counts = counts;
    }
    :: t.closed;
  t.n_closed <- t.n_closed + 1;
  t.n_touched <- 0;
  t.cur_cycles <- 0

let end_cycle t =
  t.cur_cycles <- t.cur_cycles + 1;
  t.cycles <- t.cycles + 1;
  if t.cur_cycles = t.window then close_window t

(* Close a partial trailing window, if any activity or cycles are
   pending.  Idempotent: flushing twice adds nothing. *)
let flush t = if t.cur_cycles > 0 then close_window t

let windows t = List.rev t.closed
let window_count t = t.n_closed

let window_toggles w =
  List.fold_left (fun acc (_, c) -> acc + c) 0 w.w_counts

(* The completed window with the most toggles (ties break to the
   earlier window, matching "first hottest" debugging intuition). *)
let peak t =
  List.fold_left
    (fun best w ->
      match best with
      | Some b when window_toggles b >= window_toggles w -> best
      | _ -> Some w)
    None (windows t)
