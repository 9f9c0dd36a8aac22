(* ExpoCU frame stimulus and output readback, shared by the workloads. *)

let outputs =
  [| "scl"; "sda_out"; "sda_oe"; "exposure"; "frame_done"; "ack_error"; "median_bin" |]

let n_out = Array.length outputs
let random_pixels rng n = Array.init n (fun _ -> Random.State.int rng 256)

(* The directed frame of the synthesis checks: a fixed stride through
   the pixel range. *)
let directed_pixels n = Array.init n (fun i -> i * 53 mod 256)

(* Cycles a frame may take after its last pixel before frame_done. *)
let max_tail = 4000

(* One frame of stimulus: the design's power-on reset runs for 15
   cycles, frame_sync leads in for 4, then one pixel per cycle with
   line_valid high, then cycles until frame_done (at most [max_tail]).
   Returns the cycles stepped. *)
let drive ~set ~step ~frame_done pixels =
  List.iter
    (fun p -> set p 0)
    [ "ext_reset"; "sda_in"; "frame_sync"; "line_valid"; "pixel" ];
  set "target_bin" 7;
  let n = ref 0 in
  let step () =
    step ();
    incr n
  in
  for _ = 1 to 15 do step () done;
  set "frame_sync" 1;
  for _ = 1 to 4 do step () done;
  set "line_valid" 1;
  Array.iter
    (fun px ->
      set "pixel" px;
      step ())
    pixels;
  set "line_valid" 0;
  set "frame_sync" 0;
  let guard = ref 0 in
  while (not (frame_done ())) && !guard < max_tail do
    step ();
    incr guard
  done;
  !n

(* [step e], timed into a histogram when [hist] is given. *)
let stepper ?hist e =
  match hist with
  | None -> fun () -> Engine.step e
  | Some h ->
      fun () ->
        let t0 = Recorder.now () in
        Engine.step e;
        Recorder.Hist.add h (Int64.to_int (Int64.sub (Recorder.now ()) t0))

let frame_done e () = Engine.get_int e "frame_done" = 1

(* One frame on one engine. *)
let run ?hist e pixels =
  drive ~set:(Engine.set_input_int e) ~step:(stepper ?hist e)
    ~frame_done:(frame_done e) pixels

let final e = Array.map (Engine.get_int e) outputs

(* Per-cycle output rows, flat, preallocated for the longest frame. *)
type capture = { mutable rows : int; data : int array }

let capture pixels =
  { rows = 0; data = Array.make ((Array.length pixels + 19 + max_tail) * n_out) 0 }

let read_outputs e c =
  let base = c.rows * n_out in
  for j = 0 to n_out - 1 do
    c.data.(base + j) <- Engine.get_int e outputs.(j)
  done;
  c.rows <- c.rows + 1

(* One frame on one engine, with every cycle's outputs captured. *)
let record e pixels =
  let c = capture pixels in
  let step () =
    Engine.step e;
    read_outputs e c
  in
  ignore (drive ~set:(Engine.set_input_int e) ~step ~frame_done:(frame_done e) pixels);
  c

type mismatch = { cycle : int; port : string; expected : int; got : int }

let describe m =
  Printf.sprintf "cycle %d, port %s: expected %d, got %d" m.cycle m.port
    m.expected m.got

(* First cycle (1-based) and port where [got] departs from [reference];
   a frame of another length mismatches on the pseudo-port "cycles". *)
let first_mismatch ~reference got =
  let rows = min reference.rows got.rows in
  let rec scan i =
    if i >= rows * n_out then
      if reference.rows = got.rows then None
      else
        Some
          { cycle = rows + 1; port = "cycles"; expected = reference.rows; got = got.rows }
    else if reference.data.(i) <> got.data.(i) then
      Some
        {
          cycle = (i / n_out) + 1;
          port = outputs.(i mod n_out);
          expected = reference.data.(i);
          got = got.data.(i);
        }
    else scan (i + 1)
  in
  scan 0
