let lut_delay_ns = 0.35

(* Segmented FPGA routing: a connection pays a near-constant switch
   cost plus a small distance-dependent term. *)
let wire_base_ns = 0.10
let wire_delay_ns_per_unit = 0.02

let wire_ns distance =
  if distance = 0 then 0.05
  else wire_base_ns +. (wire_delay_ns_per_unit *. float_of_int distance)
let ff_clk_to_q_ns = 0.25
let ff_setup_ns = 0.10

(* Logic elements: LUTs and flip-flops on the core grid, pads on the
   perimeter. *)
type element =
  | Lut of Techmap.lut
  | Ff of Netlist.net * Netlist.net  (* d, q *)
  | In_pad of Netlist.net
  | Out_pad of Netlist.net

type placement = {
  mapped : Techmap.mapped;
  elements : element array;
  px : int array;  (* per element *)
  py : int array;
  driver : int array;  (* net -> driving element, -1 for none *)
  width : int;
  height : int;
  initial_wl : float;
  final_wl : float;
}

type report = {
  grid : int * int;
  utilization : float;
  wirelength : float;
  initial_wirelength : float;
  critical_ns : float;
  fmax_mhz : float;
  lut_levels : int;
}

let sink_nets = function
  | Lut l -> l.Techmap.lut_inputs
  | Ff (d, _) | Out_pad d -> [| d |]
  | In_pad _ -> [||]

(* Whether [ins.(i)] already occurs in [ins.(j)] .. [ins.(i - 1)]. *)
let rec repeated ins i j = j < i && (ins.(j) = ins.(i) || repeated ins i (j + 1))

(* Connectivity in compressed-sparse-row form, over the [m] nets that
   have a driver and at least one other element reading them, numbered
   in net order; the other nets have wirelength 0 whatever the
   placement.  Net [k]'s pins are [pins.(pin_start.(k))] to
   [pins.(pin_start.(k + 1) - 1)]: its driver first, then every other
   element reading it, each once, so a pin stands for one element and
   moving an element moves one pin per net.  Element [e]'s nets are
   [nets.(net_start.(e))] to [nets.(net_start.(e + 1) - 1)]. *)
type conn = {
  m : int;
  pin_start : int array;
  pins : int array;
  net_start : int array;
  nets : int array;
}

(* Counts to end offsets, in place: [a.(i)] becomes the sum of
   [a.(0)] .. [a.(i)]. *)
let accumulate a =
  for i = 1 to Array.length a - 1 do
    a.(i) <- a.(i) + a.(i - 1)
  done

(* Fills a CSR row from its end: [ends.(row)] drops by one per entry,
   so once the row is full it holds the row's start. *)
let push ends cells row v =
  ends.(row) <- ends.(row) - 1;
  cells.(ends.(row)) <- v

let connect elements driver =
  (* [f n e] once per element [e] reading net [n] that another element
     drives; a LUT may list a net twice and a hold register reads the
     net it drives *)
  let iter_readers f =
    Array.iteri
      (fun e el ->
        let ins = sink_nets el in
        Array.iteri
          (fun i n ->
            if driver.(n) >= 0 && driver.(n) <> e && not (repeated ins i 0) then
              f n e)
          ins)
      elements
  in
  (* reader count of each net, then its index among the nets with
     readers, -1 for the others *)
  let id = Array.make (Array.length driver) 0 in
  iter_readers (fun n _ -> id.(n) <- id.(n) + 1);
  let m = Array.fold_left (fun m r -> if r > 0 then m + 1 else m) 0 id in
  let pin_start = Array.make (m + 1) 0 in
  let k = ref 0 in
  Array.iteri
    (fun n readers ->
      if readers = 0 then id.(n) <- -1
      else begin
        pin_start.(!k) <- readers + 1;
        id.(n) <- !k;
        incr k
      end)
    id;
  accumulate pin_start;
  let pins = Array.make pin_start.(m) 0 in
  iter_readers (fun n e -> push pin_start pins id.(n) e);
  (* the driver last, so it ends up first *)
  Array.iteri (fun n k -> if k >= 0 then push pin_start pins k driver.(n)) id;
  let n_elements = Array.length elements in
  let net_start = Array.make (n_elements + 1) 0 in
  Array.iter (fun e -> net_start.(e) <- net_start.(e) + 1) pins;
  accumulate net_start;
  let nets = Array.make net_start.(n_elements) 0 in
  for k = 0 to m - 1 do
    for p = pin_start.(k) to pin_start.(k + 1) - 1 do
      push net_start nets pins.(p) k
    done
  done;
  { m; pin_start; pins; net_start; nets }

(* Cached bounding box of each net, VPR-style (Betz & Rose 1997): per
   axis the low and high edge and how many pins lie on each, packed as
   [lo; hi; n_lo; n_hi] at [box_words * n] for x and 4 further on for
   y. *)
let box_words = 8

(* Recomputes net [n]'s axis box at [b] from the pins' [coord]. *)
let rescan c bb coord n b =
  let lo = ref max_int and hi = ref min_int in
  let n_lo = ref 0 and n_hi = ref 0 in
  for k = c.pin_start.(n) to c.pin_start.(n + 1) - 1 do
    let v = coord.(c.pins.(k)) in
    if v < !lo then begin lo := v; n_lo := 1 end
    else if v = !lo then incr n_lo;
    if v > !hi then begin hi := v; n_hi := 1 end
    else if v = !hi then incr n_hi
  done;
  bb.(b) <- !lo;
  bb.(b + 1) <- !hi;
  bb.(b + 2) <- !n_lo;
  bb.(b + 3) <- !n_hi

(* Half-perimeter wirelength of a net from its cached box. *)
let hpwl bb n =
  let b = box_words * n in
  bb.(b + 1) - bb.(b) + bb.(b + 5) - bb.(b + 4)

(* Moves one pin of the axis box at [b] from [v0] to [v1].  False when
   the pin was alone on the edge it leaves: the new edge is unknown
   until the net is rescanned. *)
let slide bb b v0 v1 =
  if v1 < v0 then
    if v0 = bb.(b + 1) && bb.(b + 3) = 1 then false
    else begin
      if v0 = bb.(b + 1) then bb.(b + 3) <- bb.(b + 3) - 1;
      if v1 < bb.(b) then begin
        bb.(b) <- v1;
        bb.(b + 2) <- 1
      end
      else if v1 = bb.(b) then bb.(b + 2) <- bb.(b + 2) + 1;
      true
    end
  else if v1 > v0 then
    if v0 = bb.(b) && bb.(b + 2) = 1 then false
    else begin
      if v0 = bb.(b) then bb.(b + 2) <- bb.(b + 2) - 1;
      if v1 > bb.(b + 1) then begin
        bb.(b + 1) <- v1;
        bb.(b + 3) <- 1
      end
      else if v1 = bb.(b + 1) then bb.(b + 3) <- bb.(b + 3) + 1;
      true
    end
  else true

let place ?(seed = 17) ?(moves = 150_000) mapped =
  let rng = Random.State.make [| seed |] in
  let nl = Techmap.source mapped in
  let pads make ports =
    List.concat_map (fun (_, nets) -> Array.to_list (Array.map make nets)) ports
  in
  let core =
    List.map (fun l -> Lut l) (Techmap.luts mapped)
    @ List.map (fun (d, q) -> Ff (d, q)) (Techmap.ffs mapped)
  in
  let elements =
    Array.of_list
      (core
      @ pads (fun n -> In_pad n) (Netlist.inputs nl)
      @ pads (fun n -> Out_pad n) (Netlist.outputs nl))
  in
  let n_elements = Array.length elements in
  let n_core = List.length core in
  let side = max 2 (int_of_float (ceil (sqrt (float_of_int n_core *. 1.3)))) in
  (* perimeter must hold the pads *)
  let n_pads = n_elements - n_core in
  let side = max side (1 + (n_pads / 4)) in
  let px = Array.make n_elements 0 and py = Array.make n_elements 0 in
  (* initial core placement: row-major with spare sites *)
  for i = 0 to n_core - 1 do
    px.(i) <- 1 + (i mod side);
    py.(i) <- 1 + (i / side)
  done;
  (* pads around the perimeter of the (side+2)^2 die *)
  let per_side = max 1 ((n_pads + 3) / 4) in
  for k = 0 to n_pads - 1 do
    let o = k mod per_side in
    let scaled = 1 + (o * (side + 1) / per_side) in
    let x, y =
      match k / per_side with
      | 0 -> (scaled, 0)
      | 1 -> (side + 1, scaled)
      | 2 -> (side + 1 - scaled, side + 1)
      | _ -> (0, side + 1 - scaled)
    in
    px.(n_core + k) <- x;
    py.(n_core + k) <- y
  done;
  let driver = Array.make (Netlist.net_count nl) (-1) in
  Array.iteri
    (fun i -> function
      | Lut l -> driver.(l.Techmap.lut_out) <- i
      | Ff (_, n) | In_pad n -> driver.(n) <- i
      | Out_pad _ -> ())
    elements;
  let c = connect elements driver in
  let bb = Array.make (box_words * c.m) 0 in
  for k = 0 to c.m - 1 do
    rescan c bb px k (box_words * k);
    rescan c bb py k ((box_words * k) + 4)
  done;
  let total_wl () =
    let sum = ref 0 in
    for k = 0 to c.m - 1 do
      sum := !sum + hpwl bb k
    done;
    float_of_int !sum
  in
  let initial_wl = total_wl () in
  (* occupant of each die site, -1 when empty; pads are never moved so
     only core sites are filled *)
  let width = side + 2 in
  let occupant = Array.make (width * width) (-1) in
  for i = 0 to n_core - 1 do
    occupant.((py.(i) * width) + px.(i)) <- i
  done;
  (* A move changes the boxes of the nets of the moved elements; each
     such net is logged once per move (net id, then its box) so a
     rejected move can restore it.  [stale.(2 * n)] (x) and
     [stale.(2 * n + 1)] (y) mark an axis whose edge emptied: it is
     rescanned once both elements have moved. *)
  let max_degree = ref 0 in
  for e = 0 to n_elements - 1 do
    max_degree := max !max_degree (c.net_start.(e + 1) - c.net_start.(e))
  done;
  let entry = box_words + 1 in
  let undo = Array.make (2 * !max_degree * entry) 0 in
  let n_logged = ref 0 in
  let logged = Array.make c.m (-1) and stale = Array.make (2 * c.m) (-1) in
  let cost_around e =
    let sum = ref 0 in
    for k = c.net_start.(e) to c.net_start.(e + 1) - 1 do
      sum := !sum + hpwl bb c.nets.(k)
    done;
    !sum
  in
  let shift attempt e x0 y0 x1 y1 =
    for k = c.net_start.(e) to c.net_start.(e + 1) - 1 do
      let n = c.nets.(k) in
      if logged.(n) <> attempt then begin
        logged.(n) <- attempt;
        let u = !n_logged * entry in
        undo.(u) <- n;
        for w = 0 to box_words - 1 do
          undo.(u + 1 + w) <- bb.((box_words * n) + w)
        done;
        incr n_logged
      end;
      let b = box_words * n in
      if stale.(2 * n) <> attempt && not (slide bb b x0 x1) then
        stale.(2 * n) <- attempt;
      if stale.((2 * n) + 1) <> attempt && not (slide bb (b + 4) y0 y1) then
        stale.((2 * n) + 1) <- attempt
    done
  in
  let moves = if n_core < 4 then 0 else moves in
  (* classic annealing: temperature scaled to typical move cost, and a
     proposal window that shrinks as the schedule cools so late moves
     are local refinements *)
  let temperature = ref (4.0 +. (initial_wl /. float_of_int (max 1 n_core))) in
  let clamp v = if v < 1 then 1 else if v > side then side else v in
  for attempt = 0 to moves - 1 do
    if attempt mod 997 = 996 then temperature := !temperature *. 0.95;
    let progress = float_of_int attempt /. float_of_int moves in
    let radius =
      max 2 (int_of_float (float_of_int side *. (1.2 -. progress)))
    in
    let e = Random.State.int rng n_core in
    let ex = px.(e) and ey = py.(e) in
    (* y offset before x: the draw order is part of what a seed means *)
    let ty = clamp (ey + Random.State.int rng ((2 * radius) + 1) - radius) in
    let tx = clamp (ex + Random.State.int rng ((2 * radius) + 1) - radius) in
    let o = occupant.((ty * width) + tx) in
    if o <> e then begin
      (* nets shared by [e] and [o] count twice, before and after *)
      let before = cost_around e + if o >= 0 then cost_around o else 0 in
      px.(e) <- tx;
      py.(e) <- ty;
      if o >= 0 then begin
        px.(o) <- ex;
        py.(o) <- ey
      end;
      n_logged := 0;
      shift attempt e ex ey tx ty;
      if o >= 0 then shift attempt o tx ty ex ey;
      for l = 0 to !n_logged - 1 do
        let n = undo.(l * entry) in
        if stale.(2 * n) = attempt then rescan c bb px n (box_words * n);
        if stale.((2 * n) + 1) = attempt then
          rescan c bb py n ((box_words * n) + 4)
      done;
      let after = cost_around e + if o >= 0 then cost_around o else 0 in
      let delta = float_of_int (after - before) in
      let accept =
        delta <= 0.0
        || Random.State.float rng 1.0
           < exp (-.delta /. Float.max 0.01 !temperature)
      in
      if accept then begin
        occupant.((ey * width) + ex) <- o;
        occupant.((ty * width) + tx) <- e
      end
      else begin
        px.(e) <- ex;
        py.(e) <- ey;
        if o >= 0 then begin
          px.(o) <- tx;
          py.(o) <- ty
        end;
        for l = 0 to !n_logged - 1 do
          let u = l * entry in
          let b = box_words * undo.(u) in
          for w = 0 to box_words - 1 do
            bb.(b + w) <- undo.(u + 1 + w)
          done
        done
      end
    end
  done;
  let final_wl = total_wl () in
  {
    mapped;
    elements;
    px;
    py;
    driver;
    width;
    height = width;
    initial_wl;
    final_wl;
  }

let by_module p =
  let nl = Techmap.source p.mapped in
  let tbl = Hashtbl.create 16 in
  let bump r =
    Hashtbl.replace tbl r
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r))
  in
  Array.iter
    (function
      | Lut l -> bump (Netlist.region_of nl l.Techmap.lut_out)
      | Ff (_, q) -> bump (Netlist.region_of nl q)
      | In_pad _ | Out_pad _ -> ())
    p.elements;
  List.sort compare (Hashtbl.fold (fun r n acc -> (r, n) :: acc) tbl [])

let analyze p =
  let n_nets = Array.length p.driver in
  (* arrival time and logic level per net; a net in progress reads as
     arrival 0.0, level 0 *)
  let seen = Array.make n_nets false in
  let arrival = Array.make n_nets 0.0 in
  let level = Array.make n_nets 0 in
  let lut_of = Array.make n_nets None in
  let ffq = Array.make n_nets false in
  Array.iter
    (function
      | Lut l -> lut_of.(l.Techmap.lut_out) <- Some l
      | Ff (_, q) -> ffq.(q) <- true
      | In_pad _ | Out_pad _ -> ())
    p.elements;
  (* wire distance from the driver of [net] (the origin if undriven) to
     element [e] *)
  let distance net e =
    let d = p.driver.(net) in
    let x, y = if d < 0 then (0, 0) else (p.px.(d), p.py.(d)) in
    abs (x - p.px.(e)) + abs (y - p.py.(e))
  in
  let rec arrive net =
    if seen.(net) then arrival.(net)
    else begin
      seen.(net) <- true;
      let a, lv =
        if ffq.(net) then (ff_clk_to_q_ns, 0)
        else
          match lut_of.(net) with
          | None -> (0.0, 0) (* primary input pad *)
          | Some l ->
              let here = p.driver.(net) in
              let worst = ref 0.0 and wl = ref 0 in
              Array.iter
                (fun input ->
                  let a_in = arrive input in
                  let wire = wire_ns (distance input here) in
                  if a_in +. wire > !worst then begin
                    worst := a_in +. wire;
                    wl := level.(input)
                  end)
                l.Techmap.lut_inputs;
              (!worst +. lut_delay_ns, !wl + 1)
      in
      arrival.(net) <- a;
      level.(net) <- lv;
      a
    end
  in
  let best = ref 0.0 and best_level = ref 0 in
  let consider net sink_element extra =
    let a = arrive net in
    let wire = wire_ns (distance net sink_element) in
    let total = a +. wire +. extra in
    if total > !best then begin
      best := total;
      best_level := level.(net)
    end
  in
  Array.iteri
    (fun i e ->
      match e with
      | Ff (d, _) -> consider d i ff_setup_ns
      | Out_pad n -> consider n i 0.0
      | Lut _ | In_pad _ -> ())
    p.elements;
  let n_core = Techmap.lut_count p.mapped + Techmap.ff_count p.mapped in
  {
    grid = (p.width, p.height);
    utilization =
      float_of_int n_core /. float_of_int ((p.width - 2) * (p.height - 2));
    wirelength = p.final_wl;
    initial_wirelength = p.initial_wl;
    critical_ns = !best;
    fmax_mhz = (if !best <= 0.0 then Float.infinity else 1000.0 /. !best);
    lut_levels = !best_level;
  }

let positions p = Array.init (Array.length p.px) (fun i -> (p.px.(i), p.py.(i)))
