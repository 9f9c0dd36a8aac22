(* Reference placer, the oracle of the place & route tests: the
   annealer and timing analysis as first written, with positions as
   tuples, connectivity in hash tables and every move re-walking the
   sink lists of each touched net.  Backend.Pnr must reproduce its
   placements and reports exactly for every seed and move count; it
   shares no code with it. *)

open Backend

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
  pos : (int * int) array;  (* per element *)
  width : int;
  height : int;
  driver_of : (Netlist.net, int) Hashtbl.t;  (* net -> element id *)
  sinks_of : (Netlist.net, int list) Hashtbl.t;
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

let manhattan (x0, y0) (x1, y1) = abs (x0 - x1) + abs (y0 - y1)

(* Half-perimeter wirelength of one net given element positions. *)
let net_hpwl pos driver sinks =
  let x0, y0 = pos.(driver) in
  let min_x = ref x0 and max_x = ref x0 in
  let min_y = ref y0 and max_y = ref y0 in
  List.iter
    (fun s ->
      let x, y = pos.(s) in
      if x < !min_x then min_x := x;
      if x > !max_x then max_x := x;
      if y < !min_y then min_y := y;
      if y > !max_y then max_y := y)
    sinks;
  float_of_int (!max_x - !min_x + !max_y - !min_y)

let place ?(seed = 17) ?(moves = 150_000) mapped =
  let rng = Random.State.make [| seed |] in
  let nl = Techmap.source mapped in
  let luts = Techmap.luts mapped in
  let ffs = Techmap.ffs mapped in
  let in_pads =
    List.concat_map
      (fun (_, nets) -> Array.to_list nets |> List.map (fun n -> In_pad n))
      (Netlist.inputs nl)
  in
  let out_pads =
    List.concat_map
      (fun (_, nets) -> Array.to_list nets |> List.map (fun n -> Out_pad n))
      (Netlist.outputs nl)
  in
  let core =
    List.map (fun l -> Lut l) luts @ List.map (fun (d, q) -> Ff (d, q)) ffs
  in
  let elements = Array.of_list (core @ in_pads @ out_pads) in
  let n_core = List.length core in
  let side = max 2 (int_of_float (ceil (sqrt (float_of_int n_core *. 1.3)))) in
  (* perimeter must hold the pads *)
  let n_pads = Array.length elements - n_core in
  let side = max side (1 + (n_pads / 4)) in
  let pos = Array.make (Array.length elements) (0, 0) in
  (* initial core placement: row-major with spare sites *)
  let core_sites =
    Array.init (side * side) (fun i -> (1 + (i mod side), 1 + (i / side)))
  in
  Array.iteri
    (fun i _ -> if i < n_core then pos.(i) <- core_sites.(i))
    elements;
  (* pads around the perimeter of the (side+2)^2 die *)
  let perimeter k =
    let per_side = max 1 ((n_pads + 3) / 4) in
    let side_idx = k / per_side and o = k mod per_side in
    let span = side + 1 in
    let scaled = 1 + (o * span / max 1 per_side) in
    match side_idx with
    | 0 -> (scaled, 0)
    | 1 -> (side + 1, scaled)
    | 2 -> (side + 1 - scaled, side + 1)
    | _ -> (0, side + 1 - scaled)
  in
  for k = 0 to n_pads - 1 do
    pos.(n_core + k) <- perimeter k
  done;
  (* connectivity *)
  let driver_of = Hashtbl.create 256 in
  let sinks_of = Hashtbl.create 256 in
  let add_sink net e =
    Hashtbl.replace sinks_of net
      (e :: Option.value ~default:[] (Hashtbl.find_opt sinks_of net))
  in
  Array.iteri
    (fun i e ->
      match e with
      | Lut l ->
          Hashtbl.replace driver_of l.Techmap.lut_out i;
          Array.iter (fun input -> add_sink input i) l.Techmap.lut_inputs
      | Ff (d, q) ->
          Hashtbl.replace driver_of q i;
          add_sink d i
      | In_pad n -> Hashtbl.replace driver_of n i
      | Out_pad n -> add_sink n i)
    elements;
  let nets =
    Hashtbl.fold
      (fun net driver acc ->
        match Hashtbl.find_opt sinks_of net with
        | Some sinks -> (net, driver, sinks) :: acc
        | None -> acc)
      driver_of []
    |> Array.of_list
  in
  (* nets touching each element, for incremental cost evaluation *)
  let nets_of_element = Array.make (Array.length elements) [] in
  Array.iteri
    (fun ni (_, driver, sinks) ->
      nets_of_element.(driver) <- ni :: nets_of_element.(driver);
      List.iter
        (fun s ->
          if not (List.mem ni nets_of_element.(s)) then
            nets_of_element.(s) <- ni :: nets_of_element.(s))
        sinks)
    nets;
  let total_wl () =
    Array.fold_left
      (fun acc (_, driver, sinks) -> acc +. net_hpwl pos driver sinks)
      0.0 nets
  in
  let initial_wl = total_wl () in
  (* occupancy map of core sites for swap/move proposals *)
  let occupant = Hashtbl.create 256 in
  for i = 0 to n_core - 1 do
    Hashtbl.replace occupant pos.(i) i
  done;
  let cost_around e =
    List.fold_left
      (fun acc ni ->
        let _, driver, sinks = nets.(ni) in
        acc +. net_hpwl pos driver sinks)
      0.0 nets_of_element.(e)
  in
  let moves = if n_core < 4 then 0 else moves in
  (* classic annealing: temperature scaled to typical move cost, and a
     proposal window that shrinks as the schedule cools so late moves
     are local refinements *)
  let temperature = ref (4.0 +. (initial_wl /. float_of_int (max 1 n_core))) in
  for attempt = 0 to moves - 1 do
    if attempt mod 997 = 996 then temperature := !temperature *. 0.95;
    let progress = float_of_int attempt /. float_of_int moves in
    let radius =
      max 2 (int_of_float (float_of_int side *. (1.2 -. progress)))
    in
    let e = Random.State.int rng n_core in
    let clamp v = max 1 (min side v) in
    let ex, ey = pos.(e) in
    let target =
      ( clamp (ex + Random.State.int rng (2 * radius + 1) - radius),
        clamp (ey + Random.State.int rng (2 * radius + 1) - radius) )
    in
    let other = Hashtbl.find_opt occupant target in
    let before =
      cost_around e
      +. match other with Some o when o <> e -> cost_around o | _ -> 0.0
    in
    let old_pos = pos.(e) in
    (match other with
    | Some o when o <> e ->
        pos.(e) <- target;
        pos.(o) <- old_pos
    | Some _ -> ()
    | None -> pos.(e) <- target);
    let after =
      cost_around e
      +. match other with Some o when o <> e -> cost_around o | _ -> 0.0
    in
    let delta = after -. before in
    let accept =
      delta <= 0.0
      || Random.State.float rng 1.0 < exp (-.delta /. max 0.01 !temperature)
    in
    if accept then begin
      Hashtbl.remove occupant old_pos;
      Hashtbl.remove occupant target;
      (match other with
      | Some o when o <> e -> Hashtbl.replace occupant old_pos o
      | _ -> ());
      Hashtbl.replace occupant pos.(e) e
    end
    else begin
      (* undo *)
      (match other with
      | Some o when o <> e -> pos.(o) <- target
      | _ -> ());
      pos.(e) <- old_pos
    end
  done;
  let final_wl = total_wl () in
  {
    mapped;
    elements;
    pos;
    width = side + 2;
    height = side + 2;
    driver_of;
    sinks_of;
    initial_wl;
    final_wl;
  }

let analyze p =
  let nl = Techmap.source p.mapped in
  (* arrival times per net with wire delays from the placement *)
  let arrival = Hashtbl.create 256 in
  let level = Hashtbl.create 256 in
  let lut_of = Hashtbl.create 256 in
  List.iter
    (fun (l : Techmap.lut) -> Hashtbl.replace lut_of l.Techmap.lut_out l)
    (Techmap.luts p.mapped);
  let ffq = Hashtbl.create 64 in
  List.iter (fun (_, q) -> Hashtbl.replace ffq q ()) (Techmap.ffs p.mapped);
  let pos_of_net net =
    match Hashtbl.find_opt p.driver_of net with
    | Some e -> p.pos.(e)
    | None -> (0, 0)
  in
  let rec arrive net =
    match Hashtbl.find_opt arrival net with
    | Some a -> a
    | None ->
        Hashtbl.replace arrival net 0.0;
        let a, lv =
          if Hashtbl.mem ffq net then (ff_clk_to_q_ns, 0)
          else
            match Hashtbl.find_opt lut_of net with
            | None -> (0.0, 0) (* primary input pad *)
            | Some l ->
                let here =
                  match Hashtbl.find_opt p.driver_of net with
                  | Some e -> p.pos.(e)
                  | None -> (0, 0)
                in
                let worst = ref 0.0 and wl = ref 0 in
                Array.iter
                  (fun input ->
                    let a_in = arrive input in
                    let wire = wire_ns (manhattan (pos_of_net input) here) in
                    if a_in +. wire > !worst then begin
                      worst := a_in +. wire;
                      wl := Option.value ~default:0 (Hashtbl.find_opt level input)
                    end)
                  l.Techmap.lut_inputs;
                (!worst +. lut_delay_ns, !wl + 1)
        in
        Hashtbl.replace arrival net a;
        Hashtbl.replace level net lv;
        a
  in
  let best = ref 0.0 and best_level = ref 0 in
  let consider net sink_element extra =
    let a = arrive net in
    let wire = wire_ns (manhattan (pos_of_net net) p.pos.(sink_element)) in
    let total = a +. wire +. extra in
    if total > !best then begin
      best := total;
      best_level := Option.value ~default:0 (Hashtbl.find_opt level net)
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
  ignore nl;
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

let positions p = Array.copy p.pos
