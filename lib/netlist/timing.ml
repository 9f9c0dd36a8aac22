type report = {
  critical_ns : float;
  fmax_mhz : float;
  endpoint : string;
  levels : int;
}

(* Arrival times and logic depths per net, shared by the whole-design
   report and the per-module breakdown: one pass over the frozen
   topological order, so every input is final before its reader.
   Primary inputs arrive at 0, flip-flop outputs at clock-to-q. *)
let propagate nl =
  let frozen = Netlist.freeze nl in
  let n = Netlist.net_count nl in
  let arrival = Array.make n 0.0 in
  let depth = Array.make n 0 in
  Array.iter
    (fun (c : Netlist.cell) -> arrival.(c.out) <- Cell.delay Cell.Dff)
    frozen.dffs;
  Array.iter
    (fun (c : Netlist.cell) ->
      let worst = ref 0.0 and lvl = ref 0 in
      Array.iter
        (fun i ->
          let a = arrival.(i) in
          if a > !worst then begin
            worst := a;
            lvl := depth.(i)
          end
          else if a = !worst && depth.(i) > !lvl then lvl := depth.(i))
        c.ins;
      arrival.(c.out) <- !worst +. Cell.delay c.kind;
      depth.(c.out) <-
        (!lvl + if c.kind = Cell.Const0 || c.kind = Cell.Const1 then 0 else 1))
    frozen.comb;
  (arrival, depth)

let report_of nl (arrival, depth) =
  let best = ref 0.0 and best_ep = ref "(none)" and best_lvl = ref 0 in
  let consider label net extra =
    let a = arrival.(net) +. extra in
    if a > !best then begin
      best := a;
      best_ep := label;
      best_lvl := depth.(net)
    end
  in
  Array.iter
    (fun (c : Netlist.cell) ->
      consider (Printf.sprintf "dff d-input (net %d)" c.ins.(0)) c.ins.(0)
        Cell.setup_time)
    (Netlist.freeze nl).dffs;
  List.iter
    (fun (name, nets) ->
      Array.iter (fun net -> consider ("output " ^ name) net 0.0) nets)
    (Netlist.outputs nl);
  let critical_ns = !best in
  let fmax_mhz =
    if critical_ns <= 0.0 then Float.infinity else 1000.0 /. critical_ns
  in
  { critical_ns; fmax_mhz; endpoint = !best_ep; levels = !best_lvl }

let meets r ~freq_mhz = r.fmax_mhz >= freq_mhz

type module_row = { path : string; m_worst_ns : float; m_levels : int }

let modules_of nl (arrival, depth) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c : Netlist.cell) ->
      let a = arrival.(c.out) in
      let r = Netlist.region_of nl c.out in
      match Hashtbl.find_opt tbl r with
      | Some (worst, _) when worst >= a -> ()
      | _ -> Hashtbl.replace tbl r (a, depth.(c.out)))
    (Netlist.cells nl);
  List.sort compare
    (Hashtbl.fold
       (fun path (m_worst_ns, m_levels) acc ->
         { path; m_worst_ns; m_levels } :: acc)
       tbl [])

let analyze nl = report_of nl (propagate nl)
let by_module nl = modules_of nl (propagate nl)

let analyze_by_module nl =
  let p = propagate nl in
  (report_of nl p, modules_of nl p)

let pp_report fmt r =
  Format.fprintf fmt
    "critical path %.2f ns (%d levels) to %s; fmax %.1f MHz" r.critical_ns
    r.levels r.endpoint r.fmax_mhz
