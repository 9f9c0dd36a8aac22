type state = {
  sim : Nl_sim.t;
  nl_inputs : (string * int) list;
  nl_outputs : (string * int) list;
  driven : (string, Bitvec.t) Hashtbl.t;  (* last broadcast per input port *)
  mutable probe_tbl : (string, Netlist.net) Hashtbl.t option;
      (* probe name -> net, built on first probe read *)
}

let make_impl sim_kind =
  (module struct
    type t = state

    let kind = sim_kind
    let inputs t = t.nl_inputs
    let outputs t = t.nl_outputs

    let set_input t name bv =
      Nl_sim.set_input t.sim name bv;
      Hashtbl.replace t.driven name bv

    let get_lane t ~lane name =
      match List.assoc_opt name t.nl_outputs with
      | Some _ -> Nl_sim.get_output ~lane t.sim name
      | None -> (
          (* Inputs echo the last broadcast value; per-lane input
             history is not retained. *)
          if lane < 0 || lane >= Nl_sim.lanes t.sim then
            invalid_arg (Printf.sprintf "Nl_engine.get_lane: lane %d" lane);
          match Hashtbl.find_opt t.driven name with
          | Some bv -> bv
          | None -> Bitvec.zero (List.assoc name t.nl_inputs))

    let get t name = get_lane t ~lane:0 name
    let settle t = Nl_sim.settle t.sim
    let step t = Nl_sim.step t.sim
    let cycles t = Nl_sim.cycles t.sim
    let lanes t = Nl_sim.lanes t.sim
    let set_input_lane t ~lane name bv =
      Nl_sim.set_input_lane t.sim ~lane name bv

    let stats t =
      [
        ("gate_evals", Nl_sim.gate_evals t.sim);
        ("cells_skipped", Nl_sim.cells_skipped t.sim);
        ("comb_cells", Nl_sim.comb_cells t.sim);
        ("dff_cells", Nl_sim.dff_cells t.sim);
        ("full_settles", Nl_sim.full_settles t.sim);
        ("toggles", Nl_sim.toggle_total t.sim);
      ]

    let probes t =
      List.map (fun (name, _) -> (name, 1)) (Nl_sim.probes t.sim)

    let probe t name =
      let tbl =
        match t.probe_tbl with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 64 in
            List.iter
              (fun (n, net) -> Hashtbl.replace tbl n net)
              (Nl_sim.probes t.sim);
            t.probe_tbl <- Some tbl;
            tbl
      in
      let net = Hashtbl.find tbl name in
      Bitvec.init 1 (fun _ -> Nl_sim.net_value t.sim net)

    let enable_cover t = Nl_sim.enable_toggle_cover t.sim
    let cover t = Nl_sim.toggle_cover t.sim
    let enable_power_sampler t = Nl_sim.enable_power_sampler t.sim
    let power_activity t = Nl_sim.power_activity t.sim
    let enable_events t = Nl_sim.enable_events t.sim
    let events _ = Obs.Event.events ()

    let checkpoint t =
      let ck = Nl_sim.checkpoint t.sim in
      Some (fun () -> Nl_sim.restore t.sim ck)
  end : Engine.S
    with type t = state)

let event_impl = make_impl "netlist-event"
let full_impl = make_impl "netlist-full"

let of_sim ?label sim =
  let nl = Nl_sim.netlist sim in
  let widths ports = List.map (fun (n, nets) -> (n, Array.length nets)) ports in
  Engine.pack ?label
    (match Nl_sim.mode sim with
    | Nl_sim.Event_driven -> event_impl
    | Nl_sim.Full_eval -> full_impl)
    {
      sim;
      nl_inputs = widths (Netlist.inputs nl);
      nl_outputs = widths (Netlist.outputs nl);
      driven = Hashtbl.create 8;
      probe_tbl = None;
    }

let create ?label ?mode ?lanes nl =
  of_sim ?label (Nl_sim.create ?mode ?lanes nl)
let create_word ?label ?mode ~lanes nl = create ?label ?mode ~lanes nl
