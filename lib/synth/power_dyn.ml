(* Dynamic power from windowed switching activity.

   The estimator folds a Cover.Activity sampler (per-net toggle counts
   per cycle window, collected by Nl_sim) through a cell
   coefficient library into per-window energy/power samples, a total
   energy figure and a per-module attribution keyed by the netlist's
   region tables — the same join the area/timing breakdowns use, so all
   three tables line up row for row.

   Units: capacitance in fF, voltage in V, so one transition costs
   C*V^2 femtojoules; energies are reported in pJ and powers in mW at
   the configured clock.  Every coefficient below is documented so the
   worked example in docs/OBSERVABILITY.md can be checked by hand. *)

type lib = {
  lib_name : string;
  cap_ff : Backend.Cell.kind -> float;  (* output load per transition *)
  clock_pin_cap_ff : float;  (* per flip-flop clock pin, charged twice/cycle *)
  leakage_uw_per_ge : float;  (* static power per gate-equivalent *)
}

(* Generic gate library: load grows with cell drive/area. *)
let default_lib =
  {
    lib_name = "generic";
    cap_ff = (fun kind -> 1.5 +. (2.0 *. Backend.Cell.area kind));
    clock_pin_cap_ff = 1.0;
    leakage_uw_per_ge = 0.12;
  }

(* Techmap-aware library: after LUT4 mapping every combinational cell
   presents one LUT input load regardless of its pre-map kind, and the
   flip-flops carry the heavier clock network of an FPGA-class fabric. *)
let lut4_lib =
  {
    lib_name = "lut4";
    cap_ff =
      (fun kind ->
        match kind with Backend.Cell.Dff -> 8.0 | _ -> 6.0);
    clock_pin_cap_ff = 1.2;
    leakage_uw_per_ge = 0.15;
  }

type sample = {
  s_index : int;
  s_start : int;  (* first cycle of the window *)
  s_cycles : int;
  s_energy_pj : float;  (* switching + clock + leakage inside the window *)
  s_power_mw : float;
  s_by_module : (string * float) list;  (* per-module power, mW *)
}

type module_row = {
  pm_path : string;
  pm_energy_pj : float;
  pm_avg_mw : float;
  pm_toggles : int;
}

type report = {
  p_lib : string;
  p_freq_mhz : float;
  p_vdd : float;
  p_window : int;
  p_cycles : int;
  p_samples : sample list;
  p_total_energy_pj : float;
  p_avg_mw : float;
  p_peak_mw : float;
  p_leakage_mw : float;
  p_by_module : module_row list;
  p_peak_why : string option;
      (* "net@cycle" for the hottest net of the peak window — feed it to
         osss_debug --why to explain the activity behind the peak *)
}

let mw_of_pj energy_pj cycles f_hz =
  if cycles = 0 then 0.0
  else energy_pj *. 1e-12 /. (float_of_int cycles /. f_hz) *. 1e3

let analyze ?(freq_mhz = 66.0) ?(vdd = 1.8) ?(lib = default_lib) nl act =
  Cover.Activity.flush act;
  let f_hz = freq_mhz *. 1e6 in
  let v2 = vdd *. vdd in
  (* Nets without a driving cell (primary inputs, never-driven
     placeholders) carry no modelled load, matching the static estimator
     which iterates cells. *)
  let n_ffs = Array.length (Backend.Netlist.freeze nl).dffs in
  let area = (Backend.Area.analyze nl).Backend.Area.total in
  let leak_w = area *. lib.leakage_uw_per_ge *. 1e-6 in
  (* Per-cycle background energy (fJ): clock pins charge twice a cycle,
     leakage burns continuously. *)
  let clock_fj_cycle = 2.0 *. float_of_int n_ffs *. lib.clock_pin_cap_ff *. v2 in
  let leak_fj_cycle = if f_hz > 0.0 then leak_w /. f_hz *. 1e15 else 0.0 in
  let mod_energy = Hashtbl.create 16 in
  let mod_toggles = Hashtbl.create 16 in
  let add tbl k v =
    let cur = match Hashtbl.find_opt tbl k with Some x -> x | None -> 0.0 in
    Hashtbl.replace tbl k (cur +. v)
  in
  let samples =
    List.map
      (fun (w : Cover.Activity.window) ->
        let win_mod = Hashtbl.create 8 in
        let sw_fj = ref 0.0 in
        List.iter
          (fun (slot, count) ->
            match Backend.Netlist.driver nl slot with
            | None -> ()
            | Some c ->
                let fj = float_of_int count *. lib.cap_ff c.kind *. v2 in
                sw_fj := !sw_fj +. fj;
                let r = Backend.Netlist.region_of nl slot in
                add win_mod r fj;
                add mod_energy r fj;
                add mod_toggles r (float_of_int count))
          w.Cover.Activity.w_counts;
        let background =
          float_of_int w.w_cycles *. (clock_fj_cycle +. leak_fj_cycle)
        in
        let energy_pj = (!sw_fj +. background) *. 1e-3 in
        {
          s_index = w.w_index;
          s_start = w.w_start;
          s_cycles = w.w_cycles;
          s_energy_pj = energy_pj;
          s_power_mw = mw_of_pj energy_pj w.w_cycles f_hz;
          s_by_module =
            List.sort compare
              (Hashtbl.fold
                 (fun path fj acc ->
                   (path, mw_of_pj (fj *. 1e-3) w.w_cycles f_hz) :: acc)
                 win_mod []);
        })
      (Cover.Activity.windows act)
  in
  let cycles = Cover.Activity.cycles act in
  let total_energy_pj =
    List.fold_left (fun acc s -> acc +. s.s_energy_pj) 0.0 samples
  in
  let peak_mw =
    List.fold_left (fun acc s -> Float.max acc s.s_power_mw) 0.0 samples
  in
  let by_module =
    List.sort compare
      (Hashtbl.fold
         (fun path fj acc ->
           {
             pm_path = path;
             pm_energy_pj = fj *. 1e-3;
             pm_avg_mw = mw_of_pj (fj *. 1e-3) cycles f_hz;
             pm_toggles =
               int_of_float
                 (match Hashtbl.find_opt mod_toggles path with
                 | Some t -> t
                 | None -> 0.0);
           }
           :: acc)
         mod_energy [])
  in
  (* Hottest net of the hottest window, named exactly as the simulators
     label nets ("bus[3]", "u_hist.count[2]"), stamped with the cycle
     that closed the window — the subject/cycle pair osss_debug --why
     expects. *)
  let peak_why =
    match Cover.Activity.peak act with
    | None -> None
    | Some w -> (
        let best =
          List.fold_left
            (fun best (slot, count) ->
              if Backend.Netlist.driver nl slot = None then best
              else
                match best with
                | Some (_, c) when c >= count -> best
                | _ -> Some (slot, count))
            None w.Cover.Activity.w_counts
        in
        match best with
        | None -> None
        | Some (slot, _) ->
            let labels = Backend.Netlist.net_labels nl in
            Some
              (Printf.sprintf "%s@%d" labels.(slot)
                 (w.w_start + w.w_cycles)))
  in
  {
    p_lib = lib.lib_name;
    p_freq_mhz = freq_mhz;
    p_vdd = vdd;
    p_window = Cover.Activity.window_size act;
    p_cycles = cycles;
    p_samples = samples;
    p_total_energy_pj = total_energy_pj;
    p_avg_mw = mw_of_pj total_energy_pj cycles f_hz;
    p_peak_mw = peak_mw;
    p_leakage_mw = leak_w *. 1e3;
    p_by_module = by_module;
    p_peak_why = peak_why;
  }

(* Deterministic seeded stimulus, the osss_debug convention: every
   input is a pure function of (seed, cycle, input index) and
   reset-like inputs are held released so the circuit operates.  This
   gives Flow a design-agnostic way to exercise any netlist for a
   power figure that is reproducible across runs and machines. *)
let reset_like = function "ext_reset" | "reset" | "rst" -> true | _ -> false

let drive_inputs sim inputs seed c =
  List.iteri
    (fun i (name, width) ->
      let v =
        if reset_like name then Bitvec.zero width
        else
          let rng = Random.State.make [| seed; c; i |] in
          Bitvec.init width (fun _ -> Random.State.bool rng)
      in
      Backend.Nl_sim.set_input sim name v)
    inputs

let measure ?freq_mhz ?vdd ?lib ?(seed = 42) ?(cycles = 256) ?window nl =
  let sim = Backend.Nl_sim.create nl in
  Backend.Nl_sim.enable_power_sampler ?window sim;
  let inputs =
    List.map
      (fun (name, nets) -> (name, Array.length nets))
      (Backend.Netlist.inputs nl)
  in
  for c = 0 to cycles - 1 do
    drive_inputs sim inputs seed c;
    Backend.Nl_sim.step sim
  done;
  match Backend.Nl_sim.power_activity sim with
  | Some act -> analyze ?freq_mhz ?vdd ?lib nl act
  | None -> assert false

let to_json r =
  let open Obs.Json in
  Obj
    [
      ("lib", String r.p_lib);
      ("freq_mhz", Float r.p_freq_mhz);
      ("vdd", Float r.p_vdd);
      ("window", Int r.p_window);
      ("cycles", Int r.p_cycles);
      ("total_energy_pj", Float r.p_total_energy_pj);
      ("avg_mw", Float r.p_avg_mw);
      ("peak_mw", Float r.p_peak_mw);
      ("leakage_mw", Float r.p_leakage_mw);
      ( "peak_why",
        match r.p_peak_why with Some s -> String s | None -> Null );
      ( "samples",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("index", Int s.s_index);
                   ("start_cycle", Int s.s_start);
                   ("cycles", Int s.s_cycles);
                   ("energy_pj", Float s.s_energy_pj);
                   ("power_mw", Float s.s_power_mw);
                 ])
             r.p_samples) );
      ( "by_module",
        List
          (List.map
             (fun m ->
               Obj
                 [
                   ( "path",
                     String (if m.pm_path = "" then "<top>" else m.pm_path) );
                   ("energy_pj", Float m.pm_energy_pj);
                   ("avg_mw", Float m.pm_avg_mw);
                   ("toggles", Int m.pm_toggles);
                 ])
             r.p_by_module) );
    ]

let summary r =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "dynamic power (%s lib, %.0f MHz, %.1f V, window %d):\n" r.p_lib
    r.p_freq_mhz r.p_vdd r.p_window;
  p "  total energy: %.3f pJ over %d cycles\n" r.p_total_energy_pj r.p_cycles;
  p "  average: %.4f mW  peak window: %.4f mW  leakage: %.4f mW\n" r.p_avg_mw
    r.p_peak_mw r.p_leakage_mw;
  (match r.p_peak_why with
  | Some why -> p "  peak activity: osss_debug --why %s\n" why
  | None -> ());
  (match r.p_by_module with
  | [] | [ _ ] -> ()
  | rows ->
      p "  per-module:\n";
      p "    %-24s %10s %9s %8s\n" "instance" "energy pJ" "avg mW" "toggles";
      List.iter
        (fun m ->
          p "    %-24s %10.3f %9.4f %8d\n"
            (if m.pm_path = "" then "<top>" else m.pm_path)
            m.pm_energy_pj m.pm_avg_mw m.pm_toggles)
        rows);
  Buffer.contents buf

(* Real-valued power waveform: total in the root scope plus one trace
   per module, stamped at each window boundary (time unit = cycles). *)
let save_vcd r path =
  let vcd =
    Vcd_writer.create ~version:"osss power trace" ~timescale:"1ns"
      ~top:"power" ()
  in
  let total = Vcd_writer.register_real vcd ~initial:0.0 ~name:"power_mw" () in
  let mods =
    List.filter_map
      (fun m ->
        if m.pm_path = "" then None
        else
          Some
            ( m.pm_path,
              Vcd_writer.register_real vcd ~scope:m.pm_path ~initial:0.0
                ~name:"power_mw" () ))
      r.p_by_module
  in
  List.iter
    (fun s ->
      Vcd_writer.change_real vcd ~time:s.s_start total s.s_power_mw;
      List.iter
        (fun (path, id) ->
          let v =
            match List.assoc_opt path s.s_by_module with
            | Some mw -> mw
            | None -> 0.0
          in
          Vcd_writer.change_real vcd ~time:s.s_start id v)
        mods)
    r.p_samples;
  (match List.rev r.p_samples with
  | last :: _ ->
      Vcd_writer.change_real vcd
        ~time:(last.s_start + last.s_cycles)
        total last.s_power_mw
  | [] -> ());
  Vcd_writer.save vcd path
