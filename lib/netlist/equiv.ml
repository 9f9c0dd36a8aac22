(* Global activity counters (see Metrics.Perf). *)
let ctr_rounds = Perf.counter "equiv.rounds"
let ctr_replays = Perf.counter "equiv.shrink_replays"

type mismatch = {
  at_cycle : int;
  port : string;
  expected : Bitvec.t;
  got : Bitvec.t;
  ref_engine : string;
  got_engine : string;
}

(* Everything needed to re-create the run a reproducer came from. *)
type provenance = { seed : int; engines : string list; lanes : int }

type divergence = {
  first : mismatch;
  window_start : int;
  window : (string * Bitvec.t) list array;
  replay : mismatch option;
  vcd : string option;
  provenance : provenance;
  causality : Obs.Event.t list;
      (* effect-first causal chain behind the first mismatching output
         of the events-on window replay; [] when the chain is empty or
         the window did not re-diverge *)
}

let pp_mismatch fmt m =
  Format.fprintf fmt "cycle %d, port %s: %s=%a, %s=%a" m.at_cycle m.port
    m.ref_engine Bitvec.pp m.expected m.got_engine Bitvec.pp m.got

let pp_divergence fmt d =
  pp_mismatch fmt d.first;
  Format.fprintf fmt "; reproducer: %d-cycle window from cycle %d"
    (Array.length d.window) d.window_start;
  (match d.replay with
  | Some m ->
      Format.fprintf fmt " (replays as cycle %d, port %s)" m.at_cycle m.port
  | None -> ());
  Format.fprintf fmt " [seed %d, %s, %d lane%s]" d.provenance.seed
    (String.concat " vs " d.provenance.engines)
    d.provenance.lanes
    (if d.provenance.lanes = 1 then "" else "s");
  if d.causality <> [] then
    Format.fprintf fmt " [causality: %d events]" (List.length d.causality);
  match d.vcd with
  | Some text -> Format.fprintf fmt " [vcd: %d bytes]" (String.length text)
  | None -> ()

let random_bv rng width = Bitvec.init width (fun _ -> Random.State.bool rng)

(* Drive one recorded input assignment into every engine, step them all,
   then compare every output of every non-reference engine against the
   reference.  Returns the first mismatch, if any. *)
let drive_and_compare engines outs cycle assignment =
  Perf.incr ctr_rounds;
  List.iter
    (fun (name, value) ->
      List.iter (fun e -> Engine.set_input e name value) engines)
    assignment;
  List.iter Engine.step engines;
  let reference = List.hd engines in
  let rec scan = function
    | [] -> None
    | e :: rest ->
        let rec ports = function
          | [] -> scan rest
          | (port, _) :: more ->
              let expected = Engine.get reference port in
              let got = Engine.get e port in
              if Bitvec.equal expected got then ports more
              else
                Some
                  {
                    at_cycle = cycle;
                    port;
                    expected;
                    got;
                    ref_engine = Engine.label reference;
                    got_engine = Engine.label e;
                  }
        in
        ports outs
  in
  scan (List.tl engines)

(* Serializes the events-on window replays of [differential]: the
   causal event ring ([Obs.Event]) is one per process, so two shards
   shrinking concurrently on pool domains must not both record into
   it. *)
let event_replay_lock = Mutex.create ()

(* Phase span carrying the Perf counter deltas the phase caused, so a
   trace shows which phase spent which gate evaluations. *)
let with_phase_span name attrs f =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name ~attrs (fun () ->
        let before = Perf.snapshot () in
        let r = f () in
        List.iter (fun (k, d) -> Obs.Span.add_attr_int k d) (Perf.since before);
        r)
  else f ()

(* Replay a stimulus slice against fresh engines; first mismatch, if
   any.  [observe] is called after every cycle (used for tracing);
   [events] switches the fresh engines' causal event emission on, for
   the record-cheap / replay-rich pattern. *)
let replay_window ?(observe = fun _ -> ()) ?(events = false) factories outs
    window =
  Perf.incr ctr_replays;
  with_phase_span "equiv.replay"
    [ ("window", string_of_int (Array.length window)) ]
    (fun () ->
      let engines = List.map (fun f -> f ()) factories in
      if events then List.iter Engine.enable_events engines;
      let n = Array.length window in
      let rec cycle i =
        if i >= n then None
        else begin
          let result = drive_and_compare engines outs i window.(i) in
          observe engines;
          match result with Some m -> Some m | None -> cycle (i + 1)
        end
      in
      observe engines;
      cycle 0)

let shrink_window factories outs stim =
  with_phase_span "equiv.shrink"
    [ ("recorded", string_of_int (Array.length stim)) ]
    (fun () ->
      let total = Array.length stim in
      let suffix len = Array.sub stim (total - len) len in
      let diverges len = replay_window factories outs (suffix len) <> None in
      (* The full recording reproduces by determinism; binary-search the
         shortest suffix that still diverges when replayed from reset. *)
      let lo = ref 1 and hi = ref total in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if diverges mid then hi := mid else lo := mid + 1
      done;
      let len = if diverges !lo then !lo else total in
      Obs.Span.add_attr_int "shrunk_to" len;
      len)

let differential ?(cycles = 500) ?(seed = 42) ?(drive = fun _ (_, r) -> r)
    ?(shrink = true) ?(dump_vcd = false) factories =
  if List.length factories < 2 then
    invalid_arg "Equiv.differential: need at least two engines";
  let engines = List.map (fun f -> f ()) factories in
  let reference = List.hd engines in
  let ins = Engine.inputs reference in
  let outs = Engine.outputs reference in
  let rng = Random.State.make [| seed |] in
  let stim = Array.make cycles [] in
  with_phase_span "equiv.differential"
    [
      ("cycles", string_of_int cycles);
      ("seed", string_of_int seed);
      ("engines", string_of_int (List.length factories));
    ]
  @@ fun () ->
  let rec cycle n =
    if n >= cycles then Ok cycles
    else begin
      let assignment =
        List.map
          (fun (name, width) -> (name, drive n (name, random_bv rng width)))
          ins
      in
      stim.(n) <- assignment;
      match drive_and_compare engines outs n assignment with
      | None -> cycle (n + 1)
      | Some first ->
          let recorded = Array.sub stim 0 (n + 1) in
          let len =
            if shrink then shrink_window factories outs recorded else n + 1
          in
          let window = Array.sub recorded (n + 1 - len) len in
          (* Record cheap, replay rich: the shrunk window is re-run with
             causal events on, which both confirms the reproducer and
             yields the chain of events behind the first mismatching
             output.  The global log's prior state is preserved.  The
             event ring is process-global, so the events-on replay is
             serialized: concurrent shard shrinks (parallel fault
             campaigns, differential sweeps) take turns instead of
             interleaving their chains into one ring. *)
          let replay, causality =
            Mutex.protect event_replay_lock (fun () ->
                let was_on = Obs.Event.enabled () in
                if not was_on then Obs.Event.enable ();
                let replay = replay_window ~events:true factories outs window in
                let causality =
                  match replay with
                  | None -> []
                  | Some m -> (
                      match
                        Obs.Causal.why ~subject:m.port ~cycle:(m.at_cycle + 1)
                          ()
                      with
                      | Some node -> Obs.Causal.chain node
                      | None -> [])
                in
                if not was_on then Obs.Event.disable ();
                (replay, causality))
          in
          let provenance =
            {
              seed;
              engines = List.map Engine.label engines;
              lanes =
                List.fold_left (fun acc e -> max acc (Engine.lanes e)) 1 engines;
            }
          in
          let vcd =
            if not dump_vcd then None
            else begin
              let tracer = ref None in
              let observe engines =
                let tr =
                  match !tracer with
                  | Some tr -> tr
                  | None ->
                      let tr = Engine.Trace.create engines in
                      tracer := Some tr;
                      tr
                in
                Engine.Trace.sample tr
              in
              ignore (replay_window ~observe factories outs window);
              Option.map Engine.Trace.contents !tracer
            end
          in
          Error
            {
              first;
              window_start = n + 1 - len;
              window;
              replay;
              vcd;
              provenance;
              causality;
            }
    end
  in
  let result = cycle 0 in
  Obs.Span.add_attr "result"
    (match result with Ok _ -> "ok" | Error _ -> "diverged");
  result

(* ------------------------------------------------------------------ *)
(* Lane-parallel fault campaign.                                       *)

let ctr_campaigns = Perf.counter "equiv.fault_campaigns"

type lane_fault = { fault_net : Netlist.net; stuck_at : bool }

type fault_result = {
  fault : lane_fault;
  site : string;  (* hierarchical description of the faulted net *)
  lane : int;
  detected_at : int option;
  detect_port : string option;
  shrunk : divergence option;
}

type campaign = {
  faults_total : int;
  faults_detected : int;
  campaign_cycles : int;
  campaign_gate_evals : int;
  fault_results : fault_result list;
}

let pp_fault_result fmt r =
  Format.fprintf fmt "lane %d stuck-at-%d on %s: " r.lane
    (Bool.to_int r.fault.stuck_at)
    r.site;
  match (r.detected_at, r.detect_port) with
  | Some c, Some p -> Format.fprintf fmt "detected at cycle %d on %s" c p
  | _ -> Format.fprintf fmt "undetected"

(* One campaign shard: the full word-parallel detect-then-shrink body
   over its slice of the fault list, on its own [Nl_sim] instance.
   Runs on a pool domain when the campaign is sharded; lanes in the
   returned results are shard-local (the merge re-indexes them).  The
   stimulus is broadcast — identical for every lane and every shard —
   and faults are lane-isolated, so a fault's detection cycle and port
   do not depend on which other faults share its simulation: sharding
   cannot change the per-fault results. *)
let campaign_shard ~cycles ~seed ~drive ~mode ~shrink nl faults =
  let nfaults = List.length faults in
  let lanes = nfaults + 1 in
  let sim = Nl_sim.create ~mode ~lanes nl in
  List.iteri
    (fun i f ->
      Nl_sim.inject_stuck_at sim ~lane:(i + 1) ~net:f.fault_net
        ~value:f.stuck_at)
    faults;
  let ins =
    List.map (fun (n, nets) -> (n, Array.length nets)) (Netlist.inputs nl)
  in
  let outs = List.map fst (Netlist.outputs nl) in
  (* Same stimulus protocol as [differential] (one [random_bv] per input
     port, declaration order, every cycle) so a detection cycle here is
     the divergence cycle of the scalar-vs-faulty replay below. *)
  let rng = Random.State.make [| seed |] in
  let detected = Array.make lanes None in
  let remaining = ref nfaults in
  let n = ref 0 in
  while !n < cycles && !remaining > 0 do
    Perf.incr ctr_rounds;
    List.iter
      (fun (name, width) ->
        Nl_sim.set_input sim name (drive !n (name, random_bv rng width)))
      ins;
    Nl_sim.step sim;
    List.iter
      (fun port ->
        if !remaining > 0 then
          List.iter
            (fun lane ->
              if detected.(lane) = None then begin
                detected.(lane) <- Some (!n, port);
                decr remaining
              end)
            (Nl_sim.diverging_lanes sim port))
      outs;
    incr n
  done;
  (* Hand a detected fault to the scalar differential harness: golden
     scalar engine vs a single-lane simulator carrying just this
     fault, replayed under the same seed — shrink and replay machinery
     then produce the minimal reproducer window. *)
  let shrink_one f cyc =
    let gold () = Nl_engine.create ~label:("gold:" ^ Netlist.name nl) nl in
    let faulty () =
      let w = Nl_sim.create ~mode nl in
      Nl_sim.inject_stuck_at w ~lane:0 ~net:f.fault_net ~value:f.stuck_at;
      Nl_engine.of_sim
        ~label:
          (Printf.sprintf "fault:n%d=%d" f.fault_net (Bool.to_int f.stuck_at))
        w
    in
    match differential ~cycles:(cyc + 1) ~seed ~drive [ gold; faulty ] with
    | Error d -> Some d
    | Ok _ -> None
  in
  let fault_results =
    List.mapi
      (fun i f ->
        let lane = i + 1 in
        let site = Netlist.describe_net nl f.fault_net in
        match detected.(lane) with
        | None ->
            {
              fault = f;
              site;
              lane;
              detected_at = None;
              detect_port = None;
              shrunk = None;
            }
        | Some (cyc, port) ->
            {
              fault = f;
              site;
              lane;
              detected_at = Some cyc;
              detect_port = Some port;
              shrunk = (if shrink then shrink_one f cyc else None);
            })
      faults
  in
  let faults_detected = nfaults - !remaining in
  {
    faults_total = nfaults;
    faults_detected;
    campaign_cycles = !n;
    campaign_gate_evals = Nl_sim.gate_evals sim;
    fault_results;
  }

let fault_campaign ?(cycles = 500) ?(seed = 42) ?(drive = fun _ (_, r) -> r)
    ?(mode = Nl_sim.Event_driven) ?(shrink = true) ?jobs nl faults =
  Perf.incr ctr_campaigns;
  let jobs = max 1 (match jobs with Some j -> j | None -> Par.default_jobs ()) in
  let nfaults = List.length faults in
  with_phase_span "equiv.fault_campaign"
    [
      ("faults", string_of_int nfaults);
      ("cycles", string_of_int cycles);
      ("seed", string_of_int seed);
      ("jobs", string_of_int jobs);
    ]
  @@ fun () ->
  let shards = Par.chunks ~shards:jobs faults in
  (* Build the cached frozen view here, once: every shard's
     [Nl_sim.create] then reads it instead of building its own on its
     own domain and racing the others to cache it. *)
  ignore (Netlist.freeze nl);
  let parts =
    if Array.length shards = 1 then
      (* Serial path: no pool, one shard carrying the whole fault list
         — the exact pre-sharding code. *)
      [| campaign_shard ~cycles ~seed ~drive ~mode ~shrink nl shards.(0) |]
    else
      Par.map ~jobs
        ~label:(fun i -> Printf.sprintf "fault-shard-%d" i)
        (fun i -> campaign_shard ~cycles ~seed ~drive ~mode ~shrink nl shards.(i))
        (Array.length shards)
  in
  (* Merge in shard order.  Lanes re-index to the fault's position in
     the campaign's full fault list (1-based, as before), so the merged
     results are identical for every [jobs]; cycles merge by max (every
     shard sees the same broadcast stimulus, a shard merely stops early
     once its own faults are all detected) and gate evaluations by sum
     (the work actually spent). *)
  let base = ref 0 in
  let fault_results =
    List.concat_map
      (fun (c : campaign) ->
        let here =
          List.map (fun r -> { r with lane = !base + r.lane }) c.fault_results
        in
        base := !base + c.faults_total;
        here)
      (Array.to_list parts)
  in
  let faults_detected =
    Array.fold_left (fun acc c -> acc + c.faults_detected) 0 parts
  in
  Obs.Span.add_attr_int "detected" faults_detected;
  {
    faults_total = nfaults;
    faults_detected;
    campaign_cycles =
      Array.fold_left (fun acc c -> max acc c.campaign_cycles) 0 parts;
    campaign_gate_evals =
      Array.fold_left (fun acc c -> acc + c.campaign_gate_evals) 0 parts;
    fault_results;
  }

(* ------------------------------------------------------------------ *)
(* Multi-seed differential sweeps.                                     *)

let ctr_sweeps = Perf.counter "equiv.sweeps"

let differential_sweep ?(cycles = 500) ?(drive = fun _ (_, r) -> r)
    ?(shrink = true) ?(dump_vcd = false) ?jobs ~seeds factories =
  if List.length factories < 2 then
    invalid_arg "Equiv.differential_sweep: need at least two engines";
  Perf.incr ctr_sweeps;
  let jobs = max 1 (match jobs with Some j -> j | None -> Par.default_jobs ()) in
  let seed_arr = Array.of_list seeds in
  with_phase_span "equiv.sweep"
    [
      ("seeds", string_of_int (Array.length seed_arr));
      ("cycles", string_of_int cycles);
      ("jobs", string_of_int jobs);
    ]
  @@ fun () ->
  (* One shard per seed: each runs a full lockstep differential with
     its own fresh engines (factories are invoked on the shard's
     domain, honouring the one-engine-per-domain contract), and the
     work-stealing pool balances uneven seeds — one that diverges pays
     for shrink and replay, the rest are straight runs. *)
  let results =
    Par.map ~jobs
      ~label:(fun i -> Printf.sprintf "sweep-seed-%d" seed_arr.(i))
      (fun i ->
        let seed = seed_arr.(i) in
        (seed, differential ~cycles ~seed ~drive ~shrink ~dump_vcd factories))
      (Array.length seed_arr)
  in
  let divergent =
    Array.fold_left
      (fun acc (_, r) -> match r with Error _ -> acc + 1 | Ok _ -> acc)
      0 results
  in
  Obs.Span.add_attr_int "divergent" divergent;
  Array.to_list results

let ir_vs_netlist ?cycles ?seed ?drive design nl =
  differential ?cycles ?seed ?drive
    [
      (fun () -> Rtl_engine.create ~label:("rtl:" ^ design.Ir.mod_name) design);
      (fun () -> Nl_engine.create ~label:("gates:" ^ Netlist.name nl) nl);
    ]

let ir_vs_ir ?cycles ?seed ?drive a b =
  differential ?cycles ?seed ?drive
    [
      (fun () -> Rtl_engine.create ~label:("rtl:" ^ a.Ir.mod_name) a);
      (fun () -> Rtl_engine.create ~label:("rtl:" ^ b.Ir.mod_name) b);
    ]
