(* Lane-parallel netlist simulation: lane-0 identity with the
   reference evaluator (both scheduling modes, one and several words of
   lanes, several seeds), per-lane stimulus through the packed/transpose
   API, per-lane stuck-at faults with packed divergence detection, the
   lane-parallel fault campaign, the multi-lane Engine adapter with
   lane-pinned fault injection, and per-lane toggle coverage. *)

open Hdl
open Builder.Dsl
module N = Backend.Netlist
module Ws = Backend.Nl_sim

let alu_design () =
  let b = Builder.create "mini_alu" in
  let op = Builder.input b "op" 2 in
  let a = Builder.input b "a" 8 in
  let x = Builder.input b "x" 8 in
  let y = Builder.output b "y" 8 in
  Builder.comb b "alu"
    [
      case (v op)
        [
          (0, [ y <-- (v a +: v x) ]);
          (1, [ y <-- (v a -: v x) ]);
          (2, [ y <-- (v a &: v x) ]);
        ]
        [ y <-- (v a ^: v x) ];
    ];
  Builder.finish b

let counter_design () =
  let b = Builder.create "counter" in
  let reset = Builder.input b "reset" 1 in
  let count = Builder.output b "count" 8 in
  Builder.sync b "tick"
    [
      if_ (v reset)
        [ count <-- c ~width:8 0 ]
        [ count <-- (v count +: c ~width:8 1) ];
    ];
  Builder.finish b

(* Lane 0 of the simulator must be indistinguishable from the reference
   evaluator under identical random stimulus, for every (mode, lanes)
   configuration: same outputs every cycle and the same per-net toggle
   counts. *)
let check_lane0_identity ~configs ~cycles ~seed nl =
  List.iter
    (fun (mode, lanes) ->
      match Nl_oracle.lane0_divergence ~mode ~lanes ~cycles ~seed nl with
      | None -> ()
      | Some m ->
          Alcotest.failf "%s, seed %#x, %d lanes, %s mode: %s" (N.name nl) seed
            lanes
            (if mode = Ws.Event_driven then "event" else "full")
            m)
    configs

let test_lane0_identity_seeds () =
  let designs =
    [
      Backend.Lower.lower (alu_design ());
      Backend.Lower.lower (counter_design ());
    ]
  in
  List.iter
    (fun seed ->
      List.iter
        (check_lane0_identity ~configs:Nl_oracle.configs ~cycles:150 ~seed)
        designs)
    [ 0xA1; 0xB2; 0xC3 ]

let test_lane0_identity_expocu () =
  let nl = Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()) in
  check_lane0_identity
    ~configs:[ (Ws.Event_driven, 64); (Ws.Full_eval, 64) ]
    ~cycles:150 ~seed:0xE5C1 nl

let test_wsim_loop_detection () =
  let nl = N.create ~fold:false ~name:"ring" () in
  let a = N.add_input nl "a" 1 in
  let g1 = N.and2 nl a.(0) a.(0) in
  let g2 = N.or2 nl g1 a.(0) in
  let cell_of out = List.find (fun (c : N.cell) -> c.out = out) (N.cells nl) in
  (cell_of g1).ins.(1) <- g2;
  Alcotest.check_raises "loop raises"
    (Backend.Nl_sim.Combinational_loop { module_name = "ring"; net = g1 })
    (fun () -> ignore (Ws.create ~lanes:2 nl));
  let sane = Backend.Lower.lower (counter_design ()) in
  Alcotest.(check bool)
    "lanes < 1 rejected" true
    (try
       ignore (Ws.create ~lanes:0 sane);
       false
     with Invalid_argument _ -> true)

let test_per_lane_stimulus () =
  let nl = Backend.Lower.lower (alu_design ()) in
  let cases =
    [|
      (0, 200, 100);
      (1, 100, 30);
      (2, 0xCC, 0xAA);
      (3, 0xCC, 0xAA);
      (0, 1, 2);
      (1, 5, 9);
      (2, 0xF0, 0x3C);
    |]
  in
  let lanes = Array.length cases in
  let oracle = Nl_oracle.create nl in
  let expected =
    Array.map
      (fun (op, a, x) ->
        Nl_oracle.set_input oracle "op" (Bitvec.of_int ~width:2 op);
        Nl_oracle.set_input oracle "a" (Bitvec.of_int ~width:8 a);
        Nl_oracle.set_input oracle "x" (Bitvec.of_int ~width:8 x);
        Nl_oracle.settle oracle;
        Nl_oracle.get_output oracle "y")
      cases
  in
  (* Lane at a time. *)
  let w = Ws.create ~lanes nl in
  Array.iteri
    (fun l (op, a, x) ->
      Ws.set_input_lane w ~lane:l "op" (Bitvec.of_int ~width:2 op);
      Ws.set_input_lane w ~lane:l "a" (Bitvec.of_int ~width:8 a);
      Ws.set_input_lane w ~lane:l "x" (Bitvec.of_int ~width:8 x))
    cases;
  Ws.settle w;
  Array.iteri
    (fun l _ ->
      Alcotest.(check bool)
        (Printf.sprintf "lane %d matches the oracle" l)
        true
        (Bitvec.equal expected.(l) (Ws.get_output ~lane:l w "y")))
    cases;
  (* All lanes in one packed call, recovered through transpose. *)
  let w2 = Ws.create ~lanes nl in
  let column f width =
    Bitvec.transpose
      (Array.map (fun case -> Bitvec.of_int ~width (f case)) cases)
  in
  Ws.set_input_packed w2 "op" (column (fun (op, _, _) -> op) 2);
  Ws.set_input_packed w2 "a" (column (fun (_, a, _) -> a) 8);
  Ws.set_input_packed w2 "x" (column (fun (_, _, x) -> x) 8);
  Ws.settle w2;
  let per_lane_y = Bitvec.transpose (Ws.get_output_packed w2 "y") in
  Array.iteri
    (fun l _ ->
      Alcotest.(check bool)
        (Printf.sprintf "packed lane %d matches the oracle" l)
        true
        (Bitvec.equal expected.(l) per_lane_y.(l)))
    cases

let test_stuck_at_lanes () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let count = List.assoc "count" (N.outputs nl) in
  let w = Ws.create ~lanes:4 nl in
  Ws.set_input_int w "reset" 1;
  Ws.step w;
  Ws.set_input_int w "reset" 0;
  Ws.inject_stuck_at w ~lane:1 ~net:count.(0) ~value:true;
  Ws.inject_stuck_at w ~lane:2 ~net:count.(1) ~value:false;
  Alcotest.(check int) "two faults live" 2 (Ws.faults w);
  Ws.run w 4;
  Alcotest.(check int) "golden lane counts" 4 (Ws.get_output_int w "count");
  Alcotest.(check int) "clean lane matches golden" 4
    (Ws.get_output_int ~lane:3 w "count");
  Alcotest.(check (list int))
    "faulty lanes detected" [ 1; 2 ]
    (Ws.diverging_lanes w "count")

let test_stuck_at_multiword () =
  (* Faults in lanes beyond the first machine word must inject and
     detect exactly like word-0 lanes. *)
  let nl = Backend.Lower.lower (counter_design ()) in
  let count = List.assoc "count" (N.outputs nl) in
  let w = Ws.create ~lanes:70 nl in
  Ws.set_input_int w "reset" 1;
  Ws.step w;
  Ws.set_input_int w "reset" 0;
  List.iter
    (fun lane -> Ws.inject_stuck_at w ~lane ~net:count.(0) ~value:true)
    [ 1; 64; 68 ];
  Ws.run w 4;
  Alcotest.(check (list int))
    "faulty lanes across words detected" [ 1; 64; 68 ]
    (Ws.diverging_lanes w "count")

let check_campaign ~cycles ?seed nl faults =
  let c = Backend.Equiv.fault_campaign ~cycles ?seed nl faults in
  Alcotest.(check int) "faults simulated" (List.length faults)
    c.Backend.Equiv.faults_total;
  Alcotest.(check int) "all faults detected" (List.length faults)
    c.Backend.Equiv.faults_detected;
  Alcotest.(check bool)
    "campaign stops early" true
    (c.Backend.Equiv.campaign_cycles <= cycles);
  List.iter
    (fun (r : Backend.Equiv.fault_result) ->
      (match r.detected_at with
      | None -> Alcotest.failf "%a" Backend.Equiv.pp_fault_result r
      | Some cyc ->
          Alcotest.(check bool)
            "detected within the campaign" true
            (cyc < c.Backend.Equiv.campaign_cycles));
      match r.shrunk with
      | None -> Alcotest.fail "detected fault has no shrunk reproducer"
      | Some d ->
          Alcotest.(check bool)
            "shrunk window non-empty" true
            (Array.length d.Backend.Equiv.window > 0);
          Alcotest.(check bool)
            "shrunk window replays" true
            (d.Backend.Equiv.replay <> None))
    c.Backend.Equiv.fault_results

let test_fault_campaign () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let count = List.assoc "count" (N.outputs nl) in
  check_campaign ~cycles:300 ~seed:7 nl
    [
      { Backend.Equiv.fault_net = count.(0); stuck_at = true };
      { Backend.Equiv.fault_net = count.(2); stuck_at = false };
    ];
  (* A stuck-at-1 on the ExpoCU's frame_done output net, observed
     against the golden lane and handed back as a replaying
     reproducer. *)
  let expocu = Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()) in
  let frame_done = (List.assoc "frame_done" (N.outputs expocu)).(0) in
  check_campaign ~cycles:120 expocu
    [ { Backend.Equiv.fault_net = frame_done; stuck_at = true } ]

let test_word_engine () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let e = Backend.Nl_engine.create ~lanes:8 nl in
  Alcotest.(check string) "kind by mode" "netlist-event" (Engine.kind e);
  Alcotest.(check int) "word lanes" 8 (Engine.lanes e);
  let s = Backend.Nl_engine.create nl in
  Alcotest.(check int) "one lane by default" 1 (Engine.lanes s);
  Alcotest.check_raises "single lane rejects lane 1"
    (Invalid_argument "Nl_sim: lane 1 out of range (1 lanes)")
    (fun () -> Engine.set_input_lane s ~lane:1 "reset" (Bitvec.of_bool true));
  Engine.set_input_int e "reset" 1;
  Engine.step e;
  Engine.set_input_int e "reset" 0;
  Engine.run e 3;
  Alcotest.(check int) "broadcast counts" 3 (Engine.get_int e "count");
  Alcotest.(check int) "last lane counts too" 3
    (Bitvec.to_int (Engine.get_lane e ~lane:7 "count"));
  Alcotest.check_raises "fault lane range checked"
    (Invalid_argument "Engine.inject_fault: lane 9 out of range (8 lanes)")
    (fun () -> ignore (Engine.inject_fault ~lane:9 ~port:"count" e));
  let f = Engine.inject_fault ~lane:5 ~port:"count" e in
  Alcotest.(check bool)
    "label names the lane" true
    (String.length (Engine.label f) > 2
    && String.sub (Engine.label f)
         (String.length (Engine.label f) - 2)
         2
       = "@5");
  Alcotest.(check int) "pinned lane sees the flip" (3 lxor 1)
    (Bitvec.to_int (Engine.get_lane f ~lane:5 "count"));
  Alcotest.(check int) "other lanes are clean" 3
    (Bitvec.to_int (Engine.get_lane f ~lane:4 "count"));
  Alcotest.(check int) "plain view (lane 0) is clean" 3 (Engine.get_int f "count")

let test_lane_cover () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let w = Ws.create ~lanes:3 nl in
  Alcotest.(check bool) "no cover before enable" true (Ws.lane_cover w 0 = None);
  Ws.enable_toggle_cover w;
  Ws.set_input_int w "reset" 1;
  Ws.step w;
  Ws.set_input_int w "reset" 0;
  for _ = 1 to 8 do
    (* Hold lane 2 in reset while lanes 0 and 1 count. *)
    Ws.set_input_lane w ~lane:2 "reset" (Bitvec.of_bool true);
    Ws.step w
  done;
  let cov l =
    match Ws.lane_cover w l with
    | Some c -> c
    | None -> Alcotest.failf "lane %d has no collector" l
  in
  Alcotest.(check int) "identical stimulus, identical coverage"
    (Cover.Toggle.covered (cov 0))
    (Cover.Toggle.covered (cov 1));
  Alcotest.(check bool)
    "held lane covers strictly less" true
    (Cover.Toggle.covered (cov 2) < Cover.Toggle.covered (cov 0));
  (* The ExpoCU with a distinct pixel stream per lane (lane l offsets
     the stream by l*17): the union over the lanes covers at least as
     much as any single lane. *)
  let lanes = 4 in
  let w =
    Ws.create ~lanes (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))
  in
  Ws.enable_toggle_cover w;
  Ws.set_input_int w "target_bin" 7;
  for i = 0 to 80 do
    Ws.set_input_int w "frame_sync" (if i >= 15 then 1 else 0);
    Ws.set_input_int w "line_valid" (if i >= 19 then 1 else 0);
    Ws.set_input_packed w "pixel"
      (Array.init 8 (fun b ->
           Bitvec.init lanes (fun l ->
               (((i * 53) + (l * 17)) mod 256) lsr b land 1 = 1)));
    Ws.step w
  done;
  let covs =
    List.init lanes (fun l ->
        match Ws.lane_cover w l with
        | Some c -> c
        | None -> Alcotest.failf "expocu lane %d has no collector" l)
  in
  let union =
    List.length
      (List.filter
         (fun i ->
           let any f = List.exists (fun c -> f c i > 0) covs in
           any Cover.Toggle.rises && any Cover.Toggle.falls)
         (List.init (Cover.Toggle.bits (List.hd covs)) Fun.id))
  in
  List.iteri
    (fun l c ->
      Alcotest.(check bool)
        (Printf.sprintf "union covers expocu lane %d" l)
        true
        (Cover.Toggle.covered c > 0 && union >= Cover.Toggle.covered c))
    covs

(* ------------------------------------------------------------------ *)
(* The step's accounting against the oracle: every (mode, lanes) of
   Nl_oracle.configs, lane 0 (and a faulted last lane) against oracles
   fed the same stimulus.  Beside outputs and per-net toggles, the
   gate-evaluation count and the nets-touched-per-step histogram are
   checked whenever every lane carries the same simulation. *)

let oracle_designs =
  lazy
    [
      ("counter", Backend.Lower.lower (counter_design ()));
      ("mini_alu", Backend.Lower.lower (alu_design ()));
      ("expocu", Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()));
    ]

(* Cycle [c]'s broadcast stimulus, a function of (seed, c) alone so a
   replay after a restore repeats it; 1-bit reset ports rise one cycle
   in sixteen so the designs get to run. *)
let stimulus ~seed nl c =
  let rng = Random.State.make [| seed; c |] in
  List.map
    (fun (name, nets) ->
      let w = Array.length nets in
      let bv =
        if w = 1 && (name = "reset" || name = "ext_reset") then
          Bitvec.of_bool (Random.State.int rng 16 = 0)
        else Bitvec.init w (fun _ -> Random.State.bool rng)
      in
      (name, bv))
    (N.inputs nl)

let touched_hist = Obs.Hist.histogram "nl_sim.nets_touched_per_step"

(* The [(d, q)] nets of every flip-flop. *)
let dff_nets nl =
  List.filter_map
    (fun (c : N.cell) ->
      if c.kind = Backend.Cell.Dff then Some (c.ins.(0), c.out) else None)
    (N.cells nl)

(* Run [nl] on the simulator and on one oracle per checked lane.
   [faults] maps lanes to the stuck-at faults [(net, value)] injected
   before cycle 8; [collect] turns toggle cover and the activity
   sampler on; [restore_at] takes a checkpoint of both sides with cycle
   [restore_at]'s stimulus applied, runs 10 cycles, rewinds and carries
   on. *)
let check_against_oracle ?(faults = []) ?(collect = false) ?restore_at ~mode
    ~lanes ~cycles ~seed (name, nl) =
  let where =
    Printf.sprintf "%s, %d lanes, %s mode" name lanes
      (if mode = Ws.Event_driven then "event" else "full")
  in
  let uniform = faults = [] || lanes = 1 in
  let checked = List.sort_uniq compare (0 :: List.map fst faults) in
  let s = Ws.create ~mode ~lanes nl in
  let oracles = List.map (fun l -> (l, Nl_oracle.create nl)) checked in
  let o0 = List.assoc 0 oracles in
  if collect then begin
    Ws.enable_toggle_cover s;
    Ws.enable_power_sampler ~window:16 s
  end;
  let hist_was = Obs.Hist.enabled () in
  Obs.Hist.enable ();
  Obs.Hist.reset touched_hist;
  let apply c =
    List.iter
      (fun (port, bv) ->
        Ws.set_input s port bv;
        List.iter (fun (_, o) -> Nl_oracle.set_input o port bv) oracles)
      (stimulus ~seed nl c)
  in
  let cycle c =
    if c = 8 then
      List.iter
        (fun (lane, fs) ->
          List.iter
            (fun (net, value) ->
              Ws.inject_stuck_at s ~lane ~net ~value;
              Nl_oracle.inject_stuck_at (List.assoc lane oracles) net value)
            fs)
        faults;
    Ws.step s;
    List.iter
      (fun (lane, o) ->
        Nl_oracle.step o;
        List.iter
          (fun (port, _) ->
            let want = Nl_oracle.get_output o port
            and got = Ws.get_output ~lane s port in
            if not (Bitvec.equal want got) then
              Alcotest.failf "%s: cycle %d lane %d port %s: %a, oracle %a" where
                c lane port Bitvec.pp got Bitvec.pp want)
          (N.outputs nl))
      oracles
  in
  let c = ref 0 in
  while !c < cycles do
    apply !c;
    (match restore_at with
    | Some r when r = !c ->
        let ck = Ws.checkpoint s
        and ocks = List.map (fun (l, o) -> (l, Nl_oracle.checkpoint o)) oracles in
        for k = r to r + 9 do
          if k > r then apply k;
          cycle k
        done;
        Ws.restore s ck;
        List.iter (fun (l, o) -> Nl_oracle.restore o (List.assoc l ocks)) oracles;
        Alcotest.(check int) (where ^ ": rewound") r (Ws.cycles s);
        apply r
    | _ -> ());
    cycle !c;
    incr c
  done;
  if not hist_was then Obs.Hist.disable ();
  for n = 0 to N.net_count nl - 1 do
    if Ws.net_toggles s n <> o0.toggles.(n) then
      Alcotest.failf "%s: net %d toggles %d, oracle %d" where n
        (Ws.net_toggles s n) o0.toggles.(n)
  done;
  if uniform || mode = Ws.Full_eval then
    Alcotest.(check int) (where ^ ": gate evals")
      (Nl_oracle.gate_evals o0 mode) (Ws.gate_evals s);
  if uniform then begin
    let touched = Nl_oracle.touched o0 in
    let fl = float_of_int in
    Alcotest.(check int) (where ^ ": touched samples") (List.length touched)
      (Obs.Hist.count touched_hist);
    Alcotest.(check (float 0.0)) (where ^ ": touched sum")
      (fl (List.fold_left ( + ) 0 touched))
      (Obs.Hist.sum touched_hist);
    Alcotest.(check (float 0.0)) (where ^ ": touched min")
      (fl (List.fold_left min max_int touched))
      (Obs.Hist.min_value touched_hist);
    Alcotest.(check (float 0.0)) (where ^ ": touched max")
      (fl (List.fold_left max 0 touched))
      (Obs.Hist.max_value touched_hist)
  end;
  if collect then
    List.iter
      (fun lane ->
        let cov = Option.get (Ws.lane_cover s lane)
        and act = Option.get (Ws.lane_activity s lane) in
        for n = 0 to N.net_count nl - 1 do
          if
            Cover.Toggle.rises cov n <> o0.rises.(n)
            || Cover.Toggle.falls cov n <> o0.toggles.(n) - o0.rises.(n)
          then
            Alcotest.failf "%s: lane %d net %d rises/falls %d/%d, oracle %d/%d"
              where lane n (Cover.Toggle.rises cov n) (Cover.Toggle.falls cov n)
              o0.rises.(n)
              (o0.toggles.(n) - o0.rises.(n))
        done;
        Cover.Activity.flush act;
        let got =
          List.map
            (fun (w : Cover.Activity.window) ->
              (w.w_start, w.w_cycles, w.w_counts))
            (Cover.Activity.windows act)
        in
        if got <> Nl_oracle.activity_windows ~window:16 o0 then
          Alcotest.failf "%s: lane %d activity windows differ from the oracle"
            where lane)
      [ 0; lanes - 1 ]

let each_config f =
  List.iter
    (fun (mode, lanes) ->
      List.iter (f ~mode ~lanes) (Lazy.force oracle_designs))
    Nl_oracle.configs

let test_oracle_accounting () =
  each_config (fun ~mode ~lanes d ->
      check_against_oracle ~cycles:60 ~seed:0x5E1 ~mode ~lanes d)

(* Stuck-at faults on D and Q nets from cycle 8: one set in lane 0, a
   disjoint one in the last lane, checked against an oracle each. *)
let test_oracle_faults () =
  each_config (fun ~mode ~lanes (name, nl) ->
      let dq = Array.of_list (dff_nets nl) in
      if Array.length dq > 0 then
      let pick i = dq.(i mod Array.length dq) in
      let set a b =
        [
          (fst (pick a), true);
          (snd (pick b), false);
          (snd (pick (a + b)), true);
        ]
      in
      let faults =
        (0, set 1 2) :: (if lanes > 1 then [ (lanes - 1, set 3 5) ] else [])
      in
      check_against_oracle ~faults ~cycles:60 ~seed:0xFA17 ~mode ~lanes
        (name, nl))

let test_oracle_collectors () =
  each_config (fun ~mode ~lanes d ->
      check_against_oracle ~collect:true ~cycles:60 ~seed:0xC0 ~mode ~lanes d)

let test_oracle_checkpoint () =
  each_config (fun ~mode ~lanes d ->
      check_against_oracle ~restore_at:25 ~cycles:50 ~seed:0xCC ~mode ~lanes d)

(* The compiled program is five ints per combinational cell of the
   frozen order (opcode, output, inputs, unused slots 0); its digest on
   both ExpoCU tops is pinned, so any change to what is compiled shows.
   Re-record the digests only with a deliberate change to lowering or
   to the program encoding. *)
let program_digests =
  [
    ("osss", "a9a7d19772322afacd220bc9f4b08f2e");
    ("conventional", "28e487bec6d7a40d09ff75e1f7c48725");
  ]

let test_program_pinned () =
  let opcode : Backend.Cell.kind -> int = function
    | Const0 -> 0
    | Const1 -> 1
    | Buf -> 2
    | Not -> 3
    | And2 -> 4
    | Or2 -> 5
    | Xor2 -> 6
    | Nand2 -> 7
    | Nor2 -> 8
    | Mux2 -> 9
    | Dff -> Alcotest.fail "flip-flop in the combinational order"
  in
  List.iter
    (fun (top, design) ->
      let nl = Backend.Lower.lower design in
      let prog = Ws.program (Ws.create nl) in
      let expect =
        Array.concat
          (List.map
             (fun (c : N.cell) ->
               Array.init 5 (fun k ->
                   if k = 0 then opcode c.kind
                   else if k = 1 then c.out
                   else if k - 2 < Array.length c.ins then c.ins.(k - 2)
                   else 0))
             (Array.to_list (N.freeze nl).comb))
      in
      Alcotest.(check bool) (top ^ ": program encodes the frozen order") true
        (prog = expect);
      let digest =
        Digest.to_hex
          (Digest.string
             (String.concat "," (Array.to_list (Array.map string_of_int prog))))
      in
      Alcotest.(check string) (top ^ ": program digest")
        (List.assoc top program_digests) digest)
    [
      ("osss", Expocu.Expocu_top.osss_top ());
      ("conventional", Expocu.Expocu_top.rtl_top ());
    ]

(* The causal event log of a fixed ExpoCU run (stimulus, a stuck-at
   fault, a checkpoint and a restore) in every configuration, pinned by
   digest: the log's events, causes and order stay exactly as they
   are.  A net logs one event per write whatever its number of words,
   so the 70-lane (two-word) logs hold as many events as the 63-lane
   ones. *)
let event_digests =
  [
    ((Ws.Event_driven, 1), "9cf5ec45505a80b60c4104e4c1fa28eb");
    ((Ws.Event_driven, 63), "c2f6a226bda4e150e5ac6d8a94f2116a");
    ((Ws.Event_driven, 70), "40704a15bce6880712b971b7a332bb70");
    ((Ws.Full_eval, 1), "597d5327da0fcd102c2723c2e07d42f0");
    ((Ws.Full_eval, 63), "7ed342005fe0157f018777b0a5aaf397");
    ((Ws.Full_eval, 70), "f89609e1d4737b0a19fa3eb68226fd8f");
  ]

(* The event log of the fixed run, one line per event; with [fault], a
   stuck-at on the eighth flip-flop's Q net in the last lane at cycle
   12. *)
let event_log ~fault ~mode ~lanes nl =
  let q = snd (List.nth (dff_nets nl) 7) in
  Obs.Event.enable ~capacity:100_000 ();
  Obs.Event.reset ();
  let s = Ws.create ~mode ~lanes nl in
  Ws.enable_events s;
  let apply c =
    List.iter (fun (p, bv) -> Ws.set_input s p bv) (stimulus ~seed:0xE7 nl c)
  in
  for c = 0 to 29 do
    apply c;
    if fault && c = 12 then
      Ws.inject_stuck_at s ~lane:(lanes - 1) ~net:q ~value:true;
    Ws.step s
  done;
  let ck = Ws.checkpoint s in
  for c = 30 to 34 do
    apply c;
    Ws.step s
  done;
  Ws.restore s ck;
  for c = 30 to 39 do
    apply c;
    Ws.step s
  done;
  let log =
    String.concat "\n"
      (List.map
         (fun (e : Obs.Event.t) ->
           Printf.sprintf "%d %s %s %d %d %d %d %d" e.seq
             (Obs.Event.kind_name e.kind)
             e.subject e.time e.cycle e.lane e.value e.cause)
         (Obs.Event.events ()))
  in
  Obs.Event.disable ();
  Obs.Event.reset ();
  log

let mode_name mode = if mode = Ws.Event_driven then "event" else "full"

let test_event_log_pinned () =
  let nl = List.assoc "expocu" (Lazy.force oracle_designs) in
  List.iter
    (fun (mode, lanes) ->
      let log = event_log ~fault:true ~mode ~lanes nl in
      Alcotest.(check string)
        (Printf.sprintf "%d lanes, %s mode: event log digest (%d events)" lanes
           (mode_name mode)
           (List.length (String.split_on_char '\n' log)))
        (List.assoc (mode, lanes) event_digests)
        (Digest.to_hex (Digest.string log)))
    Nl_oracle.configs

(* With the same stimulus on every lane, every lane follows lane 0, so
   the log cannot depend on the lane count: the 63- and 70-lane logs
   equal the 1-lane log event for event. *)
let test_event_log_broadcast () =
  let nl = List.assoc "expocu" (Lazy.force oracle_designs) in
  List.iter
    (fun mode ->
      let lines lanes =
        String.split_on_char '\n' (event_log ~fault:false ~mode ~lanes nl)
      in
      let one = lines 1 in
      List.iter
        (fun lanes ->
          let many = lines lanes in
          Alcotest.(check int)
            (Printf.sprintf "%s mode, %d lanes: event count" (mode_name mode)
               lanes)
            (List.length one) (List.length many);
          List.iter2
            (Alcotest.(check string)
               (Printf.sprintf "%s mode, %d lanes: event" (mode_name mode)
                  lanes))
            one many)
        [ 63; 70 ])
    [ Ws.Event_driven; Ws.Full_eval ]

(* Bitvec.transpose is an involution on rectangular arrays. *)
let prop_transpose =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"transpose involution"
       QCheck2.Gen.(
         int_range 1 24 >>= fun w ->
         int_range 1 40 >>= fun n ->
         array_size (return n) (array_size (return w) bool))
       (fun rows ->
         let bvs =
           Array.map
             (fun bits -> Bitvec.init (Array.length bits) (fun i -> bits.(i)))
             rows
         in
         let tt = Bitvec.transpose (Bitvec.transpose bvs) in
         Array.length tt = Array.length bvs
         && Array.for_all2 Bitvec.equal tt bvs))

let suite =
  [
    Alcotest.test_case "lane0 identity (3 seeds, 2 designs)" `Quick
      test_lane0_identity_seeds;
    Alcotest.test_case "lane0 identity (expocu)" `Quick
      test_lane0_identity_expocu;
    Alcotest.test_case "loop detection" `Quick test_wsim_loop_detection;
    Alcotest.test_case "per-lane stimulus" `Quick test_per_lane_stimulus;
    Alcotest.test_case "stuck-at lanes" `Quick test_stuck_at_lanes;
    Alcotest.test_case "stuck-at lanes (multi-word)" `Quick
      test_stuck_at_multiword;
    Alcotest.test_case "fault campaign" `Quick test_fault_campaign;
    Alcotest.test_case "word engine" `Quick test_word_engine;
    Alcotest.test_case "per-lane cover" `Quick test_lane_cover;
    Alcotest.test_case "oracle: outputs, toggles, evals, touched" `Quick
      test_oracle_accounting;
    Alcotest.test_case "oracle: stuck-at on D and Q nets" `Quick
      test_oracle_faults;
    Alcotest.test_case "oracle: toggle cover and activity" `Quick
      test_oracle_collectors;
    Alcotest.test_case "oracle: checkpoint and restore" `Quick
      test_oracle_checkpoint;
    Alcotest.test_case "program pinned (expocu tops)" `Quick test_program_pinned;
    Alcotest.test_case "event log pinned (expocu)" `Quick test_event_log_pinned;
    Alcotest.test_case "event log lane-count independent (broadcast)" `Quick
      test_event_log_broadcast;
    prop_transpose;
  ]

let () = Alcotest.run "wsim" [ ("wsim", suite) ]
