(* Tests for the causal observability stack: the bounded event ring
   (Obs.Event) and its schema-versioned JSONL codec, the "why" query
   engine (Obs.Causal), checkpoint/replay bit-identity across the RTL
   and netlist backends (scalar and word-parallel), the causality and
   provenance attached to differential divergences, and the
   collapsed-stack span exporter. *)

open Hdl
open Builder.Dsl
module Ev = Obs.Event
module E = Backend.Equiv

(* The event log and span tracer are process-global; every test leaves
   them off and empty. *)
let pristine f () =
  let finish () =
    Ev.disable ();
    Ev.reset ();
    Obs.Span.disable ();
    Obs.Span.reset ()
  in
  finish ();
  Fun.protect ~finally:finish f

(* An 8-bit accumulator: y <= y + x every cycle. *)
let acc_design () =
  let b = Builder.create "acc" in
  let x = Builder.input b "x" 8 in
  let y = Builder.output b "y" 8 in
  Builder.sync b "accumulate" [ y <-- (v y +: v x) ];
  Builder.finish b

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let test_ring_wraparound () =
  Ev.enable ~capacity:8 ();
  let prev = ref Ev.no_cause in
  for i = 0 to 19 do
    prev := Ev.emit ~cycle:i ~value:i ~cause:!prev Ev.Net_change "n"
  done;
  Alcotest.(check int) "count" 8 (Ev.count ());
  Alcotest.(check int) "dropped" 12 (Ev.dropped ());
  let evs = Ev.events () in
  Alcotest.(check (list int)) "retained seqs, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : Ev.t) -> e.Ev.seq) evs);
  (* Wraparound makes causes unresolvable, never wrong: a resolved
     cause is exactly the referenced (older) event; an unresolvable one
     must lie before the retained window. *)
  List.iter
    (fun (e : Ev.t) ->
      match Ev.find e.Ev.cause with
      | Some c ->
          Alcotest.(check int) "cause resolves to its seq" e.Ev.cause c.Ev.seq;
          Alcotest.(check bool) "cause is older" true (c.Ev.seq < e.Ev.seq)
      | None ->
          Alcotest.(check bool) "evicted cause predates the window" true
            (e.Ev.cause < 12))
    evs;
  (* The causal walk over the wrapped ring is bounded and marks the
     truncation where the chain falls off the retained window. *)
  let newest = List.nth evs 7 in
  let node = Obs.Causal.of_event newest in
  Alcotest.(check int) "walk depth = retained chain" 8 (Obs.Causal.depth node);
  Alcotest.(check bool) "root truncated by eviction" true
    (Obs.Causal.root node).Obs.Causal.truncated

(* The event a test emits as number [i]: every field varies with [i],
   so a slot mix-up in any column shows. *)
let kinds = [| Ev.Stimulus; Ev.Net_change; Ev.Var_change; Ev.Fault; Ev.Delta_open |]

let emit_nth i =
  Ev.emit ~time:(10 * i) ~cycle:i ~lane:(i mod 3 - 1) ~value:(i * 7)
    ~cause:(i - 1) kinds.(i mod Array.length kinds) (Printf.sprintf "s%d" i)

let check_nth i (e : Ev.t) =
  let expect =
    {
      Ev.seq = i;
      kind = kinds.(i mod Array.length kinds);
      subject = Printf.sprintf "s%d" i;
      time = 10 * i;
      cycle = i;
      lane = i mod 3 - 1;
      value = i * 7;
      cause = i - 1;
    }
  in
  Alcotest.(check bool) (Printf.sprintf "event %d fields" i) true (e = expect)

(* Every column of the ring keeps the fields emitted, through
   wraparound, and the queries list them oldest first. *)
let test_ring_columns () =
  Ev.enable ~capacity:5 ();
  for i = 0 to 12 do
    Alcotest.(check int) "emit returns the seq" i (emit_nth i)
  done;
  for i = 8 to 12 do
    match Ev.find i with
    | Some e -> check_nth i e
    | None -> Alcotest.failf "retained event %d not found" i
  done;
  Alcotest.(check bool) "evicted event gone" true (Ev.find 7 = None);
  Alcotest.(check bool) "future event absent" true (Ev.find 13 = None);
  List.iteri (fun k e -> check_nth (8 + k) e) (Ev.events ());
  Alcotest.(check (option int)) "find_last, newest first" (Some 11)
    (Option.map
       (fun (e : Ev.t) -> e.Ev.seq)
       (Ev.find_last (fun e -> e.Ev.value mod 2 = 1)))

(* [reset] restarts the numbering at the same capacity; [enable] at the
   current capacity resumes the log, at another one drops it. *)
let test_ring_reset_and_enable () =
  Ev.enable ~capacity:4 ();
  for i = 0 to 5 do
    ignore (emit_nth i)
  done;
  Ev.reset ();
  Alcotest.(check int) "reset keeps the capacity" 4 (Ev.capacity ());
  Alcotest.(check int) "reset empties the ring" 0 (Ev.count ());
  Alcotest.(check int) "reset clears dropped" 0 (Ev.dropped ());
  Alcotest.(check int) "reset restarts seq" 0 (emit_nth 0);
  ignore (emit_nth 1);
  Ev.disable ();
  Alcotest.(check int) "disabled emit records nothing" Ev.no_cause (emit_nth 2);
  Ev.enable ();
  Alcotest.(check int) "re-enable keeps the capacity" 4 (Ev.capacity ());
  Alcotest.(check int) "re-enable resumes the log" 2 (Ev.count ());
  Alcotest.(check int) "re-enable resumes the numbering" 2 (emit_nth 2);
  List.iteri check_nth (Ev.events ());
  Ev.enable ~capacity:4 ();
  Alcotest.(check int) "same capacity keeps the log" 3 (Ev.count ());
  Ev.enable ~capacity:8 ();
  Alcotest.(check int) "new capacity" 8 (Ev.capacity ());
  Alcotest.(check int) "new capacity drops the log" 0 (Ev.count ());
  Alcotest.(check int) "new capacity restarts seq" 0 (emit_nth 0);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Obs.Event.enable: capacity must be >= 1") (fun () ->
      Ev.enable ~capacity:0 ())

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)

let test_jsonl_roundtrip () =
  Ev.enable ~capacity:16 ();
  let s0 = Ev.emit ~cycle:0 ~value:1 Ev.Stimulus "x[0]" in
  let n0 = Ev.emit ~cycle:0 ~value:0 ~cause:s0 Ev.Net_change "u_m.q[2]" in
  ignore (Ev.emit ~cycle:1 ~lane:3 ~value:1 ~cause:n0 Ev.Fault "y");
  ignore (Ev.emit ~time:20 ~cycle:2 Ev.Delta_open "delta");
  List.iter
    (fun (e : Ev.t) ->
      match Ev.of_json (Ev.to_json e) with
      | Ok e' -> Alcotest.(check bool) "event round-trips" true (e = e')
      | Error msg -> Alcotest.failf "of_json: %s" msg)
    (Ev.events ());
  let s = Ev.to_jsonl () in
  Alcotest.(check string) "jsonl text"
    ({|{"schema":"osss.event-log/v1","events":4,"dropped":0,"capacity":16}|}
    ^ "\n"
    ^ {|{"seq":0,"kind":"stimulus","subject":"x[0]","time":0,"cycle":0,"value":1}|}
    ^ "\n"
    ^ {|{"seq":1,"kind":"net-change","subject":"u_m.q[2]","time":0,"cycle":0,"value":0,"cause":0}|}
    ^ "\n"
    ^ {|{"seq":2,"kind":"fault","subject":"y","time":0,"cycle":1,"value":1,"lane":3,"cause":1}|}
    ^ "\n"
    ^ {|{"seq":3,"kind":"delta-open","subject":"delta","time":20,"cycle":2,"value":0}|}
    ^ "\n")
    s;
  (match Ev.validate_jsonl s with
  | Ok n -> Alcotest.(check int) "validates all events" (Ev.count ()) n
  | Error msg -> Alcotest.failf "validate_jsonl: %s" msg);
  Alcotest.(check bool) "schema stamp present" true
    (String.length s >= String.length Ev.schema_version);
  (* Corruptions the validator must reject: missing header, reordered
     sequence numbers. *)
  let lines = String.split_on_char '\n' (String.trim s) in
  let headerless = String.concat "\n" (List.tl lines) in
  Alcotest.(check bool) "headerless rejected" true
    (Result.is_error (Ev.validate_jsonl headerless));
  let swapped =
    match lines with
    | h :: a :: b :: rest -> String.concat "\n" (h :: b :: a :: rest)
    | _ -> Alcotest.fail "expected at least two event lines"
  in
  Alcotest.(check bool) "non-contiguous seqs rejected" true
    (Result.is_error (Ev.validate_jsonl swapped))

(* ------------------------------------------------------------------ *)
(* Checkpoint / replay bit-identity                                    *)

(* Stimulus as a pure function of (seed, cycle, port index), so any
   window can be replayed verbatim. *)
let stim e seed c =
  List.iteri
    (fun i (name, width) ->
      let rng = Random.State.make [| seed; c; i |] in
      Engine.set_input e name (Bitvec.init width (fun _ -> Random.State.bool rng)))
    (Engine.inputs e)

let window e seed a b =
  let acc = ref [] in
  for c = a to b - 1 do
    stim e seed c;
    Engine.step e;
    acc := List.map (fun (p, _) -> Engine.get e p) (Engine.outputs e) :: !acc
  done;
  List.rev !acc

(* With [stimulated], cycle 20's stimulus is applied before the
   checkpoint, so the engine holds scheduled but unsettled work.
   Re-applying that stimulus after a restore moves no net: only the
   restored schedule can re-evaluate the cells reading it. *)
let check_replay ?(stimulated = false) make =
  let e = make () in
  ignore (window e 7 0 20);
  if stimulated then stim e 7 20;
  let ck =
    match Engine.checkpoint e with
    | Some ck -> ck
    | None -> Alcotest.fail "backend reports no checkpoint support"
  in
  Alcotest.(check int) "checkpoint at cycle 20" 20 (Engine.checkpoint_cycle ck);
  let first = window e 7 20 40 in
  Engine.restore ck;
  Alcotest.(check int) "rewound to cycle 20" 20 (Engine.cycles e);
  let second = window e 7 20 40 in
  List.iter2
    (List.iter2 (fun a b ->
         Alcotest.(check bool) "bit-identical replay" true (Bitvec.equal a b)))
    first second

let test_checkpoint_rtl () = check_replay (fun () -> Rtl_engine.create (acc_design ()))

let test_checkpoint_netlist () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (acc_design ())) in
  check_replay (fun () -> Backend.Nl_engine.create nl)

let test_checkpoint_netlist_full () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (acc_design ())) in
  check_replay (fun () ->
      Backend.Nl_engine.create ~mode:Backend.Nl_sim.Full_eval nl)

let test_checkpoint_netlist_stimulated () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (acc_design ())) in
  check_replay ~stimulated:true (fun () -> Backend.Nl_engine.create nl)

(* Word-parallel: distinct per-lane stimulus, per-lane comparison. *)
let test_checkpoint_word () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (acc_design ())) in
  let e = Backend.Nl_engine.create ~lanes:3 nl in
  let wstim c =
    for lane = 0 to Engine.lanes e - 1 do
      List.iteri
        (fun i (name, width) ->
          let rng = Random.State.make [| 11; c; i; lane |] in
          Engine.set_input_lane e ~lane name
            (Bitvec.init width (fun _ -> Random.State.bool rng)))
        (Engine.inputs e)
    done
  in
  let wwindow a b =
    let acc = ref [] in
    for c = a to b - 1 do
      wstim c;
      Engine.step e;
      for lane = 0 to Engine.lanes e - 1 do
        acc :=
          List.map
            (fun (p, _) -> Engine.get_lane e ~lane p)
            (Engine.outputs e)
          :: !acc
      done
    done;
    List.rev !acc
  in
  ignore (wwindow 0 20);
  let ck = Option.get (Engine.checkpoint e) in
  let first = wwindow 20 40 in
  Engine.restore ck;
  let second = wwindow 20 40 in
  List.iter2
    (List.iter2 (fun a b ->
         Alcotest.(check bool) "lane bit-identical replay" true
           (Bitvec.equal a b)))
    first second

(* Checkpoint/replay must stay bit-identical with events switched on,
   and a rewind must not leave stale cause links behind (every cause
   resolves to an older event). *)
let test_checkpoint_with_events () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (acc_design ())) in
  let e = Backend.Nl_engine.create nl in
  Engine.enable_events e;
  ignore (window e 5 0 10);
  let ck = Option.get (Engine.checkpoint e) in
  let first = window e 5 10 20 in
  Engine.restore ck;
  let second = window e 5 10 20 in
  List.iter2
    (List.iter2 (fun a b ->
         Alcotest.(check bool) "events-on replay identical" true
           (Bitvec.equal a b)))
    first second;
  List.iter
    (fun (ev : Ev.t) ->
      match Ev.find ev.Ev.cause with
      | Some c ->
          Alcotest.(check bool) "cause older after rewind" true
            (c.Ev.seq < ev.Ev.seq)
      | None -> ())
    (Ev.events ())

(* ------------------------------------------------------------------ *)
(* Why queries                                                         *)

let test_why_reaches_stimulus () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (acc_design ())) in
  let e = Backend.Nl_engine.create nl in
  Engine.enable_events e;
  Engine.set_input_int e "x" 1;
  Engine.step e;
  Engine.set_input_int e "x" 3;
  Engine.step e;
  match Obs.Causal.why ~subject:"y" ~cycle:(Engine.cycles e) () with
  | None -> Alcotest.fail "no event retained on y"
  | Some node ->
      Alcotest.(check bool) "chain reaches a stimulus edge" true
        (Obs.Causal.reaches (fun ev -> ev.Ev.kind = Ev.Stimulus) node);
      let rendered = Obs.Causal.render node in
      Alcotest.(check bool) "render mentions the subject" true
        (String.length rendered > 0 && Obs.Causal.depth node >= 2)

(* ------------------------------------------------------------------ *)
(* Differential divergence: provenance and causality                   *)

let test_divergence_causality () =
  let design = acc_design () in
  (match
     E.differential ~cycles:60 ~seed:3
       [
         (fun () -> Rtl_engine.create ~label:"gold" design);
         (fun () ->
           Engine.inject_fault ~from_cycle:10 ~port:"y"
             (Rtl_engine.create ~label:"victim" design));
       ]
   with
  | Ok _ -> Alcotest.fail "seeded fault produced no divergence"
  | Error d ->
      Alcotest.(check int) "provenance seed" 3 d.E.provenance.E.seed;
      Alcotest.(check int) "provenance lanes" 1 d.E.provenance.E.lanes;
      Alcotest.(check (list string))
        "provenance engines, reference first"
        [ "gold"; "victim+fault:y" ]
        d.E.provenance.E.engines;
      Alcotest.(check bool) "causality attached" true (d.E.causality <> []);
      Alcotest.(check bool) "causality reaches the injected fault" true
        (List.exists (fun (ev : Ev.t) -> ev.Ev.kind = Ev.Fault) d.E.causality));
  Alcotest.(check bool) "global event log left disabled" true
    (not (Ev.enabled ()))

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

(* Words [f] allocates on the minor heap ([Gc.minor_words] is exact)
   and on the major heap, directly or by promotion.  Direct major
   allocations reach [Gc.quick_stat] only at later minor collections;
   two on either side of [f] settle the count. *)
let allocation f =
  let settle () =
    Gc.minor ();
    Gc.minor ()
  in
  settle ();
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  f ();
  let minor1 = Gc.minor_words () in
  settle ();
  let major1 = (Gc.quick_stat ()).Gc.major_words in
  (minor1 -. minor0, major1 -. major0)

(* One ExpoCU frame: power-on reset, a frame_sync lead-in, 1024 directed
   pixels and a tail, as 1543 calls of [set] and [step]. *)
let expocu_frame ~set ~step =
  List.iter (fun p -> set p 0) [ "ext_reset"; "sda_in"; "line_valid"; "pixel" ];
  set "target_bin" 7;
  set "frame_sync" 0;
  allocation (fun () ->
      for c = 0 to 1542 do
        if c = 15 then set "frame_sync" 1;
        if c = 19 then set "line_valid" 1;
        if c >= 19 && c < 1043 then set "pixel" ((c - 19) * 53 mod 256);
        if c = 1043 then set "line_valid" 0;
        step ()
      done)

(* The log's per-cycle path allocates nothing: an events-on frame costs
   at most a few words more than the same frame with events off, and
   not one major-heap word more. *)
let check_events_allocate_nothing name frame =
  let off_minor, off_major = frame ~events:false in
  Ev.enable ();
  let on_minor, on_major = frame ~events:true in
  Alcotest.(check bool) (name ^ ": events were logged") true (Ev.count () > 0);
  if on_minor > off_minor +. 64. || on_major > off_major then
    Alcotest.failf
      "%s: events-on frame allocated %.0f minor and %.0f major words, \
       events-off %.0f and %.0f"
      name on_minor on_major off_minor off_major

(* Toggle coverage is on in both runs of the simulators, so the
   coverage-epoch events are exercised too. *)
let test_alloc_netlist () =
  let nl = Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()) in
  check_events_allocate_nothing "gate level" (fun ~events ->
      let module S = Backend.Nl_sim in
      let s = S.create nl in
      S.enable_toggle_cover s;
      if events then S.enable_events s;
      let ports = Hashtbl.create 8 in
      List.iter
        (fun (name, _) -> Hashtbl.replace ports name (S.in_port s name))
        (Backend.Netlist.inputs nl);
      expocu_frame
        ~set:(fun name v -> S.drive_port_int s (Hashtbl.find ports name) v)
        ~step:(fun () -> S.step s))

let test_alloc_rtl () =
  let design = Expocu.Expocu_top.rtl_top () in
  check_events_allocate_nothing "rtl" (fun ~events ->
      let s = Rtl_sim.create design in
      Rtl_sim.enable_toggle_cover s;
      if events then Rtl_sim.enable_events s;
      expocu_frame ~set:(Rtl_sim.set_input_int s) ~step:(fun () -> Rtl_sim.step s))

(* The kernel's delta spine: 500 clock cycles of a clocked thread. *)
let test_alloc_kernel () =
  check_events_allocate_nothing "kernel" (fun ~events:_ ->
      let k = Sim.Kernel.create () in
      let clk = Sim.Clock.create k ~period_ps:10 () in
      let rec loop ctx =
        Sim.Process.wait ctx;
        loop ctx
      in
      ignore (Sim.Process.cthread k ~name:"idle" ~clock:clk loop);
      Sim.Kernel.run_until k 100;
      allocation (fun () -> Sim.Kernel.run_until k 5_100))

(* ------------------------------------------------------------------ *)
(* Collapsed stacks                                                    *)

let test_collapsed_stacks () =
  Obs.Span.enable ();
  for _ = 1 to 3 do
    Obs.Span.with_ ~name:"outer" (fun () ->
        Obs.Span.with_ ~name:"inner" (fun () -> ignore (Sys.opaque_identity 1)))
  done;
  let s = Obs.Span.to_collapsed () in
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "one line per distinct stack" 2 (List.length lines);
  Alcotest.(check bool) "has folded outer;inner stack" true
    (List.exists
       (fun l -> String.length l > 11 && String.sub l 0 11 = "outer;inner")
       lines);
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "no count on %S" l
      | Some i ->
          let n = String.sub l (i + 1) (String.length l - i - 1) in
          Alcotest.(check bool) "count is a number" true
            (int_of_string_opt n <> None))
    lines

let () =
  Alcotest.run "event"
    [
      ( "event",
        [
          Alcotest.test_case "ring wraparound" `Quick
            (pristine test_ring_wraparound);
          Alcotest.test_case "ring columns" `Quick (pristine test_ring_columns);
          Alcotest.test_case "ring reset and enable" `Quick
            (pristine test_ring_reset_and_enable);
          Alcotest.test_case "jsonl round-trip" `Quick
            (pristine test_jsonl_roundtrip);
          Alcotest.test_case "checkpoint rtl" `Quick
            (pristine test_checkpoint_rtl);
          Alcotest.test_case "checkpoint netlist" `Quick
            (pristine test_checkpoint_netlist);
          Alcotest.test_case "checkpoint netlist full eval" `Quick
            (pristine test_checkpoint_netlist_full);
          Alcotest.test_case "checkpoint netlist before step" `Quick
            (pristine test_checkpoint_netlist_stimulated);
          Alcotest.test_case "checkpoint word lanes" `Quick
            (pristine test_checkpoint_word);
          Alcotest.test_case "checkpoint with events" `Quick
            (pristine test_checkpoint_with_events);
          Alcotest.test_case "why reaches stimulus" `Quick
            (pristine test_why_reaches_stimulus);
          Alcotest.test_case "divergence causality" `Quick
            (pristine test_divergence_causality);
          Alcotest.test_case "events allocate nothing (gate level)" `Quick
            (pristine test_alloc_netlist);
          Alcotest.test_case "events allocate nothing (rtl)" `Quick
            (pristine test_alloc_rtl);
          Alcotest.test_case "events allocate nothing (kernel)" `Quick
            (pristine test_alloc_kernel);
          Alcotest.test_case "collapsed stacks" `Quick
            (pristine test_collapsed_stacks);
        ] );
    ]
