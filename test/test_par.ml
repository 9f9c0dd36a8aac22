(* The multicore campaign runtime: deterministic shard ordering on the
   domain pool, failure provenance and cancellation, chunking, and the
   determinism contract of the sharded campaign workloads — fault
   campaigns, multi-seed coverage merges and differential sweeps must
   be bit-identical at jobs=1 and jobs=4.  Plus the domain-safety of
   the observability substrate the shards write into. *)

open Hdl
open Builder.Dsl
module N = Backend.Netlist

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

(* ------------------------------------------------------------------ *)
(* Chunking                                                            *)

let test_chunks () =
  let xs = List.init 17 Fun.id in
  let parts = Par.chunks ~shards:4 xs in
  Alcotest.(check int) "shard count" 4 (Array.length parts);
  Alcotest.(check (list int))
    "concatenation restores the list" xs
    (List.concat (Array.to_list parts));
  let sizes = Array.to_list (Array.map List.length parts) in
  let mn = List.fold_left min max_int sizes
  and mx = List.fold_left max 0 sizes in
  Alcotest.(check bool) "balanced within one" true (mx - mn <= 1);
  Alcotest.(check (list (list int)))
    "more shards than items clamp to singletons"
    [ [ 1 ]; [ 2 ]; [ 3 ] ]
    (Array.to_list (Par.chunks ~shards:5 [ 1; 2; 3 ]));
  Alcotest.(check (list (list int)))
    "empty list yields one empty chunk" [ [] ]
    (Array.to_list (Par.chunks ~shards:2 []))

(* ------------------------------------------------------------------ *)
(* Pool map: ordering, determinism, failure propagation               *)

let test_map_order () =
  let expect = Array.init 100 (fun i -> i * i) in
  Alcotest.(check (array int))
    "jobs=4 results in index order" expect
    (Par.map ~jobs:4 (fun i -> i * i) 100);
  Alcotest.(check (array int))
    "jobs=1 identical" expect
    (Par.map ~jobs:1 (fun i -> i * i) 100);
  Alcotest.(check (array int)) "empty map" [||] (Par.map ~jobs:4 (fun i -> i) 0)

let test_failure_provenance () =
  let boom jobs =
    try
      ignore
        (Par.map ~jobs
           ~label:(Printf.sprintf "shard-%d")
           (fun i -> if i = 3 then failwith "boom" else i)
           8);
      Alcotest.fail "expected Shard_failure"
    with Par.Shard_failure { shard; label; exn; _ } ->
      Alcotest.(check int) "failing shard index" 3 shard;
      Alcotest.(check string) "failing shard label" "shard-3" label;
      Alcotest.(check bool)
        "original exception preserved" true
        (exn = Failure "boom")
  in
  boom 1;
  boom 4

let test_serial_cancellation () =
  (* The serial path runs shards in order and stops at the failure:
     shard 3 of 100 fails, so exactly shards 0..3 execute. *)
  let ran = ref 0 in
  (try
     ignore
       (Par.map ~jobs:1
          (fun i ->
            incr ran;
            if i = 3 then failwith "stop")
          100)
   with Par.Shard_failure _ -> ());
  Alcotest.(check int) "remaining shards cancelled" 4 !ran

let test_nested_map () =
  (* A map issued from inside a shard must not deadlock the pool: it
     falls back to inline serial execution. *)
  let outer =
    Par.map ~jobs:2
      (fun i -> Array.fold_left ( + ) 0 (Par.map ~jobs:2 (fun j -> i + j) 10))
      6
  in
  Alcotest.(check (array int))
    "nested maps compute serially" (Array.init 6 (fun i -> (10 * i) + 45))
    outer

(* ------------------------------------------------------------------ *)
(* Sharded fault campaign determinism                                  *)

let expocu_netlist = lazy (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))

(* ExpoCU stimulus for the campaign workloads: random except that
   ext_reset stays released, so faults and toggles propagate. *)
let expocu_drive _ (name, r) = if name = "ext_reset" then Bitvec.zero 1 else r

let check_campaign_identity ?drive ?seed ~cycles nl faults =
  let run jobs =
    Backend.Equiv.fault_campaign ~cycles ?seed ?drive ~shrink:false ~jobs nl
      faults
  in
  let serial = run 1 and par = run 4 in
  (* shrink:false keeps the results plain data, so structural equality
     covers every per-fault field including the campaign-wide lane. *)
  Alcotest.(check bool)
    "fault results identical at jobs 1 and 4" true
    (serial.Backend.Equiv.fault_results = par.Backend.Equiv.fault_results);
  Alcotest.(check int)
    "detected totals agree" serial.Backend.Equiv.faults_detected
    par.Backend.Equiv.faults_detected;
  Alcotest.(check int)
    "campaign cycles agree (max over shards)"
    serial.Backend.Equiv.campaign_cycles par.Backend.Equiv.campaign_cycles;
  Alcotest.(check (list int))
    "lanes are campaign-global positions"
    (List.init (List.length faults) (fun i -> i + 1))
    (List.map
       (fun (r : Backend.Equiv.fault_result) -> r.lane)
       par.Backend.Equiv.fault_results)

let test_campaign_jobs_identity () =
  let nl = Backend.Lower.lower (counter_design ()) in
  let count = List.assoc "count" (N.outputs nl) in
  check_campaign_identity ~cycles:300 ~seed:7 nl
    (List.init 6 (fun i ->
         { Backend.Equiv.fault_net = count.(i); stuck_at = i mod 2 = 0 }));
  (* 248 random stuck-ats on the ExpoCU: 62 per 4-way shard, so each
     shard fills one machine word while the serial run spans four. *)
  let nl = Lazy.force expocu_netlist in
  let rng = Random.State.make [| 0x9A8 |] in
  check_campaign_identity ~cycles:120 ~drive:expocu_drive nl
    (List.init 248 (fun _ ->
         {
           Backend.Equiv.fault_net = Random.State.int rng (N.net_count nl);
           stuck_at = Random.State.bool rng;
         }))

let test_campaign_shrunk_identity () =
  (* With shrinking on, the reproducer windows must also match across
     jobs — compared field-by-field (the causality chains carry global
     event sequence numbers, which are not part of the contract). *)
  let nl = Backend.Lower.lower (counter_design ()) in
  let count = List.assoc "count" (N.outputs nl) in
  let faults =
    [
      { Backend.Equiv.fault_net = count.(0); stuck_at = true };
      { Backend.Equiv.fault_net = count.(2); stuck_at = false };
    ]
  in
  let run jobs =
    Backend.Equiv.fault_campaign ~cycles:300 ~seed:7 ~jobs nl faults
  in
  let project (r : Backend.Equiv.fault_result) =
    let window d =
      Array.to_list
        (Array.map
           (List.map (fun (name, bv) -> (name, Bitvec.to_int bv)))
           d.Backend.Equiv.window)
    in
    ( r.site,
      r.lane,
      r.detected_at,
      r.detect_port,
      Option.map
        (fun d -> (d.Backend.Equiv.window_start, window d))
        r.shrunk )
  in
  let serial = run 1 and par = run 2 in
  Alcotest.(check bool)
    "shrunk reproducers identical at jobs 1 and 2" true
    (List.map project serial.Backend.Equiv.fault_results
    = List.map project par.Backend.Equiv.fault_results)

(* ------------------------------------------------------------------ *)
(* Multi-seed coverage merge determinism                               *)

let cover_db_for_seed ~reset ~pixels nl seed =
  let sim = Backend.Nl_sim.create nl in
  Backend.Nl_sim.enable_toggle_cover sim;
  let rng = Random.State.make [| seed |] in
  Backend.Nl_sim.set_input_int sim reset 1;
  Backend.Nl_sim.step sim;
  for _ = 1 to 50 do
    Backend.Nl_sim.set_input_int sim reset
      (if Random.State.int rng 8 = 0 then 1 else 0);
    List.iter
      (fun port ->
        Backend.Nl_sim.set_input_int sim port (Random.State.int rng 256))
      pixels;
    Backend.Nl_sim.step sim
  done;
  let tg =
    match Backend.Nl_sim.toggle_cover sim with
    | Some tg -> tg
    | None -> assert false
  in
  Cover.Db.make
    ~toggles:(Cover.Db.toggle_entries tg)
    ~run:(Printf.sprintf "seed%d" seed) ()

let test_multi_seed_cover_identity () =
  let check ~reset ~pixels nl seeds =
    let merged jobs =
      match Par.map_list ~jobs (cover_db_for_seed ~reset ~pixels nl) seeds with
      | [] -> assert false
      | d :: rest -> List.fold_left Cover.Db.merge d rest
    in
    let s = Obs.Json.to_string (Cover.Db.to_json (merged 1)) in
    let p = Obs.Json.to_string (Cover.Db.to_json (merged 4)) in
    Alcotest.(check string) "merged coverage DB byte-identical" s p
  in
  check ~reset:"reset" ~pixels:[]
    (Backend.Lower.lower (counter_design ()))
    [ 0; 1; 2; 3; 4; 5 ];
  check ~reset:"ext_reset" ~pixels:[ "pixel"; "target_bin" ]
    (Lazy.force expocu_netlist) [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Differential sweep                                                  *)

let check_sweep ~cycles ~seeds make_design nl =
  ignore (Backend.Netlist.freeze nl);
  let factories =
    [
      (fun () -> Rtl_engine.create ~label:"rtl" (make_design ()));
      (fun () -> Backend.Nl_engine.create ~label:"gates" nl);
    ]
  in
  let results =
    Backend.Equiv.differential_sweep ~cycles ~jobs:4 ~seeds factories
  in
  Alcotest.(check (list int)) "results in seed order" seeds
    (List.map fst results);
  List.iter
    (fun (seed, r) ->
      match r with
      | Ok n ->
          Alcotest.(check int) (Printf.sprintf "seed %d cycles" seed) cycles n
      | Error d ->
          Alcotest.failf "seed %d diverged: %a" seed
            Backend.Equiv.pp_divergence d)
    results

let test_differential_sweep () =
  check_sweep ~cycles:60 ~seeds:[ 11; 12; 13; 14 ] counter_design
    (Backend.Lower.lower (counter_design ()));
  check_sweep ~cycles:100 ~seeds:[ 42; 43; 44; 45 ] Expocu.Expocu_top.rtl_top
    (Lazy.force expocu_netlist)

let test_differential_sweep_divergence () =
  let design = counter_design () in
  let nl = Backend.Lower.lower design in
  let factories =
    [
      (fun () -> Rtl_engine.create ~label:"rtl" design);
      (fun () ->
        Engine.inject_fault ~port:"count"
          (Backend.Nl_engine.create ~label:"gates:faulty" nl));
    ]
  in
  let results =
    Backend.Equiv.differential_sweep ~cycles:60 ~shrink:false ~jobs:2
      ~seeds:[ 5; 6 ] factories
  in
  List.iter
    (fun (seed, r) ->
      match r with
      | Ok _ -> Alcotest.failf "seed %d missed the injected fault" seed
      | Error d ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d localizes the port" seed)
            "count" d.Backend.Equiv.first.Backend.Equiv.port)
    results

(* ------------------------------------------------------------------ *)
(* Cover.Db.merge run-provenance dedup (regression)                    *)

let test_merge_runs_dedup () =
  let db run = Cover.Db.make ~run () in
  let a = db "a" and b = db "b" in
  let ab = Cover.Db.merge a b in
  Alcotest.(check (list string))
    "repeated merge does not duplicate provenance" [ "a"; "b" ]
    (Cover.Db.merge ab b).Cover.Db.runs;
  Alcotest.(check (list string))
    "self merge keeps one label" [ "a" ]
    (Cover.Db.merge a a).Cover.Db.runs;
  (* A database carrying duplicates from an older file dedups on the
     way through merge, preserving first-occurrence order. *)
  let dirty = { ab with Cover.Db.runs = [ "a"; "b"; "a" ] } in
  Alcotest.(check (list string))
    "within-side duplicates collapse" [ "a"; "b"; "c" ]
    (Cover.Db.merge dirty (db "c")).Cover.Db.runs

(* ------------------------------------------------------------------ *)
(* Observability substrate under domains                               *)

let test_perf_atomic () =
  let ctr = Perf.counter "par.test.hits" in
  Perf.reset ctr;
  ignore
    (Par.map ~jobs:4
       (fun _ ->
         for _ = 1 to 100 do
           Perf.incr ctr
         done)
       40);
  Alcotest.(check int) "no lost increments across domains" 4000 (Perf.value ctr)

let test_hist_domains () =
  Obs.Hist.enable ();
  let h = Obs.Hist.histogram "par.test.latency" in
  Obs.Hist.reset h;
  ignore
    (Par.map ~jobs:4
       (fun i ->
         for _ = 1 to 50 do
           Obs.Hist.observe h (float_of_int (i + 1))
         done)
       8);
  Alcotest.(check int)
    "observations from every domain merge" 400 (Obs.Hist.count h);
  Alcotest.(check bool) "max seen" true (Obs.Hist.max_value h >= 8.0);
  Obs.Hist.reset h;
  Alcotest.(check int) "reset clears every shadow" 0 (Obs.Hist.count h)

let suite =
  [
    Alcotest.test_case "chunks" `Quick test_chunks;
    Alcotest.test_case "map ordering" `Quick test_map_order;
    Alcotest.test_case "failure provenance" `Quick test_failure_provenance;
    Alcotest.test_case "serial cancellation" `Quick test_serial_cancellation;
    Alcotest.test_case "nested map" `Quick test_nested_map;
    Alcotest.test_case "campaign jobs identity" `Quick
      test_campaign_jobs_identity;
    Alcotest.test_case "campaign shrunk identity" `Quick
      test_campaign_shrunk_identity;
    Alcotest.test_case "multi-seed cover identity" `Quick
      test_multi_seed_cover_identity;
    Alcotest.test_case "differential sweep" `Quick test_differential_sweep;
    Alcotest.test_case "sweep divergence" `Quick
      test_differential_sweep_divergence;
    Alcotest.test_case "merge runs dedup" `Quick test_merge_runs_dedup;
    Alcotest.test_case "perf counters atomic" `Quick test_perf_atomic;
    Alcotest.test_case "histograms across domains" `Quick test_hist_domains;
  ]

let () = Alcotest.run "par" [ ("par", suite) ]
