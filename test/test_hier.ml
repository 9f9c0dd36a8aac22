(* Hierarchy-preserving lowering: region/hint annotations, the module
   memo-cache, and the per-module breakdowns that ride on them. *)

open Hdl
open Builder.Dsl
module N = Backend.Netlist

(* A leaf with a memory: lowering produces decoded write enables and a
   read-mux tree, all of which must land in the instance's region. *)
let regfile_leaf () =
  let b = Builder.create "rf_leaf" in
  let we = Builder.input b "we" 1 in
  let waddr = Builder.input b "waddr" 2 in
  let wdata = Builder.input b "wdata" 4 in
  let raddr = Builder.input b "raddr" 2 in
  let rdata = Builder.output b "rdata" 4 in
  let mem = Builder.memory b "mem" ~width:4 ~depth:4 in
  Builder.sync b "write" [ when_ (v we) [ awrite mem (v waddr) (v wdata) ] ];
  Builder.comb b "read" [ rdata <-- aread mem (v raddr) ];
  Builder.finish b

(* Two instances of the same leaf plus top-level glue: the leaf must be
   lowered once (second instance hits the cache) and each instance's
   cells tagged with its own path. *)
let hier_design () =
  let leaf = regfile_leaf () in
  let b = Builder.create "rf_pair" in
  let we = Builder.input b "we" 1 in
  let waddr = Builder.input b "waddr" 2 in
  let wdata = Builder.input b "wdata" 4 in
  let raddr = Builder.input b "raddr" 2 in
  let r0 = Builder.output b "r0" 4 in
  let r1 = Builder.output b "r1" 4 in
  let both = Builder.output b "both" 4 in
  let m0 = Builder.wire b "m0" 4 in
  let m1 = Builder.wire b "m1" 4 in
  Builder.instantiate b ~name:"u_rf0" leaf
    [ ("we", we); ("waddr", waddr); ("wdata", wdata); ("raddr", raddr);
      ("rdata", m0) ];
  Builder.instantiate b ~name:"u_rf1" leaf
    [ ("we", we); ("waddr", waddr); ("wdata", wdata); ("raddr", raddr);
      ("rdata", m1) ];
  Builder.comb b "mix"
    [ r0 <-- v m0; r1 <-- v m1; both <-- (v m0 ^: v m1) ];
  Builder.finish b

let test_hier_memory_lowering () =
  let design = hier_design () in
  let nl = Backend.Lower.lower design in
  (match Backend.Equiv.ir_vs_netlist ~cycles:400 design nl with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%a" Backend.Equiv.pp_divergence m);
  let area = Backend.Area.analyze nl in
  Alcotest.(check int) "2x16 state bits" 32 area.Backend.Area.n_ffs;
  Alcotest.(check (list string))
    "both instance regions present" [ "u_rf0"; "u_rf1" ]
    (List.sort compare (N.region_names nl));
  Alcotest.(check bool) "cells are region-tagged" true
    (N.region_table_size nl > 0)

let test_per_instance_breakdown () =
  let nl = Backend.Lower.lower (hier_design ()) in
  let rows = Backend.Area.by_module nl in
  let row path =
    match
      List.find_opt
        (fun (r : Backend.Area.module_row) -> r.Backend.Area.path = path)
        rows
    with
    | Some r -> r
    | None -> Alcotest.failf "no area row for %S" path
  in
  (* The two instances of the same leaf must cost about the same; the
     only allowed difference is shared constant cells, which the region
     tagging attributes to whichever instance was spliced first. *)
  let r0 = row "u_rf0" and r1 = row "u_rf1" in
  Alcotest.(check bool) "near-identical cell counts" true
    (abs (r0.Backend.Area.m_cells - r1.Backend.Area.m_cells) <= 4);
  Alcotest.(check int) "16 FFs each" 16 r0.Backend.Area.m_ffs;
  Alcotest.(check int) "16 FFs each (second instance)" 16
    r1.Backend.Area.m_ffs;
  Alcotest.(check int) "rows sum to the whole netlist"
    (N.cell_count nl)
    (List.fold_left (fun acc (r : Backend.Area.module_row) ->
         acc + r.Backend.Area.m_cells) 0 rows)

let test_regions_survive_opt () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (hier_design ())) in
  Alcotest.(check (list string))
    "regions survive optimization" [ "u_rf0"; "u_rf1" ]
    (List.sort compare (N.region_names nl));
  Alcotest.(check bool) "hints survive optimization" true
    (N.hint_table_size nl > 0);
  (* The simulator's labels pick the hierarchical descriptions up. *)
  let labels = Backend.Netlist.net_labels nl in
  Alcotest.(check bool) "a u_rf0-prefixed label exists" true
    (Array.exists
       (fun l -> String.length l > 6 && String.sub l 0 6 = "u_rf0.")
       labels)

let test_regions_survive_techmap_pnr () =
  let nl = Backend.Opt.optimize (Backend.Lower.lower (hier_design ())) in
  let mapped = Backend.Techmap.map nl in
  let rows = Backend.Techmap.by_module mapped in
  let luts = List.fold_left (fun acc (_, l, _) -> acc + l) 0 rows in
  let ffs = List.fold_left (fun acc (_, _, f) -> acc + f) 0 rows in
  Alcotest.(check int) "techmap rows account for every LUT"
    (Backend.Techmap.lut_count mapped) luts;
  Alcotest.(check int) "techmap rows account for every FF"
    (Backend.Techmap.ff_count mapped) ffs;
  Alcotest.(check bool) "an instance path survives mapping" true
    (List.exists (fun (p, _, _) -> p = "u_rf0") rows);
  let placed = Backend.Pnr.place ~moves:2_000 mapped in
  let prow = Backend.Pnr.by_module placed in
  Alcotest.(check int) "placement rows account for every core element"
    (Backend.Techmap.lut_count mapped + Backend.Techmap.ff_count mapped)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 prow);
  Alcotest.(check bool) "an instance path survives placement" true
    (List.exists (fun (p, _) -> p = "u_rf1") prow)

let test_memo_cache_equivalence () =
  let design = hier_design () in
  Backend.Lower.clear_cache ();
  let h0, m0 = Backend.Lower.cache_stats () in
  let cold = Backend.Lower.lower design in
  let h1, m1 = Backend.Lower.cache_stats () in
  (* Two instances of one leaf: the second splice must hit the cache. *)
  Alcotest.(check bool) "shared leaf hits within one lowering" true
    (h1 - h0 >= 1);
  Alcotest.(check bool) "cold run misses" true (m1 - m0 >= 2);
  let warm = Backend.Lower.lower design in
  let h2, m2 = Backend.Lower.cache_stats () in
  Alcotest.(check bool) "warm run is a pure hit" true
    (h2 > h1 && m2 = m1);
  Alcotest.(check bool) "warm run shares the cached netlist" true
    (cold == warm);
  (* Memoized lowering must be formally equivalent to cold lowering. *)
  Backend.Lower.clear_cache ();
  let recold = Backend.Lower.lower design in
  (match Backend.Cec.check cold recold with
  | Backend.Cec.Proved -> ()
  | v -> Alcotest.failf "memoized vs cold: %a" Backend.Cec.pp_verdict v);
  (* And bit-identical under simulation. *)
  match
    Backend.Equiv.differential ~cycles:200
      [
        (fun () -> Backend.Nl_engine.create ~label:"cold" cold);
        (fun () -> Backend.Nl_engine.create ~label:"recold" recold);
      ]
  with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "%a" Backend.Equiv.pp_divergence d

let test_trace_hier_scopes () =
  let nl = Backend.Lower.lower (hier_design ()) in
  let e = Backend.Nl_engine.create ~label:"nl" nl in
  Alcotest.(check bool) "engine exposes hierarchical probes" true
    (List.exists
       (fun (name, _) -> String.length name > 6 && String.sub name 0 6 = "u_rf0.")
       (Engine.probes e));
  let tr = Engine.Trace.create [ e ] in
  Engine.Trace.sample tr;
  let doc = Engine.Trace.contents tr in
  let contains needle =
    let n = String.length needle and h = String.length doc in
    let rec go i = i + n <= h && (String.sub doc i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "VCD has the engine scope" true
    (contains "$scope module nl $end");
  Alcotest.(check bool) "VCD has a nested instance scope" true
    (contains "$scope module u_rf0 $end")

let test_fault_site_names () =
  let nl = Backend.Lower.lower (hier_design ()) in
  (* Pick a region-tagged net so the site carries the instance path. *)
  let site_net =
    let found = ref None in
    List.iter
      (fun (c : N.cell) ->
        if !found = None && N.region_of nl c.N.out = "u_rf1" then
          found := Some c.N.out)
      (N.cells nl);
    match !found with Some n -> n | None -> Alcotest.fail "no u_rf1 cell"
  in
  let campaign =
    Backend.Equiv.fault_campaign ~cycles:50 ~shrink:false nl
      [ { Backend.Equiv.fault_net = site_net; stuck_at = true } ]
  in
  match campaign.Backend.Equiv.fault_results with
  | [ r ] ->
      Alcotest.(check bool) "site names the owning instance" true
        (String.length r.Backend.Equiv.site > 6
        && String.sub r.Backend.Equiv.site 0 6 = "u_rf1.")
  | _ -> Alcotest.fail "one fault expected"

let suite =
  [
    Alcotest.test_case "hierarchical memory lowering" `Quick
      test_hier_memory_lowering;
    Alcotest.test_case "per-instance breakdown" `Quick
      test_per_instance_breakdown;
    Alcotest.test_case "regions survive opt" `Quick test_regions_survive_opt;
    Alcotest.test_case "regions survive techmap+pnr" `Quick
      test_regions_survive_techmap_pnr;
    Alcotest.test_case "memo cache equivalence" `Quick
      test_memo_cache_equivalence;
    Alcotest.test_case "hierarchical trace scopes" `Quick
      test_trace_hier_scopes;
    Alcotest.test_case "fault site names" `Quick test_fault_site_names;
  ]

let () = Alcotest.run "hier" [ ("hier", suite) ]
