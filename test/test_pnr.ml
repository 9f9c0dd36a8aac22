(* Tests for technology mapping and place & route. *)

open Hdl
open Builder.Dsl
module T = Backend.Techmap
module P = Backend.Pnr
module N = Backend.Netlist

let small_design () =
  let b = Builder.create "small" in
  let reset = Builder.input b "reset" 1 in
  let x = Builder.input b "x" 4 in
  let y = Builder.output b "y" 4 in
  let acc = Builder.wire b "acc" 4 in
  Builder.sync b "f"
    [
      if_ (v reset)
        [ acc <-- c ~width:4 0 ]
        [ acc <-- (v acc +: v x) ];
    ];
  Builder.comb b "g" [ y <-- (v acc ^: v x) ];
  Builder.finish b

let test_map_reduces_cells () =
  let nl = Backend.Lower.lower (small_design ()) in
  let gates =
    List.length
      (List.filter (fun (c : Backend.Netlist.cell) -> c.kind <> Backend.Cell.Dff)
         (Backend.Netlist.cells nl))
  in
  let mapped = T.map nl in
  Alcotest.(check bool) "fewer LUTs than gates" true (T.lut_count mapped < gates);
  Alcotest.(check int) "flip-flops preserved" 4 (T.ff_count mapped);
  Alcotest.(check bool) "depth positive" true (T.depth mapped >= 1);
  (* every LUT respects K *)
  List.iter
    (fun (l : T.lut) ->
      Alcotest.(check bool) "support <= 4" true
        (Array.length l.T.lut_inputs <= 4))
    (T.luts mapped)

let test_map_is_equivalent () =
  List.iter
    (fun design ->
      let nl = Backend.Lower.lower design in
      let mapped = T.map nl in
      Alcotest.(check bool)
        ("mapping preserves " ^ design.Ir.mod_name)
        true
        (T.verify ~vectors:150 mapped))
    [
      small_design ();
      Expocu.Sync.rtl_module ();
      Expocu.Threshold.rtl_module ();
      Expocu.I2c.vhdl_module ();
    ]

let test_map_k_variants () =
  let nl = Backend.Lower.lower (Expocu.Sync.rtl_module ()) in
  let l2 = T.lut_count (T.map ~k:2 nl) in
  let l4 = T.lut_count (T.map ~k:4 nl) in
  let l6 = T.lut_count (T.map ~k:6 nl) in
  Alcotest.(check bool) "wider LUTs absorb more" true (l6 <= l4 && l4 <= l2);
  Alcotest.(check bool) "k out of range" true
    (try ignore (T.map ~k:9 nl); false with T.Map_error _ -> true)

let test_place_improves_wirelength () =
  let nl = Backend.Lower.lower (Expocu.I2c.vhdl_module ()) in
  let mapped = T.map nl in
  let placement = P.place ~seed:3 ~moves:30_000 mapped in
  let r = P.analyze placement in
  Alcotest.(check bool) "annealing reduced wirelength" true
    (r.P.wirelength < r.P.initial_wirelength);
  Alcotest.(check bool) "utilization sane" true
    (r.P.utilization > 0.1 && r.P.utilization <= 1.0);
  Alcotest.(check bool) "post-layout slower than pure logic" true
    (r.P.critical_ns > float_of_int r.P.lut_levels *. P.lut_delay_ns)

let test_pnr_determinism () =
  let nl = Backend.Lower.lower (Expocu.Sync.rtl_module ()) in
  let run () = P.place ~seed:5 ~moves:5_000 (T.map nl) in
  let a = run () and b = run () in
  Alcotest.(check (array (pair int int)))
    "same seed, same placement" (P.positions a) (P.positions b);
  Alcotest.(check (float 1e-9)) "same seed, same wirelength"
    (P.analyze a).P.wirelength (P.analyze b).P.wirelength

(* Oracle comparison: Backend.Pnr against the reference placer of
   Pnr_oracle on the same mapped netlist (lowering is not reproducible
   across process histories, so the two must share one [mapped]). *)

module O = Pnr_oracle

let report =
  Alcotest.testable
    (fun ppf (r : P.report) ->
      Format.fprintf ppf
        "{grid=%dx%d; util=%h; wl=%h; wl0=%h; crit=%h; fmax=%h; levels=%d}"
        (fst r.P.grid) (snd r.P.grid) r.P.utilization r.P.wirelength
        r.P.initial_wirelength r.P.critical_ns r.P.fmax_mhz r.P.lut_levels)
    ( = )

let of_oracle (r : O.report) =
  {
    P.grid = r.O.grid;
    utilization = r.O.utilization;
    wirelength = r.O.wirelength;
    initial_wirelength = r.O.initial_wirelength;
    critical_ns = r.O.critical_ns;
    fmax_mhz = r.O.fmax_mhz;
    lut_levels = r.O.lut_levels;
  }

let matches_oracle ?seed ?moves mapped =
  let p = P.place ?seed ?moves mapped and o = O.place ?seed ?moves mapped in
  P.positions p = O.positions o && P.analyze p = of_oracle (O.analyze o)

let check_oracle label ?seed ?moves mapped =
  let p = P.place ?seed ?moves mapped and o = O.place ?seed ?moves mapped in
  Alcotest.(check (array (pair int int)))
    (label ^ ": positions") (O.positions o) (P.positions p);
  Alcotest.check report (label ^ ": report") (of_oracle (O.analyze o))
    (P.analyze p)

let test_oracle_expocu () =
  List.iter
    (fun (label, design) ->
      let nl = Backend.Opt.optimize (Backend.Lower.lower design) in
      check_oracle label (T.map nl))
    [
      ("osss", Expocu.Expocu_top.osss_top ());
      ("conventional", Expocu.Expocu_top.rtl_top ());
    ]

let test_oracle_seeds () =
  List.iter
    (fun (name, design) ->
      let mapped = T.map (Backend.Lower.lower design) in
      List.iter
        (fun (seed, moves) ->
          check_oracle (Printf.sprintf "%s seed %d moves %d" name seed moves)
            ~seed ~moves mapped)
        [ (3, 30_000); (42, 200_000); (5, 5_000); (1, 0); (9, 1) ])
    [
      ("i2c", Expocu.I2c.vhdl_module ());
      ("sync", Expocu.Sync.rtl_module ());
    ]

(* One LUT and no flip-flop: too few core elements to anneal. *)
let test_oracle_tiny () =
  let nl = N.create ~name:"tiny" () in
  let a = N.add_input nl "a" 1 and b = N.add_input nl "b" 1 in
  N.add_output nl "y" [| N.and2 nl a.(0) b.(0) |];
  let mapped = T.map nl in
  Alcotest.(check bool) "fewer than 4 core elements" true
    (T.lut_count mapped + T.ff_count mapped < 4);
  check_oracle "tiny" ~seed:7 ~moves:1_000 mapped

(* A hold register (d = q) is both driver and sink of its own net,
   beside ordinary registered and combinational logic. *)
let test_oracle_hold_register () =
  let nl = N.create ~name:"hold" () in
  let x = N.add_input nl "x" 4 in
  let hold = N.dff_deferred nl in
  N.connect_dff nl ~q:hold ~d:hold;
  let r0 = N.dff nl ~d:(N.xor2 nl x.(0) x.(1)) in
  let r1 = N.dff nl ~d:(N.and2 nl r0 x.(2)) in
  N.add_output nl "y"
    [|
      N.xor2 nl hold r1;
      N.or2 nl r0 x.(3);
      N.nand2 nl x.(1) x.(2);
      hold;
    |];
  let mapped = T.map nl in
  Alcotest.(check bool) "hold register kept" true
    (List.exists (fun (d, q) -> d = q) (T.ffs mapped));
  Alcotest.(check bool) "enough core elements to anneal" true
    (T.lut_count mapped + T.ff_count mapped >= 4);
  List.iter
    (fun (seed, moves) -> check_oracle "hold" ~seed ~moves mapped)
    [ (1, 2_000); (2, 20_000) ]

let i2c_mapped = lazy (T.map (Backend.Lower.lower (Expocu.I2c.vhdl_module ())))

let prop_oracle_i2c =
  QCheck.Test.make ~count:25 ~name:"placement matches oracle (i2c)"
    QCheck.(pair small_nat (int_bound 5_000))
    (fun (seed, moves) -> matches_oracle ~seed ~moves (Lazy.force i2c_mapped))

let test_full_flow_to_layout () =
  (* ExpoCU end to end: gates -> LUTs -> placement -> fmax *)
  let nl =
    Backend.Opt.optimize (Backend.Lower.lower (Expocu.Expocu_top.rtl_top ()))
  in
  let mapped = T.map nl in
  Alcotest.(check bool) "chip maps" true (T.lut_count mapped > 300);
  let placement = P.place ~seed:11 ~moves:20_000 mapped in
  let r = P.analyze placement in
  Alcotest.(check bool) "fmax finite" true (r.P.fmax_mhz > 1.0);
  Alcotest.(check bool) "grid fits" true (fst r.P.grid > 10)

let suite =
  [
    Alcotest.test_case "map reduces cells" `Quick test_map_reduces_cells;
    Alcotest.test_case "map is equivalent" `Quick test_map_is_equivalent;
    Alcotest.test_case "map k variants" `Quick test_map_k_variants;
    Alcotest.test_case "place improves wirelength" `Quick
      test_place_improves_wirelength;
    Alcotest.test_case "pnr determinism" `Quick test_pnr_determinism;
    Alcotest.test_case "full flow to layout" `Quick test_full_flow_to_layout;
    Alcotest.test_case "oracle expocu tops" `Quick test_oracle_expocu;
    Alcotest.test_case "oracle seeds and moves" `Quick test_oracle_seeds;
    Alcotest.test_case "oracle tiny design" `Quick test_oracle_tiny;
    Alcotest.test_case "oracle hold register" `Quick test_oracle_hold_register;
    QCheck_alcotest.to_alcotest prop_oracle_i2c;
  ]

let () = Alcotest.run "pnr" [ ("pnr", suite) ]
