(* Unit and property tests for the Bitvec substrate. *)

let bv = Bitvec.of_int

let check_bv msg expected actual =
  Alcotest.(check string) msg (Bitvec.to_string expected) (Bitvec.to_string actual)

(* ------------------------- unit tests ------------------------- *)

let test_construction () =
  Alcotest.(check int) "width" 8 (Bitvec.width (bv ~width:8 0));
  Alcotest.(check int) "of_int value" 42 (Bitvec.to_int (bv ~width:8 42));
  Alcotest.(check int) "wrap" 0 (Bitvec.to_int (bv ~width:8 256));
  Alcotest.(check int) "negative wraps" 0xff (Bitvec.to_int (bv ~width:8 (-1)));
  Alcotest.(check bool) "zero is_zero" true (Bitvec.is_zero (Bitvec.zero 70));
  Alcotest.(check bool) "ones is_ones" true (Bitvec.is_ones (Bitvec.ones 70));
  Alcotest.(check int) "popcount ones" 70 (Bitvec.popcount (Bitvec.ones 70))

let test_of_string () =
  Alcotest.(check int) "binary" 0b0101 (Bitvec.to_int (Bitvec.of_string "0b0101"));
  Alcotest.(check int) "binary width" 4 (Bitvec.width (Bitvec.of_string "0b0101"));
  Alcotest.(check int) "underscores" 0b10101010
    (Bitvec.to_int (Bitvec.of_string "0b1010_1010"));
  Alcotest.(check int) "hex" 0x3fa (Bitvec.to_int (Bitvec.of_string "0x3fa"));
  Alcotest.(check int) "hex explicit width" 12
    (Bitvec.width (Bitvec.of_string "0x3fa:12"));
  Alcotest.check_raises "bad literal" (Bitvec.Invalid_bitvec "of_string: bad digit 2")
    (fun () -> ignore (Bitvec.of_string "0b012"))

let test_roundtrip_strings () =
  let v = Bitvec.of_string "0b1011001" in
  Alcotest.(check string) "binary string" "1011001" (Bitvec.to_binary_string v);
  Alcotest.(check string) "hex string" "59" (Bitvec.to_hex_string v);
  Alcotest.(check string) "to_string" "7'h59" (Bitvec.to_string v)

let test_slice_concat () =
  let v = bv ~width:8 0xA5 in
  Alcotest.(check int) "slice hi" 0xA (Bitvec.to_int (Bitvec.slice v ~hi:7 ~lo:4));
  Alcotest.(check int) "slice lo" 0x5 (Bitvec.to_int (Bitvec.slice v ~hi:3 ~lo:0));
  check_bv "concat restores"
    v
    (Bitvec.concat (Bitvec.slice v ~hi:7 ~lo:4) (Bitvec.slice v ~hi:3 ~lo:0));
  let r = Bitvec.repeat (bv ~width:2 0b10) 3 in
  Alcotest.(check int) "repeat" 0b101010 (Bitvec.to_int r);
  check_bv "set_slice"
    (bv ~width:8 0xAF)
    (Bitvec.set_slice v ~lo:0 (bv ~width:4 0xF))

let test_arith () =
  let a = bv ~width:8 200 and b = bv ~width:8 100 in
  Alcotest.(check int) "add wraps" 44 (Bitvec.to_int (Bitvec.add a b));
  Alcotest.(check int) "sub" 100 (Bitvec.to_int (Bitvec.sub a b));
  Alcotest.(check int) "sub wraps" 156 (Bitvec.to_int (Bitvec.sub b a));
  Alcotest.(check int) "mul low bits" ((200 * 100) land 0xff)
    (Bitvec.to_int (Bitvec.mul a b));
  Alcotest.(check int) "mul_full" 20000 (Bitvec.to_int (Bitvec.mul_full a b));
  Alcotest.(check int) "neg" 56 (Bitvec.to_int (Bitvec.neg a));
  Alcotest.(check int) "udiv" 2 (Bitvec.to_int (Bitvec.udiv a b));
  Alcotest.(check int) "umod" 0 (Bitvec.to_int (Bitvec.umod a b));
  Alcotest.(check int) "umod2" 23 (Bitvec.to_int (Bitvec.umod (bv ~width:8 123) b));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bitvec.udiv a (Bitvec.zero 8)))

let test_wide_arith () =
  (* 100-bit arithmetic crosses limb boundaries. *)
  let one = Bitvec.of_int ~width:100 1 in
  let max = Bitvec.ones 100 in
  Alcotest.(check bool) "ones + 1 = 0" true (Bitvec.is_zero (Bitvec.add max one));
  Alcotest.(check bool) "0 - 1 = ones" true
    (Bitvec.is_ones (Bitvec.sub (Bitvec.zero 100) one));
  let x = Bitvec.shift_left one 64 in
  Alcotest.(check bool) "bit 64 set" true (Bitvec.get x 64);
  Alcotest.(check int) "popcount" 1 (Bitvec.popcount x)

let test_signed () =
  let m1 = bv ~width:8 (-1) and p1 = bv ~width:8 1 in
  Alcotest.(check int) "signed -1" (-1) (Bitvec.to_signed_int m1);
  Alcotest.(check bool) "slt" true (Bitvec.slt m1 p1);
  Alcotest.(check bool) "ult opposite" true (Bitvec.ult p1 m1);
  Alcotest.(check bool) "sle self" true (Bitvec.sle m1 m1);
  check_bv "sign extend" (bv ~width:12 (-1)) (Bitvec.sign_extend m1 12);
  check_bv "zero extend" (bv ~width:12 255) (Bitvec.zero_extend m1 12);
  Alcotest.(check int) "ashr" (-1)
    (Bitvec.to_signed_int (Bitvec.shift_right_arith m1 3));
  Alcotest.(check int) "lshr" 0x1f
    (Bitvec.to_int (Bitvec.shift_right_logical m1 3))

let test_logic_ops () =
  let a = bv ~width:8 0b11001100 and b = bv ~width:8 0b10101010 in
  Alcotest.(check int) "and" 0b10001000 (Bitvec.to_int (Bitvec.logand a b));
  Alcotest.(check int) "or" 0b11101110 (Bitvec.to_int (Bitvec.logor a b));
  Alcotest.(check int) "xor" 0b01100110 (Bitvec.to_int (Bitvec.logxor a b));
  Alcotest.(check int) "not" 0b00110011 (Bitvec.to_int (Bitvec.lognot a));
  Alcotest.(check bool) "reduce_or" true (Bitvec.reduce_or a);
  Alcotest.(check bool) "reduce_and" false (Bitvec.reduce_and a);
  Alcotest.(check bool) "reduce_xor" false (Bitvec.reduce_xor a);
  Alcotest.(check bool) "reduce_xor odd" true (Bitvec.reduce_xor (bv ~width:4 0b0111))

let test_width_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Bitvec.Width_mismatch "add: widths 8 and 4") (fun () ->
      ignore (Bitvec.add (bv ~width:8 1) (bv ~width:4 1)))

(* ------------------------- properties ------------------------- *)

let gen_width = QCheck2.Gen.int_range 1 80

let gen_bv =
  QCheck2.Gen.(
    gen_width >>= fun w ->
    list_size (return w) bool >|= fun bits -> Bitvec.of_bits bits)

let gen_bv_pair =
  QCheck2.Gen.(
    gen_width >>= fun w ->
    let v = list_size (return w) bool >|= Bitvec.of_bits in
    pair v v)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

(* The full product by bit-serial shift-and-add over bool arrays (LSB
   first), sharing no arithmetic with Bitvec: for every set bit [i] of
   [b], ripple-add [a] shifted by [i] into a [wa + wb]-bit accumulator. *)
let mul_full_reference a b =
  let wa = Bitvec.width a and wb = Bitvec.width b in
  let acc = Array.make (wa + wb) false in
  for i = 0 to wb - 1 do
    if Bitvec.get b i then begin
      let carry = ref false in
      for k = i to wa + wb - 1 do
        let x = k - i < wa && Bitvec.get a (k - i) in
        let s = acc.(k) in
        acc.(k) <- s <> x <> !carry;
        carry := (s && x) || (!carry && (s || x))
      done
    end
  done;
  Bitvec.init (wa + wb) (fun k -> acc.(k))

let gen_wide_pair =
  QCheck2.Gen.(
    let v =
      int_range 1 200 >>= fun w -> list_size (return w) bool >|= Bitvec.of_bits
    in
    pair v v)

let test_mul_wide () =
  (* sext(i0, w) * sext(i0, w) with the 1-bit i0 = 1 is (-1) * (-1) =
     1; the 32-bit limb products overflowed it to 64'h8000000000000001
     and 75'h7ff8000000000000001. *)
  List.iter
    (fun w ->
      let m1 = Bitvec.sign_extend (Bitvec.of_int ~width:1 1) w in
      check_bv (Printf.sprintf "%d-bit (-1) * (-1)" w) (Bitvec.of_int ~width:w 1)
        (Bitvec.mul m1 m1))
    [ 63; 64; 75; 128 ];
  let ones = Bitvec.ones 64 in
  check_bv "(2^64-1)^2"
    (Bitvec.of_string "0xfffffffffffffffe0000000000000001:128")
    (Bitvec.mul_full ones ones)

let props =
  [
    prop "add commutes" gen_bv_pair (fun (a, b) ->
        Bitvec.equal (Bitvec.add a b) (Bitvec.add b a));
    prop "a - a = 0" gen_bv (fun a -> Bitvec.is_zero (Bitvec.sub a a));
    prop "a + neg a = 0" gen_bv (fun a ->
        Bitvec.is_zero (Bitvec.add a (Bitvec.neg a)));
    prop "not involutive" gen_bv (fun a ->
        Bitvec.equal a (Bitvec.lognot (Bitvec.lognot a)));
    prop "slice/concat roundtrip" gen_bv (fun a ->
        let w = Bitvec.width a in
        if w < 2 then true
        else
          let k = w / 2 in
          Bitvec.equal a
            (Bitvec.concat
               (Bitvec.slice a ~hi:(w - 1) ~lo:k)
               (Bitvec.slice a ~hi:(k - 1) ~lo:0)));
    prop "to_bits/of_bits roundtrip" gen_bv (fun a ->
        Bitvec.equal a (Bitvec.of_bits (Bitvec.to_bits a)));
    prop "binary string roundtrip" gen_bv (fun a ->
        Bitvec.equal a (Bitvec.of_string ("0b" ^ Bitvec.to_binary_string a)));
    prop "compare_unsigned total order vs int" gen_bv_pair (fun (a, b) ->
        let wa = Bitvec.width a in
        if wa > 60 then true
        else
          compare (Bitvec.to_int a) (Bitvec.to_int b)
          = Bitvec.compare_unsigned a b);
    prop "divmod reconstruction" gen_bv_pair (fun (a, b) ->
        if Bitvec.is_zero b then true
        else
          let q = Bitvec.udiv a b and r = Bitvec.umod a b in
          Bitvec.ult r b && Bitvec.equal a (Bitvec.add (Bitvec.mul q b) r));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"mul_full matches shift-and-add (widths 1-200)" gen_wide_pair
         (fun (a, b) ->
           Bitvec.equal (Bitvec.mul_full a b) (mul_full_reference a b)));
    prop "mul matches int semantics" gen_bv_pair (fun (a, b) ->
        let w = Bitvec.width a in
        if w > 30 then true
        else
          Bitvec.to_int (Bitvec.mul a b)
          = Bitvec.to_int a * Bitvec.to_int b land ((1 lsl w) - 1));
    prop "shift left then right" gen_bv (fun a ->
        let w = Bitvec.width a in
        let n = w / 3 in
        let masked =
          Bitvec.shift_right_logical (Bitvec.shift_left a n) n
        in
        let expected =
          if n = 0 then a
          else
            Bitvec.zero_extend
              (Bitvec.slice a ~hi:(w - 1 - n) ~lo:0)
              w
        in
        n >= w || Bitvec.equal masked expected);
  ]

(* ------------------------- four-state logic ------------------------- *)

module L = Bitvec.Logic

let test_logic_tables () =
  Alcotest.(check char) "and 0 x" '0' (L.to_char (L.and_ L.L0 L.X));
  Alcotest.(check char) "or 1 x" '1' (L.to_char (L.or_ L.L1 L.X));
  Alcotest.(check char) "and 1 x" 'x' (L.to_char (L.and_ L.L1 L.X));
  Alcotest.(check char) "xor x 1" 'x' (L.to_char (L.xor L.X L.L1));
  Alcotest.(check char) "not z" 'x' (L.to_char (L.not_ L.Z));
  Alcotest.(check char) "mux unknown sel same" '1'
    (L.to_char (L.mux ~sel:L.X L.L1 L.L1));
  Alcotest.(check char) "mux unknown sel diff" 'x'
    (L.to_char (L.mux ~sel:L.X L.L1 L.L0))

let test_logic_resolution () =
  Alcotest.(check char) "z loses" '1' (L.to_char (L.resolve L.Z L.L1));
  Alcotest.(check char) "conflict" 'x' (L.to_char (L.resolve L.L0 L.L1));
  Alcotest.(check char) "wired-and pullup" '1'
    (L.to_char (L.resolve_wired_and L.Z L.Z));
  Alcotest.(check char) "wired-and low wins" '0'
    (L.to_char (L.resolve_wired_and L.Z L.L0));
  Alcotest.(check char) "wired-and both low" '0'
    (L.to_char (L.resolve_wired_and L.L0 L.L0))

let test_int_fast_paths () =
  (* of_int/to_int take a word-level shortcut for vectors of at most two
     limbs; it must agree bit for bit with the general bit-by-bit
     construction across the width boundary cases (1, 32, 33, 62, 63,
     64, 70) and for negative (sign-replicated) inputs. *)
  let reference ~width n =
    Bitvec.init width (fun i ->
        if i > 62 then n < 0 else (n asr i) land 1 = 1)
  in
  let values =
    [ 0; 1; 2; 0xff; 0x12345678; max_int; min_int; -1; -2; -0x5544332211 ]
  in
  List.iter
    (fun width ->
      List.iter
        (fun n ->
          let got = Bitvec.of_int ~width n in
          check_bv (Printf.sprintf "of_int ~width:%d %d" width n)
            (reference ~width n) got;
          (* to_int must agree with an independent bit-by-bit readback
             wherever the unsigned value fits an OCaml int. *)
          if width <= 62 then begin
            let expected = ref 0 in
            for i = width - 1 downto 0 do
              expected :=
                (!expected lsl 1) lor (if Bitvec.get got i then 1 else 0)
            done;
            Alcotest.(check int)
              (Printf.sprintf "to_int readback w=%d n=%d" width n)
              !expected (Bitvec.to_int got)
          end)
        values)
    [ 1; 2; 7; 31; 32; 33; 61; 62; 63; 64; 70; 100 ]

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "of_string" `Quick test_of_string;
    Alcotest.test_case "string roundtrips" `Quick test_roundtrip_strings;
    Alcotest.test_case "slice/concat" `Quick test_slice_concat;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "wide arithmetic" `Quick test_wide_arith;
    Alcotest.test_case "wide multiplication" `Quick test_mul_wide;
    Alcotest.test_case "signed ops" `Quick test_signed;
    Alcotest.test_case "logic ops" `Quick test_logic_ops;
    Alcotest.test_case "width mismatch" `Quick test_width_mismatch;
    Alcotest.test_case "logic tables" `Quick test_logic_tables;
    Alcotest.test_case "logic resolution" `Quick test_logic_resolution;
    Alcotest.test_case "int fast paths" `Quick test_int_fast_paths;
  ]
  @ props

let () = Alcotest.run "bitvec" [ ("bitvec", suite) ]
