(* Arbitrary-width bit vectors backed by 32-bit limbs stored in an int
   array.  Limb 0 holds the least significant bits.  The top limb is kept
   masked so that structural equality and hashing work on the raw arrays. *)

exception Width_mismatch of string
exception Invalid_bitvec of string

let limb_bits = 32
let limb_mask = (1 lsl limb_bits) - 1

type t = { width : int; limbs : int array }

let nlimbs width = (width + limb_bits - 1) / limb_bits

(* Mask that keeps only the valid bits of the top limb. *)
let top_mask width =
  let r = width mod limb_bits in
  if r = 0 then limb_mask else (1 lsl r) - 1

let normalize v =
  let n = Array.length v.limbs in
  if n > 0 then v.limbs.(n - 1) <- v.limbs.(n - 1) land top_mask v.width;
  v

let create width =
  if width < 1 then raise (Invalid_bitvec "width must be >= 1");
  { width; limbs = Array.make (nlimbs width) 0 }

let zero width = create width

let ones width =
  let v = create width in
  Array.fill v.limbs 0 (Array.length v.limbs) limb_mask;
  normalize v

let width v = v.width

let get v i =
  if i < 0 || i >= v.width then
    invalid_arg (Printf.sprintf "Bitvec.get: bit %d of width %d" i v.width);
  v.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set_bit v i b =
  if i < 0 || i >= v.width then
    invalid_arg (Printf.sprintf "Bitvec.set_bit: bit %d of width %d" i v.width);
  let limbs = Array.copy v.limbs in
  let j = i / limb_bits and k = i mod limb_bits in
  if b then limbs.(j) <- limbs.(j) lor (1 lsl k)
  else limbs.(j) <- limbs.(j) land lnot (1 lsl k);
  { v with limbs }

let init w f =
  let v = create w in
  for i = 0 to w - 1 do
    if f i then
      v.limbs.(i / limb_bits) <-
        v.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
  done;
  v

let of_int ~width n =
  if width < 1 then raise (Invalid_bitvec "width must be >= 1");
  (* Word-level fast path: up to two limbs come straight from the int's
     two's-complement representation ([asr] past bit 62 replicates the
     sign, which matches the bit-by-bit definition below). *)
  if width <= limb_bits then normalize { width; limbs = [| n land limb_mask |] }
  else if width <= 2 * limb_bits then
    normalize
      { width; limbs = [| n land limb_mask; (n asr limb_bits) land limb_mask |] }
  else init width (fun i -> if i > 62 then n < 0 else (n asr i) land 1 = 1)

let of_int64 ~width n =
  init width (fun i ->
      if i > 63 then Int64.compare n 0L < 0
      else Int64.logand (Int64.shift_right n i) 1L = 1L)

let of_bool b = of_int ~width:1 (if b then 1 else 0)

let of_bits bits =
  match bits with
  | [] -> raise (Invalid_bitvec "of_bits: empty list")
  | _ ->
      let n = List.length bits in
      let arr = Array.of_list bits in
      init n (fun i -> arr.(n - 1 - i))

let to_bits v =
  let rec loop i acc = if i >= v.width then acc else loop (i + 1) (get v i :: acc) in
  loop 0 []

let of_string s =
  let strip_underscores s =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> String.of_seq
  in
  let s = strip_underscores s in
  let binary body =
    let n = String.length body in
    if n = 0 then raise (Invalid_bitvec "of_string: empty binary literal");
    init n (fun i ->
        match body.[n - 1 - i] with
        | '0' -> false
        | '1' -> true
        | c -> raise (Invalid_bitvec (Printf.sprintf "of_string: bad digit %c" c)))
  in
  let hex body w =
    let n = String.length body in
    if n = 0 then raise (Invalid_bitvec "of_string: empty hex literal");
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> raise (Invalid_bitvec (Printf.sprintf "of_string: bad hex digit %c" c))
    in
    init w (fun i ->
        let d = i / 4 in
        if d >= n then false else digit body.[n - 1 - d] lsr (i mod 4) land 1 = 1)
  in
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'b' || s.[1] = 'B') then
    binary (String.sub s 2 (String.length s - 2))
  else if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    match String.index_opt s ':' with
    | Some i ->
        let body = String.sub s 2 (i - 2) in
        let w =
          try int_of_string (String.sub s (i + 1) (String.length s - i - 1))
          with Failure _ -> raise (Invalid_bitvec "of_string: bad width suffix")
        in
        if w < 1 then raise (Invalid_bitvec "of_string: width must be >= 1");
        hex body w
    | None ->
        let body = String.sub s 2 (String.length s - 2) in
        hex body (4 * String.length body)
  else raise (Invalid_bitvec ("of_string: expected 0b... or 0x...: " ^ s))

let to_int_slow v =
  if v.width > 62 then begin
    (* Accept only if the high bits are all zero. *)
    for i = 62 to v.width - 1 do
      if get v i then raise (Invalid_bitvec "to_int: value does not fit in int")
    done
  end;
  let n = ref 0 in
  for i = min v.width 62 - 1 downto 0 do
    n := (!n lsl 1) lor (if get v i then 1 else 0)
  done;
  !n

let to_int v =
  (* Word-level fast path: the top limb is kept masked, so one or two
     limbs can be read back directly when the value fits an OCaml int. *)
  if v.width <= limb_bits then v.limbs.(0)
  else if v.width <= 62 then v.limbs.(0) lor (v.limbs.(1) lsl limb_bits)
  else to_int_slow v

let to_signed_int v =
  if v.width = 1 then if get v 0 then -1 else 0
  else begin
    let sign = get v (v.width - 1) in
    if v.width > 63 then
      for i = 62 to v.width - 2 do
        if get v i <> sign then
          raise (Invalid_bitvec "to_signed_int: value does not fit in int")
      done;
    let n = ref (if sign then -1 else 0) in
    for i = min (v.width - 1) 62 - 1 downto 0 do
      n := (!n lsl 1) lor (if get v i then 1 else 0)
    done;
    !n
  end

let to_int64 v =
  let n = ref 0L in
  for i = min v.width 64 - 1 downto 0 do
    n := Int64.logor (Int64.shift_left !n 1) (if get v i then 1L else 0L)
  done;
  !n

let to_binary_string v =
  String.init v.width (fun i -> if get v (v.width - 1 - i) then '1' else '0')

let to_hex_string v =
  let ndigits = (v.width + 3) / 4 in
  String.init ndigits (fun i ->
      let d = ndigits - 1 - i in
      let value = ref 0 in
      for k = 3 downto 0 do
        let bit = (d * 4) + k in
        value := (!value lsl 1) lor (if bit < v.width && get v bit then 1 else 0)
      done;
      "0123456789abcdef".[!value])

let is_zero v = Array.for_all (fun l -> l = 0) v.limbs

let is_ones v =
  let n = Array.length v.limbs in
  let ok = ref true in
  for i = 0 to n - 2 do
    if v.limbs.(i) <> limb_mask then ok := false
  done;
  !ok && v.limbs.(n - 1) = top_mask v.width

let popcount v =
  let count_limb l =
    let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + (l land 1)) in
    go l 0
  in
  Array.fold_left (fun acc l -> acc + count_limb l) 0 v.limbs

let msb v = get v (v.width - 1)
let lsb v = get v 0

let slice v ~hi ~lo =
  if lo < 0 || hi >= v.width || hi < lo then
    invalid_arg
      (Printf.sprintf "Bitvec.slice: [%d:%d] of width %d" hi lo v.width);
  init (hi - lo + 1) (fun i -> get v (lo + i))

let concat hi lo =
  init (hi.width + lo.width) (fun i ->
      if i < lo.width then get lo i else get hi (i - lo.width))

let concat_list = function
  | [] -> raise (Invalid_bitvec "concat_list: empty list")
  | v :: rest -> List.fold_left (fun acc x -> concat acc x) v rest

let repeat v n =
  if n < 1 then raise (Invalid_bitvec "repeat: count must be >= 1");
  init (v.width * n) (fun i -> get v (i mod v.width))

let transpose rows =
  let n = Array.length rows in
  if n = 0 then raise (Invalid_bitvec "transpose: empty array");
  let w = rows.(0).width in
  Array.iter
    (fun r ->
      if r.width <> w then
        raise
          (Width_mismatch
             (Printf.sprintf "transpose: row widths %d and %d" w r.width)))
    rows;
  Array.init w (fun i -> init n (fun j -> get rows.(j) i))

let set_slice v ~lo field =
  if lo < 0 || lo + field.width > v.width then
    invalid_arg
      (Printf.sprintf "Bitvec.set_slice: [%d+%d] of width %d" lo field.width
         v.width);
  init v.width (fun i ->
      if i >= lo && i < lo + field.width then get field (i - lo) else get v i)

let zero_extend v w =
  if w < v.width then invalid_arg "Bitvec.zero_extend: narrower target";
  init w (fun i -> i < v.width && get v i)

let sign_extend v w =
  if w < v.width then invalid_arg "Bitvec.sign_extend: narrower target";
  let s = msb v in
  init w (fun i -> if i < v.width then get v i else s)

let truncate v w =
  if w > v.width then invalid_arg "Bitvec.truncate: wider target";
  init w (fun i -> get v i)

let resize ~signed v w =
  if w = v.width then v
  else if w < v.width then truncate v w
  else if signed then sign_extend v w
  else zero_extend v w

let check_same_width op a b =
  if a.width <> b.width then
    raise
      (Width_mismatch
         (Printf.sprintf "%s: widths %d and %d" op a.width b.width))

let map2 op name a b =
  check_same_width name a b;
  let limbs = Array.init (Array.length a.limbs) (fun i -> op a.limbs.(i) b.limbs.(i)) in
  normalize { width = a.width; limbs }

let logand a b = map2 ( land ) "logand" a b
let logor a b = map2 ( lor ) "logor" a b
let logxor a b = map2 ( lxor ) "logxor" a b

let lognot a =
  let limbs = Array.map (fun l -> lnot l land limb_mask) a.limbs in
  normalize { width = a.width; limbs }

let reduce_and = is_ones
let reduce_or v = not (is_zero v)
let reduce_xor v = popcount v land 1 = 1

let shift_left v n =
  if n < 0 then invalid_arg "Bitvec.shift_left: negative shift";
  init v.width (fun i -> i >= n && get v (i - n))

let shift_right_logical v n =
  if n < 0 then invalid_arg "Bitvec.shift_right_logical: negative shift";
  init v.width (fun i -> i + n < v.width && get v (i + n))

let shift_right_arith v n =
  if n < 0 then invalid_arg "Bitvec.shift_right_arith: negative shift";
  let s = msb v in
  init v.width (fun i -> if i + n < v.width then get v (i + n) else s)

let add a b =
  check_same_width "add" a b;
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize { width = a.width; limbs }

let lognot' = lognot

let neg a = add (lognot' a) (of_int ~width:a.width 1)

let sub a b =
  check_same_width "sub" a b;
  add a (neg b)

let succ a = add a (of_int ~width:a.width 1)
let pred a = sub a (of_int ~width:a.width 1)

(* Schoolbook multiplication in base 2^16.  A digit product plus an
   accumulator digit plus the carry stays below 2^34, well inside the
   63-bit native int; whole 32-bit limb products overflowed it. *)
let half_bits = 16
let half_mask = (1 lsl half_bits) - 1

let halves limbs =
  Array.init
    (2 * Array.length limbs)
    (fun k -> (limbs.(k / 2) lsr (half_bits * (k land 1))) land half_mask)

let mul_full a b =
  let w = a.width + b.width in
  let x = halves a.limbs and y = halves b.limbs in
  let n = 2 * nlimbs w in
  let acc = Array.make n 0 in
  for i = 0 to Array.length x - 1 do
    let carry = ref 0 in
    for j = 0 to Array.length y - 1 do
      if i + j < n then begin
        let p = (x.(i) * y.(j)) + acc.(i + j) + !carry in
        acc.(i + j) <- p land half_mask;
        carry := p lsr half_bits
      end
    done;
    let k = ref (i + Array.length y) in
    while !carry <> 0 && !k < n do
      let s = acc.(!k) + !carry in
      acc.(!k) <- s land half_mask;
      carry := s lsr half_bits;
      incr k
    done
  done;
  let limbs =
    Array.init (nlimbs w) (fun k ->
        acc.(2 * k) lor (acc.((2 * k) + 1) lsl half_bits))
  in
  normalize { width = w; limbs }

let mul a b =
  check_same_width "mul" a b;
  truncate (mul_full a b) a.width

let compare_unsigned a b =
  check_same_width "compare_unsigned" a b;
  let rec go i =
    if i < 0 then 0
    else if a.limbs.(i) <> b.limbs.(i) then compare a.limbs.(i) b.limbs.(i)
    else go (i - 1)
  in
  go (Array.length a.limbs - 1)

let compare_signed a b =
  check_same_width "compare_signed" a b;
  match (msb a, msb b) with
  | true, false -> -1
  | false, true -> 1
  | _ -> compare_unsigned a b

let equal a b = a.width = b.width && a.limbs = b.limbs
let ult a b = compare_unsigned a b < 0
let ule a b = compare_unsigned a b <= 0
let ugt a b = compare_unsigned a b > 0
let uge a b = compare_unsigned a b >= 0
let slt a b = compare_signed a b < 0
let sle a b = compare_signed a b <= 0

(* Long division on bit vectors: restoring algorithm, MSB first. *)
let divmod a b =
  check_same_width "udiv" a b;
  if is_zero b then raise Division_by_zero;
  let w = a.width in
  let q = ref (zero w) and r = ref (zero w) in
  for i = w - 1 downto 0 do
    r := shift_left !r 1;
    if get a i then r := set_bit !r 0 true;
    if uge !r b then begin
      r := sub !r b;
      q := set_bit !q i true
    end
  done;
  (!q, !r)

let udiv a b = fst (divmod a b)
let umod a b = snd (divmod a b)

let to_string v = Printf.sprintf "%d'h%s" v.width (to_hex_string v)
let pp fmt v = Format.pp_print_string fmt (to_string v)
let hash v = Hashtbl.hash (v.width, v.limbs)

module Logic = struct
  type t = L0 | L1 | X | Z

  let equal (a : t) (b : t) = a = b
  let compare (a : t) (b : t) = compare a b
  let of_bool b = if b then L1 else L0

  let to_bool = function L0 -> Some false | L1 -> Some true | X | Z -> None

  let to_char = function L0 -> '0' | L1 -> '1' | X -> 'x' | Z -> 'z'

  let of_char = function
    | '0' -> L0
    | '1' -> L1
    | 'x' | 'X' -> X
    | 'z' | 'Z' -> Z
    | c -> invalid_arg (Printf.sprintf "Logic.of_char: %c" c)

  let pp fmt v = Format.pp_print_char fmt (to_char v)

  let and_ a b =
    match (a, b) with
    | L0, _ | _, L0 -> L0
    | L1, L1 -> L1
    | (X | Z | L1), (X | Z | L1) -> X

  let or_ a b =
    match (a, b) with
    | L1, _ | _, L1 -> L1
    | L0, L0 -> L0
    | (X | Z | L0), (X | Z | L0) -> X

  let xor a b =
    match (a, b) with
    | L0, L0 | L1, L1 -> L0
    | L0, L1 | L1, L0 -> L1
    | (X | Z), _ | _, (X | Z) -> X

  let not_ = function L0 -> L1 | L1 -> L0 | X | Z -> X

  let mux ~sel a b =
    match sel with
    | L1 -> a
    | L0 -> b
    | X | Z -> if equal a b && (a = L0 || a = L1) then a else X

  let resolve a b =
    match (a, b) with
    | Z, v | v, Z -> v
    | L0, L0 -> L0
    | L1, L1 -> L1
    | _, _ -> X

  let resolve_wired_and a b =
    (* Open drain with pull-up: drivers only ever pull low or release. *)
    let strength = function L0 -> L0 | L1 | Z -> L1 | X -> X in
    match (strength a, strength b) with
    | L0, _ | _, L0 -> L0
    | X, _ | _, X -> X
    | _, _ -> L1
end
