type net = int

type cell = { kind : Cell.kind; ins : net array; out : net }

exception Combinational_loop of { module_name : string; net : int }

let () =
  Printexc.register_printer (function
    | Combinational_loop { module_name; net } ->
        Some
          (Printf.sprintf "Netlist.Combinational_loop(net %d in %s)" net
             module_name)
    | _ -> None)

type frozen = {
  comb : cell array;
  dffs : cell array;
  driver : int array;
  level : int array;
  n_levels : int;
  fanout_start : int array;
  fanout : int array;
  in_nets : (string, net array) Hashtbl.t;
  out_nets : (string, net array) Hashtbl.t;
}

(* Structural-hashing key: kind and up to three input nets (-1 where the
   kind has fewer). *)
module Key = Hashtbl.Make (struct
  type t = Cell.kind * int * int * int

  let equal ((k, a, b, c) : t) (k', a', b', c') =
    k = k' && a = a' && b = b' && c = c'

  let hash = Hashtbl.hash
end)

(* Net-indexed tables ([drivers], [regions], [hints]) grow with the net
   counter; [no_driver] marks nets without a driving cell. *)
let no_driver = { kind = Cell.Const0; ins = [||]; out = -1 }

type t = {
  nl_name : string;
  fold : bool;
  mutable next_net : int;
  mutable cells : cell array;  (* creation order, [n_cells] used *)
  mutable n_cells : int;
  cse : net Key.t;
  mutable drivers : cell array;
  mutable in_ports : (string * net array) list;  (* reverse order *)
  mutable out_ports : (string * net array) list;  (* reverse order *)
  mutable n_pending : int;  (* deferred flip-flops not yet connected *)
  mutable c0 : net;  (* -1 until built *)
  mutable c1 : net;
  (* Hierarchy annotations: which instance path owns each driven net
     ("" = the top module, "u_x.u_y" = nested instances) and optional
     human-readable name hints ("count[3]").  Both are advisory — no
     structural code consults them — but they survive the rewriting
     passes so reports, coverage and fault sites can speak in design
     terms instead of raw net ids. *)
  mutable regions : string array;
  mutable hints : string option array;
  mutable frozen : frozen option;  (* dropped by every mutator *)
  mutable labels : string array option;
      (* [net_labels], dropped by every mutator and annotation *)
}

let create ?(fold = true) ~name () =
  {
    nl_name = name;
    fold;
    next_net = 0;
    cells = Array.make 256 no_driver;
    n_cells = 0;
    cse = Key.create 1024;
    drivers = Array.make 256 no_driver;
    in_ports = [];
    out_ports = [];
    n_pending = 0;
    c0 = -1;
    c1 = -1;
    regions = Array.make 256 "";
    hints = Array.make 256 None;
    frozen = None;
    labels = None;
  }

let name t = t.nl_name
let folding t = t.fold

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A structural change: drop both cached views. *)
let changed t =
  t.frozen <- None;
  t.labels <- None

let new_net t =
  let n = t.next_net in
  if n = Array.length t.drivers then begin
    t.drivers <- grow t.drivers no_driver;
    t.regions <- grow t.regions "";
    t.hints <- grow t.hints None
  end;
  t.next_net <- n + 1;
  changed t;
  n

let record_cell t kind ins out =
  let c = { kind; ins; out } in
  if t.n_cells = Array.length t.cells then t.cells <- grow t.cells no_driver;
  t.cells.(t.n_cells) <- c;
  t.n_cells <- t.n_cells + 1;
  t.drivers.(out) <- c;
  out

(* Create a cell, going through structural hashing when folding is on.
   Commutative gates normalize their operand order first. *)
let mk_cell t kind ins =
  if t.fold then begin
    let ins =
      match kind with
      | Cell.And2 | Or2 | Xor2 | Nand2 | Nor2 when ins.(0) > ins.(1) ->
          [| ins.(1); ins.(0) |]
      | _ -> ins
    in
    let arg k = if k < Array.length ins then ins.(k) else -1 in
    let key = (kind, arg 0, arg 1, arg 2) in
    match Key.find_opt t.cse key with
    | Some n -> n
    | None ->
        let out = record_cell t kind ins (new_net t) in
        Key.replace t.cse key out;
        out
  end
  else record_cell t kind ins (new_net t)

let const0 t =
  if t.c0 < 0 then t.c0 <- mk_cell t Cell.Const0 [||];
  t.c0

let const1 t =
  if t.c1 < 0 then t.c1 <- mk_cell t Cell.Const1 [||];
  t.c1

let const_of t n =
  if not t.fold then None
  else if n = t.c0 then Some false
  else if n = t.c1 then Some true
  else None

let const_net t b = if b then const1 t else const0 t

let not_ t a =
  match const_of t a with
  | Some b -> const_net t (not b)
  | None -> (
      (* Cancel double inverters. *)
      match t.drivers.(a) with
      | { kind = Cell.Not; ins; _ } when t.fold -> ins.(0)
      | _ -> mk_cell t Cell.Not [| a |])

let and2 t a b =
  match (const_of t a, const_of t b) with
  | Some false, _ | _, Some false -> const0 t
  | Some true, _ -> b
  | _, Some true -> a
  | None, None -> if t.fold && a = b then a else mk_cell t Cell.And2 [| a; b |]

let or2 t a b =
  match (const_of t a, const_of t b) with
  | Some true, _ | _, Some true -> const1 t
  | Some false, _ -> b
  | _, Some false -> a
  | None, None -> if t.fold && a = b then a else mk_cell t Cell.Or2 [| a; b |]

let xor2 t a b =
  match (const_of t a, const_of t b) with
  | Some x, Some y -> const_net t (x <> y)
  | Some false, _ -> b
  | _, Some false -> a
  | Some true, _ -> not_ t b
  | _, Some true -> not_ t a
  | None, None ->
      if t.fold && a = b then const0 t else mk_cell t Cell.Xor2 [| a; b |]

let nand2 t a b =
  match (const_of t a, const_of t b) with
  | Some false, _ | _, Some false -> const1 t
  | Some true, _ -> not_ t b
  | _, Some true -> not_ t a
  | None, None ->
      if t.fold && a = b then not_ t a else mk_cell t Cell.Nand2 [| a; b |]

let nor2 t a b =
  match (const_of t a, const_of t b) with
  | Some true, _ | _, Some true -> const0 t
  | Some false, _ -> not_ t b
  | _, Some false -> not_ t a
  | None, None ->
      if t.fold && a = b then not_ t a else mk_cell t Cell.Nor2 [| a; b |]

let mux2 t ~sel a b =
  match const_of t sel with
  | Some true -> a
  | Some false -> b
  | None -> (
      if t.fold && a = b then a
      else
        match (const_of t a, const_of t b) with
        | Some true, Some false -> sel
        | Some false, Some true -> not_ t sel
        | Some true, None -> or2 t sel b
        | Some false, None -> and2 t (not_ t sel) b
        | None, Some false -> and2 t sel a
        | None, Some true -> or2 t (not_ t sel) a
        | Some _, Some _ -> assert false (* covered above *)
        | None, None -> mk_cell t Cell.Mux2 [| sel; a; b |])

let dff t ~d = record_cell t Cell.Dff [| d |] (new_net t)

(* A pending flip-flop reads net -1 until [connect_dff]. *)
let dff_deferred t =
  t.n_pending <- t.n_pending + 1;
  record_cell t Cell.Dff [| -1 |] (new_net t)

let connect_dff t ~q ~d =
  match if q >= 0 && q < t.next_net then t.drivers.(q) else no_driver with
  | { kind = Cell.Dff; ins; _ } when ins.(0) = -1 ->
      ins.(0) <- d;
      t.n_pending <- t.n_pending - 1;
      changed t
  | _ -> invalid_arg "Netlist.connect_dff: not a pending flip-flop"

let add_input t name width =
  let nets = Array.init width (fun _ -> new_net t) in
  t.in_ports <- (name, nets) :: t.in_ports;
  changed t;
  nets

let add_output t name nets =
  t.out_ports <- (name, nets) :: t.out_ports;
  changed t

let inputs t = List.rev t.in_ports
let outputs t = List.rev t.out_ports

let substitute t f =
  for i = 0 to t.n_cells - 1 do
    let ins = t.cells.(i).ins in
    Array.iteri (fun k n -> if n >= 0 then ins.(k) <- f n) ins
  done;
  List.iter
    (fun (_, nets) -> Array.iteri (fun k n -> nets.(k) <- f n) nets)
    t.out_ports;
  changed t

let constant t bv =
  Array.init (Bitvec.width bv) (fun i -> const_net t (Bitvec.get bv i))

let cells t = Array.to_list (Array.sub t.cells 0 t.n_cells)
let cell_count t = t.n_cells
let net_count t = t.next_net

let driver t n =
  if n < 0 || n >= t.next_net then None
  else
    let c = t.drivers.(n) in
    if c == no_driver then None else Some c

(* The frozen view.  The combinational cells are ordered by a
   depth-first search from each cell in creation order, inputs first;
   [state.(n)] is 0 unvisited, 1 on the stack, 2 placed. *)
let build_frozen t =
  let n_nets = t.next_net in
  let all = cells t in
  let comb = Array.of_list (List.filter (fun c -> c.kind <> Cell.Dff) all) in
  let dffs = Array.of_list (List.filter (fun c -> c.kind = Cell.Dff) all) in
  let driver = Array.make n_nets (-1) and state = Array.make n_nets 0 in
  Array.iteri (fun i c -> driver.(c.out) <- i) comb;
  let order = Array.copy comb and placed = ref 0 in
  let rec visit c =
    match state.(c.out) with
    | 2 -> ()
    | 1 -> raise (Combinational_loop { module_name = t.nl_name; net = c.out })
    | _ ->
        state.(c.out) <- 1;
        Array.iter
          (fun n -> if driver.(n) >= 0 then visit comb.(driver.(n)))
          c.ins;
        state.(c.out) <- 2;
        order.(!placed) <- c;
        incr placed
  in
  Array.iter visit comb;
  (* Levels: primary inputs and flip-flop outputs sit at depth 0, each
     cell one past its deepest input.  Fanout in CSR form, readers in
     order. *)
  let net_level = Array.make n_nets 0 in
  let level = Array.make (Array.length order) 0 in
  let n_levels = ref 1 in
  let fanout_start = Array.make (n_nets + 1) 0 in
  Array.iteri
    (fun ci c ->
      driver.(c.out) <- ci;
      let l =
        Array.fold_left (fun acc n -> max acc (net_level.(n) + 1)) 0 c.ins
      in
      level.(ci) <- l;
      net_level.(c.out) <- l;
      if l + 1 > !n_levels then n_levels := l + 1;
      Array.iter
        (fun n -> fanout_start.(n + 1) <- fanout_start.(n + 1) + 1)
        c.ins)
    order;
  for n = 1 to n_nets do
    fanout_start.(n) <- fanout_start.(n) + fanout_start.(n - 1)
  done;
  let fanout = Array.make fanout_start.(n_nets) 0 in
  let cursor = Array.sub fanout_start 0 n_nets in
  Array.iteri
    (fun ci c ->
      Array.iter
        (fun n ->
          fanout.(cursor.(n)) <- ci;
          cursor.(n) <- cursor.(n) + 1)
        c.ins)
    order;
  let table ports =
    let tbl = Hashtbl.create 8 in
    List.iter (fun (name, nets) -> Hashtbl.replace tbl name nets) ports;
    tbl
  in
  {
    comb = order;
    dffs;
    driver;
    level;
    n_levels = !n_levels;
    fanout_start;
    fanout;
    in_nets = table (inputs t);
    out_nets = table (outputs t);
  }

let freeze t =
  match t.frozen with
  | Some f -> f
  | None ->
      let f = build_frozen t in
      t.frozen <- Some f;
      f

(* Hierarchy annotations. *)

let region_of t n = if n >= 0 && n < t.next_net then t.regions.(n) else ""
let set_region t n path =
  t.regions.(n) <- path;
  t.labels <- None

let hint_of t n = if n >= 0 && n < t.next_net then t.hints.(n) else None

(* First hint wins: structural hashing can merge nets across instances,
   and the first name a net got is the one reports should keep using. *)
let set_hint t n name =
  if t.hints.(n) = None then begin
    t.hints.(n) <- Some name;
    t.labels <- None
  end

let copy_meta ~src ~dst src_net dst_net =
  if dst.regions.(dst_net) = "" then
    set_region dst dst_net (region_of src src_net);
  match hint_of src src_net with Some h -> set_hint dst dst_net h | None -> ()

let describe_net t n =
  let base =
    match hint_of t n with Some h -> h | None -> Printf.sprintf "n%d" n
  in
  match region_of t n with "" -> base | r -> r ^ "." ^ base

let count_nets t p =
  let k = ref 0 in
  for n = 0 to t.next_net - 1 do
    if p n then incr k
  done;
  !k

let region_table_size t = count_nets t (fun n -> t.regions.(n) <> "")
let hint_table_size t = count_nets t (fun n -> t.hints.(n) <> None)

let region_names t =
  List.sort_uniq compare
    (List.filter (( <> ) "") (Array.to_list (Array.sub t.regions 0 t.next_net)))

(* Port bits by name ("bus[i]", or the bare name for width-1 buses),
   internal nets by their hierarchical description. *)
let build_labels t =
  let labels = Array.make t.next_net "" in
  let fill ports =
    List.iter
      (fun (name, nets) ->
        if Array.length nets = 1 then labels.(nets.(0)) <- name
        else
          Array.iteri
            (fun i n -> labels.(n) <- Printf.sprintf "%s[%d]" name i)
            nets)
      ports
  in
  fill (inputs t);
  fill (outputs t);
  Array.mapi (fun n l -> if l = "" then describe_net t n else l) labels

let net_labels t =
  match t.labels with
  | Some l -> l
  | None ->
      let l = build_labels t in
      t.labels <- Some l;
      l

let check t =
  if t.n_pending > 0 then
    failwith
      (Printf.sprintf "Netlist.check %s: %d unconnected flip-flops" t.nl_name
         t.n_pending);
  let is_input = Array.make t.next_net false in
  List.iter
    (fun (_, nets) -> Array.iter (fun n -> is_input.(n) <- true) nets)
    t.in_ports;
  let undriven n =
    n < 0 || n >= t.next_net || (t.drivers.(n) == no_driver && not is_input.(n))
  in
  for i = 0 to t.n_cells - 1 do
    Array.iter
      (fun n ->
        if n < 0 || n >= t.next_net then
          failwith
            (Printf.sprintf "Netlist.check %s: dangling net %d" t.nl_name n);
        if undriven n then
          failwith
            (Printf.sprintf "Netlist.check %s: net %d has no driver" t.nl_name
               n))
      t.cells.(i).ins
  done;
  List.iter
    (fun (out_name, nets) ->
      Array.iter
        (fun n ->
          if undriven n then
            failwith
              (Printf.sprintf "Netlist.check %s: output %s undriven" t.nl_name
                 out_name))
        nets)
    t.out_ports

let stats t =
  let all = cells t in
  List.filter_map
    (fun k ->
      match List.length (List.filter (fun c -> c.kind = k) all) with
      | 0 -> None
      | n -> Some (k, n))
    Cell.all

let emit_verilog t =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let w n = Printf.sprintf "n%d" n in
  let ports =
    [ "clk" ]
    @ List.map fst (inputs t)
    @ List.map fst (outputs t)
  in
  p "module %s(%s);\n" t.nl_name (String.concat ", " ports);
  p "  input clk;\n";
  List.iter
    (fun (n, nets) ->
      p "  input [%d:0] %s;\n" (Array.length nets - 1) n)
    (inputs t);
  List.iter
    (fun (n, nets) ->
      p "  output [%d:0] %s;\n" (Array.length nets - 1) n)
    (outputs t);
  List.iter
    (fun (n, nets) ->
      Array.iteri (fun i net -> p "  wire %s = %s[%d];\n" (w net) n i) nets)
    (inputs t);
  List.iter
    (fun c ->
      match c.kind with
      | Cell.Const0 -> p "  wire %s = 1'b0;\n" (w c.out)
      | Const1 -> p "  wire %s = 1'b1;\n" (w c.out)
      | Buf -> p "  wire %s = %s;\n" (w c.out) (w c.ins.(0))
      | Not -> p "  wire %s = ~%s;\n" (w c.out) (w c.ins.(0))
      | And2 -> p "  wire %s = %s & %s;\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Or2 -> p "  wire %s = %s | %s;\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Xor2 -> p "  wire %s = %s ^ %s;\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Nand2 ->
          p "  wire %s = ~(%s & %s);\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Nor2 ->
          p "  wire %s = ~(%s | %s);\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
      | Mux2 ->
          p "  wire %s = %s ? %s : %s;\n" (w c.out) (w c.ins.(0)) (w c.ins.(1))
            (w c.ins.(2))
      | Dff ->
          p "  reg %s;\n" (w c.out);
          p "  always @(posedge clk) %s <= %s;\n" (w c.out) (w c.ins.(0)))
    (cells t);
  List.iter
    (fun (n, nets) ->
      p "  assign %s = {%s};\n" n
        (String.concat ", "
           (List.rev_map w (Array.to_list nets))))
    (outputs t);
  p "endmodule\n";
  Buffer.contents buf
