module L = Bitvec.Logic

type t = {
  nl : Netlist.t;
  values : L.t array;
  order : Netlist.cell array;
  dffs : Netlist.cell array;
  in_nets : (string, Netlist.net array) Hashtbl.t;
  out_nets : (string, Netlist.net array) Hashtbl.t;
}

let create nl =
  Netlist.check nl;
  let f = Netlist.freeze nl in
  {
    nl;
    values = Array.make (Netlist.net_count nl) L.X;
    order = f.comb;
    dffs = f.dffs;
    in_nets = f.in_nets;
    out_nets = f.out_nets;
  }

let set_input t name bv =
  match Hashtbl.find_opt t.in_nets name with
  | None -> raise Not_found
  | Some nets ->
      if Bitvec.width bv <> Array.length nets then
        invalid_arg "Xprop.set_input: width mismatch";
      Array.iteri
        (fun i n -> t.values.(n) <- L.of_bool (Bitvec.get bv i))
        nets

let set_input_x t name =
  match Hashtbl.find_opt t.in_nets name with
  | None -> raise Not_found
  | Some nets -> Array.iter (fun n -> t.values.(n) <- L.X) nets

let eval_cell t (c : Netlist.cell) =
  let v = t.values in
  let r =
    match c.kind with
    | Cell.Const0 -> L.L0
    | Const1 -> L.L1
    | Buf -> v.(c.ins.(0))
    | Not -> L.not_ v.(c.ins.(0))
    | And2 -> L.and_ v.(c.ins.(0)) v.(c.ins.(1))
    | Or2 -> L.or_ v.(c.ins.(0)) v.(c.ins.(1))
    | Xor2 -> L.xor v.(c.ins.(0)) v.(c.ins.(1))
    | Nand2 -> L.not_ (L.and_ v.(c.ins.(0)) v.(c.ins.(1)))
    | Nor2 -> L.not_ (L.or_ v.(c.ins.(0)) v.(c.ins.(1)))
    | Mux2 -> L.mux ~sel:v.(c.ins.(0)) v.(c.ins.(1)) v.(c.ins.(2))
    | Dff -> v.(c.out)
  in
  t.values.(c.out) <- r

let settle t = Array.iter (eval_cell t) t.order

let step t =
  settle t;
  let sampled = Array.map (fun c -> t.values.(c.Netlist.ins.(0))) t.dffs in
  Array.iteri (fun i c -> t.values.(c.Netlist.out) <- sampled.(i)) t.dffs;
  settle t

let run t n =
  for _ = 1 to n do
    step t
  done

let output_string t name =
  match Hashtbl.find_opt t.out_nets name with
  | None -> raise Not_found
  | Some nets ->
      String.init (Array.length nets) (fun i ->
          L.to_char t.values.(nets.(Array.length nets - 1 - i)))

let output_known t name =
  match Hashtbl.find_opt t.out_nets name with
  | None -> raise Not_found
  | Some nets ->
      Array.for_all (fun n -> L.to_bool t.values.(n) <> None) nets

let unknown_outputs t =
  List.filter_map
    (fun (name, nets) ->
      let unknown =
        Array.fold_left
          (fun acc n -> if L.to_bool t.values.(n) = None then acc + 1 else acc)
          0 nets
      in
      if unknown > 0 then Some (name, unknown) else None)
    (Netlist.outputs t.nl)

let unknown_ffs t =
  Array.fold_left
    (fun acc (c : Netlist.cell) ->
      if L.to_bool t.values.(c.out) = None then acc + 1 else acc)
    0 t.dffs
