type verdict =
  | Proved
  | Failed of counterexample
  | Interface_mismatch of string
  | Too_large

and counterexample = {
  at : string;
  inputs : (string * Bitvec.t) list;
  state_bits : (int * bool) list;
}

(* Variable plan shared by both designs: primary-input bits (sorted by
   port name) first, then register bits in creation order. *)
type plan = {
  input_vars : (string * int array) list;  (* name -> var index per bit *)
  n_input_vars : int;
  n_state_bits : int;
}

let interface (nl : Netlist.t) =
  ( List.sort compare
      (List.map (fun (n, nets) -> (n, Array.length nets)) (Netlist.inputs nl)),
    List.sort compare
      (List.map (fun (n, nets) -> (n, Array.length nets)) (Netlist.outputs nl)),
    Array.length (Netlist.freeze nl).dffs )

let make_plan nl =
  let ins, _, n_regs = interface nl in
  let counter = ref 0 in
  let input_vars =
    List.map
      (fun (name, width) ->
        let vars =
          Array.init width (fun _ ->
              let v = !counter in
              incr counter;
              v)
        in
        (name, vars))
      ins
  in
  { input_vars; n_input_vars = !counter; n_state_bits = n_regs }

(* Build BDDs for every net of the netlist under the shared plan, in
   one pass over the frozen topological order.  Returns per-output
   functions and per-register next-state functions (in register
   creation order). *)
let build mgr plan (nl : Netlist.t) =
  let frozen = Netlist.freeze nl in
  let values = Array.make (Netlist.net_count nl) None in
  List.iter
    (fun (name, nets) ->
      let vars = List.assoc name plan.input_vars in
      Array.iteri (fun i n -> values.(n) <- Some (Bdd.var mgr vars.(i))) nets)
    (Netlist.inputs nl);
  (* register outputs are pseudo inputs, numbered after the real ones *)
  Array.iteri
    (fun i (c : Netlist.cell) ->
      values.(c.out) <- Some (Bdd.var mgr (plan.n_input_vars + i)))
    frozen.dffs;
  let value net =
    match values.(net) with
    | Some node -> node
    | None -> failwith "Cec: undriven net"
  in
  Array.iter
    (fun (c : Netlist.cell) ->
      let i k = value c.ins.(k) in
      let node =
        match c.kind with
        | Cell.Const0 -> Bdd.zero
        | Const1 -> Bdd.one
        | Buf -> i 0
        | Not -> Bdd.not_ mgr (i 0)
        | And2 -> Bdd.and_ mgr (i 0) (i 1)
        | Or2 -> Bdd.or_ mgr (i 0) (i 1)
        | Xor2 -> Bdd.xor mgr (i 0) (i 1)
        | Nand2 -> Bdd.not_ mgr (Bdd.and_ mgr (i 0) (i 1))
        | Nor2 -> Bdd.not_ mgr (Bdd.or_ mgr (i 0) (i 1))
        | Mux2 -> Bdd.ite mgr (i 0) (i 1) (i 2)
        | Dff -> assert false
      in
      values.(c.out) <- Some node)
    frozen.comb;
  let outputs =
    List.map
      (fun (name, nets) -> (name, Array.map value nets))
      (Netlist.outputs nl)
  in
  let next_state =
    Array.to_list
      (Array.map (fun (c : Netlist.cell) -> value c.ins.(0)) frozen.dffs)
  in
  (outputs, next_state)

let decode plan diff_assignment =
  let lookup var =
    match List.assoc_opt var diff_assignment with
    | Some b -> b
    | None -> false
  in
  let inputs =
    List.map
      (fun (name, vars) ->
        ( name,
          Bitvec.init (Array.length vars) (fun i -> lookup vars.(i)) ))
      plan.input_vars
  in
  let state_bits =
    List.filter_map
      (fun (v, b) ->
        if v >= plan.n_input_vars then Some (v - plan.n_input_vars, b)
        else None)
      diff_assignment
  in
  (inputs, state_bits)

let check ?(max_nodes = 2_000_000) a b =
  let ins_a, outs_a, regs_a = interface a in
  let ins_b, outs_b, regs_b = interface b in
  if ins_a <> ins_b then Interface_mismatch "primary inputs differ"
  else if outs_a <> outs_b then Interface_mismatch "primary outputs differ"
  else if regs_a <> regs_b then
    Interface_mismatch
      (Printf.sprintf "register bit counts differ (%d vs %d)" regs_a regs_b)
  else begin
    let plan = make_plan a in
    let mgr = Bdd.create ~max_nodes () in
    match
      let outs_fa, next_a = build mgr plan a in
      let outs_fb, next_b = build mgr plan b in
      let check_pair at fa fb =
        if fa = fb then None
        else
          let diff = Bdd.xor mgr fa fb in
          match Bdd.satisfying mgr diff with
          | None -> None
          | Some assignment ->
              let inputs, state_bits = decode plan assignment in
              Some { at; inputs; state_bits }
      in
      let rec scan_outputs = function
        | [] -> None
        | (name, fa) :: rest -> (
            let fb = List.assoc name outs_fb in
            let rec bits i =
              if i >= Array.length fa then None
              else
                match
                  check_pair (Printf.sprintf "%s[%d]" name i) fa.(i) fb.(i)
                with
                | Some cex -> Some cex
                | None -> bits (i + 1)
            in
            match bits 0 with Some cex -> Some cex | None -> scan_outputs rest)
      in
      let scan_state () =
        let rec go i = function
          | [], [] -> None
          | fa :: ra, fb :: rb -> (
              match check_pair (Printf.sprintf "next-state[%d]" i) fa fb with
              | Some cex -> Some cex
              | None -> go (i + 1) (ra, rb))
          | _ -> Some { at = "register count"; inputs = []; state_bits = [] }
        in
        go 0 (next_a, next_b)
      in
      match scan_outputs outs_fa with
      | Some cex -> Some cex
      | None -> scan_state ()
    with
    | None -> Proved
    | Some cex -> Failed cex
    | exception Bdd.Size_limit -> Too_large
  end

let check_ir ?max_nodes a b =
  check ?max_nodes (Lower.lower a) (Lower.lower b)

let pp_verdict fmt = function
  | Proved -> Format.pp_print_string fmt "proved equivalent"
  | Too_large -> Format.pp_print_string fmt "aborted: BDD size limit"
  | Interface_mismatch why ->
      Format.fprintf fmt "interface mismatch: %s" why
  | Failed cex ->
      Format.fprintf fmt "NOT equivalent at %s; inputs:" cex.at;
      List.iter
        (fun (name, bv) -> Format.fprintf fmt " %s=%a" name Bitvec.pp bv)
        cex.inputs;
      if cex.state_bits <> [] then begin
        Format.fprintf fmt "; state bits:";
        List.iter
          (fun (i, b) -> Format.fprintf fmt " r%d=%b" i b)
          cex.state_bits
      end
