(* Nets transitively read by a primary output, through flip-flops. *)
let mark_live nl =
  let live = Array.make (Netlist.net_count nl) false in
  let stack = Stack.create () in
  List.iter
    (fun (_, nets) -> Array.iter (fun n -> Stack.push n stack) nets)
    (Netlist.outputs nl);
  while not (Stack.is_empty stack) do
    let net = Stack.pop stack in
    if not live.(net) then begin
      live.(net) <- true;
      match Netlist.driver nl net with
      | None -> ()
      | Some c -> Array.iter (fun i -> Stack.push i stack) c.Netlist.ins
    end
  done;
  live

let optimize nl =
  let frozen = Netlist.freeze nl in
  let live = mark_live nl in
  let fresh = Netlist.create ~fold:true ~name:(Netlist.name nl) () in
  let net_map = Array.make (Netlist.net_count nl) (-1) in
  (* Regions and name hints ride along: whenever an old net gets a
     fresh counterpart, its annotations are copied (first writer wins —
     folding can merge several old nets onto one fresh net, and the
     first name/owner is the one reports keep). *)
  let bind old_net fresh_net =
    Netlist.copy_meta ~src:nl ~dst:fresh old_net fresh_net;
    net_map.(old_net) <- fresh_net
  in
  (* The walk below rebuilds every driver before its readers, so only a
     net nothing drives can be unmapped; it reads as constant zero so
     widths stay intact. *)
  let remap n =
    if net_map.(n) >= 0 then net_map.(n)
    else if Netlist.driver nl n <> None then
      failwith
        (Printf.sprintf "Opt.optimize %s: net %d read before its driver"
           (Netlist.name nl) n)
    else Netlist.const0 fresh
  in
  List.iter
    (fun (name, nets) ->
      let fresh_nets = Netlist.add_input fresh name (Array.length nets) in
      Array.iteri (fun i n -> bind n fresh_nets.(i)) nets)
    (Netlist.inputs nl);
  (* Live flip-flops first: their q nets are read by logic built before
     their d inputs exist. *)
  let live_dffs =
    List.filter
      (fun (c : Netlist.cell) -> live.(c.out))
      (Array.to_list frozen.dffs)
  in
  List.iter
    (fun (c : Netlist.cell) -> bind c.out (Netlist.dff_deferred fresh))
    live_dffs;
  (* Combinational survivors in the frozen topological order. *)
  Array.iter
    (fun (c : Netlist.cell) ->
      if live.(c.out) then begin
        let i k = remap c.ins.(k) in
        let fresh_out =
          match c.kind with
          | Cell.Const0 -> Netlist.const0 fresh
          | Const1 -> Netlist.const1 fresh
          | Buf -> i 0
          | Not -> Netlist.not_ fresh (i 0)
          | And2 -> Netlist.and2 fresh (i 0) (i 1)
          | Or2 -> Netlist.or2 fresh (i 0) (i 1)
          | Xor2 -> Netlist.xor2 fresh (i 0) (i 1)
          | Nand2 -> Netlist.nand2 fresh (i 0) (i 1)
          | Nor2 -> Netlist.nor2 fresh (i 0) (i 1)
          | Mux2 -> Netlist.mux2 fresh ~sel:(i 0) (i 1) (i 2)
          | Dff -> assert false
        in
        bind c.out fresh_out
      end)
    frozen.comb;
  List.iter
    (fun (c : Netlist.cell) ->
      Netlist.connect_dff fresh ~q:net_map.(c.out) ~d:(remap c.ins.(0)))
    live_dffs;
  List.iter
    (fun (name, nets) -> Netlist.add_output fresh name (Array.map remap nets))
    (Netlist.outputs nl);
  Netlist.check fresh;
  fresh
