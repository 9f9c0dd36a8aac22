(* Reference netlist analyses, the oracle of the frozen-view tests: the
   topological sort, the simulator's scheduling tables, the X-propagation
   tables, static timing, BDD equivalence, LUT mapping and the optimizer
   as first written, each building its own index of the netlist from
   Netlist.cells and Netlist.driver (hash tables, memoised depth-first
   searches, creation-order walks).  The library passes must reproduce
   their results exactly on every netlist they accept; this file shares
   no analysis code with them.  [Opt_ref] keeps the optimizer's
   creation-order walk, whose unsoundness on hierarchical netlists the
   tests use to exercise the flow's lockstep invariant. *)

open Backend

(* ------------------------------------------------------------------ *)
(* Nl_sim.topo_order                                                   *)

(* Depth-first, over net-indexed arrays: [driver.(n)] is the index into
   [comb] of the combinational cell driving net [n] (-1 for inputs and
   flip-flop outputs), [state.(n)] is 0 unvisited, 1 on the stack, 2
   placed. *)
let topo_order nl =
  let comb =
    Array.of_list
      (List.filter (fun c -> c.Netlist.kind <> Cell.Dff) (Netlist.cells nl))
  in
  let n_nets = Netlist.net_count nl in
  let driver = Array.make n_nets (-1) and state = Array.make n_nets 0 in
  Array.iteri (fun i (c : Netlist.cell) -> driver.(c.out) <- i) comb;
  let order = Array.copy comb and placed = ref 0 in
  let rec visit (c : Netlist.cell) =
    match state.(c.out) with
    | 2 -> ()
    | 1 ->
        raise
          (Nl_sim.Combinational_loop
             { module_name = Netlist.name nl; net = c.out })
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
  order

(* ------------------------------------------------------------------ *)
(* Nl_sim.Sched.build: order, levels and fanout                        *)

type sched = {
  order : Netlist.cell array;
  dffs : Netlist.cell array;
  level : int array;
  fanout : int array array;
  n_levels : int;
}

let sched nl =
  Netlist.check nl;
  let dffs =
    List.filter (fun c -> c.Netlist.kind = Cell.Dff) (Netlist.cells nl)
    |> Array.of_list
  in
  let order = topo_order nl in
  let n_comb = Array.length order in
  let n_nets = Netlist.net_count nl in
  let net_level = Array.make n_nets 0 in
  let level = Array.make n_comb 0 in
  let n_levels = ref 1 in
  Array.iteri
    (fun ci (c : Netlist.cell) ->
      let l =
        Array.fold_left (fun acc n -> max acc (net_level.(n) + 1)) 0 c.ins
      in
      level.(ci) <- l;
      net_level.(c.out) <- l;
      if l + 1 > !n_levels then n_levels := l + 1)
    order;
  let fan_count = Array.make n_nets 0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      Array.iter (fun n -> fan_count.(n) <- fan_count.(n) + 1) c.ins)
    order;
  let fanout = Array.init n_nets (fun n -> Array.make fan_count.(n) 0) in
  let cursor = Array.make n_nets 0 in
  Array.iteri
    (fun ci (c : Netlist.cell) ->
      Array.iter
        (fun n ->
          fanout.(n).(cursor.(n)) <- ci;
          cursor.(n) <- cursor.(n) + 1)
        c.ins)
    order;
  { order; dffs; level; fanout; n_levels = !n_levels }

(* The simulator's compiled program over [order]: opcode, output net,
   up to three input nets per cell. *)
let program order =
  let opcode : Cell.kind -> int = function
    | Const0 -> 0
    | Const1 -> 1
    | Buf -> 2
    | Not -> 3
    | And2 -> 4
    | Or2 -> 5
    | Xor2 -> 6
    | Nand2 -> 7
    | Nor2 -> 8
    | Mux2 -> 9
    | Dff -> invalid_arg "program: flip-flop"
  in
  let prog = Array.make (Array.length order * 5) 0 in
  Array.iteri
    (fun ci (c : Netlist.cell) ->
      let pc = ci * 5 in
      prog.(pc) <- opcode c.kind;
      prog.(pc + 1) <- c.out;
      Array.iteri (fun k n -> prog.(pc + 2 + k) <- n) c.ins)
    order;
  prog

(* ------------------------------------------------------------------ *)
(* Xprop.create's tables                                               *)

let xprop_tables nl =
  Netlist.check nl;
  ( topo_order nl,
    List.filter (fun c -> c.Netlist.kind = Cell.Dff) (Netlist.cells nl)
    |> Array.of_list )

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

module Timing_ref = struct
  let propagate nl =
    let n = Netlist.net_count nl in
    let arrival = Array.make n 0.0 in
    let depth = Array.make n 0 in
    List.iter
      (fun (c : Netlist.cell) ->
        if c.kind = Cell.Dff then begin
          arrival.(c.out) <- Cell.delay Cell.Dff;
          depth.(c.out) <- 0
        end)
      (Netlist.cells nl);
    let state = Hashtbl.create 256 in
    let rec arrive net =
      match Hashtbl.find_opt state net with
      | Some () -> arrival.(net)
      | None -> (
          Hashtbl.replace state net ();
          match Netlist.driver nl net with
          | None -> arrival.(net)
          | Some c when c.kind = Cell.Dff -> arrival.(net)
          | Some c ->
              let worst = ref 0.0 and lvl = ref 0 in
              Array.iter
                (fun i ->
                  let a = arrive i in
                  if a > !worst then begin
                    worst := a;
                    lvl := depth.(i)
                  end
                  else if a = !worst && depth.(i) > !lvl then lvl := depth.(i))
                c.ins;
              arrival.(net) <- !worst +. Cell.delay c.kind;
              depth.(net) <-
                (!lvl
                + if c.kind = Cell.Const0 || c.kind = Cell.Const1 then 0 else 1);
              arrival.(net))
    in
    (arrive, arrival, depth)

  let analyze nl : Timing.report =
    let arrive, _, depth = propagate nl in
    let best = ref 0.0 and best_ep = ref "(none)" and best_lvl = ref 0 in
    let consider label net extra =
      let a = arrive net +. extra in
      if a > !best then begin
        best := a;
        best_ep := label;
        best_lvl := depth.(net)
      end
    in
    List.iter
      (fun (c : Netlist.cell) ->
        if c.kind = Cell.Dff then
          consider (Printf.sprintf "dff d-input (net %d)" c.ins.(0)) c.ins.(0)
            Cell.setup_time)
      (Netlist.cells nl);
    List.iter
      (fun (name, nets) ->
        Array.iter (fun net -> consider ("output " ^ name) net 0.0) nets)
      (Netlist.outputs nl);
    let critical_ns = !best in
    let fmax_mhz =
      if critical_ns <= 0.0 then Float.infinity else 1000.0 /. critical_ns
    in
    { critical_ns; fmax_mhz; endpoint = !best_ep; levels = !best_lvl }

  let by_module nl : Timing.module_row list =
    let arrive, _, depth = propagate nl in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (c : Netlist.cell) ->
        let a = arrive c.out in
        let r = Netlist.region_of nl c.out in
        match Hashtbl.find_opt tbl r with
        | Some (worst, _) when worst >= a -> ()
        | _ -> Hashtbl.replace tbl r (a, depth.(c.out)))
      (Netlist.cells nl);
    List.sort compare
      (Hashtbl.fold
         (fun path (m_worst_ns, m_levels) acc ->
           { Timing.path; m_worst_ns; m_levels } :: acc)
         tbl [])
end

(* ------------------------------------------------------------------ *)
(* Cec                                                                 *)

module Cec_ref = struct
  type plan = {
    input_vars : (string * int array) list;
    n_input_vars : int;
    n_state_bits : int;
  }

  let interface (nl : Netlist.t) =
    ( List.sort compare
        (List.map (fun (n, nets) -> (n, Array.length nets)) (Netlist.inputs nl)),
      List.sort compare
        (List.map (fun (n, nets) -> (n, Array.length nets)) (Netlist.outputs nl)),
      List.length
        (List.filter (fun (c : Netlist.cell) -> c.kind = Cell.Dff)
           (Netlist.cells nl)) )

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

  let build mgr plan (nl : Netlist.t) =
    let values : (int, Bdd.node) Hashtbl.t = Hashtbl.create 1024 in
    List.iter
      (fun (name, nets) ->
        let vars = List.assoc name plan.input_vars in
        Array.iteri
          (fun i n -> Hashtbl.replace values n (Bdd.var mgr vars.(i)))
          nets)
      (Netlist.inputs nl);
    let dffs =
      List.filter (fun (c : Netlist.cell) -> c.kind = Cell.Dff)
        (Netlist.cells nl)
    in
    List.iteri
      (fun i (c : Netlist.cell) ->
        Hashtbl.replace values c.out (Bdd.var mgr (plan.n_input_vars + i)))
      dffs;
    let rec eval net =
      match Hashtbl.find_opt values net with
      | Some node -> node
      | None ->
          let node =
            match Netlist.driver nl net with
            | None -> failwith "Cec: undriven net"
            | Some c -> (
                let i k = eval c.ins.(k) in
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
                | Dff -> assert false)
          in
          Hashtbl.replace values net node;
          node
    in
    let outputs =
      List.map
        (fun (name, nets) -> (name, Array.map eval nets))
        (Netlist.outputs nl)
    in
    let next_state = List.map (fun (c : Netlist.cell) -> eval c.ins.(0)) dffs in
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
          (name, Bitvec.init (Array.length vars) (fun i -> lookup vars.(i))))
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

  let check ?(max_nodes = 2_000_000) a b : Cec.verdict =
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
                Some { Cec.at; inputs; state_bits }
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
              match bits 0 with
              | Some cex -> Some cex
              | None -> scan_outputs rest)
        in
        let scan_state () =
          let rec go i = function
            | [], [] -> None
            | fa :: ra, fb :: rb -> (
                match check_pair (Printf.sprintf "next-state[%d]" i) fa fb with
                | Some cex -> Some cex
                | None -> go (i + 1) (ra, rb))
            | _ ->
                Some { Cec.at = "register count"; inputs = []; state_bits = [] }
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
end

(* ------------------------------------------------------------------ *)
(* Techmap.map, lut count and depth                                    *)

module Techmap_ref = struct
  let seed_lut (c : Netlist.cell) : Techmap.lut =
    let tt =
      match c.kind with
      | Cell.Const0 -> 0b0
      | Const1 -> 0b1
      | Buf -> 0b10
      | Not -> 0b01
      | And2 -> 0b1000
      | Or2 -> 0b1110
      | Xor2 -> 0b0110
      | Nand2 -> 0b0111
      | Nor2 -> 0b0001
      | Mux2 -> 0b11011000
      | Dff -> failwith "seed_lut: flip-flop"
    in
    { lut_inputs = Array.copy c.ins; truth = tt; lut_out = c.out }

  let lut_value (l : Techmap.lut) values_of =
    let index = ref 0 in
    Array.iteri
      (fun i net -> if values_of net then index := !index lor (1 lsl i))
      l.lut_inputs;
    l.truth lsr !index land 1 = 1

  let absorb (l : Techmap.lut) (victim : Techmap.lut) : Techmap.lut =
    let keep =
      Array.to_list l.lut_inputs |> List.filter (fun n -> n <> victim.lut_out)
    in
    let extra =
      Array.to_list victim.lut_inputs
      |> List.filter (fun n -> not (List.mem n keep))
    in
    let merged = Array.of_list (keep @ extra) in
    let n = Array.length merged in
    let position net =
      let rec p i = if merged.(i) = net then i else p (i + 1) in
      p 0
    in
    let truth = ref 0 in
    for idx = 0 to (1 lsl n) - 1 do
      let values_of net =
        if net = victim.lut_out then
          lut_value victim (fun m -> idx lsr position m land 1 = 1)
        else idx lsr position net land 1 = 1
      in
      if lut_value l values_of then truth := !truth lor (1 lsl idx)
    done;
    { lut_inputs = merged; truth = !truth; lut_out = l.lut_out }

  (* LUT table and flip-flop pairs after greedy absorption. *)
  let map ?(k = 4) nl =
    Netlist.check nl;
    let lut_tbl = Hashtbl.create 256 in
    let m_ffs = ref [] in
    List.iter
      (fun (c : Netlist.cell) ->
        match c.kind with
        | Cell.Dff -> m_ffs := (c.ins.(0), c.out) :: !m_ffs
        | _ -> Hashtbl.replace lut_tbl c.out (seed_lut c))
      (Netlist.cells nl);
    let primary_out = Hashtbl.create 64 in
    List.iter
      (fun (_, nets) ->
        Array.iter (fun n -> Hashtbl.replace primary_out n ()) nets)
      (Netlist.outputs nl);
    let recompute_fanout () =
      let fanout = Hashtbl.create 256 in
      let bump n =
        Hashtbl.replace fanout n
          (1 + Option.value ~default:0 (Hashtbl.find_opt fanout n))
      in
      Hashtbl.iter (fun _ (l : Techmap.lut) -> Array.iter bump l.lut_inputs) lut_tbl;
      List.iter (fun (d, _) -> bump d) !m_ffs;
      Hashtbl.iter (fun n () -> bump n) primary_out;
      fanout
    in
    let changed = ref true in
    while !changed do
      changed := false;
      let fanout = recompute_fanout () in
      let outputs = Hashtbl.fold (fun net _ acc -> net :: acc) lut_tbl [] in
      List.iter
        (fun net ->
          match Hashtbl.find_opt lut_tbl net with
          | None -> ()
          | Some _ ->
              let try_absorb (l : Techmap.lut) victim_net =
                match Hashtbl.find_opt lut_tbl victim_net with
                | Some (victim : Techmap.lut)
                  when Option.value ~default:0
                         (Hashtbl.find_opt fanout victim_net)
                       = 1
                       && (not (Hashtbl.mem primary_out victim_net))
                       && victim.lut_out <> l.lut_out ->
                    let keep =
                      Array.to_list l.lut_inputs
                      |> List.filter (fun n -> n <> victim_net)
                    in
                    let extra =
                      Array.to_list victim.lut_inputs
                      |> List.filter (fun n -> not (List.mem n keep))
                    in
                    if List.length keep + List.length extra <= k then begin
                      let merged = absorb l victim in
                      Hashtbl.replace lut_tbl l.lut_out merged;
                      Hashtbl.remove lut_tbl victim_net;
                      changed := true;
                      true
                    end
                    else false
                | Some _ | None -> false
              in
              let rec greedy () =
                match Hashtbl.find_opt lut_tbl net with
                | None -> ()
                | Some (l' : Techmap.lut) ->
                    let absorbed =
                      Array.exists (fun input -> try_absorb l' input)
                        l'.lut_inputs
                    in
                    if absorbed then greedy ()
              in
              greedy ())
        outputs
    done;
    (lut_tbl, !m_ffs)

  let depth nl (lut_tbl, m_ffs) =
    let memo = Hashtbl.create 256 in
    let rec of_net net =
      match Hashtbl.find_opt memo net with
      | Some d -> d
      | None ->
          Hashtbl.replace memo net 0;
          let d =
            match Hashtbl.find_opt lut_tbl net with
            | None -> 0
            | Some (l : Techmap.lut) ->
                1
                + Array.fold_left
                    (fun acc input -> max acc (of_net input))
                    0 l.lut_inputs
          in
          Hashtbl.replace memo net d;
          d
    in
    let worst = ref 0 in
    List.iter
      (fun (_, nets) ->
        Array.iter (fun n -> worst := max !worst (of_net n)) nets)
      (Netlist.outputs nl);
    List.iter (fun (d, _) -> worst := max !worst (of_net d)) m_ffs;
    !worst

  (* LUT count and depth, the figures the layout flow reports. *)
  let summary nl =
    let ((lut_tbl, _) as m) = map nl in
    (Hashtbl.length lut_tbl, depth nl m)
end

(* ------------------------------------------------------------------ *)
(* Opt.optimize with the creation-order walk                           *)

module Opt_ref = struct
  let mark_live nl =
    let live = Hashtbl.create 256 in
    let queue = Queue.create () in
    List.iter
      (fun (_, nets) -> Array.iter (fun n -> Queue.push n queue) nets)
      (Netlist.outputs nl);
    while not (Queue.is_empty queue) do
      let net = Queue.pop queue in
      if not (Hashtbl.mem live net) then begin
        Hashtbl.replace live net ();
        match Netlist.driver nl net with
        | None -> ()
        | Some c -> Array.iter (fun i -> Queue.push i queue) c.Netlist.ins
      end
    done;
    live

  (* Rebuilds the live cells in creation order; a net whose driver has
     not been copied yet reads as constant 0. *)
  let optimize nl =
    let live = mark_live nl in
    let fresh = Netlist.create ~fold:true ~name:(Netlist.name nl) () in
    let net_map = Hashtbl.create 256 in
    let bind old_net fresh_net =
      Netlist.copy_meta ~src:nl ~dst:fresh old_net fresh_net;
      Hashtbl.replace net_map old_net fresh_net
    in
    let remap n =
      match Hashtbl.find_opt net_map n with
      | Some n' -> n'
      | None -> Netlist.const0 fresh
    in
    List.iter
      (fun (name, nets) ->
        let fresh_nets = Netlist.add_input fresh name (Array.length nets) in
        Array.iteri (fun i n -> bind n fresh_nets.(i)) nets)
      (Netlist.inputs nl);
    let live_dffs =
      List.filter
        (fun (c : Netlist.cell) -> c.kind = Cell.Dff && Hashtbl.mem live c.out)
        (Netlist.cells nl)
    in
    List.iter
      (fun (c : Netlist.cell) -> bind c.out (Netlist.dff_deferred fresh))
      live_dffs;
    List.iter
      (fun (c : Netlist.cell) ->
        if c.kind <> Cell.Dff && Hashtbl.mem live c.out then begin
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
      (Netlist.cells nl);
    List.iter
      (fun (c : Netlist.cell) ->
        Netlist.connect_dff fresh
          ~q:(Hashtbl.find net_map c.out)
          ~d:(remap c.ins.(0)))
      live_dffs;
    List.iter
      (fun (name, nets) -> Netlist.add_output fresh name (Array.map remap nets))
      (Netlist.outputs nl);
    Netlist.check fresh;
    fresh
end
