(* Reference gate-level evaluator, the oracle of the simulator tests:
   one bool per net, every combinational cell re-evaluated in
   topological order on every settle, flip-flops sampled then
   committed, per-net toggle counts once per cycle.  No scheduling, no
   lane packing and no instrumentation — the plainest reading of the
   netlist semantics, sharing no code with Backend.Nl_sim. *)

module N = Backend.Netlist
module C = Backend.Cell

type t = {
  nl : N.t;
  values : bool array;
  toggles : int array;
  order : N.cell list;  (* combinational cells, inputs before readers *)
  dffs : N.cell list;
}

(* Depth-first topological sort; the netlists under test are acyclic. *)
let topo nl =
  let seen = Hashtbl.create 64 and order = ref [] in
  let rec visit (c : N.cell) =
    if not (Hashtbl.mem seen c.out) then begin
      Hashtbl.add seen c.out ();
      Array.iter
        (fun n ->
          match N.driver nl n with
          | Some d when d.N.kind <> C.Dff -> visit d
          | _ -> ())
        c.ins;
      order := c :: !order
    end
  in
  List.iter (fun (c : N.cell) -> if c.kind <> C.Dff then visit c) (N.cells nl);
  List.rev !order

let create nl =
  let n = N.net_count nl in
  {
    nl;
    values = Array.make n false;
    toggles = Array.make n 0;
    order = topo nl;
    dffs = List.filter (fun (c : N.cell) -> c.kind = C.Dff) (N.cells nl);
  }

let eval v (c : N.cell) =
  let i k = v.(c.ins.(k)) in
  match c.kind with
  | C.Const0 -> false
  | Const1 -> true
  | Buf -> i 0
  | Not -> not (i 0)
  | And2 -> i 0 && i 1
  | Or2 -> i 0 || i 1
  | Xor2 -> i 0 <> i 1
  | Nand2 -> not (i 0 && i 1)
  | Nor2 -> not (i 0 || i 1)
  | Mux2 -> if i 0 then i 1 else i 2
  | Dff -> v.(c.out)

let settle t =
  List.iter (fun (c : N.cell) -> t.values.(c.out) <- eval t.values c) t.order

(* Toggles count the nets that differ after the clock edge and its
   settle from their settled pre-edge values. *)
let step t =
  settle t;
  let pre = Array.copy t.values in
  let d = List.map (fun (c : N.cell) -> t.values.(c.ins.(0))) t.dffs in
  List.iter2 (fun (c : N.cell) b -> t.values.(c.out) <- b) t.dffs d;
  settle t;
  Array.iteri
    (fun n b -> if b <> pre.(n) then t.toggles.(n) <- t.toggles.(n) + 1)
    t.values

let set_input t name bv =
  Array.iteri
    (fun i n -> t.values.(n) <- Bitvec.get bv i)
    (List.assoc name (N.inputs t.nl))

let get_output t name =
  let nets = List.assoc name (N.outputs t.nl) in
  Bitvec.init (Array.length nets) (fun i -> t.values.(nets.(i)))

(* Identical random broadcast stimulus into the oracle and an [Nl_sim]
   of [lanes] lanes in [mode] for [cycles] cycles: the first departure
   of lane 0 from the oracle — outputs every cycle, per-net toggle
   counts at the end — or [None]. *)
let lane0_divergence ~mode ~lanes ~cycles ~seed nl =
  let module S = Backend.Nl_sim in
  let o = create nl and s = S.create ~mode ~lanes nl in
  let rng = Random.State.make [| seed |] in
  let rec cycle k =
    if k > cycles then
      List.find_map
        (fun n ->
          if o.toggles.(n) = S.net_toggles s n then None
          else
            Some
              (Printf.sprintf "net %d toggles %d, oracle %d" n
                 (S.net_toggles s n) o.toggles.(n)))
        (List.init (N.net_count nl) Fun.id)
    else begin
      List.iter
        (fun (name, nets) ->
          let bv =
            Bitvec.init (Array.length nets) (fun _ -> Random.State.bool rng)
          in
          set_input o name bv;
          S.set_input s name bv)
        (N.inputs nl);
      step o;
      S.step s;
      match
        List.find_map
          (fun (name, _) ->
            let want = get_output o name and got = S.get_output s name in
            if Bitvec.equal want got then None
            else
              Some
                (Format.asprintf "cycle %d port %s: %a, oracle %a" k name
                   Bitvec.pp got Bitvec.pp want))
          (N.outputs nl)
      with
      | Some m -> Some m
      | None -> cycle (k + 1)
    end
  in
  cycle 1

(* Both scheduling modes at one lane, a full word and a partial second
   word. *)
let configs =
  List.concat_map
    (fun mode -> List.map (fun lanes -> (mode, lanes)) [ 1; 63; 70 ])
    [ Backend.Nl_sim.Event_driven; Backend.Nl_sim.Full_eval ]
