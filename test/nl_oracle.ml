(* Reference gate-level evaluator, the oracle of the simulator tests:
   one bool per net, every combinational cell re-evaluated in
   topological order on every settle, flip-flops sampled then
   committed, per-net toggle counts once per cycle.  No scheduling and
   no lane packing — the plainest reading of the netlist semantics,
   sharing no code with Backend.Nl_sim. *)

module N = Backend.Netlist
module C = Backend.Cell

(* Beside the values, the oracle keeps the reference figures of the
   simulator's accounting, each derived from its plain definition:
   - [toggles] and [rises]: per net, the cycles whose clock edge and
     settle left it different from (and high after) its settled
     pre-edge value;
   - [changes]: per step, newest first, the nets that moved that way;
   - [full_evals]: every combinational cell every settle, plus one
     evaluation per flip-flop sample;
   - [event_evals]: the first settle evaluates every cell, each later
     one only the cells with an input net that moved since the previous
     settle ended (stimulus, a flip-flop commit, a fault, or an earlier
     cell of the same settle), plus the flip-flop samples.
   [force.(n)] is net [n]'s stuck-at value ([-1]: none), applied to
   every write of the net, as a stuck-at fault in the lane under
   test. *)
type t = {
  nl : N.t;
  values : bool array;
  toggles : int array;
  rises : int array;
  force : int array;
  dirty : bool array;  (* moved since the last settle *)
  mutable first : bool;  (* no settle yet *)
  mutable changes : int list list;
  mutable full_evals : int;
  mutable event_evals : int;
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
    rises = Array.make n 0;
    force = Array.make n (-1);
    dirty = Array.make n false;
    first = true;
    changes = [];
    full_evals = 0;
    event_evals = 0;
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

let write t n b =
  let b = if t.force.(n) < 0 then b else t.force.(n) = 1 in
  if t.values.(n) <> b then begin
    t.values.(n) <- b;
    t.dirty.(n) <- true
  end

let settle t =
  List.iter
    (fun (c : N.cell) ->
      if t.first || Array.exists (fun n -> t.dirty.(n)) c.ins then
        t.event_evals <- t.event_evals + 1;
      write t c.out (eval t.values c))
    t.order;
  t.first <- false;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.full_evals <- t.full_evals + List.length t.order

let step t =
  settle t;
  let pre = Array.copy t.values in
  let d = List.map (fun (c : N.cell) -> t.values.(c.ins.(0))) t.dffs in
  List.iter2 (fun (c : N.cell) b -> write t c.out b) t.dffs d;
  let k = List.length t.dffs in
  t.full_evals <- t.full_evals + k;
  t.event_evals <- t.event_evals + k;
  settle t;
  let moved = ref [] in
  for n = Array.length t.values - 1 downto 0 do
    let b = t.values.(n) in
    if b <> pre.(n) then begin
      t.toggles.(n) <- t.toggles.(n) + 1;
      if b then t.rises.(n) <- t.rises.(n) + 1;
      moved := n :: !moved
    end
  done;
  t.changes <- !moved :: t.changes

let set_input t name bv =
  Array.iteri
    (fun i n -> write t n (Bitvec.get bv i))
    (List.assoc name (N.inputs t.nl))

let get_output t name =
  let nets = List.assoc name (N.outputs t.nl) in
  Bitvec.init (Array.length nets) (fun i -> t.values.(nets.(i)))

(* Stick net [n] at [b] from now on; the force applies at once. *)
let inject_stuck_at t n b =
  t.force.(n) <- Bool.to_int b;
  write t n t.values.(n)

let gate_evals t (mode : Backend.Nl_sim.mode) =
  match mode with Event_driven -> t.event_evals | Full_eval -> t.full_evals

(* Nets moved per step, oldest first. *)
let touched t = List.rev_map List.length t.changes

(* The completed activity windows of [window] steps each, the last one
   partial: (first step, steps, (net, toggles) ascending by net). *)
let activity_windows ~window t =
  let rec chunks start = function
    | [] -> []
    | steps ->
        let rec take k acc = function
          | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let w, rest = take window [] steps in
        let counts = Hashtbl.create 16 in
        List.iter
          (List.iter (fun n ->
               Hashtbl.replace counts n
                 (1 + Option.value (Hashtbl.find_opt counts n) ~default:0)))
          w;
        let counts =
          List.sort compare
            (Hashtbl.fold (fun n c acc -> (n, c) :: acc) counts [])
        in
        (start, List.length w, counts) :: chunks (start + window) rest
  in
  chunks 0 (List.rev t.changes)

(* Net values and the settle bookkeeping; accounting is not rewound,
   as in the simulator. *)
type checkpoint = {
  ck_values : bool array;
  ck_dirty : bool array;
  ck_first : bool;
}

let checkpoint t =
  {
    ck_values = Array.copy t.values;
    ck_dirty = Array.copy t.dirty;
    ck_first = t.first;
  }

let restore t ck =
  Array.blit ck.ck_values 0 t.values 0 (Array.length t.values);
  Array.blit ck.ck_dirty 0 t.dirty 0 (Array.length t.dirty);
  t.first <- ck.ck_first

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
