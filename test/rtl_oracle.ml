(* Reference RTL simulator, the oracle of the RTL simulator tests: the
   tree-walking interpreter as first written, with every value a
   Bitvec.t in an Eval environment keyed by var id, a fresh environment
   snapshot per synchronous process and cycle, and hash tables for the
   dirty set, event causes and toggle coverage.  Hdl.Rtl_sim must match
   it on outputs, activity counters, toggle counts, causal events and
   checkpoint replay; it shares no simulator code with it.  The global
   Perf counters, histograms and spans are left out, so running the
   oracle does not move the figures of the simulator under test. *)

open Hdl

exception Combinational_loop of string

(* Environment copies over an explicit var list, built from Eval's
   get/set: a var never written reads as zero in the copy as in the
   original. *)
let copy_vars dst src (vars : Ir.var list) =
  List.iter
    (fun (v : Ir.var) ->
      if Ir.is_array v then begin
        let a = Eval.get_array src v in
        Array.blit a 0 (Eval.get_array dst v) 0 (Array.length a)
      end
      else Eval.set dst v (Eval.get src v))
    vars

let snapshot env vars =
  let fresh = Eval.create () in
  copy_vars fresh env vars;
  fresh

type sync_proc = {
  s_name : string;
  s_body : Ir.stmt list;
  s_writes : Ir.var list;
  s_snap : Ir.var list;
      (* vars whose pre-edge value the activation can observe: the body's
         entry reads plus every write target (an untaken write path must
         commit the old value back unchanged) *)
  mutable s_runs : int;  (* activity profile: activations of this process *)
}

type comb_proc = {
  c_name : string;
  c_body : Ir.stmt list;
  c_writes : Ir.var list;
  c_inputs : int list;  (* ids of vars whose entry value the body observes *)
  c_self : bool;  (* reads one of its own write targets before writing it *)
  mutable c_runs : int;  (* activity profile: evaluations of this process *)
}

(* Toggle-coverage state, allocated only by [enable_toggle_cover].
   Change detection rides the existing dirty-marking: a var that never
   gets marked dirty cannot have changed, so a coverage epoch (one
   clock cycle) only re-examines the vars the scheduler already knew
   about.  [cov_prev] holds each tracked var's value at the previous
   epoch close, giving per-bit edge directions without any per-delta
   sampling. *)
type cover_state = {
  cov : Cover.Toggle.t;
  cov_index : (int, int) Hashtbl.t;  (* var id -> tracked index *)
  cov_vars : Ir.var array;
  cov_base : int array;  (* first toggle slot per tracked var *)
  cov_prev : Bitvec.t array;
  cov_dirty : (int, unit) Hashtbl.t;  (* tracked indices touched this epoch *)
}

type t = {
  flat : Ir.module_def;
  env : Eval.env;
  inputs : (string, Ir.var) Hashtbl.t;
  outputs : (string, Ir.var) Hashtbl.t;
  combs : comb_proc array;  (* dependency order (writers before readers) *)
  comb_cycle : string option;  (* diagnostic when the graph is cyclic *)
  syncs : sync_proc list;
  all_vars : Ir.var list;  (* every var the design names: the checkpoint set *)
  dirty : (int, unit) Hashtbl.t;  (* var ids changed since last settle *)
  mutable full_settle : bool;  (* first settle runs everything *)
  mutable n_cycles : int;
  mutable n_settles : int;
  mutable n_comb_runs : int;
  mutable n_comb_skips : int;
  mutable n_sync_runs : int;
  mutable cover : cover_state option;
  mutable watchers : (t -> unit) list;  (* run after each step, in order *)
  (* Causal event log plumbing (see Obs.Event): [ev_last] maps a var id
     to the seq of its latest change event, giving each process run and
     each committed write a cause link.  Off by default: the hot paths
     pay one [ev_on] branch. *)
  mutable ev_on : bool;
  ev_last : (int, int) Hashtbl.t;
}

let dedup_vars vars =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (v : Ir.var) ->
      if Hashtbl.mem seen v.Ir.id then false
      else begin
        Hashtbl.replace seen v.Ir.id ();
        true
      end)
    vars

(* Order comb processes so writers precede readers, keeping the original
   relative order of unconstrained processes (Kahn's algorithm with
   lowest-index selection); this preserves the final values the old
   run-in-order fixpoint produced when several processes write the same
   variable.  Self-dependencies are handled by local iteration, not
   ordering.  Returns the order, or the name of a process on a cycle. *)
let dependency_order (combs : comb_proc array) =
  let n = Array.length combs in
  let writers = Hashtbl.create 32 in
  Array.iteri
    (fun i cp ->
      List.iter
        (fun (v : Ir.var) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt writers v.Ir.id) in
          Hashtbl.replace writers v.Ir.id (i :: prev))
        cp.c_writes)
    combs;
  let edge = Hashtbl.create 64 in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iteri
    (fun i cp ->
      List.iter
        (fun id ->
          List.iter
            (fun j ->
              if j <> i && not (Hashtbl.mem edge (j, i)) then begin
                Hashtbl.replace edge (j, i) ();
                succs.(j) <- i :: succs.(j);
                indeg.(i) <- indeg.(i) + 1
              end)
            (Option.value ~default:[] (Hashtbl.find_opt writers id)))
        cp.c_inputs)
    combs;
  let placed = Array.make n false in
  let order = ref [] and n_placed = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let pick = ref (-1) in
    for i = n - 1 downto 0 do
      if (not placed.(i)) && indeg.(i) = 0 then pick := i
    done;
    match !pick with
    | -1 -> continue_ := false
    | i ->
        placed.(i) <- true;
        incr n_placed;
        order := i :: !order;
        List.iter (fun j -> indeg.(j) <- indeg.(j) - 1) succs.(i)
  done;
  if !n_placed = n then Ok (Array.of_list (List.rev_map (fun i -> combs.(i)) !order))
  else begin
    let culprit = ref "" in
    for i = n - 1 downto 0 do
      if not placed.(i) then culprit := combs.(i).c_name
    done;
    Error !culprit
  end

let create m =
  let flat = Elaborate.flatten m in
  let inputs = Hashtbl.create 8 and outputs = Hashtbl.create 8 in
  List.iter
    (fun (p : Ir.port) ->
      match p.dir with
      | Input -> Hashtbl.replace inputs p.port_name p.port_var
      | Output -> Hashtbl.replace outputs p.port_name p.port_var)
    flat.ports;
  let combs, syncs =
    List.fold_left
      (fun (cs, ss) proc ->
        match proc with
        | Ir.Comb { proc_name; body } ->
            let writes = dedup_vars (Ir.body_writes body) in
            List.iter
              (fun (v : Ir.var) ->
                if Ir.is_array v then
                  raise
                    (Ir.Type_error
                       (Printf.sprintf
                          "comb process %s writes memory %s (inferred latch)"
                          proc_name v.Ir.var_name)))
              writes;
            let input_vars = Ir.body_inputs body in
            let write_ids = Hashtbl.create 8 in
            List.iter (fun (v : Ir.var) -> Hashtbl.replace write_ids v.Ir.id ()) writes;
            let c_self =
              List.exists (fun (v : Ir.var) -> Hashtbl.mem write_ids v.Ir.id) input_vars
            in
            ( {
                c_name = proc_name;
                c_body = body;
                c_writes = writes;
                c_inputs = List.map (fun (v : Ir.var) -> v.Ir.id) input_vars;
                c_self;
                c_runs = 0;
              }
              :: cs,
              ss )
        | Ir.Sync { proc_name; body } ->
            let writes = dedup_vars (Ir.body_writes body) in
            ( cs,
              {
                s_name = proc_name;
                s_body = body;
                s_writes = writes;
                s_snap = dedup_vars (Ir.body_inputs body @ writes);
                s_runs = 0;
              }
              :: ss ))
      ([], []) flat.processes
  in
  let combs = Array.of_list (List.rev combs) in
  let combs, comb_cycle =
    match dependency_order combs with
    | Ok ordered -> (ordered, None)
    | Error name ->
        ( combs,
          Some
            (Printf.sprintf "%s: combinational cycle through process %s"
               flat.Ir.mod_name name) )
  in
  {
    flat;
    env = Eval.create ();
    inputs;
    outputs;
    combs;
    comb_cycle;
    syncs = List.rev syncs;
    all_vars =
      dedup_vars
        (List.map (fun (p : Ir.port) -> p.Ir.port_var) flat.Ir.ports
        @ flat.Ir.locals
        @ List.concat_map
            (function
              | Ir.Comb { body; _ } | Ir.Sync { body; _ } ->
                  Ir.body_reads body @ Ir.body_writes body)
            flat.Ir.processes);
    dirty = Hashtbl.create 64;
    full_settle = true;
    n_cycles = 0;
    n_settles = 0;
    n_comb_runs = 0;
    n_comb_skips = 0;
    n_sync_runs = 0;
    cover = None;
    watchers = [];
    ev_on = false;
    ev_last = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* Causal event emission.                                              *)

let enable_events t =
  t.ev_on <- true;
  if not (Obs.Event.enabled ()) then Obs.Event.enable ()

let emitting t = t.ev_on && Obs.Event.enabled ()

(* Low bits of a value, for the event record (wide vars truncate). *)
let ev_value bv =
  if Bitvec.width bv <= 62 then Bitvec.to_int bv
  else Bitvec.to_int (Bitvec.slice bv ~hi:61 ~lo:0)

(* Most recent change among a set of observed var ids — the cause of a
   process activation they woke. *)
let ev_cause_of t ids =
  List.fold_left
    (fun acc id ->
      match Hashtbl.find_opt t.ev_last id with
      | Some s when s > acc -> s
      | _ -> acc)
    Obs.Event.no_cause ids

let ev_change t kind (v : Ir.var) cause =
  let value = if Ir.is_array v then 0 else ev_value (Eval.get t.env v) in
  let s = Obs.Event.emit ~cycle:t.n_cycles ~value ~cause kind v.Ir.var_name in
  Hashtbl.replace t.ev_last v.Ir.id s

let find_port t name =
  match Hashtbl.find_opt t.inputs name with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt t.outputs name with
      | Some v -> v
      | None -> raise Not_found)

let mark_dirty t id =
  Hashtbl.replace t.dirty id ();
  (* One branch when coverage is off — same discipline as Obs.Span. *)
  match t.cover with
  | None -> ()
  | Some cs -> (
      match Hashtbl.find_opt cs.cov_index id with
      | Some k -> Hashtbl.replace cs.cov_dirty k ()
      | None -> ())

let set_input t name bv =
  match Hashtbl.find_opt t.inputs name with
  | None -> raise Not_found
  | Some v ->
      if Bitvec.width bv <> v.Ir.width then
        invalid_arg
          (Printf.sprintf "set_input %s: width %d expected %d" name
             (Bitvec.width bv) v.Ir.width);
      if not (Bitvec.equal bv (Eval.get t.env v)) then begin
        Eval.set t.env v bv;
        mark_dirty t v.Ir.id;
        if emitting t then ev_change t Obs.Event.Stimulus v Obs.Event.no_cause
      end

let set_input_int t name n =
  let v = Hashtbl.find t.inputs name in
  set_input t name (Bitvec.of_int ~width:v.Ir.width n)

let get t name = Eval.get t.env (find_port t name)
let get_int t name = Bitvec.to_int (get t name)
let peek_var t v = Eval.get t.env v
let peek_array t v = Eval.get_array t.env v

(* Run one comb process on the live env; returns whether any of its
   outputs changed, marking changed vars dirty for downstream readers. *)
let run_comb t (cp : comb_proc) =
  let before = List.map (fun v -> Eval.get t.env v) cp.c_writes in
  (* The activation's cause is the latest change among the vars it
     observes — exactly the dirty-set propagation that scheduled it. *)
  let run_seq =
    if emitting t then
      Obs.Event.emit ~cycle:t.n_cycles
        ~cause:(ev_cause_of t cp.c_inputs)
        Obs.Event.Process_run cp.c_name
    else Obs.Event.no_cause
  in
  Eval.run_body t.env cp.c_body;
  t.n_comb_runs <- t.n_comb_runs + 1;
  cp.c_runs <- cp.c_runs + 1;
  let changed = ref false in
  List.iter2
    (fun (v : Ir.var) old ->
      if not (Bitvec.equal old (Eval.get t.env v)) then begin
        changed := true;
        mark_dirty t v.Ir.id;
        if run_seq <> Obs.Event.no_cause then
          ev_change t Obs.Event.Var_change v run_seq
      end)
    cp.c_writes before;
  !changed

(* A process that observes one of its own write targets (read before
   write somewhere in the body) needs the old global fixpoint — but only
   over itself, since cross-process cycles are rejected statically. *)
let run_comb_converge t cp =
  let bound = 2 + max (Array.length t.combs) (List.length cp.c_writes) in
  let rec go n =
    if n > bound then
      raise
        (Combinational_loop
           (Printf.sprintf "%s: process %s does not stabilize"
              t.flat.Ir.mod_name cp.c_name));
    if run_comb t cp then go (n + 1)
  in
  go 1

let settle t =
  (match t.comb_cycle with
  | Some msg -> raise (Combinational_loop msg)
  | None -> ());
  t.n_settles <- t.n_settles + 1;
  let force = t.full_settle in
  Array.iter
    (fun cp ->
      if
        force || List.exists (fun id -> Hashtbl.mem t.dirty id) cp.c_inputs
      then
        if cp.c_self then run_comb_converge t cp else ignore (run_comb t cp)
      else begin
        t.n_comb_skips <- t.n_comb_skips + 1
      end)
    t.combs;
  t.full_settle <- false;
  (* Processes run in dependency order, so every change was seen by all
     downstream readers; the whole dirty set is consumed. *)
  Hashtbl.reset t.dirty

(* Close one coverage epoch: compare each touched tracked var against
   its value at the previous epoch close and record per-bit edges.
   Bits that glitched within the cycle but ended where they started do
   not count — toggle coverage is about committed cycle-to-cycle
   transitions, matching what the netlist simulator's toggle counters
   see. *)
let close_cover_epoch t cs =
  if Hashtbl.length cs.cov_dirty > 0 then begin
    Hashtbl.iter
      (fun k () ->
        let v = cs.cov_vars.(k) in
        let cur = Eval.get t.env v in
        let old = cs.cov_prev.(k) in
        if not (Bitvec.equal old cur) then begin
          let b0 = cs.cov_base.(k) in
          for b = 0 to v.Ir.width - 1 do
            let nb = Bitvec.get cur b in
            if Bitvec.get old b <> nb then
              Cover.Toggle.record cs.cov (b0 + b) ~rising:nb
          done;
          cs.cov_prev.(k) <- cur
        end)
      cs.cov_dirty;
    Hashtbl.reset cs.cov_dirty
  end

let step t =
  settle t;
  (* All synchronous processes observe the same pre-edge state.  Each
     gets a private snapshot of just the vars it can read (plus its
     write targets, whose old values an untaken write path commits
     back); building every snapshot before any body runs keeps the
     pre-edge view consistent. *)
  let commits =
    List.map
      (fun sp ->
        let local = snapshot t.env sp.s_snap in
        Eval.run_body local sp.s_body;
        sp.s_runs <- sp.s_runs + 1;
        t.n_sync_runs <- t.n_sync_runs + 1;
        (sp, local))
      t.syncs
  in
  (* Each activation observed the pre-edge state; its cause is the
     latest pre-edge change among the vars it could read — sampled for
     every process before any commit moves [ev_last] past the edge. *)
  let ev_causes =
    if emitting t then
      List.map
        (fun ((sp : sync_proc), _) ->
          ev_cause_of t (List.map (fun (v : Ir.var) -> v.Ir.id) sp.s_snap))
        commits
    else []
  in
  List.iteri
    (fun ci ((sp : sync_proc), local) ->
      let run_seq =
        if emitting t then
          Obs.Event.emit ~cycle:t.n_cycles ~cause:(List.nth ev_causes ci)
            Obs.Event.Process_run sp.s_name
        else Obs.Event.no_cause
      in
      List.iter
        (fun (v : Ir.var) ->
          if Ir.is_array v then begin
            let src = Eval.get_array local v in
            let dst = Eval.get_array t.env v in
            let changed = ref false in
            Array.iteri
              (fun i x ->
                if not (Bitvec.equal dst.(i) x) then begin
                  dst.(i) <- x;
                  changed := true
                end)
              src;
            if !changed then begin
              mark_dirty t v.Ir.id;
              if run_seq <> Obs.Event.no_cause then
                ev_change t Obs.Event.Var_change v run_seq
            end
          end
          else begin
            let nv = Eval.get local v in
            if not (Bitvec.equal nv (Eval.get t.env v)) then begin
              Eval.set t.env v nv;
              mark_dirty t v.Ir.id;
              if run_seq <> Obs.Event.no_cause then
                ev_change t Obs.Event.Var_change v run_seq
            end
          end)
        sp.s_writes)
    commits;
  t.n_cycles <- t.n_cycles + 1;
  settle t;
  (match t.cover with
  | None -> ()
  | Some cs ->
      close_cover_epoch t cs;
      if emitting t then
        ignore
          (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Cover_epoch
             t.flat.Ir.mod_name));
  match t.watchers with [] -> () | ws -> List.iter (fun f -> f t) ws

let run t n =
  for _ = 1 to n do
    step t
  done

let cycles t = t.n_cycles
let design t = t.flat
let settles t = t.n_settles
let comb_runs t = t.n_comb_runs
let comb_skips t = t.n_comb_skips
let sync_runs t = t.n_sync_runs

(* Activity profile: activations per process since creation, in
   hierarchical name order ("instance.process" after flattening), so
   the ranking attributes simulation work to ExpoCU module instances. *)
let process_activity t =
  let combs = Array.to_list (Array.map (fun cp -> (cp.c_name, cp.c_runs)) t.combs) in
  let syncs = List.map (fun sp -> (sp.s_name, sp.s_runs)) t.syncs in
  List.sort (fun (a, _) (b, _) -> compare a b) (combs @ syncs)

(* Look up any scalar or port variable of the flattened design by its
   hierarchical name ("u_i2c.slot"); the hook monitors and FSM
   registration use to reach internal state. *)
let find_var t name =
  let matches (v : Ir.var) = v.Ir.var_name = name in
  match
    List.find_opt (fun (p : Ir.port) -> matches p.port_var) t.flat.Ir.ports
  with
  | Some p -> Some p.port_var
  | None -> List.find_opt matches t.flat.Ir.locals

let on_step t f = t.watchers <- t.watchers @ [ f ]

let enable_toggle_cover t =
  match t.cover with
  | Some _ -> ()
  | None ->
      let scalars =
        dedup_vars
          (List.filter
             (fun v -> not (Ir.is_array v))
             (List.map (fun (p : Ir.port) -> p.Ir.port_var) t.flat.Ir.ports
             @ t.flat.Ir.locals))
      in
      let vars = Array.of_list scalars in
      let n = Array.length vars in
      let base = Array.make n 0 in
      let total = ref 0 in
      Array.iteri
        (fun i (v : Ir.var) ->
          base.(i) <- !total;
          total := !total + v.Ir.width)
        vars;
      let names = Array.make !total "" in
      Array.iteri
        (fun i (v : Ir.var) ->
          if v.Ir.width = 1 then names.(base.(i)) <- v.Ir.var_name
          else
            for b = 0 to v.Ir.width - 1 do
              names.(base.(i) + b) <- Printf.sprintf "%s[%d]" v.Ir.var_name b
            done)
        vars;
      let index = Hashtbl.create (2 * n) in
      Array.iteri (fun i (v : Ir.var) -> Hashtbl.replace index v.Ir.id i) vars;
      let prev = Array.map (fun v -> Eval.get t.env v) vars in
      t.cover <-
        Some
          {
            cov = Cover.Toggle.create ~names;
            cov_index = index;
            cov_vars = vars;
            cov_base = base;
            cov_prev = prev;
            cov_dirty = Hashtbl.create 64;
          }

let toggle_cover t =
  match t.cover with None -> None | Some cs -> Some cs.cov

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore: deep-copied env plus the scheduler state the
   next settle depends on.  Coverage collectors and watcher hooks are
   deliberately not captured — a restore rewinds simulation state, not
   the observability accumulated about it. *)

type checkpoint = {
  ck_env : Eval.env;
  ck_dirty : (int, unit) Hashtbl.t;
  ck_full : bool;
  ck_cycles : int;
}

let checkpoint t =
  if emitting t then
    ignore
      (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Checkpoint
         t.flat.Ir.mod_name);
  {
    ck_env = snapshot t.env t.all_vars;
    ck_dirty = Hashtbl.copy t.dirty;
    ck_full = t.full_settle;
    ck_cycles = t.n_cycles;
  }

let restore t ck =
  copy_vars t.env ck.ck_env t.all_vars;
  Hashtbl.reset t.dirty;
  Hashtbl.iter (fun id () -> Hashtbl.replace t.dirty id ()) ck.ck_dirty;
  t.full_settle <- ck.ck_full;
  t.n_cycles <- ck.ck_cycles;
  (* Cause links must not leap across the rewind: changes before the
     restore point are no longer "the latest write" of anything. *)
  Hashtbl.reset t.ev_last

let checkpoint_cycle ck = ck.ck_cycles
