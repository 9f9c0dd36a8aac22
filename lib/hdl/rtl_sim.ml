exception Combinational_loop of string

(* Global activity counters (see Metrics.Perf). *)
let ctr_settles = Perf.counter "rtl_sim.settles"
let ctr_runs = Perf.counter "rtl_sim.process_runs"
let ctr_skips = Perf.counter "rtl_sim.process_skips"
let ctr_sync_runs = Perf.counter "rtl_sim.sync_runs"

(* Distributions per settle (see Obs.Hist; recording is off unless a
   caller enables it). *)
let hist_dirty = Obs.Hist.histogram "rtl_sim.dirty_vars_per_settle"
let hist_runs_per_settle = Obs.Hist.histogram "rtl_sim.comb_runs_per_settle"

(* ------------------------------------------------------------------ *)
(* Storage.  Every var of the flattened design has a slot.  A scalar of
   at most [narrow_max] bits lives in [ints] as a native int masked to
   its width; a wider scalar in [wides] as a Bitvec.t; a memory in
   [mems] (narrow elements) or [wmems] (wide elements).  The entries of
   the other arrays at a slot are unused.  Compiled code captures these
   arrays, so they are never replaced: a restore copies into them. *)

let narrow_max = 62

type kind = Narrow | Wide | Mem | Wide_mem

let kind_of (v : Ir.var) =
  match (Ir.is_array v, v.Ir.width <= narrow_max) with
  | false, true -> Narrow
  | false, false -> Wide
  | true, true -> Mem
  | true, false -> Wide_mem

type store = {
  ints : int array;
  wides : Bitvec.t array;
  mems : int array array;
  wmems : Bitvec.t array array;
}

let unused = Bitvec.zero 1

let make_store (vars : Ir.var array) =
  let n = Array.length vars in
  let st =
    {
      ints = Array.make n 0;
      wides = Array.make n unused;
      mems = Array.make n [||];
      wmems = Array.make n [||];
    }
  in
  Array.iteri
    (fun s (v : Ir.var) ->
      match kind_of v with
      | Narrow -> ()
      | Wide -> st.wides.(s) <- Bitvec.zero v.Ir.width
      | Mem -> st.mems.(s) <- Array.make v.Ir.depth 0
      | Wide_mem -> st.wmems.(s) <- Array.make v.Ir.depth (Bitvec.zero v.Ir.width))
    vars;
  st

(* ------------------------------------------------------------------ *)
(* Compilation.  An expression compiles once into a closure whose width
   is known statically: [I] for at most [narrow_max] bits, as a masked
   int, and [B] above that, as a Bitvec.t.  The semantics are Eval's:
   shift amounts saturate at the width, [Eq]/[Ne] on unequal widths are
   false/true, [Mux] and [If] test the lsb, an out-of-range memory read
   gives 0 and an out-of-range write is dropped.  Where Eval would raise
   (operands of unequal widths, an index too wide for an int) the
   compiled code raises the same Bitvec exception when it runs. *)

type code = I of int * (unit -> int) | B of int * (unit -> Bitvec.t)

let mask w = (1 lsl w) - 1
let sext w x = (x lsl (Sys.int_size - w)) asr (Sys.int_size - w)
let of_bool b = if b then 1 else 0

let parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  (x lxor (x lsr 1)) land 1

let width_of_code = function I (w, _) | B (w, _) -> w
let to_bv = function I (w, f) -> fun () -> Bitvec.of_int ~width:w (f ()) | B (_, f) -> f

let of_bv w f =
  if w <= narrow_max then I (w, fun () -> Bitvec.to_int (f ())) else B (w, f)

(* A closure that raises when run, for code with no static width (mux
   arms of unequal widths) or that uses a memory as a scalar or a
   scalar as a memory.  The type check rejects all of these; Rtl_sim
   fails only if such code actually runs. *)
let failing w fmt =
  Printf.ksprintf
    (fun msg ->
      let fail () = raise (Ir.Type_error ("Rtl_sim: " ^ msg)) in
      if w <= narrow_max then I (w, fun () -> fail ()) else B (w, fun () -> fail ()))
    fmt

let lsb = function
  | I (_, f) -> fun () -> f () land 1 = 1
  | B (_, f) -> fun () -> Bitvec.lsb (f ())

let index = function
  | I (_, f) -> f
  | B (_, f) -> fun () -> Bitvec.to_int (f ())

(* [where v] is the store and slot a compiled body reads and writes [v]
   through. *)
type resolver = Ir.var -> store * int

let read (where : resolver) (v : Ir.var) =
  let st, s = where v in
  match kind_of v with
  | Narrow ->
      let a = st.ints in
      I (v.Ir.width, fun () -> a.(s))
  | Wide ->
      let a = st.wides in
      B (v.Ir.width, fun () -> a.(s))
  | Mem | Wide_mem -> failing v.Ir.width "memory %s read as a scalar" v.Ir.var_name

let array_read (where : resolver) (v : Ir.var) idx =
  let st, s = where v in
  let i = index idx and d = v.Ir.depth in
  match kind_of v with
  | Mem ->
      let m = st.mems.(s) in
      I
        ( v.Ir.width,
          fun () ->
            let k = i () in
            if k < d then m.(k) else 0 )
  | Wide_mem ->
      let m = st.wmems.(s) and z = Bitvec.zero v.Ir.width in
      B
        ( v.Ir.width,
          fun () ->
            let k = i () in
            if k < d then m.(k) else z )
  | Narrow | Wide -> failing v.Ir.width "scalar %s indexed as a memory" v.Ir.var_name

let unop (op : Ir.unop) a =
  match (op, a) with
  | Not, I (w, f) ->
      let m = mask w in
      I (w, fun () -> lnot (f ()) land m)
  | Neg, I (w, f) ->
      let m = mask w in
      I (w, fun () -> -f () land m)
  | Reduce_and, I (w, f) ->
      let m = mask w in
      I (1, fun () -> of_bool (f () = m))
  | Reduce_or, I (_, f) -> I (1, fun () -> of_bool (f () <> 0))
  | Reduce_xor, I (_, f) -> I (1, fun () -> parity (f ()))
  | Not, B (w, f) -> B (w, fun () -> Bitvec.lognot (f ()))
  | Neg, B (w, f) -> B (w, fun () -> Bitvec.neg (f ()))
  | Reduce_and, B (_, f) -> I (1, fun () -> of_bool (Bitvec.reduce_and (f ())))
  | Reduce_or, B (_, f) -> I (1, fun () -> of_bool (Bitvec.reduce_or (f ())))
  | Reduce_xor, B (_, f) -> I (1, fun () -> of_bool (Bitvec.reduce_xor (f ())))

let shift (op : Ir.binop) a b =
  let w = width_of_code a in
  let amount =
    match b with
    | I (_, g) ->
        fun () ->
          let n = g () in
          if n < w then n else w
    | B (_, g) -> (
        fun () ->
          let y = g () in
          match Bitvec.to_int y with
          | n -> min n w
          | exception Bitvec.Invalid_bitvec _ -> w)
  in
  match (a, op) with
  | I (_, f), Shl ->
      let m = mask w in
      I (w, fun () -> (f () lsl amount ()) land m)
  | I (_, f), Lshr -> I (w, fun () -> f () lsr amount ())
  | I (_, f), _ ->
      let m = mask w in
      I (w, fun () -> (sext w (f ()) asr amount ()) land m)
  | B (_, f), Shl -> B (w, fun () -> Bitvec.shift_left (f ()) (amount ()))
  | B (_, f), Lshr -> B (w, fun () -> Bitvec.shift_right_logical (f ()) (amount ()))
  | B (_, f), _ -> B (w, fun () -> Bitvec.shift_right_arith (f ()) (amount ()))

(* Both operands narrow and of one width: native int arithmetic. *)
let int_binop (op : Ir.binop) w f g =
  let m = mask w in
  let cmp c = I (1, c) in
  match op with
  | Add -> I (w, fun () -> (f () + g ()) land m)
  | Sub -> I (w, fun () -> (f () - g ()) land m)
  | Mul -> I (w, fun () -> f () * g () land m)
  | And -> I (w, fun () -> f () land g ())
  | Or -> I (w, fun () -> f () lor g ())
  | Xor -> I (w, fun () -> f () lxor g ())
  | Eq -> cmp (fun () -> of_bool (f () = g ()))
  | Ne -> cmp (fun () -> of_bool (f () <> g ()))
  | Ult -> cmp (fun () -> of_bool (f () < g ()))
  | Ule -> cmp (fun () -> of_bool (f () <= g ()))
  | Slt -> cmp (fun () -> of_bool (sext w (f ()) < sext w (g ())))
  | Sle -> cmp (fun () -> of_bool (sext w (f ()) <= sext w (g ())))
  | Shl | Lshr | Ashr -> assert false

(* Wide operands, or operands of unequal widths: Bitvec semantics,
   which raise on a width mismatch except for [Eq]/[Ne]. *)
let bv_binop (op : Ir.binop) a b =
  let f = to_bv a and g = to_bv b and w = width_of_code a in
  let arith h = of_bv w (fun () -> h (f ()) (g ())) in
  let cmp h = I (1, fun () -> of_bool (h (f ()) (g ()))) in
  match op with
  | Add -> arith Bitvec.add
  | Sub -> arith Bitvec.sub
  | Mul -> arith Bitvec.mul
  | And -> arith Bitvec.logand
  | Or -> arith Bitvec.logor
  | Xor -> arith Bitvec.logxor
  | Eq -> cmp Bitvec.equal
  | Ne -> cmp (fun x y -> not (Bitvec.equal x y))
  | Ult -> cmp Bitvec.ult
  | Ule -> cmp Bitvec.ule
  | Slt -> cmp Bitvec.slt
  | Sle -> cmp Bitvec.sle
  | Shl | Lshr | Ashr -> assert false

let binop (op : Ir.binop) a b =
  match (op, a, b) with
  | (Shl | Lshr | Ashr), _, _ -> shift op a b
  | _, I (wa, f), I (wb, g) when wa = wb -> int_binop op wa f g
  | _ -> bv_binop op a b

let mux sel a b =
  let test = lsb sel in
  match (a, b) with
  | I (w, f), I (w', g) when w = w' -> I (w, fun () -> if test () then f () else g ())
  | B (w, f), B (w', g) when w = w' -> B (w, fun () -> if test () then f () else g ())
  | _ ->
      let wa = width_of_code a in
      failing wa "mux arms of widths %d and %d" wa (width_of_code b)

(* Bits [lo, lo + w) of a wide value as an int, without allocating. *)
let field bv lo w =
  let r = ref 0 in
  for i = lo + w - 1 downto lo do
    r := (!r lsl 1) lor of_bool (Bitvec.get bv i)
  done;
  !r

let slice a hi lo =
  let w = hi - lo + 1 in
  let wa = width_of_code a in
  if lo < 0 || hi >= wa || hi < lo then
    of_bv w (fun () -> Bitvec.slice (to_bv a ()) ~hi ~lo)
  else
    match a with
    | I (_, f) ->
        let m = mask w in
        I (w, fun () -> (f () lsr lo) land m)
    | B (_, f) when w <= narrow_max -> I (w, fun () -> field (f ()) lo w)
    | B (_, f) -> B (w, fun () -> Bitvec.slice (f ()) ~hi ~lo)

let concat a b =
  match (a, b) with
  | I (wa, f), I (wb, g) when wa + wb <= narrow_max ->
      I (wa + wb, fun () -> (f () lsl wb) lor g ())
  | _ ->
      let f = to_bv a and g = to_bv b in
      B (width_of_code a + width_of_code b, fun () -> Bitvec.concat (f ()) (g ()))

let resize signed a w =
  match a with
  | _ when w < 1 -> of_bv w (fun () -> Bitvec.resize ~signed (to_bv a ()) w)
  | I (wa, f) when w <= narrow_max ->
      let m = mask w in
      if w = wa then a
      else if signed && w > wa then I (w, fun () -> sext wa (f ()) land m)
      else if w > wa then I (w, f)
      else I (w, fun () -> f () land m)
  | I (wa, f) ->
      if signed then B (w, fun () -> Bitvec.of_int ~width:w (sext wa (f ())))
      else B (w, fun () -> Bitvec.of_int ~width:w (f ()))
  | B (_, f) when w <= narrow_max -> I (w, fun () -> field (f ()) 0 w)
  | B (_, f) -> of_bv w (fun () -> Bitvec.resize ~signed (f ()) w)

let rec expr (where : resolver) (e : Ir.expr) =
  match e with
  | Const c ->
      let w = Bitvec.width c in
      if w <= narrow_max then
        let k = Bitvec.to_int c in
        I (w, fun () -> k)
      else B (w, fun () -> c)
  | Var v -> read where v
  | Array_read (v, i) -> array_read where v (expr where i)
  | Unop (op, a) -> unop op (expr where a)
  | Binop (op, a, b) -> binop op (expr where a) (expr where b)
  | Mux (s, a, b) -> mux (expr where s) (expr where a) (expr where b)
  | Slice (a, hi, lo) -> slice (expr where a) hi lo
  | Concat (a, b) -> concat (expr where a) (expr where b)
  | Resize (signed, a, w) -> resize signed (expr where a) w

let seq = function
  | [] -> ignore
  | [ s ] -> s
  | stmts ->
      let a = Array.of_list stmts in
      fun () ->
        for i = 0 to Array.length a - 1 do
          a.(i) ()
        done

let fail_stmt fmt =
  Printf.ksprintf (fun msg () -> raise (Ir.Type_error ("Rtl_sim: " ^ msg))) fmt

let assign where (v : Ir.var) c =
  let st, s = where v in
  match (kind_of v, c) with
  | Narrow, I (w, f) when w = v.Ir.width ->
      let a = st.ints in
      fun () -> a.(s) <- f ()
  | Wide, B (w, f) when w = v.Ir.width ->
      let a = st.wides in
      fun () -> a.(s) <- f ()
  | _ ->
      fail_stmt "assign %s: width %d into %d" v.Ir.var_name (width_of_code c)
        v.Ir.width

let assign_slice where (v : Ir.var) lo c =
  let st, s = where v in
  let w = width_of_code c in
  match (kind_of v, c) with
  | Narrow, I (_, f) when lo >= 0 && lo + w <= v.Ir.width ->
      let a = st.ints and keep = mask v.Ir.width land lnot (mask w lsl lo) in
      fun () -> a.(s) <- a.(s) land keep lor (f () lsl lo)
  | Narrow, _ ->
      (* Out of range: Bitvec.set_slice raises as Eval's would. *)
      let a = st.ints and f = to_bv c and vw = v.Ir.width in
      fun () ->
        let x = f () in
        a.(s) <- Bitvec.to_int (Bitvec.set_slice (Bitvec.of_int ~width:vw a.(s)) ~lo x)
  | Wide, _ ->
      let a = st.wides and f = to_bv c in
      fun () ->
        let x = f () in
        a.(s) <- Bitvec.set_slice a.(s) ~lo x
  | (Mem | Wide_mem), _ -> fail_stmt "memory %s assigned as a scalar" v.Ir.var_name

let array_write where (v : Ir.var) idx c =
  let st, s = where v in
  let i = index idx and d = v.Ir.depth in
  match (kind_of v, c) with
  | Mem, I (w, f) when w = v.Ir.width ->
      let m = st.mems.(s) in
      fun () ->
        let k = i () in
        let x = f () in
        if k >= 0 && k < d then m.(k) <- x
  | Wide_mem, B (w, f) when w = v.Ir.width ->
      let m = st.wmems.(s) in
      fun () ->
        let k = i () in
        let x = f () in
        if k >= 0 && k < d then m.(k) <- x
  | _ ->
      fail_stmt "array write %s: width %d into %d" v.Ir.var_name
        (width_of_code c) v.Ir.width

let rec find_label equal labels k i =
  if i = Array.length labels then -1
  else if equal labels.(i) k then i
  else find_label equal labels k (i + 1)

(* [Case]: the first arm whose label equals the scrutinee runs; labels
   of another width never match.  Small narrow labels dispatch through
   a table, others by a scan. *)
let case scrutinee arms dflt =
  let w = width_of_code scrutinee in
  let arms = List.filter (fun (l, _) -> Bitvec.width l = w) arms in
  match scrutinee with
  | I (_, f) ->
      let labels = List.map (fun (l, body) -> (Bitvec.to_int l, body)) arms in
      let top = List.fold_left (fun acc (l, _) -> max acc l) (-1) labels in
      if top < 256 then begin
        let table = Array.make (top + 1) dflt in
        List.iter (fun (l, body) -> table.(l) <- body) (List.rev labels);
        fun () ->
          let k = f () in
          if k <= top then table.(k) () else dflt ()
      end
      else
        let ls = Array.of_list (List.map fst labels)
        and bs = Array.of_list (List.map snd labels) in
        fun () ->
          let i = find_label ( = ) ls (f ()) 0 in
          if i < 0 then dflt () else bs.(i) ()
  | B (_, f) ->
      let ls = Array.of_list (List.map fst arms)
      and bs = Array.of_list (List.map snd arms) in
      fun () ->
        let i = find_label Bitvec.equal ls (f ()) 0 in
        if i < 0 then dflt () else bs.(i) ()

let rec stmt where (st : Ir.stmt) =
  match st with
  | Assign (v, e) -> assign where v (expr where e)
  | Assign_slice (v, lo, e) -> assign_slice where v lo (expr where e)
  | Array_write (v, i, e) -> array_write where v (expr where i) (expr where e)
  | If (c, t, e) ->
      let test = lsb (expr where c) and t = block where t and e = block where e in
      fun () -> if test () then t () else e ()
  | Case (s, arms, dflt) ->
      case (expr where s)
        (List.map (fun (l, b) -> (l, block where b)) arms)
        (block where dflt)

and block where stmts = seq (List.map (stmt where) stmts)

(* ------------------------------------------------------------------ *)
(* Processes and simulator state.                                      *)

type sync_proc = {
  s_name : string;
  s_run : unit -> unit;
      (* the body, compiled to write its targets into [s_local] and to
         read every other var from the global store, which no sync body
         writes: all of them see the same pre-edge state *)
  s_local : store;  (* slot j holds write target j *)
  s_writes : int array;  (* global slots of the write targets *)
  s_snap : int array;
      (* slots whose pre-edge value the activation can observe: the
         body's entry reads plus every write target (an untaken write
         path must commit the old value back unchanged) *)
  mutable s_runs : int;  (* activity profile: activations of this process *)
}

type comb_proc = {
  c_name : string;
  c_run : unit -> unit;  (* the compiled body, on the global store *)
  c_writes : int array;  (* slots of the write targets *)
  c_inputs : int array;  (* slots of the vars whose entry value the body observes *)
  c_self : bool;  (* reads one of its own write targets before writing it *)
  c_before : int array;  (* narrow targets' values before the run *)
  c_before_w : Bitvec.t array;  (* wide targets' values before the run *)
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
  cov_index : int array;  (* slot -> tracked index, or -1 *)
  cov_slots : int array;  (* tracked index -> slot *)
  cov_base : int array;  (* first toggle slot per tracked var *)
  cov_prev : int array;  (* narrow tracked vars *)
  cov_prev_w : Bitvec.t array;  (* wide tracked vars *)
  cov_dirty : bool array;  (* tracked indices touched this epoch... *)
  cov_touched : int array;  (* ...listed in the first [cov_n] entries *)
  mutable cov_n : int;
}

type t = {
  flat : Ir.module_def;
  vars : Ir.var array;  (* slot -> var *)
  kinds : kind array;
  slot_of : (int, int) Hashtbl.t;  (* var id -> slot *)
  g : store;
  inputs : (string, int) Hashtbl.t;  (* port name -> slot *)
  outputs : (string, int) Hashtbl.t;
  combs : comb_proc array;  (* dependency order (writers before readers) *)
  comb_cycle : string option;  (* diagnostic when the graph is cyclic *)
  syncs : sync_proc array;
  dirty : bool array;  (* slots changed since last settle... *)
  dirty_list : int array;  (* ...listed in the first [n_dirty] entries *)
  mutable n_dirty : int;
  mutable full_settle : bool;  (* first settle runs everything *)
  mutable n_cycles : int;
  mutable n_settles : int;
  mutable n_comb_runs : int;
  mutable n_comb_skips : int;
  mutable n_sync_runs : int;
  mutable cover : cover_state option;
  mutable watchers : (t -> unit) list;  (* run after each step, in order *)
  (* Causal event log plumbing (see Obs.Event): [ev_last] maps a slot to
     the seq of its latest change event, giving each process run and
     each committed write a cause link.  Off by default: the hot paths
     pay one [ev_on] branch. *)
  mutable ev_on : bool;
  ev_last : int array;
  ev_sync_causes : int array;  (* per sync process, sampled before commits *)
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
let dependency_order n_slots (combs : comb_proc array) =
  let n = Array.length combs in
  let writers = Array.make n_slots [] in
  Array.iteri
    (fun i cp -> Array.iter (fun s -> writers.(s) <- i :: writers.(s)) cp.c_writes)
    combs;
  let edge = Hashtbl.create 64 in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iteri
    (fun i cp ->
      Array.iter
        (fun s ->
          List.iter
            (fun j ->
              if j <> i && not (Hashtbl.mem edge (j, i)) then begin
                Hashtbl.replace edge (j, i) ();
                succs.(j) <- i :: succs.(j);
                indeg.(i) <- indeg.(i) + 1
              end)
            writers.(s))
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
  let vars =
    Array.of_list
      (dedup_vars (List.map (fun (p : Ir.port) -> p.port_var) flat.ports @ flat.locals))
  in
  let n = Array.length vars in
  let slot_of = Hashtbl.create (2 * n) in
  Array.iteri (fun s (v : Ir.var) -> Hashtbl.replace slot_of v.Ir.id s) vars;
  let slot (v : Ir.var) =
    match Hashtbl.find_opt slot_of v.Ir.id with
    | Some s -> s
    | None ->
        raise
          (Ir.Type_error
             (Printf.sprintf "%s: %s is neither a port nor a local" flat.Ir.mod_name
                v.Ir.var_name))
  in
  let slots vs = Array.of_list (List.map slot vs) in
  let g = make_store vars in
  let global v = (g, slot v) in
  let inputs = Hashtbl.create 8 and outputs = Hashtbl.create 8 in
  List.iter
    (fun (p : Ir.port) ->
      match p.dir with
      | Input -> Hashtbl.replace inputs p.port_name (slot p.port_var)
      | Output -> Hashtbl.replace outputs p.port_name (slot p.port_var))
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
            let c_writes = slots writes in
            let c_self =
              List.exists (fun v -> Array.mem (slot v) c_writes) input_vars
            in
            let k = Array.length c_writes in
            ( {
                c_name = proc_name;
                c_run = block global body;
                c_writes;
                c_inputs = slots input_vars;
                c_self;
                c_before = Array.make k 0;
                c_before_w = Array.make k unused;
                c_runs = 0;
              }
              :: cs,
              ss )
        | Ir.Sync { proc_name; body } ->
            let writes = Array.of_list (dedup_vars (Ir.body_writes body)) in
            let local = make_store writes in
            let local_of = Hashtbl.create 8 in
            Array.iteri
              (fun j (v : Ir.var) -> Hashtbl.replace local_of v.Ir.id j)
              writes;
            let where (v : Ir.var) =
              match Hashtbl.find_opt local_of v.Ir.id with
              | Some j -> (local, j)
              | None -> global v
            in
            ( cs,
              {
                s_name = proc_name;
                s_run = block where body;
                s_local = local;
                s_writes = Array.map slot writes;
                s_snap =
                  slots (dedup_vars (Ir.body_inputs body @ Array.to_list writes));
                s_runs = 0;
              }
              :: ss ))
      ([], []) flat.processes
  in
  let combs = Array.of_list (List.rev combs) in
  let combs, comb_cycle =
    match dependency_order n combs with
    | Ok ordered -> (ordered, None)
    | Error name ->
        ( combs,
          Some
            (Printf.sprintf "%s: combinational cycle through process %s"
               flat.Ir.mod_name name) )
  in
  let syncs = Array.of_list (List.rev syncs) in
  {
    flat;
    vars;
    kinds = Array.map kind_of vars;
    slot_of;
    g;
    inputs;
    outputs;
    combs;
    comb_cycle;
    syncs;
    dirty = Array.make n false;
    dirty_list = Array.make n 0;
    n_dirty = 0;
    full_settle = true;
    n_cycles = 0;
    n_settles = 0;
    n_comb_runs = 0;
    n_comb_skips = 0;
    n_sync_runs = 0;
    cover = None;
    watchers = [];
    ev_on = false;
    ev_last = Array.make n Obs.Event.no_cause;
    ev_sync_causes = Array.make (Array.length syncs) Obs.Event.no_cause;
  }

(* Value of a scalar slot as a Bitvec. *)
let value t s =
  match t.kinds.(s) with
  | Narrow -> Bitvec.of_int ~width:t.vars.(s).Ir.width t.g.ints.(s)
  | Wide -> t.g.wides.(s)
  | Mem | Wide_mem -> invalid_arg ("Rtl_sim: memory " ^ t.vars.(s).Ir.var_name)

(* ------------------------------------------------------------------ *)
(* Causal event emission.                                              *)

let enable_events t =
  t.ev_on <- true;
  if not (Obs.Event.enabled ()) then Obs.Event.enable ()

let emitting t = t.ev_on && Obs.Event.enabled ()

(* Most recent change among a set of observed slots — the cause of a
   process activation they woke. *)
let ev_cause_of t slots =
  let best = ref Obs.Event.no_cause in
  for k = 0 to Array.length slots - 1 do
    let e = t.ev_last.(slots.(k)) in
    if e > !best then best := e
  done;
  !best

(* Every per-cycle emission goes through [ev_record], which allocates
   nothing (see Obs.Event.record). *)
let ev_record t ~value ~cause kind subject =
  Obs.Event.record ~time:0 ~cycle:t.n_cycles ~lane:(-1) ~value ~cause kind
    subject

(* The event value is the low bits of the new value (wide vars
   truncate; memories report 0). *)
let ev_change t kind s cause =
  let value =
    match t.kinds.(s) with
    | Narrow -> t.g.ints.(s)
    | Wide -> field t.g.wides.(s) 0 narrow_max
    | Mem | Wide_mem -> 0
  in
  t.ev_last.(s) <- ev_record t ~value ~cause kind t.vars.(s).Ir.var_name

let find_port t name =
  match Hashtbl.find t.inputs name with
  | s -> s
  | exception Not_found -> Hashtbl.find t.outputs name

let mark_dirty t s =
  if not t.dirty.(s) then begin
    t.dirty.(s) <- true;
    t.dirty_list.(t.n_dirty) <- s;
    t.n_dirty <- t.n_dirty + 1
  end;
  (* One branch when coverage is off — same discipline as Obs.Span. *)
  match t.cover with
  | None -> ()
  | Some cs ->
      let k = cs.cov_index.(s) in
      if k >= 0 && not cs.cov_dirty.(k) then begin
        cs.cov_dirty.(k) <- true;
        cs.cov_touched.(cs.cov_n) <- k;
        cs.cov_n <- cs.cov_n + 1
      end

let clear_dirty t =
  for i = 0 to t.n_dirty - 1 do
    t.dirty.(t.dirty_list.(i)) <- false
  done;
  t.n_dirty <- 0

let stimulus t s =
  mark_dirty t s;
  if emitting t then ev_change t Obs.Event.Stimulus s Obs.Event.no_cause

let set_narrow_input t s x =
  if x <> t.g.ints.(s) then begin
    t.g.ints.(s) <- x;
    stimulus t s
  end

let set_input t name bv =
  let s = Hashtbl.find t.inputs name in
  let w = t.vars.(s).Ir.width in
  if Bitvec.width bv <> w then
    invalid_arg
      (Printf.sprintf "set_input %s: width %d expected %d" name (Bitvec.width bv) w);
  match t.kinds.(s) with
  | Narrow -> set_narrow_input t s (Bitvec.to_int bv)
  | _ ->
      if not (Bitvec.equal bv t.g.wides.(s)) then begin
        t.g.wides.(s) <- bv;
        stimulus t s
      end

let set_input_int t name n =
  let s = Hashtbl.find t.inputs name in
  let w = t.vars.(s).Ir.width in
  match t.kinds.(s) with
  | Narrow -> set_narrow_input t s (n land mask w)
  | _ -> set_input t name (Bitvec.of_int ~width:w n)

let get t name = value t (find_port t name)

let get_int t name =
  let s = find_port t name in
  match t.kinds.(s) with Narrow -> t.g.ints.(s) | _ -> Bitvec.to_int (value t s)

let peek_var t (v : Ir.var) =
  match Hashtbl.find t.slot_of v.Ir.id with
  | s -> value t s
  | exception Not_found -> Bitvec.zero v.Ir.width

let peek_array t (v : Ir.var) =
  match Hashtbl.find_opt t.slot_of v.Ir.id with
  | None -> Array.make v.Ir.depth (Bitvec.zero v.Ir.width)
  | Some s -> (
      match t.kinds.(s) with
      | Mem -> Array.map (fun x -> Bitvec.of_int ~width:v.Ir.width x) t.g.mems.(s)
      | Wide_mem -> Array.copy t.g.wmems.(s)
      | Narrow | Wide -> invalid_arg ("Rtl_sim.peek_array: scalar " ^ v.Ir.var_name))

(* Run one comb process on the global store; returns whether any of its
   outputs changed, marking changed vars dirty for downstream readers. *)
let run_comb t (cp : comb_proc) =
  let ints = t.g.ints and wides = t.g.wides and outs = cp.c_writes in
  for j = 0 to Array.length outs - 1 do
    let s = outs.(j) in
    match t.kinds.(s) with
    | Narrow -> cp.c_before.(j) <- ints.(s)
    | _ -> cp.c_before_w.(j) <- wides.(s)
  done;
  (* The activation's cause is the latest change among the vars it
     observes — exactly the dirty-set propagation that scheduled it. *)
  let run_seq =
    if emitting t then
      ev_record t ~value:0
        ~cause:(ev_cause_of t cp.c_inputs)
        Obs.Event.Process_run cp.c_name
    else Obs.Event.no_cause
  in
  cp.c_run ();
  t.n_comb_runs <- t.n_comb_runs + 1;
  cp.c_runs <- cp.c_runs + 1;
  Perf.incr ctr_runs;
  let changed = ref false in
  for j = 0 to Array.length outs - 1 do
    let s = outs.(j) in
    let same =
      match t.kinds.(s) with
      | Narrow -> cp.c_before.(j) = ints.(s)
      | _ -> Bitvec.equal cp.c_before_w.(j) wides.(s)
    in
    if not same then begin
      changed := true;
      mark_dirty t s;
      if run_seq <> Obs.Event.no_cause then
        ev_change t Obs.Event.Var_change s run_seq
    end
  done;
  !changed

(* A process that observes one of its own write targets (read before
   write somewhere in the body) needs the old global fixpoint — but only
   over itself, since cross-process cycles are rejected statically. *)
let run_comb_converge t cp =
  let bound = 2 + max (Array.length t.combs) (Array.length cp.c_writes) in
  let n = ref 1 in
  while run_comb t cp do
    incr n;
    if !n > bound then
      raise
        (Combinational_loop
           (Printf.sprintf "%s: process %s does not stabilize"
              t.flat.Ir.mod_name cp.c_name))
  done

let rec any_dirty dirty inputs i =
  i < Array.length inputs && (dirty.(inputs.(i)) || any_dirty dirty inputs (i + 1))

let settle_inner t =
  (match t.comb_cycle with
  | Some msg -> raise (Combinational_loop msg)
  | None -> ());
  t.n_settles <- t.n_settles + 1;
  Perf.incr ctr_settles;
  (* Guarded here: observe_int boxes its float argument even when off. *)
  let hist = Obs.Hist.enabled () in
  if hist then Obs.Hist.observe_int hist_dirty t.n_dirty;
  let runs_before = t.n_comb_runs in
  let force = t.full_settle in
  for i = 0 to Array.length t.combs - 1 do
    let cp = t.combs.(i) in
    if force || any_dirty t.dirty cp.c_inputs 0 then
      if cp.c_self then run_comb_converge t cp else ignore (run_comb t cp)
    else begin
      t.n_comb_skips <- t.n_comb_skips + 1;
      Perf.incr ctr_skips
    end
  done;
  t.full_settle <- false;
  if hist then Obs.Hist.observe_int hist_runs_per_settle (t.n_comb_runs - runs_before);
  (* Processes run in dependency order, so every change was seen by all
     downstream readers; the whole dirty set is consumed. *)
  clear_dirty t

let settle t =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"rtl_sim.settle" (fun () -> settle_inner t)
  else settle_inner t

(* Close one coverage epoch: compare each touched tracked var against
   its value at the previous epoch close and record per-bit edges.
   Bits that glitched within the cycle but ended where they started do
   not count — toggle coverage is about committed cycle-to-cycle
   transitions, matching what the netlist simulator's toggle counters
   see. *)
let close_cover_epoch t cs =
  for i = 0 to cs.cov_n - 1 do
    let k = cs.cov_touched.(i) in
    cs.cov_dirty.(k) <- false;
    let s = cs.cov_slots.(k) and b0 = cs.cov_base.(k) in
    match t.kinds.(s) with
    | Narrow ->
        let cur = t.g.ints.(s) in
        let diff = cur lxor cs.cov_prev.(k) in
        if diff <> 0 then begin
          for b = 0 to t.vars.(s).Ir.width - 1 do
            if (diff lsr b) land 1 = 1 then
              Cover.Toggle.record cs.cov (b0 + b) ~rising:((cur lsr b) land 1 = 1)
          done;
          cs.cov_prev.(k) <- cur
        end
    | _ ->
        let cur = t.g.wides.(s) and old = cs.cov_prev_w.(k) in
        if not (Bitvec.equal old cur) then begin
          for b = 0 to Bitvec.width cur - 1 do
            let nb = Bitvec.get cur b in
            if Bitvec.get old b <> nb then
              Cover.Toggle.record cs.cov (b0 + b) ~rising:nb
          done;
          cs.cov_prev_w.(k) <- cur
        end
  done;
  cs.cov_n <- 0

(* Copies a sync process's write targets from the global store into its
   local one before the body runs. *)
let load_writes t sp =
  let l = sp.s_local in
  for j = 0 to Array.length sp.s_writes - 1 do
    let s = sp.s_writes.(j) in
    match t.kinds.(s) with
    | Narrow -> l.ints.(j) <- t.g.ints.(s)
    | Wide -> l.wides.(j) <- t.g.wides.(s)
    | Mem -> Array.blit t.g.mems.(s) 0 l.mems.(j) 0 (Array.length l.mems.(j))
    | Wide_mem -> Array.blit t.g.wmems.(s) 0 l.wmems.(j) 0 (Array.length l.wmems.(j))
  done

(* Commits a sync process's writes back, marking changed vars dirty, in
   write-target order. *)
let commit_writes t sp run_seq =
  let l = sp.s_local in
  for j = 0 to Array.length sp.s_writes - 1 do
    let s = sp.s_writes.(j) in
    let changed =
      match t.kinds.(s) with
      | Narrow ->
          let x = l.ints.(j) in
          x <> t.g.ints.(s)
          && begin
            t.g.ints.(s) <- x;
            true
          end
      | Wide ->
          let x = l.wides.(j) in
          (not (Bitvec.equal x t.g.wides.(s)))
          && begin
            t.g.wides.(s) <- x;
            true
          end
      | Mem ->
          let src = l.mems.(j) and dst = t.g.mems.(s) in
          let changed = ref false in
          for i = 0 to Array.length src - 1 do
            if dst.(i) <> src.(i) then begin
              dst.(i) <- src.(i);
              changed := true
            end
          done;
          !changed
      | Wide_mem ->
          let src = l.wmems.(j) and dst = t.g.wmems.(s) in
          let changed = ref false in
          for i = 0 to Array.length src - 1 do
            if not (Bitvec.equal dst.(i) src.(i)) then begin
              dst.(i) <- src.(i);
              changed := true
            end
          done;
          !changed
    in
    if changed then begin
      mark_dirty t s;
      if run_seq <> Obs.Event.no_cause then ev_change t Obs.Event.Var_change s run_seq
    end
  done

let step_inner t =
  settle t;
  (* All synchronous processes observe the same pre-edge state: each
     body writes only its local copies of its targets and reads every
     other var from the global store, which no body changes. *)
  for i = 0 to Array.length t.syncs - 1 do
    let sp = t.syncs.(i) in
    load_writes t sp;
    sp.s_run ();
    sp.s_runs <- sp.s_runs + 1;
    t.n_sync_runs <- t.n_sync_runs + 1;
    Perf.incr ctr_sync_runs
  done;
  (* Each activation observed the pre-edge state; its cause is the
     latest pre-edge change among the vars it could read — sampled for
     every process before any commit moves [ev_last] past the edge. *)
  let emit = emitting t in
  if emit then
    for i = 0 to Array.length t.syncs - 1 do
      t.ev_sync_causes.(i) <- ev_cause_of t t.syncs.(i).s_snap
    done;
  for i = 0 to Array.length t.syncs - 1 do
    let sp = t.syncs.(i) in
    let run_seq =
      if emit then
        ev_record t ~value:0 ~cause:t.ev_sync_causes.(i)
          Obs.Event.Process_run sp.s_name
      else Obs.Event.no_cause
    in
    commit_writes t sp run_seq
  done;
  t.n_cycles <- t.n_cycles + 1;
  settle t;
  (match t.cover with
  | None -> ()
  | Some cs ->
      close_cover_epoch t cs;
      if emitting t then
        ignore
          (ev_record t ~value:0 ~cause:Obs.Event.no_cause
             Obs.Event.Cover_epoch t.flat.Ir.mod_name));
  match t.watchers with [] -> () | ws -> List.iter (fun f -> f t) ws

let step t =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"rtl_sim.step" (fun () -> step_inner t)
  else step_inner t

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
  let syncs = Array.to_list (Array.map (fun sp -> (sp.s_name, sp.s_runs)) t.syncs) in
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
      let slots = Array.map (fun (v : Ir.var) -> Hashtbl.find t.slot_of v.Ir.id) vars in
      let index = Array.make (Array.length t.vars) (-1) in
      Array.iteri (fun k s -> index.(s) <- k) slots;
      t.cover <-
        Some
          {
            cov = Cover.Toggle.create ~names;
            cov_index = index;
            cov_slots = slots;
            cov_base = base;
            cov_prev = Array.map (fun s -> t.g.ints.(s)) slots;
            cov_prev_w = Array.map (fun s -> t.g.wides.(s)) slots;
            cov_dirty = Array.make n false;
            cov_touched = Array.make n 0;
            cov_n = 0;
          }

let toggle_cover t =
  match t.cover with None -> None | Some cs -> Some cs.cov

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore: copies of the store plus the scheduler state
   the next settle depends on.  Coverage collectors and watcher hooks
   are deliberately not captured — a restore rewinds simulation state,
   not the observability accumulated about it. *)

type checkpoint = {
  ck_ints : int array;
  ck_wides : Bitvec.t array;
  ck_mems : int array array;
  ck_wmems : Bitvec.t array array;
  ck_dirty : int array;
  ck_full : bool;
  ck_cycles : int;
}

let checkpoint t =
  if emitting t then
    ignore
      (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Checkpoint
         t.flat.Ir.mod_name);
  {
    ck_ints = Array.copy t.g.ints;
    ck_wides = Array.copy t.g.wides;
    ck_mems = Array.map Array.copy t.g.mems;
    ck_wmems = Array.map Array.copy t.g.wmems;
    ck_dirty = Array.sub t.dirty_list 0 t.n_dirty;
    ck_full = t.full_settle;
    ck_cycles = t.n_cycles;
  }

let restore t ck =
  let blit src dst = Array.blit src 0 dst 0 (Array.length src) in
  blit ck.ck_ints t.g.ints;
  blit ck.ck_wides t.g.wides;
  Array.iteri (fun s m -> blit m t.g.mems.(s)) ck.ck_mems;
  Array.iteri (fun s m -> blit m t.g.wmems.(s)) ck.ck_wmems;
  clear_dirty t;
  Array.iter
    (fun s ->
      t.dirty.(s) <- true;
      t.dirty_list.(t.n_dirty) <- s;
      t.n_dirty <- t.n_dirty + 1)
    ck.ck_dirty;
  t.full_settle <- ck.ck_full;
  t.n_cycles <- ck.ck_cycles;
  (* Cause links must not leap across the rewind: changes before the
     restore point are no longer "the latest write" of anything. *)
  Array.fill t.ev_last 0 (Array.length t.ev_last) Obs.Event.no_cause

let checkpoint_cycle ck = ck.ck_cycles
