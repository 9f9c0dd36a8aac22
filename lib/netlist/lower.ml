exception Lower_error of string

let lower_error fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

let ceil_log2 n =
  if n < 1 then invalid_arg "ceil_log2";
  let rec go k p = if p >= n then k else go (k + 1) (p * 2) in
  go 0 1

type value = Vec of Netlist.net array | Mem of Netlist.net array array

(* Bindings are replaced functionally: net arrays are never mutated in
   place, so branch environments can share structure safely. *)
type env = (int, value) Hashtbl.t

type ctx = {
  nl : Netlist.t;
  env : env;
  never_written : (int, unit) Hashtbl.t;
      (* vars with no driver anywhere: read as constant zero *)
}

let get_vec ctx (v : Ir.var) =
  match Hashtbl.find_opt ctx.env v.Ir.id with
  | Some (Vec nets) -> nets
  | Some (Mem _) -> lower_error "array %s used as scalar" v.Ir.var_name
  | None ->
      if Hashtbl.mem ctx.never_written v.Ir.id then
        Array.make v.Ir.width (Netlist.const0 ctx.nl)
      else
        lower_error "combinational read of %s before it is driven"
          v.Ir.var_name

let get_mem ctx (v : Ir.var) =
  match Hashtbl.find_opt ctx.env v.Ir.id with
  | Some (Mem rows) -> rows
  | Some (Vec _) -> lower_error "scalar %s indexed as array" v.Ir.var_name
  | None -> lower_error "read of memory %s before it is driven" v.Ir.var_name

(* ---------------- datapath gate constructors ---------------- *)

let ripple_adder nl a b carry_in =
  let w = Array.length a in
  let sum = Array.make w carry_in in
  let carry = ref carry_in in
  for i = 0 to w - 1 do
    let axb = Netlist.xor2 nl a.(i) b.(i) in
    sum.(i) <- Netlist.xor2 nl axb !carry;
    let c1 = Netlist.and2 nl a.(i) b.(i) in
    let c2 = Netlist.and2 nl axb !carry in
    carry := Netlist.or2 nl c1 c2
  done;
  (sum, !carry)

(* Sklansky parallel-prefix adder: log-depth carries, the structure a
   synthesis tool (or an FPGA carry chain) provides.  Used above a
   width threshold; tiny adders stay ripple (less area, same speed). *)
let prefix_adder nl a b carry_in =
  let w = Array.length a in
  let g = Array.init w (fun i -> Netlist.and2 nl a.(i) b.(i)) in
  let p = Array.init w (fun i -> Netlist.xor2 nl a.(i) b.(i)) in
  (* gg.(i)/pp.(i) span bits [0..i] after the prefix tree *)
  let gg = Array.copy g and pp = Array.copy p in
  let span = ref 1 in
  while !span < w do
    let gg' = Array.copy gg and pp' = Array.copy pp in
    for i = 0 to w - 1 do
      (* Sklansky: combine with the block ending just below the span
         boundary *)
      if i land !span <> 0 || i mod (2 * !span) >= !span then begin
        let j = (i / (2 * !span) * (2 * !span)) + !span - 1 in
        if i >= !span && j < i then begin
          gg'.(i) <-
            Netlist.or2 nl gg.(i) (Netlist.and2 nl pp.(i) gg.(j));
          pp'.(i) <- Netlist.and2 nl pp.(i) pp.(j)
        end
      end
    done;
    Array.blit gg' 0 gg 0 w;
    Array.blit pp' 0 pp 0 w;
    span := !span * 2
  done;
  (* carries including carry-in: c_i = GG_i | PP_i & cin *)
  let carry i =
    Netlist.or2 nl gg.(i) (Netlist.and2 nl pp.(i) carry_in)
  in
  let sum =
    Array.init w (fun i ->
        if i = 0 then Netlist.xor2 nl p.(0) carry_in
        else Netlist.xor2 nl p.(i) (carry (i - 1)))
  in
  (sum, carry (w - 1))

let adder nl a b carry_in =
  if Array.length a <= 4 then ripple_adder nl a b carry_in
  else prefix_adder nl a b carry_in

let neg_vec nl a =
  let inverted = Array.map (Netlist.not_ nl) a in
  let zero = Array.make (Array.length a) (Netlist.const0 nl) in
  fst (adder nl inverted zero (Netlist.const1 nl))

let sub_vec nl a b =
  let inverted = Array.map (Netlist.not_ nl) b in
  fst (adder nl a inverted (Netlist.const1 nl))

(* a < b (unsigned): no carry out of a + ~b + 1. *)
let ult_net nl a b =
  let nb = Array.map (Netlist.not_ nl) b in
  let _, cout = adder nl a nb (Netlist.const1 nl) in
  Netlist.not_ nl cout

(* Balanced reduction keeps logic depth logarithmic. *)
let rec tree_reduce op = function
  | [] -> invalid_arg "tree_reduce: empty"
  | [ x ] -> x
  | xs ->
      let rec pair = function
        | a :: b :: rest -> op a b :: pair rest
        | [ a ] -> [ a ]
        | [] -> []
      in
      tree_reduce op (pair xs)

let eq_net nl a b =
  let sames =
    Array.to_list
      (Array.mapi
         (fun i ai -> Netlist.not_ nl (Netlist.xor2 nl ai b.(i)))
         a)
  in
  tree_reduce (Netlist.and2 nl) sames

let slt_net nl a b =
  let w = Array.length a in
  let sa = a.(w - 1) and sb = b.(w - 1) in
  let diff_sign = Netlist.xor2 nl sa sb in
  Netlist.mux2 nl ~sel:diff_sign sa (ult_net nl a b)

let mux_vec nl sel a b = Array.map2 (fun x y -> Netlist.mux2 nl ~sel x y) a b

let mul_vec nl a b =
  let w = Array.length a in
  let acc = ref (Array.make w (Netlist.const0 nl)) in
  for i = 0 to w - 1 do
    (* partial product: (a << i) masked by b.(i) *)
    let pp =
      Array.init w (fun j ->
          if j < i then Netlist.const0 nl
          else Netlist.and2 nl a.(j - i) b.(i))
    in
    acc := fst (adder nl !acc pp (Netlist.const0 nl))
  done;
  !acc

(* Shift by a constant amount with a chosen fill net. *)
let shift_const a ~left amount fill =
  let w = Array.length a in
  Array.init w (fun i ->
      let src = if left then i - amount else i + amount in
      if src < 0 || src >= w then fill else a.(src))

let barrel_shift nl a b ~left ~fill =
  let w = Array.length a in
  let stages = ceil_log2 (w + 1) in
  let result = ref a in
  let wb = Array.length b in
  for k = 0 to min (stages - 1) (wb - 1) do
    let shifted = shift_const !result ~left (1 lsl k) fill in
    result := mux_vec nl b.(k) shifted !result
  done;
  (* Shift amounts >= 2^stages (encoded in high bits of b) flush. *)
  if wb > stages then begin
    let over = ref (Netlist.const0 nl) in
    for k = stages to wb - 1 do
      over := Netlist.or2 nl !over b.(k)
    done;
    let flushed = Array.make w fill in
    result := mux_vec nl !over flushed !result
  end;
  !result

(* Select a memory row by index expression; out-of-range reads zero. *)
let mem_read ctx mem idx elem_width =
  let nl = ctx.nl in
  let depth = Array.length mem in
  let idx_bits = ceil_log2 depth in
  let rec tree lo len bit =
    if len = 1 then
      if lo < depth then mem.(lo)
      else Array.make elem_width (Netlist.const0 nl)
    else
      let half = len / 2 in
      let low = tree lo half (bit - 1) in
      let high = tree (lo + half) half (bit - 1) in
      if bit - 1 < Array.length idx then mux_vec nl idx.(bit - 1) high low
      else low
  in
  let full = if idx_bits = 0 then mem.(0) else tree 0 (1 lsl idx_bits) idx_bits in
  (* in-range check against any idx bits beyond the tree *)
  let over = ref (Netlist.const0 nl) in
  for k = idx_bits to Array.length idx - 1 do
    over := Netlist.or2 nl !over idx.(k)
  done;
  (* also indexes within the tree but >= depth read zero via padding *)
  let zero = Array.make elem_width (Netlist.const0 nl) in
  mux_vec nl !over zero full

(* ---------------- expressions ---------------- *)

let rec lower_expr ctx (e : Ir.expr) : Netlist.net array =
  let nl = ctx.nl in
  match e with
  | Const c -> Netlist.constant nl c
  | Var v -> get_vec ctx v
  | Array_read (v, idx) ->
      let mem = get_mem ctx v in
      let idx_nets = lower_expr ctx idx in
      mem_read ctx mem idx_nets v.Ir.width
  | Unop (op, e0) -> (
      let x = lower_expr ctx e0 in
      match op with
      | Not -> Array.map (Netlist.not_ nl) x
      | Neg -> neg_vec nl x
      | Reduce_and -> [| tree_reduce (Netlist.and2 nl) (Array.to_list x) |]
      | Reduce_or -> [| tree_reduce (Netlist.or2 nl) (Array.to_list x) |]
      | Reduce_xor -> [| tree_reduce (Netlist.xor2 nl) (Array.to_list x) |])
  | Binop (op, a, b) -> (
      let x = lower_expr ctx a in
      match op with
      | Add -> fst (adder nl x (lower_expr ctx b) (Netlist.const0 nl))
      | Sub -> sub_vec nl x (lower_expr ctx b)
      | Mul -> mul_vec nl x (lower_expr ctx b)
      | And -> Array.map2 (Netlist.and2 nl) x (lower_expr ctx b)
      | Or -> Array.map2 (Netlist.or2 nl) x (lower_expr ctx b)
      | Xor -> Array.map2 (Netlist.xor2 nl) x (lower_expr ctx b)
      | Eq -> [| eq_net nl x (lower_expr ctx b) |]
      | Ne -> [| Netlist.not_ nl (eq_net nl x (lower_expr ctx b)) |]
      | Ult -> [| ult_net nl x (lower_expr ctx b) |]
      | Ule -> [| Netlist.not_ nl (ult_net nl (lower_expr ctx b) x) |]
      | Slt -> [| slt_net nl x (lower_expr ctx b) |]
      | Sle -> [| Netlist.not_ nl (slt_net nl (lower_expr ctx b) x) |]
      | Shl ->
          barrel_shift nl x (lower_expr ctx b) ~left:true
            ~fill:(Netlist.const0 nl)
      | Lshr ->
          barrel_shift nl x (lower_expr ctx b) ~left:false
            ~fill:(Netlist.const0 nl)
      | Ashr ->
          barrel_shift nl x (lower_expr ctx b) ~left:false
            ~fill:x.(Array.length x - 1))
  | Mux (s, t, e0) ->
      let sel = (lower_expr ctx s).(0) in
      mux_vec nl sel (lower_expr ctx t) (lower_expr ctx e0)
  | Slice (e0, hi, lo) ->
      let x = lower_expr ctx e0 in
      Array.sub x lo (hi - lo + 1)
  | Concat (a, b) ->
      let hi = lower_expr ctx a and lo = lower_expr ctx b in
      Array.append lo hi
  | Resize (signed, e0, w) ->
      let x = lower_expr ctx e0 in
      let we = Array.length x in
      if w <= we then Array.sub x 0 w
      else
        let fill =
          if signed then x.(we - 1) else Netlist.const0 nl
        in
        Array.init w (fun i -> if i < we then x.(i) else fill)

(* ---------------- statements ---------------- *)

(* The merges below create mux cells once per variable they visit, so
   they visit in ascending var-id order: ids are process-global, and a
   hash table's order over them would make the netlist depend on how
   many ids earlier builds drew.  Relative id order within one build
   does not. *)
let sorted_keys keys =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])

let rec exec ctx (st : Ir.stmt) =
  let nl = ctx.nl in
  match st with
  | Assign (v, e) -> Hashtbl.replace ctx.env v.Ir.id (Vec (lower_expr ctx e))
  | Assign_slice (v, lo, e) ->
      let field = lower_expr ctx e in
      let old = get_vec ctx v in
      let fresh =
        Array.mapi
          (fun i n ->
            if i >= lo && i < lo + Array.length field then field.(i - lo)
            else n)
          old
      in
      Hashtbl.replace ctx.env v.Ir.id (Vec fresh)
  | Array_write (v, idx, e) ->
      let mem = get_mem ctx v in
      let idx_nets = lower_expr ctx idx in
      let value = lower_expr ctx e in
      let fresh =
        Array.mapi
          (fun i row ->
            let sel =
              eq_net nl idx_nets
                (Netlist.constant nl
                   (Bitvec.of_int ~width:(Array.length idx_nets) i))
            in
            mux_vec nl sel value row)
          mem
      in
      Hashtbl.replace ctx.env v.Ir.id (Mem fresh)
  | If (c, t, e) ->
      let sel = (lower_expr ctx c).(0) in
      exec_branches ctx sel t e
  | Case (s, arms, dflt) ->
      (* Parallel decode.  Case labels are mutually exclusive, so an
         arm that leaves a variable untouched contributes nothing to
         that variable's mux network as long as the default leaves it
         untouched too — this is what turns the histogram class into a
         write-enable decoder instead of a quadratic mux cascade. *)
      let scrutinee = lower_expr ctx s in
      let base = ctx.env in
      let run body =
        let env = Hashtbl.copy base in
        List.iter (exec { ctx with env }) body;
        env
      in
      let armed =
        List.map
          (fun (label, body) ->
            let sel = eq_net nl scrutinee (Netlist.constant nl label) in
            (sel, run body))
          arms
      in
      let dflt_env = run dflt in
      let keys = Hashtbl.create 16 in
      let note env = Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) env in
      note dflt_env;
      List.iter (fun (_, env) -> note env) armed;
      let merge_value k =
        let base_v = Hashtbl.find_opt base k in
        let dflt_v = Hashtbl.find_opt dflt_env k in
        let arm_vs = List.map (fun (sel, env) -> (sel, Hashtbl.find_opt env k)) armed in
        let same a b =
          match (a, b) with
          | Some x, Some y -> x == y
          | None, None -> true
          | Some _, None | None, Some _ -> false
        in
        if same dflt_v base_v && List.for_all (fun (_, v) -> same v base_v) arm_vs
        then base_v
        else begin
          (* Without a prior binding the case must cover the variable on
             every path (all arms plus the default); anything less would
             synthesize a latch. *)
          if
            base_v = None
            && (dflt_v = None
               || List.exists (fun (_, v) -> v = None) arm_vs)
          then
            lower_error
              "variable id %d assigned on only some paths of a case" k;
          (* Bit-granular merge: because the labels are mutually
             exclusive, an arm whose bit equals the pre-case bit can be
             skipped whenever the default also kept that bit — slice
             writes into a wide object state vector then cost exactly
             one mux per written bit, like a hand-coded write decoder. *)
          let start_of dv bv = match dv with Some v -> v | None -> Option.get bv in
          let merge_bits base_bits dflt_bits per_arm_bits =
            Array.init (Array.length dflt_bits) (fun i ->
                let base_bit =
                  match base_bits with Some b -> Some b.(i) | None -> None
                in
                let dflt_unchanged = base_bit = Some dflt_bits.(i) in
                List.fold_left
                  (fun acc (sel, bits) ->
                    match bits with
                    | None -> acc
                    | Some bits ->
                        if dflt_unchanged && base_bit = Some bits.(i) then acc
                        else if bits.(i) = acc then acc
                        else Netlist.mux2 nl ~sel bits.(i) acc)
                  dflt_bits.(i)
                  (List.rev per_arm_bits))
          in
          let merged =
            match start_of dflt_v base_v with
            | Vec _ ->
                let bits = function
                  | Some (Vec x) -> Some x
                  | Some (Mem _) ->
                      lower_error
                        "variable id %d bound as both scalar and memory" k
                  | None -> None
                in
                let dflt_bits =
                  match bits dflt_v with
                  | Some x -> x
                  | None -> Option.get (bits base_v)
                in
                Vec
                  (merge_bits (bits base_v) dflt_bits
                     (List.map (fun (sel, v) -> (sel, bits v)) arm_vs))
            | Mem rows ->
                let rows_of = function
                  | Some (Mem x) -> Some x
                  | Some (Vec _) ->
                      lower_error
                        "variable id %d bound as both scalar and memory" k
                  | None -> None
                in
                let dflt_rows =
                  match rows_of dflt_v with
                  | Some x -> x
                  | None -> Option.get (rows_of base_v)
                in
                Mem
                  (Array.init (Array.length rows) (fun r ->
                       let pick = function
                         | Some m -> Some m.(r)
                         | None -> None
                       in
                       merge_bits
                         (pick (rows_of base_v))
                         dflt_rows.(r)
                         (List.map
                            (fun (sel, v) -> (sel, pick (rows_of v)))
                            arm_vs)))
          in
          Some merged
        end
      in
      List.iter
        (fun k ->
          match merge_value k with
          | Some v -> Hashtbl.replace ctx.env k v
          | None -> ())
        (sorted_keys keys)

and exec_branches ctx sel then_body else_body =
  exec_branches_k ctx sel
    (fun ctx -> List.iter (exec ctx) then_body)
    (fun ctx -> List.iter (exec ctx) else_body)

and exec_branches_k ctx sel run_then run_else =
  let env_t = Hashtbl.copy ctx.env in
  let env_e = Hashtbl.copy ctx.env in
  run_then { ctx with env = env_t };
  run_else { ctx with env = env_e };
  (* Merge every binding that differs between the two branches. *)
  let keys = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) env_t;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) env_e;
  List.iter
    (fun k ->
      let vt = Hashtbl.find_opt env_t k and ve = Hashtbl.find_opt env_e k in
      match (vt, ve) with
      | Some a, Some b when a == b -> Hashtbl.replace ctx.env k a
      | Some (Vec a), Some (Vec b) ->
          if a == b then Hashtbl.replace ctx.env k (Vec a)
          else Hashtbl.replace ctx.env k (Vec (mux_vec ctx.nl sel a b))
      | Some (Mem a), Some (Mem b) ->
          if a == b then Hashtbl.replace ctx.env k (Mem a)
          else
            Hashtbl.replace ctx.env k
              (Mem (Array.map2 (fun ra rb -> mux_vec ctx.nl sel ra rb) a b))
      | Some only, None | None, Some only ->
          (* Written in one branch with no prior binding: treating the
             missing side as zero would silently synthesize a latch;
             reject instead. *)
          ignore only;
          lower_error "variable id %d assigned in only one branch of a \
                       conditional and never before it" k
      | Some (Vec _), Some (Mem _) | Some (Mem _), Some (Vec _) ->
          lower_error "variable id %d bound as both scalar and memory" k
      | None, None -> ())
    (sorted_keys keys)

(* ---------------- processes and module ---------------- *)

let topo_sort_combs combs =
  (* Order combinational processes so writers precede readers. *)
  let n = Array.length combs in
  let writes = Array.map (fun (_, body) -> Ir.body_writes body) combs in
  let reads = Array.map (fun (_, body) -> Ir.body_reads body) combs in
  let writer_of = Hashtbl.create 32 in
  Array.iteri
    (fun i ws ->
      List.iter (fun (v : Ir.var) -> Hashtbl.replace writer_of v.Ir.id i) ws)
    writes;
  let deps i =
    List.filter_map
      (fun (v : Ir.var) ->
        match Hashtbl.find_opt writer_of v.Ir.id with
        | Some j when j <> i -> Some j
        | _ -> None)
      reads.(i)
  in
  let state = Array.make n 0 in
  let order = ref [] in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 ->
        lower_error "combinational cycle through process %s" (fst combs.(i))
    | _ ->
        state.(i) <- 1;
        List.iter visit (deps i);
        state.(i) <- 2;
        order := i :: !order
  in
  for i = 0 to n - 1 do
    visit i
  done;
  List.rev_map (fun i -> combs.(i)) !order

(* ---------------- the lowering memo-cache ---------------- *)

(* Lowered module segments are memoized on {!Ir.structural_hash} (plus
   the fold flag): a netlist is read-only once built, so repeated flow
   runs — and designs sharing leaf IP, like the OSSS/VHDL pair — reuse
   the same segment instead of re-lowering it.  [Synth.Flow] reports
   the hit/miss movement of a run as [flow.lower.cache_hits]. *)
let cache : (string, Netlist.t) Hashtbl.t = Hashtbl.create 32
let cache_lock = Mutex.create ()  (* flows may lower from pool domains *)
let cache_hits = ref 0  (* under [cache_lock] *)
let cache_misses = ref 0  (* under [cache_lock] *)

let cache_stats () =
  Mutex.protect cache_lock (fun () -> (!cache_hits, !cache_misses))

let clear_cache () = Mutex.protect cache_lock (fun () -> Hashtbl.reset cache)

(* ---------------- instance splicing ---------------- *)

(* Replay one lowered child segment into the parent builder.

   Child input-port bits become fresh {e placeholder} nets in the
   parent — allocated but undriven, recorded in [pending_inputs] —
   because the parent value feeding a port may itself only exist after
   the splice (combinational glue, another instance's output).  Once
   the parent has bound every variable, {!resolve_placeholders}
   substitutes the real driver into everything that mentions a
   placeholder.  Cells are replayed through the parent's own gate
   builders (keeping parent-level folding and structural hashing
   coherent), flip-flops first so q nets exist before any reader, and
   every replayed net is tagged with the instance name as its region,
   child regions nesting underneath. *)
let splice ctx ~pending_inputs (inst : Ir.instance) (seg : Netlist.t) =
  let nl = ctx.nl in
  let map = Array.make (max 1 (Netlist.net_count seg)) (-1) in
  List.iter
    (fun (pname, nets) ->
      match List.assoc_opt pname inst.Ir.port_map with
      | None ->
          lower_error "instance %s: port %s not connected" inst.Ir.inst_name
            pname
      | Some actual ->
          Array.iteri
            (fun i sn ->
              let ph = Netlist.new_net nl in
              map.(sn) <- ph;
              pending_inputs := (ph, actual, i) :: !pending_inputs)
            nets)
    (Netlist.inputs seg);
  let region_for sn =
    match Netlist.region_of seg sn with
    | "" -> inst.Ir.inst_name
    | r -> inst.Ir.inst_name ^ "." ^ r
  in
  let tag sn out =
    Netlist.set_region nl out (region_for sn);
    match Netlist.hint_of seg sn with
    | Some h -> Netlist.set_hint nl out h
    | None -> ()
  in
  let seg_cells = Netlist.cells seg in
  List.iter
    (fun (c : Netlist.cell) ->
      if c.kind = Cell.Dff then begin
        let q = Netlist.dff_deferred nl in
        map.(c.out) <- q;
        tag c.out q
      end)
    seg_cells;
  let arg c k =
    let n = map.((c : Netlist.cell).ins.(k)) in
    if n < 0 then
      lower_error "instance %s: unmapped net in segment %s" inst.Ir.inst_name
        (Netlist.name seg)
    else n
  in
  List.iter
    (fun (c : Netlist.cell) ->
      match c.kind with
      | Cell.Dff -> ()
      | kind ->
          let before = Netlist.net_count nl in
          let out =
            match kind with
            | Cell.Const0 -> Netlist.const0 nl
            | Cell.Const1 -> Netlist.const1 nl
            | Cell.Buf -> arg c 0
            | Cell.Not -> Netlist.not_ nl (arg c 0)
            | Cell.And2 -> Netlist.and2 nl (arg c 0) (arg c 1)
            | Cell.Or2 -> Netlist.or2 nl (arg c 0) (arg c 1)
            | Cell.Xor2 -> Netlist.xor2 nl (arg c 0) (arg c 1)
            | Cell.Nand2 -> Netlist.nand2 nl (arg c 0) (arg c 1)
            | Cell.Nor2 -> Netlist.nor2 nl (arg c 0) (arg c 1)
            | Cell.Mux2 -> Netlist.mux2 nl ~sel:(arg c 0) (arg c 1) (arg c 2)
            | Cell.Dff -> assert false
          in
          map.(c.out) <- out;
          if out >= before then tag c.out out)
    seg_cells;
  List.iter
    (fun (c : Netlist.cell) ->
      if c.kind = Cell.Dff then
        Netlist.connect_dff nl ~q:map.(c.out) ~d:map.(c.ins.(0)))
    seg_cells;
  List.iter
    (fun (pname, nets) ->
      match List.assoc_opt pname inst.Ir.port_map with
      | None ->
          lower_error "instance %s: port %s not connected" inst.Ir.inst_name
            pname
      | Some actual ->
          Hashtbl.replace ctx.env actual.Ir.id
            (Vec (Array.map (fun sn -> map.(sn)) nets)))
    (Netlist.outputs seg)

(* Substitute the final parent driver for every child-input placeholder
   — in every cell input and every output bus.  Substitution follows
   chains (a feedthrough output of one instance can feed an input of
   the next, so a placeholder can resolve to another placeholder) with
   a step bound that turns cyclic port feedthrough into a clean error.
   Returns the resolver so callers can normalize nets they kept around
   (environment bindings used for name hints). *)
let resolve_placeholders ctx pending_inputs =
  if pending_inputs = [] then fun n -> n
  else begin
    let nl = ctx.nl in
    let subst = Hashtbl.create (List.length pending_inputs) in
    List.iter
      (fun (ph, actual, i) ->
        let nets = get_vec ctx actual in
        Hashtbl.replace subst ph nets.(i))
      pending_inputs;
    let limit = Hashtbl.length subst + 1 in
    let rec follow steps n =
      match Hashtbl.find_opt subst n with
      | None -> n
      | Some n' ->
          if steps > limit then
            lower_error "%s: cyclic feedthrough through instance ports"
              (Netlist.name nl);
          follow (steps + 1) n'
    in
    let resolve n = follow 0 n in
    Netlist.substitute nl resolve;
    resolve
  end

let rec lower ?(fold = true) (m : Ir.module_def) : Netlist.t =
  let key = Ir.structural_hash m ^ if fold then ":f" else ":r" in
  let cached =
    Mutex.protect cache_lock (fun () ->
        match Hashtbl.find_opt cache key with
        | Some nl ->
            incr cache_hits;
            Some nl
        | None ->
            incr cache_misses;
            None)
  in
  match cached with
  | Some nl -> nl
  | None ->
      (* Lowering happens outside the lock (it recurses back into
         [lower] for child segments); two domains racing on the same
         key both lower and the second replace wins — segments are
         read-only, so either is valid. *)
      let nl = lower_module ~fold m in
      Mutex.protect cache_lock (fun () -> Hashtbl.replace cache key nl);
      nl

and lower_module ~fold (m0 : Ir.module_def) =
  (* Leaf modules take the pre-existing flatten path (a no-op rename
     for an instance-free module), so leaf netlists are built exactly
     as before; hierarchical modules splice their memoized child
     segments instead of flattening. *)
  let m = if m0.Ir.instances = [] then Elaborate.flatten m0 else m0 in
  Ir.check_module m;
  let nl = Netlist.create ~fold ~name:m.Ir.mod_name () in
  let env : env = Hashtbl.create 64 in
  let never_written = Hashtbl.create 16 in
  let kinds = Ir.classify_vars m in
  (* Mark variables with no driver at all (constant zero reads): driven
     means written by one of this module's processes, bound as a module
     input, or connected to a child instance's output. *)
  let driven = Hashtbl.create 64 in
  Hashtbl.iter (fun id _ -> Hashtbl.replace driven id ()) kinds;
  List.iter
    (fun (inst : Ir.instance) ->
      List.iter
        (fun (p : Ir.port) ->
          if p.dir = Ir.Output then
            match List.assoc_opt p.port_name inst.Ir.port_map with
            | Some actual -> Hashtbl.replace driven actual.Ir.id ()
            | None -> ())
        inst.Ir.inst_of.Ir.ports)
    m.Ir.instances;
  List.iter
    (fun (v : Ir.var) ->
      if not (Hashtbl.mem driven v.Ir.id) then
        Hashtbl.replace never_written v.Ir.id ())
    m.locals;
  let ctx = { nl; env; never_written } in
  (* Inputs. *)
  List.iter
    (fun (p : Ir.port) ->
      if p.dir = Ir.Input then
        Hashtbl.replace env p.port_var.Ir.id
          (Vec (Netlist.add_input nl p.port_name p.port_var.Ir.width)))
    m.ports;
  (* Child instances: lower each child once (memoized across instances
     and runs) and splice the segment in.  Child outputs are bound into
     the environment here; child inputs stay placeholders until every
     parent value exists. *)
  let pending_inputs = ref [] in
  List.iter
    (fun (inst : Ir.instance) ->
      let seg = lower ~fold inst.Ir.inst_of in
      splice ctx ~pending_inputs inst seg)
    m.Ir.instances;
  (* Registers: allocate flip-flop outputs up front. *)
  let sync_bodies =
    List.filter_map
      (function
        | Ir.Sync { proc_name; body } -> Some (proc_name, body)
        | Ir.Comb _ -> None)
      m.processes
  in
  let regs = Hashtbl.create 32 in
  List.iter
    (fun (_, body) ->
      List.iter
        (fun (v : Ir.var) ->
          if not (Hashtbl.mem regs v.Ir.id) then begin
            Hashtbl.replace regs v.Ir.id v;
            if Ir.is_array v then
              Hashtbl.replace env v.Ir.id
                (Mem
                   (Array.init v.Ir.depth (fun _ ->
                        Array.init v.Ir.width (fun _ ->
                            Netlist.dff_deferred nl))))
            else
              Hashtbl.replace env v.Ir.id
                (Vec (Array.init v.Ir.width (fun _ -> Netlist.dff_deferred nl)))
          end)
        (Ir.body_writes body))
    sync_bodies;
  (* Combinational processes in dependency order. *)
  let combs =
    List.filter_map
      (function
        | Ir.Comb { proc_name; body } -> Some (proc_name, body)
        | Ir.Sync _ -> None)
      m.processes
    |> Array.of_list
  in
  let ordered = topo_sort_combs combs in
  List.iter (fun (_, body) -> List.iter (exec ctx) body) ordered;
  (* Synchronous processes: next-state from a shared pre-edge snapshot. *)
  let snapshot = Hashtbl.copy env in
  let commits =
    List.map
      (fun (pname, body) ->
        let local = { ctx with env = Hashtbl.copy snapshot } in
        List.iter (exec local) body;
        (pname, body, local))
      sync_bodies
  in
  List.iter
    (fun (_, body, local) ->
      List.iter
        (fun (v : Ir.var) ->
          match (Hashtbl.find_opt snapshot v.Ir.id, Hashtbl.find_opt local.env v.Ir.id) with
          | Some (Vec qs), Some (Vec ds) ->
              Array.iteri
                (fun i q -> Netlist.connect_dff nl ~q ~d:ds.(i))
                qs
          | Some (Mem qrows), Some (Mem drows) ->
              Array.iteri
                (fun r qrow ->
                  Array.iteri
                    (fun i q -> Netlist.connect_dff nl ~q ~d:drows.(r).(i))
                    qrow)
                qrows
          | _ -> lower_error "register %s lost its binding" v.Ir.var_name)
        (let seen = Hashtbl.create 8 in
         List.filter
           (fun (v : Ir.var) ->
             if Hashtbl.mem seen v.Ir.id then false
             else begin
               Hashtbl.replace seen v.Ir.id ();
               true
             end)
           (Ir.body_writes body)))
    commits;
  (* Outputs. *)
  List.iter
    (fun (p : Ir.port) ->
      if p.dir = Ir.Output then
        Netlist.add_output nl p.port_name (get_vec ctx p.port_var))
    m.ports;
  (* Resolve child-input placeholders now that every parent value
     exists, then record design-level name hints from the final
     variable bindings (ports and locals; register q nets and comb
     results alike). *)
  let resolve = resolve_placeholders ctx !pending_inputs in
  let hint_binding (v : Ir.var) =
    match Hashtbl.find_opt env v.Ir.id with
    | Some (Vec nets) ->
        Array.iteri
          (fun i n ->
            let name =
              if Array.length nets = 1 then v.Ir.var_name
              else Printf.sprintf "%s[%d]" v.Ir.var_name i
            in
            Netlist.set_hint nl (resolve n) name)
          nets
    | Some (Mem rows) ->
        Array.iteri
          (fun r row ->
            Array.iteri
              (fun i n ->
                Netlist.set_hint nl (resolve n)
                  (Printf.sprintf "%s[%d][%d]" v.Ir.var_name r i))
              row)
          rows
    | None -> ()
  in
  List.iter (fun (p : Ir.port) -> hint_binding p.Ir.port_var) m.ports;
  List.iter hint_binding m.locals;
  Netlist.check nl;
  nl
