(* Gate-level simulator: every net carries [lanes] independent
   two-valued simulations packed into native ints, so one bitwise word
   op per gate advances all lanes at once (the Hardcaml trick, applied
   to multi-scenario regression instead of wide buses).  A single-pattern
   simulation is simply [lanes = 1]: one word per net.

   Packing invariant: bits of inactive lanes (beyond [lanes] in the last
   word) are always 0.  The non-inverting gates preserve that on their
   own; Not/Nand/Nor mask their result back to the active lanes, and
   Mux2 is computed as (a & s) | (b & ~s) whose operands are masked. *)

(* Global activity counters (see Metrics.Perf). *)
let ctr_evals = Perf.counter "nl_sim.gate_evals"
let ctr_skipped = Perf.counter "nl_sim.cells_skipped"
let ctr_full = Perf.counter "nl_sim.full_settles"

(* Distributions per settle/step (see Obs.Hist; off unless enabled). *)
let hist_evals = Obs.Hist.histogram "nl_sim.evals_per_settle"
let hist_touched = Obs.Hist.histogram "nl_sim.nets_touched_per_step"

type mode = Event_driven | Full_eval

exception Combinational_loop = Netlist.Combinational_loop

(* Lanes per machine word: all representable bits of an OCaml int,
   including the sign bit (only bitwise ops ever touch lane words). *)
let lane_bits = Sys.int_size

(* The compiled program: [op_slots] ints per combinational cell, in
   the frozen order ({!Netlist.freeze}) — opcode, output net, up to
   three input nets (unused slots 0).  Built once per simulator and
   never mutated; evaluation reads it and writes only [values]. *)
let op_slots = 5

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
  | Dff -> invalid_arg "Nl_sim.opcode: flip-flops are not compiled"

let compile order =
  let prog = Array.make (Array.length order * op_slots) 0 in
  Array.iteri
    (fun ci (c : Netlist.cell) ->
      let pc = ci * op_slots in
      prog.(pc) <- opcode c.kind;
      prog.(pc + 1) <- c.out;
      Array.iteri (fun k n -> prog.(pc + 2 + k) <- n) c.ins)
    order;
  prog

(* Input [k] of the instruction at [pc], in the word plane starting at
   [off] (see [values]). *)
let[@inline] arg (v : int array) (prog : int array) off pc k =
  Array.unsafe_get v (Array.unsafe_get prog (pc + 2 + k) + off)

(* One word of one instruction, all its lanes at once; [mask] is the
   word's active-lane mask.  The one evaluator of both modes. *)
let[@inline] eval_op v prog off mask pc =
  match Array.unsafe_get prog pc with
  | 0 -> 0
  | 1 -> mask
  | 2 -> arg v prog off pc 0
  | 3 -> lnot (arg v prog off pc 0) land mask
  | 4 -> arg v prog off pc 0 land arg v prog off pc 1
  | 5 -> arg v prog off pc 0 lor arg v prog off pc 1
  | 6 -> arg v prog off pc 0 lxor arg v prog off pc 1
  | 7 -> lnot (arg v prog off pc 0 land arg v prog off pc 1) land mask
  | 8 -> lnot (arg v prog off pc 0 lor arg v prog off pc 1) land mask
  | _ ->
      let s = arg v prog off pc 0 in
      arg v prog off pc 1 land s lor (arg v prog off pc 2 land lnot s)

type t = {
  nl : Netlist.t;
  mode : mode;
  lanes : int;
  nw : int;  (* words per net *)
  n_nets : int;
  word_mask : int array;  (* per word: active-lane bits *)
  (* Word planes: word [w] of net [n] at [w*n_nets + n].  Word 0 of net
     [n] sits at [n] itself, and an instruction reads any other plane
     at a fixed offset, so evaluation never multiplies. *)
  values : int array;
  prog : int array;  (* compiled [order], see [compile] *)
  order : Netlist.cell array;  (* combinational cells, topologically sorted *)
  dff_d : int array;  (* per flip-flop, in frozen order: its D net *)
  dff_q : int array;  (* ... and its Q net *)
  in_nets : (string, Netlist.net array) Hashtbl.t;
  out_nets : (string, Netlist.net array) Hashtbl.t;
  (* Event-driven machinery.  [level.(ci)] is the logic depth of cell
     [order.(ci)]; a cell's level is strictly greater than the level of
     any combinational cell driving one of its inputs, so one ascending
     sweep over the levels settles the dirty region.  A cell is dirty
     when any lane of any input moved.  Dirty cells of level [l] sit in
     [bucket] from [bucket_start.(l)], [bucket_fill.(l)] of them; a
     level's slice holds all its cells, so it cannot overflow. *)
  level : int array;
  fanout_start : int array;  (* CSR fanout of the frozen view *)
  fanout : int array;  (* indices into [order] *)
  bucket : int array;
  bucket_start : int array;
  bucket_fill : int array;
  pending : bool array;  (* per index into [order]: already scheduled *)
  mutable need_full : bool;  (* next settle evaluates everything *)
  (* Per-cycle toggle accounting, done where a word is written inside
     the epoch (clock edge + post-edge settle): [toggles] counts lane-0
     transitions per net; the change masks feed per-lane coverage and
     activity when enabled.  Inputs never move during the epoch and
     every other net is written at most once in it (its flip-flop
     commit, or its cell's single post-edge evaluation), so the
     write-time change is exactly the pre/post-edge difference.
     [n_touched] counts the nets that moved this epoch. *)
  toggles : int array;
  mutable in_epoch : bool;
  mutable n_touched : int;
  dff_buf : int array;  (* dff sampling buffer, [dffs * nw] *)
  mutable n_cycles : int;
  mutable n_evals : int;
  mutable n_skipped : int;
  mutable n_full_settles : int;
  (* Per-lane stuck-at forces, indexed like [values]: a written word
     becomes (x & ~f_mask) | f_val.  [ [||] ] until the first
     injection, so fault-free runs pay one branch per write. *)
  mutable has_faults : bool;
  mutable f_mask : int array;
  mutable f_val : int array;
  mutable n_faults : int;
  (* Optional per-cell evaluation profile (indexed like [order]);
     [ [||] ] until [enable_profile] allocates it. *)
  mutable profiling : bool;
  mutable eval_counts : int array;
  (* Per-lane toggle coverage and windowed activity samplers; [ [||] ]
     until enabled.  Both ride the toggle accounting above, so the two
     modes record identical coverage and activity. *)
  mutable cover : Cover.Toggle.t array;
  mutable activity : Cover.Activity.t array;
  (* Causal event log plumbing (see Obs.Event), allocated lazily by
     [enable_events]: [ev_last.(n)] is the seq of net [n]'s latest
     change event, so a cell evaluation that moves its output is caused
     by the latest change among its input nets; [ev_dff_cause.(i)]
     holds flip-flop [i]'s cause, sampled at each clock edge.  Off by
     default: the hot paths pay one [ev_on] branch per changed net. *)
  mutable ev_on : bool;
  mutable ev_last : int array;
  mutable ev_labels : string array;
  mutable ev_dff_cause : int array;
}

let create ?(mode = Event_driven) ?(lanes = 1) nl =
  if lanes < 1 then invalid_arg "Nl_sim.create: lanes must be >= 1";
  Netlist.check nl;
  let {
    Netlist.comb = order;
    dffs;
    level;
    n_levels;
    fanout_start;
    fanout;
    in_nets;
    out_nets;
    driver = _;
  } =
    Netlist.freeze nl
  in
  let nw = (lanes + lane_bits - 1) / lane_bits in
  let word_mask =
    Array.init nw (fun w ->
        let k = min lane_bits (lanes - (w * lane_bits)) in
        if k = lane_bits then -1 else (1 lsl k) - 1)
  in
  (* Level [l]'s slice starts after every cell of a lower level. *)
  let per_level = Array.make n_levels 0 in
  Array.iter (fun l -> per_level.(l) <- per_level.(l) + 1) level;
  let bucket_start = Array.make n_levels 0 in
  for l = 1 to n_levels - 1 do
    bucket_start.(l) <- bucket_start.(l - 1) + per_level.(l - 1)
  done;
  let n_nets = Netlist.net_count nl in
  {
    nl;
    mode;
    lanes;
    nw;
    n_nets;
    word_mask;
    values = Array.make (n_nets * nw) 0;
    prog = compile order;
    order;
    dff_d = Array.map (fun (c : Netlist.cell) -> c.ins.(0)) dffs;
    dff_q = Array.map (fun (c : Netlist.cell) -> c.out) dffs;
    in_nets;
    out_nets;
    level;
    fanout_start;
    fanout;
    bucket = Array.make (Array.length order) 0;
    bucket_start;
    bucket_fill = Array.make n_levels 0;
    pending = Array.make (Array.length order) false;
    need_full = true;
    toggles = Array.make n_nets 0;
    in_epoch = false;
    n_touched = 0;
    dff_buf = Array.make (Array.length dffs * nw) 0;
    n_cycles = 0;
    n_evals = 0;
    n_skipped = 0;
    n_full_settles = 0;
    has_faults = false;
    f_mask = [||];
    f_val = [||];
    n_faults = 0;
    profiling = false;
    eval_counts = [||];
    cover = [||];
    activity = [||];
    ev_on = false;
    ev_last = [||];
    ev_labels = [||];
    ev_dff_cause = [||];
  }

(* ------------------------------------------------------------------ *)
(* Causal event emission (event-driven mode; [Full_eval] re-evaluates
   everything every settle and carries no change causality).           *)

let enable_events t =
  if Array.length t.ev_last = 0 then begin
    t.ev_last <- Array.make (Netlist.net_count t.nl) Obs.Event.no_cause;
    t.ev_labels <- Netlist.net_labels t.nl;
    t.ev_dff_cause <- Array.make (Array.length t.dff_d) Obs.Event.no_cause
  end;
  t.ev_on <- true;
  if not (Obs.Event.enabled ()) then Obs.Event.enable ()

let[@inline] emitting t = t.ev_on && Obs.Event.enabled ()

(* A change event on net [n], valued with its lane-0 bit.  Every
   emission below allocates nothing (see Obs.Event.record). *)
let ev_net t n kind cause =
  t.ev_last.(n) <-
    Obs.Event.record ~time:0 ~cycle:t.n_cycles ~lane:(-1)
      ~value:(t.values.(n) land 1) ~cause kind t.ev_labels.(n)

(* Cell [ci] moved its output: a change caused by the latest change
   among its inputs. *)
let ev_cell t ci =
  let c = t.order.(ci) in
  let ins = c.Netlist.ins in
  let best = ref Obs.Event.no_cause in
  for k = 0 to Array.length ins - 1 do
    let e = t.ev_last.(ins.(k)) in
    if e > !best then best := e
  done;
  ev_net t c.out Obs.Event.Net_change !best

let[@inline] schedule t ci =
  if not (Array.unsafe_get t.pending ci) then begin
    Array.unsafe_set t.pending ci true;
    let l = Array.unsafe_get t.level ci in
    let f = Array.unsafe_get t.bucket_fill l in
    Array.unsafe_set t.bucket (Array.unsafe_get t.bucket_start l + f) ci;
    Array.unsafe_set t.bucket_fill l (f + 1)
  end

(* Schedule the combinational readers of net [n]. *)
let wake t n =
  let fs = t.fanout_start in
  for k = Array.unsafe_get fs n to Array.unsafe_get fs (n + 1) - 1 do
    schedule t (Array.unsafe_get t.fanout k)
  done

let apply_fault t idx x = x land lnot t.f_mask.(idx) lor t.f_val.(idx)

(* Per-lane coverage and activity for word [w] of net [n], moved by
   change mask [ch] to value [now]. *)
let record_lanes t n w ch now =
  for b = 0 to min lane_bits (t.lanes - (w * lane_bits)) - 1 do
    if (ch lsr b) land 1 = 1 then begin
      let lane = (w * lane_bits) + b in
      if Array.length t.cover > 0 then
        Cover.Toggle.record t.cover.(lane) n ~rising:((now lsr b) land 1 = 1);
      if Array.length t.activity > 0 then
        Cover.Activity.record t.activity.(lane) n
    end
  done

(* Toggle accounting for word [w] of net [n], written inside the epoch
   with change mask [ch] to value [now]: the lane-0 counter always,
   per-lane coverage and activity sampling when enabled. *)
let[@inline] account t n w ch now =
  if w = 0 then
    Array.unsafe_set t.toggles n (Array.unsafe_get t.toggles n + (ch land 1));
  if Array.length t.cover > 0 || Array.length t.activity > 0 then
    record_lanes t n w ch now

(* Write [x] as word [w] of net [n], stored at [idx] = [w*n_nets + n], with
   any fault forces applied; true if it moved.  A move inside the epoch
   is accounted.  Every write of a simulated value goes through here:
   cell evaluation, the flip-flop commit and stimulus. *)
let[@inline] write_word t n idx w x =
  let x = if t.has_faults then apply_fault t idx x else x in
  let old = Array.unsafe_get t.values idx in
  old <> x
  && begin
       Array.unsafe_set t.values idx x;
       if t.in_epoch then account t n w (old lxor x) x;
       true
     end

(* Evaluate instruction [ci], writing only moved words; true if any
   lane changed.  Word 0 is straight-line, so a single-word simulation
   runs no word loop; wider ones loop over the words after it. *)
let[@inline] eval_cell t ci =
  let v = t.values and prog = t.prog and mask = t.word_mask in
  let pc = ci * op_slots in
  let n = Array.unsafe_get prog (pc + 1) in
  let changed =
    ref (write_word t n n 0 (eval_op v prog 0 (Array.unsafe_get mask 0) pc))
  in
  for w = 1 to t.nw - 1 do
    let off = w * t.n_nets in
    if
      write_word t n (off + n) w
        (eval_op v prog off (Array.unsafe_get mask w) pc)
    then changed := true
  done;
  if !changed && t.in_epoch then t.n_touched <- t.n_touched + 1;
  !changed

let count_full_settle t =
  let n = Array.length t.order in
  t.n_evals <- t.n_evals + n;
  t.n_full_settles <- t.n_full_settles + 1;
  Perf.incr ~by:n ctr_evals;
  Obs.Hist.observe_int hist_evals n;
  if t.profiling then
    Array.iteri (fun ci c -> t.eval_counts.(ci) <- c + 1) t.eval_counts

let settle_full t =
  for ci = 0 to Array.length t.order - 1 do
    ignore (eval_cell t ci)
  done;
  count_full_settle t

(* One settle in event mode: either a forced full pass (first settle, in
   program order) or an ascending-level sweep of the scheduled cells,
   each level's slice drained newest first.  A cell's fanout lives at
   strictly higher levels, so each level's slice is complete when
   reached and does not grow while it drains. *)
let settle_event t =
  if t.need_full then begin
    t.need_full <- false;
    for ci = 0 to Array.length t.order - 1 do
      if eval_cell t ci && emitting t then ev_cell t ci
    done;
    count_full_settle t;
    Perf.incr ctr_full;
    (* Anything scheduled beforehand was just evaluated. *)
    Array.iteri
      (fun l f ->
        for k = t.bucket_start.(l) to t.bucket_start.(l) + f - 1 do
          t.pending.(t.bucket.(k)) <- false
        done;
        t.bucket_fill.(l) <- 0)
      t.bucket_fill
  end
  else begin
    let evals = ref 0 in
    let fill = t.bucket_fill and bucket = t.bucket and pending = t.pending in
    for l = 0 to Array.length fill - 1 do
      let start = Array.unsafe_get t.bucket_start l in
      let f = Array.unsafe_get fill l in
      Array.unsafe_set fill l 0;
      for k = start + f - 1 downto start do
        let ci = Array.unsafe_get bucket k in
        Array.unsafe_set pending ci false;
        if t.profiling then t.eval_counts.(ci) <- t.eval_counts.(ci) + 1;
        if eval_cell t ci then begin
          if emitting t then ev_cell t ci;
          wake t (Array.unsafe_get t.prog ((ci * op_slots) + 1))
        end
      done;
      evals := !evals + f
    done;
    t.n_evals <- t.n_evals + !evals;
    Perf.incr ~by:!evals ctr_evals;
    Obs.Hist.observe_int hist_evals !evals;
    let skipped = Array.length t.order - !evals in
    t.n_skipped <- t.n_skipped + skipped;
    Perf.incr ~by:skipped ctr_skipped
  end

let settle_inner t =
  match t.mode with Full_eval -> settle_full t | Event_driven -> settle_event t

let settle t =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"nl_sim.settle" (fun () ->
        let e0 = t.n_evals in
        settle_inner t;
        Obs.Span.add_attr_int "evals" (t.n_evals - e0))
  else settle_inner t

(* ------------------------------------------------------------------ *)
(* Stimulus                                                            *)

(* Drive word [w] of input net [n] from outside; true if it moved. *)
let stim_word t n w x = write_word t n ((w * t.n_nets) + n) w x

(* A stimulus moved input net [n] in at least one word: wake its
   combinational readers in event mode and log one event for the net. *)
let stimulated t n =
  if t.mode = Event_driven then wake t n;
  if emitting t then ev_net t n Obs.Event.Stimulus Obs.Event.no_cause

(* Every lane of net [n] to [b]. *)
let drive_bit t n b =
  let moved = ref false in
  for w = 0 to t.nw - 1 do
    if stim_word t n w (if b then t.word_mask.(w) else 0) then moved := true
  done;
  if !moved then stimulated t n

let port_nets tbl name =
  match Hashtbl.find_opt tbl name with
  | Some nets -> nets
  | None -> raise Not_found

let check_lane t lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg
      (Printf.sprintf "Nl_sim: lane %d out of range (%d lanes)" lane t.lanes)

let check_width name bv nets =
  if Bitvec.width bv <> Array.length nets then
    invalid_arg
      (Printf.sprintf "Nl_sim.set_input %s: width %d expected %d" name
         (Bitvec.width bv) (Array.length nets))

(* Prebound input-port handles: the stimulus hot path pays the name
   lookup once, then drives bits straight out of a machine word (no
   per-bit [Bitvec.get] limb arithmetic for ports up to 62 bits). *)
type port = { p_name : string; p_nets : Netlist.net array }

let in_port t name = { p_name = name; p_nets = port_nets t.in_nets name }

let drive_port_int t p v =
  let nets = p.p_nets in
  for i = 0 to Array.length nets - 1 do
    (* Bit [i] of the two's-complement int [v] ([asr] caps at the sign). *)
    drive_bit t (Array.unsafe_get nets i) ((v asr min i 62) land 1 = 1)
  done

let drive_port t p bv =
  check_width p.p_name bv p.p_nets;
  if Array.length p.p_nets <= 62 then drive_port_int t p (Bitvec.to_int bv)
  else Array.iteri (fun i n -> drive_bit t n (Bitvec.get bv i)) p.p_nets

let set_input t name bv = drive_port t (in_port t name) bv
let set_input_int t name v = drive_port_int t (in_port t name) v

let set_input_lane t ~lane name bv =
  check_lane t lane;
  let nets = port_nets t.in_nets name in
  check_width name bv nets;
  let w = lane / lane_bits and bit = 1 lsl (lane mod lane_bits) in
  Array.iteri
    (fun i n ->
      let cur = t.values.((w * t.n_nets) + n) in
      let x = if Bitvec.get bv i then cur lor bit else cur land lnot bit in
      if stim_word t n w x then stimulated t n)
    nets

(* Per-lane stimulus for a whole port at once: [cols.(i)] holds bit [i]
   of every lane (width [lanes]) — the output of {!Bitvec.transpose}
   applied to per-lane port values. *)
let set_input_packed t name cols =
  let nets = port_nets t.in_nets name in
  if Array.length cols <> Array.length nets then
    invalid_arg
      (Printf.sprintf "Nl_sim.set_input_packed %s: %d columns expected %d"
         name (Array.length cols) (Array.length nets));
  Array.iteri
    (fun i n ->
      let col = cols.(i) in
      if Bitvec.width col <> t.lanes then
        invalid_arg
          (Printf.sprintf
             "Nl_sim.set_input_packed %s: column width %d expected %d lanes"
             name (Bitvec.width col) t.lanes);
      let moved = ref false in
      for w = 0 to t.nw - 1 do
        let lo = w * lane_bits in
        let x = ref 0 in
        for b = min t.lanes (lo + lane_bits) - 1 downto lo do
          x := (!x lsl 1) lor Bool.to_int (Bitvec.get col b)
        done;
        if stim_word t n w !x then moved := true
      done;
      if !moved then stimulated t n)
    nets

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)

let read_lane_bit t n lane =
  t.values.((lane / lane_bits * t.n_nets) + n) lsr (lane mod lane_bits) land 1
  = 1

let get_output ?(lane = 0) t name =
  check_lane t lane;
  let nets = port_nets t.out_nets name in
  let w = lane / lane_bits and b = lane mod lane_bits in
  Bitvec.init (Array.length nets) (fun i ->
      (t.values.((w * t.n_nets) + nets.(i)) lsr b) land 1 = 1)

let get_output_int ?lane t name = Bitvec.to_int (get_output ?lane t name)

let get_output_packed t name =
  Array.map
    (fun n -> Bitvec.init t.lanes (read_lane_bit t n))
    (port_nets t.out_nets name)

(* Lanes whose value on [port] differs from the golden lane 0 —
   computed on the packed words, one xor per word per bit of the port. *)
let diverging_lanes t name =
  let diff = Array.make t.nw 0 in
  Array.iter
    (fun n ->
      let expect = if t.values.(n) land 1 = 1 then -1 else 0 in
      for w = 0 to t.nw - 1 do
        diff.(w) <-
          diff.(w)
          lor ((t.values.((w * t.n_nets) + n) lxor expect) land t.word_mask.(w))
      done)
    (port_nets t.out_nets name);
  let acc = ref [] in
  for w = t.nw - 1 downto 0 do
    let d = diff.(w) in
    if d <> 0 then
      for b = lane_bits - 1 downto 0 do
        if (d lsr b) land 1 = 1 then acc := (w * lane_bits) + b :: !acc
      done
  done;
  !acc

let net_value t n = t.values.(n) land 1 = 1

(* Hinted internal nets, for hierarchical waveform probes.  Port nets
   are excluded — they are traced under their port names already. *)
let probes t =
  let port_net = Hashtbl.create 64 in
  List.iter
    (fun (_, nets) -> Array.iter (fun n -> Hashtbl.replace port_net n ()) nets)
    (Netlist.inputs t.nl @ Netlist.outputs t.nl);
  let acc = ref [] in
  for n = Netlist.net_count t.nl - 1 downto 0 do
    if (not (Hashtbl.mem port_net n)) && Netlist.hint_of t.nl n <> None then
      acc := (Netlist.describe_net t.nl n, n) :: !acc
  done;
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Clock cycle                                                         *)

(* The clock edge reads and writes flat index arrays: flip-flop [i]
   samples [dff_d.(i)] into slot [i] of [dff_buf], then commits it to
   [dff_q.(i)]. *)
let sample_dffs t =
  let nw = t.nw and v = t.values and buf = t.dff_buf and d = t.dff_d in
  for i = 0 to Array.length d - 1 do
    let src = Array.unsafe_get d i and dst = i * nw in
    Array.unsafe_set buf dst (Array.unsafe_get v src);
    for w = 1 to nw - 1 do
      Array.unsafe_set buf (dst + w) (Array.unsafe_get v ((w * t.n_nets) + src))
    done
  done;
  t.n_evals <- t.n_evals + Array.length d;
  Perf.incr ~by:(Array.length d) ctr_evals

(* With [emit], each flip-flop's cause is the change that last moved
   its D input, sampled before the first commit, not by commits of
   other flip-flops this edge. *)
let sample_dff_causes t =
  let d = t.dff_d and causes = t.ev_dff_cause and last = t.ev_last in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set causes i (Array.unsafe_get last (Array.unsafe_get d i))
  done

(* Commit the sampled values; a moved Q net wakes its readers once and,
   with [emit], logs one change event whatever its number of words. *)
let commit_dffs t ~emit =
  let nw = t.nw and buf = t.dff_buf and q = t.dff_q in
  let event = t.mode = Event_driven in
  if emit then sample_dff_causes t;
  for i = 0 to Array.length q - 1 do
    let n = Array.unsafe_get q i in
    let src = i * nw in
    let moved = ref (write_word t n n 0 (Array.unsafe_get buf src)) in
    for w = 1 to nw - 1 do
      if write_word t n ((w * t.n_nets) + n) w (Array.unsafe_get buf (src + w))
      then moved := true
    done;
    if !moved then begin
      t.n_touched <- t.n_touched + 1;
      if event then wake t n;
      if emit then ev_net t n Obs.Event.Net_change t.ev_dff_cause.(i)
    end
  done

(* Advance every lane's activity window once per clock cycle. *)
let end_activity_cycle t = Array.iter Cover.Activity.end_cycle t.activity

(* Flush pending input changes first; the toggle epoch then covers
   exactly the clock edge and the post-edge settle.  [Full_eval] logs
   no flip-flop commits and no coverage epochs. *)
let step_inner t =
  settle_inner t;
  sample_dffs t;
  let emit = t.mode = Event_driven && emitting t in
  t.in_epoch <- true;
  t.n_touched <- 0;
  commit_dffs t ~emit;
  t.n_cycles <- t.n_cycles + 1;
  settle_inner t;
  t.in_epoch <- false;
  Obs.Hist.observe_int hist_touched t.n_touched;
  end_activity_cycle t;
  if emit && Array.length t.cover > 0 then
    ignore
      (Obs.Event.record ~time:0 ~cycle:t.n_cycles ~lane:(-1) ~value:0
         ~cause:Obs.Event.no_cause Obs.Event.Cover_epoch (Netlist.name t.nl))

let step t =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"nl_sim.step"
      ~attrs:[ ("cycle", string_of_int t.n_cycles) ]
      (fun () ->
        let e0 = t.n_evals in
        step_inner t;
        Obs.Span.add_attr_int "evals" (t.n_evals - e0))
  else step_inner t

let run t n =
  for _ = 1 to n do
    step t
  done

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let inject_stuck_at t ~lane ~net ~value =
  check_lane t lane;
  if net < 0 || net >= Netlist.net_count t.nl then
    invalid_arg
      (Printf.sprintf "Nl_sim.inject_stuck_at: net %d out of range" net);
  if not t.has_faults then begin
    t.f_mask <- Array.make (Array.length t.values) 0;
    t.f_val <- Array.make (Array.length t.values) 0;
    t.has_faults <- true
  end;
  let idx = (lane / lane_bits * t.n_nets) + net in
  let bit = 1 lsl (lane mod lane_bits) in
  t.f_mask.(idx) <- t.f_mask.(idx) lor bit;
  t.f_val.(idx) <-
    (if value then t.f_val.(idx) lor bit else t.f_val.(idx) land lnot bit);
  t.n_faults <- t.n_faults + 1;
  (* Apply immediately, so faults on input and flip-flop nets (which no
     combinational evaluation rewrites) take effect from the next
     settle; downstream logic is rescheduled. *)
  let x = apply_fault t idx t.values.(idx) in
  if t.values.(idx) <> x then begin
    t.values.(idx) <- x;
    match t.mode with Event_driven -> wake t net | Full_eval -> ()
  end;
  if emitting t then
    t.ev_last.(net) <-
      Obs.Event.emit ~cycle:t.n_cycles ~lane ~value:(Bool.to_int value)
        ~cause:t.ev_last.(net) Obs.Event.Fault t.ev_labels.(net)

let faults t = t.n_faults

(* ------------------------------------------------------------------ *)
(* Coverage, power sampling and profiling                              *)

let lane_collector t arr lane =
  check_lane t lane;
  if Array.length arr = 0 then None else Some arr.(lane)

let enable_toggle_cover t =
  if Array.length t.cover = 0 then begin
    let names = Netlist.net_labels t.nl in
    t.cover <- Array.init t.lanes (fun _ -> Cover.Toggle.create ~names)
  end

let lane_cover t lane = lane_collector t t.cover lane
let toggle_cover t = lane_cover t 0

let enable_power_sampler ?window t =
  if Array.length t.activity = 0 then begin
    let slots = Netlist.net_count t.nl in
    t.activity <-
      Array.init t.lanes (fun _ -> Cover.Activity.create ?window ~slots ())
  end

let lane_activity t lane = lane_collector t t.activity lane
let power_activity t = lane_activity t 0

let enable_profile t =
  if not t.profiling then begin
    t.profiling <- true;
    t.eval_counts <- Array.make (Array.length t.order) 0
  end

let profiling t = t.profiling

let by_count_desc (la, a) (lb, b) =
  if a <> b then compare b a else compare la lb

let net_activity t =
  let labels = Netlist.net_labels t.nl in
  let acc = ref [] in
  Array.iteri
    (fun n c -> if c > 0 then acc := (labels.(n), c) :: !acc)
    t.toggles;
  List.sort by_count_desc !acc

let cell_activity t =
  let labels = if t.profiling then Netlist.net_labels t.nl else [||] in
  let acc = ref [] in
  Array.iteri
    (fun ci c ->
      if c > 0 then
        let cell = t.order.(ci) in
        acc :=
          ( Printf.sprintf "%s:%s" labels.(cell.Netlist.out)
              (Cell.name cell.Netlist.kind),
            c )
          :: !acc)
    t.eval_counts;
  List.sort by_count_desc !acc

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore: packed net values plus the event-driven
   scheduler state and the cycle count.  Fault forces, toggle counters,
   coverage and activity are deliberately not captured — a restore
   rewinds simulation state, not the observability accumulated about
   it, and keeps whatever faults are currently armed. *)

type checkpoint = {
  ck_values : int array;
  ck_pending : bool array;
  ck_bucket : int array;
  ck_fill : int array;
  ck_need_full : bool;
  ck_cycles : int;
}

let checkpoint t =
  if emitting t then
    ignore
      (Obs.Event.emit ~cycle:t.n_cycles Obs.Event.Checkpoint
         (Netlist.name t.nl));
  {
    ck_values = Array.copy t.values;
    ck_pending = Array.copy t.pending;
    ck_bucket = Array.copy t.bucket;
    ck_fill = Array.copy t.bucket_fill;
    ck_need_full = t.need_full;
    ck_cycles = t.n_cycles;
  }

let restore t ck =
  Array.blit ck.ck_values 0 t.values 0 (Array.length t.values);
  Array.blit ck.ck_pending 0 t.pending 0 (Array.length t.pending);
  Array.blit ck.ck_bucket 0 t.bucket 0 (Array.length t.bucket);
  Array.blit ck.ck_fill 0 t.bucket_fill 0 (Array.length t.bucket_fill);
  t.need_full <- ck.ck_need_full;
  t.n_cycles <- ck.ck_cycles;
  (* Cause links must not leap across the rewind. *)
  Array.fill t.ev_last 0 (Array.length t.ev_last) Obs.Event.no_cause

let checkpoint_cycle ck = ck.ck_cycles

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let lanes t = t.lanes
let mode t = t.mode
let netlist t = t.nl
let cycles t = t.n_cycles
let gate_evals t = t.n_evals
let cells_skipped t = t.n_skipped
let comb_cells t = Array.length t.order
let program t = Array.copy t.prog
let dff_cells t = Array.length t.dff_q
let full_settles t = t.n_full_settles
let net_toggles t n = t.toggles.(n)
let toggle_total t = Array.fold_left ( + ) 0 t.toggles
