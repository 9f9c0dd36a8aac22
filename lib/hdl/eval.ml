type value = Scalar of Bitvec.t | Arr of Bitvec.t array

type env = (int, value) Hashtbl.t

let create () : env = Hashtbl.create 64

let set env (v : Ir.var) bv =
  assert (Bitvec.width bv = v.Ir.width);
  Hashtbl.replace env v.Ir.id (Scalar bv)

let get env (v : Ir.var) =
  match Hashtbl.find_opt env v.Ir.id with
  | Some (Scalar bv) -> bv
  | Some (Arr _) -> invalid_arg ("Eval.get: array " ^ v.Ir.var_name)
  | None -> Bitvec.zero v.Ir.width

let get_array env (v : Ir.var) =
  match Hashtbl.find_opt env v.Ir.id with
  | Some (Arr a) -> a
  | Some (Scalar _) -> invalid_arg ("Eval.get_array: scalar " ^ v.Ir.var_name)
  | None ->
      let a = Array.make v.Ir.depth (Bitvec.zero v.Ir.width) in
      Hashtbl.replace env v.Ir.id (Arr a);
      a

let set_array_elem env v i bv =
  let a = get_array env v in
  if i >= 0 && i < Array.length a then a.(i) <- bv

let bool_bv b = Bitvec.of_bool b

let rec eval_expr env (e : Ir.expr) =
  match e with
  | Const c -> c
  | Var v -> get env v
  | Array_read (v, idx) ->
      let a = get_array env v in
      let i = Bitvec.to_int (eval_expr env idx) in
      if i < Array.length a then a.(i) else Bitvec.zero v.Ir.width
  | Unop (op, e) -> (
      let x = eval_expr env e in
      match op with
      | Not -> Bitvec.lognot x
      | Neg -> Bitvec.neg x
      | Reduce_and -> bool_bv (Bitvec.reduce_and x)
      | Reduce_or -> bool_bv (Bitvec.reduce_or x)
      | Reduce_xor -> bool_bv (Bitvec.reduce_xor x))
  | Binop (op, a, b) -> (
      let x = eval_expr env a and y = eval_expr env b in
      match op with
      | Add -> Bitvec.add x y
      | Sub -> Bitvec.sub x y
      | Mul -> Bitvec.mul x y
      | And -> Bitvec.logand x y
      | Or -> Bitvec.logor x y
      | Xor -> Bitvec.logxor x y
      | Eq -> bool_bv (Bitvec.equal x y)
      | Ne -> bool_bv (not (Bitvec.equal x y))
      | Ult -> bool_bv (Bitvec.ult x y)
      | Ule -> bool_bv (Bitvec.ule x y)
      | Slt -> bool_bv (Bitvec.slt x y)
      | Sle -> bool_bv (Bitvec.sle x y)
      | Shl | Lshr | Ashr ->
          (* A shift by more than the width saturates to the width, which
             keeps the OCaml int conversion safe for any operand. *)
          let w = Bitvec.width x in
          let amount =
            match Bitvec.to_int y with
            | n -> min n w
            | exception Bitvec.Invalid_bitvec _ -> w
          in
          (match op with
          | Shl -> Bitvec.shift_left x amount
          | Lshr -> Bitvec.shift_right_logical x amount
          | Ashr -> Bitvec.shift_right_arith x amount
          | _ -> assert false))
  | Mux (s, t, e) ->
      if Bitvec.lsb (eval_expr env s) then eval_expr env t else eval_expr env e
  | Slice (e, hi, lo) -> Bitvec.slice (eval_expr env e) ~hi ~lo
  | Concat (a, b) -> Bitvec.concat (eval_expr env a) (eval_expr env b)
  | Resize (signed, e, w) -> Bitvec.resize ~signed (eval_expr env e) w

let rec run_stmt env (st : Ir.stmt) =
  match st with
  | Assign (v, e) -> set env v (eval_expr env e)
  | Assign_slice (v, lo, e) ->
      let field = eval_expr env e in
      set env v (Bitvec.set_slice (get env v) ~lo field)
  | Array_write (v, idx, e) ->
      let i = Bitvec.to_int (eval_expr env idx) in
      set_array_elem env v i (eval_expr env e)
  | If (c, t, e) ->
      if Bitvec.lsb (eval_expr env c) then run_body env t else run_body env e
  | Case (s, arms, dflt) ->
      let scrutinee = eval_expr env s in
      let rec pick = function
        | [] -> run_body env dflt
        | (label, body) :: rest ->
            if Bitvec.equal label scrutinee then run_body env body
            else pick rest
      in
      pick arms

and run_body env body = List.iter (run_stmt env) body
