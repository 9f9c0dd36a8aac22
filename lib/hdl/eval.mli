(** Concrete evaluation of IR expressions and statement bodies over a
    mutable environment: the reference semantics of the IR.  Used by
    the OSSS object simulator ([Osss.Sim_object]) and by the tests,
    whose reference RTL simulator is built on it; [Rtl_sim] compiles
    the same semantics instead of interpreting them. *)

type env

val create : unit -> env

val set : env -> Ir.var -> Bitvec.t -> unit
val get : env -> Ir.var -> Bitvec.t
(** Unset variables read as zero of the variable's width. *)

val set_array_elem : env -> Ir.var -> int -> Bitvec.t -> unit
val get_array : env -> Ir.var -> Bitvec.t array
(** The backing store (shared, not a copy). *)

val eval_expr : env -> Ir.expr -> Bitvec.t

val run_body : env -> Ir.stmt list -> unit
(** Executes statements sequentially with immediate-assignment
    semantics, mutating [env]. *)
