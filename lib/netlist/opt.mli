(** Post-synthesis netlist optimization.

    Construction-time folding (constant propagation, structural hashing,
    mux simplification) already runs inside {!Netlist}; this pass adds a
    global sweep: only cells transitively needed by a primary output are
    kept, and the survivors are re-built through the folding
    constructors, which re-applies local rewrites across the whole
    netlist. *)

val optimize : Netlist.t -> Netlist.t
(** Dead-cell elimination plus re-folding.  The survivors are rebuilt
    in the frozen topological order ({!Netlist.freeze}), so every
    driver exists before its readers; an undriven net reads as
    constant zero.  Raises {!Netlist.Combinational_loop} on a
    combinational cycle. *)

