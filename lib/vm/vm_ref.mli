(** Reference interpreter: the name-keyed tree walker that predates
    slot resolution and the closure-compiled {!Vm}.

    Functionally identical to {!Vm.run} — same cost model, counters,
    traces, outcomes — but resolves every variable access through
    string-keyed hash tables and recomputes sizes/offsets/layout indices
    per access. It exists as the executable specification the production
    engine is differentially tested against (the vm, engines and temporal
    suites, the fuzz oracle, the [ifp_bench] comparison); it is not used
    by the experiment drivers.

    It builds its machine and assembles its result through the same
    {!Rt.Machine} harness as {!Vm.run}; what it keeps independent is the
    interpretation. *)

val run : ?config:Vm.config -> Ifp_compiler.Ir.program -> Vm.result
(** Same contract as {!Vm.run}, including the concurrency guarantees. *)
