(** Engine dispatch: runs a program under the engine named by
    [config.engine]. All engines are observationally identical; see
    {!Vm.engine}. *)

val of_string : string -> Vm.engine option
(** ["vm-ref"], ["closure"]; [None] for anything else (CLI
    callers turn that into a usage message). *)

val to_string : Vm.engine -> string

val all : Vm.engine list
(** Every engine, oracle first: vm-ref, closure. *)

val names : string list
(** [List.map to_string all] — for usage strings. *)

val run : ?config:Vm.config -> Ifp_compiler.Ir.program -> Vm.result
(** Dispatches to {!Vm_ref.run} or {!Vm.run} according to
    [config.engine] (default config: {!Vm.run}). Same contract as
    {!Vm.run}. *)
