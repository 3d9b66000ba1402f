(* The production engine. The execution substrate — configuration,
   machine state, cost charging, checked access, promote, registration,
   setup, run scaffolding — lives in {!Rt}; {!Compile} lowers the
   resolved program to closures once per run, after globals setup with
   the full machine state known, and execution is a single call into
   main's compiled body. Compilation is host-side work and charges
   nothing. *)

include Rt

let run ?(config = default_config) ?profile (raw_prog : Ir.program) =
  run_with ~config raw_prog ~main_body:(fun st frame ->
      Compile.main_code (Compile.program ?profile st) frame)
