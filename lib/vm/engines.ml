(* Engine selection: one place that maps the [config.engine] field (and
   the CLI's [--engine] spelling) to an actual engine entry point. The
   campaign layer's default runner goes through {!run}, so a job's
   config picks its engine without any caller plumbing. *)

let of_string = function
  | "vm-ref" -> Some Rt.Eng_ref
  | "closure" -> Some Rt.Eng_closure
  | _ -> None

let to_string = function
  | Rt.Eng_ref -> "vm-ref"
  | Rt.Eng_closure -> "closure"

(* every engine, oracle first (bench matrix columns, agreement checks) *)
let all = [ Rt.Eng_ref; Rt.Eng_closure ]

let names = List.map to_string all

let run ?(config = Rt.default_config) (prog : Ifp_compiler.Ir.program) :
    Vm.result =
  match config.engine with
  | Rt.Eng_ref -> Vm_ref.run ~config prog
  | Rt.Eng_closure -> Vm.run ~config prog
