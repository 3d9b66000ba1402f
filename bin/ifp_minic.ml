(* Compile and run a MiniC source file on the simulated machine:

     ifp_minic FILE [CONFIG] [--dump-ir] [--dump-instrumented] [--trace]

   CONFIG is a name from Core.Report.named_configs (default: subheap). *)

module Cli = Ifp_campaign.Cli

let () =
  let file = ref None and cfg = ref None in
  let dump_ir = ref false and dump_instrumented = ref false in
  let trace = ref false in
  Cli.parse
    ~anon:(fun a ->
      match (!file, !cfg) with
      | None, _ -> file := Some a
      | Some _, None ->
        cfg := Some (a, Cli.lookup "config" Core.Report.named_configs a)
      | Some _, Some _ -> raise (Arg.Bad ("unexpected argument " ^ a)))
    [
      ("--dump-ir", Arg.Set dump_ir, " print the parsed program");
      ( "--dump-instrumented",
        Arg.Set dump_instrumented,
        " print the program after the instrumentation pass" );
      ("--trace", Arg.Set trace, " print the first 64 metadata events");
    ]
    ("usage: ifp_minic FILE [CONFIG] [OPTIONS]\nCONFIG: "
    ^ String.concat " " (List.map fst Core.Report.named_configs)
    ^ " (default: subheap)");
  let file =
    match !file with
    | Some f -> f
    | None ->
      prerr_endline "ifp_minic: missing FILE (see --help)";
      exit 1
  in
  let cfg_name, config =
    Option.value !cfg ~default:("subheap", Core.Vm.ifp_subheap)
  in
  let src = In_channel.with_open_text file In_channel.input_all in
  let prog =
    try Core.Parser.parse src with
    | Core.Parser.Parse_error (m, line) ->
      Printf.eprintf "%s:%d: parse error: %s\n" file line m;
      exit 1
    | Core.Lexer.Lex_error (m, line) ->
      Printf.eprintf "%s:%d: lex error: %s\n" file line m;
      exit 1
  in
  (try Core.Typecheck.check_program prog
   with Core.Typecheck.Type_error m ->
     Printf.eprintf "%s: type error: %s\n" file m;
     exit 1);
  if !dump_ir then
    print_string (Core.Ir_pp.program_to_string prog);
  if !dump_instrumented then begin
    let instr, _ = Core.Instrument.run prog in
    print_string (Core.Ir_pp.program_to_string instr)
  end;
  let config = if !trace then { config with trace_limit = 64 } else config in
  let r = Core.Vm.run ~config prog in
  List.iter
    (fun (ev : Core.Vm.trace_event) ->
      match ev with
      | Core.Vm.T_promote { ptr; outcome; bounds } ->
        Printf.printf "trace: promote 0x%Lx -> %s %s\n" ptr outcome bounds
      | Core.Vm.T_register { what; ptr; size } ->
        Printf.printf "trace: register %s 0x%Lx (%d B)\n" what ptr size
      | Core.Vm.T_deregister { what; ptr } ->
        Printf.printf "trace: deregister %s 0x%Lx\n" what ptr
      | Core.Vm.T_trap msg -> Printf.printf "trace: TRAP %s\n" msg)
    r.Core.Vm.trace;
  List.iter print_endline r.Core.Vm.output;
  let c = r.Core.Vm.counters in
  Printf.printf "[%s] %s\n" cfg_name
    (match r.Core.Vm.outcome with
    | Core.Vm.Finished x -> Printf.sprintf "exited with %Ld" x
    | Core.Vm.Trapped t -> "TRAP: " ^ Core.Trap.to_string t
    | Core.Vm.Aborted m -> "abort: " ^ Core.Vm.abort_reason_string m);
  Printf.printf
    "[%s] %d instructions (%d IFP), %d cycles, %d promotes (%d valid), footprint %d B\n"
    cfg_name
    (Core.Counters.total_instrs c)
    (Core.Counters.ifp_total c) c.cycles
    (Core.Counters.promotes_total c)
    c.promotes_valid r.Core.Vm.mem_footprint

