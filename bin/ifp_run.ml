(* Run one workload (or all) under a chosen configuration and print its
   dynamic statistics. *)

open Cmdliner

let variant_of_string = function
  | "baseline" -> Ok Core.Vm.baseline
  | "subheap" -> Ok Core.Vm.ifp_subheap
  | "wrapped" -> Ok Core.Vm.ifp_wrapped
  | "subheap-np" -> Ok (Core.Vm.no_promote Core.Vm.Alloc_subheap)
  | "wrapped-np" -> Ok (Core.Vm.no_promote Core.Vm.Alloc_wrapped)
  | "mixed" -> Ok Core.Vm.ifp_mixed
  | "no-narrowing" -> Ok (Core.Vm.no_narrowing Core.Vm.Alloc_subheap)
  | "infer-types" -> Ok { Core.Vm.ifp_subheap with infer_alloc_types = true }
  | s -> Error (`Msg ("unknown variant " ^ s))

let engine_of_string s =
  match Core.Engines.of_string s with
  | Some e -> Ok e
  | None ->
    Error
      (`Msg
        (Printf.sprintf "unknown engine %s (expected %s)" s
           (String.concat " | " Core.Engines.names)))

let run_one ~verbose name cfg_name cfg =
  match Ifp_workloads.Registry.find name with
  | None ->
    Printf.eprintf "unknown workload %s (have: %s)\n" name
      (String.concat ", " Ifp_workloads.Registry.names);
    exit 1
  | Some wl ->
    let prog = Lazy.force wl.Ifp_workloads.Workload.prog in
    let t0 = Sys.time () in
    let r = Core.Engines.run ~config:cfg prog in
    let dt = Sys.time () -. t0 in
    let open Core in
    let c = r.Vm.counters in
    Printf.printf "%-12s %-11s %-22s instrs=%-10d cycles=%-11d promotes=%-8d valid=%-8d footprint=%-9d (%.2fs)\n"
      name cfg_name
      (match r.Vm.outcome with
      | Vm.Finished x -> Printf.sprintf "ret=%Ld" x
      | Vm.Trapped t -> "TRAP " ^ Trap.to_string t
      | Vm.Aborted m -> "ABORT " ^ Vm.abort_reason_string m)
      (Counters.total_instrs c) c.cycles
      (Counters.ifp_count c Insn.Promote)
      c.promotes_valid r.Vm.mem_footprint dt;
    if verbose then begin
      Printf.printf "  objects: %d global (%d LT), %d local (%d LT), %d heap (%d LT)\n"
        c.global_objs c.global_objs_layout c.local_objs c.local_objs_layout
        c.heap_objs c.heap_objs_layout;
      Printf.printf "  promote mix: valid=%d null=%d legacy=%d poisoned=%d invalid=%d subobj=%d narrows ok/fail=%d/%d\n"
        c.promotes_valid c.promotes_null c.promotes_legacy c.promotes_poisoned
        c.promotes_invalid_meta c.promotes_subobj c.narrows_ok c.narrows_failed;
      Printf.printf "  ifp mix:";
      List.iter
        (fun k ->
          let n = Counters.ifp_count c k in
          if n > 0 then Printf.printf " %s=%d" (Insn.mnemonic k) n)
        Insn.all;
      print_newline ();
      Printf.printf "  cache: %d accesses, %d misses; alloc: %s\n"
        r.Vm.cache_accesses r.Vm.cache_misses
        (String.concat ", "
           (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.Vm.alloc_extra))
    end

let main workload variants engine verbose =
  let names =
    match workload with
    | "all" -> Ifp_workloads.Registry.names
    | w -> [ w ]
  in
  let variants =
    match variants with
    | [] -> [ "baseline"; "subheap"; "wrapped" ]
    | vs -> vs
  in
  List.iter
    (fun name ->
      List.iter
        (fun vname ->
          match variant_of_string vname with
          | Ok cfg -> run_one ~verbose name vname { cfg with Core.Vm.engine }
          | Error (`Msg m) ->
            Printf.eprintf "%s\n" m;
            exit 1)
        variants)
    names

let workload_arg =
  Arg.(value & pos 0 string "all" & info [] ~docv:"WORKLOAD"
         ~doc:"Workload name, or 'all'.")

let variants_arg =
  Arg.(value & opt_all string [] & info [ "variant"; "c" ] ~docv:"VARIANT"
         ~doc:
           "baseline | subheap | wrapped | subheap-np | wrapped-np | mixed | \
            no-narrowing | infer-types (repeatable)")

let engine_arg =
  let engine_conv =
    Arg.conv
      ( engine_of_string,
        fun fmt e -> Format.pp_print_string fmt (Core.Engines.to_string e) )
  in
  Arg.(value & opt engine_conv Core.Vm.default_config.engine
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:
             ("Execution engine: " ^ String.concat " | " Core.Engines.names
            ^ ". All engines produce identical results; they differ only \
               in host speed."))

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print detailed counters.")

let cmd =
  Cmd.v
    (Cmd.info "ifp_run" ~doc:"Run an In-Fat Pointer benchmark workload")
    Term.(const main $ workload_arg $ variants_arg $ engine_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
