(* Run one workload (or all) under a chosen configuration and print its
   dynamic statistics:

     ifp_run [WORKLOAD|all] [-c|--variant CONFIG]... [--engine ENGINE] [-v]

   CONFIG is a name from Core.Report.named_configs (default: baseline,
   subheap and wrapped); ENGINE is one of Core.Engines.names. *)

module Cli = Ifp_campaign.Cli

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

let () =
  let workload = ref None and variants = ref [] in
  let engine = ref Core.Vm.default_config.engine and verbose = ref false in
  let variant =
    Arg.Symbol
      ( List.map fst Core.Report.named_configs,
        fun v -> variants := !variants @ [ v ] )
  in
  Cli.parse
    ~anon:(fun w ->
      if !workload <> None then raise (Arg.Bad ("unexpected argument " ^ w));
      workload := Some w)
    [
      ( "-c",
        variant,
        " configuration, alias --variant (repeatable; default: baseline, \
         subheap, wrapped)" );
      ("--variant", variant, "");
      ( "--engine",
        Arg.Symbol
          ( Core.Engines.names,
            fun e -> engine := Option.get (Core.Engines.of_string e) ),
        " execution engine (all give identical results; default: "
        ^ Core.Engines.to_string !engine ^ ")" );
      ("-v", Arg.Set verbose, " print detailed counters, alias --verbose");
      ("--verbose", Arg.Set verbose, "");
    ]
    "usage: ifp_run [WORKLOAD] [OPTIONS]\nWORKLOAD: a workload name, or all \
     (the default)";
  let names =
    match !workload with
    | None | Some "all" -> Ifp_workloads.Registry.names
    | Some w -> [ w ]
  in
  let variants =
    match !variants with [] -> [ "baseline"; "subheap"; "wrapped" ] | vs -> vs
  in
  List.iter
    (fun name ->
      List.iter
        (fun vname ->
          let cfg = List.assoc vname Core.Report.named_configs in
          run_one ~verbose:!verbose name vname
            { cfg with Core.Vm.engine = !engine })
        variants)
    names
