(* Regenerate every table and figure of the paper's evaluation (§5):
     table2    — metadata-scheme constraints (Table 2)
     table4    — dynamic event counts (Table 4)
     fig10     — runtime overhead, subheap/wrapped +/- no-promote (Fig. 10)
     fig11     — dynamic IFP-instruction mix (Fig. 11)
     fig12     — memory overhead (Fig. 12)
     fig13     — hardware area model (Fig. 13)
     baselines — comparator schemes on the same runs (Table 1 / §5.2.2)
     juliet    — functional evaluation summary (§5.1)
     all       — everything above

   All VM runs are dispatched through the lib/campaign engine: the
   workload x config matrix is expanded into content-addressed jobs,
   executed on N worker domains, served from the on-disk result cache
   when unchanged, and observable through a JSONL event log. The tables
   printed on stdout are byte-identical for any N; an end-of-run
   aggregate is written to BENCH_experiments.json.

   Runs are crash-safe when given a write-ahead journal: each
   completion is CRC32-framed and flushed before the next job, so after
   a SIGKILL/OOM/power loss, resuming from the journal replays the
   finished prefix and re-runs only the rest — converging to tables and
   aggregates identical to an uninterrupted run. SIGINT/SIGTERM drain
   gracefully: running jobs finish and are journaled, pending jobs are
   skipped, and the process exits nonzero with a resume hint.

   Usage: ifp_experiments [TARGET] [--bench-out FILE] [CAMPAIGN FLAGS]
   The campaign flags (workers, cache, log, watchdog, retries, journal
   and resume) are those of Ifp_campaign.Cli; --help lists them all. *)

open Core
module W = Ifp_workloads.Workload
module Registry = Ifp_workloads.Registry
module Table = Ifp_util.Table
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Events = Ifp_campaign.Events
module Cli = Ifp_campaign.Cli

(* ---------------- the job matrix ---------------- *)

let row_jobs () =
  List.concat_map
    (fun (wl : W.t) ->
      let prog = Lazy.force wl.prog in
      List.map
        (fun (vname, config) ->
          Job.make
            ~name:(wl.name ^ "/" ^ vname)
            ~group:wl.name ~variant:vname ~config prog)
        Report.variants)
    Registry.all

let juliet_cases = lazy (Ifp_juliet.Juliet.all_cases ())

let juliet_configs =
  [
    ("baseline", Vm.baseline);
    ("wrapped", Vm.ifp_wrapped);
    ("subheap", Vm.ifp_subheap);
    ("subheap-np", Vm.no_promote Vm.Alloc_subheap);
  ]

(* the §5.3 walker ablation compares full narrowing against none *)
let juliet_ext_configs =
  [
    ("subheap", Vm.ifp_subheap);
    ("no-narrowing", Vm.no_narrowing Vm.Alloc_subheap);
  ]

let juliet_job_name case_id which cname =
  Printf.sprintf "juliet/%s/%s/%s" case_id which cname

let juliet_jobs cfgs =
  List.concat_map
    (fun (c : Ifp_juliet.Juliet.case) ->
      List.concat_map
        (fun (cname, config) ->
          [
            Job.make
              ~name:(juliet_job_name c.id "bad" cname)
              ~group:("juliet/" ^ c.id) ~variant:cname ~config c.bad;
            Job.make
              ~name:(juliet_job_name c.id "good" cname)
              ~group:("juliet/" ^ c.id) ~variant:cname ~config c.good;
          ])
        cfgs)
    (Lazy.force juliet_cases)

let infer_workloads = [ "wolfcrypt-dh"; "health"; "coremark" ]

let extensions_jobs () =
  let wl name = Option.get (Registry.find name) in
  let mixed =
    List.concat_map
      (fun name ->
        let prog = Lazy.force (wl name).W.prog in
        List.map
          (fun (vname, config) ->
            Job.make ~name:(name ^ "/" ^ vname) ~group:name ~variant:vname
              ~config prog)
          [
            ("subheap", Vm.ifp_subheap);
            ("mixed", Vm.ifp_mixed);
            ("wrapped", Vm.ifp_wrapped);
          ])
      [ "em3d"; "treeadd" ]
  in
  let infer =
    List.concat_map
      (fun name ->
        let prog = Lazy.force (wl name).W.prog in
        [
          Job.make ~name:(name ^ "/subheap") ~group:name ~variant:"subheap"
            ~config:Vm.ifp_subheap prog;
          Job.make ~name:(name ^ "/subheap-infer") ~group:name
            ~variant:"subheap-infer"
            ~config:{ Vm.ifp_subheap with infer_alloc_types = true }
            prog;
        ])
      infer_workloads
  in
  mixed @ infer @ juliet_jobs juliet_ext_configs

let jobs_for_target = function
  | "table2" | "fig13" -> []
  | "extensions" -> extensions_jobs ()
  | "juliet" -> juliet_jobs juliet_configs
  | "all" -> row_jobs () @ extensions_jobs () @ juliet_jobs juliet_configs
  | _ (* table4 fig10 fig11 fig12 baselines *) -> row_jobs ()

(* identical (program, config) work submitted under two labels — e.g.
   em3d/subheap appearing in both the row matrix and the extensions set —
   is deduplicated by name before dispatch *)
let dedupe_jobs jobs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (j : Job.t) ->
      if Hashtbl.mem seen j.name then false
      else (
        Hashtbl.add seen j.name ();
        true))
    jobs

(* ---------------- campaign-backed result lookup ---------------- *)

type ctx = { outcomes : (string, Engine.outcome) Hashtbl.t }

(* serve a result from the campaign; a job that failed at the engine
   level yields a visible Aborted placeholder, and a lookup outside the
   campaign's scope (defensive — should not happen) falls back to a
   serial in-process run *)
let result_of ctx name ~config ~prog =
  match Hashtbl.find_opt ctx.outcomes name with
  | Some { Engine.result = Some r; _ } -> r
  | Some { Engine.status = Engine.Failed why; _ } ->
    Report.aborted_result ("campaign job failed: " ^ why)
  | Some { Engine.status = Engine.Timed_out; _ } ->
    Report.aborted_result "campaign job timed out"
  | Some { Engine.status = Engine.Skipped; _ } ->
    (* only reachable if rendering proceeds despite an interrupt *)
    Report.aborted_result "campaign job skipped (interrupted)"
  | Some { Engine.result = None; _ } ->
    Report.aborted_result "campaign job produced no result"
  | None -> Vm.run ~config prog

let row_of ctx (wl : W.t) =
  let prog = Lazy.force wl.prog in
  Report.of_results ~name:wl.name
    ~lookup:(fun vname ->
      let config = List.assoc vname Report.variants in
      result_of ctx (wl.name ^ "/" ^ vname) ~config ~prog)

let juliet_run ctx cname config (c : Ifp_juliet.Juliet.case) which =
  let name, prog =
    match which with
    | `Bad -> (juliet_job_name c.id "bad" cname, c.bad)
    | `Good -> (juliet_job_name c.id "good" cname, c.good)
  in
  result_of ctx name ~config ~prog

let juliet_run_all ctx (cname, config) =
  Ifp_juliet.Juliet.run_all_with
    ~run:(juliet_run ctx cname config)
    (Lazy.force juliet_cases)

let fmt_x r = Printf.sprintf "%.2fx" r
let fmt_pct r = Ifp_util.Stats.percent r

let sci n =
  if n = 0 then "0"
  else if n < 100_000 then string_of_int n
  else Printf.sprintf "%.2e" (float_of_int n)

(* ---------------- Table 2 ---------------- *)

let table2 () =
  print_endline "== Table 2: object metadata schemes (constraints measured) ==";
  let rows =
    [
      [ "local offset"; "base granule-aligned"; "<= 1008 B"; "unlimited";
        "small objects, locals" ];
      [ "subheap"; "pow2-aligned blocks"; "block-capacity bound";
        "16 control regs / block sizes"; "heap objects" ];
      [ "global table"; "none"; "none";
        Printf.sprintf "%d rows" (Tag.global_table_entries - 1);
        "large globals, fallback" ];
    ]
  in
  Table.print
    ~header:[ "scheme"; "placement constraint"; "max object size";
              "object count limit"; "use scenario" ]
    rows;
  (* verify the constants against the implementation *)
  Printf.printf
    "\n(tag budget: 16 bits = 2 poison + 2 selector + 12 scheme/subobject;\n\
    \ local offset: %d B granule, %d B max object, %d layout elements;\n\
    \ subheap: %d subobject-index values; global table: %d entries)\n\n"
    Tag.granule Tag.local_offset_max_object Tag.local_offset_max_elements
    Tag.subheap_max_elements Tag.global_table_entries

(* ---------------- Table 4 ---------------- *)

let table4 ctx =
  print_endline
    "== Table 4: object instrumentation, valid promotes, dynamic instructions ==";
  let header =
    [ "benchmark"; "glob(LT%)"; "local(LT%)"; "heap(LT%)"; "valid promote";
      "(% of promotes)"; "baseline instrs"; "subheap"; "wrapped"; "status" ]
  in
  let body =
    List.map
      (fun (wl : W.t) ->
        let r = row_of ctx wl in
        let c = r.subheap.Vm.counters in
        let pct a b = if b = 0 then "-" else Printf.sprintf "%d%%" (100 * a / b) in
        let objs n lt = if n = 0 then "0" else sci n ^ " (" ^ pct lt n ^ ")" in
        let promotes = Counters.promotes_total c in
        let base_instrs = Counters.total_instrs r.baseline.Vm.counters in
        [
          wl.name;
          objs c.global_objs c.global_objs_layout;
          objs c.local_objs c.local_objs_layout;
          objs c.heap_objs c.heap_objs_layout;
          sci c.promotes_valid;
          pct c.promotes_valid promotes;
          sci base_instrs;
          fmt_x (Report.instr_overhead ~baseline:r.baseline r.subheap);
          fmt_x (Report.instr_overhead ~baseline:r.baseline r.wrapped);
          Report.status_string r;
        ])
      Registry.all
  in
  Table.print ~header body;
  let geo sel =
    Ifp_util.Stats.geomean
      (List.map
         (fun (wl : W.t) ->
           let r = row_of ctx wl in
           Report.instr_overhead ~baseline:r.baseline (sel r))
         Registry.all)
  in
  Printf.printf
    "\ngeo-mean dynamic instruction increase: subheap %s, wrapped %s\n\
     (paper: subheap +5%%, wrapped +14%%)\n\n"
    (fmt_pct (geo (fun r -> r.Report.subheap)))
    (fmt_pct (geo (fun r -> r.Report.wrapped)))

(* ---------------- Fig 10 ---------------- *)

let fig10 ctx =
  print_endline "== Figure 10: runtime overhead (cycles vs baseline) ==";
  let header =
    [ "benchmark"; "subheap"; "wrapped"; "subheap-np"; "wrapped-np"; "status" ]
  in
  let body =
    List.map
      (fun (wl : W.t) ->
        let r = row_of ctx wl in
        let ov x = fmt_pct (Report.runtime_overhead ~baseline:r.baseline x) in
        [ wl.name; ov r.subheap; ov r.wrapped; ov r.subheap_np;
          ov r.wrapped_np; Report.status_string r ])
      Registry.all
  in
  Table.print ~header body;
  let geo sel =
    Ifp_util.Stats.geomean
      (List.map
         (fun (wl : W.t) ->
           let r = row_of ctx wl in
           Report.runtime_overhead ~baseline:r.baseline (sel r))
         Registry.all)
  in
  Printf.printf
    "\ngeo-mean runtime overhead: subheap %s, wrapped %s (paper: ~12%%, ~24%%)\n\
     no-promote controls:       subheap %s, wrapped %s\n\n"
    (fmt_pct (geo (fun r -> r.Report.subheap)))
    (fmt_pct (geo (fun r -> r.Report.wrapped)))
    (fmt_pct (geo (fun r -> r.Report.subheap_np)))
    (fmt_pct (geo (fun r -> r.Report.wrapped_np)))

(* ---------------- Fig 11 ---------------- *)

let fig11 ctx =
  print_endline
    "== Figure 11: dynamic counts of In-Fat Pointer instructions (subheap) ==";
  let header =
    [ "benchmark"; "promote"; "ifp arithmetic"; "bounds ld/st"; "% of baseline" ]
  in
  let body =
    List.map
      (fun (wl : W.t) ->
        let r = row_of ctx wl in
        let c = r.subheap.Vm.counters in
        let n k = Counters.ifp_count c k in
        let promote = n Insn.Promote in
        let arith =
          n Insn.Ifpadd + n Insn.Ifpidx + n Insn.Ifpbnd + n Insn.Ifpchk
          + n Insn.Ifpextract + n Insn.Ifpmd + n Insn.Ifpmac
        in
        let ldst = n Insn.Ldbnd + n Insn.Stbnd in
        let basei = Counters.total_instrs r.baseline.Vm.counters in
        [
          wl.name; sci promote; sci arith; sci ldst;
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int (promote + arith + ldst) /. float_of_int basei);
        ])
      Registry.all
  in
  Table.print ~header body;
  print_newline ()

(* ---------------- Fig 12 ---------------- *)

(* the paper excludes programs whose footprint is below `time -v`'s
   resolution (<6 MB there); at our scaled-down sizes the equivalent
   cutoff is 16 KiB of baseline footprint *)
let fig12_cutoff = 16 * 1024

let fig12 ctx =
  print_endline "== Figure 12: memory overhead (max footprint vs baseline) ==";
  let header = [ "benchmark"; "subheap"; "wrapped" ] in
  let included, excluded =
    List.partition
      (fun (wl : W.t) ->
        (row_of ctx wl).baseline.Vm.mem_footprint >= fig12_cutoff)
      Registry.all
  in
  let fig12_excluded = List.map (fun (wl : W.t) -> wl.W.name) excluded in
  let body =
    List.map
      (fun (wl : W.t) ->
        let r = row_of ctx wl in
        let ov x = fmt_pct (Report.memory_overhead ~baseline:r.baseline x) in
        [ wl.name; ov r.subheap; ov r.wrapped ])
      included
  in
  Table.print ~header body;
  let geo sel =
    Ifp_util.Stats.geomean
      (List.map
         (fun (wl : W.t) ->
           let r = row_of ctx wl in
           Report.memory_overhead ~baseline:r.baseline (sel r))
         included)
  in
  Printf.printf
    "\ngeo-mean memory overhead: subheap %s, wrapped %s (paper: -6%%, +21%%)\n\
     (excluded, as in the paper: %s)\n\n"
    (fmt_pct (geo (fun r -> r.Report.subheap)))
    (fmt_pct (geo (fun r -> r.Report.wrapped)))
    (String.concat ", " fig12_excluded)

(* ---------------- Fig 13 ---------------- *)

let fig13 () =
  print_endline "== Figure 13: LUT increase in the modified processor (model) ==";
  let open Ifp_hwmodel.Hwmodel in
  Table.print
    ~header:[ "component"; "stage"; "LUTs"; "FFs" ]
    (List.map
       (fun c ->
         [ c.cname; stage_to_string c.stage; string_of_int c.luts;
           string_of_int c.ffs ])
       components);
  Printf.printf "\nper-stage added LUTs:\n";
  List.iter
    (fun (s, l) -> Printf.printf "  %-16s %d\n" (stage_to_string s) l)
    (by_stage full);
  Printf.printf
    "\ntotals: %d -> %d LUTs (+%.0f%%), %d -> %d FFs\n\
     (paper: 37,088 -> 59,261 LUTs, +60%%; 21,993 -> 32,545 FFs, +48%%)\n"
    vanilla_luts (total_luts full) (lut_increase_pct full) vanilla_ffs
    (total_ffs full);
  let no_walker = { full with layout_walker = false } in
  let no_bregs = { full with bounds_registers = false } in
  Printf.printf
    "\nablations (§5.3):\n\
    \  drop layout walker:    +%d LUTs (+%.0f%%) — loses hardware narrowing\n\
    \  drop bounds registers: +%d LUTs (+%.0f%%) — the largest single saving\n\n"
    (added_luts no_walker) (lut_increase_pct no_walker) (added_luts no_bregs)
    (lut_increase_pct no_bregs)

(* ---------------- Baselines ---------------- *)

let baselines ctx =
  print_endline
    "== Comparators (Table 1 / §5.2.2): projected overheads, geo-mean over all benchmarks ==";
  let header =
    [ "scheme"; "instr overhead"; "runtime overhead"; "memory"; "subobject?" ]
  in
  let geo f =
    Ifp_util.Stats.geomean
      (List.map (fun (wl : W.t) -> f (row_of ctx wl)) Registry.all)
  in
  let comparator_rows =
    List.map
      (fun model ->
        let gi =
          geo (fun r ->
              (Ifp_baselines.Baselines.project model ~baseline:r.Report.baseline
                 ~ifp:r.Report.subheap)
                .instr_overhead)
        in
        let gc =
          geo (fun r ->
              (Ifp_baselines.Baselines.project model ~baseline:r.Report.baseline
                 ~ifp:r.Report.subheap)
                .cycle_overhead)
        in
        let det =
          match model.Ifp_baselines.Baselines.subobject with
          | Ifp_baselines.Baselines.Full -> "yes"
          | Object_only -> "object only"
          | Probabilistic p -> Printf.sprintf "prob. %.0f%%" (100.0 *. p)
          | None_ -> "no"
        in
        [ model.Ifp_baselines.Baselines.name; fmt_x gi; fmt_x gc;
          fmt_x model.memory_factor; det ])
      Ifp_baselines.Baselines.all
  in
  (* memory ratios only over benchmarks above the footprint cutoff, as
     in Fig. 12 *)
  let geo_mem sel =
    Ifp_util.Stats.geomean
      (List.filter_map
         (fun (wl : W.t) ->
           let r = row_of ctx wl in
           if r.Report.baseline.Vm.mem_footprint < fig12_cutoff then None
           else Some (Report.memory_overhead ~baseline:r.baseline (sel r)))
         Registry.all)
  in
  let ifp_rows =
    [
      [ "In-Fat Pointer (subheap)";
        fmt_x (geo (fun r -> Report.instr_overhead ~baseline:r.Report.baseline r.subheap));
        fmt_x (geo (fun r -> Report.runtime_overhead ~baseline:r.Report.baseline r.subheap));
        fmt_x (geo_mem (fun r -> r.Report.subheap));
        "yes" ];
      [ "In-Fat Pointer (wrapped)";
        fmt_x (geo (fun r -> Report.instr_overhead ~baseline:r.Report.baseline r.wrapped));
        fmt_x (geo (fun r -> Report.runtime_overhead ~baseline:r.Report.baseline r.wrapped));
        fmt_x (geo_mem (fun r -> r.Report.wrapped));
        "yes" ];
    ]
  in
  Table.print ~header (comparator_rows @ ifp_rows);
  print_newline ()

(* ---------------- Extensions / ablations ---------------- *)

let extensions ctx =
  print_endline
    "== Extensions & ablations (paper future work / §5.3 trade-offs) ==";
  (* A1a: drop the layout-table walker -> object granularity only *)
  let _, s_full = juliet_run_all ctx (List.nth juliet_ext_configs 0) in
  let _, s_nonarrow = juliet_run_all ctx (List.nth juliet_ext_configs 1) in
  Printf.printf
    "layout-walker ablation (saves %d LUTs in the area model):\n\
    \  full narrowing: %d/%d detected; walker disabled: %d/%d\n\
    \  -> the difference is exactly the intra-object cases only hardware\n\
    \     narrowing can catch after a pointer's round trip through memory\n\n"
    3059 s_full.detected s_full.total s_nonarrow.detected s_nonarrow.total;
  (* A1b: mixed allocator fixes the subheap's array-fragmentation cost *)
  let em3d = Option.get (Registry.find "em3d") in
  let treeadd = Option.get (Registry.find "treeadd") in
  Printf.printf "mixed allocator (runtime scheme selection, §4.2.1 future work):\n";
  List.iter
    (fun (wl : W.t) ->
      let prog = Lazy.force wl.prog in
      let res vname config = result_of ctx (wl.name ^ "/" ^ vname) ~config ~prog in
      let sub = res "subheap" Vm.ifp_subheap in
      let mix = res "mixed" Vm.ifp_mixed in
      let wrap = res "wrapped" Vm.ifp_wrapped in
      let fp (r : Vm.result) = r.Vm.mem_footprint in
      let cyc (r : Vm.result) = r.Vm.counters.Counters.cycles in
      Printf.printf
        "  %-8s footprint: subheap %d / mixed %d / wrapped %d; cycles: %d / %d / %d\n"
        wl.name (fp sub) (fp mix) (fp wrap) (cyc sub) (cyc mix) (cyc wrap))
    [ em3d; treeadd ];
  (* A1c: allocation-wrapper type inference (§5.2.1 future work) *)
  Printf.printf
    "\nallocation-wrapper type inference (recovers layout tables):\n";
  List.iter
    (fun name ->
      let wl = Option.get (Registry.find name) in
      let prog = Lazy.force wl.W.prog in
      let lt vname config =
        let c = (result_of ctx (name ^ "/" ^ vname) ~config ~prog).Vm.counters in
        (c.Counters.heap_objs_layout, c.Counters.heap_objs)
      in
      let off_lt, off_n = lt "subheap" Vm.ifp_subheap in
      let on_lt, on_n =
        lt "subheap-infer" { Vm.ifp_subheap with infer_alloc_types = true }
      in
      Printf.printf "  %-14s layout tables: %d/%d objects -> %d/%d with inference\n"
        name off_lt off_n on_lt on_n)
    infer_workloads;
  print_newline ()

(* ---------------- Juliet ---------------- *)

let juliet ctx =
  print_endline "== Functional evaluation (§5.1): Juliet-style suite ==";
  List.iter
    (fun (cname, config) ->
      let _, s = juliet_run_all ctx (cname, config) in
      Printf.printf "  %-12s %d/%d bad cases detected, %d good-case failures\n"
        cname s.Ifp_juliet.Juliet.detected s.total s.good_failures)
    juliet_configs;
  print_newline ()

(* ---------------- aggregate (BENCH_experiments.json) ---------------- *)

let bench_aggregate ~target ~log_path ~(stats : Engine.stats) ctx
    rows_computed =
  let open Events in
  let workloads =
    if not rows_computed then Null
    else
      List
        (List.map
           (fun (wl : W.t) ->
             let r = row_of ctx wl in
             let ov f = Float (f ~baseline:r.Report.baseline) in
             Obj
               [
                 ("name", String wl.name);
                 ("status", String (Report.status_string r));
                 ( "outcomes",
                   Obj
                     (List.map
                        (fun (vname, why) -> (vname, String why))
                        (Report.check_outcomes r)) );
                 ("baseline_cycles", Int r.baseline.Vm.counters.Counters.cycles);
                 ( "baseline_instrs",
                   Int (Counters.total_instrs r.baseline.Vm.counters) );
                 ("runtime_overhead_subheap", ov (fun ~baseline -> Report.runtime_overhead ~baseline r.subheap));
                 ("runtime_overhead_wrapped", ov (fun ~baseline -> Report.runtime_overhead ~baseline r.wrapped));
                 ("instr_overhead_subheap", ov (fun ~baseline -> Report.instr_overhead ~baseline r.subheap));
                 ("instr_overhead_wrapped", ov (fun ~baseline -> Report.instr_overhead ~baseline r.wrapped));
                 ("memory_overhead_subheap", ov (fun ~baseline -> Report.memory_overhead ~baseline r.subheap));
                 ("memory_overhead_wrapped", ov (fun ~baseline -> Report.memory_overhead ~baseline r.wrapped));
               ])
           Registry.all)
  in
  let geomean =
    if not rows_computed then Null
    else
      let geo f =
        Ifp_util.Stats.geomean
          (List.map (fun (wl : W.t) -> f (row_of ctx wl)) Registry.all)
      in
      Obj
        [
          ( "runtime_overhead_subheap",
            Float (geo (fun r -> Report.runtime_overhead ~baseline:r.Report.baseline r.subheap)) );
          ( "runtime_overhead_wrapped",
            Float (geo (fun r -> Report.runtime_overhead ~baseline:r.Report.baseline r.wrapped)) );
          ( "instr_overhead_subheap",
            Float (geo (fun r -> Report.instr_overhead ~baseline:r.Report.baseline r.subheap)) );
          ( "instr_overhead_wrapped",
            Float (geo (fun r -> Report.instr_overhead ~baseline:r.Report.baseline r.wrapped)) );
        ]
  in
  Obj
    [
      ("bench", String "ifp_experiments");
      ("target", String target);
      ("model_digest", String Job.model_digest);
      ("campaign", Obj (Engine.stats_json stats));
      ("events_log", match log_path with Some p -> String p | None -> Null);
      ("workloads", workloads);
      ("geomean", geomean);
    ]

(* ---------------- driver ---------------- *)

let renderers =
  [
    ("table2", fun _ -> table2 ());
    ("table4", table4);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fun _ -> fig13 ());
    ("baselines", baselines);
    ("extensions", extensions);
    ("juliet", juliet);
  ]

(* TARGET names: one renderer each, or all of them in order *)
let targets =
  ("all", List.map fst renderers)
  :: List.map (fun (t, _) -> (t, [ t ])) renderers

let needs_rows selected =
  List.exists
    (fun t -> List.mem t [ "table4"; "fig10"; "fig11"; "fig12"; "baselines" ])
    selected

let () =
  let target = ref ("all", List.assoc "all" targets) in
  let bench_out = ref "BENCH_experiments.json" in
  let chaos_kill_after = ref None in
  let campaign =
    ref { Cli.campaign_defaults with log = Some "campaign.jsonl" }
  in
  Cli.parse
    ~anon:(fun t -> target := (t, Cli.lookup "target" targets t))
    (Cli.campaign_specs campaign
    @ [
        ( "--bench-out",
          Arg.Set_string bench_out,
          "FILE aggregate destination (default " ^ !bench_out ^ ")" );
        ( "--chaos-kill-after",
          Cli.nat (fun n -> chaos_kill_after := Some n),
          "N test hook: SIGKILL self after N journaled jobs" );
      ])
    ("usage: ifp_experiments [TARGET] [OPTIONS]\nTARGET: "
    ^ String.concat " " (List.map fst targets)
    ^ " (default: all)");
  let (target, selected), campaign = (!target, !campaign) in
  let jobs = dedupe_jobs (jobs_for_target target) in
  let session = Cli.open_campaign campaign in
  let on_job_done =
    Option.map (fun n -> Ifp_campaign.Chaos.arm_kill ~after:n) !chaos_kill_after
  in
  let outcomes, stats =
    Cli.run_campaign session ~hint:"campaign interrupted" ?on_job_done jobs
  in
  let ctx = { outcomes = Hashtbl.create (Array.length outcomes * 2) } in
  Array.iter
    (fun (o : Engine.outcome) -> Hashtbl.replace ctx.outcomes o.job.Job.name o)
    outcomes;
  List.iter (fun t -> List.assoc t renderers ctx) selected;
  Events.write_json_file ~path:!bench_out
    (bench_aggregate ~target ~log_path:campaign.log ~stats ctx
       (needs_rows selected));
  Cli.close_campaign session
