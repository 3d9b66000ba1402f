(* Temporal-mode evaluation: everything the spatial tables deliberately
   do not show.

     - detection: the Juliet temporal families (CWE-416/415) under
       baseline, spatial IFP and temporal IFP — temporal mode must catch
       every bad variant, spatial mode must miss every one (the stale
       pointer promotes against the churn object's valid metadata);
     - overhead: per-workload cycle/memory deltas of switching temporal
       mode on, for both allocator configurations;
     - hardware: the free-epoch machinery priced by the area model, and
       the per-scheme extra metadata bytes;
     - comparators: CryptSan-like and RV-CURE-like projected onto the
       same runs (the temporal columns Table 1 lacks).

   The aggregate is written to BENCH_temporal.json. Exit status is 0
   only if every temporal bad case is detected under both temporal
   configurations with no good-case failures and every workload
   checksum agrees across configurations — the CI gate.

   Usage: ifp_temporal [--quick] [--out FILE] *)

open Core
module W = Ifp_workloads.Workload
module Registry = Ifp_workloads.Registry
module J = Ifp_juliet.Juliet
module B = Ifp_baselines.Baselines
module H = Ifp_hwmodel.Hwmodel
module Table = Ifp_util.Table
module Stats = Ifp_util.Stats
module Events = Ifp_campaign.Events

let quick_workloads = [ "treeadd"; "mst"; "ft" ]

let full_workloads =
  [ "treeadd"; "bisort"; "mst"; "health"; "perimeter"; "ft"; "ks"; "anagram" ]

let configs =
  [
    ("baseline", Vm.baseline);
    ("ifp-subheap", Vm.ifp_subheap);
    ("ifp-subheap-t", { Vm.ifp_subheap with Vm.temporal = true });
    ("ifp-wrapped", Vm.ifp_wrapped);
    ("ifp-wrapped-t", { Vm.ifp_wrapped with Vm.temporal = true });
  ]

let fmt_x v = Printf.sprintf "%.3fx" v
let fmt_pct v = Printf.sprintf "%+.2f%%" v

(* ---------------- Juliet temporal families ---------------- *)

let juliet_section () =
  print_endline
    "== Juliet temporal families (CWE-416/415): 6 cases, bad must trap only \
     under temporal mode ==";
  let cases = J.temporal_cases () in
  let rows =
    List.map
      (fun (name, config) ->
        let _, s = J.run_all ~config cases in
        (name, s))
      configs
  in
  Table.print
    ~header:[ "config"; "detected"; "missed"; "good failures" ]
    (List.map
       (fun (name, s) ->
         [
           name;
           Printf.sprintf "%d/%d" s.J.detected s.J.total;
           string_of_int s.J.missed;
           string_of_int s.J.good_failures;
         ])
       rows);
  print_newline ();
  rows

(* ---------------- workload overhead deltas ---------------- *)

type wl_row = {
  wname : string;
  results : (string * Vm.result) list;  (** one per config, same order *)
}

let run_workloads names =
  List.filter_map
    (fun n ->
      match Registry.find n with
      | None ->
        Printf.eprintf "unknown workload %s\n" n;
        None
      | Some wl ->
        let prog = Lazy.force wl.W.prog in
        Some
          {
            wname = wl.W.name;
            results =
              List.map (fun (cname, cfg) -> (cname, Vm.run ~config:cfg prog)) configs;
          })
    names

let checksums_agree row =
  match List.map (fun (_, r) -> r.Vm.outcome) row.results with
  | Vm.Finished v :: rest ->
    List.for_all (function Vm.Finished w -> Int64.equal v w | _ -> false) rest
  | _ -> false

let cycles r = r.Vm.counters.Ifp_vm.Counters.cycles

let overhead_of row cname =
  let base = cycles (List.assoc "baseline" row.results) in
  float_of_int (cycles (List.assoc cname row.results)) /. float_of_int base

let mem_of row cname = (List.assoc cname row.results).Vm.mem_footprint

let overhead_section rows =
  print_endline
    "== Temporal-mode overhead: cycle ratio vs baseline, and the delta \
     temporal mode adds ==";
  Table.print
    ~header:
      [
        "workload"; "subheap"; "subheap-t"; "d cycles"; "d mem"; "wrapped";
        "wrapped-t"; "d cycles"; "d mem";
      ]
    (List.map
       (fun row ->
         let ov = overhead_of row in
         let dmem spatial temporal =
           let s = mem_of row spatial and t = mem_of row temporal in
           100.0 *. (float_of_int t /. float_of_int s -. 1.0)
         in
         [
           row.wname;
           fmt_x (ov "ifp-subheap");
           fmt_x (ov "ifp-subheap-t");
           fmt_pct (100.0 *. (ov "ifp-subheap-t" -. ov "ifp-subheap"));
           fmt_pct (dmem "ifp-subheap" "ifp-subheap-t");
           fmt_x (ov "ifp-wrapped");
           fmt_x (ov "ifp-wrapped-t");
           fmt_pct (100.0 *. (ov "ifp-wrapped-t" -. ov "ifp-wrapped"));
           fmt_pct (dmem "ifp-wrapped" "ifp-wrapped-t");
         ])
       rows);
  let geo cname = Stats.geomean (List.map (fun r -> overhead_of r cname) rows) in
  Printf.printf
    "\ngeo-mean cycle overhead: subheap %s -> %s temporal, wrapped %s -> %s \
     temporal\n\
     (temporal adds metadata re-MACs on free plus quarantined footprint; no \
     promote-path slowdown — the epoch compare rides the existing fetch)\n\n"
    (fmt_x (geo "ifp-subheap"))
    (fmt_x (geo "ifp-subheap-t"))
    (fmt_x (geo "ifp-wrapped"))
    (fmt_x (geo "ifp-wrapped-t"))

(* ---------------- hardware pricing ---------------- *)

let hw_section () =
  print_endline "== Hardware pricing of the free-epoch extension (area model) ==";
  Table.print
    ~header:[ "component"; "stage"; "LUTs"; "FFs" ]
    (List.map
       (fun (c : H.component) ->
         [ c.H.cname; H.stage_to_string c.H.stage; string_of_int c.H.luts;
           string_of_int c.H.ffs ])
       H.temporal_components);
  let delta_luts = H.added_luts H.full_temporal - H.added_luts H.full in
  let delta_ffs = H.added_ffs H.full_temporal - H.added_ffs H.full in
  Printf.printf
    "\nadded area: +%d LUTs / +%d FFs on top of the spatial design (+%.1f%% -> \
     +%.1f%% over vanilla)\n"
    delta_luts delta_ffs
    (H.lut_increase_pct H.full)
    (H.lut_increase_pct H.full_temporal);
  Printf.printf "extra metadata bytes per object:\n";
  List.iter
    (fun (what, bytes) -> Printf.printf "  %-20s %d\n" what bytes)
    H.temporal_metadata_bytes;
  print_newline ()

(* ---------------- temporal comparators ---------------- *)

let comparator_section rows =
  print_endline
    "== Temporal comparators (CryptSan-like, RV-CURE-like) projected on the \
     same runs ==";
  let geo f = Stats.geomean (List.map f rows) in
  let projections =
    List.map
      (fun model ->
        let gi =
          geo (fun row ->
              (B.project model
                 ~baseline:(List.assoc "baseline" row.results)
                 ~ifp:(List.assoc "ifp-subheap" row.results))
                .B.instr_overhead)
        in
        let gc =
          geo (fun row ->
              (B.project model
                 ~baseline:(List.assoc "baseline" row.results)
                 ~ifp:(List.assoc "ifp-subheap" row.results))
                .B.cycle_overhead)
        in
        (model, gi, gc))
      B.temporal_models
  in
  Table.print
    ~header:[ "scheme"; "instr overhead"; "runtime overhead"; "memory";
              "spatial?"; "temporal?" ]
    (List.map
       (fun ((model : B.model), gi, gc) ->
         let det = function
           | B.Full -> "yes"
           | B.Object_only -> "object only"
           | B.Probabilistic p -> Printf.sprintf "prob. %.0f%%" (100.0 *. p)
           | B.None_ -> "no"
         in
         [ model.B.name; fmt_x gi; fmt_x gc; fmt_x model.B.memory_factor;
           det model.B.object_; det model.B.temporal ])
       projections);
  print_newline ();
  projections

(* ---------------- aggregate ---------------- *)

let detection_to_string = function
  | B.Full -> "full"
  | B.Object_only -> "object-only"
  | B.Probabilistic p -> Printf.sprintf "probabilistic-%.4f" p
  | B.None_ -> "none"

let write_bench ~path ~quick juliet rows projections =
  let open Events in
  let summary_json (s : J.summary) =
    Obj
      [
        ("total", Int s.J.total);
        ("detected", Int s.J.detected);
        ("missed", Int s.J.missed);
        ("false_positives", Int s.J.false_positives);
        ("good_failures", Int s.J.good_failures);
      ]
  in
  let config_json row cname =
    let r = List.assoc cname row.results in
    Obj
      [
        ("cycles", Int (cycles r));
        ("overhead", Float (overhead_of row cname));
        ("mem_footprint", Int r.Vm.mem_footprint);
      ]
  in
  let geo cname =
    Stats.geomean (List.map (fun r -> overhead_of r cname) rows)
  in
  write_json_file ~path
    (Obj
       [
         ("bench", String "ifp_temporal");
         ("quick", Bool quick);
         ( "juliet_temporal",
           Obj (List.map (fun (name, s) -> (name, summary_json s)) juliet) );
         ( "workloads",
           List
             (List.map
                (fun row ->
                  Obj
                    ([ ("name", String row.wname);
                       ( "baseline_cycles",
                         Int (cycles (List.assoc "baseline" row.results)) ) ]
                    @ List.filter_map
                        (fun (cname, _) ->
                          if cname = "baseline" then None
                          else Some (cname, config_json row cname))
                        configs))
                rows) );
         ( "geomean_cycle_overhead",
           Obj
             (List.filter_map
                (fun (cname, _) ->
                  if cname = "baseline" then None
                  else Some (cname, Float (geo cname)))
                configs) );
         ( "hwmodel",
           Obj
             [
               ("spatial_added_luts", Int (H.added_luts H.full));
               ("temporal_added_luts", Int (H.added_luts H.full_temporal));
               ( "delta_luts",
                 Int (H.added_luts H.full_temporal - H.added_luts H.full) );
               ( "delta_ffs",
                 Int (H.added_ffs H.full_temporal - H.added_ffs H.full) );
               ("lut_increase_pct", Float (H.lut_increase_pct H.full));
               ( "lut_increase_pct_temporal",
                 Float (H.lut_increase_pct H.full_temporal) );
               ( "metadata_bytes",
                 Obj
                   (List.map
                      (fun (k, v) -> (k, Int v))
                      H.temporal_metadata_bytes) );
             ] );
         ( "comparators",
           List
             (List.map
                (fun ((model : B.model), gi, gc) ->
                  Obj
                    [
                      ("name", String model.B.name);
                      ("instr_overhead", Float gi);
                      ("cycle_overhead", Float gc);
                      ("memory_overhead", Float model.B.memory_factor);
                      ("temporal", String (detection_to_string model.B.temporal));
                    ])
                projections) );
       ])

(* ---------------- driver ---------------- *)

let () =
  let quick = ref false and out = ref "BENCH_temporal.json" in
  Ifp_campaign.Cli.parse
    [
      ("--quick", Arg.Set quick, " 3 workloads instead of 8 (CI smoke)");
      ( "--out",
        Arg.Set_string out,
        "FILE aggregate destination (default " ^ !out ^ ")" );
    ]
    "usage: ifp_temporal [--quick] [--out FILE]";
  let juliet = juliet_section () in
  let rows = run_workloads (if !quick then quick_workloads else full_workloads) in
  let bad_checksums = List.filter (fun r -> not (checksums_agree r)) rows in
  List.iter
    (fun r -> Printf.eprintf "checksum disagreement in workload %s\n" r.wname)
    bad_checksums;
  overhead_section rows;
  hw_section ();
  let projections = comparator_section rows in
  write_bench ~path:!out ~quick:!quick juliet rows projections;
  Printf.printf "aggregate written to %s\n" !out;
  let temporal_ok =
    List.for_all
      (fun (name, s) ->
        let is_temporal =
          name = "ifp-subheap-t" || name = "ifp-wrapped-t"
        in
        (not is_temporal)
        || (s.J.detected = s.J.total && s.J.good_failures = 0))
      juliet
  in
  (* spatial configs must also stay clean on the good variants *)
  let goods_ok =
    List.for_all (fun (_, s) -> s.J.good_failures = 0) juliet
  in
  if temporal_ok && goods_ok && bad_checksums = [] then exit 0
  else (
    prerr_endline "FAIL: temporal detection or checksum gate violated";
    exit 1)
