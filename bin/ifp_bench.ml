(* Host-performance microbenchmark for the simulator hot path.

   Times the fig10 workloads under both execution engines — the
   name-keyed reference interpreter (Vm_ref) and the closure-compiled
   production engine (Vm.run) — on the same VM configurations, and
   reports host wall-clock nanoseconds per simulated instruction for
   each engine plus the reference -> closure speedup. While timing, it
   also cross-checks that the engines agree on outcome, every counter,
   cache statistics and program output — a run that diverges fails
   loudly rather than producing a pretty but meaningless table.

   The aggregate is written to BENCH_vm.json. Unlike the experiment
   tables, this output is wall-clock and host-dependent by nature; the
   JSON is for trend tracking, not byte-diffing (CI only checks shape
   and the engine-agreement bit).

     ifp_bench [--quick] [--reps N] [--out PATH] [--engine E]...
               [--profile] [workload ...]

   --quick     three workloads, one rep: the CI smoke configuration.
   --engine E  time only engine E (vm-ref | closure); repeatable.
               Engine agreement is checked across whichever engines run.
   --profile   after timing, print the closure engine's per-opcode
               dispatch histogram (counts + cumulative ns share) for
               each workload/config. Implies the closure engine; the
               profiled run must agree with the timed one. *)

module W = Ifp_workloads.Workload
module Registry = Ifp_workloads.Registry
module Vm = Core.Vm
module Engines = Core.Engines
module Profile = Core.Profile
module Counters = Core.Counters
module Events = Ifp_campaign.Events
module Cli = Ifp_campaign.Cli

let quick = ref false and reps = ref 3 and out = ref "BENCH_vm.json"
let only = ref [] (* empty = fig10 set *)
let engines = ref [] (* empty = Engines.all *)
let profile = ref false

(* --quick sets --reps 1, so a later --reps overrides it *)
let parse_opts () =
  let workloads = List.map (fun (w : W.t) -> (w.name, w)) Registry.all in
  Cli.parse
    ~anon:(fun name -> only := !only @ [ Cli.lookup "workload" workloads name ])
    [
      ( "--quick",
        Arg.Unit
          (fun () ->
            quick := true;
            reps := 1),
        " three workloads, one rep: the CI smoke configuration" );
      ( "--reps",
        Cli.checked "a positive integer"
          (fun s ->
            match int_of_string_opt s with
            | Some n when n > 0 -> Some n
            | _ -> None)
          (( := ) reps),
        Printf.sprintf "N best-of-N timing (default %d)" !reps );
      ( "--out",
        Arg.Set_string out,
        "PATH aggregate destination (default " ^ !out ^ ")" );
      ( "--engine",
        Arg.Symbol
          ( Engines.names,
            fun e ->
              let eng = Option.get (Engines.of_string e) in
              if not (List.mem eng !engines) then engines := !engines @ [ eng ]
          ),
        " time only this engine (repeatable; default: all)" );
      ( "--profile",
        Arg.Set profile,
        " print the closure engine's per-opcode dispatch histogram" );
    ]
    "usage: ifp_bench [OPTIONS] [WORKLOAD...]";
  if !engines = [] then engines := Engines.all;
  if !profile && not (List.mem Vm.Eng_closure !engines) then
    engines := !engines @ [ Vm.Eng_closure ]

let quick_set = [ "treeadd"; "mst"; "ft" ]

let workloads () =
  match !only with
  | [] ->
    if !quick then
      List.filter (fun (w : W.t) -> List.mem w.name quick_set) Registry.all
    else Registry.all
  | only -> only

let configs =
  [
    ("baseline", Vm.baseline);
    ("ifp-subheap", Vm.ifp_subheap);
    ("ifp-wrapped", Vm.ifp_wrapped);
  ]

(* ---- engine agreement ------------------------------------------------ *)

let outcome_string = function
  | Vm.Finished v -> "finished:" ^ Int64.to_string v
  | Vm.Trapped t -> "trapped:" ^ Core.Trap.to_string t
  | Vm.Aborted r -> "aborted:" ^ Vm.abort_reason_string r

let counters_fields (c : Counters.t) =
  [
    ("base_instrs", c.base_instrs);
    ("cycles", c.cycles);
    ("loads", c.loads);
    ("stores", c.stores);
    ("implicit_checks", c.implicit_checks);
    ("promotes_valid", c.promotes_valid);
    ("ifp_total", Counters.ifp_total c);
  ]

(* [agree ~names a b] compares run [b] against reference run [a];
   [names] labels the pair in mismatch reports *)
let agree ~names (a : Vm.result) (b : Vm.result) =
  let pair = names in
  let errs = ref [] in
  let chk name x y =
    if x <> y then
      errs := Printf.sprintf "%s %s: %s vs %s" pair name x y :: !errs
  in
  chk "outcome" (outcome_string a.outcome) (outcome_string b.outcome);
  List.iter2
    (fun (n, x) (_, y) -> chk n (string_of_int x) (string_of_int y))
    (counters_fields a.counters)
    (counters_fields b.counters);
  Array.iteri
    (fun i x ->
      chk (Printf.sprintf "ifp[%d]" i) (string_of_int x)
        (string_of_int b.counters.ifp.(i)))
    a.counters.ifp;
  chk "cache_accesses" (string_of_int a.cache_accesses)
    (string_of_int b.cache_accesses);
  chk "cache_misses" (string_of_int a.cache_misses)
    (string_of_int b.cache_misses);
  chk "mem_footprint" (string_of_int a.mem_footprint)
    (string_of_int b.mem_footprint);
  chk "output" (String.concat "|" a.output) (String.concat "|" b.output);
  List.rev !errs

(* ---- timing ---------------------------------------------------------- *)

(* best-of-N wall clock: the minimum is the least noise-contaminated
   observation of the true cost *)
let time_best ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

type row = {
  wname : string;
  cname : string;
  sim_instrs : int;
  ns : (Vm.engine * float) list;  (* host ns per sim instr, per engine *)
  mismatches : string list;
  closure : Vm.result option;  (* the timed closure run, if it ran *)
}

let ns_of r eng = List.assoc_opt eng r.ns

(* reference -> closure host-time ratio, when both engines ran *)
let speedup r =
  match (ns_of r Vm.Eng_ref, ns_of r Vm.Eng_closure) with
  | Some a, Some b -> Some (a /. b)
  | _ -> None

let bench_one ~reps ~engines (wl : W.t) (cname, config) =
  let prog = Lazy.force wl.prog in
  let runs =
    List.map
      (fun eng ->
        let config = { config with Vm.engine = eng } in
        let res, t = time_best ~reps (fun () -> Engines.run ~config prog) in
        (eng, res, t))
      engines
  in
  let ref_eng, ref_res, _ = List.hd runs in
  let mismatches =
    List.concat_map
      (fun (eng, res, _) ->
        if eng == ref_eng then []
        else
          agree
            ~names:
              (Printf.sprintf "[%s vs %s]" (Engines.to_string ref_eng)
                 (Engines.to_string eng))
            ref_res res)
      runs
  in
  let sim_instrs = max 1 (Counters.total_instrs ref_res.Vm.counters) in
  let per t = t *. 1e9 /. float_of_int sim_instrs in
  {
    wname = wl.name;
    cname;
    sim_instrs;
    ns = List.map (fun (eng, _, t) -> (eng, per t)) runs;
    mismatches;
    closure =
      List.find_map
        (fun (eng, res, _) -> if eng = Vm.Eng_closure then Some res else None)
        runs;
  }

(* ---- profile mode ---------------------------------------------------- *)

let ns_clock () = Unix.gettimeofday () *. 1e9

(* Prints the histogram and returns how the profiled run differs from
   the timed closure run: probes must observe, never change, a run. *)
let print_profile (wl : W.t) (cname, config) (timed : Vm.result) =
  let prog = Lazy.force wl.prog in
  let p = Profile.create ~clock:ns_clock in
  let res = Vm.run ~config ~profile:p prog in
  let rows = Profile.report p in
  let total_ns = List.fold_left (fun acc (r : Profile.row) -> acc +. r.ns) 0.0 rows in
  Printf.printf "\n%s/%s dispatch profile (%.1f ms probe-attributed):\n"
    wl.name cname (total_ns /. 1e6);
  Printf.printf "  %-18s %12s %12s %7s %7s\n" "op" "count" "self-ms" "share"
    "cum";
  let cum = ref 0.0 in
  List.iter
    (fun (r : Profile.row) ->
      cum := !cum +. r.share;
      Printf.printf "  %-18s %12d %12.2f %6.1f%% %6.1f%%\n" r.op r.count
        (r.ns /. 1e6) (100.0 *. r.share) (100.0 *. !cum))
    rows;
  agree ~names:"[closure vs closure --profile]" timed res

(* ---- reporting ------------------------------------------------------- *)

let json_of_rows rows geo_speedup ok =
  let open Events in
  let fopt = function Some x -> Float x | None -> Null in
  Obj
    [
      ("bench", String "ifp_bench");
      ("unit", String "host ns per simulated instruction");
      ("quick", Bool !quick);
      ("reps", Int !reps);
      ("engines", List (List.map (fun e -> String (Engines.to_string e)) !engines));
      ("engines_agree", Bool ok);
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("workload", String r.wname);
                   ("config", String r.cname);
                   ("sim_instrs", Int r.sim_instrs);
                   ("ref_ns_per_instr", fopt (ns_of r Vm.Eng_ref));
                   ("closure_ns_per_instr", fopt (ns_of r Vm.Eng_closure));
                   ("speedup", fopt (speedup r));
                 ])
             rows) );
      ("geomean_speedup", fopt geo_speedup);
    ]

let () =
  parse_opts ();
  let wls = workloads () and engines = !engines in
  let header =
    String.concat " -> " (List.map Engines.to_string engines) ^ " ns/instr"
  in
  Printf.printf "engines: %s\n%!" header;
  let cases =
    List.concat_map (fun wl -> List.map (fun cfg -> (wl, cfg)) configs) wls
  in
  let rows =
    List.map
      (fun (wl, cfg) ->
        let r = bench_one ~reps:!reps ~engines wl cfg in
        let cols =
          String.concat " -> "
            (List.map
               (fun (_, ns) -> Printf.sprintf "%6.2f" ns)
               r.ns)
        in
        Printf.printf "%-12s %-12s %9d sim-instrs  %s%s\n%!" r.wname
          r.cname r.sim_instrs cols
          (if r.mismatches = [] then "" else "  ENGINE MISMATCH");
        r)
      cases
  in
  let geo =
    match List.filter_map speedup rows with
    | [] -> None
    | ratios -> Some (Core.Stats.geomean ratios)
  in
  (match geo with
  | Some g ->
    Printf.printf "\ngeo-mean speedup (vm-ref -> closure): %.2fx over %d runs\n"
      g (List.length rows)
  | None -> ());
  let rows =
    if not !profile then rows
    else
      List.map2
        (fun (wl, cfg) r ->
          {
            r with
            mismatches =
              r.mismatches @ print_profile wl cfg (Option.get r.closure);
          })
        cases rows
  in
  let bad = List.filter (fun r -> r.mismatches <> []) rows in
  List.iter
    (fun r ->
      Printf.eprintf "MISMATCH %s/%s:\n" r.wname r.cname;
      List.iter (Printf.eprintf "  %s\n") r.mismatches)
    bad;
  Events.write_json_file ~path:!out (json_of_rows rows geo (bad = []));
  Printf.printf "wrote %s\n" !out;
  if bad <> [] then exit 1
