(* The repository benchmark: drives the public entry points of
   lib/compiler, lib/vm, lib/campaign and lib/service on one of three
   workloads, checks every output, and prints each metric by name with
   its unit. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

     perfbench --workload W --seed N --seconds S --trace 0|1
               [--git-rev REV] [--serviced PATH] [--tiny]
               [--inject-bad-checksum]
     perfbench --emit-expected      (regenerates expected/paper-matrix.txt)

   Workloads:
     paper-matrix   the 18 Registry workloads x the five Report.variants
                    configurations through Engines.run (Fig. 10-12 and
                    Table 4 traffic), in registry order, MAC keys from the
                    seed; one operation = one matrix pass
     minic-short    Gen.default MiniC sources, generated in set-up from
                    the seed; one operation = Parser.parse plus
                    Engines.run under baseline, subheap and wrapped
     service-mixed  the ifp_serviced daemon, 1 worker domain, fresh
                    sharded cache, driven closed-loop over 2
                    connections; one operation = one pass over the job
                    mix, each distinct job submitted twice (a cache miss,
                    then a cache hit)

   With --trace 0 the end-to-end metrics are printed; with --trace 1 the
   per-layer metrics. A traced run of paper-matrix or minic-short runs
   each operation twice, untraced and inside spans around each layer
   call, and reports the tracing overhead (traced over untraced
   operation time); service-mixed, whose layers run in the daemon, is
   not traced. Metrics of a layer a workload never calls read 0.

   Operation times are CPU time for the in-process workloads, whose
   end-to-end figures are scaled to a nominal host speed (see Hostspeed)
   and printed as measured on a note line, and wall-clock time for
   service-mixed, which BENCHMARK.json does not declare (README.md). *)

open Core
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Events = Ifp_campaign.Events
module Client = Ifp_service.Client
module Protocol = Ifp_service.Protocol
module Gen = Ifp_fuzz.Gen

type opts = {
  workload : string;
  seed : int64;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test size *)
  inject : bool;  (** corrupt the first expected value (self-test) *)
  git_rev : string;
  serviced : string;  (** the ifp_serviced executable *)
}

let now = Unix.gettimeofday

(* CPU seconds (user + system) of this process. The clock of the
   in-process workloads: they run on one thread and never wait, so this
   is their wall time less the time the host gave the processor to
   someone else. *)
let cpu_now = Hostspeed.cpu_now
let median = Layers.median

(* linear-interpolated percentile of an unsorted sample *)
let percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = p *. float (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float i) *. (a.(i + 1) -. a.(i)))

(* ---- result accumulation -------------------------------------------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  metrics : (string, float) Hashtbl.t;
  mutable notes : string list;  (** human-readable lines, reversed *)
}

let fresh_run () =
  { attempted = 0; failed = 0; metrics = Hashtbl.create 128; notes = [] }

let set r name v = Hashtbl.replace r.metrics name v
let add r name v = set r name (v +. Option.value ~default:0.0 (Hashtbl.find_opt r.metrics name))
let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

let check r ok fmt =
  Printf.ksprintf
    (fun what ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        if r.failed <= 10 then prerr_endline ("perfbench: output check failed: " ^ what)
      end)
    fmt

(* [inject] corrupts exactly one expected value: the first one checked *)
let injected = ref false

let corrupt opts =
  if opts.inject && not !injected then (
    injected := true;
    true)
  else false

(* ---- metric declarations (mirrors BENCHMARK.json) -------------------- *)

let configs5 = List.map fst Report.variants
let configs3 = [ "baseline"; "subheap"; "wrapped" ]
let config_of name = List.assoc name Report.variants

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p95_ms", "ms");
    ("sim_cycle_overhead_subheap_pct", "%");
    ("sim_cycle_overhead_wrapped_pct", "%");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  let per cs prefix unit = List.map (fun c -> (prefix ^ "." ^ c, unit)) cs in
  [
    ("compiler.parse_ms", "ms");
    ("compiler.typecheck_ms", "ms");
    ("compiler.instrument_ms", "ms");
    ("compiler.resolve_ms", "ms");
    ("compiler.source_kb", "KiB");
    ("compiler.promotes_inserted", "count");
    ("vm.exec_s", "s");
  ]
  @ per configs5 "vm.ns_per_instr" "ns"
  @ per configs3 "vm.fixed_ms" "ms"
  @ per configs5 "vm.sim_instrs" "count"
  @ per configs5 "vm.sim_cycles" "count"
  @ per configs5 "vm.ifp_instrs" "count"
  @ per [ "local_offset"; "subheap"; "global_table"; "legacy" ] "meta.promote_ns" "ns"
  @ per configs5 "meta.promotes_valid" "count"
  @ per configs5 "meta.narrows_ok" "count"
  @ per [ "baseline"; "wrapped"; "subheap" ] "alloc.malloc_free_ns" "ns"
  @ per configs5 "alloc.n_allocs" "count"
  @ per configs5 "alloc.footprint_kb" "KiB"
  @ [ ("cache.access_ns", "ns") ]
  @ per configs5 "cache.accesses" "count"
  @ per configs5 "cache.misses" "count"
  @ [
      ("campaign.digest_ms", "ms");
      ("campaign.cache_find_ms", "ms");
      ("campaign.cache_store_ms", "ms");
      ("protocol.encode_request_us", "us");
      ("protocol.decode_reply_us", "us");
      ("protocol.request_kb", "KiB");
      ("protocol.reply_kb", "KiB");
      ("service.worker_utilization", "fraction");
      ("service.cache_hits", "count");
      ("service.busy_rejections", "count");
      ("service.completed", "count");
      ("service.failed", "count");
      ("service.miss_p50_ms", "ms");
      ("service.miss_p95_ms", "ms");
      ("service.hit_p50_ms", "ms");
      ("service.hit_p95_ms", "ms");
      ("trace.overhead_pct", "%");
      ("trace.spans", "count");
      ("host.kernel_ms", "ms");
    ]

(* ---- shared helpers --------------------------------------------------- *)

let vm_hwm_mb pid =
  try
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float kb /. 1024.0))
  with Sys_error _ -> None

(* per-config simulated counts of one distinct run (summed per config) *)
let add_counts r vname (res : Vm.result) =
  let c = res.Vm.counters in
  add r ("vm.sim_instrs." ^ vname) (float (Counters.total_instrs c));
  add r ("vm.sim_cycles." ^ vname) (float c.Counters.cycles);
  add r ("vm.ifp_instrs." ^ vname) (float (Counters.ifp_total c));
  add r ("meta.promotes_valid." ^ vname) (float c.Counters.promotes_valid);
  add r ("meta.narrows_ok." ^ vname) (float c.Counters.narrows_ok);
  add r ("alloc.n_allocs." ^ vname) (float res.Vm.alloc_stats.Alloc.n_allocs);
  add r ("alloc.footprint_kb." ^ vname)
    (float res.Vm.alloc_stats.Alloc.footprint_bytes /. 1024.0);
  add r ("cache.accesses." ^ vname) (float res.Vm.cache_accesses);
  add r ("cache.misses." ^ vname) (float res.Vm.cache_misses);
  if vname = "subheap" then
    Option.iter
      (fun (rep : Instrument.report) ->
        add r "compiler.promotes_inserted" (float rep.Instrument.promotes_inserted))
      res.Vm.instrument_report

(* geo-mean simulated-cycle overhead of [cfg] over baseline, in percent,
   from (baseline cycles, cycles) pairs *)
let overhead_pct pairs =
  if pairs = [] then 0.0
  else
    100.0
    *. (Stats.geomean (List.map (fun (b, x) -> float x /. float (max 1 b)) pairs)
       -. 1.0)

let set_overheads r ~subheap ~wrapped =
  set r "sim_cycle_overhead_subheap_pct" (overhead_pct subheap);
  set r "sim_cycle_overhead_wrapped_pct" (overhead_pct wrapped)

(* [lats] are operation times in seconds *)
let set_latency r lats =
  set r "ops_per_s" (float (List.length lats) /. List.fold_left ( +. ) 0.0 lats);
  set r "op_p50_ms" (1e3 *. percentile 0.5 lats);
  set r "op_p95_ms" (1e3 *. percentile 0.95 lats);
  note r "operations: %d" (List.length lats)

let output_md5 (res : Vm.result) =
  Digest.to_hex (Digest.string (String.concat "\n" res.Vm.output))

(* The front end of one Engines.run, timed as its own spans: the stages
   Rt.run_with performs before executing. Returns their total seconds. *)
let traced_front_end (config : Vm.config) prog =
  let t0 = now () in
  Span.with_ "compiler.typecheck" (fun () -> Typecheck.check_program prog);
  let lowered =
    if config.Vm.variant = Vm.Baseline then prog
    else
      fst
        (Span.with_ "compiler.instrument" (fun () ->
             Instrument.run
               ~config:{ Instrument.infer_alloc_types = config.Vm.infer_alloc_types }
               prog))
  in
  ignore (Span.with_ "compiler.resolve" (fun () -> Resolve.run lowered));
  now () -. t0

(* One traced Engines.run: front-end spans, then the run itself. The
   execute share (run minus front end) is charged to [exec.(vname)]. *)
let traced_run ~exec vname config prog =
  let fe = traced_front_end config prog in
  let t0 = now () in
  let res = Span.with_ ("vm.run." ^ vname) (fun () -> Engines.run ~config prog) in
  let exec_s = now () -. t0 -. fe in
  Hashtbl.replace exec vname
    (exec_s +. Option.value ~default:0.0 (Hashtbl.find_opt exec vname));
  res

(* per-layer figures from the span summary and the execute shares *)
let set_span_metrics r ~ops ~exec ~instrs =
  let summary = Span.summary () in
  let per_call name =
    match List.assoc_opt name summary with
    | Some (_, self, k) when k > 0 -> 1e3 *. self /. float k
    | _ -> 0.0
  in
  List.iter
    (fun stage -> set r ("compiler." ^ stage ^ "_ms") (per_call ("compiler." ^ stage)))
    [ "parse"; "typecheck"; "instrument"; "resolve" ];
  let total_exec = Hashtbl.fold (fun _ s a -> a +. s) exec 0.0 in
  if ops > 0 then set r "vm.exec_s" (total_exec /. float ops);
  Hashtbl.iter
    (fun vname s ->
      match Hashtbl.find_opt instrs vname with
      | Some n when n > 0 -> set r ("vm.ns_per_instr." ^ vname) (1e9 *. s /. float n)
      | _ -> ())
    exec;
  set r "trace.spans" (float !Span.count);
  List.iter
    (fun (name, (tot, self, k)) ->
      note r "span %-22s calls %7d  total %9.3f s  self %9.3f s" name k tot self)
    summary

let set_trace_overhead r ~traced ~untraced =
  if untraced > 0.0 then
    set r "trace.overhead_pct" (100.0 *. ((traced /. untraced) -. 1.0))

(* Runs [trial] [setup_trials] times and reports the median as setup_s,
   timed by [clock] (seconds); the last trial's result is kept, earlier
   ones are passed to [discard]. *)
let setup_trials = 9

let timed_setup r ?(discard = ignore) ~clock trial =
  let times = ref [] in
  let rec go i =
    Gc.full_major ();
    Hostspeed.sample ();
    let t0 = clock () in
    let v = trial () in
    times := (clock () -. t0) :: !times;
    if i + 1 < setup_trials then (
      discard v;
      go (i + 1))
    else v
  in
  let v = go 0 in
  set r "setup_s" (median !times);
  note r "set-up trials (ms): %s"
    (String.concat " " (List.rev_map (fun t -> Printf.sprintf "%.3f" (1e3 *. t)) !times));
  v

(* The bounded times of an untraced run of an in-process workload at the
   nominal host speed (see Hostspeed); the values as measured are kept on
   a note line. *)
let to_nominal_speed r =
  let f = Hostspeed.factor () in
  let get name = Option.value ~default:0.0 (Hashtbl.find_opt r.metrics name) in
  note r "as measured: ops_per_s %.6g, op_p50_ms %.6g, op_p95_ms %.6g, setup_s %.6g"
    (get "ops_per_s") (get "op_p50_ms") (get "op_p95_ms") (get "setup_s");
  note r "host speed: kernel median %.4f ms over %d samples (nominal %g ms); factor %.4f"
    (Hostspeed.median_ms ()) (List.length !Hostspeed.samples) Hostspeed.nominal_ms f;
  set r "ops_per_s" (get "ops_per_s" /. f);
  List.iter (fun name -> set r name (get name *. f)) [ "op_p50_ms"; "op_p95_ms"; "setup_s" ]

(* ---- paper-matrix ----------------------------------------------------- *)

let expected_path = Filename.concat "perfbench" "expected/paper-matrix.txt"

type cell = { wl : string; prog : Ir.program; vname : string; config : Vm.config }

let matrix_workloads ~tiny =
  List.filter
    (fun (w : Ifp_workloads.Workload.t) ->
      (not tiny) || List.mem w.name Jobmix.experiment_workloads)
    Ifp_workloads.Registry.all

let load_expected () =
  let tbl = Hashtbl.create 32 in
  In_channel.with_open_text expected_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ name; sum; md5 ] when line.[0] <> '#' ->
           Hashtbl.replace tbl name (Int64.of_string sum, md5)
         | _ -> ());
  tbl

(* the cells of workload [w]; its program is validated and lowered once,
   which also warms the front end *)
let cells_of opts (w : Ifp_workloads.Workload.t) =
  let prog = Lazy.force w.prog in
  Typecheck.check_program prog;
  ignore (Resolve.run prog);
  ignore (Resolve.run (fst (Instrument.run prog)));
  List.map
    (fun (vname, config) ->
      { wl = w.name; prog; vname; config = { config with Vm.seed = opts.seed } })
    Report.variants

(* set-up: load the expected values, validate and lower every input
   program, then warm the engine with the cells of the three cheapest
   workloads *)
let paper_setup opts =
  let expected = load_expected () in
  let cells = List.concat_map (cells_of opts) (matrix_workloads ~tiny:opts.tiny) in
  List.iter
    (fun c ->
      if List.mem c.wl Jobmix.experiment_workloads then
        ignore (Engines.run ~config:c.config c.prog))
    cells;
  (expected, cells)

let paper_matrix opts r =
  let expected, cells = timed_setup r ~clock:cpu_now (fun () -> paper_setup opts) in
  let cycles = Hashtbl.create 128 in
  let check_cell c (res : Vm.result) =
    let sum, md5 =
      match Hashtbl.find_opt expected c.wl with
      | Some e -> e
      | None -> (Int64.min_int, "missing")
    in
    let sum = if corrupt opts then Int64.succ sum else sum in
    let ok =
      match res.Vm.outcome with
      | Vm.Finished v -> v = sum && output_md5 res = md5
      | _ -> false
    in
    check r ok "%s/%s: outcome or output differs from the baseline's" c.wl c.vname
  in
  let first_pass c res =
    add_counts r c.vname res;
    Hashtbl.replace cycles (c.wl, c.vname) res.Vm.counters.Counters.cycles
  in
  let passes = ref [] in
  let t_start = now () in
  if not opts.trace then begin
    (* whole passes: at least two, and another only if it fits in the
       measured time *)
    let elapsed = ref 0.0 in
    let continue () =
      match !passes with
      | [] | [ _ ] -> true
      | last :: _ -> !elapsed +. last <= opts.seconds
    in
    while continue () do
      let first = !passes = [] in
      let pass = ref 0.0 in
      List.iter
        (fun c ->
          (* each run starts from a collected heap: it pays for its own
             garbage only, and the peak resident size does not depend on
             where major cycles fall *)
          Gc.full_major ();
          Hostspeed.tick ();
          let t0 = cpu_now () in
          let res = Engines.run ~config:c.config c.prog in
          pass := !pass +. (cpu_now () -. t0);
          check_cell c res;
          if first then first_pass c res)
        cells;
      passes := !pass :: !passes;
      elapsed := now () -. t_start
    done;
    set_latency r !passes;
    to_nominal_speed r
  end
  else begin
    (* one pass; each cell runs untraced, then traced *)
    Span.enable ();
    let exec = Hashtbl.create 8 and instrs = Hashtbl.create 8 in
    let untraced = ref 0.0 and traced = ref 0.0 in
    List.iter
      (fun c ->
        Gc.full_major ();
        let t0 = cpu_now () in
        let res = Engines.run ~config:c.config c.prog in
        let t1 = cpu_now () in
        Gc.full_major ();
        let t2 = cpu_now () in
        let res' =
          Span.with_ "op" (fun () -> traced_run ~exec c.vname c.config c.prog)
        in
        traced := !traced +. (cpu_now () -. t2);
        untraced := !untraced +. (t1 -. t0);
        check_cell c res;
        check_cell c res';
        first_pass c res;
        Hashtbl.replace instrs c.vname
          (Counters.total_instrs res.Vm.counters
          + Option.value ~default:0 (Hashtbl.find_opt instrs c.vname)))
      cells;
    set_span_metrics r ~ops:1 ~exec ~instrs;
    set_trace_overhead r ~traced:!traced ~untraced:!untraced
  end;
  let pairs vname =
    List.map
      (fun (w : Ifp_workloads.Workload.t) ->
        (Hashtbl.find cycles (w.name, "baseline"), Hashtbl.find cycles (w.name, vname)))
      (matrix_workloads ~tiny:opts.tiny)
  in
  set_overheads r ~subheap:(pairs "subheap") ~wrapped:(pairs "wrapped")

let emit_expected () =
  print_endline "# workload  baseline-exit-checksum  md5-of-output-lines";
  List.iter
    (fun (w : Ifp_workloads.Workload.t) ->
      let res = Engines.run ~config:Vm.baseline (Lazy.force w.prog) in
      match res.Vm.outcome with
      | Vm.Finished v -> Printf.printf "%s %Ld %s\n" w.name v (output_md5 res)
      | _ -> failwith (w.name ^ ": baseline run did not finish"))
    Ifp_workloads.Registry.all

(* ---- minic-short ------------------------------------------------------ *)

let minic_pool_size opts = if opts.tiny then 8 else 1024

(* the source at stream position [i] *)
let minic_source opts i =
  Gen.source ~knobs:Gen.default
    ~seed:(Prng.mix2 opts.seed (Int64.of_int (i mod minic_pool_size opts)))
    ()

(* set-up: generate the sources *)
let minic_setup opts = Array.init (minic_pool_size opts) (minic_source opts)

(* one operation: parse, then run under baseline, subheap and wrapped *)
let run_program src =
  let prog = Parser.parse src in
  List.map (fun vname -> (vname, Engines.run ~config:(config_of vname) prog)) configs3

let minic_short opts r =
  let pool = timed_setup r ~clock:cpu_now (fun () -> minic_setup opts) in
  let pool_size = Array.length pool in
  let sub = ref [] and wrap = ref [] in
  let check_program i results =
    let base = List.assoc "baseline" results in
    let expect =
      match base.Vm.outcome with
      | Vm.Finished v -> Some ((if corrupt opts then Int64.succ v else v), base.Vm.output)
      | _ -> None
    in
    let agrees (_, (res : Vm.result)) =
      match (expect, res.Vm.outcome) with
      | Some (v, out), Vm.Finished v' -> v = v' && out = res.Vm.output
      | _ -> false
    in
    check r (List.for_all agrees results)
      "program %d: the configurations differ in exit value or output" i;
    (* distinct programs are counted once *)
    if i < pool_size then begin
      List.iter (fun (vname, res) -> add_counts r vname res) results;
      let cyc v = (List.assoc v results).Vm.counters.Counters.cycles in
      sub := (cyc "baseline", cyc "subheap") :: !sub;
      wrap := (cyc "baseline", cyc "wrapped") :: !wrap
    end
  in
  let t_start = now () in
  let i = ref 0 in
  let running () = !i < pool_size || now () -. t_start < opts.seconds in
  if not opts.trace then begin
    let lats = ref [] in
    let per_program = Array.make pool_size [] in
    while running () do
      Hostspeed.tick ();
      let t0 = cpu_now () in
      let results = run_program pool.(!i mod pool_size) in
      let t = cpu_now () -. t0 in
      lats := t :: !lats;
      per_program.(!i mod pool_size) <- t :: per_program.(!i mod pool_size);
      check_program !i results;
      incr i
    done;
    set_latency r !lats;
    (* a program's latency is the median of its repeats, so that a slow
       moment of the host moves one sample and not the percentiles *)
    let typical = Array.to_list (Array.map median per_program) in
    set r "op_p50_ms" (1e3 *. percentile 0.5 typical);
    set r "op_p95_ms" (1e3 *. percentile 0.95 typical);
    to_nominal_speed r
  end
  else begin
    (* each program runs untraced, then traced *)
    Span.enable ();
    let exec = Hashtbl.create 8 and instrs = Hashtbl.create 8 in
    let untraced = ref 0.0 and traced = ref 0.0 in
    while running () do
      let src = pool.(!i mod pool_size) in
      let t0 = cpu_now () in
      let results = run_program src in
      untraced := !untraced +. (cpu_now () -. t0);
      check_program !i results;
      let t1 = cpu_now () in
      let results' =
        Span.with_ "op" (fun () ->
            let prog = Span.with_ "compiler.parse" (fun () -> Parser.parse src) in
            List.map
              (fun vname -> (vname, traced_run ~exec vname (config_of vname) prog))
              configs3)
      in
      traced := !traced +. (cpu_now () -. t1);
      check_program (!i + pool_size) results';
      List.iter
        (fun (vname, res) ->
          Hashtbl.replace instrs vname
            (Counters.total_instrs res.Vm.counters
            + Option.value ~default:0 (Hashtbl.find_opt instrs vname)))
        results';
      incr i
    done;
    set r "compiler.source_kb"
      (Array.fold_left (fun a src -> a +. float (String.length src)) 0.0 pool
      /. 1024.0 /. float pool_size);
    set_span_metrics r ~ops:!i ~exec ~instrs;
    set_trace_overhead r ~traced:!traced ~untraced:!untraced
  end;
  set_overheads r ~subheap:!sub ~wrapped:!wrap

(* ---- service-mixed ---------------------------------------------------- *)

let tmp_root = ".perfbench-tmp"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  ignore
    (List.fold_left
       (fun acc part ->
         let p = if acc = "" then part else Filename.concat acc part in
         (try Sys.mkdir p 0o755 with Sys_error _ -> ());
         p)
       "" (String.split_on_char '/' path))

(* The daemon is the ifp_serviced binary, started afresh for each run
   with 1 worker domain and a fresh cache directory. *)
type daemon = { dir : string; pid : int; clients : Client.t array }

(* daemons started and not yet stopped; stopped at exit whatever happens *)
let live_daemons = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  live_daemons := List.filter (( <> ) pid) !live_daemons

let () = at_exit (fun () -> List.iter reap !live_daemons)

let start_daemon ~serviced ~dir =
  mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.out") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process serviced
          [| serviced; "--socket"; socket; "--workers"; "1"; "--cache-dir";
             Filename.concat dir "cache"; "--no-log" |]
          Unix.stdin log log)
  in
  live_daemons := pid :: !live_daemons;
  (* the socket accepts once the daemon listens; retry until then *)
  let deadline = now () +. 10.0 in
  let rec connect k =
    try Client.connect ~socket ~tenant:(Printf.sprintf "bench-%d" k) ()
    with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline ->
      Unix.sleepf 0.0002;
      connect k
  in
  match Array.init 2 connect with
  | clients ->
    Array.iter Client.ping clients;
    { dir; pid; clients }
  | exception e ->
    reap pid;
    raise e

let stop_daemon d =
  Array.iter Client.close d.clients;
  reap d.pid;
  rm_rf d.dir

(* CPU seconds of the live threads of process [pid], from the
   nanosecond run times in /proc/<pid>/task/*/schedstat *)
let threads_cpu_s pid =
  let task = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir task with
  | tids ->
    Array.fold_left
      (fun acc tid ->
        match
          In_channel.with_open_text (Filename.concat task (tid ^ "/schedstat")) (fun ic ->
              Scanf.sscanf (In_channel.input_all ic) "%Ld" Fun.id)
        with
        | ns -> acc +. (Int64.to_float ns /. 1e9)
        | exception (Sys_error _ | Scanf.Scan_failure _ | End_of_file) -> acc)
      0.0 tids
  | exception Sys_error _ -> 0.0

(* CPU seconds of this process and of the live daemons: the clock of the
   service set-up, whose work is mostly the daemon's *)
let service_cpu () =
  List.fold_left (fun acc pid -> acc +. threads_cpu_s pid) (cpu_now ()) !live_daemons

(* peak resident size of the daemon process, added to the benchmark's *)
let daemon_rss_mb = ref 0.0

type pair = { p_miss : float; p_hit : float (** seconds *) }

(* a seeded sample of the stream is re-run directly after the run *)
let sample_every = 97

(* set-up: build the job mix, start the daemon and warm it with one pass
   of jobs whose digests the measured stream never uses *)
let setups = ref 0

let service_setup opts =
  let base = Lazy.force Jobmix.base in
  incr setups;
  let d =
    start_daemon ~serviced:opts.serviced
      ~dir:(Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !setups))
  in
  Array.iteri
    (fun i _ ->
      let _, job = Jobmix.nth ~seed:(Int64.lognot opts.seed) i in
      ignore (Client.submit_wait d.clients.(i mod 2) job))
    base;
  d

let service_mixed opts r =
  let d =
    timed_setup r ~discard:stop_daemon ~clock:service_cpu (fun () -> service_setup opts)
  in
  let n_base = Array.length (Lazy.force Jobmix.base) in
  let lock = Mutex.create () in
  let pairs = ref [] and busy = ref 0 in
  (* wall time of each pass over the job mix: every [n_base] pairs *)
  let passes = ref [] and last_pass = ref 0.0 and completed = ref 0 in
  (* result bytes are kept only where checked after the run *)
  let kept = ref [] in
  let offset = Int64.to_int (Int64.unsigned_rem opts.seed (Int64.of_int sample_every)) in
  let submit c job =
    let t0 = now () in
    match
      Client.submit_wait ~max_tries:50 ~on_busy:(fun _ -> Mutex.protect lock (fun () -> incr busy)) c job
    with
    | comp -> Ok (comp, now () -. t0)
    | exception e -> Error (Printexc.to_string e)
  in
  (* one closed loop per connection: client k takes stream positions
     first+k, first+k+2, ...; each is submitted twice. The first
     segment covers the job mix at least once. *)
  let loop d ~first ~deadline k =
    let c = d.clients.(k) in
    let i = ref (first + k) in
    while (first = 0 && !i < n_base) || now () < deadline do
      let index = !i in
      let kind, job = Jobmix.nth ~seed:opts.seed index in
      let outcome =
        match submit c job with
        | Error e -> Error e
        | Ok (miss, t_miss) -> (
          match submit c job with
          | Error e -> Error e
          | Ok (hit, t_hit) -> Ok (miss, t_miss, hit, t_hit))
      in
      Mutex.protect lock (fun () ->
          match outcome with
          | Error e ->
            check r false "%s: submission failed: %s" job.Job.name e;
            check r false "%s: no hit after a failed miss" job.Job.name
          | Ok (miss, t_miss, hit, t_hit) ->
            let bytes = miss.Protocol.c_result_bytes in
            check r
              (miss.Protocol.c_status = Engine.Done && not miss.Protocol.c_from_cache)
              "%s: first submission was not a fresh Done run" job.Job.name;
            let expect = if corrupt opts then bytes ^ "!" else bytes in
            check r
              (hit.Protocol.c_status = Engine.Done && hit.Protocol.c_from_cache
             && hit.Protocol.c_result_bytes = expect)
              "%s: cache hit differs from its miss" job.Job.name;
            pairs := { p_miss = t_miss; p_hit = t_hit } :: !pairs;
            if index mod sample_every = offset
               || (index < n_base && kind = Jobmix.Experiment)
            then kept := (index, kind, job, bytes) :: !kept;
            incr completed;
            if !completed mod n_base = 0 then begin
              let t = now () in
              passes := (t -. !last_pass) :: !passes;
              last_pass := t
            end);
      i := !i + 2
    done
  in
  (* The stream runs in [segments] parts, each against a daemon of its
     own: the set-up's for the first, a fresh warmed one for each further
     part. On a shared host a process keeps the speed it draws at start
     (see README.md), and the daemon does most of the work, so a run
     combines several draws. Stream positions of segment [s] start at
     [s * 1_000_000]. *)
  let segments = if opts.tiny then 1 else 5 in
  let elapsed = ref 0.0 and stats = ref None in
  for s = 0 to segments - 1 do
    let d = if s = 0 then d else service_setup opts in
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        let t_start = now () in
        let deadline = t_start +. (opts.seconds /. float segments) in
        last_pass := t_start;
        completed := 0;
        let workers =
          List.init 2 (fun k -> Thread.create (loop d ~first:(s * 1_000_000) ~deadline) k)
        in
        List.iter Thread.join workers;
        elapsed := !elapsed +. (now () -. t_start);
        if s = segments - 1 then stats := Some (Client.stats d.clients.(0));
        daemon_rss_mb :=
          Float.max !daemon_rss_mb
            (Option.value ~default:0.0 (vm_hwm_mb (string_of_int d.pid))))
  done;
  let elapsed = !elapsed and stats = Option.get !stats in
  let pairs = !pairs in
  (* the seeded sample must equal a direct run through the campaign path *)
  List.iter
    (fun (index, _, job, bytes) ->
      if index mod sample_every = offset then
        check r
          (Protocol.encode_result (Some (Engine.default_runner job)) = bytes)
          "%s: daemon result differs from a direct run" job.Job.name)
    !kept;
  (* the cheap paper workloads' first cycle gives the overheads *)
  let cycles = Hashtbl.create 16 in
  List.iter
    (fun (index, kind, job, bytes) ->
      if index < n_base && kind = Jobmix.Experiment then
        match Protocol.decode_result bytes with
        | Some res ->
          Hashtbl.replace cycles (job.Job.group, job.Job.variant)
            res.Vm.counters.Counters.cycles
        | None -> ())
    !kept;
  let overhead v =
    List.filter_map
      (fun wl ->
        match (Hashtbl.find_opt cycles (wl, "baseline"), Hashtbl.find_opt cycles (wl, v)) with
        | Some b, Some x -> Some (b, x)
        | _ -> None)
      Jobmix.experiment_workloads
  in
  set_overheads r ~subheap:(overhead "subheap") ~wrapped:(overhead "wrapped");
  (* An operation is one pass over the job mix (n_base distinct jobs,
     each submitted twice); the submission latencies are per-layer
     metrics. *)
  set_latency r !passes;
  note r "pairs: %d (%d passes) in %.2f s" (List.length pairs) (List.length !passes) elapsed;
  let pct name p l = set r name (1e3 *. percentile p l) in
  let misses = List.map (fun p -> p.p_miss) pairs and hits = List.map (fun p -> p.p_hit) pairs in
  pct "service.miss_p50_ms" 0.5 misses;
  pct "service.miss_p95_ms" 0.95 misses;
  pct "service.hit_p50_ms" 0.5 hits;
  pct "service.hit_p95_ms" 0.95 hits;
  note r "svc_jobs_per_s %.1f  miss p50 %.3f ms p95 %.3f ms  hit p50 %.3f ms p95 %.3f ms"
    (float (2 * List.length pairs) /. elapsed)
    (Hashtbl.find r.metrics "service.miss_p50_ms")
    (Hashtbl.find r.metrics "service.miss_p95_ms")
    (Hashtbl.find r.metrics "service.hit_p50_ms")
    (Hashtbl.find r.metrics "service.hit_p95_ms");
  (match stats with
  | Events.Obj fields ->
    let num name =
      match List.assoc_opt name fields with
      | Some (Events.Int n) -> float n
      | Some (Events.Float f) -> f
      | _ -> 0.0
    in
    List.iter
      (fun (metric, field) -> set r metric (num field))
      [
        ("service.worker_utilization", "worker_utilization");
        ("service.cache_hits", "cache_hits");
        ("service.busy_rejections", "busy_rejected");
        ("service.completed", "completed");
        ("service.failed", "failed");
      ]
  | _ -> ());
  note r "client-side busy retries: %d" !busy

(* ---- host, layers, output -------------------------------------------- *)

let peak_rss_mb () =
  match vm_hwm_mb "self" with
  | Some mb -> mb
  | None -> float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let layer_microbenchmarks r =
  List.iter (fun (s, ns) -> set r ("meta.promote_ns." ^ s) ns) (Layers.promote_ns ());
  List.iter (fun (a, ns) -> set r ("alloc.malloc_free_ns." ^ a) ns) (Layers.malloc_free_ns ());
  set r "cache.access_ns" (Layers.cache_access_ns ());
  List.iter
    (fun (c, ms) -> set r ("vm.fixed_ms." ^ c) ms)
    (Layers.fixed_ms (List.map (fun c -> (c, config_of c)) configs3));
  let dir = Filename.concat tmp_root (Printf.sprintf "%d-codec" (Unix.getpid ())) in
  mkdir_p dir;
  let c = Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> Layers.codec ~dir) in
  set r "campaign.digest_ms" c.Layers.digest_ms;
  set r "campaign.cache_find_ms" c.cache_find_ms;
  set r "campaign.cache_store_ms" c.cache_store_ms;
  set r "protocol.encode_request_us" c.encode_request_us;
  set r "protocol.decode_reply_us" c.decode_reply_us;
  set r "protocol.request_kb" c.request_kb;
  set r "protocol.reply_kb" c.reply_kb

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result opts r =
  let declared = if opts.trace then per_layer else end_to_end in
  List.iter
    (fun (name, unit) ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt r.metrics name) in
      (* the paper's Fig. 10 geo-means (EXPERIMENTS.md), for the
         workload that reproduces that figure *)
      let ref_note =
        match name with
        | _ when opts.workload <> "paper-matrix" -> ""
        | "sim_cycle_overhead_subheap_pct" ->
          Printf.sprintf "   (paper Fig. 10: ~12%%; gap %+.1f pp)" (v -. 12.0)
        | "sim_cycle_overhead_wrapped_pct" ->
          Printf.sprintf "   (paper Fig. 10: ~24%%; gap %+.1f pp)" (v -. 24.0)
        | _ -> ""
      in
      Printf.printf "%-36s %16.6f %s%s\n" name v unit ref_note)
    declared;
  List.iter print_endline (List.rev r.notes);
  Printf.printf "attempted %d, failed %d\n" r.attempted r.failed;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (Option.value ~default:0.0 (Hashtbl.find_opt r.metrics name)))
          unit)
      declared
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

let usage () =
  prerr_endline
    "usage: perfbench --workload paper-matrix|minic-short|service-mixed --seed N\n\
    \                 --seconds S --trace 0|1 [--git-rev REV]\n\
    \                 [--serviced PATH] [--tiny] [--inject-bad-checksum]\n\
    \       perfbench --emit-expected";
  exit 2

let parse_opts argv =
  let o =
    ref
      {
        workload = "";
        seed = 0L;
        seconds = 10.0;
        trace = false;
        tiny = false;
        inject = false;
        git_rev = "unknown";
        serviced = Filename.concat "_build" "default/bin/ifp_serviced.exe";
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o := { !o with workload = w }; go rest
    | "--seed" :: s :: rest ->
      (match Int64.of_string_opt s with Some n -> o := { !o with seed = n } | None -> usage ());
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some f when f > 0.0 -> o := { !o with seconds = f }
      | _ -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> o := { !o with trace = t = "1" }; go rest
    | "--git-rev" :: g :: rest -> o := { !o with git_rev = g }; go rest
    | "--serviced" :: p :: rest -> o := { !o with serviced = p }; go rest
    | "--tiny" :: rest -> o := { !o with tiny = true }; go rest
    | "--inject-bad-checksum" :: rest -> o := { !o with inject = true }; go rest
    | "--emit-expected" :: _ -> emit_expected (); exit 0
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  !o

let () =
  let opts = parse_opts Sys.argv in
  let workload =
    match opts.workload with
    | "paper-matrix" -> paper_matrix
    | "minic-short" -> minic_short
    | "service-mixed" -> service_mixed
    | _ -> usage ()
  in
  if not (Sys.file_exists expected_path && Sys.file_exists opts.serviced) then (
    prerr_endline "perfbench: run from the repository root, with ifp_serviced built";
    exit 2);
  Printf.printf
    "# host %s  nproc %d  ocaml %s  git %s  default engine %s\n\
     # workload %s  seed %Ld  seconds %g  trace %d\n%!"
    (Unix.gethostname ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version opts.git_rev
    (Engines.to_string Vm.default_config.Vm.engine)
    opts.workload opts.seed opts.seconds
    (if opts.trace then 1 else 0);
  Hostspeed.start ();
  let r = fresh_run () in
  workload opts r;
  if opts.trace then layer_microbenchmarks r;
  set r "peak_rss_mb" (peak_rss_mb () +. !daemon_rss_mb);
  set r "host.kernel_ms" (Hostspeed.median_ms ());
  (try Sys.rmdir tmp_root with Sys_error _ -> ());
  print_result opts r;
  exit (if r.failed = 0 then 0 else 1)
