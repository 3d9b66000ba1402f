(* Load generator for ifp_serviced: forks N client processes, each with
   its own tenant identity, and hammers the daemon with a mixed stream
   of experiment, fault-injection and Juliet jobs (tens of thousands of
   submissions cycling over a few dozen distinct jobs, so the sharded
   result cache sees both cold misses and a long hot tail).

   Each child records per-job latency, backpressure rejections and the
   MD5 of every completion's canonical result bytes. The parent merges
   the summaries, computes exact p50/p95/p99 and throughput (overall and
   per tenant), cross-checks that every client saw identical bytes for
   identical job digests, optionally re-runs every distinct job directly
   through Engine.default_runner to assert daemon-served ≡ direct-run
   byte-for-byte (--verify, on by default), asks the daemon for its own
   stats snapshot, and writes the whole benchmark to BENCH_service.json.

   Exits nonzero on any child failure, cross-client inconsistency or
   verification mismatch.

   Usage: ifp_loadgen [--socket PATH] [--clients N] [-n JOBS]
                      [--seeds N] [--juliet N] [--out FILE]
                      [--no-verify] [--quiet] [--via-chaos SEED]
                      [--chaos-{drop,corrupt,delay,truncate,dribble,dup} R]
                      [--resilient] [--budget SECS] *)

module Job = Ifp_campaign.Job
module Cli = Ifp_campaign.Cli
module Engine = Ifp_campaign.Engine
module Events = Ifp_campaign.Events
module Vm = Ifp_vm.Vm
module Report = Core.Report
module W = Ifp_workloads.Workload
module Registry = Ifp_workloads.Registry
module Fault = Ifp_faultinject.Fault
module Victim = Ifp_faultinject.Victim
module Juliet = Ifp_juliet.Juliet
module Client = Ifp_service.Client
module Protocol = Ifp_service.Protocol
module Chaosproxy = Ifp_service.Chaosproxy

(* ---------------- options ---------------- *)

let socket = ref "ifp-service.sock" and clients = ref 2 and n_jobs = ref 10_000
let seeds = ref 2 (* fault-plan seeds per class x variant *)
let juliet = ref 8 (* Juliet cases in the mix (good+bad each) *)
let out = ref "BENCH_service.json" and verify = ref true and quiet = ref false
let chaos_seed = ref None (* Some = interpose the chaos proxy *)
let chaos_drop = ref 0.02 and chaos_corrupt = ref 0.02
let chaos_delay = ref 0.02 and chaos_truncate = ref 0.01
let chaos_dribble = ref 0.01 and chaos_dup = ref 0.01
let resilient = ref false (* children use Client.Resilient *)
let budget = ref 120.0 (* per-submit wall-clock budget (resilient mode) *)

(* -n/--jobs is a job count here, not the campaign -j worker flag *)
let parse_opts () =
  let rate r =
    Cli.checked "a rate in [0,1]"
      (fun s ->
        match float_of_string_opt s with
        | Some x when x >= 0.0 && x <= 1.0 -> Some x
        | _ -> None)
      (( := ) r)
  in
  let chaos name what r =
    ( "--chaos-" ^ name,
      rate r,
      Printf.sprintf "R per-chunk rate of %s (default %g)" what !r )
  in
  let jobs = Cli.at_least_one (( := ) n_jobs) in
  Cli.parse
    [
      ( "--socket",
        Arg.Set_string socket,
        "PATH the daemon's socket (default " ^ !socket ^ ")" );
      ( "--clients",
        Cli.at_least_one (( := ) clients),
        Printf.sprintf "N forked client processes (default %d)" !clients );
      ("-n", jobs, Printf.sprintf "N total submissions (default %d)" !n_jobs);
      ("--jobs", jobs, "");
      ( "--seeds",
        Cli.at_least_one (( := ) seeds),
        Printf.sprintf "N fault-plan seeds per class x variant (default %d)"
          !seeds );
      ( "--juliet",
        Cli.nat (( := ) juliet),
        Printf.sprintf "N Juliet cases in the mix (default %d)" !juliet );
      ( "--out",
        Arg.Set_string out,
        "FILE aggregate destination (default " ^ !out ^ ")" );
      ( "--verify",
        Arg.Set verify,
        " re-run every distinct job directly and compare (default)" );
      ("--no-verify", Arg.Clear verify, " skip the direct re-run");
      ("--quiet", Arg.Set quiet, " no progress output");
      ( "--via-chaos",
        Cli.int64 (fun seed -> chaos_seed := Some seed),
        "SEED interpose the seeded network-chaos proxy" );
      chaos "drop" "dropped connections" chaos_drop;
      chaos "corrupt" "byte flips" chaos_corrupt;
      chaos "delay" "delays" chaos_delay;
      chaos "truncate" "truncated connections" chaos_truncate;
      chaos "dribble" "slow-loris dribbles" chaos_dribble;
      chaos "dup" "duplicated chunks" chaos_dup;
      ( "--resilient",
        Arg.Set resilient,
        " reconnecting circuit-breaker clients" );
      ( "--budget",
        Cli.checked "a positive number of seconds"
          (fun s ->
            match float_of_string_opt s with
            | Some b when b > 0.0 -> Some b
            | _ -> None)
          (( := ) budget),
        Printf.sprintf "SECS per-submit budget, resilient mode (default %g)"
          !budget );
    ]
    "usage: ifp_loadgen [OPTIONS]"

(* ---------------- the distinct job mix ---------------- *)

(* the same cheap workloads the campaign tests use: the point here is
   protocol/scheduler/cache traffic, not simulator wall-clock *)
let experiment_workloads = [ "wolfcrypt-dh"; "power"; "ks" ]

let experiment_jobs () =
  List.concat_map
    (fun name ->
      match Registry.find name with
      | None -> []
      | Some wl ->
        let prog = Lazy.force wl.W.prog in
        List.map
          (fun (vname, config) ->
            Job.make ~name:(name ^ "/" ^ vname) ~group:name ~variant:vname
              ~config prog)
          Report.variants)
    experiment_workloads

let fault_variants =
  [
    ("baseline", Vm.baseline);
    ("ifp", Vm.ifp_wrapped);
    ("ifp-np", Vm.no_promote Vm.Alloc_wrapped);
  ]

let fault_jobs ~seeds =
  let prog = Victim.program () in
  List.concat_map
    (fun cls ->
      List.concat_map
        (fun (vname, config) ->
          List.init seeds (fun seed ->
              let plan = Fault.default_plan cls ~seed:(Int64.of_int seed) in
              Job.make
                ~name:
                  (Printf.sprintf "fault/%s/%s/%d" (Fault.class_name cls)
                     vname seed)
                ~group:("fault/" ^ Fault.class_name cls)
                ~variant:vname
                ~config:{ config with Vm.fault_plan = Some plan }
                prog))
        fault_variants)
    Fault.all_classes

let juliet_jobs ~count =
  if count <= 0 then []
  else
    let config = Vm.ifp_wrapped in
    let cases = Juliet.all_cases () in
    let cases = List.filteri (fun i _ -> i < count) cases in
    List.concat_map
      (fun (c : Juliet.case) ->
        [
          Job.make
            ~name:(Printf.sprintf "juliet/%s/bad" c.id)
            ~group:("juliet/" ^ c.id) ~variant:"wrapped" ~config c.bad;
          Job.make
            ~name:(Printf.sprintf "juliet/%s/good" c.id)
            ~group:("juliet/" ^ c.id) ~variant:"wrapped" ~config c.good;
        ])
      cases

let distinct_jobs () =
  let jobs =
    experiment_jobs () @ fault_jobs ~seeds:!seeds
    @ juliet_jobs ~count:!juliet
  in
  if jobs = [] then (
    prerr_endline "ifp_loadgen: empty job mix";
    exit 1);
  Array.of_list jobs

(* ---------------- child processes ---------------- *)

type child_summary = {
  cs_tenant : string;
  cs_weight : int;
  cs_done : int;
  cs_busy : int;  (** backpressure rejections absorbed by retry *)
  cs_cache_hits : int;  (** completions flagged from_cache *)
  cs_not_done : int;  (** completions with a non-Done engine status *)
  cs_lat : float array;  (** per-job seconds, submit to reply *)
  cs_md5 : (string * string) list;  (** job digest -> MD5 of result bytes *)
  cs_errors : string list;
  (* resilient-mode recovery counters (all 0 for the plain client) *)
  cs_reconnects : int;
  cs_resubmits : int;
  cs_breaker : (int * int * int);  (** (opens, half_opens, closes) *)
}

(* child [k] takes stream positions k, k+clients, k+2*clients, ... so
   every client sees the full mix and distinct jobs interleave across
   tenants (maximal shard-lock and scheduler contention). [socket] is
   the daemon — or the chaos proxy standing in front of it. *)
let run_child ~socket ~jobs ~k ~out_file =
  let tenant = "t" ^ string_of_int k in
  let weight = 1 + (k mod 2) in
  let n_distinct = Array.length jobs in
  let busy = ref 0 in
  let cache_hits = ref 0 in
  let not_done = ref 0 in
  let lat = ref [] in
  let md5 = Hashtbl.create 64 in
  let errors = ref [] in
  let completed = ref 0 in
  let reconnects = ref 0 in
  let resubmits = ref 0 in
  let breaker_transitions = ref (0, 0, 0) in
  let record job (comp : Protocol.completion) t0 =
    lat := (Unix.gettimeofday () -. t0) :: !lat;
    incr completed;
    if comp.Protocol.c_from_cache then incr cache_hits;
    (match comp.Protocol.c_status with
    | Engine.Done -> ()
    | st ->
      incr not_done;
      errors :=
        Printf.sprintf "%s: %s" job.Job.name (Protocol.status_string st)
        :: !errors);
    let h = Digest.to_hex (Digest.string comp.Protocol.c_result_bytes) in
    match Hashtbl.find_opt md5 comp.Protocol.c_digest with
    | None -> Hashtbl.add md5 comp.Protocol.c_digest h
    | Some h' when h' = h -> ()
    | Some h' ->
      errors :=
        Printf.sprintf "%s: result bytes changed between repeats (%s vs %s)"
          job.Job.name h' h
        :: !errors
  in
  (try
     if !resilient then begin
       (* the self-healing client: survives the chaos proxy and daemon
          restarts by reconnecting + idempotently re-submitting. The
          per-frame io deadline scales down with the call budget: a
          dropped frame must cost a slice of the budget, not the 30 s
          default (one drop would otherwise eat half of --budget 60) *)
       let io_timeout = Float.max 1.0 (Float.min 30.0 (!budget /. 12.0)) in
       let rt =
         Client.Resilient.create
           (Client.Resilient.config ~weight ~io_timeout
              ~connect_timeout:(Float.min 5.0 io_timeout)
              ~call_budget:!budget ~socket ~tenant ())
       in
       let i = ref k in
       while !i < !n_jobs do
         let job = jobs.(!i mod n_distinct) in
         let t0 = Unix.gettimeofday () in
         record job (Client.Resilient.submit rt job) t0;
         i := !i + !clients
       done;
       busy := Client.Resilient.busy_retries rt;
       reconnects := Client.Resilient.reconnects rt;
       resubmits := Client.Resilient.resubmits rt;
       breaker_transitions :=
         Ifp_service.Breaker.transitions (Client.Resilient.breaker rt);
       Client.Resilient.close rt
     end
     else begin
       let c = Client.connect ~weight ~socket ~tenant () in
       let i = ref k in
       while !i < !n_jobs do
         let job = jobs.(!i mod n_distinct) in
         let t0 = Unix.gettimeofday () in
         record job (Client.submit_wait ~on_busy:(fun _ -> incr busy) c job) t0;
         i := !i + !clients
       done;
       Client.close c
     end
   with e -> errors := ("client " ^ tenant ^ ": " ^ Printexc.to_string e) :: !errors);
  let summary =
    {
      cs_tenant = tenant;
      cs_weight = weight;
      cs_done = !completed;
      cs_busy = !busy;
      cs_cache_hits = !cache_hits;
      cs_not_done = !not_done;
      cs_lat = Array.of_list (List.rev !lat);
      cs_md5 = Hashtbl.fold (fun k v acc -> (k, v) :: acc) md5 [];
      cs_errors = List.rev !errors;
      cs_reconnects = !reconnects;
      cs_resubmits = !resubmits;
      cs_breaker = !breaker_transitions;
    }
  in
  let oc = open_out_bin out_file in
  Marshal.to_channel oc summary [];
  close_out oc;
  (* _exit: skip at_exit so the child never flushes the parent's
     buffered stdout a second time *)
  if summary.cs_errors = [] then Unix._exit 0 else Unix._exit 1

(* ---------------- the chaos proxy child ----------------

   The proxy needs pump threads, and this parent forks client processes
   — forking a multithreaded OCaml process is unsafe (only the forking
   thread survives; any lock held by another thread stays locked
   forever). So the proxy lives in its own single-purpose forked child:
   the parent stays thread-free until all forks are done, and the proxy
   child never forks. On SIGTERM the child stops the proxy, writes its
   stats (marshalled Events.json) to [stats_file], and exits. *)

let run_proxy_child ~plan ~listen ~upstream ~stats_file =
  let stop = Atomic.make false in
  let handler _ = Atomic.set stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  let p = Chaosproxy.start ~plan ~listen ~upstream () in
  while not (Atomic.get stop) do
    Thread.delay 0.05
  done;
  Chaosproxy.stop p;
  let oc = open_out_bin stats_file in
  Marshal.to_channel oc (Chaosproxy.stats_json p) [];
  close_out oc;
  Unix._exit 0

let start_chaos_proxy seed =
  let plan =
    Chaosproxy.plan ~delay_rate:!chaos_delay ~corrupt_rate:!chaos_corrupt
      ~drop_rate:!chaos_drop ~truncate_rate:!chaos_truncate
      ~dribble_rate:!chaos_dribble ~duplicate_rate:!chaos_dup ~seed ()
  in
  let listen = !socket ^ ".chaos" in
  let stats_file = Filename.temp_file "ifp-chaos" ".stats" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> run_proxy_child ~plan ~listen ~upstream:!socket ~stats_file
  | pid ->
    (* wait for the proxy socket before unleashing the clients *)
    let rec wait n =
      if n > 0 && not (Sys.file_exists listen) then (
        Unix.sleepf 0.02;
        wait (n - 1))
    in
    wait 250;
    (pid, listen, stats_file, Chaosproxy.fingerprint plan)

let stop_chaos_proxy (pid, _listen, stats_file, _fp) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  let stats =
    try
      let ic = open_in_bin stats_file in
      let j : Events.json = Marshal.from_channel ic in
      close_in ic;
      j
    with _ -> Events.Null
  in
  (try Sys.remove stats_file with Sys_error _ -> ());
  stats

(* ---------------- aggregation ---------------- *)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (q *. float n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let latency_json lat =
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let mean =
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 sorted /. float n
  in
  let ms s = Events.Float (1000.0 *. s) in
  Events.Obj
    [
      ("count", Events.Int n);
      ("mean_ms", ms mean);
      ("p50_ms", ms (quantile sorted 0.50));
      ("p95_ms", ms (quantile sorted 0.95));
      ("p99_ms", ms (quantile sorted 0.99));
      ("max_ms", ms (if n = 0 then 0.0 else sorted.(n - 1)));
    ]

let () =
  (* clients write into sockets the chaos proxy severs at will: the
     write must surface as EPIPE (a retryable connection failure the
     resilient client absorbs), not SIGPIPE's default process kill.
     Set before forking so every client child and the proxy child
     inherit it. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  parse_opts ();
  let jobs = distinct_jobs () in
  if not !quiet then
    Printf.printf
      "ifp_loadgen: %d jobs (%d distinct) across %d clients -> %s\n%!"
      !n_jobs (Array.length jobs) !clients !socket;
  let chaos = Option.map start_chaos_proxy !chaos_seed in
  let client_socket =
    match chaos with
    | Some (_, listen, _, fp) ->
      if not !quiet then
        Printf.printf "ifp_loadgen: chaos proxy %s on %s -> %s\n%!" fp listen
          !socket;
      listen
    | None -> !socket
  in
  let t_start = Unix.gettimeofday () in
  let children =
    List.init !clients (fun k ->
        let out_file = Filename.temp_file "ifp-loadgen" ".child" in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 -> run_child ~socket:client_socket ~jobs ~k ~out_file
        | pid -> (pid, out_file))
  in
  let child_failed = ref false in
  let summaries =
    List.map
      (fun (pid, out_file) ->
        let _, status = Unix.waitpid [] pid in
        (match status with
        | Unix.WEXITED 0 -> ()
        | _ -> child_failed := true);
        let summary =
          try
            let ic = open_in_bin out_file in
            let s : child_summary = Marshal.from_channel ic in
            close_in ic;
            Some s
          with _ -> None
        in
        (try Sys.remove out_file with Sys_error _ -> ());
        summary)
      children
    |> List.filter_map Fun.id
  in
  let wall = Unix.gettimeofday () -. t_start in
  let chaos_stats = Option.map stop_chaos_proxy chaos in
  if List.length summaries < !clients then child_failed := true;
  List.iter
    (fun s ->
      List.iter
        (fun e -> Printf.eprintf "ifp_loadgen: %s: %s\n" s.cs_tenant e)
        s.cs_errors)
    summaries;
  let total_done = List.fold_left (fun a s -> a + s.cs_done) 0 summaries in
  let total_busy = List.fold_left (fun a s -> a + s.cs_busy) 0 summaries in
  let total_hits =
    List.fold_left (fun a s -> a + s.cs_cache_hits) 0 summaries
  in
  let total_not_done =
    List.fold_left (fun a s -> a + s.cs_not_done) 0 summaries
  in
  let total_reconnects =
    List.fold_left (fun a s -> a + s.cs_reconnects) 0 summaries
  in
  let total_resubmits =
    List.fold_left (fun a s -> a + s.cs_resubmits) 0 summaries
  in
  let breaker_opens, breaker_half_opens, breaker_closes =
    List.fold_left
      (fun (o, h, c) s ->
        let o', h', c' = s.cs_breaker in
        (o + o', h + h', c + c'))
      (0, 0, 0) summaries
  in
  let all_lat = Array.concat (List.map (fun s -> s.cs_lat) summaries) in
  (* every tenant that ran a given digest must have seen the same bytes:
     cache-served, queue-served and freshly-run replies all agree *)
  let observed = Hashtbl.create 64 in
  let consistency_errors = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun (digest, h) ->
          match Hashtbl.find_opt observed digest with
          | None -> Hashtbl.add observed digest h
          | Some h' when h' = h -> ()
          | Some _ ->
            incr consistency_errors;
            Printf.eprintf
              "ifp_loadgen: cross-client result mismatch for digest %s\n"
              digest)
        s.cs_md5)
    summaries;
  (* --verify: the acceptance check — daemon-served results must be
     byte-identical (canonical No_sharing marshalling) to running the
     same job directly through the engine's runner in this process *)
  let verify_checked = ref 0 in
  let verify_mismatches = ref 0 in
  if !verify then begin
    if not !quiet then
      Printf.printf "ifp_loadgen: verifying %d distinct jobs vs direct run...\n%!"
        (Array.length jobs);
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun job ->
        let digest = Job.digest job in
        if not (Hashtbl.mem seen digest) then begin
          Hashtbl.add seen digest ();
          match Hashtbl.find_opt observed digest with
          | None -> ()  (* job count below mix size: never submitted *)
          | Some daemon_md5 ->
            incr verify_checked;
            let direct =
              Protocol.encode_result (Some (Engine.default_runner job))
            in
            let direct_md5 = Digest.to_hex (Digest.string direct) in
            if direct_md5 <> daemon_md5 then begin
              incr verify_mismatches;
              Printf.eprintf
                "ifp_loadgen: VERIFY MISMATCH %s (daemon %s, direct %s)\n"
                job.Job.name daemon_md5 direct_md5
            end
        end)
      jobs
  end;
  (* the daemon's own view: shard hit rates, queue depths, utilization *)
  let server_stats =
    try
      let c = Client.connect ~socket:!socket ~tenant:"loadgen-stats" () in
      let json = Client.stats c in
      Client.close c;
      json
    with _ -> Events.Null
  in
  let throughput = if wall > 0.0 then float total_done /. wall else 0.0 in
  let tenant_json s =
    Events.Obj
      [
        ("tenant", Events.String s.cs_tenant);
        ("weight", Events.Int s.cs_weight);
        ("jobs", Events.Int s.cs_done);
        ("busy_rejections", Events.Int s.cs_busy);
        ("cache_hits", Events.Int s.cs_cache_hits);
        ("latency", latency_json s.cs_lat);
      ]
  in
  let bench =
    Events.Obj
      [
        ("bench", Events.String "service");
        ("socket", Events.String !socket);
        ("clients", Events.Int !clients);
        ("jobs_requested", Events.Int !n_jobs);
        ("jobs_completed", Events.Int total_done);
        ("distinct_jobs", Events.Int (Array.length jobs));
        ("wall_s", Events.Float wall);
        ("throughput_jobs_per_s", Events.Float throughput);
        ("latency", latency_json all_lat);
        ("busy_rejections", Events.Int total_busy);
        ("client_observed_cache_hits", Events.Int total_hits);
        ("non_done_completions", Events.Int total_not_done);
        ("cross_client_mismatches", Events.Int !consistency_errors);
        ( "verify",
          if !verify then
            Events.Obj
              [
                ("checked", Events.Int !verify_checked);
                ("mismatches", Events.Int !verify_mismatches);
              ]
          else Events.Null );
        ("tenants", Events.List (List.map tenant_json summaries));
        ( "chaos",
          match (chaos_stats, !chaos_seed) with
          | Some stats, Some seed ->
            Events.Obj
              [
                ("seed", Events.String (Int64.to_string seed));
                ("proxy", stats);
              ]
          | _ -> Events.Null );
        ( "resilience",
          if !resilient then
            Events.Obj
              [
                ("reconnects", Events.Int total_reconnects);
                ("resubmits", Events.Int total_resubmits);
                ("breaker_opens", Events.Int breaker_opens);
                ("breaker_half_opens", Events.Int breaker_half_opens);
                ("breaker_closes", Events.Int breaker_closes);
              ]
          else Events.Null );
        ("server", server_stats);
      ]
  in
  Events.write_json_file ~path:!out bench;
  if not !quiet then begin
    let sorted = Array.copy all_lat in
    Array.sort compare sorted;
    Printf.printf
      "ifp_loadgen: %d jobs in %.2f s (%.0f jobs/s)  p50 %.2f ms  p95 %.2f \
       ms  p99 %.2f ms\n"
      total_done wall throughput
      (1000.0 *. quantile sorted 0.50)
      (1000.0 *. quantile sorted 0.95)
      (1000.0 *. quantile sorted 0.99);
    Printf.printf
      "ifp_loadgen: %d busy rejections, %d client-observed cache hits; \
       wrote %s\n"
      total_busy total_hits !out;
    if !resilient then
      Printf.printf
        "ifp_loadgen: resilience: %d reconnects, %d resubmits, breaker \
         %d/%d/%d (open/half-open/close)\n"
        total_reconnects total_resubmits breaker_opens breaker_half_opens
        breaker_closes;
    if !verify then
      Printf.printf "ifp_loadgen: verify: %d checked, %d mismatches\n"
        !verify_checked !verify_mismatches
  end;
  let failed =
    !child_failed || total_done < !n_jobs || !consistency_errors > 0
    || !verify_mismatches > 0 || total_not_done > 0
  in
  exit (if failed then 1 else 0)
