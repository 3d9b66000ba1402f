(* Tests for the lib/campaign experiment engine: serial-vs-parallel
   determinism, on-disk cache round-trips and invalidation, fault
   isolation with bounded retries, and the JSONL event log. *)

open Core
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module W = Ifp_workloads.Workload
module Registry = Ifp_workloads.Registry

let temp_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let jobs_for_workloads names =
  List.concat_map
    (fun name ->
      let wl = Option.get (Registry.find name) in
      let prog = Lazy.force wl.W.prog in
      List.map
        (fun (vname, config) ->
          Job.make ~name:(name ^ "/" ^ vname) ~group:name ~variant:vname
            ~config prog)
        Report.variants)
    names

(* three cheap workloads keep this test fast while still crossing all
   five configurations *)
let det_workloads = [ "wolfcrypt-dh"; "power"; "ks" ]

let test_serial_parallel_determinism () =
  let jobs = jobs_for_workloads det_workloads in
  let serial, s_stats = Engine.run ~workers:1 jobs in
  let parallel, p_stats = Engine.run ~workers:4 jobs in
  Alcotest.(check int) "same job count" s_stats.Engine.jobs p_stats.Engine.jobs;
  Alcotest.(check int) "all completed serially" (List.length jobs)
    s_stats.Engine.completed;
  Alcotest.(check int) "all completed in parallel" (List.length jobs)
    p_stats.Engine.completed;
  Array.iteri
    (fun idx (s : Engine.outcome) ->
      let p = parallel.(idx) in
      Alcotest.(check string)
        "outcome order matches submission order" s.Engine.job.Job.name
        p.Engine.job.Job.name;
      Alcotest.(check string) "digests agree" s.Engine.digest p.Engine.digest;
      Alcotest.(check bool)
        (Printf.sprintf "results for %s identical" s.Engine.job.Job.name)
        true
        (s.Engine.result = p.Engine.result))
    serial;
  (* the aggregate a renderer would compute is identical too *)
  let row outcomes name =
    Report.of_results ~name ~lookup:(fun vname ->
        let o =
          Array.to_list outcomes
          |> List.find (fun (o : Engine.outcome) ->
                 o.Engine.job.Job.name = name ^ "/" ^ vname)
        in
        Option.get o.Engine.result)
  in
  List.iter
    (fun name ->
      let rs = row serial name and rp = row parallel name in
      Alcotest.(check bool)
        (name ^ " row equal") true
        (rs.Report.subheap.Vm.counters = rp.Report.subheap.Vm.counters
        && Report.status_string rs = Report.status_string rp))
    det_workloads

let tiny_job ?(seed = 0x5eedL) name =
  let prog =
    Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
      [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i 42)) ] ]
  in
  Job.make ~name ~group:"tiny" ~variant:"subheap"
    ~config:{ Vm.ifp_subheap with seed }
    prog

let test_cache_roundtrip () =
  let dir = temp_dir "ifp-cache-test" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cache = Rcache.create ~dir () in
      let job = tiny_job "tiny/subheap" in
      let cold, cold_stats = Engine.run ~cache [ job ] in
      Alcotest.(check bool) "cold run misses" false cold.(0).Engine.from_cache;
      Alcotest.(check int) "no hits cold" 0 cold_stats.Engine.cache_hits;
      let warm, warm_stats = Engine.run ~cache [ job ] in
      Alcotest.(check bool) "warm run hits" true warm.(0).Engine.from_cache;
      Alcotest.(check int) "one hit warm" 1 warm_stats.Engine.cache_hits;
      Alcotest.(check int) "hit runs nothing" 0 warm.(0).Engine.attempts;
      Alcotest.(check bool) "cached result identical" true
        (cold.(0).Engine.result = warm.(0).Engine.result);
      (* a config change (different MAC seed) must change the digest and
         miss the cache *)
      let other = tiny_job ~seed:0xfeedL "tiny/subheap" in
      Alcotest.(check bool) "config change changes digest" false
        (Job.digest job = Job.digest other);
      let miss, _ = Engine.run ~cache [ other ] in
      Alcotest.(check bool) "changed config misses" false
        miss.(0).Engine.from_cache;
      (* direct store/find round-trip *)
      let digest = Job.digest job in
      Alcotest.(check bool) "find returns stored entry" true
        (match Rcache.find cache ~digest with
        | Rcache.Hit _ -> true
        | _ -> false);
      Alcotest.(check bool) "unknown digest misses" true
        (Rcache.find cache ~digest:(String.make 32 '0') = Rcache.Miss);
      (* a corrupted entry is quarantined, never an error *)
      let rec find_results path =
        if Sys.is_directory path then
          Array.to_list (Sys.readdir path)
          |> List.concat_map (fun f -> find_results (Filename.concat path f))
        else if Filename.check_suffix path ".result" then [ path ]
        else []
      in
      List.iter
        (fun path ->
          let oc = open_out path in
          output_string oc "corrupt";
          close_out oc)
        (find_results dir);
      Alcotest.(check bool) "corrupt entry is quarantined to .corrupt" true
        (match Rcache.find cache ~digest with
        | Rcache.Quarantined { path; _ } ->
          Filename.check_suffix path ".corrupt" && Sys.file_exists path
        | _ -> false);
      Alcotest.(check bool) "probe after quarantine is a clean miss" true
        (Rcache.find cache ~digest = Rcache.Miss))

let test_retry_then_fail () =
  let log_path = Filename.temp_file "ifp-campaign-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let ok = tiny_job "tiny/ok" in
      let boom = tiny_job ~seed:1L "tiny/boom" in
      let runner (job : Job.t) =
        if job.Job.name = "tiny/boom" then failwith "injected crash"
        else Vm.run ~config:job.Job.config job.Job.prog
      in
      let log = Events.create ~path:log_path in
      let outcomes, stats =
        Engine.run ~retries:2 ~runner ~log [ ok; boom ]
      in
      Events.close log;
      (* the crashing job fails after bounded retries... *)
      Alcotest.(check bool) "boom failed" true
        (match outcomes.(1).Engine.status with
        | Engine.Failed _ -> true
        | Engine.Done | Engine.Timed_out | Engine.Skipped -> false);
      Alcotest.(check int) "boom attempted 1 + 2 retries" 3
        outcomes.(1).Engine.attempts;
      Alcotest.(check bool) "boom has no result" true
        (outcomes.(1).Engine.result = None);
      (* ...without killing the rest of the campaign *)
      Alcotest.(check bool) "ok job done" true
        (outcomes.(0).Engine.status = Engine.Done);
      Alcotest.(check int) "stats: one failure" 1 stats.Engine.failed;
      Alcotest.(check int) "stats: two retries" 2 stats.Engine.retries;
      (* the JSONL log saw the whole story, one valid object per line *)
      let lines = ref [] in
      let ic = open_in log_path in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let count needle =
        List.length
          (List.filter
             (fun l ->
               String.length l > 0
               && l.[0] = '{'
               && l.[String.length l - 1] = '}'
               &&
               let re = {|"event":"|} ^ needle ^ {|"|} in
               let rec contains i =
                 i + String.length re <= String.length l
                 && (String.sub l i (String.length re) = re || contains (i + 1))
               in
               contains 0)
             !lines)
      in
      Alcotest.(check int) "campaign_start logged" 1 (count "campaign_start");
      Alcotest.(check int) "two retry events" 2 (count "retry");
      Alcotest.(check int) "one job_failed event" 1 (count "job_failed");
      Alcotest.(check int) "one job_finish event" 1 (count "job_finish");
      Alcotest.(check int) "campaign_end logged" 1 (count "campaign_end"))

let test_backoff_deterministic () =
  let d = String.make 32 'a' in
  let d1 = Engine.backoff_delay ~base:0.05 ~digest:d ~attempt:1 in
  let d1' = Engine.backoff_delay ~base:0.05 ~digest:d ~attempt:1 in
  let d2 = Engine.backoff_delay ~base:0.05 ~digest:d ~attempt:2 in
  Alcotest.(check (float 0.0)) "same (digest, attempt), same delay" d1 d1';
  Alcotest.(check bool) "delay grows with attempt" true (d2 > d1);
  Alcotest.(check bool) "within the jitter envelope" true
    (d1 >= 0.05 && d1 < 0.075 && d2 >= 0.1 && d2 < 0.15);
  Alcotest.(check (float 0.0)) "zero base disables the sleep" 0.0
    (Engine.backoff_delay ~base:0.0 ~digest:d ~attempt:3)

let test_watchdog_times_out () =
  let ok = tiny_job "tiny/ok" in
  let stuck = tiny_job ~seed:2L "tiny/stuck" in
  let runner (job : Job.t) =
    if job.Job.name = "tiny/stuck" then Unix.sleepf 2.0;
    Vm.run ~config:job.Job.config job.Job.prog
  in
  let outcomes, stats =
    Engine.run ~retries:2 ~job_timeout:0.2 ~runner [ ok; stuck ]
  in
  Alcotest.(check bool) "stuck job timed out" true
    (outcomes.(1).Engine.status = Engine.Timed_out);
  Alcotest.(check bool) "no result for a timed-out job" true
    (outcomes.(1).Engine.result = None);
  Alcotest.(check int) "a timeout is not retried" 1 outcomes.(1).Engine.attempts;
  Alcotest.(check bool) "rest of the campaign unaffected" true
    (outcomes.(0).Engine.status = Engine.Done);
  Alcotest.(check int) "stats count the timeout" 1 stats.Engine.timed_out;
  Alcotest.(check int) "a timeout is not a failure" 0 stats.Engine.failed

let find_results dir =
  let rec go path =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.concat_map (fun f -> go (Filename.concat path f))
    else if Filename.check_suffix path ".result" then [ path ]
    else []
  in
  go dir

let test_cache_crc_catches_damage () =
  (* the v3 CRC framing must catch both torn writes (short payload) and
     bit rot (flipped byte) deterministically, flagged [crc_mismatch] *)
  let damage_and_probe damage =
    let dir = temp_dir "ifp-cache-crc" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let cache = Rcache.create ~dir () in
        let job = tiny_job "tiny/crc" in
        let _ = Engine.run ~cache [ job ] in
        let path = List.hd (find_results dir) in
        damage path;
        Rcache.find cache ~digest:(Job.digest job))
  in
  let flip_last_byte path =
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
    let size = (Unix.fstat fd).Unix.st_size in
    ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
    let b = Bytes.create 1 in
    ignore (Unix.read fd b 0 1);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1);
    Unix.close fd
  in
  let truncate_payload path =
    let size = (Unix.stat path).Unix.st_size in
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
    Unix.ftruncate fd (size - 7);
    Unix.close fd
  in
  (match damage_and_probe flip_last_byte with
  | Rcache.Quarantined { crc_mismatch; _ } ->
    Alcotest.(check bool) "flipped byte flagged as CRC mismatch" true
      crc_mismatch
  | _ -> Alcotest.fail "flipped byte not quarantined");
  match damage_and_probe truncate_payload with
  | Rcache.Quarantined { crc_mismatch; _ } ->
    Alcotest.(check bool) "torn payload flagged as CRC mismatch" true
      crc_mismatch
  | _ -> Alcotest.fail "torn payload not quarantined"

let test_events_torn_line_tolerated () =
  let path = Filename.temp_file "ifp-events-torn" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let log = Events.create ~path in
      Events.emit log "one" [];
      Events.emit log "two" [];
      Events.close log;
      let lines, truncated = Events.read_lines ~path in
      Alcotest.(check (pair int bool)) "clean log: all lines, not truncated"
        (2, false)
        (List.length lines, truncated);
      (* tear the final line mid-object, as a killed writer would *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 5);
      Unix.close fd;
      let lines, truncated = Events.read_lines ~path in
      Alcotest.(check (pair int bool)) "torn log: partial line dropped"
        (1, true)
        (List.length lines, truncated);
      Alcotest.(check bool) "surviving line is the first event" true
        (match lines with
        | [ l ] ->
          let re = {|"event":"one"|} in
          let rec contains i =
            i + String.length re <= String.length l
            && (String.sub l i (String.length re) = re || contains (i + 1))
          in
          contains 0
        | _ -> false);
      (* iter_lines agrees *)
      let seen = ref 0 in
      let truncated' = Events.iter_lines ~path (fun _ -> incr seen) in
      Alcotest.(check (pair int bool)) "iter_lines agrees" (1, true)
        (!seen, truncated');
      (* open_append physically repairs the torn tail and continues *)
      let log, repaired = Events.open_append ~path in
      Alcotest.(check bool) "open_append reports the repair" true repaired;
      Events.emit log "three" [];
      Events.close log;
      let lines, truncated = Events.read_lines ~path in
      Alcotest.(check (pair int bool)) "appended log reads clean" (2, false)
        (List.length lines, truncated);
      let log, repaired = Events.open_append ~path in
      Alcotest.(check bool) "clean reopen repairs nothing" false repaired;
      Events.close log;
      (* a missing file reads as empty, not an error *)
      let ghost = path ^ ".missing" in
      Alcotest.(check (pair int bool)) "missing file reads empty" (0, false)
        (let ls, t = Events.read_lines ~path:ghost in
         (List.length ls, t)))

let test_failed_job_visible_in_row () =
  (* a hard-failed variant still renders: the placeholder result keeps
     the row assemblable and the failure shows up in the status column *)
  let r = Report.aborted_result "campaign job failed: injected" in
  let row =
    Report.of_results ~name:"synthetic" ~lookup:(fun vname ->
        if vname = "wrapped" then r
        else
          Vm.run ~config:(List.assoc vname Report.variants)
            (Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
               [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i 0)) ] ]))
  in
  Alcotest.(check string) "status flags the aborted variant"
    "wrapped(abort)" (Report.status_string row);
  Alcotest.(check bool) "reason preserved" true
    (List.mem_assoc "wrapped" (Report.check_outcomes row))

let test_cache_lru_byte_budget () =
  let result =
    Vm.run ~config:Vm.ifp_subheap
      (Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
         [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i 42)) ] ])
  in
  let digest c = String.make 30 c ^ Printf.sprintf "%02d" (Char.code c) in
  (* entry size depends on the marshalled result, so measure it first *)
  let entry_bytes =
    let dir = temp_dir "ifp-cache-measure" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let c = Rcache.create ~dir () in
        Rcache.store c ~digest:(digest 'a') ~job_name:"jx" result;
        (Rcache.stats c).Rcache.bytes)
  in
  Alcotest.(check bool) "measured a real entry" true (entry_bytes > 0);
  let dir = temp_dir "ifp-cache-lru" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* room for three entries and change: the fourth store must evict *)
      let budget = (3 * entry_bytes) + (entry_bytes / 2) in
      let cache = Rcache.create ~max_bytes:budget ~dir () in
      let store ch =
        Rcache.store cache ~digest:(digest ch) ~job_name:"jx" result;
        (* mtime is the LRU clock; keep stores strictly ordered *)
        Thread.delay 0.02
      in
      store 'a';
      store 'b';
      store 'c';
      (* a hit refreshes 'a', demoting 'b' to least-recently-used *)
      (match Rcache.find cache ~digest:(digest 'a') with
      | Rcache.Hit _ -> ()
      | _ -> Alcotest.fail "expected hit on 'a'");
      Thread.delay 0.02;
      store 'd';
      store 'e';
      let hit ch =
        match Rcache.find cache ~digest:(digest ch) with
        | Rcache.Hit _ -> true
        | _ -> false
      in
      Alcotest.(check bool) "'b' (coldest) evicted" false (hit 'b');
      Alcotest.(check bool) "'c' (next coldest) evicted" false (hit 'c');
      Alcotest.(check bool) "'a' survived via its hit" true (hit 'a');
      Alcotest.(check bool) "'d' survived" true (hit 'd');
      Alcotest.(check bool) "'e' survived" true (hit 'e');
      let s = Rcache.stats cache in
      Alcotest.(check int) "two evictions" 2 s.Rcache.evictions;
      Alcotest.(check int) "three entries left" 3 s.Rcache.entries;
      Alcotest.(check bool) "tally within budget" true (s.Rcache.bytes <= budget);
      Alcotest.(check bool) "evicted bytes accounted" true
        (s.Rcache.evicted_bytes >= 2 * (entry_bytes - 8));
      (* a reopened cache grounds its tally from the surviving files *)
      let reopened = Rcache.create ~max_bytes:budget ~dir () in
      let s2 = Rcache.stats reopened in
      Alcotest.(check int) "reopen sees the survivors" 3 s2.Rcache.entries;
      Alcotest.(check int) "reopen grounds the byte tally" s.Rcache.bytes
        s2.Rcache.bytes)

let test_parse_bytes () =
  let check input expected =
    Alcotest.(check (option int))
      (Printf.sprintf "parse_bytes %S" input)
      expected
      (Ifp_campaign.Cli.parse_bytes input)
  in
  check "0" (Some 0);
  check "123" (Some 123);
  check "1k" (Some 1024);
  check "2K" (Some 2048);
  check "1m" (Some (1024 * 1024));
  check "512M" (Some (512 * 1024 * 1024));
  check "3g" (Some (3 * 1024 * 1024 * 1024));
  check "1G" (Some (1024 * 1024 * 1024));
  check "" None;
  check "k" None;
  check "-1" None;
  check "1.5M" None;
  check "10x" None;
  check "1kk" None

(* argv arrays through the shared campaign specs, exactly as the four
   campaign binaries parse them *)
let test_campaign_flags () =
  let module Cli = Ifp_campaign.Cli in
  let parse ?(defaults = Cli.campaign_defaults) args =
    let c = ref defaults in
    Arg.parse_argv ~current:(ref 0)
      (Array.of_list ("prog" :: args))
      (Cli.campaign_specs c)
      (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
      "usage";
    !c
  in
  let rejects args =
    match parse args with
    | _ -> Alcotest.failf "accepted %s" (String.concat " " args)
    | exception Arg.Bad _ -> ()
  in
  let check_int what = Alcotest.(check int) what in
  let check_str what = Alcotest.(check (option string)) what in
  let check_secs what = Alcotest.(check (option (float 0.0))) what in
  let c =
    parse
      [ "-j"; "3"; "--cache-dir"; "d"; "--cache-max-bytes"; "2k"; "--log";
        "l.jsonl"; "--timeout"; "5"; "--retries"; "4"; "--journal"; "j.wal" ]
  in
  check_int "-j" 3 c.workers;
  check_str "--cache-dir" (Some "d") c.cache_dir;
  Alcotest.(check (option int)) "--cache-max-bytes" (Some 2048)
    c.cache_max_bytes;
  check_str "--log" (Some "l.jsonl") c.log;
  check_secs "--timeout" (Some 5.0) c.timeout;
  check_int "--retries" 4 c.retries;
  check_str "--journal" (Some "j.wal") c.journal;
  Alcotest.(check bool) "--journal alone does not resume" false c.resume;
  let c = parse [ "--jobs"; "2"; "--no-cache"; "--no-log" ] in
  check_int "--jobs" 2 c.workers;
  check_str "--no-cache" None c.cache_dir;
  check_str "--no-log" None c.log;
  let c = parse [ "--resume"; "r.wal" ] in
  check_str "--resume journals to its file" (Some "r.wal") c.journal;
  Alcotest.(check bool) "--resume resumes" true c.resume;
  let c = parse [ "--cache-dir=e"; "--retries=0"; "-j=2"; "--timeout=2.5" ] in
  check_str "--cache-dir=" (Some "e") c.cache_dir;
  check_int "--retries=" 0 c.retries;
  check_int "-j=" 2 c.workers;
  check_secs "--timeout=" (Some 2.5) c.timeout;
  check_secs "--timeout 0 is none" None (parse [ "--timeout"; "0" ]).timeout;
  check_secs "--timeout -1 is none" None (parse [ "--timeout"; "-1" ]).timeout;
  check_int "-j 0 clamps to 1" 1 (parse [ "-j"; "0" ]).workers;
  rejects [ "-j"; "x" ];
  rejects [ "-j"; "-1" ];
  rejects [ "--cache-max-bytes"; "12Q" ];
  rejects [ "--retries"; "two" ];
  rejects [ "--timeout"; "soon" ];
  rejects [ "--log" ];
  rejects [ "--no-such-flag" ];
  (* the library defaults, and a binary's own defaults surviving both no
     flags and unrelated flags *)
  Alcotest.(check bool) "library defaults" true
    (parse []
    = {
        Cli.workers = 1;
        cache_dir = Some ".ifp-cache";
        cache_max_bytes = None;
        log = None;
        timeout = None;
        retries = 2;
        journal = None;
        resume = false;
      });
  let fuzz =
    { Cli.campaign_defaults with cache_dir = None; retries = 1;
      timeout = Some 120.0; log = Some "fuzz.jsonl" }
  in
  Alcotest.(check bool) "binary defaults survive no flags" true
    (parse ~defaults:fuzz [] = fuzz);
  Alcotest.(check bool) "binary defaults survive other flags" true
    (parse ~defaults:fuzz [ "-j"; "4" ] = { fuzz with workers = 4 });
  (* positional names resolve through one table, or are usage errors *)
  List.iter
    (fun (name, _) ->
      ignore (Cli.lookup "config" Core.Report.named_configs name))
    Core.Report.variants;
  match Cli.lookup "config" Core.Report.named_configs "subheap-typo" with
  | _ -> Alcotest.fail "unknown config accepted"
  | exception Arg.Bad _ -> ()

let test_install_stop_restores_handlers () =
  (* SIGUSR1 stands in for SIGTERM so a restored default handler can't
     kill the test runner *)
  let fired = ref 0 in
  let previous =
    Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> incr fired))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigusr1 previous)
    (fun () ->
      let signals = Ifp_campaign.Cli.install_stop ~signals:[ Sys.sigusr1 ] () in
      Alcotest.(check bool) "flag starts false" false (signals.stop ());
      Unix.kill (Unix.getpid ()) Sys.sigusr1;
      let rec await n =
        if signals.stop () then ()
        else if n <= 0 then Alcotest.fail "stop flag never fired"
        else begin
          Thread.delay 0.01;
          await (n - 1)
        end
      in
      await 200;
      Alcotest.(check int) "counting handler was displaced" 0 !fired;
      signals.restore ();
      signals.restore ();  (* idempotent *)
      Unix.kill (Unix.getpid ()) Sys.sigusr1;
      let rec await2 n =
        if !fired > 0 then ()
        else if n <= 0 then Alcotest.fail "previous handler not restored"
        else begin
          Thread.delay 0.01;
          await2 (n - 1)
        end
      in
      await2 200;
      Alcotest.(check int) "previous handler back in place" 1 !fired)

let tests =
  [
    Alcotest.test_case "serial = parallel (3 workloads x 5 variants)" `Slow
      test_serial_parallel_determinism;
    Alcotest.test_case "cache round-trip and invalidation" `Quick
      test_cache_roundtrip;
    Alcotest.test_case "retry then fail, campaign survives" `Quick
      test_retry_then_fail;
    Alcotest.test_case "backoff delay is deterministic and bounded" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "watchdog cuts off a runaway job" `Quick
      test_watchdog_times_out;
    Alcotest.test_case "cache CRC catches torn writes and bit rot" `Quick
      test_cache_crc_catches_damage;
    Alcotest.test_case "event log tolerates a torn final line" `Quick
      test_events_torn_line_tolerated;
    Alcotest.test_case "failed variant visible in row status" `Quick
      test_failed_job_visible_in_row;
    Alcotest.test_case "cache LRU byte budget evicts coldest" `Quick
      test_cache_lru_byte_budget;
    Alcotest.test_case "parse_bytes suffixes" `Quick test_parse_bytes;
    Alcotest.test_case "campaign flags parse, validate and default" `Quick
      test_campaign_flags;
    Alcotest.test_case "install_stop restores previous handlers" `Quick
      test_install_stop_restores_handlers;
  ]
