(* Tests for lib/service: wire framing (torn/truncated/corrupt/oversized
   frames), weighted-fair scheduling, and the daemon end-to-end —
   handshake rejection, concurrent multi-client byte-identity against
   direct engine runs, cache hits on repeats, backpressure, client
   disconnect mid-job, malformed-frame survival, and graceful drain. *)

open Core
module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Events = Ifp_campaign.Events
module Crc32 = Ifp_util.Crc32
module Frame = Ifp_service.Frame
module Protocol = Ifp_service.Protocol
module Sched = Ifp_service.Sched
module Shard = Ifp_service.Shard
module Server = Ifp_service.Server
module Client = Ifp_service.Client

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

(* ---------------- framing ---------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_raw fd s =
  let b = Bytes.of_string s in
  let n = Unix.write fd b 0 (Bytes.length b) in
  Alcotest.(check int) "raw write complete" (Bytes.length b) n

(* a hand-built header, so tests can lie about length and checksum *)
let header ~len ~crc =
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_int32_be b 4 crc;
  Bytes.to_string b

let check_framing_error what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Framing_error")
  | exception Frame.Framing_error _ -> ()

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payloads = [ ""; "x"; String.make 70_000 'q'; "\x00\xff\n tail" ] in
      (* a thread writes so the 70k payload can't deadlock the buffers *)
      let w =
        Thread.create
          (fun () ->
            List.iter (fun p -> Frame.write a p) payloads;
            Unix.close a)
          ()
      in
      List.iter
        (fun expected ->
          match Frame.read b with
          | Some got ->
            Alcotest.(check int) "payload length" (String.length expected)
              (String.length got);
            Alcotest.(check bool) "payload bytes" true (String.equal expected got)
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      Alcotest.(check bool) "clean EOF at frame boundary" true
        (Frame.read b = None);
      Thread.join w)

let test_frame_torn_header () =
  with_socketpair (fun a b ->
      write_raw a "\x00\x00\x01";
      Unix.close a;
      check_framing_error "torn header" (fun () -> Frame.read b))

let test_frame_truncated_payload () =
  with_socketpair (fun a b ->
      let payload = "hello framing" in
      write_raw a
        (header ~len:(String.length payload) ~crc:(Crc32.string payload));
      write_raw a (String.sub payload 0 4);
      Unix.close a;
      check_framing_error "truncated payload" (fun () -> Frame.read b))

let test_frame_crc_mismatch () =
  with_socketpair (fun a b ->
      let payload = "checksummed payload" in
      write_raw a
        (header ~len:(String.length payload)
           ~crc:(Int32.logxor (Crc32.string payload) 1l));
      write_raw a payload;
      check_framing_error "crc mismatch" (fun () -> Frame.read b))

let test_frame_oversized_rejected () =
  with_socketpair (fun a b ->
      (* the length word claims > max_frame; read must reject before
         allocating or consuming a payload *)
      write_raw a (header ~len:(Frame.max_frame + 1) ~crc:0l);
      check_framing_error "oversized frame" (fun () -> Frame.read b))

(* ---------------- scheduling ---------------- *)

let test_sched_weighted_round_robin () =
  let t : int Sched.t = Sched.create ~depth_limit:16 () in
  Sched.register t ~tenant:"heavy" ~weight:2;
  Sched.register t ~tenant:"light" ~weight:1;
  for i = 0 to 5 do
    match Sched.push t ~tenant:"heavy" i with
    | Sched.Queued _ -> ()
    | Sched.Full _ -> Alcotest.fail "push heavy"
  done;
  for i = 0 to 2 do
    match Sched.push t ~tenant:"light" (100 + i) with
    | Sched.Queued _ -> ()
    | Sched.Full _ -> Alcotest.fail "push light"
  done;
  let order =
    List.init 9 (fun _ ->
        match Sched.pop t with
        | Some (tenant, _) -> tenant
        | None -> Alcotest.fail "early close")
  in
  (* weight 2 tenant gets two consecutive dequeues per rotor visit *)
  Alcotest.(check (list string)) "2:1 interleave"
    [ "heavy"; "heavy"; "light"; "heavy"; "heavy"; "light";
      "heavy"; "heavy"; "light" ]
    order;
  Sched.close t;
  Alcotest.(check bool) "drained close pops None" true (Sched.pop t = None)

let test_sched_backpressure_and_fifo () =
  let t : int Sched.t = Sched.create ~depth_limit:2 () in
  (match Sched.push t ~tenant:"a" 1 with
  | Sched.Queued { depth } -> Alcotest.(check int) "depth 1" 1 depth
  | Sched.Full _ -> Alcotest.fail "unexpected Full");
  ignore (Sched.push t ~tenant:"a" 2);
  (match Sched.push t ~tenant:"a" 3 with
  | Sched.Full { depth; limit } ->
    Alcotest.(check int) "full depth" 2 depth;
    Alcotest.(check int) "full limit" 2 limit
  | Sched.Queued _ -> Alcotest.fail "expected Full");
  (* items pushed before close are delivered, FIFO, then None *)
  Sched.close t;
  (match Sched.push t ~tenant:"a" 4 with
  | Sched.Full _ -> ()
  | Sched.Queued _ -> Alcotest.fail "push after close");
  Alcotest.(check bool) "fifo 1" true (Sched.pop t = Some ("a", 1));
  Alcotest.(check bool) "fifo 2" true (Sched.pop t = Some ("a", 2));
  Alcotest.(check bool) "then closed" true (Sched.pop t = None)

(* ---------------- the daemon, end to end ---------------- *)

(* distinct digests, deterministic results, milliseconds to run *)
let job i =
  let prog =
    Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
      [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i (i * 7))) ] ]
  in
  Job.make
    ~name:(Printf.sprintf "svc/%02d" i)
    ~group:"svc" ~variant:"subheap" ~config:Vm.ifp_subheap prog

let direct_bytes j = Protocol.encode_result (Some (Engine.default_runner j))

type running = {
  r_socket : string;
  r_stop : bool Atomic.t;
  r_thread : Thread.t;
  r_final : Events.json option ref;
}

let start_server ?(workers = 1) ?shard ?(queue_depth = 64) ?runner ~socket ()
    =
  let stop = Atomic.make false in
  let final = ref None in
  let cfg =
    {
      (Server.default_config ~socket_path:socket) with
      Server.workers;
      shard;
      queue_depth;
      runner;
    }
  in
  let th =
    Thread.create
      (fun () ->
        final := Some (Server.run ~stop:(fun () -> Atomic.get stop) cfg))
      ()
  in
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n <= 0 then Alcotest.fail "server did not bind its socket"
    else begin
      Thread.delay 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  { r_socket = socket; r_stop = stop; r_thread = th; r_final = final }

let stop_server r =
  Atomic.set r.r_stop true;
  Thread.join r.r_thread;
  match !(r.r_final) with
  | Some json -> json
  | None -> Alcotest.fail "server returned no snapshot"

let assoc_int key = function
  | Events.Obj fields -> (
    match List.assoc_opt key fields with
    | Some (Events.Int n) -> n
    | _ -> Alcotest.fail ("snapshot missing int field " ^ key))
  | _ -> Alcotest.fail "snapshot is not an object"

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_handshake ?(magic = Protocol.magic) ?(version = Protocol.version)
    ?(tenant = "raw") fd =
  Frame.write fd
    (Protocol.encode_handshake
       { Protocol.hs_magic = magic; hs_version = version; hs_tenant = tenant;
         hs_weight = 1 });
  match Frame.read fd with
  | None -> Alcotest.fail "server closed during handshake"
  | Some payload -> Protocol.decode_reply payload

let test_server_multi_client_byte_identity () =
  let dir = temp_dir "ifp-svc-cache" in
  let socket = Filename.concat dir "s.sock" in
  let shard = Shard.create ~dir:(Filename.concat dir "cache") ~shards:4 () in
  let r = start_server ~workers:2 ~shard ~socket () in
  let jobs = List.init 12 job in
  let n_clients = 3 in
  let results = Array.make n_clients [] in
  let failures = Atomic.make [] in
  let clients =
    List.init n_clients (fun k ->
        Thread.create
          (fun () ->
            try
              let c =
                Client.connect ~socket ~tenant:("t" ^ string_of_int k) ()
              in
              (* two passes: the second must be served from the shard
                 cache with the exact same canonical bytes *)
              results.(k) <-
                List.concat_map
                  (fun pass ->
                    List.map
                      (fun j ->
                        let comp = Client.submit_wait c j in
                        (Job.digest j, pass, comp))
                      jobs)
                  [ 0; 1 ];
              Client.close c
            with e ->
              Atomic.set failures (Printexc.to_string e :: Atomic.get failures))
          ())
  in
  List.iter Thread.join clients;
  Alcotest.(check (list string)) "no client errors" [] (Atomic.get failures);
  let expected =
    List.map (fun j -> (Job.digest j, direct_bytes j)) jobs
  in
  Array.iter
    (fun rs ->
      Alcotest.(check int) "each client ran both passes"
        (2 * List.length jobs) (List.length rs);
      List.iter
        (fun (digest, _pass, (comp : Protocol.completion)) ->
          Alcotest.(check string) "digest echoed" digest
            comp.Protocol.c_digest;
          (match comp.Protocol.c_status with
          | Engine.Done -> ()
          | st -> Alcotest.fail ("job not Done: " ^ Protocol.status_string st));
          (* the tentpole acceptance check: daemon bytes = direct bytes *)
          Alcotest.(check bool) "byte-identical to direct run" true
            (String.equal
               (List.assoc digest expected)
               comp.Protocol.c_result_bytes))
        rs)
    results;
  (* 3 clients x 12 jobs x 2 passes = 72 submissions of 12 distinct jobs:
     at least the second pass of every client must hit the cache *)
  let cache_hits =
    Array.to_list results
    |> List.concat_map (fun rs ->
           List.filter
             (fun (_, _, c) -> c.Protocol.c_from_cache)
             rs)
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "repeats hit the shard cache (%d hits)" cache_hits)
    true
    (cache_hits >= List.length jobs);
  let snap = stop_server r in
  Alcotest.(check int) "snapshot counts every submission" 72
    (assoc_int "submitted" snap);
  Alcotest.(check int) "snapshot completions" 72 (assoc_int "completed" snap);
  Alcotest.(check bool) "socket unlinked on drain" false
    (Sys.file_exists socket);
  rm_rf dir

let test_server_handshake_rejected () =
  let dir = temp_dir "ifp-svc-hs" in
  let socket = Filename.concat dir "s.sock" in
  let r = start_server ~socket () in
  (* wrong magic *)
  let fd = raw_connect socket in
  (match raw_handshake ~magic:"not-ifp" fd with
  | Protocol.Refused _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  Unix.close fd;
  (* version skew, both directions: an older client's Job.t may carry
     constructors this daemon numbers differently *)
  List.iter
    (fun (what, version) ->
      let fd = raw_connect socket in
      (match raw_handshake ~version fd with
      | Protocol.Refused _ -> ()
      | _ -> Alcotest.fail (what ^ " version accepted"));
      Unix.close fd)
    [ ("future", Protocol.version + 1); ("previous", Protocol.version - 1) ];
  (* empty tenant *)
  let fd = raw_connect socket in
  (match raw_handshake ~tenant:"" fd with
  | Protocol.Refused _ -> ()
  | _ -> Alcotest.fail "empty tenant accepted");
  Unix.close fd;
  (* and the Client module still connects fine afterwards *)
  let c = Client.connect ~socket ~tenant:"ok" () in
  Client.ping c;
  Client.close c;
  let snap = stop_server r in
  Alcotest.(check int) "handshake rejects counted" 4
    (assoc_int "handshake_rejects" snap);
  rm_rf dir

(* a malformed frame kills only its own connection *)
let survives_poison ~what ~poison () =
  let dir = temp_dir "ifp-svc-poison" in
  let socket = Filename.concat dir "s.sock" in
  let r = start_server ~socket () in
  let fd = raw_connect socket in
  (match raw_handshake fd with
  | Protocol.Welcome _ -> ()
  | _ -> Alcotest.fail "handshake refused");
  poison fd;
  (* the server answers with a best-effort Refused or just closes; it
     must not crash, hang, or poison other connections *)
  (match Frame.read fd with
  | Some payload -> (
    match Protocol.decode_reply payload with
    | Protocol.Refused _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Refused"))
  | None -> ()
  | exception Frame.Framing_error _ -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let c = Client.connect ~socket ~tenant:"after" () in
  Client.ping c;
  let comp = Client.submit_wait c (job 1) in
  Alcotest.(check bool) (what ^ ": jobs still served") true
    (String.equal (direct_bytes (job 1)) comp.Protocol.c_result_bytes);
  Client.close c;
  let snap = stop_server r in
  Alcotest.(check int) (what ^ ": protocol error counted") 1
    (assoc_int "protocol_errors" snap);
  rm_rf dir

let test_server_survives_crc_mismatch () =
  survives_poison ~what:"crc"
    ~poison:(fun fd ->
      let payload = Protocol.encode_request Protocol.Ping in
      write_raw fd
        (header ~len:(String.length payload)
           ~crc:(Int32.logxor (Crc32.string payload) 1l));
      write_raw fd payload)
    ()

let test_server_survives_oversized_frame () =
  survives_poison ~what:"oversized"
    ~poison:(fun fd -> write_raw fd (header ~len:(Frame.max_frame + 1) ~crc:0l))
    ()

let test_server_survives_garbage_payload () =
  survives_poison ~what:"garbage"
    ~poison:(fun fd ->
      (* valid frame, but the payload is not a marshalled request *)
      Frame.write fd "certainly not a request")
    ()

let test_server_client_disconnect_mid_job () =
  let dir = temp_dir "ifp-svc-gone" in
  let socket = Filename.concat dir "s.sock" in
  let shard = Shard.create ~dir:(Filename.concat dir "cache") ~shards:2 () in
  let slow j =
    Thread.delay 0.2;
    Engine.default_runner j
  in
  let r = start_server ~shard ~runner:slow ~socket () in
  let j = job 99 in
  (* submit, then vanish before the reply *)
  let fd = raw_connect socket in
  (match raw_handshake ~tenant:"ghost" fd with
  | Protocol.Welcome _ -> ()
  | _ -> Alcotest.fail "handshake refused");
  Frame.write fd (Protocol.encode_request (Protocol.Submit j));
  Unix.close fd;
  (* the abandoned job must still complete and land in the cache; a
     later client gets it as a hit with the canonical bytes *)
  let c = Client.connect ~socket ~tenant:"heir" () in
  let rec await tries =
    if tries > 100 then Alcotest.fail "abandoned job never reached the cache"
    else
      let comp = Client.submit_wait c j in
      Alcotest.(check bool) "bytes match direct run" true
        (String.equal (direct_bytes j) comp.Protocol.c_result_bytes);
      if not comp.Protocol.c_from_cache then begin
        Thread.delay 0.05;
        await (tries + 1)
      end
  in
  await 0;
  Client.close c;
  ignore (stop_server r);
  rm_rf dir

let test_server_backpressure_busy () =
  let dir = temp_dir "ifp-svc-busy" in
  let socket = Filename.concat dir "s.sock" in
  let slow j =
    Thread.delay 0.25;
    Engine.default_runner j
  in
  (* one worker, one queue slot: three concurrent submits from the same
     tenant cannot all be absorbed — at least one sees Busy *)
  let r = start_server ~queue_depth:1 ~runner:slow ~socket () in
  let busy = Atomic.make 0 in
  let failures = Atomic.make [] in
  let submit_thread k =
    Thread.create
      (fun () ->
        try
          let c = Client.connect ~socket ~tenant:"bp" () in
          let comp =
            Client.submit_wait
              ~on_busy:(fun b ->
                Atomic.incr busy;
                Alcotest.(check int) "busy reports the limit" 1
                  b.Protocol.b_limit;
                Alcotest.(check bool) "retry hint positive" true
                  (b.Protocol.b_retry_after > 0.0))
              c (job (200 + k))
          in
          (match comp.Protocol.c_status with
          | Engine.Done -> ()
          | st -> Alcotest.fail (Protocol.status_string st));
          Client.close c
        with e ->
          Atomic.set failures (Printexc.to_string e :: Atomic.get failures))
      ()
  in
  let threads = List.init 3 submit_thread in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no submit errors" [] (Atomic.get failures);
  Alcotest.(check bool)
    (Printf.sprintf "backpressure fired (%d busy replies)" (Atomic.get busy))
    true
    (Atomic.get busy >= 1);
  let snap = stop_server r in
  Alcotest.(check int) "all three jobs completed" 3
    (assoc_int "completed" snap);
  Alcotest.(check bool) "busy replies in the snapshot" true
    (assoc_int "busy_rejected" snap >= 1);
  rm_rf dir

let test_server_stats_and_drain () =
  let dir = temp_dir "ifp-svc-stats" in
  let socket = Filename.concat dir "s.sock" in
  let shard = Shard.create ~dir:(Filename.concat dir "cache") ~shards:2 () in
  let r = start_server ~shard ~socket () in
  let c = Client.connect ~socket ~tenant:"obs" () in
  ignore (Client.submit_wait c (job 7));
  ignore (Client.submit_wait c (job 7));
  let snap = Client.stats c in
  Alcotest.(check int) "live stats: submitted" 2 (assoc_int "submitted" snap);
  (match snap with
  | Events.Obj fields ->
    Alcotest.(check bool) "live stats: queues listed" true
      (List.mem_assoc "queues" fields);
    Alcotest.(check bool) "live stats: tenants listed" true
      (List.mem_assoc "tenants" fields);
    (match List.assoc_opt "cache" fields with
    | Some (Events.Obj cache) ->
      Alcotest.(check bool) "live stats: cache hit rate" true
        (List.mem_assoc "hit_rate" cache)
    | _ -> Alcotest.fail "live stats: no cache section")
  | _ -> Alcotest.fail "stats is not an object");
  Client.close c;
  let snap = stop_server r in
  Alcotest.(check int) "final snapshot: cache hit recorded" 1
    (assoc_int "cache_hits" snap);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
  (* post-drain connects fail outright: nothing is listening *)
  (match raw_connect socket with
  | fd ->
    Unix.close fd;
    Alcotest.fail "connected to a drained server"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
  rm_rf dir

let tests =
  [
    Alcotest.test_case "frame roundtrip + clean EOF" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "frame torn header" `Quick test_frame_torn_header;
    Alcotest.test_case "frame truncated payload" `Quick
      test_frame_truncated_payload;
    Alcotest.test_case "frame crc mismatch" `Quick test_frame_crc_mismatch;
    Alcotest.test_case "frame oversized rejected" `Quick
      test_frame_oversized_rejected;
    Alcotest.test_case "sched weighted round-robin" `Quick
      test_sched_weighted_round_robin;
    Alcotest.test_case "sched backpressure + fifo + close" `Quick
      test_sched_backpressure_and_fifo;
    Alcotest.test_case "server multi-client byte identity" `Quick
      test_server_multi_client_byte_identity;
    Alcotest.test_case "server handshake rejection" `Quick
      test_server_handshake_rejected;
    Alcotest.test_case "server survives crc mismatch" `Quick
      test_server_survives_crc_mismatch;
    Alcotest.test_case "server survives oversized frame" `Quick
      test_server_survives_oversized_frame;
    Alcotest.test_case "server survives garbage payload" `Quick
      test_server_survives_garbage_payload;
    Alcotest.test_case "server client disconnect mid-job" `Quick
      test_server_client_disconnect_mid_job;
    Alcotest.test_case "server backpressure busy" `Quick
      test_server_backpressure_busy;
    Alcotest.test_case "server stats + graceful drain" `Quick
      test_server_stats_and_drain;
  ]
