(* The experiment daemon: serves experiment/fault/juliet jobs to many
   concurrent clients over a Unix-domain socket (see lib/service and
   DESIGN.md §9).

   The process runs until SIGTERM/SIGINT, then drains gracefully:
   in-flight and queued jobs complete and are answered, new work is
   refused, the socket is unlinked, and the final stats snapshot is
   printed (and written to --stats-out) before a clean exit 0.

   Usage: ifp_serviced [--socket PATH] [--shards N] [--queue-depth N]
                       [--drain-timeout SECS] [--idle-timeout SECS]
                       [--io-timeout SECS] [--poison-threshold N]
                       [--stats-out FILE] [--ready-fd FD]
                       [CAMPAIGN FLAGS]
   with the campaign flags of Ifp_campaign.Cli (-j, also --workers,
   --cache-dir, --journal, ...) except --resume; --help lists them. *)

module Cli = Ifp_campaign.Cli
module Events = Ifp_campaign.Events
module Journal = Ifp_campaign.Journal
module Shard = Ifp_service.Shard
module Server = Ifp_service.Server

let () =
  let socket = ref "ifp-service.sock" and shards = ref 8 in
  let queue_depth = ref 64 and poison_threshold = ref 3 in
  let drain_timeout = ref 60.0 and idle_timeout = ref 60.0 in
  let io_timeout = ref 30.0 in
  let stats_out = ref None and ready_fd = ref None in
  let campaign =
    ref
      {
        Cli.campaign_defaults with
        workers = 2;
        cache_dir = Some ".ifp-service-cache";
        retries = 1;
        log = Some "service.jsonl";
      }
  in
  let secs r =
    Cli.checked "a positive number of seconds"
      (fun s ->
        match float_of_string_opt s with
        | Some t when t > 0.0 -> Some t
        | _ -> None)
      (( := ) r)
  in
  (* the campaign flags the daemon shares: all but --resume, since its
     --journal is always resumed on restart *)
  let shared =
    List.filter (fun (k, _, _) -> k <> "--resume") (Cli.campaign_specs campaign)
  in
  Cli.parse
    (( "--socket",
       Arg.Set_string socket,
       "PATH Unix-domain socket to listen on (default " ^ !socket ^ ")" )
    :: ( "--workers",
         Cli.at_least_one (fun n -> campaign := { !campaign with workers = n }),
         "" )
    :: shared
    @ [
        ( "--shards",
          Cli.at_least_one (( := ) shards),
          Printf.sprintf "N cache shards (default %d)" !shards );
        ( "--queue-depth",
          Cli.at_least_one (( := ) queue_depth),
          Printf.sprintf "N per-tenant queue bound (default %d)" !queue_depth );
        ( "--drain-timeout",
          secs drain_timeout,
          Printf.sprintf "SECS max graceful-drain wait (default %g)"
            !drain_timeout );
        ( "--idle-timeout",
          secs idle_timeout,
          Printf.sprintf "SECS reap idle connections after (default %g)"
            !idle_timeout );
        ( "--io-timeout",
          secs io_timeout,
          Printf.sprintf "SECS per-frame read/write deadline (default %g)"
            !io_timeout );
        ( "--poison-threshold",
          Cli.at_least_one (( := ) poison_threshold),
          Printf.sprintf "N worker crashes before quarantine (default %d)"
            !poison_threshold );
        ( "--stats-out",
          Arg.String (fun p -> stats_out := Some p),
          "FILE write the final stats snapshot as JSON on drain" );
        ( "--ready-fd",
          Cli.nat (fun fd -> ready_fd := Some fd),
          "FD write one byte to FD once the socket is listening" );
      ])
    "usage: ifp_serviced [OPTIONS]\n\
     Serves experiment jobs over a Unix-domain socket until SIGTERM,\n\
     then drains gracefully and exits 0. With --journal, completions are\n\
     journaled before the reply and a restarted daemon replays them\n\
     byte-identically.";
  let campaign = !campaign and socket = !socket and shards = !shards in
  let shard =
    Option.map
      (fun dir ->
        Shard.create ?max_bytes:campaign.Cli.cache_max_bytes ~dir ~shards ())
      campaign.cache_dir
  in
  let log =
    match campaign.log with
    | Some path -> Events.create ~path
    | None -> Events.null
  in
  (* crash-restart durability: resume over the existing journal (replay
     is authoritative — a restarted daemon serves prior results
     byte-identically), truncating any tail torn by a SIGKILL *)
  let journal =
    Option.map
      (fun path ->
        let j, replay = Journal.open_resume ~path in
        let n = List.length replay.Journal.entries in
        if n > 0 then
          Printf.printf "ifp_serviced: journal replayed %d entries from %s\n%!"
            n path;
        j)
      campaign.journal
  in
  (* the daemon's whole point is install-then-restore: serve until a
     signal, drain, put the old handlers back, exit 0 *)
  let signals = Cli.install_stop () in
  let cfg =
    {
      (Server.default_config ~socket_path:socket) with
      Server.workers = campaign.workers;
      shard;
      queue_depth = !queue_depth;
      retries = campaign.retries;
      job_timeout = campaign.timeout;
      drain_timeout = !drain_timeout;
      idle_timeout = !idle_timeout;
      io_timeout = !io_timeout;
      poison_threshold = !poison_threshold;
      journal;
      log;
      banner = "ifp_serviced/1";
    }
  in
  Printf.printf "ifp_serviced: listening on %s (%d workers, %s)\n%!"
    socket campaign.workers
    (match campaign.cache_dir with
    | Some dir -> Printf.sprintf "%d cache shards in %s" shards dir
    | None -> "no cache");
  (* readiness signal for supervisors: one byte once the socket exists.
     Server.run binds before serving, but we only learn "bound" by
     polling; a pipe write after run returns would be too late, so we
     watch for the socket file from a helper thread. *)
  (match !ready_fd with
  | None -> ()
  | Some fdnum ->
    let fd : Unix.file_descr = Obj.magic (fdnum : int) in
    ignore
      (Thread.create
         (fun () ->
           let rec wait n =
             if n <= 0 then ()
             else if Sys.file_exists socket then (
               (try ignore (Unix.write fd (Bytes.of_string "R") 0 1)
                with Unix.Unix_error _ -> ());
               try Unix.close fd with Unix.Unix_error _ -> ())
             else (
               Thread.delay 0.02;
               wait (n - 1))
           in
           wait 500)
         ()));
  let final = Server.run ~stop:signals.Cli.stop cfg in
  signals.Cli.restore ();
  (match !stats_out with
  | Some path -> Events.write_json_file ~path final
  | None -> ());
  print_endline (Events.json_to_string final);
  Option.iter Journal.close journal;
  Events.close log;
  (* clean drain is the daemon's success path — unlike the batch CLIs'
     exit 130, SIGTERM here means "retire", not "interrupted" *)
  exit 0
