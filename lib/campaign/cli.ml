(* The argv front end shared by every binary, and the campaign run
   skeleton: signal-driven stop flags, journal/log opening on resume,
   and the process-exit contract. *)

(* ---------------- argument parsing ---------------- *)

let checked expected parse f =
  Arg.String
    (fun s ->
      match parse s with
      | Some v -> f v
      | None ->
        raise
          (Arg.Bad (Printf.sprintf "bad argument %S (expected %s)" s expected)))

let nat f =
  checked "a non-negative integer"
    (fun s ->
      match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None)
    f

let at_least_one f = nat (fun n -> f (max 1 n))
let int64 f = checked "an integer" Int64.of_string_opt f

let seconds f =
  checked "a number of seconds"
    (fun s ->
      Option.map
        (fun t -> if t > 0.0 then Some t else None)
        (float_of_string_opt s))
    f

(* "64k" / "100M" / "2G" / plain bytes *)
let parse_bytes s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then None
  else
    let scale, digits =
      match s.[len - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (len - 1))
      | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (len - 1))
      | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (len - 1))
      | '0' .. '9' -> (1, s)
      | _ -> (0, s)
    in
    if scale = 0 then None
    else
      match int_of_string_opt digits with
      | Some n when n >= 0 -> Some (n * scale)
      | _ -> None

let byte_count f = checked "a byte count like 64k, 100M or 2G" parse_bytes f

let lookup what table name =
  match List.assoc_opt name table with
  | Some v -> v
  | None ->
    raise
      (Arg.Bad
         (Printf.sprintf "unknown %s %s (expected %s)" what name
            (String.concat " | " (List.map fst table))))

let parse ?(anon = fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    specs usage =
  let specs = Arg.align specs in
  (* -h: an unlisted alias of the -help/--help that Arg adds itself *)
  let help () = raise (Arg.Help (Arg.usage_string specs usage)) in
  let specs = ("-h", Arg.Unit help, "") :: specs in
  try Arg.parse_argv Sys.argv specs anon usage with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 1
  | Arg.Help msg ->
    print_string msg;
    exit 0

(* ---------------- signals, journal, exit ---------------- *)

type signals = {
  stop : unit -> bool;  (** true once any armed signal has been seen *)
  restore : unit -> unit;
      (** reinstall the handlers that were live before [install_stop];
          idempotent, safe to call from a finaliser path *)
}

(* The stop-flag wiring, factored so a long-running process (the
   experiment daemon) can install it for one serving phase and cleanly
   uninstall on drain: [restore] puts back whatever handlers were
   previously installed, so nested or repeated install/restore cycles
   compose. *)
let install_stop ?(signals = [ Sys.sigint; Sys.sigterm ]) () =
  let flag = Atomic.make false in
  let saved =
    List.filter_map
      (fun signum ->
        match
          Sys.signal signum
            (Sys.Signal_handle (fun _ -> Atomic.set flag true))
        with
        | prev -> Some (signum, prev)
        | exception (Invalid_argument _ | Sys_error _) -> None)
      signals
  in
  let restored = Atomic.make false in
  {
    stop = (fun () -> Atomic.get flag);
    restore =
      (fun () ->
        if not (Atomic.exchange restored true) then
          List.iter
            (fun (signum, prev) ->
              try Sys.set_signal signum prev
              with Invalid_argument _ | Sys_error _ -> ())
            saved);
  }

let install_interrupt () = (install_stop ()).stop

let open_journal ~path ~resume =
  match path with
  | None -> (None, None)
  | Some path ->
    if resume then
      let j, rep = Journal.open_resume ~path in
      (Some j, Some rep)
    else (Some (Journal.create ~path), None)

let open_log ~path ~resume =
  match path with
  | None -> (Events.null, false)
  | Some path ->
    if resume then Events.open_append ~path
    else (Events.create ~path, false)

let emit_resumed log ~replay ~log_truncated =
  match replay with
  | None -> ()
  | Some (rep : Journal.replay) ->
    Events.emit log "campaign_resumed"
      [
        ("replayed", Events.Int (List.length rep.Journal.entries));
        ("journal_torn_tail", Events.Bool rep.Journal.torn_tail);
        ("log_torn_line", Events.Bool log_truncated);
      ]

let finish ?hint ?signals ?(code = 0) ~journal ~log ~interrupted () =
  (* order matters: the journal is the source of truth for resume — it
     goes down first; the log close is best-effort observability *)
  Option.iter Journal.close journal;
  Events.close log;
  Option.iter (fun s -> s.restore ()) signals;
  if interrupted then (
    Option.iter prerr_endline hint;
    (* 130 = 128 + SIGINT, the conventional "killed by Ctrl-C" status;
       we use it for SIGTERM drains too — callers only need nonzero *)
    Stdlib.exit 130)
  else
    (* explicit exit, not a return from main: abandoned watchdog domains
       (Timed_out jobs) may still be running and must not be waited on
       once every output is flushed — see the Engine process-exit
       contract *)
    Stdlib.exit code

(* ---------------- campaign options and run skeleton ---------------- *)

type campaign = {
  workers : int;
  cache_dir : string option;
  cache_max_bytes : int option;
  log : string option;
  timeout : float option;
  retries : int;
  journal : string option;
  resume : bool;
}

let campaign_defaults =
  {
    workers = 1;
    cache_dir = Some ".ifp-cache";
    cache_max_bytes = None;
    log = None;
    timeout = None;
    retries = 2;
    journal = None;
    resume = false;
  }

(* the one spelling of each campaign flag; the interrupt hint names two *)
let journal_flag = "--journal"
let resume_flag = "--resume"

let campaign_specs c =
  let d = !c in
  let default = Option.value ~default:"none" in
  let workers = at_least_one (fun n -> c := { !c with workers = n }) in
  [
    ("-j", workers, Printf.sprintf "N worker domains (default %d)" d.workers);
    ("--jobs", workers, "");
    ( "--cache-dir",
      Arg.String (fun dir -> c := { !c with cache_dir = Some dir }),
      "DIR on-disk result cache (default " ^ default d.cache_dir ^ ")" );
    ( "--no-cache",
      Arg.Unit (fun () -> c := { !c with cache_dir = None }),
      " run without the result cache" );
    ( "--cache-max-bytes",
      byte_count (fun b -> c := { !c with cache_max_bytes = Some b }),
      "BYTES[k|M|G] LRU byte budget of the cache" );
    ( "--log",
      Arg.String (fun path -> c := { !c with log = Some path }),
      "FILE JSONL event log (default " ^ default d.log ^ ")" );
    ( "--no-log",
      Arg.Unit (fun () -> c := { !c with log = None }),
      " write no event log" );
    ( "--timeout",
      seconds (fun t -> c := { !c with timeout = t }),
      "SECS per-job watchdog, <= 0 for none (default "
      ^ default (Option.map (Printf.sprintf "%g") d.timeout)
      ^ ")" );
    ( "--retries",
      nat (fun n -> c := { !c with retries = n }),
      Printf.sprintf "N extra attempts per failing job (default %d)" d.retries
    );
    ( journal_flag,
      Arg.String (fun path -> c := { !c with journal = Some path }),
      "FILE write-ahead journal of completed jobs (crash-safe)" );
    ( resume_flag,
      Arg.String
        (fun path -> c := { !c with journal = Some path; resume = true }),
      "FILE replay FILE's completed jobs, run the rest, keep journaling to \
       it" );
  ]

type session = {
  campaign : campaign;
  cache : Cache.t option;
  stop : unit -> bool;
  journal : Journal.t option;
  log : Events.t;
}

let open_campaign c =
  let cache =
    Option.map
      (fun dir -> Cache.create ?max_bytes:c.cache_max_bytes ~dir ())
      c.cache_dir
  in
  let stop = install_interrupt () in
  let journal, replay = open_journal ~path:c.journal ~resume:c.resume in
  let log, log_truncated = open_log ~path:c.log ~resume:c.resume in
  emit_resumed log ~replay ~log_truncated;
  { campaign = c; cache; stop; journal; log }

let run_campaign s ~hint ?on_job_done ?runner jobs =
  let c = s.campaign in
  let outcomes, (stats : Engine.stats) =
    Engine.run ~workers:c.workers ?cache:s.cache ?journal:s.journal
      ~log:s.log ~stop:s.stop ~retries:c.retries ?job_timeout:c.timeout
      ?on_job_done ?runner jobs
  in
  if stats.interrupted then
    finish ~journal:s.journal ~log:s.log ~interrupted:true
      ~hint:
        (Printf.sprintf "%s: %d done, %d skipped%s" hint
           (stats.completed + stats.failed + stats.timed_out)
           stats.skipped
           (match c.journal with
           | Some p -> Printf.sprintf "; resume with %s %s" resume_flag p
           | None ->
             Printf.sprintf " (no %s: a re-run starts from the cache only)"
               journal_flag))
      ();
  (outcomes, stats)

let close_campaign ?code s =
  finish ?code ~journal:s.journal ~log:s.log ~interrupted:false ()
