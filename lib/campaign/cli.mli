(** The argv front end of every binary, and the run skeleton of the
    four campaign drivers ([ifp_experiments], [ifp_faults], [ifp_fuzz],
    [ifp_juliet]): typed [Arg] helpers with one usage-error policy, the
    shared campaign flags, and the open → {!Engine.run} → exit sequence
    (signal-driven graceful shutdown, journal resume, resumable event
    logs, the interrupted exit). Lives in the library so the drivers
    stay flag-for-flag and event-for-event consistent. *)

(** {1 Argument parsing} *)

val checked : string -> (string -> 'a option) -> ('a -> unit) -> Arg.spec
(** [checked expected parse f] passes [parse arg] to [f], or raises
    [Arg.Bad] naming [expected] on [None]. The helpers below are
    instances. *)

val nat : (int -> unit) -> Arg.spec
(** A non-negative integer. *)

val at_least_one : (int -> unit) -> Arg.spec
(** A non-negative integer, clamped up to [1]. *)

val int64 : (int64 -> unit) -> Arg.spec

val byte_count : (int -> unit) -> Arg.spec
(** A byte count in {!parse_bytes} syntax. *)

val seconds : (float option -> unit) -> Arg.spec
(** Seconds; zero or negative means none. *)

val lookup : string -> (string * 'a) list -> string -> 'a
(** [lookup what table name] is [name]'s entry, or [Arg.Bad] listing
    the valid names. *)

val parse :
  ?anon:(string -> unit) -> (Arg.key * Arg.spec * Arg.doc) list -> string ->
  unit
(** [parse ?anon specs usage] parses [Sys.argv] against the aligned
    [specs] plus [-h]. A bad, missing or unknown argument prints the
    error and the usage to stderr and exits 1; [-h]/[-help]/[--help]
    print the usage to stdout and exit 0. Without [anon], positional
    arguments are errors. *)

val parse_bytes : string -> int option
(** Plain digits, or with a [k]/[M]/[G] (case-insensitive, 1024-based)
    suffix. [None] on anything else or on negative values. *)

(** {1 Campaigns} *)

type campaign = {
  workers : int;
  cache_dir : string option;  (** [None]: no result cache *)
  cache_max_bytes : int option;
  log : string option;  (** JSONL event log *)
  timeout : float option;  (** per-job watchdog, seconds *)
  retries : int;
  journal : string option;
  resume : bool;  (** replay [journal] before running *)
}

val campaign_defaults : campaign
(** One worker, cache in [.ifp-cache], no log, no timeout, the
    {!Engine.run} default of 2 retries, no journal. *)

val campaign_specs : campaign ref -> (Arg.key * Arg.spec * Arg.doc) list
(** The ten campaign flags, writing to the ref, whose contents at call
    time are the defaults shown in the usage. A resumed journal is also
    journaled to. *)

type session

val open_campaign : campaign -> session
(** Opens the cache, arms SIGINT/SIGTERM, opens (or resumes) the journal
    and the log, and emits [campaign_resumed] when resuming. *)

val run_campaign :
  session ->
  hint:string ->
  ?on_job_done:(Engine.outcome -> unit) ->
  ?runner:(Job.t -> Ifp_vm.Vm.result) ->
  Job.t list ->
  Engine.outcome array * Engine.stats
(** One {!Engine.run} batch; a campaign may run several. If a signal
    interrupts it, exits 130 through {!finish} with
    ["<hint>: N done, M skipped"] and how to resume. *)

val close_campaign : ?code:int -> session -> 'a
(** {!finish} after the last batch: exits [code] (default [0]). *)

(** {1 Signals, journal and exit} *)

type signals = {
  stop : unit -> bool;  (** true once any armed signal has been seen *)
  restore : unit -> unit;
      (** reinstall the handlers live before {!install_stop}; idempotent *)
}

val install_stop : ?signals:int list -> unit -> signals
(** Installs handlers (default SIGINT + SIGTERM) that set a shared stop
    flag, remembering the previous handlers so [restore] can put them
    back — the shape a long-running process (the experiment daemon)
    needs to install for one serving phase and cleanly uninstall on
    drain. Handlers only set the flag — the engine drains in-flight
    jobs, the driver flushes and exits. Platforms rejecting a signal are
    tolerated (that signal then never fires the flag). *)

val install_interrupt : unit -> unit -> bool
(** [(install_stop ()).stop] — the one-shot batch-CLI form, where the
    process exits right after the drain and never restores handlers. *)

val open_journal :
  path:string option ->
  resume:bool ->
  Journal.t option * Journal.replay option
(** [path = None]: no journal. [resume = false]: fresh journal at
    [path]. [resume = true]: {!Journal.open_resume} — the replay info is
    returned for the [campaign_resumed] event. *)

val finish :
  ?hint:string ->
  ?signals:signals ->
  ?code:int ->
  journal:Journal.t option ->
  log:Events.t ->
  interrupted:bool ->
  unit ->
  'a
(** The single exit point for a campaign driver, enforcing the
    process-exit contract of {!Engine}: flush and close the journal and
    log, restore [signals] handlers if given, then [Stdlib.exit] —
    [130] when [interrupted] (printing the resume [hint] to stderr, if
    any), [code] (default [0]) otherwise — rather than returning from
    [main] and waiting on abandoned watchdog domains that cannot be
    cancelled. Never returns. *)
