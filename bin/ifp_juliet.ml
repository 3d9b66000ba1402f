(* Functional evaluation (paper §5.1): run the generated Juliet-style
   suite under the chosen configuration and report detection results.

   The 2x72 case programs are dispatched through the lib/campaign engine,
   so runs parallelise over worker domains and repeat invocations hit
   the on-disk result cache.

   With a journal the campaign is crash-safe (write-ahead journal of
   completed cases); resuming from it replays them, and SIGINT/SIGTERM
   drain gracefully (exit 130, resumable).

   Usage: ifp_juliet [CONFIG] [-v] [CAMPAIGN FLAGS]
   CONFIG is a name from Core.Report.named_configs (default: wrapped).
   The campaign flags (workers, cache, log, watchdog, retries, journal
   and resume) are those of Ifp_campaign.Cli; --help lists them all. *)

module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Cli = Ifp_campaign.Cli

let () =
  let cfg = ref ("wrapped", Core.Vm.ifp_wrapped) in
  let verbose = ref false in
  let campaign = ref Cli.campaign_defaults in
  Cli.parse
    ~anon:(fun name ->
      cfg := (name, Cli.lookup "config" Core.Report.named_configs name))
    (("-v", Arg.Set verbose, " list every case, not only the failures")
    :: Cli.campaign_specs campaign)
    ("usage: ifp_juliet [CONFIG] [OPTIONS]\nCONFIG: "
    ^ String.concat " " (List.map fst Core.Report.named_configs)
    ^ " (default: wrapped)");
  let cfg_name, config = !cfg in
  let cases = Ifp_juliet.Juliet.all_cases () in
  let job_name (c : Ifp_juliet.Juliet.case) which =
    Printf.sprintf "juliet/%s/%s/%s" c.id which cfg_name
  in
  let jobs =
    List.concat_map
      (fun (c : Ifp_juliet.Juliet.case) ->
        [
          Job.make ~name:(job_name c "bad") ~group:("juliet/" ^ c.id)
            ~variant:cfg_name ~config c.bad;
          Job.make ~name:(job_name c "good") ~group:("juliet/" ^ c.id)
            ~variant:cfg_name ~config c.good;
        ])
      cases
  in
  let session = Cli.open_campaign !campaign in
  let outcomes, _ =
    Cli.run_campaign session ~hint:"juliet campaign interrupted" jobs
  in
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun (o : Engine.outcome) -> Hashtbl.replace tbl o.job.Job.name o)
    outcomes;
  let run (c : Ifp_juliet.Juliet.case) which =
    let name = job_name c (match which with `Bad -> "bad" | `Good -> "good") in
    match Hashtbl.find_opt tbl name with
    | Some { Engine.result = Some r; _ } -> r
    | Some { Engine.status = Engine.Failed why; _ } ->
      Core.Report.aborted_result ("campaign job failed: " ^ why)
    | _ ->
      Core.Vm.run ~config (match which with `Bad -> c.bad | `Good -> c.good)
  in
  let outcomes, summary = Ifp_juliet.Juliet.run_all_with ~run cases in
  Printf.printf "Juliet-style functional evaluation under %s (%d cases)\n\n"
    cfg_name summary.total;
  List.iter
    (fun (o : Ifp_juliet.Juliet.outcome) ->
      let verdict =
        match o.bad_verdict with
        | Ifp_juliet.Juliet.Detected -> "DETECTED"
        | Silent -> "missed"
        | False_positive -> "false-positive"
        | Error m -> "ERROR " ^ m
      in
      if !verbose || o.bad_verdict <> Ifp_juliet.Juliet.Detected || not o.good_ok
      then
        Printf.printf "  %-36s bad: %-10s good: %s\n" o.case.id verdict
          (if o.good_ok then "ok" else "FAILED"))
    outcomes;
  Printf.printf
    "\nsummary: %d/%d bad cases detected, %d missed, %d good-case failures\n"
    summary.detected summary.total summary.missed summary.good_failures;
  Cli.close_campaign session
