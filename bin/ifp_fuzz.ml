(* Campaign-scale differential fuzzing with counterexample minimization.

   Rounds of seeded, size-bounded generated MiniC programs are pushed
   through the campaign engine; each case's runner executes the full
   oracle battery (closure-vs-reference engine agreement under three
   configs, baseline-vs-IFP behavioral equivalence, fault-classifier
   sanity).
   Divergent cases are greedily minimized into parser-image repros and
   written to the content-addressed corpus; the campaign stops after
   --dry consecutive rounds produce no new distinct counterexample, or
   at the --rounds cap.

   Everything inherits the campaign engine's machinery: parallel
   workers, result cache (battery verdicts are digest-addressed, salted
   so they never collide with plain runs), per-job watchdog, CRC
   write-ahead journal and resume, SIGINT/SIGTERM graceful drain (exit
   130). A killed and resumed campaign reaches the same final report.

   Usage:
     ifp_fuzz [--seed S] [--rounds N] [--cases N] [--dry K] [--quick]
              [--corpus DIR] [--shrink-budget N] [--out FILE]
              [CAMPAIGN FLAGS]
     ifp_fuzz --repro FILE-or-DIGEST [--fault-seed S] [--corpus DIR]
     ifp_fuzz --shrink FILE | --canon FILE | --emit-seed S
   The campaign flags (workers, cache, log, watchdog, retries, journal
   and resume) are those of Ifp_campaign.Cli; --help lists them all. *)

module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Events = Ifp_campaign.Events
module Cli = Ifp_campaign.Cli
module Vm = Ifp_vm.Vm
module Table = Ifp_util.Table
module Gen = Ifp_fuzz.Gen
module Oracle = Ifp_fuzz.Oracle
module Fuzz = Ifp_fuzz.Fuzz

(* options; --canon, --shrink and --emit-seed act (and exit) as soon as
   they are parsed, seeing only the options given before them *)
let seed = ref 1L and rounds = ref 8 and cases = ref 250 and dry = ref 2
let quick = ref false and corpus = ref "test/golden/fuzz"
let shrink_budget = ref 1200 and out = ref "BENCH_fuzz.json"
let repro_target = ref None and fault_seed = ref 1L

(* parse + typecheck + reprint: the corpus' canonical text form *)
let canon path =
  let src = In_channel.with_open_text path In_channel.input_all in
  let p = Ifp_compiler.Parser.parse src in
  Ifp_compiler.Typecheck.check_program p;
  print_string (Ifp_compiler.Ir_pp.program_to_string p);
  exit 0

(* minimize a diverging source file and print the result *)
let shrink path =
  let src = In_channel.with_open_text path In_channel.input_all in
  let fault_seed = !fault_seed in
  match Fuzz.check_source ~fault_seed src with
  | Error m ->
    Printf.eprintf "%s: %s\n" path m;
    exit 1
  | Ok [] ->
    Printf.eprintf "%s: no divergence to minimize\n" path;
    exit 1
  | Ok (f :: _) ->
    let key = Oracle.failure_key f in
    let prog = Ifp_compiler.Parser.parse src in
    Ifp_compiler.Typecheck.check_program prog;
    let small = Fuzz.minimize ~budget:!shrink_budget ~fault_seed ~key prog in
    print_string (Ifp_compiler.Ir_pp.program_to_string small);
    exit 0

(* debug aid: print the generated source for a raw case seed *)
let emit_seed s =
  let knobs = if !quick then Gen.quick else Gen.default in
  print_string (Gen.source ~knobs ~seed:s ());
  exit 0

let parse_opts () =
  let campaign =
    ref
      {
        Cli.campaign_defaults with
        cache_dir = None;
        retries = 1;
        timeout = Some 120.0;
        log = Some "fuzz.jsonl";
      }
  in
  Cli.parse
    ([
       ("--seed", Cli.int64 (( := ) seed), "S campaign seed (default 1)");
       ( "--rounds",
         Cli.at_least_one (( := ) rounds),
         "N round cap (default 8)" );
       ( "--cases",
         Cli.at_least_one (( := ) cases),
         "N generated programs per round (default 250)" );
       ( "--dry",
         Cli.at_least_one (( := ) dry),
         "K stop after K rounds with nothing new (default 2)" );
       ("--quick", Arg.Set quick, " smaller generated programs");
       ( "--corpus",
         Arg.Set_string corpus,
         "DIR counterexample corpus (default " ^ !corpus ^ ")" );
       ( "--shrink-budget",
         Cli.nat (( := ) shrink_budget),
         "N minimizer step budget (default 1200)" );
       ( "--out",
         Arg.Set_string out,
         "FILE aggregate destination (default " ^ !out ^ ")" );
       ( "--repro",
         Arg.String (fun t -> repro_target := Some t),
         "FILE-or-DIGEST replay one counterexample and exit" );
       ( "--fault-seed",
         Cli.int64 (( := ) fault_seed),
         "S fault seed of --repro and --shrink (default 1)" );
       ("--canon", Arg.String canon, "FILE reprint FILE canonically and exit");
       ( "--shrink",
         Arg.String shrink,
         "FILE minimize FILE's divergence, print it and exit" );
       ( "--emit-seed",
         Cli.int64 emit_seed,
         "S print the generated source for case seed S and exit" );
     ]
    @ Cli.campaign_specs campaign)
    "usage: ifp_fuzz [OPTIONS]\n\
    \       ifp_fuzz --repro FILE-or-DIGEST [--fault-seed S] [--corpus DIR]";
  !campaign

(* ---------------- repro mode ---------------- *)

let print_sig_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go la lb =
    match (la, lb) with
    | x :: la', y :: lb' ->
      if not (String.equal x y) then Printf.printf "  -%s\n  +%s\n" x y;
      go la' lb'
    | x :: la', [] ->
      Printf.printf "  -%s\n" x;
      go la' []
    | [], y :: lb' ->
      Printf.printf "  +%s\n" y;
      go [] lb'
    | [], [] -> ()
  in
  go la lb

let repro target =
  let path =
    if Sys.file_exists target && not (Sys.is_directory target) then target
    else
      (* digest (prefix) lookup in the corpus *)
      match
        List.filter
          (fun (d, _) -> String.length target <= String.length d
                         && String.sub d 0 (String.length target) = target)
          (Fuzz.corpus_entries ~dir:!corpus)
      with
      | [ (d, _) ] -> Filename.concat !corpus (d ^ ".minic")
      | [] ->
        Printf.eprintf "repro: no file and no corpus entry matching %s\n" target;
        exit 2
      | many ->
        Printf.eprintf "repro: ambiguous digest %s (%s)\n" target
          (String.concat ", " (List.map fst many));
        exit 2
  in
  let src = In_channel.with_open_text path In_channel.input_all in
  Printf.printf "== repro %s (digest %s, fault seed %Ld) ==\n" path
    (Fuzz.text_digest src) !fault_seed;
  let prog =
    match Ifp_compiler.Parser.parse src with
    | exception Ifp_compiler.Parser.Parse_error (m, l) ->
      Printf.eprintf "%s:%d: parse error: %s\n" path l m;
      exit 1
    | p ->
      (try Ifp_compiler.Typecheck.check_program p with
      | Ifp_compiler.Typecheck.Type_error m ->
        Printf.eprintf "%s: type error: %s\n" path m;
        exit 1);
      p
  in
  (* the full engine x config matrix, with signatures kept for diffing *)
  let matrix =
    List.map
      (fun (cname, cfg) ->
        ( cname,
          List.map
            (fun (ename, erun) -> (ename, Oracle.result_sig (erun cfg prog)))
            Oracle.engines ))
      Oracle.configs
  in
  let header = [ "config"; "engine"; "outcome"; "cycles"; "output" ] in
  let body =
    List.concat_map
      (fun (cname, per_engine) ->
        List.map
          (fun (ename, s) ->
            let line n =
              match List.nth_opt (String.split_on_char '\n' s) n with
              | Some l -> l
              | None -> ""
            in
            let outcome =
              match String.index_opt (line 0) '=' with
              | Some k ->
                String.sub (line 0) (k + 1) (String.length (line 0) - k - 1)
              | None -> line 0
            in
            let cycles =
              List.nth_opt (String.split_on_char ' ' (line 1)) 1
              |> Option.value ~default:""
            in
            let out_line = line 6 in
            [ cname; ename; outcome; cycles; out_line ])
          per_engine)
      matrix
  in
  Table.print ~header body;
  (* per-config engine diffs: first divergent step, unified style *)
  List.iter
    (fun (cname, per_engine) ->
      match per_engine with
      | (ref_name, ref_sig) :: rest ->
        List.iter
          (fun (ename, s) ->
            if not (String.equal s ref_sig) then begin
              Printf.printf "\n-- %s: %s vs %s diverge --\n" cname ref_name
                ename;
              print_sig_diff ref_sig s
            end)
          rest
      | [] -> ())
    matrix;
  (* and the oracle verdict *)
  let failures, _ = Oracle.check ~fault_seed:!fault_seed prog in
  if failures = [] then begin
    Printf.printf "\nall oracles agree: no divergence\n";
    exit 0
  end
  else begin
    Printf.printf "\n%d oracle failure(s):\n" (List.length failures);
    List.iter
      (fun (f : Oracle.failure) ->
        Printf.printf "  [%s] %s\n" (Oracle.failure_key f) f.Oracle.detail)
      failures;
    exit 1
  end

(* ---------------- campaign mode ---------------- *)

let () =
  let campaign = parse_opts () in
  Option.iter repro !repro_target;
  let knobs = if !quick then Gen.quick else Gen.default in
  let session = Cli.open_campaign campaign in
  let seen = Hashtbl.create 16 in
  (* corpus entries already present count as known, not new *)
  List.iter
    (fun (d, _) -> Hashtbl.replace seen d ())
    (Fuzz.corpus_entries ~dir:!corpus);
  let total_cases = ref 0 in
  let total_divergent = ref 0 in
  let new_digests = ref [] in
  let agg = ref [] in
  let dry_rounds = ref 0 in
  let round = ref 0 in
  while !round < !rounds && !dry_rounds < !dry do
    let r = !round in
    let jobs =
      List.init !cases (fun idx ->
          Fuzz.job ~knobs ~campaign_seed:!seed ~round:r ~idx)
    in
    let outcomes, stats =
      Cli.run_campaign session
        ~hint:(Printf.sprintf "fuzz campaign interrupted in round %d" r)
        ~runner:Fuzz.runner jobs
    in
    agg := stats :: !agg;
    total_cases := !total_cases + stats.Engine.completed;
    let divergent =
      Array.to_list outcomes
      |> List.filter_map (fun (o : Engine.outcome) ->
             match (o.Engine.status, o.Engine.result) with
             | Engine.Done, Some res when Fuzz.failures_of res <> [] ->
               Some (o.Engine.job, Fuzz.failures_of res)
             | _ -> None)
    in
    total_divergent := !total_divergent + List.length divergent;
    let fresh = ref 0 in
    List.iter
      (fun ((j : Job.t), failures) ->
        let keys = List.map Oracle.failure_key failures in
        let fault_seed = j.Job.config.Vm.seed in
        let minimized =
          Fuzz.minimize ~budget:!shrink_budget ~fault_seed
            ~key:(List.hd keys) j.Job.prog
        in
        let text = Ifp_compiler.Ir_pp.program_to_string minimized in
        let digest = Fuzz.text_digest text in
        if not (Hashtbl.mem seen digest) then begin
          Hashtbl.replace seen digest ();
          incr fresh;
          new_digests := digest :: !new_digests;
          let d =
            Fuzz.corpus_write ~dir:!corpus ~src:text ~seed:fault_seed
              ~keys
          in
          Printf.printf
            "  counterexample %s (%s) minimized to %d lines -> %s/%s.minic\n%!"
            j.Job.name (List.hd keys)
            (List.length (String.split_on_char '\n' text))
            !corpus d
        end)
      divergent;
    if !fresh = 0 then incr dry_rounds else dry_rounds := 0;
    Printf.printf
      "round %d: %d cases, %d divergent, %d new counterexample(s), %d \
       cache/journal hits (%.1fs)%s\n%!"
      r (List.length jobs) (List.length divergent) !fresh
      (stats.Engine.cache_hits + stats.Engine.journal_replays)
      stats.Engine.wall_seconds
      (if !fresh = 0 then Printf.sprintf " [dry %d/%d]" !dry_rounds !dry
       else "");
    incr round
  done;
  let stats_sum f = List.fold_left (fun acc s -> acc + f s) 0 !agg in
  let open Events in
  Events.write_json_file ~path:!out
    (Obj
       [
         ("bench", String "ifp_fuzz");
         ("seed", String (Int64.to_string !seed));
         ("quick", Bool !quick);
         ("rounds_run", Int !round);
         ("cases_per_round", Int !cases);
         ("programs", Int !total_cases);
         ("divergent", Int !total_divergent);
         ("new_counterexamples", Int (List.length !new_digests));
         ( "corpus",
           List (List.rev_map (fun d -> String d) !new_digests) );
         ("dried_out", Bool (!dry_rounds >= !dry));
         ("model_digest", String Job.model_digest);
         ( "campaign",
           Obj
             [
               ("jobs", Int (stats_sum (fun s -> s.Engine.jobs)));
               ("completed", Int (stats_sum (fun s -> s.Engine.completed)));
               ("failed", Int (stats_sum (fun s -> s.Engine.failed)));
               ("timed_out", Int (stats_sum (fun s -> s.Engine.timed_out)));
               ("cache_hits", Int (stats_sum (fun s -> s.Engine.cache_hits)));
               ( "journal_replays",
                 Int (stats_sum (fun s -> s.Engine.journal_replays)) );
               ( "wall_seconds",
                 Float
                   (List.fold_left
                      (fun acc s -> acc +. s.Engine.wall_seconds)
                      0.0 !agg) );
             ] );
       ]);
  Printf.printf
    "fuzz campaign: %d programs, %d divergent, %d new counterexample(s)%s; \
     wrote %s\n"
    !total_cases !total_divergent
    (List.length !new_digests)
    (if !dry_rounds >= !dry then
       Printf.sprintf " — dried out after %d quiet round(s)" !dry_rounds
     else "")
    !out;
  (* the CI gate: a fuzz run must end with zero unexplained divergences *)
  Cli.close_campaign ~code:(if !total_divergent > 0 then 1 else 0) session
