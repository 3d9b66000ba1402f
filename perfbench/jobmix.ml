(* The service workload's job mix: the kinds ifp_loadgen submits — cheap
   paper workloads under the five report configurations, fault-injection
   plans on the victim program, and Juliet good/bad cases. *)

module Job = Ifp_campaign.Job
module Vm = Ifp_vm.Vm
module Fault = Ifp_faultinject.Fault

let experiment_workloads = [ "wolfcrypt-dh"; "power"; "ks" ]
let juliet_cases = 8

type kind = Experiment | Fault_plan | Juliet_case

(* The distinct base jobs, in a fixed order. *)
let build () : (kind * Job.t) array =
     let experiments =
       List.concat_map
         (fun name ->
           let wl = Option.get (Ifp_workloads.Registry.find name) in
           let prog = Lazy.force wl.Ifp_workloads.Workload.prog in
           List.map
             (fun (vname, config) ->
               ( Experiment,
                 Job.make ~name:(name ^ "/" ^ vname) ~group:name ~variant:vname
                   ~config prog ))
             Core.Report.variants)
         experiment_workloads
     in
     let victim = Ifp_faultinject.Victim.program () in
     let faults =
       List.concat_map
         (fun cls ->
           List.map
             (fun (vname, config) ->
               let plan = Fault.default_plan cls ~seed:0L in
               ( Fault_plan,
                 Job.make
                   ~name:(Printf.sprintf "fault/%s/%s" (Fault.class_name cls) vname)
                   ~group:"fault" ~variant:vname
                   ~config:{ config with Vm.fault_plan = Some plan }
                   victim ))
             [
               ("baseline", Vm.baseline);
               ("ifp", Vm.ifp_wrapped);
               ("ifp-np", Vm.no_promote Vm.Alloc_wrapped);
             ])
         Fault.all_classes
     in
     let juliet =
       Ifp_juliet.Juliet.all_cases ()
       |> List.filteri (fun i _ -> i < juliet_cases)
       |> List.concat_map (fun (c : Ifp_juliet.Juliet.case) ->
              List.map
                (fun (which, prog) ->
                  ( Juliet_case,
                    Job.make
                      ~name:(Printf.sprintf "juliet/%s/%s" c.id which)
                      ~group:"juliet" ~variant:"wrapped" ~config:Vm.ifp_wrapped
                      prog ))
                [ ("bad", c.bad); ("good", c.good) ])
     in
     Array.of_list (experiments @ faults @ juliet)

let base = lazy (build ())

(* Stream position [i] of a run seeded [seed]: base job [i mod n] with a
   MAC-key seed derived from [(seed, i)], so every position has a digest
   of its own and the daemon's cache can only be hit by a re-submission. *)
let nth ~seed i =
  let b = Lazy.force base in
  let kind, job = b.(i mod Array.length b) in
  let config =
    { job.Job.config with Vm.seed = Ifp_util.Prng.mix2 seed (Int64.of_int i) }
  in
  (kind, { job with Job.config })
