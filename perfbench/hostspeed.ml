(* Host-speed probe. On a host shared with other tenants the same code
   runs up to 1.8x slower for minutes at a time, in CPU time as well as
   in wall time (see README.md). A fixed kernel that calls no code of the
   repository runs in a helper process of its own, so that its heap and
   collections are apart from the benchmark's. It is timed between
   operations, never during one, and its time is never taken out of an
   operation's time. [factor] is the ratio of the nominal speed, at which
   the kernel takes [nominal_ms], to the run's median speed; the bounded
   figures of a run are its measured figures times that ratio. *)

let nominal_ms = 1.0

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* random access into a table, integer arithmetic and short-lived list
   allocation, like the simulator's own host work *)
let table = Array.make 4096 0

let kernel () =
  Array.fill table 0 4096 0;
  let acc = ref 0 in
  for i = 1 to 13_000 do
    let k = i * 7919 land 4095 in
    let v = table.(k) in
    if v <> 0 then acc := !acc + v else table.(k) <- i;
    acc := !acc + List.fold_left ( + ) 0 (List.init 8 (fun j -> i + j))
  done;
  !acc

(* The helper: on each request byte it runs the kernel once untimed, to
   bring its data back into the cache, then once timed in its own CPU
   time, and answers with the milliseconds; it exits at end of file. *)
let serve req rep =
  let ic = Unix.in_channel_of_descr req and oc = Unix.out_channel_of_descr rep in
  (try
     while true do
       ignore (input_char ic);
       ignore (Sys.opaque_identity (kernel ()));
       let t0 = cpu_now () in
       ignore (Sys.opaque_identity (kernel ()));
       Printf.fprintf oc "%.17g\n%!" ((cpu_now () -. t0) *. 1e3)
     done
   with End_of_file | Sys_error _ -> ());
  (* no at_exit handler of the benchmark may run here *)
  Unix._exit 0

let helper = ref None (* pid, requests, replies *)

let stop () =
  Option.iter
    (fun (pid, oc, ic) ->
      helper := None;
      close_out_noerr oc;
      close_in_noerr ic;
      ignore (Unix.waitpid [] pid))
    !helper

(* Forks the helper. Call before any thread or domain starts. *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    serve req_r rep_w
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    helper := Some (pid, Unix.out_channel_of_descr req_w, Unix.in_channel_of_descr rep_r);
    at_exit stop

let samples = ref [] (* ms *)
let last = ref neg_infinity

let sample () =
  Option.iter
    (fun (_, oc, ic) ->
      output_char oc 's';
      flush oc;
      samples := float_of_string (input_line ic) :: !samples;
      last := Unix.gettimeofday ())
    !helper

(* Called between operations: samples when [period] seconds of wall time
   have passed since the last sample. *)
let tick ?(period = 0.05) () =
  if Unix.gettimeofday () -. !last >= period then sample ()

let median_ms () = Layers.median !samples

let factor () =
  match !samples with [] -> 1.0 | l -> nominal_ms /. Layers.median l
