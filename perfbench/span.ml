(* In-memory span recorder for the traced benchmark run.

   A span is one call into a layer: its name, the span that caused it,
   and its start and end times. Spans are kept in memory while the
   benchmark runs and reduced to per-layer self time at the end (self
   time = duration minus the part covered by child spans). Recording is
   off unless [enable] was called, so the untraced run pays one boolean
   test per boundary. Single-threaded: spans nest on one stack. *)

type t = {
  name : string;
  parent : int;  (** index of the causing span, -1 for a root *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let spans : t array ref = ref [||]
let count = ref 0
let current = ref (-1) (* the innermost open span *)
let enable () = on := true

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

(* [with_ name f] runs [f ()] inside a span named [name]. *)
let with_ name f =
  if not !on then f ()
  else begin
    let parent = !current in
    let id = push { name; parent; t0 = Unix.gettimeofday (); t1 = 0.0 } in
    current := id;
    Fun.protect
      ~finally:(fun () ->
        !spans.(id).t1 <- Unix.gettimeofday ();
        current := parent)
      f
  end

(* Per-name (total seconds, self seconds, span count), sorted by name. *)
let summary () =
  let n = !count in
  let child = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then
      child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let d = s.t1 -. s.t0 in
    let tot, self, k =
      Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt acc s.name)
    in
    Hashtbl.replace acc s.name (tot +. d, self +. d -. child.(i), k + 1)
  done;
  Hashtbl.fold (fun name v l -> (name, v) :: l) acc [] |> List.sort compare
