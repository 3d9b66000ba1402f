module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Events = Ifp_campaign.Events

let magic = "ifp-service"

(* v2 added the Poisoned reply (worker-crash quarantine); v3 renumbered
   the [Vm.engine] constructors carried inside every [Job.t] config. The
   handshake requires an exact version match, so older clients are
   refused with a clear reason instead of mis-decoding a constructor *)
let version = 3

exception Protocol_error of string

type handshake = {
  hs_magic : string;
  hs_version : int;
  hs_tenant : string;
  hs_weight : int;  (** fair-share weight; clamped to >= 1 server-side *)
}

type request =
  | Submit of Job.t
  | Stats
  | Ping

(* A completed job as it travels back to the client. [result_bytes] is
   the {e canonical} serialisation ([Marshal] with [No_sharing]) of the
   [Vm.result option]: equal results serialise to equal bytes regardless
   of in-heap sharing history (a cache round-trip introduces sharing
   that a fresh run lacks), which is what lets clients and tests assert
   daemon-served ≡ direct-run byte-for-byte. *)
type completion = {
  c_digest : string;
  c_status : Engine.status;
  c_result_bytes : string;
  c_from_cache : bool;
  c_attempts : int;
  c_elapsed : float;  (** server-side seconds, submit-to-finish *)
}

type busy = {
  b_tenant : string;
  b_depth : int;  (** the tenant queue's depth at rejection *)
  b_limit : int;
  b_retry_after : float;  (** server-suggested client backoff, seconds *)
}

type poisoned = {
  p_digest : string;
  p_crashes : int;  (** worker crashes attributed to this digest *)
}

type reply =
  | Welcome of { version : int; banner : string }
  | Refused of string  (** handshake rejection or drain refusal *)
  | Busy of busy
  | Completed of completion
  | Stats_reply of Events.json
  | Pong
  | Poisoned of poisoned
      (** the job's digest crashed worker domains [p_crashes] times and
          is quarantined: the daemon will not run it again. Terminal for
          the job, not the connection — re-submitting is pointless, but
          other jobs on the same connection proceed normally. *)

let encode_result (r : Ifp_vm.Vm.result option) =
  Marshal.to_string r [ Marshal.No_sharing ]

let decode_result s : Ifp_vm.Vm.result option =
  try Marshal.from_string s 0
  with _ -> raise (Protocol_error "undecodable result payload")

(* Every payload leads with a one-byte kind tag ('H'andshake,
   'R'equest, repl'Y') ahead of the [Marshal] bytes. [Marshal] checks
   structure, never type: a CRC-valid frame of the {e wrong} message
   type (a hostile network replaying the client's handshake frame into
   the server's request loop, say) would otherwise deserialise
   "successfully" as type confusion — [Submit of Job.t] reading
   [hs_magic]'s string as a [Job.t] record — and crash the runtime on
   the first field access. The tag pins each frame to the type its
   decoder expects, so a replayed or desynchronised frame becomes a
   clean {!Protocol_error} (connection dropped, client retries) instead
   of undefined behaviour. *)
let tag_handshake = 'H'
let tag_request = 'R'
let tag_reply = 'Y'

let encode ~tag v = String.make 1 tag ^ Marshal.to_string v []

let decode ~tag ~what s =
  if String.length s < 1 then
    raise (Protocol_error (Printf.sprintf "empty %s payload" what))
  else if s.[0] <> tag then
    raise
      (Protocol_error
         (Printf.sprintf "%s payload tagged %C (want %C)" what s.[0] tag))
  else
    try Marshal.from_string s 1
    with _ -> raise (Protocol_error ("undecodable " ^ what))

let encode_handshake (h : handshake) = encode ~tag:tag_handshake h
let encode_request (r : request) = encode ~tag:tag_request r
let encode_reply (r : reply) = encode ~tag:tag_reply r

(* The CRC framing has already vouched for integrity by the time these
   run, so a decode failure means a peer speaking a different dialect,
   or a well-formed frame arriving where a different message type
   belongs (replay/desync — see the tag rationale above) — a protocol
   error, terminal for the connection. *)
let decode_handshake s : handshake = decode ~tag:tag_handshake ~what:"handshake" s
let decode_request s : request = decode ~tag:tag_request ~what:"request" s
let decode_reply s : reply = decode ~tag:tag_reply ~what:"reply" s

let check_handshake (h : handshake) =
  if h.hs_magic <> magic then
    Error (Printf.sprintf "bad magic %S (want %S)" h.hs_magic magic)
  else if h.hs_version <> version then
    Error
      (Printf.sprintf "protocol version %d unsupported (server speaks %d)"
         h.hs_version version)
  else if h.hs_tenant = "" then Error "empty tenant name"
  else Ok ()

let status_string : Engine.status -> string = function
  | Engine.Done -> "done"
  | Engine.Failed why -> "failed: " ^ why
  | Engine.Timed_out -> "timed_out"
  | Engine.Skipped -> "skipped"
