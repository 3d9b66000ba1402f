(** Set-associative L1 data-cache model (tag-only, LRU, write-allocate).

    Only hit/miss behaviour is modelled — data always comes from
    {!Memory}. The default geometry matches the CVA6 core used by the
    paper's prototype: 32 KiB, 8-way, 64-byte lines. *)

type access = Load | Store

type t = {
  ways : int;
  sets : int;
  set_mask : int;  (** [sets - 1]; sets is a power of two *)
  line_shift : int;
  tags : int array;  (** [sets * ways], -1 = invalid *)
  lru : int array;  (** [sets * ways]: higher = more recently used *)
  mutable clock : int;
  mutable n_accesses : int;
  mutable n_misses : int;
}
(** The representation is concrete so the closure-compiled VM engine can
    stage the line probe inline at its access sites; geometry fields and
    the array identities are fixed after {!create}, so capturing them at
    staging time is sound. Outside that use, treat [t] as abstract. *)

val create : ?size_bytes:int -> ?ways:int -> ?line_bytes:int -> unit -> t

val access : t -> int64 -> access -> bool
(** [access t addr kind] touches the line containing [addr]; returns
    [true] on a hit. A miss fills the line (evicting LRU). *)

val access_range : t -> int64 -> bytes:int -> access -> int
(** Touch every line overlapped by [\[addr, addr+bytes)]; returns the
    number of misses. An empty range ([bytes <= 0]) touches nothing and
    returns 0. *)

val accesses : t -> int
val misses : t -> int
val flush : t -> unit
(** Invalidate all lines and reset statistics. *)
