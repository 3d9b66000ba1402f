(* Layer microbenchmarks for the traced run: the promote path per
   metadata scheme, allocator malloc/free pairs, the D-cache model, the
   VM's fixed per-run cost, the campaign digest and result cache, and the
   service codec. The promote fixtures, and the struct type the
   allocators serve, are those of the Bechamel harness in bench/main.ml,
   timed here with a plain clock so that the benchmark needs no extra
   dependency. Each figure is the median of several timed batches. *)

open Core
module Job = Ifp_campaign.Job
module Protocol = Ifp_service.Protocol

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* median over 5 batches of the seconds per call of [f] *)
let per_call ~iters f =
  median
    (List.init 5 (fun _ ->
         let t0 = Unix.gettimeofday () in
         for _ = 1 to iters do
           ignore (Sys.opaque_identity (f ()))
         done;
         (Unix.gettimeofday () -. t0) /. float iters))

(* ---- metadata: promote per scheme --------------------------------- *)

let tenv_s =
  let t =
    Ctype.declare Ctype.empty_tenv
      {
        Ctype.sname = "NestedTy";
        fields =
          [ { fname = "v3"; fty = Ctype.I32 }; { fname = "v4"; fty = Ctype.I32 } ];
      }
  in
  Ctype.declare t
    {
      Ctype.sname = "S";
      fields =
        [
          { fname = "v1"; fty = Ctype.I32 };
          { fname = "array"; fty = Ctype.Array (Ctype.Struct "NestedTy", 2) };
          { fname = "v5"; fty = Ctype.I32 };
        ];
    }

let fresh_meta () =
  let mem = Memory.create () in
  Memory.map mem ~base:Memmap.layout_region_base ~size:Memmap.layout_region_size;
  Memory.map mem ~base:Memmap.global_table_base
    ~size:(Memmap.global_table_entries * 16);
  let meta =
    Meta.create ~memory:mem ~mac_key:0xFEEDL
      ~layout_region:(Memmap.layout_region_base, Memmap.layout_region_size)
      ~global_table:(Memmap.global_table_base, Memmap.global_table_entries)
      ()
  in
  (mem, meta)

let promote_ns () =
  let mem, meta = fresh_meta () in
  Memory.map mem ~base:0x10000L ~size:(1 lsl 20);
  let lt = Meta.intern_layout meta tenv_s (Ctype.Struct "S") in
  let p_local =
    Meta.Local_offset.register meta ~base:0x10000L ~size:24 ~layout_ptr:lt
  in
  Meta.Subheap.set_creg meta 0
    (Some { Meta.Subheap.block_size_log2 = 12; metadata_offset = 0L });
  Meta.Subheap.write_block_metadata meta ~creg:0 ~block_base:0x20000L
    ~slot_start:32 ~slot_end:4064 ~slot_size:32 ~obj_size:24 ~layout_ptr:lt;
  let p_subheap = Meta.Subheap.tag_pointer ~creg:0 ~addr:0x20040L in
  let p_global =
    Option.get
      (Meta.Global_table.register meta ~base:0x30000L ~size:4096 ~layout_ptr:0L)
  in
  List.map
    (fun (name, p) ->
      (name, 1e9 *. per_call ~iters:100_000 (fun () -> Promote.run meta p)))
    [
      ("local_offset", p_local);
      ("subheap", p_subheap);
      ("global_table", p_global);
      ("legacy", 0x4000L);
    ]

(* ---- allocators: one malloc + free pair, in batches of 64 live ------ *)

let malloc_free_ns () =
  let heap_size = 1 lsl Memmap.heap_size_log2 in
  let make = function
    | "baseline" ->
      Baseline_alloc.create ~memory:(Memory.create ()) ~base:Memmap.heap_base
        ~size:heap_size
    | "wrapped" ->
      let mem, meta = fresh_meta () in
      Wrapped_alloc.create ~meta ~tenv:tenv_s
        ~base_alloc:
          (Baseline_alloc.create ~memory:mem ~base:Memmap.heap_base
             ~size:heap_size)
    | _ ->
      let mem, meta = fresh_meta () in
      Subheap_alloc.create ~meta ~tenv:tenv_s ~memory:mem ~base:Memmap.heap_base
        ~size_log2:Memmap.heap_size_log2
  in
  List.map
    (fun name ->
      let a = make name in
      let live = Array.make 64 0L in
      let batch () =
        for i = 0 to 63 do
          live.(i) <- fst (a.Alloc.malloc ~size:24 ~cty:(Some (Ctype.Struct "S")))
        done;
        for i = 63 downto 0 do
          ignore (a.Alloc.free live.(i))
        done
      in
      (name, 1e9 *. per_call ~iters:500 batch /. 64.0))
    [ "baseline"; "wrapped"; "subheap" ]

(* ---- D-cache model: random lines over twice the cache size --------- *)

let cache_access_ns () =
  let c = Cache.create () in
  let rng = Prng.create 7L in
  let addrs =
    Array.init 4096 (fun _ -> Int64.of_int (0x100000 + Prng.int rng (64 * 1024)))
  in
  let i = ref 0 in
  1e9
  *. per_call ~iters:1_000_000 (fun () ->
         i := (!i + 1) land 4095;
         Cache.access c addrs.(!i) Cache.Load)

(* ---- VM fixed cost: Engines.run on a minimal main ------------------ *)

let minimal_prog =
  Ir.program ~tenv:Ctype.empty_tenv ~globals:[]
    [ Ir.func "main" [] Ctype.I64 [ Ir.Return (Some (Ir.i 0)) ] ]

let fixed_ms configs =
  List.map
    (fun (name, config) ->
      (name, 1e3 *. per_call ~iters:20 (fun () -> Engines.run ~config minimal_prog)))
    configs

(* ---- campaign digest + result cache, service codec ----------------- *)

type codec = {
  digest_ms : float;
  cache_find_ms : float;
  cache_store_ms : float;
  encode_request_us : float;
  decode_reply_us : float;
  request_kb : float;
  reply_kb : float;
}

(* Every figure is a mean per job over the service job mix. [dir] is a
   scratch directory for the result cache. *)
let codec ~dir =
  let jobs = Array.map snd (Lazy.force Jobmix.base) in
  let n = float (Array.length jobs) in
  let results = Array.map Ifp_campaign.Engine.default_runner jobs in
  let digests = Array.map Job.digest jobs in
  let requests = Array.map (fun j -> Protocol.encode_request (Protocol.Submit j)) jobs in
  let replies =
    Array.mapi
      (fun i r ->
        Protocol.encode_reply
          (Protocol.Completed
             {
               Protocol.c_digest = digests.(i);
               c_status = Ifp_campaign.Engine.Done;
               c_result_bytes = Protocol.encode_result (Some r);
               c_from_cache = false;
               c_attempts = 1;
               c_elapsed = 0.0;
             }))
      results
  in
  let over_mix ?(passes = 20) f =
    per_call ~iters:passes (fun () -> Array.iteri f jobs) /. n
  in
  let cache = Ifp_campaign.Cache.create ~dir () in
  let cache_store_ms =
    1e3
    *. over_mix ~passes:3 (fun i _ ->
           Ifp_campaign.Cache.store cache ~digest:digests.(i) ~job_name:"bench"
             results.(i))
  in
  let kb strs =
    Array.fold_left (fun a s -> a + String.length s) 0 strs |> float
    |> fun b -> b /. 1024.0 /. n
  in
  {
    digest_ms = 1e3 *. over_mix (fun _ j -> ignore (Job.digest j));
    cache_store_ms;
    cache_find_ms =
      1e3
      *. over_mix ~passes:5 (fun i _ ->
             ignore (Ifp_campaign.Cache.find cache ~digest:digests.(i)));
    encode_request_us =
      1e6
      *. over_mix (fun _ j -> ignore (Protocol.encode_request (Protocol.Submit j)));
    decode_reply_us =
      1e6 *. over_mix (fun i _ -> ignore (Protocol.decode_reply replies.(i)));
    request_kb = kb requests;
    reply_kb = kb replies;
  }
