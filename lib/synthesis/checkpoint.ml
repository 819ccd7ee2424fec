let log_src = Logs.Src.create "qsynth.checkpoint" ~doc:"BFS snapshot files"

module Log = (val Logs.src_log log_src : Logs.LOG)

let h_write = Telemetry.Histogram.create "search.checkpoint.write.seconds"
let c_bytes = Telemetry.Counter.create "search.checkpoint.bytes"
let c_count = Telemetry.Counter.create "search.checkpoint.count"

exception Corrupt of string
exception Mismatch of string

type header = {
  fingerprint : int64;
  qubits : int;
  degree : int;
  num_binary : int;
  num_gates : int;
  depth : int;
  states : int;
  frontier_len : int;
  symmetry : int64 option;
      (* Some fp: quotient snapshot (format v2) — fp is the
         Symmetry.fingerprint of the group the arena was canonicalized
         under.  None: unquotiented snapshot (format v3). *)
}

let magic = "QSYNCKP1"

(* v2: quotient snapshots — a symmetry-group fingerprint after the
   library fingerprint, and a per-state conjugator byte in the meta.
   v3: unquotiented snapshots (no symmetry section, 11-byte state meta).
   Both describe binary-image states.  v1 (the same layout as v3, but
   over full point permutations) is rejected: its parent chains describe
   states the engine no longer stores. *)
let version_full_point = 1
let version_quotient = 2
let version_image = 3

(* {1 CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)} *)

(* Slicing-by-8: table [k] advances the register over a byte followed by
   [k] zero bytes, so eight input bytes fold in one round of table
   lookups.  Identical values to the classic one-table byte loop, ~4x
   faster — snapshots are tens of MB and the CRC is paid on every save
   and every load. *)
let crc_tables =
  lazy
    (let t = Array.make_matrix 8 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(0).(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(k - 1).(n) in
         t.(k).(n) <- t.(0).(prev land 0xFF) lxor (prev lsr 8)
       done
     done;
     t)

let crc32 bytes ~off ~len =
  let t = Lazy.force crc_tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let lo = Int32.to_int (Bytes.get_int32_le bytes !i) land 0xFFFFFFFF in
    let hi = Int32.to_int (Bytes.get_int32_le bytes (!i + 4)) land 0xFFFFFFFF in
    let x = !c lxor lo in
    c :=
      t7.(x land 0xFF)
      lxor t6.((x lsr 8) land 0xFF)
      lxor t5.((x lsr 16) land 0xFF)
      lxor t4.(x lsr 24)
      lxor t3.(hi land 0xFF)
      lxor t2.((hi lsr 8) land 0xFF)
      lxor t1.((hi lsr 16) land 0xFF)
      lxor t0.(hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := t0.((!c lxor Char.code (Bytes.unsafe_get bytes !i)) land 0xFF) lxor (!c lsr 8);
    i := !i + 1
  done;
  !c lxor 0xFFFFFFFF

(* {1 Library fingerprint (FNV-1a 64)} *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fingerprint library =
  let h = ref fnv_offset in
  let feed_byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xFF))) fnv_prime
  in
  let feed_int v =
    for shift = 0 to 7 do
      feed_byte (v lsr (8 * shift))
    done
  in
  let feed_string s = String.iter (fun c -> feed_byte (Char.code c)) s in
  feed_string "qsynth-library-v1";
  let encoding = Library.encoding library in
  feed_int (Library.qubits library);
  let degree = Mvl.Encoding.size encoding in
  feed_int degree;
  feed_int (Mvl.Encoding.num_binary encoding);
  for p = 0 to degree - 1 do
    feed_int (Mvl.Encoding.mixed_signature encoding p)
  done;
  Array.iter
    (fun (e : Library.entry) ->
      feed_string (Gate.name e.Library.gate);
      feed_int e.Library.purity_mask;
      Array.iter feed_int e.Library.perm_array)
    (Library.entries library);
  !h

(* {1 Captures}

   A capture is a zero-copy snapshot of the store taken at a level
   boundary: the header plus live references to each shard's metadata
   columns (see {!State_arena.shard_columns}).  Only the first [count]
   entries of each column are ever read, and those are immutable for the
   store's lifetime, so a capture can be serialized from another domain
   while the search expands the next level.

   Key bytes are deliberately NOT captured or serialized: a state's key
   is a pure function of its parent chain ([root = identity],
   [child.(j) = perm_array.(parent.(j))], canonicalized when quotiented),
   so {!load} replays the recorded gates instead — the dominant cost of
   checkpointing is bytes CRC-ed, written and fsynced. *)

type capture = {
  header : header;
  shards : (int * int array * int array) array;
      (* count, packed metas, parents — see State_arena.shard_columns *)
}

let capture search =
  let store = Search.store search in
  let library = Search.library search in
  let header =
    {
      fingerprint = fingerprint library;
      qubits = Library.qubits library;
      degree = State_arena.degree store;
      num_binary = Mvl.Encoding.num_binary (Library.encoding library);
      num_gates = Library.size library;
      depth = Search.depth search;
      states = State_arena.size store;
      frontier_len = Array.length (Search.frontier_handles search);
      symmetry = Option.map Symmetry.fingerprint (Search.symmetry search);
    }
  in
  {
    header;
    shards =
      Array.init State_arena.num_shards (State_arena.shard_columns store);
  }

(* {1 Serialization}

   The snapshot size is known exactly up front, so the payload is built
   in a single pre-sized [Bytes.t] with direct little-endian pokes — no
   [Buffer] growth doubling and no payload re-copy for the CRC pass. *)

let header_bytes = 8 + 4 + 8 + (6 * 4) + (2 * 8)
let meta_bytes = 2 + 1 + 8 (* depth u16, via+1 u8, parent+1 u64 *)
let meta_bytes_q = meta_bytes + 1 (* + conjugator u8 *)

let serialized_size c =
  let mb = if c.header.symmetry = None then meta_bytes else meta_bytes_q in
  let n = ref (header_bytes + 4) in
  if c.header.symmetry <> None then n := !n + 8;
  Array.iter (fun (count, _, _) -> n := !n + 4 + (count * mb)) c.shards;
  !n

let serialize c =
  let h = c.header in
  let buf = Bytes.create (serialized_size c) in
  let pos = ref 0 in
  let put_u32 v =
    Bytes.set_int32_le buf !pos (Int32.of_int v);
    pos := !pos + 4
  in
  let put_u64 v =
    Bytes.set_int64_le buf !pos (Int64.of_int v);
    pos := !pos + 8
  in
  Bytes.blit_string magic 0 buf 0 8;
  pos := 8;
  let quotient = h.symmetry <> None in
  put_u32 (if quotient then version_quotient else version_image);
  Bytes.set_int64_le buf !pos h.fingerprint;
  pos := !pos + 8;
  (match h.symmetry with
  | None -> ()
  | Some fp ->
      Bytes.set_int64_le buf !pos fp;
      pos := !pos + 8);
  put_u32 h.qubits;
  put_u32 h.degree;
  put_u32 h.num_binary;
  put_u32 h.num_gates;
  put_u32 h.depth;
  put_u64 h.states;
  put_u64 h.frontier_len;
  put_u32 (Array.length c.shards);
  Array.iter
    (fun (count, metas, parents) ->
      put_u32 count;
      for idx = 0 to count - 1 do
        let m = metas.(idx) in
        Bytes.set_int16_le buf !pos (State_arena.meta_depth m);
        (* via and parent are -1 at the root; bias by one so the stored
           fields are unsigned *)
        Bytes.set_uint8 buf (!pos + 2) (State_arena.meta_via m + 1);
        pos := !pos + 3;
        if quotient then begin
          Bytes.set_uint8 buf !pos (State_arena.meta_conj m);
          incr pos
        end;
        Bytes.set_int64_le buf !pos (Int64.of_int (parents.(idx) + 1));
        pos := !pos + 8
      done)
    c.shards;
  put_u32 (crc32 buf ~off:0 ~len:(Bytes.length buf - 4));
  assert (!pos = Bytes.length buf);
  buf

(* {1 Atomic write} *)

let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Writes and fsyncs [bytes] to [tmp], removing it on error. *)
let write_tmp tmp bytes =
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  try
    let len = Bytes.length bytes in
    let written = ref 0 in
    while !written < len do
      written := !written + Unix.write fd bytes !written (len - !written)
    done;
    Unix.fsync fd;
    Unix.close fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_atomic path bytes =
  write_tmp (path ^ ".tmp") bytes;
  (* The injected "checkpoint" fault models a crash in the window where
     the temp file exists but the rename has not happened: a previous
     snapshot at [path] must still load. *)
  Faultsim.hit "checkpoint";
  Unix.rename (path ^ ".tmp") path;
  fsync_dir path

let record_write ~async (h : header) path bytes seconds =
  Telemetry.Counter.incr c_count;
  Telemetry.Counter.add c_bytes bytes;
  Telemetry.Histogram.observe h_write seconds;
  Log.info (fun m ->
      m "checkpoint%s: level %d, %d states, %d bytes -> %s"
        (if async then " (async)" else "")
        h.depth h.states bytes path)

(* {1 Asynchronous writes}

   Each [save_async] spawns its own writer domain.  Writers serialize
   and fsync a uniquely-named temp file independently — concurrent
   fsyncs batch into shared journal commits instead of paying their
   latency serially, which is what dominates checkpoint-every-1 on the
   fast early levels — and each writer joins its predecessor {e before
   renaming}, so snapshots land at [path] strictly in boundary order and
   an older snapshot can never overwrite a newer one.  The directory
   fsync is deferred to {!drain}/{!save}: one commit at the end covers
   the whole chain (each snapshot's data is durable when its rename
   happens; only the last rename's directory entry needs syncing, since
   a crash before it leaves the previous — complete — snapshot at
   [path]).

   Writers run no telemetry or logging (both are single-threaded by
   design); they return write records that the coordinator logs when it
   joins the chain. *)

type write_record = { w_header : header; w_path : string; w_bytes : int; w_seconds : float }

type pending = { p_path : string; p_dom : write_record list Domain.t }

let pending : pending option ref = ref None
let tmp_seq = ref 0

let run_writer c path tmp prev =
  let t0 = Unix.gettimeofday () in
  let bytes = serialize c in
  write_tmp tmp bytes;
  let seconds = Unix.gettimeofday () -. t0 in
  (* Ordering barrier: re-raises a predecessor's failure (after which
     our tmp file is an orphan the next [save] overwrites — the chain is
     already broken, so no rename happens here either). *)
  let earlier = match prev with None -> [] | Some p -> Domain.join p.p_dom in
  Faultsim.hit "checkpoint";
  Unix.rename tmp path;
  earlier @ [ { w_header = c.header; w_path = path; w_bytes = Bytes.length bytes; w_seconds = seconds } ]

let drain () =
  match !pending with
  | None -> ()
  | Some { p_path; p_dom } ->
      pending := None;
      (* Re-raises any exception a chained writer died with (injected
         fault, I/O error) on the coordinator. *)
      let records = Domain.join p_dom in
      fsync_dir p_path;
      List.iter
        (fun r -> record_write ~async:true r.w_header r.w_path r.w_bytes r.w_seconds)
        records

let save search path =
  drain ();
  Telemetry.Span.with_span "search.checkpoint.write" @@ fun () ->
  let c = capture search in
  let t0 = Unix.gettimeofday () in
  let bytes = serialize c in
  write_atomic path bytes;
  record_write ~async:false c.header path (Bytes.length bytes) (Unix.gettimeofday () -. t0);
  if Telemetry.enabled () then
    Telemetry.Span.set_attr "bytes" (Telemetry.Json.Int (Bytes.length bytes))

let save_async search path =
  let c = capture search in
  let prev = !pending in
  incr tmp_seq;
  let tmp = Printf.sprintf "%s.tmp.%d" path !tmp_seq in
  let dom = Domain.spawn (fun () -> run_writer c path tmp prev) in
  pending := Some { p_path = path; p_dom = dom }

(* {1 Reading} *)

type reader = { buf : Bytes.t; mutable pos : int; limit : int }

let need r n =
  if r.pos + n > r.limit then
    raise (Corrupt (Printf.sprintf "truncated snapshot body at byte %d" r.pos))

let read_u32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let read_u64 r =
  need r 8;
  let v = Bytes.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Corrupt "snapshot field out of range");
  Int64.to_int v

let read_u16 r =
  need r 2;
  let v = Bytes.get_uint16_le r.buf r.pos in
  r.pos <- r.pos + 2;
  v

let read_u8 r =
  need r 1;
  let v = Bytes.get_uint8 r.buf r.pos in
  r.pos <- r.pos + 1;
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      buf)

let checked_reader path =
  let buf = read_file path in
  let len = Bytes.length buf in
  (* magic + version .. frontier_len + num_shards + crc *)
  if len < 8 + 4 + 8 + (6 * 4) + (2 * 8) + 4 then
    raise (Corrupt (Printf.sprintf "file too short to be a snapshot (%d bytes)" len));
  if Bytes.sub_string buf 0 8 <> magic then
    raise (Corrupt "bad magic: not a qsynth snapshot");
  let stored_crc =
    Int32.to_int (Bytes.get_int32_le buf (len - 4)) land 0xFFFFFFFF
  in
  let actual_crc = crc32 buf ~off:0 ~len:(len - 4) in
  if stored_crc <> actual_crc then
    raise
      (Corrupt
         (Printf.sprintf "CRC mismatch (stored %08x, computed %08x): corrupted or \
                          truncated snapshot"
            stored_crc actual_crc));
  { buf; pos = 8; limit = len - 4 }

let read_header r =
  let v = read_u32 r in
  if v = version_full_point then
    raise
      (Mismatch
         "snapshot format version 1 holds full-point states, which this build \
          no longer stores; re-run the census to regenerate it");
  if v <> version_quotient && v <> version_image then
    raise
      (Mismatch
         (Printf.sprintf "snapshot format version %d, this build reads %d and %d" v
            version_quotient version_image));
  need r 8;
  let fingerprint = Bytes.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  let symmetry =
    if v = version_image then None
    else begin
      need r 8;
      let fp = Bytes.get_int64_le r.buf r.pos in
      r.pos <- r.pos + 8;
      Some fp
    end
  in
  let qubits = read_u32 r in
  let degree = read_u32 r in
  let num_binary = read_u32 r in
  let num_gates = read_u32 r in
  let depth = read_u32 r in
  let states = read_u64 r in
  let frontier_len = read_u64 r in
  let num_shards = read_u32 r in
  if num_shards <> State_arena.num_shards then
    raise
      (Mismatch
         (Printf.sprintf "snapshot has %d shards, this build uses %d" num_shards
            State_arena.num_shards));
  { fingerprint; qubits; degree; num_binary; num_gates; depth; states; frontier_len;
    symmetry }

let peek path =
  let r = checked_reader path in
  read_header r

let check_library library (h : header) =
  let fp = fingerprint library in
  let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
  let name = Library.name library in
  if h.qubits <> Library.qubits library then
    fail "snapshot is for a %d-qubit library, this run uses %d qubits (%s)"
      h.qubits (Library.qubits library) name;
  let degree = Mvl.Encoding.num_binary (Library.encoding library) in
  if h.degree <> degree then
    fail "snapshot key length is %d bytes, library %s expects %d" h.degree name
      degree;
  if h.num_gates <> Library.size library then
    fail "snapshot library has %d gates, library %s has %d" h.num_gates name
      (Library.size library);
  if not (Int64.equal h.fingerprint fp) then
    fail
      "snapshot was produced by a different gate library/encoding (fingerprint %Lx, \
       this library is %s = %Lx)"
      h.fingerprint name fp

(* [rebuild_keys] replays the recorded gates to recover every state's
   key bytes: level-0 states get the identity image, and a level-d
   state's key is its parent's key mapped through its [via] gate —
   canonicalized under [sym] for a quotient snapshot — exactly how the
   search computed it.  Parents sit strictly one level up, so filling
   levels in depth order sees every parent key before its children need
   it.  Structural lies in the metadata (bad via, dangling or wrong-level
   parent) are rejected here, and so is a recorded conjugator that
   disagrees with the one canonicalization picks: the conjugators are
   what witness reconstruction conjugates through, so they are never
   silently re-derived.  A key that lands in the wrong shard is caught by
   [State_arena.restore_shard] below. *)
let rebuild_keys sym library ~klen ~max_d ~counts ~depths ~vias ~parents ~conjs =
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let perms =
    Array.map (fun (e : Library.entry) -> e.Library.perm_array) (Library.entries library)
  in
  let num_gates = Array.length perms in
  let num_shards = Array.length counts in
  let keys = Array.init num_shards (fun s -> Bytes.create (counts.(s) * klen)) in
  let raw = Bytes.create klen in
  for d = 0 to max_d do
    for s = 0 to num_shards - 1 do
      let ds = depths.(s) in
      for idx = 0 to counts.(s) - 1 do
        if ds.(idx) = d then begin
          let off = idx * klen in
          if d = 0 then
            for j = 0 to klen - 1 do
              Bytes.set keys.(s) (off + j) (Char.chr j)
            done
          else begin
            let via = vias.(s).(idx) in
            let p = parents.(s).(idx) in
            if via < 0 || via >= num_gates then
              corrupt "state has gate index %d outside the %d-gate library" via num_gates;
            if p < 0 then corrupt "non-root state at level %d has no parent" d;
            let ps = State_arena.shard_of_handle p in
            let pi = State_arena.index_of_handle p in
            if pi >= counts.(ps) then
              corrupt "parent handle %d points past shard %d (%d states)" p ps counts.(ps);
            if depths.(ps).(pi) <> d - 1 then
              corrupt "parent of a level-%d state sits at level %d" d depths.(ps).(pi);
            let pa = perms.(via) in
            let pkeys = keys.(ps) in
            let poff = pi * klen in
            for j = 0 to klen - 1 do
              Bytes.unsafe_set raw j
                (Char.unsafe_chr pa.(Char.code (Bytes.unsafe_get pkeys (poff + j))))
            done;
            let conj =
              match sym with
              | None ->
                  Bytes.blit raw 0 keys.(s) off klen;
                  0
              | Some sym ->
                  Symmetry.canon_into sym ~src:raw ~soff:0 ~dst:keys.(s) ~doff:off
            in
            if conj <> Char.code (Bytes.get conjs.(s) idx) then
              corrupt
                "level-%d state records conjugator %d but its parent chain \
                 canonicalizes with %d"
                d
                (Char.code (Bytes.get conjs.(s) idx))
                conj
          end
        end
      done
    done
  done;
  keys

let load ?(jobs = 1) library path =
  let r = checked_reader path in
  let header = read_header r in
  check_library library header;
  let encoding = Library.encoding library in
  (* The quotient group is rebuilt from the library, never trusted from
     the file: the recorded fingerprint only proves the snapshot was
     canonicalized under the {e same} group. *)
  let symmetry =
    match header.symmetry with
    | None -> None
    | Some fp ->
        let sym = Symmetry.create library in
        if not (Int64.equal (Symmetry.fingerprint sym) fp) then
          raise
            (Mismatch
               (Printf.sprintf
                  "quotient snapshot was canonicalized under a different symmetry \
                   group (fingerprint %Lx, this library's group %Lx)"
                  fp (Symmetry.fingerprint sym)));
        Some sym
  in
  let degree = header.degree in
  let signatures =
    Array.init (Mvl.Encoding.size encoding) (Mvl.Encoding.mixed_signature encoding)
  in
  let num_shards = State_arena.num_shards in
  let counts = Array.make num_shards 0 in
  let depths = Array.make num_shards [||] in
  let vias = Array.make num_shards [||] in
  let parents = Array.make num_shards [||] in
  let conjs = Array.make num_shards Bytes.empty in
  let total = ref 0 and max_d = ref 0 in
  for shard = 0 to num_shards - 1 do
    let count = read_u32 r in
    counts.(shard) <- count;
    let d = Array.make count 0 in
    let v = Array.make count 0 in
    let p = Array.make count 0 in
    let cj = Bytes.make count '\000' in
    for idx = 0 to count - 1 do
      d.(idx) <- read_u16 r;
      if d.(idx) > !max_d then max_d := d.(idx);
      v.(idx) <- read_u8 r - 1;
      if symmetry <> None then Bytes.set cj idx (Char.chr (read_u8 r));
      p.(idx) <- read_u64 r - 1
    done;
    depths.(shard) <- d;
    vias.(shard) <- v;
    parents.(shard) <- p;
    conjs.(shard) <- cj;
    total := !total + count
  done;
  if r.pos <> r.limit then
    raise (Corrupt (Printf.sprintf "%d trailing bytes after the last shard" (r.limit - r.pos)));
  if !total <> header.states then
    raise
      (Corrupt
         (Printf.sprintf "shard counts sum to %d but the header claims %d states" !total
            header.states));
  if !max_d > header.depth then
    raise
      (Corrupt
         (Printf.sprintf "a state at level %d exceeds the header's depth %d" !max_d
            header.depth));
  let keys =
    rebuild_keys symmetry library ~klen:degree ~max_d:!max_d ~counts ~depths ~vias
      ~parents ~conjs
  in
  let store = State_arena.create ~degree ~signatures in
  for shard = 0 to num_shards - 1 do
    try
      State_arena.restore_shard store ~shard ~count:counts.(shard) ~keys:keys.(shard)
        ~depths:depths.(shard) ~vias:vias.(shard) ~parents:parents.(shard)
        ~conjs:conjs.(shard)
    with Invalid_argument msg -> raise (Corrupt msg)
  done;
  let search =
    try Search.of_store ~jobs ?symmetry library ~depth:header.depth store
    with Invalid_argument msg -> raise (Corrupt msg)
  in
  let frontier_len = Array.length (Search.frontier_handles search) in
  if frontier_len <> header.frontier_len then
    raise
      (Corrupt
         (Printf.sprintf "frontier has %d states but the header claims %d" frontier_len
            header.frontier_len));
  Log.info (fun m ->
      m "restored checkpoint %s: level %d, %d states, frontier %d" path header.depth
        header.states frontier_len);
  search
