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
  num_gates : int;
  depth : int;
  states : int;
  frontier_len : int;
  symmetry : int64 option;
      (* Some fp: quotient snapshot — fp is the Symmetry.fingerprint of
         the group the arena was canonicalized under. *)
}

let magic = "QSYNCKP1"

(* v4 stores each state's key bytes and each shard's level sizes.
   Versions 1 to 3 stored parent chains (v1 over full point
   permutations, v2 quotiented with conjugators, v3 over images), which
   this build no longer reads. *)
let version = 4

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

(* [crc_update c bytes ~off ~len] advances the (pre-inverted) register
   [c] over the given byte range, so a CRC can run across a file written
   in pieces. *)
let crc_update c bytes ~off ~len =
  let t = Lazy.force crc_tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref c in
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
  !c

let crc32 bytes ~off ~len = crc_update 0xFFFFFFFF bytes ~off ~len lxor 0xFFFFFFFF

(* {1 Library fingerprint (FNV-1a 64)} *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* The fields are gathered into a buffer and hashed in one loop, where
   the 64-bit register stays unboxed.  Every save computes the
   fingerprint; hashing byte by byte through closures boxed two [Int64]s
   a byte, 1.3 MB at four wires. *)
let fingerprint library =
  let b = Buffer.create 4096 in
  let feed_int v =
    for shift = 0 to 7 do
      Buffer.add_char b (Char.unsafe_chr ((v lsr (8 * shift)) land 0xFF))
    done
  in
  Buffer.add_string b "qsynth-library-v1";
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
      Buffer.add_string b (Gate.name e.Library.gate);
      feed_int e.Library.purity_mask;
      Array.iter feed_int e.Library.perm_array)
    (Library.entries library);
  let h = ref fnv_offset in
  for i = 0 to Buffer.length b - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Buffer.nth b i)))) fnv_prime
  done;
  !h

(* {1 Atomic write} *)

let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* [atomically path write] runs [write] on [path ^ ".tmp"], fsyncs it
   and renames it over [path], then fsyncs the directory.  On an error
   before the rename the temp file is removed. *)
let atomically path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  (try
     write oc;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* The injected "checkpoint" fault models a crash in the window where
     the temp file exists but the rename has not happened: a previous
     file at [path] must still load. *)
  Faultsim.hit "checkpoint";
  Unix.rename tmp path;
  fsync_dir path

let write_atomic path bytes = atomically path (fun oc -> output_bytes oc bytes)

(* {1 Streamed snapshots}

   Layout (little-endian): magic 8 | version u32 | library fp u64 |
   symmetry fp u64 (0 when unquotiented) | quotient u32 | qubits, key
   length, gates, depth u32 | states, frontier u64 | shards u32 | per
   shard: depth + 1 level sizes u32, then its keys in index order | crc
   u32.  The keys are written straight from each shard's key arena, so
   a save holds no buffer the size of the snapshot. *)

let header_bytes = 8 + 4 + 8 + 4 + 8 + (4 * 4) + (2 * 8) + 4

(* A bounded level holds only the states within its bound, which no
   deeper search could extend alike, so a snapshot stops at the deepest
   whole level: it holds whole levels only, and resuming it re-runs
   the bounded ones. *)
let header_of search =
  let library = Search.library search in
  let depth = Search.whole_depth search in
  let states = ref 0 in
  for d = 0 to depth do
    states := !states + Search.level_size search d
  done;
  {
    fingerprint = fingerprint library;
    qubits = Library.qubits library;
    degree = State_arena.degree (Search.store search);
    num_gates = Library.size library;
    depth;
    states = !states;
    frontier_len = Search.level_size search depth;
    symmetry = Option.map Symmetry.fingerprint (Search.symmetry search);
  }

(* The path and header of the last snapshot this process wrote.  The
   whole-level rule makes a census's saves after its deepest whole
   level repeat that level's snapshot, which is then not written
   again. *)
let last_written = ref None

let save search path =
  let h = header_of search in
  if !last_written <> Some (path, h) then begin
    Telemetry.Span.with_span "search.checkpoint.write" @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let store = Search.store search in
    let scratch = Bytes.create (max header_bytes (4 * (h.depth + 1))) in
    let crc = ref 0xFFFFFFFF and written = ref 0 in
    atomically path (fun oc ->
        let put buf len =
          crc := crc_update !crc buf ~off:0 ~len;
          output oc buf 0 len;
          written := !written + len
        in
        let pos = ref 0 in
        let put_u32 v =
          Bytes.set_int32_le scratch !pos (Int32.of_int v);
          pos := !pos + 4
        in
        let put_u64 v =
          Bytes.set_int64_le scratch !pos v;
          pos := !pos + 8
        in
        Bytes.blit_string magic 0 scratch 0 8;
        pos := 8;
        put_u32 version;
        put_u64 h.fingerprint;
        put_u64 (Option.value ~default:0L h.symmetry);
        put_u32 (if h.symmetry = None then 0 else 1);
        put_u32 h.qubits;
        put_u32 h.degree;
        put_u32 h.num_gates;
        put_u32 h.depth;
        put_u64 (Int64.of_int h.states);
        put_u64 (Int64.of_int h.frontier_len);
        put_u32 State_arena.num_shards;
        put scratch header_bytes;
        for s = 0 to State_arena.num_shards - 1 do
          pos := 0;
          let count = ref 0 in
          for d = 0 to h.depth do
            let size =
              State_arena.level_end store ~depth:d s - State_arena.level_start store ~depth:d s
            in
            put_u32 size;
            count := !count + size
          done;
          put scratch !pos;
          put (State_arena.shard_arena store s) (!count * h.degree)
        done;
        Bytes.set_int32_le scratch 0 (Int32.of_int (!crc lxor 0xFFFFFFFF));
        output oc scratch 0 4;
        written := !written + 4);
    last_written := Some (path, h);
    Telemetry.Counter.incr c_count;
    Telemetry.Counter.add c_bytes !written;
    Telemetry.Histogram.observe h_write (Unix.gettimeofday () -. t0);
    Log.info (fun m ->
        m "checkpoint: level %d, %d states, %d bytes -> %s" h.depth h.states !written path);
    if Telemetry.enabled () then Telemetry.Span.set_attr "bytes" (Telemetry.Json.Int !written)
  end

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
  if len < header_bytes + 4 then
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
  if v <> version then
    raise
      (Mismatch
         (Printf.sprintf
            "snapshot format version %d, this build reads version %d only; re-run the \
             census to regenerate it"
            v version));
  need r 8;
  let fingerprint = Bytes.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  need r 8;
  let sym_fp = Bytes.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  let quotient = read_u32 r in
  let symmetry =
    match quotient with
    | 0 -> None
    | 1 -> Some sym_fp
    | q -> raise (Corrupt (Printf.sprintf "quotient flag %d is neither 0 nor 1" q))
  in
  let qubits = read_u32 r in
  let degree = read_u32 r in
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
  { fingerprint; qubits; degree; num_gates; depth; states; frontier_len; symmetry }

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

let load ?(jobs = 1) library path =
  let r = checked_reader path in
  let header = read_header r in
  check_library library header;
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
  let num_shards = State_arena.num_shards in
  let level_sizes = Array.make num_shards [||] in
  let keys = Array.make num_shards Bytes.empty in
  let total = ref 0 in
  need r (num_shards * (header.depth + 1) * 4);
  for shard = 0 to num_shards - 1 do
    let sizes = Array.init (header.depth + 1) (fun _ -> read_u32 r) in
    let count = Array.fold_left ( + ) 0 sizes in
    need r (count * degree);
    keys.(shard) <- Bytes.sub r.buf r.pos (count * degree);
    r.pos <- r.pos + (count * degree);
    level_sizes.(shard) <- sizes;
    total := !total + count
  done;
  if r.pos <> r.limit then
    raise (Corrupt (Printf.sprintf "%d trailing bytes after the last shard" (r.limit - r.pos)));
  if !total <> header.states then
    raise
      (Corrupt
         (Printf.sprintf "shard counts sum to %d but the header claims %d states" !total
            header.states));
  let search =
    try Search.of_store ~jobs ?symmetry library (State_arena.restore ~degree ~keys ~level_sizes)
    with Invalid_argument msg -> raise (Corrupt msg)
  in
  let frontier_len = Search.frontier_size search in
  if frontier_len <> header.frontier_len then
    raise
      (Corrupt
         (Printf.sprintf "frontier has %d states but the header claims %d" frontier_len
            header.frontier_len));
  Log.info (fun m ->
      m "restored checkpoint %s: level %d, %d states, frontier %d" path header.depth
        header.states frontier_len);
  search
