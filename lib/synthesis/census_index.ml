open Reversible

let log_src = Logs.Src.create "qsynth.census_index" ~doc:"Persistent census index"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_lookups = Telemetry.Counter.create "census_index.lookups"
let m_hits = Telemetry.Counter.create "census_index.hits"
let c_bytes = Telemetry.Counter.create "census_index.write.bytes"
let h_witness = Telemetry.Histogram.create "census_index.witness.seconds"
let h_pack = Telemetry.Histogram.create "census_index.pack.seconds"

(* The index is quotient-agnostic: {!build} writes one record per
   census member, sorted by func_key, with the member's canonical witness
   read from {!Fmcf}'s step table, and a quotient census yields exactly
   the same (func_key, witness) pairs as a raw one (the canonical step of
   an image is a function of the image alone), so index files emitted
   with and without [--quotient] are byte-identical — the property the
   CI parity jobs diff.  A complete index records the highest cost
   present as its depth, so a census run past the diameter emits the
   same bytes as one stopped exactly at it.

   On-disk format (QSYNIDX2, little-endian), reusing the QSYNCKP1
   atomic-write + CRC machinery from {!Checkpoint}:

     magic        8 bytes  "QSYNIDX2"
     version      u32      2
     fingerprint  i64      Checkpoint.fingerprint of the library
     symmetry     i64      Symmetry.fingerprint of the library's group
     qubits       u32
     num_binary   u32      nb, the func_key length
     num_gates    u32
     depth        u32      cost horizon: absence proves cost > depth
     count        u32      number of records
     log_len      u32      gate-log length in bytes
     flags        u32      bit 0: complete (count = (nb-1)!)
     coverage     u32      count * 2^qubits — with the Theorem-2 NOT
                           cosets enumerated, the number of members of
                           S_{2^q} this file answers (40320 when full)
     hist_len     u32      depth + 1
     histogram    hist_len * u32, records per cost 0..depth
     records      count * (nb + 1 + 4)
                           func_key (nb bytes, sorted ascending)
                           cost (u8)
                           gate-log offset (u32)
     gate log     log_len bytes, one library gate index per gate;
                           a record's witness is log[offset .. offset+cost)
     crc          u32      CRC-32 of everything above

   The retired QSYNIDX1 format is refused with a typed error naming the
   version: every index rebuilds from a census in seconds.  Records are
   fixed-size and sorted by key, so lookups binary-search the record block
   of the file's heap [Bytes.t] in place: no per-record unpacking or
   allocation happens on the probe path. *)

let magic = "QSYNIDX2"
let magic_v1 = "QSYNIDX1"
let version = 2
let header_bytes = 8 + 4 + 8 + 8 + (9 * 4)
let rec_size nb = nb + 1 + 4
let flag_complete = 1

(* Unsigned little-endian u32 of the serialized file. *)
let get_u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

type t = {
  library : Library.t;
  depth : int;
  nb : int;
  count : int;
  complete : bool;
  histogram : int array; (* records per cost, indices 0..depth *)
  buf : Bytes.t; (* the whole serialized file, CRC included *)
  records_off : int;
  log_off : int;
  log_len : int;
}

let depth t = t.depth
let size t = t.count
let is_complete t = t.complete
(* What one record answers: under coset reduction, a record stands for
   its 2^q Theorem-2 NOT cosets; a full-group universe answers exactly
   its records. *)
let coverage_of library count =
  if Library.coset_reduction library then count lsl Library.qubits library
  else count

let coverage t = coverage_of t.library t.count
let histogram t = Array.copy t.histogram

(* [Some u] — the number of functions a complete index must hold: the
   zero-fixing members (nb-1)! of S_{2^q} under the Theorem-2 coset
   reduction, or the full nb! for a full-group library (NCT, NFT) —
   or [None] when it exceeds the enumeration cap (4+ qubits). *)
let universe library =
  let nb = 1 lsl Library.qubits library in
  let n = if Library.coset_reduction library then nb - 1 else nb in
  let cap = 10_000_000 in
  let rec go acc k =
    if k > n then Some acc else if acc > cap / k then None else go (acc * k) (k + 1)
  in
  go 1 2

(* {1 Building from a census}

   [build] writes [t.buf], the exact serialized file, in two stages, so
   {!save} is a plain write and a freshly built index answers lookups
   from the same bytes a reloaded one would.  The header comes straight
   from the census's level counts.  Stage one ([census_index.witness])
   streams every member from the arena, steps its witness into
   {!Fmcf}'s step table, and writes its record unsorted, with the
   member's image id parked in the gate-log offset field.  Stage two
   ([census_index.pack]) sorts the records by func_key with a stable LSD
   radix sort — func_key bytes are below nb, so nb passes of nb buckets
   — then walks them in key order, writing each witness into its
   gate-log slice from the step table and the slice's offset over the
   id, and CRCs the buffer. *)

(* [sort_records buf ~off ~count ~nb] sorts the [count] records at
   [buf.[off ..]] by their nb-byte keys.  A pass whose byte is the same
   in every record (byte 0 of every zero-fixing key) is skipped. *)
let sort_records buf ~off ~count ~nb =
  let rs = rec_size nb in
  let len = count * rs in
  let tmp = Bytes.create len in
  let start = Array.make (nb + 1) 0 in
  let src = ref buf and soff = ref off and dst = ref tmp and doff = ref 0 in
  for j = nb - 1 downto 0 do
    Array.fill start 0 (nb + 1) 0;
    for i = 0 to count - 1 do
      let b = Bytes.get_uint8 !src (!soff + (i * rs) + j) + 1 in
      start.(b) <- start.(b) + 1
    done;
    if not (Array.exists (fun n -> n = count) start) then begin
      for b = 1 to nb do
        start.(b) <- start.(b) + start.(b - 1)
      done;
      for i = 0 to count - 1 do
        let r = !soff + (i * rs) in
        let b = Bytes.get_uint8 !src (r + j) in
        Bytes.blit !src r !dst (!doff + (start.(b) * rs)) rs;
        start.(b) <- start.(b) + 1
      done;
      let s = !src and so = !soff in
      src := !dst;
      soff := !doff;
      dst := s;
      doff := so
    end
  done;
  if !src != buf then Bytes.blit !src !soff buf off len

let build census =
  let library = Search.library (Fmcf.search census) in
  let nb = Mvl.Encoding.num_binary (Library.encoding library) in
  let counts = Fmcf.counts census in
  let count = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  (* A deep-enough forward census can cover the library's whole universe
     by itself; mark it complete so the planner trusts it. *)
  let complete =
    match universe library with Some u -> count = u | None -> false
  in
  (* A complete index proves nothing beyond its highest cost, so levels a
     census searched past the diameter (all empty) are not recorded. *)
  let depth =
    if complete then
      List.fold_left (fun acc (c, n) -> if n > 0 then max acc c else acc) 0 counts
    else Fmcf.depth census
  in
  let histogram = Array.make (depth + 1) 0 in
  List.iter (fun (c, n) -> if c <= depth then histogram.(c) <- n) counts;
  let log_len = List.fold_left (fun acc (c, n) -> acc + (c * n)) 0 counts in
  let hist_len = depth + 1 in
  let records_off = header_bytes + (4 * hist_len) in
  let log_off = records_off + (count * rec_size nb) in
  let len = log_off + log_len + 4 in
  let buf = Bytes.create len in
  let pos = ref 0 in
  let put_u32 v =
    Bytes.set_int32_le buf !pos (Int32.of_int v);
    pos := !pos + 4
  in
  Bytes.blit_string magic 0 buf 0 8;
  pos := 8;
  put_u32 version;
  Bytes.set_int64_le buf !pos (Checkpoint.fingerprint library);
  pos := !pos + 8;
  Bytes.set_int64_le buf !pos (Symmetry.fingerprint (Symmetry.create library));
  pos := !pos + 8;
  put_u32 (Library.qubits library);
  put_u32 nb;
  put_u32 (Library.size library);
  put_u32 depth;
  put_u32 count;
  put_u32 log_len;
  put_u32 (if complete then flag_complete else 0);
  put_u32 (coverage_of library count);
  put_u32 hist_len;
  Array.iter put_u32 histogram;
  Telemetry.Histogram.time h_witness (fun () ->
      let i = ref 0 in
      Fmcf.iter_member_ids census (fun ~cost ~id img off ->
          if !i >= count then
            invalid_arg "Census_index.build: members disagree with the level counts";
          if id lsr 32 <> 0 then
            invalid_arg "Census_index.build: image id overflows the offset field";
          let base = records_off + (!i * rec_size nb) in
          Bytes.blit img off buf base nb;
          Bytes.set_uint8 buf (base + nb) cost;
          Bytes.set_int32_le buf (base + nb + 1) (Int32.of_int id);
          incr i);
      if !i <> count then
        invalid_arg "Census_index.build: members disagree with the level counts");
  Telemetry.Histogram.time h_pack (fun () ->
      sort_records buf ~off:records_off ~count ~nb;
      let off = ref 0 in
      for i = 0 to count - 1 do
        let base = records_off + (i * rec_size nb) in
        let cost = Bytes.get_uint8 buf (base + nb) in
        Fmcf.write_witness census ~id:(get_u32 buf (base + nb + 1)) ~cost buf
          (log_off + !off);
        Bytes.set_int32_le buf (base + nb + 1) (Int32.of_int !off);
        off := !off + cost
      done;
      Bytes.set_int32_le buf (len - 4)
        (Int32.of_int (Checkpoint.crc32 buf ~off:0 ~len:(len - 4))));
  {
    library;
    depth;
    nb;
    count;
    complete;
    histogram;
    buf;
    records_off;
    log_off;
    log_len;
  }

(* {1 Lookup} *)

(* Compare record [i]'s key with the probe's nb key bytes in place:
   big-endian 64-bit words compared unsigned, which orders them as their
   bytes (one word per step at 3 wires, two at 4), then the bytes past
   the last whole word.  Nothing is allocated. *)
let compare_record t i probe =
  let base = t.records_off + (i * rec_size t.nb) in
  let c = ref 0 and j = ref 0 in
  while !c = 0 && !j + 8 <= t.nb do
    c :=
      Int64.unsigned_compare
        (Bytes.get_int64_be t.buf (base + !j))
        (Bytes.get_int64_be probe !j);
    j := !j + 8
  done;
  while !c = 0 && !j < t.nb do
    c := Int.compare (Bytes.get_uint8 t.buf (base + !j)) (Bytes.get_uint8 probe !j);
    incr j
  done;
  !c

let witness_of_record t i =
  let entries = Library.entries t.library in
  let base = t.records_off + (i * rec_size t.nb) in
  let cost = Bytes.get_uint8 t.buf (base + t.nb) in
  let log = t.log_off + get_u32 t.buf (base + t.nb + 1) in
  let cascade = ref [] in
  for k = cost - 1 downto 0 do
    cascade := entries.(Bytes.get_uint8 t.buf (log + k)).Library.gate :: !cascade
  done;
  (cost, !cascade)

let find t func =
  Telemetry.Counter.incr m_lookups;
  if Revfun.bits func <> Library.qubits t.library then None
  else begin
    let probe = Bytes.create t.nb in
    for j = 0 to t.nb - 1 do
      Bytes.set_uint8 probe j (Revfun.apply func j)
    done;
    let lo = ref 0 and hi = ref (t.count - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = compare_record t mid probe in
      if c = 0 then begin
        found := mid;
        lo := !hi + 1
      end
      else if c < 0 then lo := mid + 1
      else hi := mid - 1
    done;
    if !found < 0 then None
    else begin
      Telemetry.Counter.incr m_hits;
      Some (witness_of_record t !found)
    end
  end

(* {1 Serialization} *)

let save t path =
  Checkpoint.write_atomic path t.buf;
  Telemetry.Counter.add c_bytes (Bytes.length t.buf);
  Log.info (fun m ->
      m "census index: %d functions to cost %d%s, %d bytes -> %s" t.count t.depth
        (if t.complete then " (complete)" else "")
        (Bytes.length t.buf) path)

(* {1 Loading with validation}

   Structural damage raises {!Checkpoint.Corrupt}; a well-formed file
   for a different library or format raises {!Checkpoint.Mismatch} —
   the same contract (and the same CLI error boundary) as snapshots.

   Integrity (CRC + fingerprints + structure + histogram/coverage
   cross-checks) is always verified.  Witness replay through the
   library's multiple-valued semantics — the proof that an emitter
   cannot plant a wrong cost/witness pair — is [Full] on demand and a
   deterministic sample by default, because a full replay of a complete
   index costs O(count·depth) at every daemon start while the CRC
   already rules out accidental damage. *)

type verification = Sample | Full

let corrupt fmt = Printf.ksprintf (fun s -> raise (Checkpoint.Corrupt s)) fmt
let mismatch fmt = Printf.ksprintf (fun s -> raise (Checkpoint.Mismatch s)) fmt

(* Replays record [i]'s witness on the binary image vector alone — the
   census's own state: a gate moves each point independently, and both
   the purity check and the final comparison read only the binary
   block.  [image] is the caller's nb-cell scratch, so replay allocates
   nothing. *)
let validate_witness t ~signatures ~image i =
  let entries = Library.entries t.library in
  let base = t.records_off + (i * rec_size t.nb) in
  let cost = Bytes.get_uint8 t.buf (base + t.nb) in
  let off = get_u32 t.buf (base + t.nb + 1) in
  for j = 0 to t.nb - 1 do
    image.(j) <- j
  done;
  for k = 0 to cost - 1 do
    let e = entries.(Bytes.get_uint8 t.buf (t.log_off + off + k)) in
    let perm = e.Library.perm_array and mask = e.Library.purity_mask in
    for j = 0 to t.nb - 1 do
      let x = image.(j) in
      if signatures.(x) land mask <> 0 then
        corrupt "index witness violates the reasonable-product constraint";
      image.(j) <- perm.(x)
    done
  done;
  for j = 0 to t.nb - 1 do
    if image.(j) <> Bytes.get_uint8 t.buf (base + j) then
      corrupt "index witness does not realize its recorded function"
  done

let of_bytes ~verify library buf path =
  let len = Bytes.length buf in
  if len < 12 then corrupt "truncated census index (%d bytes)" len;
  let file_magic = Bytes.sub_string buf 0 8 in
  if file_magic = magic_v1 then
    corrupt
      "QSYNIDX1 (format version 1) is no longer supported; rebuild the index \
       with qsynth census --emit-index";
  if file_magic <> magic then corrupt "bad magic: not a qsynth census index";
  if len < header_bytes + 4 then corrupt "truncated census index (%d bytes)" len;
  let stored_crc = get_u32 buf (len - 4) in
  let actual_crc = Checkpoint.crc32 buf ~off:0 ~len:(len - 4) in
  if stored_crc <> actual_crc then
    corrupt "CRC mismatch: stored %08x, computed %08x" stored_crc actual_crc;
  let pos = ref 8 in
  let u32 () =
    let v = get_u32 buf !pos in
    pos := !pos + 4;
    v
  in
  let i64 () =
    let v = Bytes.get_int64_le buf !pos in
    pos := !pos + 8;
    v
  in
  let v = u32 () in
  if v <> version then mismatch "format version: file %d, supported %d" v version;
  let lib_name = Library.name library in
  let fp = i64 () in
  let expected_fp = Checkpoint.fingerprint library in
  if not (Int64.equal fp expected_fp) then
    mismatch "library fingerprint: file %Lx, library %s = %Lx" fp lib_name
      expected_fp;
  let sym_fp = i64 () in
  let expected_sym = Symmetry.fingerprint (Symmetry.create library) in
  if not (Int64.equal sym_fp expected_sym) then
    mismatch "symmetry fingerprint: file %Lx, library %s = %Lx" sym_fp lib_name
      expected_sym;
  let qubits = u32 () in
  if qubits <> Library.qubits library then
    mismatch "qubits: file %d, library %s has %d" qubits lib_name
      (Library.qubits library);
  let nb = u32 () in
  let expected_nb = Mvl.Encoding.num_binary (Library.encoding library) in
  if nb <> expected_nb then
    mismatch "num_binary: file %d, library %s has %d" nb lib_name expected_nb;
  let num_gates = u32 () in
  if num_gates <> Library.size library then
    mismatch "num_gates: file %d, library %s has %d" num_gates lib_name
      (Library.size library);
  let idx_depth = u32 () in
  let count = u32 () in
  let log_len = u32 () in
  let flags = u32 () in
  if flags land lnot flag_complete <> 0 then corrupt "unknown flag bits %x" flags;
  let cov = u32 () in
  if cov <> coverage_of library count then
    corrupt "coverage %d does not match count %d for library %s" cov count
      lib_name;
  let hist_len = u32 () in
  if hist_len <> idx_depth + 1 then
    corrupt "histogram length %d does not match depth %d" hist_len idx_depth;
  if len < header_bytes + (4 * hist_len) + 4 then
    corrupt "truncated census index (%d bytes)" len;
  let header_histogram = Array.init hist_len (fun _ -> u32 ()) in
  let complete = flags land flag_complete <> 0 in
  if complete then begin
    match universe library with
    | Some u when u = count -> ()
    | Some u ->
        corrupt "complete flag with %d records, library %s universe %d" count
          lib_name u
    | None -> corrupt "complete flag on an unenumerable universe"
  end;
  let records_off = !pos in
  let log_off = records_off + (count * rec_size nb) in
  let expected_len = log_off + log_len + 4 in
  if len <> expected_len then
    corrupt "census index length %d does not match header (%d expected)" len
      expected_len;
  let histogram = Array.make (idx_depth + 1) 0 in
  let t =
    {
      library;
      depth = idx_depth;
      nb;
      count;
      complete;
      histogram;
      buf;
      records_off;
      log_off;
      log_len;
    }
  in
  (* structural record validation — always on, every record *)
  for i = 0 to count - 1 do
    let base = records_off + (i * rec_size nb) in
    for j = 0 to nb - 1 do
      if Bytes.get_uint8 buf (base + j) >= nb then
        corrupt "record %d: func_key byte outside the binary block" i
    done;
    if i > 0 then begin
      let prev = base - rec_size nb in
      let rec cmp j =
        if j = nb then 0
        else
          let c =
            compare (Bytes.get_uint8 buf (base + j)) (Bytes.get_uint8 buf (prev + j))
          in
          if c <> 0 then c else cmp (j + 1)
      in
      if cmp 0 <= 0 then
        corrupt "records out of order at %d (index not sorted or duplicated)" i
    end;
    let cost = Bytes.get_uint8 buf (base + nb) in
    let off = get_u32 buf (base + nb + 1) in
    if cost > idx_depth then
      corrupt "record %d: cost %d beyond depth %d" i cost idx_depth;
    if off + cost > log_len then corrupt "record %d: witness outside the gate log" i;
    for k = 0 to cost - 1 do
      let g = Bytes.get_uint8 buf (log_off + off + k) in
      if g >= num_gates then corrupt "record %d: gate index %d out of range" i g
    done;
    histogram.(cost) <- histogram.(cost) + 1
  done;
  if header_histogram <> histogram then
    corrupt "header histogram does not match the records";
  (* witness replay: sampled by default, exhaustive on request *)
  let encoding = Library.encoding library in
  let degree = Mvl.Encoding.size encoding in
  let signatures = Array.init degree (Mvl.Encoding.mixed_signature encoding) in
  let step = match verify with Full -> 1 | Sample -> max 1 (count / 64) in
  let image = Array.make nb 0 in
  let verified = ref 0 in
  let i = ref 0 in
  while !i < count do
    validate_witness t ~signatures ~image !i;
    incr verified;
    i := !i + step
  done;
  Log.info (fun m ->
      m "census index loaded: %d functions to cost %d%s from %s (%d/%d witnesses \
         replayed)"
        count idx_depth
        (if complete then ", complete" else "")
        path !verified count);
  t

let load ?(verify = Sample) library path =
  of_bytes ~verify library (Checkpoint.read_file path) path
