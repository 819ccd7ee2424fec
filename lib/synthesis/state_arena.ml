let shard_bits = 6
let num_shards = 1 lsl shard_bits

(* One packed int of metadata per state, low to high: the conjugator
   index, the last gate's library index plus one (0 at the root), the
   memoized mixed signature, and the BFS depth in the remaining bits. *)
let conj_bits = 5
let via_bits = 7
let sig_bits = 16
let via_shift = conj_bits
let sig_shift = via_shift + via_bits
let depth_shift = sig_shift + sig_bits
let max_conj = (1 lsl conj_bits) - 1
let max_via = (1 lsl via_bits) - 2
let max_depth_field = max_int lsr depth_shift

let meta_conj m = m land max_conj
let meta_via m = ((m lsr via_shift) land ((1 lsl via_bits) - 1)) - 1
let meta_signature m = (m lsr sig_shift) land ((1 lsl sig_bits) - 1)
let meta_depth m = m lsr depth_shift

let pack ~depth ~via ~conj ~signature =
  if depth < 0 || depth > max_depth_field then invalid_arg "State_arena: depth out of range";
  if via < -1 || via > max_via then invalid_arg "State_arena: via out of range";
  if conj < 0 || conj > max_conj then invalid_arg "State_arena: conjugator out of range";
  (depth lsl depth_shift) lor (signature lsl sig_shift) lor ((via + 1) lsl via_shift) lor conj

(* A table slot is -1 when empty, else [(local_index lsl tag_bits) lor
   tag]: the tag is the top [tag_bits] of the key hash (bits the shard
   and slot position never use), so most non-matching slots are rejected
   without touching the key arena. *)
let tag_bits = 16
let tag_mask = (1 lsl tag_bits) - 1
let tag_of_hash h = h lsr (62 - tag_bits)
let slot_of idx hash = (idx lsl tag_bits) lor tag_of_hash hash

type shard = {
  mutable arena : Bytes.t; (* count * degree key bytes, then slack *)
  mutable metas : int array; (* packed depth | signature | via + 1 | conj *)
  mutable parents : int array;
  mutable count : int;
  mutable table : int array; (* open addressing: -1 empty, else index and tag *)
  mutable mask : int; (* table capacity - 1, a power of two minus one *)
}

type t = {
  degree : int;
  signatures : int array;
  shards : shard array;
}

let initial_slots = 256
let initial_states = 64

let make_shard degree =
  {
    arena = Bytes.create (initial_states * degree);
    metas = Array.make initial_states 0;
    parents = Array.make initial_states 0;
    count = 0;
    table = Array.make initial_slots (-1);
    mask = initial_slots - 1;
  }

let create ~degree ~signatures =
  if Array.exists (fun s -> s < 0 || s lsr sig_bits <> 0) signatures then
    invalid_arg "State_arena.create: a signature does not fit the packed field";
  { degree; signatures; shards = Array.init num_shards (fun _ -> make_shard degree) }

let degree t = t.degree

let size t =
  let n = ref 0 in
  Array.iter (fun s -> n := !n + s.count) t.shards;
  !n

let arena_bytes t =
  let n = ref 0 in
  Array.iter (fun s -> n := !n + Bytes.length s.arena) t.shards;
  !n

let table_capacity t =
  let n = ref 0 in
  Array.iter (fun s -> n := !n + s.mask + 1) t.shards;
  !n

(* A multiplicative byte hash with a final avalanche; keys are short
   image vectors, so quality matters mostly in the low (shard) and
   middle (slot) bits. *)
let hash_key b ~off ~len =
  let h = ref 0 in
  for i = off to off + len - 1 do
    h := (!h * 131) + Char.code (Bytes.unsafe_get b i)
  done;
  let h = !h in
  let h = h lxor (h lsr 23) in
  let h = h * 0x2545F4914F6CDD1 in
  let h = h lxor (h lsr 29) in
  h land max_int

let shard_of_hash h = h land (num_shards - 1)

let shard_columns t s =
  let sh = t.shards.(s) in
  (sh.count, sh.metas, sh.parents)
let shard_of_handle h = h land (num_shards - 1)
let index_of_handle h = h asr shard_bits
let handle ~shard ~index = (index lsl shard_bits) lor shard
let shard_arena t s = t.shards.(s).arena
let key_offset t h = index_of_handle h * t.degree

let key_of t h =
  let s = t.shards.(shard_of_handle h) in
  Bytes.sub_string s.arena (index_of_handle h * t.degree) t.degree

let meta_of t h = t.shards.(shard_of_handle h).metas.(index_of_handle h)
let depth_of t h = meta_depth (meta_of t h)
let via_of t h = meta_via (meta_of t h)
let parent_of t h = t.shards.(shard_of_handle h).parents.(index_of_handle h)
let signature_of t h = meta_signature (meta_of t h)
let conj_of t h = meta_conj (meta_of t h)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Word-at-a-time key comparison with a byte tail; no closure, no
   allocation (the int64 loads stay unboxed). *)
let key_equal a aoff b boff len =
  let i = ref 0 in
  while !i + 8 <= len && get64u a (aoff + !i) = get64u b (boff + !i) do
    i := !i + 8
  done;
  if !i + 8 <= len then false
  else begin
    while !i < len && Bytes.unsafe_get a (aoff + !i) = Bytes.unsafe_get b (boff + !i) do
      incr i
    done;
    !i = len
  end

(* Finds the slot holding an equal key, or the first empty slot; the
   caller inspects [table.(slot)] to tell the two apart.  Terminates
   because the load factor is kept under 3/4. *)
let probe t sh key ~off ~hash =
  let degree = t.degree in
  let mask = sh.mask and table = sh.table and arena = sh.arena in
  let tag = tag_of_hash hash in
  let i = ref ((hash lsr shard_bits) land mask) in
  let looking = ref true in
  while !looking do
    let slot = Array.unsafe_get table !i in
    if slot < 0 then looking := false
    else if
      slot land tag_mask = tag
      && key_equal arena ((slot lsr tag_bits) * degree) key off degree
    then looking := false
    else i := (!i + 1) land mask
  done;
  !i

let find t key ~off ~hash =
  let s = shard_of_hash hash in
  let sh = t.shards.(s) in
  let slot = sh.table.(probe t sh key ~off ~hash) in
  if slot < 0 then -1 else handle ~shard:s ~index:(slot lsr tag_bits)

let grow_states t sh =
  Faultsim.hit "grow";
  let cap = Array.length sh.metas in
  let cap' = 2 * cap in
  let extend a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  sh.metas <- extend sh.metas;
  sh.parents <- extend sh.parents;
  let arena' = Bytes.create (cap' * t.degree) in
  Bytes.blit sh.arena 0 arena' 0 (sh.count * t.degree);
  sh.arena <- arena'

(* [place t sh idx] files state [idx] in the first empty slot of its
   probe sequence, recomputing its hash from the key bytes: the hash is
   a pure function of the key, so no column keeps it.  [idx] must not
   already be in the table. *)
let place t sh idx =
  let hash = hash_key sh.arena ~off:(idx * t.degree) ~len:t.degree in
  let i = ref ((hash lsr shard_bits) land sh.mask) in
  while sh.table.(!i) >= 0 do
    i := (!i + 1) land sh.mask
  done;
  sh.table.(!i) <- slot_of idx hash

let grow_table t sh =
  let slots = 2 * (sh.mask + 1) in
  sh.table <- Array.make slots (-1);
  sh.mask <- slots - 1;
  for idx = 0 to sh.count - 1 do
    place t sh idx
  done

let shard_count t s = t.shards.(s).count
let shard_counts t = Array.map (fun sh -> sh.count) t.shards

(* [truncate t counts] rolls every shard back to the state count it had
   when [counts] was captured (by {!shard_counts}): the level-abandon
   path of cooperative cancellation.  Metadata beyond the count is dead
   by construction; the open-addressing table is rebuilt over the kept
   entries (same capacity — the load factor only shrinks). *)
let truncate t counts =
  Array.iteri
    (fun s target ->
      let sh = t.shards.(s) in
      if target > sh.count then
        invalid_arg "State_arena.truncate: counts exceed current shard sizes";
      if target < sh.count then begin
        sh.count <- target;
        Array.fill sh.table 0 (sh.mask + 1) (-1);
        for idx = 0 to target - 1 do
          place t sh idx
        done
      end)
    counts

(* [handles_at_depth t d] lists the states of BFS depth [d] in (shard,
   local index) order — exactly the canonical frontier order produced by
   the engine's shard-ordered merge, so a frontier reconstructed from a
   restored arena is byte-identical to the one the live engine held. *)
let handles_at_depth t d =
  let n = ref 0 in
  Array.iter
    (fun sh ->
      for idx = 0 to sh.count - 1 do
        if meta_depth sh.metas.(idx) = d then incr n
      done)
    t.shards;
  let out = Array.make !n 0 in
  let pos = ref 0 in
  Array.iteri
    (fun s sh ->
      for idx = 0 to sh.count - 1 do
        if meta_depth sh.metas.(idx) = d then begin
          out.(!pos) <- handle ~shard:s ~index:idx;
          incr pos
        end
      done)
    t.shards;
  out

let max_depth t =
  let d = ref (-1) in
  Array.iter
    (fun sh ->
      for idx = 0 to sh.count - 1 do
        d := max !d (meta_depth sh.metas.(idx))
      done)
    t.shards;
  !d

let key_signature t key ~off =
  let sg = ref 0 in
  for i = off to off + t.degree - 1 do
    sg := !sg lor t.signatures.(Char.code (Bytes.unsafe_get key i))
  done;
  !sg

(* [restore_shard] rebuilds one shard from serialized columns.  Hashes,
   signatures and the probe table are {e recomputed} from the key bytes —
   they are pure functions of the keys, so a snapshot only carries keys,
   depths, vias and parents, and a restored store is bit-for-bit the
   store the engine would have built (capacities aside, which are not
   observable).  Every key is re-validated to hash into this shard; a
   corrupted key almost surely fails that check even before the CRC. *)
let restore_shard t ~shard ~count ~keys ~depths ~vias ~parents ~conjs =
  let sh = t.shards.(shard) in
  if sh.count <> 0 then invalid_arg "State_arena.restore_shard: shard not empty";
  if count < 0 then invalid_arg "State_arena.restore_shard: negative count";
  if Bytes.length keys <> count * t.degree then
    invalid_arg "State_arena.restore_shard: key bytes do not match count";
  if
    Array.length depths <> count
    || Array.length vias <> count
    || Array.length parents <> count
    || Bytes.length conjs <> count
  then invalid_arg "State_arena.restore_shard: column lengths do not match count";
  let cap = ref (Array.length sh.metas) in
  while !cap < count do
    cap := 2 * !cap
  done;
  if !cap > Array.length sh.metas then begin
    sh.metas <- Array.make !cap 0;
    sh.parents <- Array.make !cap 0;
    sh.arena <- Bytes.create (!cap * t.degree)
  end;
  (* keep the load factor under 3/4, as try_insert does *)
  let slots = ref (sh.mask + 1) in
  while 4 * count > 3 * !slots do
    slots := 2 * !slots
  done;
  if !slots > sh.mask + 1 then begin
    sh.table <- Array.make !slots (-1);
    sh.mask <- !slots - 1
  end;
  Bytes.blit keys 0 sh.arena 0 (count * t.degree);
  Array.blit parents 0 sh.parents 0 count;
  for idx = 0 to count - 1 do
    let off = idx * t.degree in
    for i = off to off + t.degree - 1 do
      if Char.code (Bytes.get keys i) >= Array.length t.signatures then
        invalid_arg "State_arena.restore_shard: key byte outside the encoding"
    done;
    let hash = hash_key keys ~off ~len:t.degree in
    if shard_of_hash hash <> shard then
      invalid_arg "State_arena.restore_shard: key does not belong to this shard";
    let slot = probe t sh keys ~off ~hash in
    if sh.table.(slot) >= 0 then invalid_arg "State_arena.restore_shard: duplicate key";
    sh.metas.(idx) <-
      pack ~depth:depths.(idx) ~via:vias.(idx) ~conj:(Char.code (Bytes.get conjs idx))
        ~signature:(key_signature t keys ~off);
    sh.table.(slot) <- slot_of idx hash
  done;
  sh.count <- count

let try_insert t ~key ~off ~hash ~depth ~via ~conj ~parent =
  let s = shard_of_hash hash in
  let sh = t.shards.(s) in
  let slot = probe t sh key ~off ~hash in
  if sh.table.(slot) >= 0 then -1
  else begin
    let idx = sh.count in
    let meta = pack ~depth ~via ~conj ~signature:(key_signature t key ~off) in
    if idx = Array.length sh.metas then grow_states t sh;
    Bytes.blit key off sh.arena (idx * t.degree) t.degree;
    sh.metas.(idx) <- meta;
    sh.parents.(idx) <- parent;
    sh.table.(slot) <- slot_of idx hash;
    sh.count <- idx + 1;
    (* keep the load factor under 3/4 *)
    if 4 * sh.count > 3 * (sh.mask + 1) then grow_table t sh;
    handle ~shard:s ~index:idx
  end
