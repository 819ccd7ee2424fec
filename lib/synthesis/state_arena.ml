let shard_bits = 6
let num_shards = 1 lsl shard_bits

type shard = {
  mutable arena : Bytes.t; (* count * degree key bytes, then slack *)
  mutable depths : int array;
  mutable vias : int array;
  mutable parents : int array;
  mutable sigs : int array;
  mutable hashes : int array;
  mutable conjs : Bytes.t; (* one conjugator index per state; 0 outside quotient mode *)
  mutable count : int;
  mutable table : int array; (* open addressing: -1 empty, else local index *)
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
    depths = Array.make initial_states 0;
    vias = Array.make initial_states 0;
    parents = Array.make initial_states 0;
    sigs = Array.make initial_states 0;
    hashes = Array.make initial_states 0;
    conjs = Bytes.make initial_states '\000';
    count = 0;
    table = Array.make initial_slots (-1);
    mask = initial_slots - 1;
  }

let create ~degree ~signatures =
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
  (sh.count, sh.arena, sh.depths, sh.vias, sh.parents, sh.conjs)
let shard_of_handle h = h land (num_shards - 1)
let index_of_handle h = h asr shard_bits
let handle ~shard ~index = (index lsl shard_bits) lor shard
let shard_arena t s = t.shards.(s).arena
let key_offset t h = index_of_handle h * t.degree

let key_of t h =
  let s = t.shards.(shard_of_handle h) in
  Bytes.sub_string s.arena (index_of_handle h * t.degree) t.degree

let depth_of t h = t.shards.(shard_of_handle h).depths.(index_of_handle h)
let via_of t h = t.shards.(shard_of_handle h).vias.(index_of_handle h)
let parent_of t h = t.shards.(shard_of_handle h).parents.(index_of_handle h)
let signature_of t h = t.shards.(shard_of_handle h).sigs.(index_of_handle h)

let conj_of t h =
  Char.code (Bytes.get t.shards.(shard_of_handle h).conjs (index_of_handle h))

let key_equal arena aoff key koff degree =
  let rec go i =
    i >= degree
    || Char.equal (Bytes.unsafe_get arena (aoff + i)) (Bytes.unsafe_get key (koff + i))
       && go (i + 1)
  in
  go 0

(* Finds the slot holding an equal key, or the first empty slot; the
   caller inspects [table.(slot)] to tell the two apart.  Terminates
   because the load factor is kept under 3/4. *)
let probe t sh key ~off ~hash =
  let degree = t.degree in
  let mask = sh.mask in
  let i = ref ((hash lsr shard_bits) land mask) in
  let looking = ref true in
  while !looking do
    let idx = sh.table.(!i) in
    if idx < 0 then looking := false
    else if sh.hashes.(idx) = hash && key_equal sh.arena (idx * degree) key off degree
    then looking := false
    else i := (!i + 1) land mask
  done;
  !i

let find t key ~off ~hash =
  let s = shard_of_hash hash in
  let sh = t.shards.(s) in
  let idx = sh.table.(probe t sh key ~off ~hash) in
  if idx < 0 then -1 else handle ~shard:s ~index:idx

let grow_states t sh =
  Faultsim.hit "grow";
  let cap = Array.length sh.depths in
  let cap' = 2 * cap in
  let extend a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  sh.depths <- extend sh.depths;
  sh.vias <- extend sh.vias;
  sh.parents <- extend sh.parents;
  sh.sigs <- extend sh.sigs;
  sh.hashes <- extend sh.hashes;
  let conjs' = Bytes.make cap' '\000' in
  Bytes.blit sh.conjs 0 conjs' 0 sh.count;
  sh.conjs <- conjs';
  let arena' = Bytes.create (cap' * t.degree) in
  Bytes.blit sh.arena 0 arena' 0 (sh.count * t.degree);
  sh.arena <- arena'

let grow_table sh =
  let mask' = (2 * (sh.mask + 1)) - 1 in
  let table' = Array.make (mask' + 1) (-1) in
  for idx = 0 to sh.count - 1 do
    let i = ref ((sh.hashes.(idx) lsr shard_bits) land mask') in
    while table'.(!i) >= 0 do
      i := (!i + 1) land mask'
    done;
    table'.(!i) <- idx
  done;
  sh.table <- table';
  sh.mask <- mask'

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
          let i = ref ((sh.hashes.(idx) lsr shard_bits) land sh.mask) in
          while sh.table.(!i) >= 0 do
            i := (!i + 1) land sh.mask
          done;
          sh.table.(!i) <- idx
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
        if sh.depths.(idx) = d then incr n
      done)
    t.shards;
  let out = Array.make !n 0 in
  let pos = ref 0 in
  Array.iteri
    (fun s sh ->
      for idx = 0 to sh.count - 1 do
        if sh.depths.(idx) = d then begin
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
        if sh.depths.(idx) > !d then d := sh.depths.(idx)
      done)
    t.shards;
  !d

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
  let cap = ref (Array.length sh.depths) in
  while !cap < count do
    cap := 2 * !cap
  done;
  if !cap > Array.length sh.depths then begin
    let cap' = !cap in
    sh.depths <- Array.make cap' 0;
    sh.vias <- Array.make cap' 0;
    sh.parents <- Array.make cap' 0;
    sh.sigs <- Array.make cap' 0;
    sh.hashes <- Array.make cap' 0;
    sh.conjs <- Bytes.make cap' '\000';
    sh.arena <- Bytes.create (cap' * t.degree)
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
  Bytes.blit conjs 0 sh.conjs 0 count;
  Array.blit depths 0 sh.depths 0 count;
  Array.blit vias 0 sh.vias 0 count;
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
    sh.hashes.(idx) <- hash;
    let sg = ref 0 in
    for i = 0 to t.degree - 1 do
      sg := !sg lor t.signatures.(Char.code (Bytes.get keys (off + i)))
    done;
    sh.sigs.(idx) <- !sg;
    let i = ref ((hash lsr shard_bits) land sh.mask) in
    let dup = ref false in
    while sh.table.(!i) >= 0 do
      let prev = sh.table.(!i) in
      if sh.hashes.(prev) = hash && key_equal sh.arena (prev * t.degree) keys off t.degree
      then dup := true;
      i := (!i + 1) land sh.mask
    done;
    if !dup then invalid_arg "State_arena.restore_shard: duplicate key";
    sh.table.(!i) <- idx
  done;
  sh.count <- count

let try_insert ?(conj = 0) t ~key ~off ~hash ~depth ~via ~parent =
  let s = shard_of_hash hash in
  let sh = t.shards.(s) in
  let slot = probe t sh key ~off ~hash in
  if sh.table.(slot) >= 0 then -1
  else begin
    let idx = sh.count in
    if idx = Array.length sh.depths then grow_states t sh;
    Bytes.blit key off sh.arena (idx * t.degree) t.degree;
    sh.depths.(idx) <- depth;
    sh.vias.(idx) <- via;
    sh.parents.(idx) <- parent;
    sh.hashes.(idx) <- hash;
    Bytes.unsafe_set sh.conjs idx (Char.unsafe_chr conj);
    let sg = ref 0 in
    for i = 0 to t.degree - 1 do
      sg := !sg lor t.signatures.(Char.code (Bytes.unsafe_get key (off + i)))
    done;
    sh.sigs.(idx) <- !sg;
    sh.table.(slot) <- idx;
    sh.count <- idx + 1;
    (* keep the load factor under 3/4 *)
    if 4 * sh.count > 3 * (sh.mask + 1) then grow_table sh;
    handle ~shard:s ~index:idx
  end
