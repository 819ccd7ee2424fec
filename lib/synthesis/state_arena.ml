let shard_bits = 6
let num_shards = 1 lsl shard_bits

(* A probe-table slot is a 32-bit word of a byte table, in native byte
   order (the table is never written out): -1 (all ones) when empty,
   else [(local_index lsl w) lor tag].  The tag is the top [w] bits of
   the key hash (bits the shard and slot position never use), so most
   non-matching slots are rejected without touching the key arena.  [w]
   is [31 - log2 slots]: the 3/4 load factor keeps every local index
   below the slot count, so the index fits in the other [31 - w] bits
   and a filled slot is never negative.  The tag narrows only as the
   table grows; [w] stays non-negative up to 2^31 slots a shard, far
   past any table that fits in memory.  A byte table is never scanned by
   the GC. *)
let slot_bytes = 4

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let slot_get table i = Int32.to_int (get32u table (i * slot_bytes))
let slot_set table i v = set32u table (i * slot_bytes) (Int32.of_int v)
let empty_table slots = Bytes.make (slots * slot_bytes) '\xff'
let tag_of_hash ~bits h = h lsr (62 - bits)

let tag_bits_for slots =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  31 - log2 slots

(* A stored state is its key bytes and its probe-table slot; nothing
   else.  Its depth is the level whose range holds it. *)
type shard = {
  mutable arena : Bytes.t; (* capacity * degree key bytes *)
  mutable count : int;
  mutable table : Bytes.t; (* open addressing, 32-bit slots: -1 empty, else index and tag *)
  mutable mask : int; (* table capacity - 1, a power of two minus one *)
  mutable tag_bits : int; (* [tag_bits_for (mask + 1)] *)
  mutable starts : int array; (* starts.(d): local index of level d's first state *)
}

let slot_of sh idx hash = (idx lsl sh.tag_bits) lor tag_of_hash ~bits:sh.tag_bits hash

(* A store keeps its states in level order: every state inserted after
   [open_level] belongs to the newest level, so a level is one [start,
   end) index range per shard and no frontier list is needed. *)
type t = {
  degree : int;
  shards : shard array;
  mutable levels : int; (* levels opened; starts.(0 .. levels-1) are valid *)
}

(* A fresh shard's room: the first levels of any census fit without a
   copy. *)
let initial_states = 128
let initial_slots = 256

let make_shard degree =
  {
    arena = Bytes.create (initial_states * degree);
    count = 0;
    table = empty_table initial_slots;
    mask = initial_slots - 1;
    tag_bits = tag_bits_for initial_slots;
    starts = Array.make 16 0;
  }

let create ~degree =
  if degree < 1 then invalid_arg "State_arena.create: keys need at least one byte";
  { degree; shards = Array.init num_shards (fun _ -> make_shard degree); levels = 0 }

let degree t = t.degree

let size t =
  let n = ref 0 in
  Array.iter (fun s -> n := !n + s.count) t.shards;
  !n

let capacity t sh = Bytes.length sh.arena / t.degree

(* What a shard holds, in bytes: its key arena and its probe table. *)
let shard_bytes ~degree ~capacity ~slots = (capacity * degree) + (slot_bytes * slots)

let bytes t =
  Array.fold_left
    (fun n sh -> n + shard_bytes ~degree:t.degree ~capacity:(capacity t sh) ~slots:(sh.mask + 1))
    0 t.shards

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
let shard_of_handle h = h land (num_shards - 1)
let index_of_handle h = h asr shard_bits
let handle ~shard ~index = (index lsl shard_bits) lor shard
let shard_arena t s = t.shards.(s).arena
let key_offset t h = index_of_handle h * t.degree

let key_of t h =
  let s = t.shards.(shard_of_handle h) in
  Bytes.sub_string s.arena (index_of_handle h * t.degree) t.degree

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
   caller reads the slot to tell the two apart.  Terminates because the
   load factor is kept under 3/4. *)
let probe t sh key ~off ~hash =
  let degree = t.degree in
  let mask = sh.mask and table = sh.table and arena = sh.arena and bits = sh.tag_bits in
  let tag = tag_of_hash ~bits hash and tag_mask = (1 lsl bits) - 1 in
  let i = ref ((hash lsr shard_bits) land mask) in
  let looking = ref true in
  while !looking do
    let slot = slot_get table !i in
    if slot < 0 then looking := false
    else if
      slot land tag_mask = tag
      && key_equal arena ((slot lsr bits) * degree) key off degree
    then looking := false
    else i := (!i + 1) land mask
  done;
  !i

let find t key ~off ~hash =
  let s = shard_of_hash hash in
  let sh = t.shards.(s) in
  let slot = slot_get sh.table (probe t sh key ~off ~hash) in
  if slot < 0 then -1 else handle ~shard:s ~index:(slot lsr sh.tag_bits)

(* [resize_states t sh capacity] moves a shard's keys into storage for
   [capacity] states: the one copy a level's reservation makes, or the
   fallback when a level outgrows it.  The new arena is not filled, so a
   reserved tail that is never written is never resident. *)
let resize_states t sh capacity =
  Faultsim.hit "grow";
  let arena' = Bytes.create (capacity * t.degree) in
  Bytes.blit sh.arena 0 arena' 0 (sh.count * t.degree);
  sh.arena <- arena'

(* [place t sh idx] files state [idx] in the first empty slot of its
   probe sequence, recomputing its hash from the key bytes: the hash is
   a pure function of the key, so no column keeps it.  [idx] must not
   already be in the table. *)
let place t sh idx =
  let hash = hash_key sh.arena ~off:(idx * t.degree) ~len:t.degree in
  let i = ref ((hash lsr shard_bits) land sh.mask) in
  while slot_get sh.table !i >= 0 do
    i := (!i + 1) land sh.mask
  done;
  slot_set sh.table !i (slot_of sh idx hash)

(* An empty table of [slots] slots, and the tag width that goes with it. *)
let reset_table sh slots =
  sh.table <- empty_table slots;
  sh.mask <- slots - 1;
  sh.tag_bits <- tag_bits_for slots

let rehash t sh slots =
  reset_table sh slots;
  for idx = 0 to sh.count - 1 do
    place t sh idx
  done

(* The smallest power-of-two slot count, from [slots] up, that holds
   [states] under the 3/4 load factor. *)
let rec slots_for states slots =
  if 4 * states > 3 * slots then slots_for states (2 * slots) else slots

let shard_count t s = t.shards.(s).count

(* {1 Levels and reservations} *)

(* One shard's share of [n] new states: keys hash uniformly over the
   shards, so the mean share plus three standard deviations, and a few
   states of slack for small levels. *)
let shard_share n =
  if n <= 0 then 0
  else
    let mean = (n + num_shards - 1) / num_shards in
    mean + (3 * int_of_float (sqrt (float_of_int mean))) + 8

(* A shard's [(capacity, slots)] once room for [share] more states is
   reserved.  A capacity that must grow grows at least by half, so a run
   of small levels does not copy the keys at every level. *)
let plan t sh share =
  let want = sh.count + share in
  let cap = capacity t sh in
  let capacity = if want <= cap then cap else max want (cap + (cap / 2)) in
  (capacity, slots_for want (sh.mask + 1))

let reserve_bytes t n =
  let share = shard_share n in
  Array.fold_left
    (fun acc sh ->
      let capacity, slots = plan t sh share in
      acc + shard_bytes ~degree:t.degree ~capacity ~slots)
    0 t.shards

let push_start sh levels =
  if levels = Array.length sh.starts then begin
    let starts = Array.make (2 * levels) 0 in
    Array.blit sh.starts 0 starts 0 levels;
    sh.starts <- starts
  end;
  sh.starts.(levels) <- sh.count

let open_level t ~reserve =
  let share = shard_share reserve in
  Array.iter
    (fun sh ->
      push_start sh t.levels;
      let capacity, slots = plan t sh share in
      if capacity > Bytes.length sh.arena / t.degree then resize_states t sh capacity;
      if slots > sh.mask + 1 then rehash t sh slots)
    t.shards;
  t.levels <- t.levels + 1

let levels t = t.levels

let level_start t ~depth s = t.shards.(s).starts.(depth)

let level_end t ~depth s =
  let sh = t.shards.(s) in
  if depth + 1 < t.levels then sh.starts.(depth + 1) else sh.count

let level_size t ~depth =
  if depth < 0 || depth >= t.levels then 0
  else begin
    let n = ref 0 in
    for s = 0 to num_shards - 1 do
      n := !n + level_end t ~depth s - level_start t ~depth s
    done;
    !n
  end

(* The newest level's size times the last level's new states per
   parent, plus an eighth, or times [fanout] from the root; never more
   than [fanout] states per parent.  The eighth covers a growth ratio
   that rises again: level 10 of the 4-wire quotient census is 4.5%
   above the plain prediction, and a level that outgrows its
   reservation copies every shard's arena a second time. *)
let predicted_level t ~fanout =
  let depth = t.levels - 1 in
  let n = level_size t ~depth in
  let bound = n * fanout in
  if depth = 0 then bound
  else
    let prev = max 1 (level_size t ~depth:(depth - 1)) in
    let guess = ((n * n) + prev - 1) / prev in
    min bound (guess + (guess / 8))

let in_level t h ~depth =
  depth >= 0
  && depth < t.levels
  &&
  let s = shard_of_handle h and idx = index_of_handle h in
  level_start t ~depth s <= idx && idx < level_end t ~depth s

(* The deepest level starting at or before the handle's index: levels
   are consecutive ranges, so it is the one holding it (an empty level
   starts where the next one does and is skipped). *)
let depth_of t h =
  let starts = t.shards.(shard_of_handle h).starts and idx = index_of_handle h in
  let lo = ref 0 and hi = ref (t.levels - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= idx then lo := mid else hi := mid - 1
  done;
  !lo

(* [abandon_level t] rolls every shard back to the start of the newest
   level and forgets it: the level-abandon path of cooperative
   cancellation.  Keys beyond the count are dead by construction; the
   open-addressing table is rebuilt over the kept entries (same capacity
   — the load factor only shrinks).  Reserved capacity is kept. *)
let abandon_level t =
  if t.levels = 0 then invalid_arg "State_arena.abandon_level: no level is open";
  let depth = t.levels - 1 in
  Array.iter
    (fun sh ->
      let target = sh.starts.(depth) in
      if target < sh.count then begin
        sh.count <- target;
        Bytes.fill sh.table 0 (Bytes.length sh.table) '\xff';
        for idx = 0 to target - 1 do
          place t sh idx
        done
      end)
    t.shards;
  t.levels <- depth

(* Level [depth]'s states in (shard, local index) order — the engine's
   canonical frontier order. *)
let iter_level t ~depth f =
  if depth >= 0 && depth < t.levels then
    for s = 0 to num_shards - 1 do
      for idx = level_start t ~depth s to level_end t ~depth s - 1 do
        f (handle ~shard:s ~index:idx)
      done
    done

let handles_at_depth t d =
  let out = Array.make (level_size t ~depth:d) 0 and pos = ref 0 in
  iter_level t ~depth:d (fun h ->
      out.(!pos) <- h;
      incr pos);
  out

(* [restore] rebuilds a store from each shard's keys and level sizes.
   The probe tables are recomputed from the key bytes — hashes are pure
   functions of the keys — so a restored store is the store the engine
   built (capacities aside, which are not observable).  Every key is
   re-validated to hash into its shard and to be unique there; a
   corrupted key almost surely fails that check even before the CRC. *)
let restore ~degree ~keys ~level_sizes =
  let fail msg = invalid_arg ("State_arena.restore: " ^ msg) in
  if Array.length keys <> num_shards || Array.length level_sizes <> num_shards then
    fail "one key arena and one size list per shard";
  let levels = Array.length level_sizes.(0) in
  if levels < 1 then fail "no level";
  let t = create ~degree in
  Array.iteri
    (fun s sizes ->
      let sh = t.shards.(s) in
      if Array.length sizes <> levels then fail "shards disagree on the level count";
      let starts = Array.make (max 16 levels) 0 in
      let count = ref 0 in
      Array.iteri
        (fun d n ->
          if n < 0 then fail "negative level size";
          starts.(d) <- !count;
          count := !count + n)
        sizes;
      let count = !count in
      let arena = keys.(s) in
      if Bytes.length arena <> count * degree then fail "key bytes do not match the level sizes";
      sh.arena <- (if count = 0 then Bytes.create (initial_states * degree) else arena);
      sh.starts <- starts;
      reset_table sh (slots_for count initial_slots);
      for idx = 0 to count - 1 do
        let off = idx * degree in
        let hash = hash_key arena ~off ~len:degree in
        if shard_of_hash hash <> s then fail "a key does not belong to its shard";
        let slot = probe t sh arena ~off ~hash in
        if slot_get sh.table slot >= 0 then fail "duplicate key";
        slot_set sh.table slot (slot_of sh idx hash);
        sh.count <- idx + 1
      done)
    level_sizes;
  t.levels <- levels;
  t

let try_insert t ~key ~off ~hash =
  let s = shard_of_hash hash in
  let sh = t.shards.(s) in
  let slot = probe t sh key ~off ~hash in
  if slot_get sh.table slot >= 0 then -1
  else begin
    let idx = sh.count in
    (* the fallback when a level outgrows its reservation *)
    if (idx + 1) * t.degree > Bytes.length sh.arena then resize_states t sh (max 8 (2 * idx));
    Bytes.blit key off sh.arena (idx * t.degree) t.degree;
    slot_set sh.table slot (slot_of sh idx hash);
    sh.count <- idx + 1;
    (* keep the load factor under 3/4 *)
    if 4 * sh.count > 3 * (sh.mask + 1) then rehash t sh (2 * (sh.mask + 1));
    handle ~shard:s ~index:idx
  end
