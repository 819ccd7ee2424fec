(** Sharded, arena-packed store of BFS circuit states.

    [2^{!shard_bits}] shards, each holding a [Bytes] arena of packed
    binary-image vectors (see {!Search}) and an open-addressing probe
    table.  A stored state is its key bytes plus its probe-table slot (4
    bytes a slot, at a load factor between 3/8 and 3/4) and nothing
    else: its depth is the level whose range holds it ({!depth_of}), and
    everything else the engine knows about a state (its signature, the
    gate that reached it) is derived from its key.  A state is addressed
    by an integer {e handle} [(local_index lsl shard_bits) lor shard]; no
    per-state heap object exists.

    {b Levels.}  A BFS inserts level by level, and each shard appends its
    states in the order the engine inserts them, so one level of the
    search is one [\[start, end)] range of local indexes per shard.  The
    store records those starts ({!open_level}); a frontier is read from
    them ({!level_start}, {!level_end}) and never kept as a list.

    {b Reservations.}  {!open_level} also reserves every shard's key
    arena and probe table once for the level's predicted size, so a
    level copies each arena at most once.  Reserved key bytes are not
    written until a state arrives, so an over-predicted tail costs
    address space, not resident memory.  When a shard outgrows its
    reservation, insertion falls back to doubling.  Capacities are never
    observable: handles, keys and levels do not depend on them.

    {b Slots.}  A probe table is a byte table of 32-bit slots, which the
    GC never scans.  A filled slot is [(local_index lsl w) lor tag]; an
    empty one is all ones.  The tag is the top [w] bits of the key hash,
    with [w = 31 - log2 (slots in the shard)], set at each rehash and
    kept with the shard.  The 3/4 load factor keeps every local index
    below the slot count, so the index always fits in the other
    [31 - w] bits.  The tag narrows only as the table grows: 23 bits in
    a fresh shard's 256 slots, 17 at 16,384 slots, 9 at 4M.  A probe
    rejects most non-matching slots by their tag without reading the key
    arena, and keys are compared a 64-bit word at a time.  No hash is
    stored: growth, {!abandon_level} and {!restore} recompute it from
    the key bytes.

    A state's shard is a pure function of its key bytes
    ({!shard_of_hash} of {!hash_key}), so the store's contents — including
    every handle — are independent of how insertions are scheduled across
    domains.  Concurrency contract: {!try_insert} mutates only the
    addressed shard, so distinct domains may insert into distinct shards
    concurrently; all read-only accessors are safe while no insertion into
    the relevant shard is in flight. *)

type t

val shard_bits : int
(** Shard count is fixed (not a function of the worker count) so handles
    and frontier order are identical for every [jobs] value. *)

val num_shards : int

(** [create ~degree] is an empty store for state keys of [degree] bytes.
    @raise Invalid_argument if [degree < 1]. *)
val create : degree:int -> t

val degree : t -> int

(** [size t] is the number of states stored across all shards. *)
val size : t -> int

(** [bytes t] is what the store holds, in bytes: every shard's key arena
    and probe table, at their reserved capacities. *)
val bytes : t -> int

(** [table_capacity t] is the total number of open-addressing slots
    (across shards) — the denominator of the load factor. *)
val table_capacity : t -> int

(** {1 Hashing} *)

(** [hash_key b ~off ~len] hashes the key bytes at [b.[off .. off+len-1]];
    deterministic and domain-independent. *)
val hash_key : Bytes.t -> off:int -> len:int -> int

val shard_of_hash : int -> int

(** [tag_of_hash ~bits h] is the part of [h] kept in a probe-table slot
    next to the state's index: its top [bits] bits, disjoint from the
    bits that pick the shard and the home slot.  A shard of [2^k] slots
    keeps [bits = 31 - k].  Two keys with the same shard, home slot and
    tag are told apart only by comparing their bytes. *)
val tag_of_hash : bits:int -> int -> int

(** {1 Handle accessors} *)

val shard_of_handle : int -> int
val index_of_handle : int -> int

(** [handle ~shard ~index] packs a (shard, local index) pair back into a
    handle — the inverse of the two accessors above. *)
val handle : shard:int -> index:int -> int

(** [shard_arena t shard] is the current key arena of [shard]; state
    [idx] of the shard occupies bytes [idx*degree .. (idx+1)*degree-1].
    An insertion that grows the shard replaces the arena, and no
    insertion rewrites the bytes of a stored state, so the first
    [shard_count t shard * degree] bytes of a returned arena never change
    while the store lives — {!abandon_level} never rolls a shard below a
    level boundary already passed.  {!Checkpoint.save} streams a
    snapshot straight from these prefixes, with no snapshot-sized
    buffer. *)
val shard_arena : t -> int -> Bytes.t

(** [key_offset t handle] is the byte offset of [handle]'s key inside
    [shard_arena t (shard_of_handle handle)]. *)
val key_offset : t -> int -> int

(** [key_of t handle] is the key as a fresh string.  The engine reads
    keys in place ({!shard_arena} at {!key_offset}) instead. *)
val key_of : t -> int -> string

(** [depth_of t handle] is the level holding the stored state [handle],
    found by a binary search over its shard's level starts. *)
val depth_of : t -> int -> int

(** [in_level t handle ~depth] is whether the stored state [handle] lies
    in level [depth] (false for a level not opened): two comparisons
    against the shard's level range. *)
val in_level : t -> int -> depth:int -> bool

(** {1 Lookup and insertion} *)

(** [find t key ~off ~hash] is the handle of the stored state whose key
    equals [key.[off .. off+degree-1]] (with [hash = hash_key] of those
    bytes), or -1. *)
val find : t -> Bytes.t -> off:int -> hash:int -> int

(** [try_insert t ~key ~off ~hash] inserts the key into the newest level,
    in the shard dictated by [hash], and returns its new handle, or -1 if
    an equal key is already present.  Only the addressed shard is
    mutated.  Allocation-free. *)
val try_insert : t -> key:Bytes.t -> off:int -> hash:int -> int

(** [shard_count t s] is the number of states stored in shard [s]. *)
val shard_count : t -> int -> int

(** {1 Levels} *)

(** [open_level t ~reserve] starts the next level: every state inserted
    from now on belongs to it.  It also reserves room for [reserve] more
    states, spread over the shards as a uniform hash spreads them (each
    shard's mean share plus three standard deviations), growing each
    shard's arena and probe table at most once.  [reserve] only sizes
    storage: a wrong guess costs memory or a fallback doubling, never a
    different result. *)
val open_level : t -> reserve:int -> unit

(** [shard_share n] is the room one shard reserves for [n] keys hashed
    uniformly over the shards: the mean share plus three standard
    deviations, and a few keys of slack. *)
val shard_share : int -> int

(** [reserve_bytes t n] is what {!bytes} would be after [open_level t
    ~reserve:n] — the check a memory cap makes before the reservation. *)
val reserve_bytes : t -> int -> int

(** [levels t] is the number of levels opened (the deepest level plus
    one). *)
val levels : t -> int

(** [predicted_level t ~fanout] is the predicted size of the next level
    of a search that expands each state of the newest level into at
    most [fanout] children: the newest level times the last level's new
    states per parent, plus an eighth ([fanout] times the newest level
    when only the root is stored, and never more).  It only sizes
    {!open_level}'s reservation. *)
val predicted_level : t -> fanout:int -> int

(** [level_start t ~depth s] and [level_end t ~depth s] bound level
    [depth]'s local indexes in shard [s]: the level's states there are
    [level_start .. level_end - 1].  [depth] must be below {!levels}. *)
val level_start : t -> depth:int -> int -> int

val level_end : t -> depth:int -> int -> int

(** [level_size t ~depth] is the number of states of level [depth]; 0
    for a level not opened. *)
val level_size : t -> depth:int -> int

(** [abandon_level t] rolls every shard back to the start of the newest
    level and forgets it, rebuilding the probe tables over the kept
    states: used to abandon a cancelled level cleanly.  Reserved capacity
    is kept; inserting the same states again gives the same handles.
    @raise Invalid_argument if no level is open. *)
val abandon_level : t -> unit

(** [iter_level t ~depth f] calls [f] on the handle of every state of
    level [depth], in (shard, local index) order — the engine's canonical
    frontier order.  Nothing for a level not opened. *)
val iter_level : t -> depth:int -> (int -> unit) -> unit

(** [handles_at_depth t d] is a fresh array of {!iter_level}'s handles. *)
val handles_at_depth : t -> int -> int array

(** {1 Durability support (checkpoint/resume)} *)

(** [restore ~degree ~keys ~level_sizes] rebuilds a store from each
    shard's key bytes ([keys.(s)], its states in index order, which the
    store takes over and must not be reused) and level sizes
    ([level_sizes.(s).(d)] states of level [d] in shard [s]; every shard
    lists the same number of levels, at least one).  The probe tables
    are recomputed from the keys; every key is validated to belong to
    its shard and to be unique within it.
    @raise Invalid_argument on any inconsistency (shard count, level
    count, negative size, key bytes not matching the sizes, foreign or
    duplicate key). *)
val restore : degree:int -> keys:Bytes.t array -> level_sizes:int array array -> t
