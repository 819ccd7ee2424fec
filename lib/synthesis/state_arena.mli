(** Sharded, arena-packed store of BFS circuit states.

    [2^{!shard_bits}] shards, each holding a [Bytes] arena of packed
    binary-image vectors (see {!Search}) plus two flat [int] columns: the
    parent handle, and one packed metadata word (BFS depth, the memoized
    binary-block signature, the library index of the last gate and the
    symmetry conjugator).  A state costs its key bytes plus 16 bytes in
    the columns, plus its share of the probe table (8 bytes a slot, at a
    load factor between 3/8 and 3/4).  A state is addressed by an integer
    {e handle} [(local_index lsl shard_bits) lor shard]; no per-state heap
    object exists.

    {b Levels.}  A BFS inserts level by level, and each shard appends its
    states in the order the engine inserts them, so one level of the
    search is one [\[start, end)] range of local indexes per shard.  The
    store records those starts ({!open_level}); a frontier is read from
    them ({!level_start}, {!level_end}) and never kept as a list.

    {b Reservations.}  {!open_level} also reserves every shard's columns
    and probe table once for the level's predicted size, so a level
    copies each column at most once.  When a shard outgrows its
    reservation, insertion falls back to doubling.  Capacities are never
    observable: handles, keys and levels do not depend on them.

    Each open-addressing slot holds a state's local index together with a
    tag of its key hash, so a probe rejects most non-matching slots
    without reading the key arena, and keys are compared a 64-bit word at
    a time.  No hash is stored: growth, {!abandon_level} and
    {!restore_shard} recompute it from the key bytes.

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

(** [create ~degree ~signatures] is an empty store for state vectors of
    [degree] bytes; [signatures.(p)] is the mixed signature of encoding
    point [p], OR-ed over the bytes of a key to form the memoized
    reasonable-product signature.
    @raise Invalid_argument if some signature does not fit the packed
    16-bit field (a per-wire mask of more than 16 qubits). *)
val create : degree:int -> signatures:int array -> t

val degree : t -> int

(** [size t] is the number of states stored across all shards. *)
val size : t -> int

(** [bytes t] is what the store holds, in bytes: every shard's key
    arena, metadata and parent columns and probe table, at their reserved
    capacities. *)
val bytes : t -> int

(** [table_capacity t] is the total number of open-addressing slots
    (across shards) — the denominator of the load factor. *)
val table_capacity : t -> int

(** {1 Hashing} *)

(** [hash_key b ~off ~len] hashes the key bytes at [b.[off .. off+len-1]];
    deterministic and domain-independent. *)
val hash_key : Bytes.t -> off:int -> len:int -> int

val shard_of_hash : int -> int

(** [tag_of_hash h] is the part of [h] kept in a probe-table slot next
    to the state's index: its top 16 bits, disjoint from the bits that
    pick the shard and the home slot.  Two keys with the same shard and
    tag are told apart only by comparing their bytes. *)
val tag_of_hash : int -> int

(** {1 Handle accessors} *)

val shard_of_handle : int -> int
val index_of_handle : int -> int

(** [handle ~shard ~index] packs a (shard, local index) pair back into a
    handle — the inverse of the two accessors above. *)
val handle : shard:int -> index:int -> int

(** [shard_arena t shard] is the current key arena of [shard]; state
    [idx] of the shard occupies bytes [idx*degree .. (idx+1)*degree-1].
    The returned value is invalidated by the next insertion that grows
    the shard. *)
val shard_arena : t -> int -> Bytes.t

(** [key_offset t handle] is the byte offset of [handle]'s key inside
    [shard_arena t (shard_of_handle handle)]. *)
val key_offset : t -> int -> int

(** [key_of t handle] materializes the key as a fresh string (legacy
    interface; the hot paths read the arena directly). *)
val key_of : t -> int -> string

val depth_of : t -> int -> int

(** [via_of t handle] is the library index of the last gate, -1 at the
    root. *)
val via_of : t -> int -> int

(** [parent_of t handle] is the parent handle, -1 at the root. *)
val parent_of : t -> int -> int

(** [signature_of t handle] is the memoized binary-block mixed signature
    (the OR that the seed engine recomputed per expansion). *)
val signature_of : t -> int -> int

(** [conj_of t handle] is the conjugating symmetry-group element index
    recorded at insertion (see {!Symmetry}): in a quotiented search the
    state's key is the canonical form of [conjugate_image conj] of the
    raw candidate that discovered it.  0 for every state of an
    unquotiented store. *)
val conj_of : t -> int -> int

(** {1 Packed metadata}

    The fields of a state's packed metadata word, as returned in the
    [metas] column of {!shard_columns}.  Field ranges: depth below
    [2^34], via in [-1 .. 126], conjugator in [0 .. 31]; {!try_insert}
    and {!restore_shard} reject values outside them. *)

val meta_depth : int -> int
val meta_via : int -> int
val meta_conj : int -> int

(** {1 Lookup and insertion} *)

(** [find t key ~off ~hash] is the handle of the stored state whose key
    equals [key.[off .. off+degree-1]] (with [hash = hash_key] of those
    bytes), or -1. *)
val find : t -> Bytes.t -> off:int -> hash:int -> int

(** [try_insert t ~key ~off ~hash ~depth ~via ~conj ~parent] inserts
    the state into the shard dictated by [hash] and returns its new
    handle, or -1 if an equal key is already present.  [conj] is the
    symmetry conjugator index stored alongside the metadata (see
    {!conj_of}; 0 outside quotient mode).  Only the addressed shard is
    mutated.  Allocation-free.
    @raise Invalid_argument if [depth], [via] or [conj] is outside its
    packed field (see {!meta_depth}). *)
val try_insert :
  t ->
  key:Bytes.t ->
  off:int ->
  hash:int ->
  depth:int ->
  via:int ->
  conj:int ->
  parent:int ->
  int

(** {1 Durability support (checkpoint/resume and cancellation)} *)

(** [shard_count t s] is the number of states stored in shard [s]. *)
val shard_count : t -> int -> int

(** {1 Levels} *)

(** [open_level t ~reserve] starts the next level: every state inserted
    from now on belongs to it.  It also reserves room for [reserve] more
    states, spread over the shards as a uniform hash spreads them (each
    shard's mean share plus three standard deviations), growing each
    shard's columns and probe table at most once.  [reserve] only sizes
    storage: a wrong guess costs memory or a fallback doubling, never a
    different result. *)
val open_level : t -> reserve:int -> unit

(** [reserve_bytes t n] is what {!bytes} would be after [open_level t
    ~reserve:n] — the check a memory cap makes before the reservation. *)
val reserve_bytes : t -> int -> int

(** [levels t] is the number of levels opened (the deepest level plus
    one). *)
val levels : t -> int

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

(** [shard_columns t s] is shard [s]'s live column storage [(count,
    metas, parents)] — a zero-copy capture for serialization; decode a
    [metas] entry with {!meta_depth}, {!meta_via} and {!meta_conj}.  The
    first [count] entries of each column are immutable for the store's
    lifetime: insertions only append past [count] (growth replaces the
    column objects, leaving captured ones intact) and {!abandon_level} never
    rolls a shard below a level boundary captured at one.  A capture taken
    at a level boundary may therefore be read from another domain while
    the next level is being expanded. *)
val shard_columns : t -> int -> int * int array * int array

(** [iter_level t ~depth f] calls [f] on the handle of every state of
    level [depth], in (shard, local index) order — the engine's canonical
    frontier order.  Nothing for a level not opened. *)
val iter_level : t -> depth:int -> (int -> unit) -> unit

(** [handles_at_depth t d] is a fresh array of {!iter_level}'s handles. *)
val handles_at_depth : t -> int -> int array

(** [index_levels t ~depth] rebuilds the level starts of a store filled
    by {!restore_shard}, from the stored depths, in one pass: level [d]
    is the states of depth [d], for [d] from 0 to [depth] (the levels
    past the deepest state are empty: an exhausted search).
    @raise Invalid_argument if [depth] is negative, some state lies
    deeper than [depth], or some shard's depths decrease (its states are
    not in the order a BFS inserts them). *)
val index_levels : t -> depth:int -> unit

(** [restore_shard t ~shard ~count ~keys ~depths ~vias ~parents ~conjs]
    rebuilds shard [shard] of an {e empty} store from serialized columns
    ([keys] holds [count * degree] bytes, [conjs] holds [count]
    conjugator indices — all zero outside quotient mode).  Hashes,
    signatures and the probe table are recomputed from the keys; every
    key is validated to belong to [shard] and to be unique within it.
    @raise Invalid_argument on any inconsistency (shard not empty,
    column length mismatch, foreign or duplicate key, byte outside the
    encoding, a field outside its packed range).  Call {!index_levels}
    once every shard is restored. *)
val restore_shard :
  t ->
  shard:int ->
  count:int ->
  keys:Bytes.t ->
  depths:int array ->
  vias:int array ->
  parents:int array ->
  conjs:Bytes.t ->
  unit
