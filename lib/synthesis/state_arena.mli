(** Sharded, arena-packed store of BFS circuit states.

    Replaces the seed engine's per-state [string] key + boxed node record
    with [2^{!shard_bits}] shards, each holding a growable [Bytes] arena of
    packed binary-image vectors (see {!Search}) plus two flat [int]
    columns: the parent handle, and one packed metadata word (BFS depth,
    the memoized binary-block signature, the library index of the last
    gate and the symmetry conjugator).  A state costs its key bytes plus
    16 bytes, not counting probe-table slots.  A state is addressed by an
    integer {e handle} [(local_index lsl shard_bits) lor shard]; no
    per-state heap object exists.

    Each open-addressing slot holds a state's local index together with a
    tag of its key hash, so a probe rejects most non-matching slots
    without reading the key arena, and keys are compared a 64-bit word at
    a time.  No hash is stored: growth, {!truncate} and {!restore_shard}
    recompute it from the key bytes.

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

(** [arena_bytes t] is the total number of key-arena bytes reserved. *)
val arena_bytes : t -> int

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

(** [shard_counts t] captures every shard's state count — the rollback
    token for {!truncate}. *)
val shard_counts : t -> int array

(** [truncate t counts] rolls each shard back to the count captured by
    {!shard_counts} before a partially-expanded level, discarding the
    newer states and rebuilding the probe tables.  Used to abandon a
    cancelled level cleanly.
    @raise Invalid_argument if some [counts.(s)] exceeds the current
    count (the token is from the future). *)
val truncate : t -> int array -> unit

(** [shard_columns t s] is shard [s]'s live column storage [(count,
    metas, parents)] — a zero-copy capture for serialization; decode a
    [metas] entry with {!meta_depth}, {!meta_via} and {!meta_conj}.  The
    first [count] entries of each column are immutable for the store's
    lifetime: insertions only append past [count] (growth replaces the
    column objects, leaving captured ones intact) and {!truncate} never
    rolls a shard below a level boundary captured at one.  A capture taken
    at a level boundary may therefore be read from another domain while
    the next level is being expanded. *)
val shard_columns : t -> int -> int * int array * int array

(** [handles_at_depth t d] is the handles of every state with BFS depth
    [d], in (shard, local index) order — the engine's canonical frontier
    order, so the frontier of a restored store can be reconstructed
    byte-identically. *)
val handles_at_depth : t -> int -> int array

(** [max_depth t] is the largest stored depth, or -1 on an empty store. *)
val max_depth : t -> int

(** [restore_shard t ~shard ~count ~keys ~depths ~vias ~parents ~conjs]
    rebuilds shard [shard] of an {e empty} store from serialized columns
    ([keys] holds [count * degree] bytes, [conjs] holds [count]
    conjugator indices — all zero outside quotient mode).  Hashes,
    signatures and the probe table are recomputed from the keys; every
    key is validated to belong to [shard] and to be unique within it.
    @raise Invalid_argument on any inconsistency (shard not empty,
    column length mismatch, foreign or duplicate key, byte outside the
    encoding, a field outside its packed range). *)
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
