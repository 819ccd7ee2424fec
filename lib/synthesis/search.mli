(** The breadth-first search engine shared by FMCF and MCE.

    A state is a circuit's {e binary-image vector}: [num_binary] bytes
    (8 at 3 qubits, 16 at 4), byte [j] the encoding point the circuit
    maps binary code [j] to (not necessarily itself a binary code).
    Under the reasonable-product constraint, whether a gate may legally
    follow a circuit, what the next image is, and which binary function
    the circuit computes depend {e only} on these bytes, so circuits with
    equal images are one state.  States are packed into the sharded byte
    arena of {!State_arena} and addressed by integer handles — no
    per-state heap objects.  Level [k] of the search discovers the images
    first reached with [k] gates under the reasonable-product constraint;
    a function of minimal cost [k] is exactly an image of level [k] that
    maps the binary block onto itself.  A stored state is its key and
    nothing else: its depth is the level holding it, its signature the
    OR of its bytes' point signatures, and its witness is read backward
    from its image by the {e backward step} ({!back_probe}), which every
    witness in the engine shares.

    The engine keeps no frontier list: a level is one index range per
    shard of the store (see {!State_arena}), and its canonical order is
    shard by shard, each range in index order.  Before each level the
    store reserves room for the level's predicted size once (the
    frontier times the last level's new states per parent), so a level
    copies the key arenas at most once; that prediction is also what a
    memory cap checks ({!predicted_bytes}).

    {b Bounded levels.}  A state is {e mixed} on a wire when some point
    of its image carries a mixed value there.  A gate's controls must be
    binary on every image point (Definition 1), so one gate clears mixed
    values from at most one wire, its target: a state mixed on [m]
    wires needs at least [m] more gates to become a function.  A census
    to depth [d] reads only functions, so level [k] needs only the
    states mixed on at most [d - k] wires.  [try_step ~bound:b] keeps
    exactly those children: a child mixed on more than [b] wires is
    dropped before it is hashed, canonicalized or probed, and a gate
    that cannot bring its parent within [b] is skipped before
    composing.  The level then holds the full level's states within
    [b], in the same canonical order, provided each bound is below the
    one before: a state within [b] has its shortest-path parents within
    [b + 1] ({!try_step} refuses any other bound).  Bound 0 is the
    functions-only final level; after it the engine cannot be stepped
    again ({!bound}).  Backward steps ({!cascade_of_key},
    {!all_cascades}, {!count_point_perms}) from a state of a bounded
    level find the parents the full search would (a legal pre-image is
    mixed on at most one more wire), and a snapshot holds the whole
    levels only ({!whole_depth}, {!Checkpoint.save}).

    Frontier expansion is domain-parallel ([?jobs]): a level runs as
    consecutive fixed-size chunks of the frontier; each chunk is expanded
    in contiguous slices across domains into per-(domain, shard)
    candidate buffers, then each domain dedupes and inserts the
    candidates of the shards it owns.  The buffers therefore hold one
    chunk's children, never a whole level's.  Because a state's shard is
    a pure function of its key and each shard processes its candidates
    in global frontier order, the discovered states, their handles, and
    the frontier order are {e identical for every jobs value} — [jobs]
    only changes scheduling.  See doc/PERFORMANCE.md for the determinism
    argument.

    The paper's memory bound cb = 7 came from GAP on 2004 hardware; this
    engine runs the 3-qubit universe to closure (depth 13, 126,000
    states) in well under a second. *)

type t

(** A state handle: an index into the packed store, stable for the
    lifetime of the search. *)
type handle = int

(** [create ?jobs ?symmetry library] starts a search at the identity
    circuit (depth 0).  [jobs] (default 1) is the number of domains used
    per step; it is clamped to the shard count of the store.

    With [?symmetry] the search runs {e quotiented}: each image is
    canonicalized under the wire-relabeling group (see {!Symmetry}) and
    one representative per orbit is stored.  Level [k] then discovers one
    state per orbit (minimal depths are constant on orbits, so the level
    structure is preserved); the jobs-determinism contract is unchanged.
    Key-facing APIs take and return canonical images;
    {!all_cascades} and {!count_point_perms} are unavailable.
    @raise Invalid_argument when [jobs < 1], or when [symmetry] was
    built for a different encoding. *)
val create : ?jobs:int -> ?symmetry:Symmetry.t -> Library.t -> t

(** [of_store ?jobs ?symmetry library store] rebuilds a live engine
    around a restored arena (see {!Checkpoint}) whose levels are already
    recorded ({!State_arena.restore}): the frontier is its newest level
    (possibly empty — an exhausted search) in canonical order, and
    stepping the result produces byte-identical levels to the search the
    store came from.  Pass the same [?symmetry] the store was built
    under (a quotient checkpoint records its group fingerprint).
    @raise Invalid_argument when the store's key length is not the
    library's [num_binary], a key byte is not a point of the encoding,
    a quotient key is not its own canonical form, or level 0 is not the
    identity root alone. *)
val of_store : ?jobs:int -> ?symmetry:Symmetry.t -> Library.t -> State_arena.t -> t

(** [store t] is the underlying packed state store (used by
    {!Checkpoint.save}; treat as read-only). *)
val store : t -> State_arena.t

(** [symmetry t] is the quotient group, or [None] for a raw search. *)
val symmetry : t -> Symmetry.t option

(** [key_length t] is the byte length of stored state keys: the
    encoding's number of binary codes. *)
val key_length : t -> int

(** [quotient_collapsed t] is [Some (orbits, hits)] for a quotient
    engine: [orbits] states stored (one per orbit) and [hits]
    reasonable expansions that canonicalized onto an already-stored
    representative, accumulated since this engine was created (a
    resumed engine restarts the tally at its resume boundary).  [None]
    for a raw search.  Unlike the [search.quotient.*] telemetry
    counters, these are maintained even when telemetry is disabled. *)
val quotient_collapsed : t -> (int * int) option

val library : t -> Library.t

(** [depth t] is the last expanded level (0 after [create]): the store's
    newest level, [State_arena.levels - 1]. *)
val depth : t -> int

(** [size t] is the number of distinct circuit states discovered. *)
val size : t -> int

(** [arena_bytes t] is what the store holds, in bytes: key arenas and
    probe tables at their reserved capacities ({!State_arena.bytes}). *)
val arena_bytes : t -> int

(** [predicted_bytes ?bound t] is what {!arena_bytes} will be once the
    next level's reservation is made: the figure a memory cap checks
    before expanding a level.  With [~bound] it is the reservation of a
    level stepped with that bound ({!try_step}): the usual prediction
    scaled by the newest level's share of states mixed on at most
    [bound] wires.  A level larger than predicted grows past it by
    doubling. *)
val predicted_bytes : ?bound:int -> t -> int

(** [bound t] is the newest level's bound ({!try_step}), [None] when
    the level is whole.  [Some 0]: the newest level holds function
    states only and {!try_step} refuses to extend it. *)
val bound : t -> int option

(** [whole_depth t] is the deepest whole level: every level up to it
    holds every state first reached at its depth, and the levels after
    it are bounded. *)
val whole_depth : t -> int

(** {1 Handle interface (hot paths)} *)

(** [frontier_size t] is the number of states discovered at [depth t]. *)
val frontier_size : t -> int

(** [level_size t d] is the number of states of depth [d] (0 beyond
    [depth t]). *)
val level_size : t -> int -> int

(** [iter_level t d f] calls [f] on every state of depth [d], in the
    canonical frontier order.  Allocates nothing. *)
val iter_level : t -> int -> (handle -> unit) -> unit

(** [iter_functions t ~depth f] calls [f key off h] on every state of
    depth [depth] that maps the binary block onto itself (no point of
    its image carries a mixed value), in the canonical frontier order:
    the state's image is [key.[off .. off + key_length t)], valid only
    during the call.  One scan per shard over the level's key bytes;
    a key's test stops at its first mixed point. *)
val iter_functions : t -> depth:int -> (Bytes.t -> int -> handle -> unit) -> unit

(** [frontier_handles t] is a fresh array of the states discovered at
    [depth t], in the engine's canonical order. *)
val frontier_handles : t -> handle array

(** [step_handles t] expands one level and returns the new frontier as a
    fresh array; its length is the |B[depth+1]| count.  An empty result
    means the reachable set is exhausted. *)
val step_handles : t -> handle array

(** [try_step ?bound ?sources t ~cancel] expands one level, like
    {!step_handles}, and returns the new level's size (no handle array
    is built; read the level with {!iter_level}).  [sources] (default
    [[(depth t, every entry)]]) are the stored levels to step from, each
    with the increasing entry indices of the gates to apply: the new
    level holds their children not stored before, source by source, each
    level in its canonical order ({!Weighted} pulls a cost bucket from
    the earlier ones so).  [cancel] is polled every 64 parents (and must
    be cheap, domain-safe and monotonic — an [Atomic.t] flag set by a signal handler qualifies).
    When it fires the level is abandoned cleanly — its insertions are
    rolled back and the engine is exactly at the level boundary it
    started from, still open — and the result is [None].  A retried
    level is byte-identical to an uninterrupted one.

    [bound] (default: none, a whole level) keeps only the children
    mixed on at most [bound] wires (see above): the result counts the
    kept states, and the stored states, their handles and their order
    are that subset of the full level's for every [jobs] value.  A
    bound no state can exceed leaves the level whole, except 0: a
    bound-0 level is final.  Only a caller that reads nothing but
    functions within [bound] more gates may pass it: the census
    ({!Fmcf}), the forward plan of {!Mce} and the last bucket of
    {!Weighted}.  Searches that read every image ({!Bidir}, the
    automata) step without it.
    @raise Invalid_argument when the newest level is bounded and
    [bound] is not below its bound (a whole level only follows a whole
    one), [bound] is negative or, bounding the level, some gate changes
    the mixedness of more than one wire, or [sources] is not a
    non-empty list of stored levels with increasing entry indices. *)
val try_step :
  ?bound:int -> ?sources:(int * int array) list -> t -> cancel:(unit -> bool) -> int option

(** [handles_at_depth t d] is a fresh array of every state of depth [d]
    in the canonical frontier order (the order [step_handles] returned
    them when level [d] was expanded). *)
val handles_at_depth : t -> int -> handle array

(** [key_of_handle t h] is the state's key as a fresh string
    ({!State_arena.key_of}). *)
val key_of_handle : t -> handle -> string

(** [depth_of_handle t h] is the level holding [h]
    ({!State_arena.depth_of}). *)
val depth_of_handle : t -> handle -> int

(** [cascade_of_handle t h] is the state's canonical minimal cascade,
    read backward from its key by the backward step: at depth [k], the
    least library gate whose inverse takes the image to a pre-image that
    admits the gate and lies at level [k - 1].  In quotient mode the
    steps walk the representative's own image (canonicalizing each
    pre-image only to find its level), so the result implements it.
    {!Fmcf.cascade_of_member} takes the same steps, so a forward answer
    and an index answer carry the same witness.
    @raise Invalid_argument when some step finds no predecessor (a
    store that no search built); each step lowers the depth, so this
    never loops. *)
val cascade_of_handle : t -> handle -> Cascade.t

(** {1 The backward step}

    The primitives behind {!cascade_of_handle}, shared with {!Fmcf}'s
    step table.  Both use scratch held in [t], so neither is
    domain-safe. *)

(** A located state is packed as [(handle lsl conj_bits) lor conj]. *)
val conj_bits : int

(** [locate t src soff] is the stored state of the image at
    [src.[soff ..]] — canonicalized under the quotient, [conj] being the
    canonicalizing element (0 for a raw search) — packed with
    {!conj_bits}, or -1 when absent. *)
val locate : t -> Bytes.t -> int -> int

(** [pre_image t e src soff ~dst] applies entry [e]'s inverse to the
    image at [src.[soff ..]], writing the pre-image to [dst.[0 ..]]
    ([dst] must not overlap [src]).  It is the pre-image's {!locate},
    at whatever level it is stored, when every pre-image point admits
    [e] (the reasonable-product constraint); -1 when a point breaks
    [e]'s purity mask (the scan stops there, nothing is probed); -2
    when the probed pre-image is absent. *)
val pre_image : t -> Library.entry -> Bytes.t -> int -> dst:Bytes.t -> int

(** [back_probe t e src soff ~depth ~dst] is {!pre_image} held to level
    [depth]: -2 also when the pre-image is stored at another level. *)
val back_probe : t -> Library.entry -> Bytes.t -> int -> depth:int -> dst:Bytes.t -> int

(** {1 Key decoding} *)

(** [handle_of_key t key] is the stored state with image [key], if any. *)
val handle_of_key : t -> string -> handle option

(** [restriction_of_key t key] is the binary reversible function computed
    by the state, when it maps the binary block onto itself. *)
val restriction_of_key : t -> string -> Reversible.Revfun.t option

(** {1 Factorization} *)

(** [cascade_of_key t key] is the canonical minimal cascade of the image
    [key] (see {!cascade_of_handle}); under the quotient [key] may be any
    image of a stored orbit, and the cascade implements [key] itself.
    @raise Invalid_argument when the key is unknown. *)
val cascade_of_key : t -> string -> Cascade.t

(** [all_cascades ?limit t key] enumerates {e all} minimal-length cascades
    reaching the state, by walking every valid parent chain in the BFS
    graph (a parent must sit one level up and satisfy the
    reasonable-product condition for the connecting gate).  Stops after
    [limit] results (default 10_000).  Unavailable in quotient mode. *)
val all_cascades : ?limit:int -> t -> string -> Cascade.t list

(** [count_point_perms t key] is the number of distinct full-domain point
    permutations implemented by the minimal cascades reaching the state —
    how many different circuits of minimal cost share its image.  Walks
    the same minimal-parent sub-DAG as {!all_cascades}, carrying one set
    of permutations per node instead of enumerating paths.  Unavailable
    in quotient mode.
    @raise Invalid_argument when the key is unknown. *)
val count_point_perms : t -> string -> int
