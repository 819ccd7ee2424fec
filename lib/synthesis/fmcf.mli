(** The paper's Finding_Minimum_Cost_Circuits algorithm (FMCF).

    Computes, level by level, the sets G[k] of binary-input/binary-output
    reversible circuits whose minimal quantum cost is exactly [k] (no NOT
    gates; Theorem 1).  Each discovered function comes with a witness
    cascade of [k] gates.

    Two censuses are produced:
    - [counts]: the algorithm exactly as specified (set semantics with
      full subtraction of earlier levels) — for 3 qubits this gives
      1, 6, 24, 51, 84, 156, 398, 540;
    - [paper_counts]: the numbers as printed in the paper's Table 2
      (1, 6, 30, 52, 84, 156, 398, 540), which we reproduce by modelling
      two artifacts of the original GAP session: level 2 skips the
      subtraction of G[1] (so the six CNOT functions re-derived as V·V
      count again: 24 + 6 = 30) and G[0] = {identity} is never subtracted
      (so the identity re-enters at level 3: 51 + 1 = 52).  From level 4
      on the two censuses agree, as the paper's own G[4] breakdown
      (60 + 24 = 84) confirms.

    The census runs on the image-keyed {!Search} engine, optionally
    quotiented by wire relabeling; both modes give identical counts,
    members and witnesses.  B[k] is needed only to build the functions
    of the levels after it, and a state mixed on m wires needs at least
    m more gates to become a function, so level k is stepped with the
    bound [max_depth - k] ({!Search.try_step} [~bound]): it keeps the
    states of B[k] mixed on at most that many wires, and the final
    level exactly G[max_depth].  A level's [frontier_size] is therefore
    |B[k]| where the bound binds nothing (levels up to
    [max_depth - n + 1] on n wires, for the paper's library) and the
    states within the bound after that.  The arena is the only census store: a level
    keeps two counts, and members are built from the arena on demand.
    Witnesses are read from a step table (one canonical backward step
    per image reached) that the first witness read allocates. *)

type member = {
  func : Reversible.Revfun.t;
  image : string;
      (** the function's binary-image vector (its permutation key).
          Witness {e cascades} come from {!cascade_of_member}. *)
  cost : int;
}

type level = {
  cost : int;
  frontier_size : int;
      (** distinct binary images first built with k gates — of a
          bounded level, only those within its bound ({!Search.bound}),
          and of the final level of a completed run only the functions *)
  functions : int;
      (** |G[k]| under as-specified semantics, counted from the level's
          states ({!Symmetry.orbit_size} each when quotiented) *)
}

type t

(** Why a census run ended.  Anything but [Completed] marks a {e partial}
    census: every level up to [Search.depth (search t)] is exact, deeper
    levels were never expanded. *)
type stop_reason =
  | Completed  (** reached [max_depth] *)
  | Budget_states  (** [max_states] reached before the next level *)
  | Budget_mem  (** the next level's reservation would take the store
                    past [max_mem] bytes *)
  | Timed_out  (** [timeout] seconds elapsed (checked between levels and
                   polled during expansion) *)
  | Cancelled  (** [should_stop] fired (e.g. SIGINT/SIGTERM) *)

(** [describe_stop r] is a one-line human-readable description. *)
val describe_stop : stop_reason -> string

(** [run ?max_depth ?jobs ?quotient library] executes the census up to
    [max_depth] (default 7, the paper's cb).  [jobs] (default 1) is the
    number of domains the underlying BFS uses per level; every census row
    is identical for every jobs value (see {!Search.create}).

    [quotient] (default false) runs the BFS over canonical orbit
    representatives under the library's wire-relabeling group (see
    {!Symmetry}): the arena stores one state per orbit (~6x fewer at
    3 qubits), levels count orbit sizes and member streams expand
    orbits lazily, so every count, the member sets (func_key, cost and
    witness), {!find} and {!cascade_of_member} are all {e identical} to
    an unquotiented run. *)
val run : ?max_depth:int -> ?jobs:int -> ?quotient:bool -> Library.t -> t

(** [run_guarded ?max_depth ?jobs ?resume ?max_states ?max_mem ?timeout
    ?should_stop ?on_level library] is {!run} with resource guards and
    durability hooks:

    - [resume]: continue from a restored engine (see {!Checkpoint.load})
      instead of starting at the identity.  The completed levels of the
      restored arena are {e recounted} through the same path — a
      level's counts depend only on its states, so counts, members and
      witnesses match the uninterrupted run exactly.
      [jobs] and [quotient] are ignored (both were fixed at load time; a
      quotient snapshot resumes quotiented).
    - [max_states]: stop {e before} expanding the next level once
      [Search.size] reaches the budget.  [max_mem]: stop before the next
      level when {!Search.predicted_bytes} — the store's bytes once that
      level's reservation is made — exceeds the budget.  Either way the
      census returned covers every complete level.
    - [timeout]: wall-clock budget in seconds, measured from this call;
      also polled cooperatively during expansion, abandoning a
      mid-flight level cleanly (the engine rolls back to the last
      complete level).
    - [should_stop]: cooperative cancellation flag, polled between
      levels and every 64 frontier states; must be cheap, domain-safe
      and monotonic (an [Atomic.t] set by a signal handler qualifies).
    - [on_level]: called as soon as each {e newly expanded} level
      completes (not for replayed levels), the final one included, with
      the engine sitting at the level boundary and before the level is
      counted — the checkpoint-writing hook ({!Checkpoint.save}, a
      synchronous write, so the level is on disk before it is
      counted).

    Level k + 1 is stepped with the bound [max_depth - k - 1], so the
    level [max_depth] holds functions only and the engine cannot be
    stepped after it ({!Search.bound}); a checkpoint written then holds
    the whole levels 0 .. {!Search.whole_depth} and resumes to any
    depth.  The memory guard checks each bounded level's own, smaller
    reservation.

    @raise Invalid_argument when [resume] was built for a different
    library, already sits beyond [max_depth], or has a bounded newest
    level below [max_depth]. *)
val run_guarded :
  ?max_depth:int ->
  ?jobs:int ->
  ?quotient:bool ->
  ?resume:Search.t ->
  ?max_states:int ->
  ?max_mem:int ->
  ?timeout:float ->
  ?should_stop:(unit -> bool) ->
  ?on_level:(Search.t -> cost:int -> unit) ->
  Library.t ->
  t * stop_reason

val levels : t -> level list
val search : t -> Search.t

(** [quotiented t] is true when the census ran over the symmetry
    quotient. *)
val quotiented : t -> bool

(** [depth t] is the number of completed census levels (the exactness
    horizon: every function of cost [<= depth t] is in the census, every
    absent function costs more).  Equal to the requested [max_depth] for
    a [Completed] run, lower for a partial one. *)
val depth : t -> int

(** [iter_members t f] calls [f ~cost member] for every census member in
    level order (cost 0 first) — the emission order of
    {!Census_index.build}, each level in canonical frontier order with
    quotiented orbits expanded as reached.  Members are not retained. *)
val iter_members : t -> (cost:int -> member -> unit) -> unit

(** [counts t] is the per-level [(cost, |G[k]|)] under set semantics. *)
val counts : t -> (int * int) list

(** [paper_counts t] is the per-level [(cost, |G[k]|)] as printed in the
    paper's Table 2.  The printed row depends on raw circuits, which the
    census does not store, so this replays the census levels with a
    private BFS over full point permutations — only as deep as the two
    counts can still differ (level 3 for the paper's library) — and
    records the row as the [fmcf.level.paper_g] telemetry series. *)
val paper_counts : t -> (int * int) list

(** [s8_counts t] is the Table 2 bottom row: circuits including the free
    input NOT layer, |S8[k]| = 2^n * |G[k]| (Theorem 2).  The scale-up
    applies only when {!Library.coset_reduction} holds; for full-group
    universes (NCT, NFT) this is simply {!counts}. *)
val s8_counts : t -> (int * int) list

(** [total_found t] is the number of distinct reversible functions
    synthesized within the depth bound. *)
val total_found : t -> int

(** [find t func] probes the arena for the function's (canonical) image:
    its depth is the minimal cost.  [None] when the function is absent
    or its width is not the library's.  Canonicalizes into a scratch
    buffer held in [t], so it is not domain-safe. *)
val find : t -> Reversible.Revfun.t -> member option

(** [cascade_of_member t member] is the member's canonical witness —
    {e the same bytes with and without the quotient}.  Read backward from
    the member's image, each step peels the least library gate landing
    on an image of minimal census depth exactly one lower; the quotient
    preserves that relation exactly.  The step is {!Search.back_probe},
    so the witness is the one {!Search.cascade_of_key} reads for the
    member's image: forward and index answers agree.  Steps are kept in
    [t]'s step table, a flat int array over image ids allocated on the
    first witness read, so all members' witnesses together cost one step
    search per distinct image reached.  Not domain-safe.
    @raise Invalid_argument when [member] is not a member of this
    census (its image is absent or has another minimal depth). *)
val cascade_of_member : t -> member -> Cascade.t

(** [witness_gates t member] is {!cascade_of_member} as library entry
    indices, one byte per gate — the form {!Census_index} stores. *)
val witness_gates : t -> member -> string

(** {1 Index emission}

    The allocation-free form of {!iter_members} and {!witness_gates}
    that {!Census_index.build} packs from.  An {e image id} names one
    image of the census in its step table; it is meaningful only to
    the census that produced it. *)

(** [iter_member_ids t f] calls [f ~cost ~id img off] for every census
    member in {!iter_members} order, with the member's image vector at
    [img.[off .. off+nb)] (valid only during the call) and its image id,
    after stepping the member's witness into the step table. *)
val iter_member_ids : t -> (cost:int -> id:int -> Bytes.t -> int -> unit) -> unit

(** [write_witness t ~id ~cost buf off] writes the witness of the member
    with image id [id] (as passed by {!iter_member_ids}) into
    [buf.[off .. off+cost)], one library entry index per byte, reading
    the step table from the last gate back to the first. *)
val write_witness : t -> id:int -> cost:int -> Bytes.t -> int -> unit

(** [members_at t ~cost] is G[cost] in {!iter_members} order, rebuilt
    from the arena on each call. *)
val members_at : t -> cost:int -> member list
