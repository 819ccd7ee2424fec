(** The evaluation core shared by every transport.

    A service owns the process-wide engine resources — one {e engine per
    configured gate library}: the library and an atomically swappable
    {!Synthesis.Census_index} (the primary engine's; secondaries hold
    none) — plus an LRU response cache and an in-flight coalescing
    table shared across engines (request keys embed the library name,
    so universes never share a cache line).  Each request is routed to
    the engine of its [library] field; a request for an unconfigured
    library fails with [Bad_request] naming the configured ones.  The
    daemon routes every socket request through {!answer}; [qsynth synth
    --json] and [qsynth batch] build a throwaway service and call the
    same function, which is what makes responses byte-identical across
    transports (and, per library, between a two-library daemon and
    one-shot runs).

    An engine's resources are fixed by its library and index file
    alone: it holds no meet-in-the-middle context, so a request pinning
    plan [bidir] gets [Unsupported], and past a partial index's horizon
    the [auto] plan falls back to the forward BFS.

    Determinism and thread-safety: {!Synthesis.Mce.solve} is a pure
    function of the request for a fixed library and index, and nothing
    a query touches is mutated after {!create} (an index reload
    publishes a new value, never edits the old one), so {!answer} may
    be called from any number of threads or domains concurrently with
    no lock on the evaluation path (the cache and coalescing table take
    a short mutex).

    Index-first path: when the primary engine holds a {e complete}
    index ({!Synthesis.Census_index.is_complete}), a [Synthesize]
    request with plan [auto] or [index] for the primary library is
    answered straight from the index — no cache key, no LRU, no lock,
    no coalescing; the index already is the cache.  Such answers do not
    move the [server.cache.*] / [server.coalesced] metrics.

    Caching: every other response is cached (and concurrent identical
    requests coalesced) under {!Synthesis.Mce.Request.key}.  Only
    deterministic bodies are cached — [Ok], [Bad_request] and
    [Unsupported]; transient outcomes
    ([Deadline_exceeded], [Cancelled], [Internal], …) are not.
    Coalesced requests share one computation {e and its outcome}: a
    follower of a computation that exceeds the leader's deadline
    receives that [Deadline_exceeded] too (followers are requests whose
    key matched while the leader was still computing). *)

type t

(** [create ?jobs ?index ?cache_capacity ?index_verify ?libraries
    library] builds the engine state: loads nothing (the caller loads
    the index) and starts no search.  [jobs] is the forward BFS
    worker-domain count (results are jobs-independent).
    [cache_capacity] (default 1024) bounds the LRU response cache; [0]
    disables it.  [index_verify] (default [Sample]) is the
    witness-replay level {!reload_index} applies to replacement files.

    [libraries] (default none) configures {e secondary} engines, one per
    additional library value: each answers requests naming its library
    with a forward BFS — the same plan a one-shot [synth --library NAME]
    without an index runs, so answers agree byte-for-byte.  A secondary
    whose name equals the primary's, or an earlier secondary's, is
    ignored (the first binding wins).  The index, {!index_status} and
    {!reload_index} remain primary-only.
    @raise Invalid_argument on negative [cache_capacity], or
    [jobs < 1]. *)
val create :
  ?jobs:int ->
  ?index:Synthesis.Census_index.t ->
  ?cache_capacity:int ->
  ?index_verify:Synthesis.Census_index.verification ->
  ?libraries:Synthesis.Library.t list ->
  Synthesis.Library.t ->
  t

(** [library t] is the primary engine's library. *)
val library : t -> Synthesis.Library.t

(** [libraries t] is every configured library name, primary first. *)
val libraries : t -> string list

(** [index_status t] is [Some (size, depth, coverage, complete)] for the
    currently published index — the material of the [/readyz] body and
    the [server.index.coverage] gauge — or [None] when the service runs
    without one. *)
val index_status : t -> (int * int * int * bool) option

(** [reload_index t path] hot-swaps the census index: reads and
    validates the QSYNIDX2 file at [path] ({!Synthesis.Census_index.load}
    — magic, CRC, fingerprints, witness replay per the service's
    [index_verify]), then atomically publishes it and clears the
    response cache, without dropping or blocking in-flight requests —
    requests already evaluating finish against the index they
    snapshotted, which stays alive until its last reader drops it.
    Returns the new index's [(size, depth)].  On failure the old index
    and the response cache remain in service untouched.
    @raise Synthesis.Checkpoint.Corrupt on a damaged file or a retired
    QSYNIDX1 file
    @raise Synthesis.Checkpoint.Mismatch on a well-formed index for a
    different library
    @raise Sys_error when [path] cannot be read. *)
val reload_index : t -> string -> int * int

(** [index_first t request] holds when {!answer} takes the index-first
    path above for [request]: a [Synthesize] request with plan [auto]
    or [index] for the primary library while the published index is
    complete.  Such an answer is one probe that never blocks on another
    caller, which is why the daemon runs it on the connection's reader
    instead of queueing it. *)
val index_first : t -> Synthesis.Mce.Request.t -> bool

(** [answer ?should_stop t request] evaluates a request against its
    engine — the complete index directly when the request is
    index-first (above), otherwise cache, then coalescing, then
    {!Synthesis.Mce.solve} — and never raises.  The request's
    [deadline_ms] is enforced here as a compute budget counted from
    the moment evaluation starts (queueing time is
    the daemon's concern): when it expires the search stops
    cooperatively and the response is the [Deadline_exceeded] error.
    [should_stop] additionally cancels on behalf of the caller
    (SIGINT), producing [Cancelled]. *)
val answer : ?should_stop:(unit -> bool) -> t -> Synthesis.Mce.Request.t -> Synthesis.Mce.Response.t

(** Stage breakdown of one {!answer_timed} call, the raw material of the
    daemon's slow-query log and request traces. *)
type timing = {
  source : [ `Cache_hit | `Coalesced | `Computed ];
  cache_s : float;  (** cache lookup / admission, including lock wait *)
  coalesce_wait_s : float;
      (** time blocked on another caller's in-flight computation *)
  solve_s : float;  (** evaluation time ({e leader} requests only) *)
  plan : string option;
      (** {!Synthesis.Mce.Response.plan_to_string} of the plan that
          answered, when the body is [Ok] *)
}

(** [answer_timed ?should_stop t request] is {!answer} with a per-stage
    clock and [server.cache] / [server.coalesce_wait] / [mce.solve]
    spans (the latter carrying a [plan] attribute).  Index-first
    answers report [`Computed] with [cache_s = 0] and only an
    [mce.solve] span.  It is the one admission path: {!answer} is this
    function with the timing dropped, so both return the same bytes.
    Spans cost nothing while tracing is off. *)
val answer_timed :
  ?should_stop:(unit -> bool) ->
  t ->
  Synthesis.Mce.Request.t ->
  Synthesis.Mce.Response.t * timing
