(** The warm evaluation core shared by every transport.

    A service owns the process-wide engine resources — one {e engine per
    configured gate library}, where the primary engine carries an
    optional {!Synthesis.Census_index} and an optional
    meet-in-the-middle context warmed to a {e fixed} forward depth —
    plus an LRU response cache and an in-flight coalescing table shared
    across engines (request keys embed the library name, so universes
    never share a cache line).  Each request is routed to the engine of
    its [library] field; a request for an unconfigured library fails
    with [Bad_request] naming the configured ones.  The daemon routes
    every socket request through {!answer}; [qsynth synth --json] and
    [qsynth batch] build a throwaway service and call the same function,
    which is what makes responses byte-identical across transports (and,
    per library, between a two-library daemon and one-shot runs).

    Determinism and thread-safety: the bidir context is created with
    [max_fwd_depth = warm_depth] and warmed fully at {!create}, so after
    construction the forward wave never grows — every engine structure a
    query touches is read-only, and {!answer} may be called from any
    number of threads or domains concurrently with no lock on the
    evaluation path (the cache and coalescing table take a short mutex).

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

(** [create ?jobs ?index ?warm_depth ?cache_capacity ?index_verify
    library] builds the engine state eagerly: loads nothing (the caller
    loads the index), but grows the bidir forward wave to [warm_depth]
    before returning.  [warm_depth = 0] (the default) runs without a
    bidir context — queries fall back to index + forward BFS.  When
    [index] is {e complete} ({!Synthesis.Census_index.is_complete}) any
    requested warm-up is skipped — no realizable query can miss the
    index, so the service runs index-only and {!warm_depth} reports 0
    (the one observable consequence: a request {e pinning} plan [bidir]
    gets [Unsupported]).  [jobs] is the forward BFS worker-domain count
    used for cold forward queries and the warm-up itself (results are
    jobs-independent).  [cache_capacity] (default 1024) bounds the LRU
    response cache; [0] disables it.  [index_verify] (default [Sample])
    is the witness-replay level {!reload_index} applies to replacement
    files.

    [libraries] (default none) configures {e secondary} engines, one per
    additional library value: each answers requests naming its library
    with a cold forward BFS — the same plan a one-shot
    [synth --library NAME] without index/bidir runs, so answers agree
    byte-for-byte.  A secondary whose name equals the primary's, or an
    earlier secondary's, is ignored (the first binding wins).  The
    index, warm wave, {!index_status} and {!reload_index} remain
    primary-only.
    @raise Invalid_argument on negative [warm_depth] or
    [cache_capacity], or [jobs < 1]. *)
val create :
  ?jobs:int ->
  ?index:Synthesis.Census_index.t ->
  ?warm_depth:int ->
  ?cache_capacity:int ->
  ?index_verify:Synthesis.Census_index.verification ->
  ?libraries:Synthesis.Library.t list ->
  Synthesis.Library.t ->
  t

(** [library t] is the primary engine's library. *)
val library : t -> Synthesis.Library.t

(** [libraries t] is every configured library name, primary first. *)
val libraries : t -> string list

(** [warm_depth t] is the fixed forward depth of the bidir context
    (0 when the service runs without one, including the complete-index
    case above). *)
val warm_depth : t -> int

(** [index_status t] is [Some (size, depth, coverage, complete)] for the
    currently published index — the material of the [/readyz] body and
    the [server.index.coverage] gauge — or [None] when the service runs
    without one. *)
val index_status : t -> (int * int * int * bool) option

(** [reload_index t path] hot-swaps the census index: maps and validates
    the index file at [path] ({!Synthesis.Census_index.load_mmap} — v1
    or v2, magic, CRC, fingerprints, witness replay per the service's
    [index_verify]), then atomically publishes it and clears the
    response cache, without dropping or blocking in-flight requests —
    requests already evaluating finish against the index (and mapping)
    they snapshotted.  Returns the new index's [(size, depth)].  On
    failure the old index remains in service untouched.
    @raise Synthesis.Checkpoint.Corrupt on a damaged file
    @raise Synthesis.Checkpoint.Mismatch on a library-fingerprint
    mismatch
    @raise Sys_error when [path] cannot be read. *)
val reload_index : t -> string -> int * int

(** [index_first t request] holds when {!answer} takes the index-first
    path above for [request]: a [Synthesize] request with plan [auto]
    or [index] for the primary library while the published index is
    complete.  Such an answer is one probe that never blocks on another
    caller, which is why the daemon runs it on the connection's reader
    instead of queueing it. *)
val index_first : t -> Synthesis.Mce.Request.t -> bool

(** [answer ?should_stop t request] evaluates a request against the warm
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
    [mce.solve] span.  Identical response bytes to {!answer}; the
    daemon switches to it only when tracing or the slow-query log is
    enabled so the default path stays uninstrumented. *)
val answer_timed :
  ?should_stop:(unit -> bool) ->
  t ->
  Synthesis.Mce.Request.t ->
  Synthesis.Mce.Response.t * timing
