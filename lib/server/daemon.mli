(** The [qsynth serve] daemon: accepts connections on a Unix-domain
    socket, decodes request frames ({!Protocol}), and answers them
    through a shared {!Service}.

    Two paths: a request {!Service.index_first} holds for (a synthesis
    probe of a complete index) is answered on its connection's reader
    thread, right after it is decoded.  Every other request (search,
    counting, enumeration, partial indexes, secondary libraries) goes
    through a bounded queue to a pool of worker domains, spawned by the
    first queued job — a daemon that only answers from its index runs
    no worker domain at all.

    Lifecycle: {!start} binds the socket and spawns the accept thread,
    which starts one reader thread per connection; {!stop} initiates a
    graceful drain — stop accepting, answer every request already
    accepted, tell late frames {!Synthesis.Mce.Response.Shutting_down},
    close every connection, unlink the socket; {!wait} blocks until the
    drain completes.  {!run} is the CLI entry: start, park until
    [SIGTERM]/[SIGINT], drain, return.

    Reading: each reader pulls frames through a {!Protocol.Reader}, one
    [read] per batch of bytes, with a 0.25 s receive timeout so it sees
    a drain promptly; a frame whose reads time out 40 times (10 s)
    drops the connection.

    Backpressure: the request queue is bounded; when it is full a queued
    request is rejected immediately with [Overloaded {retry_after_ms}]
    rather than queued — the client owns the retry.  Inline answers are
    never queued and never get [Overloaded]: [workers] and
    [queue_capacity] bound search work only.  Responses to one
    connection are written under a per-connection lock, so concurrent
    workers never interleave frames; within one connection, pipelined
    requests may be answered out of order (correlate with
    [Request.id]). *)

type t

(** [start ?workers ?queue_capacity ?max_frame ?slow_ms ?slow_oc ?trace
    ~socket service] binds [socket] (replacing a stale socket file left
    by a dead daemon; refusing a live one or a non-socket file) and
    returns once the daemon is accepting.
    [workers] (default 2, at most 127: OCaml 5.1 runs 128 domains, the
    main one included) is the worker-domain count, spawned with the
    first queued job; if not even one can be spawned, that job is
    answered [Internal] and the next queued job tries again.
    [queue_capacity] (default 64) bounds the accepted-but-unstarted
    queue.

    Observability: when [trace] is true or [slow_ms] is given, every
    accepted request is assigned a trace id (echoed in the response's
    [trace] field and attached to its [server.request] span tree) and
    evaluated through {!Service.answer_timed}; requests whose total
    latency (queueing included) reaches [slow_ms] milliseconds are
    logged as one JSON object per line on [slow_oc] (default [stderr];
    [slow_ms = 0] logs every request).  With neither, requests take the
    uninstrumented {!Service.answer} path and responses never carry a
    trace id — byte-identical to one-shot evaluation.
    @raise Invalid_argument on nonsensical parameters;
    @raise Failure when the socket path is unusable or busy. *)
val start :
  ?workers:int ->
  ?queue_capacity:int ->
  ?max_frame:int ->
  ?slow_ms:int ->
  ?slow_oc:out_channel ->
  ?trace:bool ->
  socket:string ->
  Service.t ->
  t

val socket_path : t -> string

(** [draining t] is true from the moment {!stop} is first called — the
    daemon's readiness complement ([/readyz] turns 503 on it). *)
val draining : t -> bool

(** [stop t] initiates the drain; idempotent, returns immediately. *)
val stop : t -> unit

(** [wait t] blocks until the daemon has fully drained: accept loop
    exited, socket unlinked, every accepted request answered, worker
    domains (if any were spawned) joined.  Idempotent. *)
val wait : t -> unit

(** [run ?workers ?queue_capacity ?max_frame ?slow_ms ?slow_oc ?trace
    ~socket service] serves until [SIGTERM] or [SIGINT] arrives, then
    drains and returns.  Installs handlers for both signals before the
    socket is bound (they only request the drain; the drain itself runs
    in the calling thread) and restores the previous ones on return. *)
val run :
  ?workers:int ->
  ?queue_capacity:int ->
  ?max_frame:int ->
  ?slow_ms:int ->
  ?slow_oc:out_channel ->
  ?trace:bool ->
  socket:string ->
  Service.t ->
  unit
