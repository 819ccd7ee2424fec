(** Minimal single-threaded HTTP listener for the daemon's
    observability endpoints — deliberately not a web framework: one
    accept loop on one thread, [Connection: close] on every response,
    three routes.

    - [GET /metrics]: the {!Telemetry.Prometheus} exposition of the
      whole registry.
    - [GET /healthz]: liveness — [200 ok] whenever the listener runs.
    - [GET /readyz]: readiness — [200] with the caller's [describe]
      body (default ["ok\n"]) while the [ready] callback returns true,
      [503 not ready] otherwise.  [serve] wires [ready] to "index
      loaded, socket accepting, drain not begun" — so it turns 503 the moment
      a drain starts (before the Unix socket unlinks) and a load
      balancer can stop routing ahead of connection refusals — and
      [describe] to a one-line summary of the published index (size,
      depth, coverage, completeness).

    Anything else is [404]; non-GET methods are [405].  Requests are
    served sequentially — scrapes are cheap ({!Telemetry.Prometheus}
    renders from atomics) and the expected client count is one
    Prometheus server, not the public internet. *)

type t

(** [start ?host ?describe ~port ~ready ()] binds [host:port] (default
    host ["127.0.0.1"]; [port = 0] picks an ephemeral port, see {!port})
    and serves on a background thread until {!stop}.  [describe]
    produces the [200 /readyz] body per request (default ["ok\n"]); it
    runs on the listener thread, so keep it cheap and thread-safe.
    @raise Unix.Unix_error when the address cannot be bound. *)
val start :
  ?host:string ->
  ?describe:(unit -> string) ->
  port:int ->
  ready:(unit -> bool) ->
  unit ->
  t

(** [port t] is the bound port (useful with [port = 0]). *)
val port : t -> int

(** [stop t] shuts the listener down and joins its thread; idempotent. *)
val stop : t -> unit
