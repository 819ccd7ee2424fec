(** Open-loop load generator for the daemon — the measurement harness
    behind [bench/loadgen.exe] (and the historical [server_load] rows of
    [BENCH_6.json]).

    Open loop means arrivals are scheduled by a Poisson process at the
    offered rate and are {e never} delayed by slow responses: when the
    daemon lags, requests keep arriving and latency grows, exactly as
    with independent production clients.  (A closed loop — issue, wait,
    repeat — would silently throttle the offered load to the daemon's
    pace and hide every queueing effect worth measuring.)

    Latency is measured from each request's {e scheduled} arrival time,
    not from the moment the frame hit the socket, so a dispatcher that
    falls behind schedule shows up as latency rather than being absorbed
    (the coordinated-omission correction).

    Requests are stamped with generator-unique ids and pipelined over a
    small pool of connections; per-connection reader threads correlate
    responses by id, so out-of-order answers are handled. *)

type results = {
  sent : int;
  answered : int;  (** responses received before the drain timeout *)
  ok : int;
  overloaded : int;  (** {e final} backpressure rejections ([Overloaded]) *)
  retried : int;
      (** re-sends triggered by [Overloaded] replies under the
          [max_retries] budget (each also ticks the [loadgen.retries]
          telemetry counter); a request that ultimately succeeds after
          retries counts in [ok], not in [overloaded] *)
  shutting_down : int;
  errors : int;  (** every other error body, or undecodable responses *)
  duration_s : float;  (** dispatch window actually used *)
  offered_rps : float;
  achieved_rps : float;  (** answered / duration *)
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

val results_to_json : results -> Telemetry.Json.t

(** [run ?connections ?seed ?drain_timeout_s ?max_frame ~socket ~rps
    ~duration_s mix] offers [rps] requests per second for [duration_s]
    seconds against the daemon at [socket], drawing uniformly from
    [mix] (weight a request by repeating it), then waits up to
    [drain_timeout_s] (default 30) for outstanding responses.
    [connections] (default 4) sizes the pipelined connection pool;
    [seed] (default 42) fixes the arrival process and the mix draw, so
    a run is reproducible against a deterministic daemon.
    [max_retries] (default 0: report every [Overloaded] as a final
    outcome) re-sends a request rejected with [Overloaded] up to that
    many times, sleeping the daemon's [retry_after_ms] hint with capped
    exponential backoff and jitter between attempts; latency for a
    retried request is still measured from its original scheduled
    arrival, so retry delay shows up in the percentiles instead of
    being absorbed.
    @raise Invalid_argument on an empty mix, non-positive rate or
    duration, or negative [max_retries];
    @raise Unix.Unix_error when nothing serves at [socket]. *)
val run :
  ?connections:int ->
  ?seed:int ->
  ?drain_timeout_s:float ->
  ?max_frame:int ->
  ?max_retries:int ->
  socket:string ->
  rps:float ->
  duration_s:float ->
  Synthesis.Mce.Request.t list ->
  results
