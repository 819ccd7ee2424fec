(** In-process telemetry for the synthesis engine: counters, gauges,
    log-bucketed histograms, per-level series, monotonic timers and
    nestable named spans, with pluggable sinks (a human-readable reporter
    through {!Logs} and a JSON-lines span exporter).

    Design constraints (see doc/OBSERVABILITY.md):
    - zero dependencies beyond [unix], [threads] and [logs];
    - a single global switch ({!set_enabled}); while disabled every
      operation is a one-branch no-op, so library users pay nothing by
      default;
    - instruments register themselves once by name at module
      initialization — {!create} is find-or-create, so re-registration
      returns the existing instrument;
    - domain-safe hot paths: counters and gauges are single atomics;
      histogram/series writes and registration take a short
      per-instrument (resp. registry) mutex; spans keep one open-span
      stack per thread, so concurrent domains, and the systhreads
      sharing one domain, each record their own span trees into the
      shared forest.  {!snapshot},
      {!reset} and {!log_summary} remain monitoring-grade: call them
      from one thread at a time (the CLI does so at exit).

    The registry is global and process-wide.  {!snapshot} captures every
    registered instrument as one JSON document — the payload written by
    [qsynth --metrics FILE] and embedded in [BENCH_*.json]. *)

module Json = Json

(** {1 Global switch} *)

val enabled : unit -> bool

(** [set_enabled b] turns recording on or off globally (default: off).
    [~spans:false] with [b = true] records instruments only: every
    {!Span} operation stays a no-op, for a process that exports its
    instruments (a metrics endpoint) and no span trees. *)
val set_enabled : ?spans:bool -> bool -> unit

(** [now_s ()] is the wall-clock in seconds (the time base of all spans
    and timers). *)
val now_s : unit -> float

(** {1 Instruments} *)

module Counter : sig
  type t

  (** [create name] finds or registers the counter [name]. *)
  val create : string -> t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val create : string -> t
  val set : t -> float -> unit
  val set_int : t -> int -> unit

  (** [add g d] atomically adds [d] (possibly negative) to the gauge —
      the shape used by in-flight / pending-work gauges. *)
  val add : t -> float -> unit

  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  (** [create ?lo ?buckets name] finds or registers a histogram whose
      bucket [i] counts observations [v] with
      [lo *. 2.^(i-1) < v <= lo *. 2.^i] (bucket 0 catches [v <= lo];
      the last bucket catches overflow).  Defaults suit durations in
      seconds: [lo = 1e-6] (1 µs) and [buckets = 28] (~134 s). *)
  val create : ?lo:float -> ?buckets:int -> string -> t

  val observe : t -> float -> unit

  (** [time h f] runs [f ()] and observes its wall-clock duration; when
      telemetry is disabled it is exactly [f ()]. *)
  val time : t -> (unit -> 'a) -> 'a

  val count : t -> int
  val sum : t -> float
  val min_value : t -> float (** [nan] until the first observation *)

  val max_value : t -> float (** [nan] until the first observation *)

  (** [buckets h] lists the non-empty buckets as [(upper_bound, count)];
      the overflow bucket reports [infinity] as its bound. *)
  val buckets : t -> (float * int) list

  (** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) by
      linear interpolation inside the log-spaced bucket that contains
      the target rank, clamped to the observed [min]/[max]; [nan] while
      the histogram is empty.  The estimate is monitoring-grade: its
      error is bounded by the width of one bucket (a factor of 2). *)
  val quantile : t -> float -> float

  val name : t -> string
end

module Series : sig
  (** A named integer vector indexed by a small non-negative index —
      the natural shape for per-level BFS statistics (G[k], frontier
      sizes, orbit growth).  Re-running the producer overwrites the
      previous values. *)

  type t

  val create : string -> t
  val set : t -> index:int -> int -> unit
  val get : t -> index:int -> int option
  val to_list : t -> int list
  val name : t -> string
end

(** {1 Spans} *)

module Span : sig
  (** [with_span ?attrs name f] runs [f ()] inside a named span nested
      under the currently open span.  Disabled mode runs [f] directly.
      The spans kept in memory for {!snapshot} are capped process-wide
      (see {!val-max_spans}); beyond the cap a span is still written to
      the JSONL sink and the live trace, and without either of them [f]
      simply runs. *)
  val with_span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

  (** [set_attr key v] attaches an attribute to the innermost open span
      (replacing any previous binding of [key]); no-op when disabled or
      outside any span. *)
  val set_attr : string -> Json.t -> unit

  (** [record ?attrs name ~start_s ~dur_s] records an already-finished
      span backdated to [start_s] — the shape needed for phases whose
      duration is only known after the fact, such as the time a request
      spent queued before a worker picked it up.  The span nests under
      the currently open span (if any) and is exported to the JSON-lines
      sink immediately.  Subject to the same cap as {!with_span}. *)
  val record :
    ?attrs:(string * Json.t) list -> string -> start_s:float -> dur_s:float -> unit

  (** Cap on the number of spans kept in memory (until {!reset}); it does
      not bound the spans streamed to {!set_jsonl}'s sink. *)
  val max_spans : int
end

(** {1 Sinks} *)

(** [set_trace b] mirrors span open/close events to stderr as a live
    indented tree ([qsynth --trace]). *)
val set_trace : bool -> unit

(** [set_jsonl oc] exports every {e closed} span to [oc] as one JSON
    object per line ([{"type":"span","name":...,"depth":...,
    "start_s":...,"dur_s":...,"attrs":{...}}]); [None] (default)
    disables the exporter.  A span without a ["trace"] attribute
    inherits the one of its nearest open ancestor, so every line of a
    request trace carries the request's trace id.  The channel is
    flushed per line and is not closed by this module. *)
val set_jsonl : out_channel option -> unit

(** [log_summary ()] reports every instrument and top-level span through
    {!Logs} at info level on the [qsynth.telemetry] source — the
    human-readable sink. *)
val log_summary : unit -> unit

val log_src : Logs.src

(** {1 Prometheus exposition} *)

module Prometheus : sig
  (** Text exposition (format 0.0.4) over the whole registry, the
      payload of the daemon's [/metrics] endpoint.  Instrument names are
      sanitized ([.] becomes [_]) and prefixed with [qsynth_]; counters
      gain the conventional [_total] suffix; histograms render their
      cumulative [_bucket{le="..."}] lines (ending at [+Inf]) plus
      [_sum]/[_count]; series render as a gauge family with an [index]
      label.  Families are emitted counters–gauges–histograms–series,
      each group sorted by name, so output is deterministic. *)

  (** [render ()] is the full exposition document. *)
  val render : unit -> string

  (** The HTTP [Content-Type] for {!render}'s output. *)
  val content_type : string

  (** [sanitize_name s] maps an instrument name to a valid Prometheus
      metric name (without the [qsynth_] prefix). *)
  val sanitize_name : string -> string

  (** [escape_label_value s] escapes backslash, double-quote and
      newline for use inside a label value. *)
  val escape_label_value : string -> string
end

(** {1 Snapshot} *)

(** [snapshot ()] captures all registered instruments:
    [{"counters":{..}, "gauges":{..}, "histograms":{..}, "series":{..},
      "spans":[..]}] — instrument maps are sorted by name; histograms
    include derived [p50]/[p90]/[p99] quantile estimates; the span
    forest is in recording order. *)
val snapshot : unit -> Json.t

(** [write_snapshot path] pretty-prints {!snapshot} to [path]. *)
val write_snapshot : string -> unit

(** [reset ()] zeroes every instrument and drops all recorded spans;
    registrations (and the enabled switch) survive. *)
val reset : unit -> unit
