(** The paper's Minimum_Cost_Expressing algorithm (MCE), behind the
    unified query API shared by every transport.

    Given a reversible specification g, strip a free input-side layer of
    NOT gates d0 so that the remainder fixes the all-zero pattern
    (Theorem 2: H = ⋃_{a∈N} a·G), then find a cascade
    g = d0 * d1 * ... * dt of minimal t (Theorem 3).

    One request record ({!Request.t}) describes any question the engine
    answers — minimal cascade, witness count, full realization list —
    and one response record ({!Response.t}) carries the structured
    answer: the payload, the plan actually used, and either an exact
    cost certificate or a typed error.  {!solve} evaluates a request
    against whatever engine resources the caller holds (a
    {!Census_index}, a {!Bidir} context, or nothing but the
    library).  The same pair travels over all four transports: the
    one-shot [qsynth synth --json] command, the [qsynth serve] daemon's
    socket protocol, the [qsynth query] client, and [qsynth batch]
    JSONL files — see doc/API.md for the wire schema.

    Three execution plans produce a synthesis answer, tried cheapest
    first under {!Request.plan} [Auto]:
    - a {!Census_index} lookup (exact cost + witness, no search; a miss
      proves a cost lower bound, and certifies unrealizability outright
      when the index horizon covers the depth bound);
    - the meet-in-the-middle engine ({!Bidir}), when the caller supplies
      a context (one-shot [synth --bidir]);
    - the forward BFS of the paper, as always. *)

type result = {
  target : Reversible.Revfun.t;
  not_mask : int;
      (** d0: wires to invert at the input, bit [w] = wire [w]'s NOT
          (wire 0 = qubit A = most significant pattern bit) *)
  cascade : Cascade.t; (** d1 .. dt, applied after the NOT layer *)
  cost : int; (** t, the quantum cost (NOT gates are free) *)
}

(** [strip_not_layer target] is the pair (mask, remainder) with
    [target = xor_layer mask ∘ remainder] and [remainder] fixing zero. *)
val strip_not_layer : Reversible.Revfun.t -> int * Reversible.Revfun.t

(** {1 The unified query API} *)

module Request : sig
  (** Which engine may answer.  [Auto] picks the cheapest sound plan
      available (index, then bidir, then forward); the other values pin
      one engine and fail with [Unsupported] when the evaluator does not
      hold it. *)
  type plan = Auto | Index | Bidir | Forward

  type task =
    | Synthesize  (** one minimal-cost cascade (the default) *)
    | Count_witnesses
        (** how many distinct full-domain circuit permutations of
            minimal cost restrict to the target, counted over the
            target image's minimal-prefix sub-DAG
            ({!Search.count_point_perms}; forward plan only) *)
    | Enumerate of { limit : int }
        (** every minimal-cost realization, up to [limit] (forward plan
            only) *)

  type t = {
    id : string option;
        (** client correlation token, echoed verbatim in the response;
            not part of the canonical {!key} *)
    qubits : int;
    library : string;
        (** census universe the request targets, a {!Library.Registry}
            name; defaults to {!Library.default_name} and is omitted
            from the wire encoding at that default.  An engine built for
            a different library answers [Bad_request]. *)
    spec : string;
        (** the target, in any syntax {!Reversible.Spec.parse} accepts:
            a name ("toffoli"), cycles ("(7,8)"), formulas, or a
            truth-table output column ("0,1,2,3,4,5,7,6") *)
    task : task;
    max_depth : int;  (** the cost bound (the paper's cb) *)
    plan : plan;
    deadline_ms : int option;
        (** per-request compute budget, enforced cooperatively by the
            daemon; ignored by one-shot evaluation.  Not part of
            {!key}. *)
  }

  val make :
    ?id:string ->
    ?qubits:int ->
    ?library:string ->
    ?task:task ->
    ?max_depth:int ->
    ?plan:plan ->
    ?deadline_ms:int ->
    string ->
    t
  (** [make spec] with defaults [qubits = 3],
      [library = Library.default_name], [task = Synthesize],
      [max_depth = 7], [plan = Auto], no id, no deadline.  The library
      name is {e not} validated here; {!of_json} and {!solve} are the
      validation boundaries. *)

  val equal : t -> t -> bool

  (** [key t] is the canonical cache/coalescing key: two requests with
      equal keys are answered identically by the same engine, so the
      daemon shares one computation (and one cached response body)
      between them.  The key canonicalizes the spec to the parsed
      function's truth-table output column when it parses, always spells
      out the library name (so the same spec under different universes
      never shares a cache line), and omits [id] and [deadline_ms]. *)
  val key : t -> string

  (** [target t] parses the spec. *)
  val target : t -> (Reversible.Revfun.t, string) Stdlib.result

  val to_json : t -> Telemetry.Json.t

  (** [of_json j] decodes a request; unknown fields are rejected so a
      typo'd field name cannot silently change a query's meaning, and a
      [library] value outside {!Library.Registry.names} is rejected
      here, at the parse boundary (the daemon maps that to
      [Bad_request]), as is a [qubits] value outside
      [1..Mvl.Encoding.max_qubits] — the spec is parsed against a
      [2^qubits] domain, so an unbounded width must never reach
      {!key} or {!target}.  Missing optional fields take the {!make}
      defaults.  [of_json (to_json t) = Ok t] for every [t] whose
      library is registered and whose width is in range. *)
  val of_json : Telemetry.Json.t -> (t, string) Stdlib.result
end

module Response : sig
  (** The plan that actually produced the answer (the request's [Auto]
      resolves to one of these). *)
  type plan_used =
    | Trivial  (** the remainder is the identity: a NOT layer alone *)
    | Index_hit  (** answered by a {!Census_index} binary search *)
    | Index_certified
        (** a {!Census_index} miss whose horizon covers the depth bound:
            unrealizability is proven without any search *)
    | Bidir_meet  (** the meet-in-the-middle engine *)
    | Forward_bfs  (** the paper's forward BFS *)

  type payload =
    | Synthesized of {
        target : Reversible.Revfun.t;
        not_mask : int;
        cascade : Cascade.t;
        cost : int;  (** exact minimal cost — a certificate, not a bound *)
      }
    | Unrealizable of { max_depth : int }
        (** certified: no realization of cost [<= max_depth] exists *)
    | Witnesses of { count : int }  (** 0 = none within the depth bound *)
    | Realizations of {
        target : Reversible.Revfun.t;
        not_mask : int;
        cost : int;
        cascades : Cascade.t list;
        complete : bool;
            (** false when the enumeration stopped at the request's
                [limit]; the list is then a prefix of the full set *)
      }

  type error =
    | Bad_request of string  (** malformed request or unparsable spec *)
    | Unsupported of string
        (** the pinned plan is not available on this evaluator *)
    | Overloaded of { retry_after_ms : int }
        (** daemon queue full — retry after the hinted delay *)
    | Deadline_exceeded  (** the request's [deadline_ms] budget expired *)
    | Shutting_down  (** daemon draining; re-submit elsewhere or later *)
    | Cancelled  (** cooperative cancellation (SIGINT on one-shot runs) *)
    | Internal of string

  type ok = { plan : plan_used; payload : payload }

  type t = {
    id : string option;  (** echoed from the request *)
    trace : string option;
        (** server-assigned trace id, stamped by the daemon only when
            tracing is active ([serve --trace-file]/[--slow-ms]) so
            clients can correlate a response with the server-side trace;
            [None] everywhere else — one-shot evaluation never sets it,
            keeping daemon and one-shot bytes identical by default *)
    qubits : int;
    body : (ok, error) Stdlib.result;
  }

  val equal : t -> t -> bool

  (** [plan_to_string p] is the wire name of [p] ("trivial", "index",
      "index-certified", "bidir", "forward") — also the value of the
      slow-query log's [plan] field. *)
  val plan_to_string : plan_used -> string

  (** [with_id id t] re-stamps the correlation token (the daemon caches
      response bodies and re-stamps each requester's id). *)
  val with_id : string option -> t -> t

  (** [with_trace trace t] re-stamps the trace id (cached bodies store
      [None]; the daemon stamps per delivery). *)
  val with_trace : string option -> t -> t

  (** [of_json j] decodes a parsed response document.  Cascades and
      targets are re-parsed, so a structurally valid document with an
      ill-formed cascade string is an [Error]. *)
  val of_json : Telemetry.Json.t -> (t, string) Stdlib.result

  (** [to_string t] is the canonical one-line wire encoding: compact
      (no insignificant whitespace), fields in fixed order — equal
      responses encode to equal bytes on every transport.  Written
      straight into one buffer; no intermediate {!Telemetry.Json.t}. *)
  val to_string : t -> string

  (** [of_string s] parses and decodes; [of_string (to_string t) = Ok t]. *)
  val of_string : string -> (t, string) Stdlib.result

  (** [result_of t] extracts a {!result} from a [Synthesized] body. *)
  val result_of : t -> result option
end

(** [solve ?jobs ?should_stop ?index ?bidir library request] evaluates a
    request against the caller's engine resources and never raises:
    every failure mode is a typed {!Response.error}.  It is the only
    code that computes an answer; every transport and every wrapper
    below goes through it.

    [index] serves known functions in O(log n) and turns misses into
    proven lower bounds.  A {e complete} index
    ({!Census_index.is_complete}) answers every realizable request as
    [Index_hit] and never falls through to a search — an impossible miss
    on one is reported as [Internal], not silently searched.  On a
    {e partial} index, the first miss that does fall through logs the
    index horizon and the chosen engine once per process and bumps the
    [mce.plan.fallback_reason] counter.  [bidir] is a meet-in-the-middle
    context ({!Bidir.create}, built for the same library); with it a
    query can certify costs up to [max_depth] even beyond the forward
    engine's practical depth.  With neither, the original forward BFS
    runs.  [jobs] (default 1) is the forward BFS worker-domain count; it
    does not affect results (see {!Search.create}).

    [should_stop] is a cooperative cancellation flag polled between
    levels and between expansion chunks; when it fires the evaluation
    stops cleanly with the [Cancelled] error (the daemon maps its
    deadline watchdog onto it and reports [Deadline_exceeded]).

    Determinism: with a fixed library and index file and no [bidir]
    context, [solve] is a pure function of the request — the property
    the daemon's response cache and the cross-transport byte-identity
    tests rely on.  A {!Bidir} context grows its forward wave across
    queries, so the witness it returns (never the cost) may depend on
    the queries it answered before. *)
val solve :
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  ?index:Census_index.t ->
  ?bidir:Bidir.t ->
  Library.t ->
  Request.t ->
  Response.t

(** {1 One-request wrappers}

    Each builds one {!Request.t} for a parsed target (its truth-table
    column, the library's name and width, [max_depth] default 7) and
    answers it with {!solve}. *)

(** [express] is task [Synthesize]: [Some] minimal realization, [None]
    when none exists within [max_depth] (or on any error). *)
val express :
  ?max_depth:int ->
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  ?index:Census_index.t ->
  ?bidir:Bidir.t ->
  Library.t ->
  Reversible.Revfun.t ->
  result option

(** [all_realizations] is task [Enumerate { limit }] ([limit] default
    10_000): up to [limit] minimal realizations, [[]] when none exists
    within [max_depth] (or on any error). *)
val all_realizations :
  ?max_depth:int ->
  ?limit:int ->
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  Library.t ->
  Reversible.Revfun.t ->
  result list

(** [distinct_witnesses] is task [Count_witnesses]: the witness count,
    0 when none exists within [max_depth] (or on any error). *)
val distinct_witnesses :
  ?max_depth:int ->
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  Library.t ->
  Reversible.Revfun.t ->
  int
