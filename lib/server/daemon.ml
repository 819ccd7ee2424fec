open Synthesis
module Json = Telemetry.Json

let log_src = Logs.Src.create "qsynth.daemon" ~doc:"Synthesis daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_connections = Telemetry.Counter.create "server.connections"
let m_requests = Telemetry.Counter.create "server.requests"
let m_rejected = Telemetry.Counter.create "server.rejected.overload"
let m_shutdown_replies = Telemetry.Counter.create "server.rejected.shutdown"
let m_bad_frames = Telemetry.Counter.create "server.bad_frames"
let m_slow = Telemetry.Counter.create "server.slow_queries"
let g_queue_depth = Telemetry.Gauge.create "server.queue.depth"
let g_inflight = Telemetry.Gauge.create "server.inflight"
let g_drain_pending = Telemetry.Gauge.create "server.drain.pending"
let h_request = Telemetry.Histogram.create "server.request.seconds"

let retry_after_ms = 100

(* OCaml 5.1 runs at most 128 domains, the main one included. *)
let max_workers = 127

(* A connection's reads time out this often so its reader notices a
   drain; {!Protocol.Reader} drops a frame once 40 of its reads, 10 s,
   have timed out. *)
let conn_recv_timeout_s = 0.25

(* A connection is closed by whoever finishes last: the reader (on EOF
   or drain) when no queued response is still owed, else the worker that
   writes the final owed response.  Inline answers are written by the
   reader itself, so they are never owed. *)
type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t; (* serializes response frames *)
  cmutex : Mutex.t; (* guards pending/eof/closed *)
  mutable pending : int; (* responses owed by workers *)
  mutable eof : bool; (* reader is done with this connection *)
  mutable closed : bool;
}

type job = {
  j_req : Mce.Request.t;
  j_conn : conn;
  j_arrival : float;
  j_trace : string option; (* assigned at admission when observing *)
  j_depth : int option; (* queue depth at admission; [None]: answered inline *)
}

(* Per-request observability configuration: set when [serve] runs with
   [--trace-file] or [--slow-ms].  Requests then flow through
   {!Service.answer_timed}, get a trace id stamped into the response,
   and over-threshold requests are logged. *)
type obs = {
  o_slow_s : float option; (* threshold in seconds; [Some 0.] logs all *)
  o_slow_oc : out_channel;
  o_slow_mutex : Mutex.t;
}

type t = {
  service : Service.t;
  path : string;
  listen_fd : Unix.file_descr;
  max_frame : int;
  n_workers : int;
  queue_capacity : int;
  obs : obs option;
  trace_seq : int Atomic.t;
  trace_prefix : string;
  inflight : int Atomic.t; (* exact flips happen under qmutex *)
  queue : job Queue.t; (* guarded by qmutex *)
  qmutex : Mutex.t;
  qcond : Condition.t; (* workers sleep here; broadcast on push/drain *)
  draining : bool Atomic.t; (* authoritative flips happen under qmutex *)
  rmutex : Mutex.t; (* guards readers *)
  mutable readers : Thread.t list;
  mutable accepter : Thread.t option; (* immutable after start, in effect *)
  mutable workers : unit Domain.t list;
      (* spawned by the first queued job; guarded by qmutex *)
  wait_mutex : Mutex.t;
  mutable waited : bool;
}

let socket_path t = t.path
let draining t = Atomic.get t.draining

(* A trace id per admitted request, only when observing. *)
let trace_id t =
  match t.obs with
  | None -> None
  | Some _ ->
      Some
        (Printf.sprintf "%s-%06x" t.trace_prefix
           (Atomic.fetch_and_add t.trace_seq 1))

let conn_close_if_done c =
  Mutex.lock c.cmutex;
  let close_now = c.eof && c.pending = 0 && not c.closed in
  if close_now then c.closed <- true;
  Mutex.unlock c.cmutex;
  if close_now then try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_response t c (resp : Mce.Response.t) =
  let payload = Mce.Response.to_string resp in
  Mutex.lock c.wmutex;
  (try Protocol.write_frame ~max_len:t.max_frame c.fd payload
   with Unix.Unix_error _ | Invalid_argument _ ->
     (* client vanished (or response exceeds the frame cap — then the
        client's read fails anyway); nothing useful left to do *)
     ());
  Mutex.unlock c.wmutex

(* {1 Workers} *)

let outcome_of (resp : Mce.Response.t) =
  match resp.body with
  | Ok _ -> "ok"
  | Error (Mce.Response.Bad_request _) -> "bad-request"
  | Error (Mce.Response.Unsupported _) -> "unsupported"
  | Error (Mce.Response.Overloaded _) -> "overloaded"
  | Error Mce.Response.Deadline_exceeded -> "deadline-exceeded"
  | Error Mce.Response.Shutting_down -> "shutting-down"
  | Error Mce.Response.Cancelled -> "cancelled"
  | Error (Mce.Response.Internal _) -> "internal"

let slow_log obs job resp (timing : Service.timing) ~queue_wait_s ~write_s
    ~total_s =
  let line =
    Json.Obj
      ([ ("type", Json.String "slow_query") ]
      @ (match job.j_trace with
        | Some tr -> [ ("trace", Json.String tr) ]
        | None -> [])
      @ (match job.j_req.Mce.Request.id with
        | Some id -> [ ("id", Json.String id) ]
        | None -> [])
      @ [
          ("key", Json.String (Mce.Request.key job.j_req));
          ( "plan",
            match timing.Service.plan with
            | Some p -> Json.String p
            | None -> Json.Null );
          ( "source",
            Json.String
              (match timing.Service.source with
              | `Cache_hit -> "cache"
              | `Coalesced -> "coalesced"
              | `Computed -> "computed") );
          ("outcome", Json.String (outcome_of resp));
          ("queue_depth", Json.Int (Option.value job.j_depth ~default:0));
          ("queue_wait_s", Json.Float queue_wait_s);
          ("cache_s", Json.Float timing.Service.cache_s);
          ("coalesce_wait_s", Json.Float timing.Service.coalesce_wait_s);
          ("solve_s", Json.Float timing.Service.solve_s);
          ("write_s", Json.Float write_s);
          ("total_s", Json.Float total_s);
        ])
  in
  Mutex.lock obs.o_slow_mutex;
  output_string obs.o_slow_oc (Json.to_string line);
  output_char obs.o_slow_oc '\n';
  flush obs.o_slow_oc;
  Mutex.unlock obs.o_slow_mutex

(* The observed variant: keep the stage timing, build the request span
   tree, stamp the trace id into the response, and feed the slow-query
   log.  The unobserved path below drops the timing and builds no span.
   An inline answer was never queued: no [server.queue_wait] span, no
   wait to report. *)
let process_observed t obs job =
  let started = Unix.gettimeofday () in
  let queue_wait_s =
    match job.j_depth with Some _ -> started -. job.j_arrival | None -> 0.
  in
  let attrs =
    (match job.j_trace with
    | Some tr -> [ ("trace", Json.String tr) ]
    | None -> [])
    @ [ ("key", Json.String (Mce.Request.key job.j_req)) ]
    @
    match job.j_depth with
    | Some depth -> [ ("queue_depth", Json.Int depth) ]
    | None -> []
  in
  Telemetry.Span.with_span ~attrs "server.request" @@ fun () ->
  if job.j_depth <> None then
    Telemetry.Span.record "server.queue_wait" ~start_s:job.j_arrival
      ~dur_s:queue_wait_s;
  let resp, timing = Service.answer_timed t.service job.j_req in
  let resp = Mce.Response.with_trace job.j_trace resp in
  let write_t0 = Unix.gettimeofday () in
  Telemetry.Span.with_span "server.write" (fun () ->
      write_response t job.j_conn resp);
  let now = Unix.gettimeofday () in
  let write_s = now -. write_t0 in
  let total_s = now -. job.j_arrival in
  (match obs.o_slow_s with
  | Some threshold when total_s >= threshold ->
      Telemetry.Counter.incr m_slow;
      slow_log obs job resp timing ~queue_wait_s ~write_s ~total_s
  | Some _ | None -> ())

let respond t job =
  match t.obs with
  | None -> write_response t job.j_conn (Service.answer t.service job.j_req)
  | Some obs -> process_observed t obs job

let process t job =
  respond t job;
  Mutex.lock job.j_conn.cmutex;
  job.j_conn.pending <- job.j_conn.pending - 1;
  Mutex.unlock job.j_conn.cmutex;
  conn_close_if_done job.j_conn;
  Telemetry.Histogram.observe h_request (Unix.gettimeofday () -. job.j_arrival)

let rec worker_loop t =
  Mutex.lock t.qmutex;
  while Queue.is_empty t.queue && not (Atomic.get t.draining) do
    Condition.wait t.qcond t.qmutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.qmutex (* draining: exit *)
  else begin
    let job = Queue.pop t.queue in
    Telemetry.Gauge.set_int g_queue_depth (Queue.length t.queue);
    ignore (Atomic.fetch_and_add t.inflight 1);
    Telemetry.Gauge.set_int g_inflight (Atomic.get t.inflight);
    Mutex.unlock t.qmutex;
    Fun.protect
      ~finally:(fun () ->
        ignore (Atomic.fetch_and_add t.inflight (-1));
        Telemetry.Gauge.set_int g_inflight (Atomic.get t.inflight);
        if Atomic.get t.draining then Telemetry.Gauge.add g_drain_pending (-1.))
      (fun () -> process t job);
    worker_loop t
  end

(* {1 Readers} *)

let error_response (req : Mce.Request.t) err : Mce.Response.t =
  { id = req.Mce.Request.id; trace = None; qubits = req.Mce.Request.qubits; body = Error err }

let undecodable_response msg : Mce.Response.t =
  { id = None; trace = None; qubits = 0; body = Error (Mce.Response.Bad_request msg) }

let shutting_down t conn req =
  Telemetry.Counter.incr m_shutdown_replies;
  write_response t conn (error_response req Mce.Response.Shutting_down)

(* Index-first requests are answered right here on the connection's
   reader, so they never wait for a worker and never get [Overloaded];
   during a drain they get [Shutting_down] like a queued request.  All
   readers share domain 0: on a 2-vCPU host this cut lock-step latency
   and held throughput over several pipelined connections, but raised
   their p99 (doc/PERFORMANCE.md, "Several connections").
   An index reload between the admission check and the answer can turn
   the request into a search run here, holding domain 0 for every
   reader until it ends. *)
let answer_inline t conn req arrival =
  if Atomic.get t.draining then shutting_down t conn req
  else begin
    Telemetry.Counter.incr m_requests;
    respond t
      { j_req = req; j_conn = conn; j_arrival = arrival; j_trace = trace_id t;
        j_depth = None };
    Telemetry.Histogram.observe h_request (Unix.gettimeofday () -. arrival)
  end

(* Spawn the missing worker domains; called under qmutex.  [Error] only
   when none runs: with at least one, the queue still drains and a later
   job retries the rest. *)
let spawn_workers t =
  match
    while List.compare_length_with t.workers t.n_workers < 0 do
      t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
    done
  with
  | () -> Ok ()
  | exception e ->
      let msg = "cannot start a worker domain: " ^ Printexc.to_string e in
      Log.warn (fun m -> m "%s (%d running)" msg (List.length t.workers));
      if t.workers = [] then Error msg else Ok ()

(* Enqueue under qmutex so the drain transition is race-free: a job
   pushed here is visible to the workers before they can observe
   "draining && empty" and exit.  The first queued job spawns the worker
   domains, so a daemon that only answers from its index runs none. *)
let enqueue t conn req arrival =
  let admitted =
    Mutex.protect t.qmutex @@ fun () ->
    if Atomic.get t.draining then `Draining
    else if Queue.length t.queue >= t.queue_capacity then `Full
    else
      match spawn_workers t with
      | Error msg -> `No_worker msg
      | Ok () ->
          Mutex.protect conn.cmutex (fun () -> conn.pending <- conn.pending + 1);
          let depth = Queue.length t.queue in
          Queue.push
            { j_req = req; j_conn = conn; j_arrival = arrival;
              j_trace = trace_id t; j_depth = Some depth }
            t.queue;
          Telemetry.Gauge.set_int g_queue_depth (Queue.length t.queue);
          Telemetry.Counter.incr m_requests;
          Condition.signal t.qcond;
          `Queued
  in
  match admitted with
  | `Queued -> ()
  | `Draining -> shutting_down t conn req
  | `Full ->
      Telemetry.Counter.incr m_rejected;
      write_response t conn
        (error_response req (Mce.Response.Overloaded { retry_after_ms }))
  | `No_worker msg ->
      write_response t conn (error_response req (Mce.Response.Internal msg))

let handle_frame t conn payload =
  let arrival = Unix.gettimeofday () in
  match Json.of_string payload with
  | exception Json.Parse_error msg ->
      Telemetry.Counter.incr m_bad_frames;
      write_response t conn (undecodable_response ("invalid JSON: " ^ msg))
  | json -> (
      match Mce.Request.of_json json with
      | Error msg ->
          Telemetry.Counter.incr m_bad_frames;
          write_response t conn (undecodable_response msg)
      | Ok req ->
          if Service.index_first t.service req then
            answer_inline t conn req arrival
          else enqueue t conn req arrival)

let rec retry_select fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_select fd timeout

let reader t conn =
  let finish () =
    Mutex.lock conn.cmutex;
    conn.eof <- true;
    Mutex.unlock conn.cmutex;
    conn_close_if_done conn
  in
  let frames = Protocol.Reader.create ~max_len:t.max_frame conn.fd in
  (* On drain: answer the frames already buffered or arriving within one
     receive timeout with Shutting_down (answer_inline and enqueue do
     that once draining is set), then hang up — clients blocked on a
     response they are owed still get it from the workers before the
     connection closes. *)
  let rec drain_sweep () =
    match Protocol.Reader.next frames with
    | Protocol.Reader.Frame payload ->
        handle_frame t conn payload;
        drain_sweep ()
    | Protocol.Reader.(Idle | Failed _) -> ()
  in
  let rec loop () =
    if Atomic.get t.draining then drain_sweep ()
    else
      match Protocol.Reader.next frames with
      | Protocol.Reader.Frame payload ->
          handle_frame t conn payload;
          loop ()
      | Protocol.Reader.Idle -> loop ()
      | Protocol.Reader.Failed Protocol.Closed -> ()
      | Protocol.Reader.Failed e ->
          Telemetry.Counter.incr m_bad_frames;
          Log.debug (fun m ->
              m "dropping connection: %s" (Protocol.read_error_to_string e))
  in
  Fun.protect ~finally:finish loop

(* {1 Accepting} *)

let accept_loop t =
  let rec go () =
    if not (Atomic.get t.draining) then
      if not (retry_select t.listen_fd 0.25) then go ()
      else
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ ->
            Telemetry.Counter.incr m_connections;
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO conn_recv_timeout_s;
            let conn =
              {
                fd;
                wmutex = Mutex.create ();
                cmutex = Mutex.create ();
                pending = 0;
                eof = false;
                closed = false;
              }
            in
            let th = Thread.create (reader t) conn in
            Mutex.lock t.rmutex;
            t.readers <- th :: t.readers;
            Mutex.unlock t.rmutex;
            go ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
            go ()
    (* draining: fall through and tear the listener down *)
  in
  go ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.path with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "stopped accepting; %s unlinked" t.path)

let bind_socket path =
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      (* a socket file already exists: live daemon or stale leftover? *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close probe;
          failwith (Printf.sprintf "%s: a daemon is already serving here" path)
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
          Unix.close probe;
          Log.info (fun m -> m "replacing stale socket %s" path);
          Unix.unlink path
      | exception e ->
          Unix.close probe;
          raise e)
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  Unix.listen fd 64;
  fd

(* {1 Lifecycle} *)

let start ?(workers = 2) ?(queue_capacity = 64)
    ?(max_frame = Protocol.default_max_frame) ?slow_ms ?(slow_oc = stderr)
    ?(trace = false) ~socket service =
  if workers < 1 then invalid_arg "Daemon.start: workers must be >= 1";
  if workers > max_workers then
    invalid_arg
      (Printf.sprintf "Daemon.start: workers must be <= %d" max_workers);
  if queue_capacity < 1 then invalid_arg "Daemon.start: queue_capacity must be >= 1";
  if max_frame < 1 then invalid_arg "Daemon.start: max_frame must be >= 1";
  (match slow_ms with
  | Some n when n < 0 -> invalid_arg "Daemon.start: slow_ms must be >= 0"
  | _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let obs =
    if trace || slow_ms <> None then
      Some
        {
          o_slow_s = Option.map (fun ms -> float_of_int ms /. 1000.) slow_ms;
          o_slow_oc = slow_oc;
          o_slow_mutex = Mutex.create ();
        }
    else None
  in
  let listen_fd = bind_socket socket in
  let t =
    {
      service;
      path = socket;
      listen_fd;
      max_frame;
      n_workers = workers;
      queue_capacity;
      obs;
      trace_seq = Atomic.make 0;
      trace_prefix =
        Printf.sprintf "%x-%x" (Unix.getpid ())
          (int_of_float (Unix.gettimeofday () *. 1000.) land 0xffffff);
      inflight = Atomic.make 0;
      queue = Queue.create ();
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      draining = Atomic.make false;
      rmutex = Mutex.create ();
      readers = [];
      accepter = None;
      workers = [];
      wait_mutex = Mutex.create ();
      waited = false;
    }
  in
  t.accepter <- Some (Thread.create accept_loop t);
  Log.app (fun m ->
      m "serving on %s (%d workers, queue %d)" socket workers queue_capacity);
  t

let stop t =
  Mutex.lock t.qmutex;
  let fresh = not (Atomic.get t.draining) in
  if fresh then begin
    (* Everything accepted but unanswered at this instant; decremented
       per answered job so monitors can watch the drain converge. *)
    Telemetry.Gauge.set_int g_drain_pending
      (Queue.length t.queue + Atomic.get t.inflight)
  end;
  Atomic.set t.draining true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex;
  if fresh then Log.app (fun m -> m "drain requested")

let wait t =
  Mutex.lock t.wait_mutex;
  if t.waited then Mutex.unlock t.wait_mutex
  else begin
    (* Join in dependency order: the accepter stops creating readers,
       the workers answer every accepted job, the readers observe EOF or
       the drain and hang up.  Once draining, no job spawns a worker. *)
    (match t.accepter with None -> () | Some th -> Thread.join th);
    List.iter Domain.join (Mutex.protect t.qmutex (fun () -> t.workers));
    let readers = Mutex.protect t.rmutex (fun () -> t.readers) in
    List.iter Thread.join readers;
    t.waited <- true;
    Mutex.unlock t.wait_mutex;
    Log.app (fun m -> m "drained: every accepted request answered")
  end
