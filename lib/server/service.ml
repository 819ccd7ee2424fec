open Synthesis

let log_src = Logs.Src.create "qsynth.service" ~doc:"Synthesis service"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_cache_hit = Telemetry.Counter.create "server.cache.hit"
let m_cache_miss = Telemetry.Counter.create "server.cache.miss"
let m_coalesced = Telemetry.Counter.create "server.coalesced"
let m_deadline = Telemetry.Counter.create "server.deadline"
let g_cache_size = Telemetry.Gauge.create "server.cache.size"
let g_coverage = Telemetry.Gauge.create "server.index.coverage"
let h_answer = Telemetry.Histogram.create "server.answer.seconds"

(* LRU cache: an intrusive cyclic doubly-linked list threaded through a
   hashtable.  The sentinel closes the cycle; sentinel.next is the most
   recently used node, sentinel.prev the eviction candidate. *)
module Lru = struct
  type node = {
    key : string;
    mutable value : Mce.Response.t;
    mutable prev : node;
    mutable next : node;
  }

  type t = {
    capacity : int;
    table : (string, node) Hashtbl.t;
    sentinel : node;
  }

  let dummy_response : Mce.Response.t =
    { id = None; trace = None; qubits = 0; body = Error (Mce.Response.Internal "sentinel") }

  let create capacity =
    let rec sentinel =
      { key = ""; value = dummy_response; prev = sentinel; next = sentinel }
    in
    { capacity; table = Hashtbl.create (max 16 capacity); sentinel }

  let unlink n =
    n.prev.next <- n.next;
    n.next.prev <- n.prev

  let push_front t n =
    n.next <- t.sentinel.next;
    n.prev <- t.sentinel;
    t.sentinel.next.prev <- n;
    t.sentinel.next <- n

  let find t key =
    match Hashtbl.find_opt t.table key with
    | None -> None
    | Some n ->
        unlink n;
        push_front t n;
        Some n.value

  (* Empty the cache in place: reclose the sentinel cycle and drop the
     table.  Used when the index is hot-swapped — cached responses may
     embed answers the old index produced. *)
  let clear t =
    Hashtbl.reset t.table;
    t.sentinel.next <- t.sentinel;
    t.sentinel.prev <- t.sentinel;
    Telemetry.Gauge.set_int g_cache_size 0

  let put t key value =
    if t.capacity > 0 then begin
      (match Hashtbl.find_opt t.table key with
      | Some n ->
          n.value <- value;
          unlink n;
          push_front t n
      | None ->
          let rec n = { key; value; prev = n; next = n } in
          push_front t n;
          Hashtbl.add t.table key n;
          if Hashtbl.length t.table > t.capacity then begin
            let victim = t.sentinel.prev in
            unlink victim;
            Hashtbl.remove t.table victim.key
          end);
      Telemetry.Gauge.set_int g_cache_size (Hashtbl.length t.table)
    end
end

(* One in-flight computation; followers block on the condition until the
   leader publishes the shared body. *)
type flight = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_result : Mce.Response.t option;
}

(* One evaluation engine per configured library: the library and an
   index.  The primary engine (head of [engines]) owns the index; the
   secondary engines answer their universe with a forward BFS — exactly
   what a one-shot [synth --library NAME] does, so daemon and one-shot
   answers stay byte-identical per library. *)
type engine = {
  e_library : Library.t;
  e_index : Census_index.t option Atomic.t;
      (* atomically swappable (SIGHUP hot reload); readers take one
         consistent snapshot per request with [Atomic.get] *)
}

type t = {
  engines : (string * engine) list; (* head = primary; keyed by library name *)
  jobs : int;
  index_verify : Census_index.verification;
  mutex : Mutex.t; (* guards cache + inflight *)
  cache : Lru.t;
  inflight : (string, flight) Hashtbl.t;
}

let primary t = snd (List.hd t.engines)

let publish_coverage index =
  Telemetry.Gauge.set_int g_coverage
    (match index with Some idx -> Census_index.coverage idx | None -> 0)

let create ?(jobs = 1) ?index ?(cache_capacity = 1024)
    ?(index_verify = Census_index.Sample) ?(libraries = []) library =
  if cache_capacity < 0 then invalid_arg "Service.create: negative cache_capacity";
  if jobs < 1 then invalid_arg "Service.create: jobs must be >= 1";
  publish_coverage index;
  let engine library index = { e_library = library; e_index = Atomic.make index } in
  let primary_name = Library.name library in
  (* first binding wins on duplicate secondary names, like List.assoc_opt
     at routing time; a secondary named like the primary is ignored *)
  let secondary =
    List.fold_left
      (fun acc lib ->
        let name = Library.name lib in
        if String.equal name primary_name || List.mem_assoc name acc then acc
        else begin
          Log.info (fun m ->
              m "secondary engine: library %s (%d gates, cold forward BFS)"
                name (Library.size lib));
          (name, engine lib None) :: acc
        end)
      [] libraries
    |> List.rev
  in
  {
    engines = (primary_name, engine library index) :: secondary;
    jobs;
    index_verify;
    mutex = Mutex.create ();
    cache = Lru.create cache_capacity;
    inflight = Hashtbl.create 64;
  }

let library t = (primary t).e_library
let libraries t = List.map fst t.engines

let index_status t =
  match Atomic.get (primary t).e_index with
  | None -> None
  | Some idx ->
      Some
        ( Census_index.size idx,
          Census_index.depth idx,
          Census_index.coverage idx,
          Census_index.is_complete idx )

(* Hot index reload: validate the replacement fully (Census_index.load
   checks magic, CRC and the library fingerprint — Corrupt/Mismatch
   escape to the caller and the old index stays in place), then publish
   it and drop the response cache in one critical section so no later
   answer mixes old cached bodies with new index lookups.  In-flight
   requests that already snapshotted the old index finish against it —
   both indexes answer with the same exact costs, only the horizon
   differs. *)
let reload_index t path =
  let engine = primary t in
  let index = Census_index.load ~verify:t.index_verify engine.e_library path in
  Mutex.protect t.mutex (fun () ->
      Atomic.set engine.e_index (Some index);
      Lru.clear t.cache);
  publish_coverage (Some index);
  Log.info (fun m ->
      m "index reloaded from %s: %d functions, exact to cost %d%s" path
        (Census_index.size index) (Census_index.depth index)
        (if Census_index.is_complete index then ", complete" else ""));
  (Census_index.size index, Census_index.depth index)

let no_stop () = false

(* Transient outcomes depend on timing, not on the request: sharing
   them through the cache would replay one caller's bad luck forever. *)
let cacheable (resp : Mce.Response.t) =
  match resp.body with
  | Ok _ | Error (Mce.Response.Bad_request _) | Error (Mce.Response.Unsupported _)
    ->
      true
  | Error
      ( Mce.Response.Overloaded _ | Mce.Response.Deadline_exceeded
      | Mce.Response.Shutting_down | Mce.Response.Cancelled
      | Mce.Response.Internal _ ) ->
      false

let evaluate t ~should_stop (req : Mce.Request.t) =
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      req.Mce.Request.deadline_ms
  in
  let deadline_hit () =
    match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  let stop () = should_stop () || deadline_hit () in
  let resp =
    match List.assoc_opt req.Mce.Request.library t.engines with
    | None ->
        (* deterministic per configuration, so cacheable like any other
           Bad_request *)
        {
          Mce.Response.id = req.Mce.Request.id;
          trace = None;
          qubits = req.Mce.Request.qubits;
          body =
            Error
              (Mce.Response.Bad_request
                 (Printf.sprintf
                    "this daemon serves libraries %s; the request asks for %s"
                    (String.concat ", " (List.map fst t.engines))
                    req.Mce.Request.library));
        }
    | Some engine -> (
        try
          Mce.solve ~jobs:t.jobs ~should_stop:stop
            ?index:(Atomic.get engine.e_index) engine.e_library req
        with exn ->
          {
            Mce.Response.id = req.Mce.Request.id;
            trace = None;
            qubits = req.Mce.Request.qubits;
            body = Error (Mce.Response.Internal (Printexc.to_string exn));
          })
  in
  match resp.Mce.Response.body with
  | Error Mce.Response.Cancelled when deadline_hit () && not (should_stop ()) ->
      Telemetry.Counter.incr m_deadline;
      { resp with body = Error Mce.Response.Deadline_exceeded }
  | _ -> resp

(* Index-first admission: a synthesis request the primary engine's
   complete index answers by itself.  The index already is the cache —
   an O(log n) probe that never misses — so such a request builds no
   key, takes no lock and joins no flight; {!evaluate} answers it
   directly.  Everything else (search answers, pinned bidir/forward
   plans, counting, enumeration, secondary libraries) stays keyed. *)
let index_first t (req : Mce.Request.t) =
  match (req.task, req.plan) with
  | Mce.Request.Synthesize, (Mce.Request.Auto | Mce.Request.Index) -> (
      let name, engine = List.hd t.engines in
      String.equal req.library name
      &&
      match Atomic.get engine.e_index with
      | Some idx -> Census_index.is_complete idx
      | None -> false)
  | _ -> false

(* Cache/coalesce admission: under [t.mutex], either return the cached
   body, join another caller's flight, or claim leadership of a fresh
   one. *)
type claim = Hit of Mce.Response.t | Follow of flight | Lead of flight

let claim t key =
  Mutex.lock t.mutex;
  match Lru.find t.cache key with
  | Some body ->
      Telemetry.Counter.incr m_cache_hit;
      Mutex.unlock t.mutex;
      Hit body
  | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some flight ->
          Telemetry.Counter.incr m_coalesced;
          Mutex.unlock t.mutex;
          Follow flight
      | None ->
          Telemetry.Counter.incr m_cache_miss;
          let flight =
            { f_mutex = Mutex.create (); f_cond = Condition.create (); f_result = None }
          in
          Hashtbl.add t.inflight key flight;
          Mutex.unlock t.mutex;
          Lead flight)

let await flight =
  Mutex.lock flight.f_mutex;
  while flight.f_result = None do
    Condition.wait flight.f_cond flight.f_mutex
  done;
  let body = Option.get flight.f_result in
  Mutex.unlock flight.f_mutex;
  body

(* Whatever happened, unblock followers and clear the slot — a stuck
   flight would wedge every later caller with the same key. *)
let publish t flight key ~qubits () =
  let body =
    match Mutex.protect flight.f_mutex (fun () -> flight.f_result) with
    | Some body -> body
    | None ->
        {
          Mce.Response.id = None;
          trace = None;
          qubits;
          body = Error (Mce.Response.Internal "evaluation died");
        }
  in
  Mutex.lock t.mutex;
  Hashtbl.remove t.inflight key;
  if cacheable body then Lru.put t.cache key body;
  Mutex.unlock t.mutex;
  Mutex.lock flight.f_mutex;
  flight.f_result <- Some body;
  Condition.broadcast flight.f_cond;
  Mutex.unlock flight.f_mutex

type timing = {
  source : [ `Cache_hit | `Coalesced | `Computed ];
  cache_s : float;
  coalesce_wait_s : float;
  solve_s : float;
  plan : string option;
}

let plan_of (resp : Mce.Response.t) =
  match resp.body with
  | Ok { plan; _ } -> Some (Mce.Response.plan_to_string plan)
  | Error _ -> None

(* The one admission path: index-first requests go straight to
   {!evaluate}; everything else claims, follows or leads a keyed flight.
   Each stage is clocked and recorded as a span (free when tracing is
   off), and {!answer} drops the timing. *)
let answer_timed ?(should_stop = no_stop) t req =
  Telemetry.Histogram.time h_answer @@ fun () ->
  let computed ~cache_s t1 body =
    ( body,
      {
        source = `Computed;
        cache_s;
        coalesce_wait_s = 0.;
        solve_s = Unix.gettimeofday () -. t1;
        plan = plan_of body;
      } )
  in
  (* [evaluate] under an [mce.solve] span carrying the answering plan *)
  let evaluate_traced () =
    Telemetry.Span.with_span "mce.solve" @@ fun () ->
    let body = evaluate t ~should_stop req in
    Option.iter
      (fun p -> Telemetry.Span.set_attr "plan" (Telemetry.Json.String p))
      (plan_of body);
    body
  in
  if index_first t req then
    let t1 = Unix.gettimeofday () in
    computed ~cache_s:0. t1 (evaluate_traced ())
  else
    let key = Mce.Request.key req in
    let stamp resp = Mce.Response.with_id req.Mce.Request.id resp in
    let t0 = Unix.gettimeofday () in
    let claimed = Telemetry.Span.with_span "server.cache" (fun () -> claim t key) in
    let cache_s = Unix.gettimeofday () -. t0 in
    match claimed with
    | Hit body ->
        ( stamp body,
          {
            source = `Cache_hit;
            cache_s;
            coalesce_wait_s = 0.;
            solve_s = 0.;
            plan = plan_of body;
          } )
    | Follow flight ->
        let t1 = Unix.gettimeofday () in
        let body =
          Telemetry.Span.with_span "server.coalesce_wait" (fun () -> await flight)
        in
        ( stamp body,
          {
            source = `Coalesced;
            cache_s;
            coalesce_wait_s = Unix.gettimeofday () -. t1;
            solve_s = 0.;
            plan = plan_of body;
          } )
    | Lead flight ->
        let t1 = Unix.gettimeofday () in
        let body =
          Fun.protect
            ~finally:(publish t flight key ~qubits:req.Mce.Request.qubits)
            (fun () ->
              let body = Mce.Response.with_id None (evaluate_traced ()) in
              Mutex.protect flight.f_mutex (fun () -> flight.f_result <- Some body);
              body)
        in
        computed ~cache_s t1 (stamp body)

let answer ?should_stop t req = fst (answer_timed ?should_stop t req)
