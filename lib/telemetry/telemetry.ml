module Json = Json

let enabled_ref = Atomic.make false
let spans_ref = Atomic.make false
let enabled () = Atomic.get enabled_ref
let spans_enabled () = Atomic.get spans_ref

let set_enabled ?(spans = true) b =
  Atomic.set spans_ref (b && spans);
  Atomic.set enabled_ref b
let now_s = Unix.gettimeofday

let log_src = Logs.Src.create "qsynth.telemetry" ~doc:"Telemetry reporting"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Domain-safety (see doc/OBSERVABILITY.md): counters and gauges are
   single atomics; histograms and series take a per-instrument mutex on
   the write path only (reads are monitoring-grade); the registry takes
   a global mutex on create (rare).  Spans keep one open-span stack per
   thread — nesting is control flow, which never crosses threads, and
   the systhreads of one domain (the daemon's connection readers)
   interleave at every blocking call — in a table keyed by thread id;
   the table, the shared root forest and the JSONL sink are
   mutex-guarded. *)

let registry_mutex = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* instruments *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t }

type histogram = {
  h_name : string;
  h_lo : float;
  h_mutex : Mutex.t;
  h_buckets : int array; (* last bucket is the overflow bucket *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type series = {
  s_name : string;
  s_mutex : Mutex.t;
  mutable s_values : int array;
  mutable s_len : int;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64
let series_tbl : (string, series) Hashtbl.t = Hashtbl.create 64

let find_or_create tbl name make =
  with_lock registry_mutex @@ fun () ->
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl name v;
      v

module Counter = struct
  type t = counter

  let create name =
    find_or_create counters name (fun () -> { c_name = name; c_value = Atomic.make 0 })

  let incr c = if enabled () then ignore (Atomic.fetch_and_add c.c_value 1)
  let add c n = if enabled () then ignore (Atomic.fetch_and_add c.c_value n)
  let value c = Atomic.get c.c_value
  let name c = c.c_name
end

module Gauge = struct
  type t = gauge

  let create name =
    find_or_create gauges name (fun () -> { g_name = name; g_value = Atomic.make 0. })

  let set g v = if enabled () then Atomic.set g.g_value v
  let set_int g v = if enabled () then Atomic.set g.g_value (float_of_int v)

  let add g d =
    if enabled () then begin
      let rec loop () =
        let cur = Atomic.get g.g_value in
        if not (Atomic.compare_and_set g.g_value cur (cur +. d)) then loop ()
      in
      loop ()
    end

  let value g = Atomic.get g.g_value
  let name g = g.g_name
end

module Histogram = struct
  type t = histogram

  let create ?(lo = 1e-6) ?(buckets = 28) name =
    if lo <= 0. then invalid_arg "Telemetry.Histogram.create: lo must be positive";
    if buckets < 2 then invalid_arg "Telemetry.Histogram.create: need >= 2 buckets";
    find_or_create histograms name (fun () ->
        {
          h_name = name;
          h_lo = lo;
          h_mutex = Mutex.create ();
          h_buckets = Array.make buckets 0;
          h_count = 0;
          h_sum = 0.;
          h_min = Float.nan;
          h_max = Float.nan;
        })

  let observe h v =
    if enabled () then
      with_lock h.h_mutex @@ fun () ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if Float.is_nan h.h_min || v < h.h_min then h.h_min <- v;
      if Float.is_nan h.h_max || v > h.h_max then h.h_max <- v;
      let n = Array.length h.h_buckets in
      let idx =
        if v <= h.h_lo then 0
        else
          let i = int_of_float (Float.ceil (Float.log2 (v /. h.h_lo))) in
          if i >= n then n - 1 else i
      in
      h.h_buckets.(idx) <- h.h_buckets.(idx) + 1

  let time h f =
    if enabled () then begin
      let t0 = now_s () in
      Fun.protect ~finally:(fun () -> observe h (now_s () -. t0)) f
    end
    else f ()

  let count h = h.h_count
  let sum h = h.h_sum
  let min_value h = h.h_min
  let max_value h = h.h_max

  let buckets h =
    let n = Array.length h.h_buckets in
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if h.h_buckets.(i) > 0 then begin
        let le =
          if i = n - 1 then Float.infinity else h.h_lo *. Float.pow 2. (float_of_int i)
        in
        acc := (le, h.h_buckets.(i)) :: !acc
      end
    done;
    !acc

  let quantile h q =
    if h.h_count = 0 then Float.nan
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let target = q *. float_of_int h.h_count in
      let n = Array.length h.h_buckets in
      let rec find i cum =
        if i >= n then h.h_max
        else
          let c = h.h_buckets.(i) in
          let cum' = cum + c in
          if c > 0 && float_of_int cum' >= target then begin
            let lower =
              if i = 0 then 0. else h.h_lo *. Float.pow 2. (float_of_int (i - 1))
            in
            let upper =
              if i = n - 1 then h.h_max else h.h_lo *. Float.pow 2. (float_of_int i)
            in
            let frac = (target -. float_of_int cum) /. float_of_int c in
            lower +. (frac *. Float.max 0. (upper -. lower))
          end
          else find (i + 1) cum'
      in
      let v = find 0 0 in
      if Float.is_nan v then v else Float.max h.h_min (Float.min h.h_max v)
    end

  let name h = h.h_name
end

module Series = struct
  type t = series

  let create name =
    find_or_create series_tbl name (fun () ->
        { s_name = name; s_mutex = Mutex.create (); s_values = [||]; s_len = 0 })

  let set s ~index v =
    if enabled () then begin
      if index < 0 then invalid_arg "Telemetry.Series.set: negative index";
      with_lock s.s_mutex @@ fun () ->
      if index >= Array.length s.s_values then begin
        let grown = Array.make (max 8 (2 * (index + 1))) 0 in
        Array.blit s.s_values 0 grown 0 (Array.length s.s_values);
        s.s_values <- grown
      end;
      s.s_values.(index) <- v;
      if index + 1 > s.s_len then s.s_len <- index + 1
    end

  let get s ~index = if index >= 0 && index < s.s_len then Some s.s_values.(index) else None
  let to_list s = Array.to_list (Array.sub s.s_values 0 s.s_len)
  let name s = s.s_name
end

(* spans *)

type span = {
  sp_name : string;
  sp_start : float;
  mutable sp_end : float;
  mutable sp_attrs : (string * Json.t) list;
  mutable sp_children : span list; (* reversed *)
  sp_depth : int;
}

let span_mutex = Mutex.create ()
let span_roots : span list ref = ref [] (* guarded by span_mutex *)

(* Open-span stacks by thread id.  A thread's entry exists only while it
   has a span open (it is dropped when its stack empties), so the table
   stays as small as the number of threads inside a span; the stack
   itself is touched only by its own thread. *)
let stacks : (int, span list ref) Hashtbl.t = Hashtbl.create 16
let stacks_mutex = Mutex.create ()

(* the calling thread's open spans, innermost first *)
let open_spans () =
  let id = Thread.id (Thread.self ()) in
  Mutex.protect stacks_mutex (fun () ->
      match Hashtbl.find_opt stacks id with Some st -> !st | None -> [])

let span_stack () =
  let id = Thread.id (Thread.self ()) in
  Mutex.protect stacks_mutex (fun () ->
      match Hashtbl.find_opt stacks id with
      | Some st -> st
      | None ->
          let st = ref [] in
          Hashtbl.add stacks id st;
          st)

let drop_span_stack () =
  let id = Thread.id (Thread.self ()) in
  Mutex.protect stacks_mutex (fun () -> Hashtbl.remove stacks id)

let span_count = Atomic.make 0
let trace_ref = ref false
let jsonl_ref : out_channel option ref = ref None

let set_trace b = trace_ref := b
let set_jsonl oc = jsonl_ref := oc

let span_dur sp = if Float.is_nan sp.sp_end then Float.nan else sp.sp_end -. sp.sp_start

let rec span_to_json sp =
  let base =
    [
      ("name", Json.String sp.sp_name);
      ("start_s", Json.Float sp.sp_start);
      ("dur_s", Json.Float (span_dur sp));
    ]
  in
  let attrs =
    if sp.sp_attrs = [] then [] else [ ("attrs", Json.Obj (List.rev sp.sp_attrs)) ]
  in
  let children =
    if sp.sp_children = [] then []
    else [ ("children", Json.List (List.rev_map span_to_json sp.sp_children)) ]
  in
  Json.Obj (base @ attrs @ children)

let jsonl_emit sp =
  match !jsonl_ref with
  | None -> ()
  | Some oc ->
      (* Correlation: a child span inherits the "trace" attribute of its
         nearest open ancestor so every exported line of a request trace
         carries the request's trace id. *)
      let attrs = List.rev sp.sp_attrs in
      let attrs =
        if List.mem_assoc "trace" attrs then attrs
        else
          let rec inherited = function
            | [] -> attrs
            | anc :: rest -> (
                match List.assoc_opt "trace" anc.sp_attrs with
                | Some v -> ("trace", v) :: attrs
                | None -> inherited rest)
          in
          inherited (open_spans ())
      in
      let line =
        Json.Obj
          [
            ("type", Json.String "span");
            ("name", Json.String sp.sp_name);
            ("depth", Json.Int sp.sp_depth);
            ("start_s", Json.Float sp.sp_start);
            ("dur_s", Json.Float (span_dur sp));
            ("attrs", Json.Obj attrs);
          ]
      in
      with_lock span_mutex @@ fun () ->
      output_string oc (Json.to_string line);
      output_char oc '\n';
      flush oc

module Span = struct
  let max_spans = 50_000

  (* [keep ()] claims a place in the in-memory span forest, [false] once
     [max_spans] are kept.  A span past the cap is still streamed to the
     JSONL sink and the live trace; it is only left out of the snapshot. *)
  let keep () =
    Atomic.get span_count < max_spans
    && (ignore (Atomic.fetch_and_add span_count 1);
        true)

  let streamed () = Option.is_some !jsonl_ref || !trace_ref

  let attach kept stack sp =
    if kept then
      match stack with
      | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
      | [] -> with_lock span_mutex (fun () -> span_roots := sp :: !span_roots)

  let set_attr key v =
    if spans_enabled () then
      match open_spans () with
      | sp :: _ -> sp.sp_attrs <- (key, v) :: List.remove_assoc key sp.sp_attrs
      | [] -> ()

  let with_span ?(attrs = []) name f =
    if not (spans_enabled ()) then f ()
    else
      let kept = keep () in
      if (not kept) && not (streamed ()) then f ()
      else begin
        let stack = span_stack () in
        let depth = List.length !stack in
        let sp =
          {
            sp_name = name;
            sp_start = now_s ();
            sp_end = Float.nan;
            sp_attrs = List.rev attrs;
            sp_children = [];
            sp_depth = depth;
          }
        in
        attach kept !stack sp;
        stack := sp :: !stack;
        if !trace_ref then
          Printf.eprintf "%s> %s\n%!" (String.make (2 * depth) ' ') name;
        Fun.protect
          ~finally:(fun () ->
            sp.sp_end <- now_s ();
            (match !stack with
            | top :: rest when top == sp -> stack := rest
            | _ -> ());
            if !stack = [] then drop_span_stack ();
            if !trace_ref then
              Printf.eprintf "%s< %s (%.3f ms)\n%!"
                (String.make (2 * depth) ' ')
                name
                (1e3 *. span_dur sp);
            jsonl_emit sp)
          f
      end

  let record ?(attrs = []) name ~start_s ~dur_s =
    if spans_enabled () then begin
      let kept = keep () in
      if kept || Option.is_some !jsonl_ref then begin
        let stack = open_spans () in
        let sp =
          {
            sp_name = name;
            sp_start = start_s;
            sp_end = start_s +. dur_s;
            sp_attrs = List.rev attrs;
            sp_children = [];
            sp_depth = List.length stack;
          }
        in
        attach kept stack sp;
        jsonl_emit sp
      end
    end
end

(* snapshot *)

let sorted_bindings tbl key_of =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> String.compare (key_of a) (key_of b))

let float_or_null f = if Float.is_nan f then Json.Null else Json.Float f

let histogram_to_json h =
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("min", float_or_null h.h_min);
      ("max", float_or_null h.h_max);
      ("p50", float_or_null (Histogram.quantile h 0.50));
      ("p90", float_or_null (Histogram.quantile h 0.90));
      ("p99", float_or_null (Histogram.quantile h 0.99));
      ( "buckets",
        Json.List
          (List.map
             (fun (le, c) ->
               Json.Obj
                 [
                   ("le", if le = Float.infinity then Json.Null else Json.Float le);
                   ("count", Json.Int c);
                 ])
             (Histogram.buckets h)) );
    ]

(* Prometheus text exposition (format 0.0.4).  Instrument names use dots
   as separators; Prometheus metric names cannot, so we sanitize
   [a.b.c] to [qsynth_a_b_c].  Histograms render as native Prometheus
   histograms: cumulative [_bucket{le="..."}] lines ending at [+Inf],
   then [_sum] and [_count].  Series render as a gauge family with an
   [index] label. *)
module Prometheus = struct
  let content_type = "text/plain; version=0.0.4"

  let sanitize_name s =
    let s =
      String.map
        (fun c ->
          match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
        s
    in
    if s = "" then "_"
    else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

  let escape_label_value s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let number f =
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let render () =
    let buf = Buffer.create 4096 in
    let metric name = "qsynth_" ^ sanitize_name name in
    List.iter
      (fun c ->
        let m = metric c.c_name ^ "_total" in
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s counter\n%s %d\n" m m (Counter.value c)))
      (sorted_bindings counters (fun c -> c.c_name));
    List.iter
      (fun g ->
        let m = metric g.g_name in
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s gauge\n%s %s\n" m m (number (Gauge.value g))))
      (sorted_bindings gauges (fun g -> g.g_name));
    List.iter
      (fun h ->
        let m = metric h.h_name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" m);
        let cum = ref 0 in
        List.iter
          (fun (le, c) ->
            if le <> Float.infinity then begin
              cum := !cum + c;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (number le) !cum)
            end)
          (Histogram.buckets h);
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m h.h_count);
        Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" m (number h.h_sum));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m h.h_count))
      (sorted_bindings histograms (fun h -> h.h_name));
    List.iter
      (fun s ->
        let values = Series.to_list s in
        if values <> [] then begin
          let m = metric s.s_name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" m);
          List.iteri
            (fun i v ->
              Buffer.add_string buf (Printf.sprintf "%s{index=\"%d\"} %d\n" m i v))
            values
        end)
      (sorted_bindings series_tbl (fun s -> s.s_name));
    Buffer.contents buf
end

let snapshot () =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map
             (fun c -> (c.c_name, Json.Int (Counter.value c)))
             (sorted_bindings counters (fun c -> c.c_name))) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun g -> (g.g_name, Json.Float (Gauge.value g)))
             (sorted_bindings gauges (fun g -> g.g_name))) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun h -> (h.h_name, histogram_to_json h))
             (sorted_bindings histograms (fun h -> h.h_name))) );
      ( "series",
        Json.Obj
          (List.map
             (fun s -> (s.s_name, Json.List (List.map (fun v -> Json.Int v) (Series.to_list s))))
             (sorted_bindings series_tbl (fun s -> s.s_name))) );
      ("spans", Json.List (List.rev_map span_to_json !span_roots));
    ]

let write_snapshot path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel ~pretty:true oc (snapshot ());
      output_char oc '\n')

let reset () =
  Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g.g_value 0.) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0;
      h.h_count <- 0;
      h.h_sum <- 0.;
      h.h_min <- Float.nan;
      h.h_max <- Float.nan)
    histograms;
  Hashtbl.iter (fun _ s -> s.s_len <- 0) series_tbl;
  with_lock span_mutex (fun () -> span_roots := []);
  drop_span_stack ();
  Atomic.set span_count 0

let log_summary () =
  List.iter
    (fun c ->
      let v = Counter.value c in
      if v <> 0 then Log.info (fun m -> m "counter %s = %d" c.c_name v))
    (sorted_bindings counters (fun c -> c.c_name));
  List.iter
    (fun g ->
      let v = Gauge.value g in
      if v <> 0. then Log.info (fun m -> m "gauge %s = %g" g.g_name v))
    (sorted_bindings gauges (fun g -> g.g_name));
  List.iter
    (fun h ->
      if h.h_count > 0 then
        Log.info (fun m ->
            m "histogram %s: count %d, sum %.6fs, min %.6fs, max %.6fs" h.h_name
              h.h_count h.h_sum h.h_min h.h_max))
    (sorted_bindings histograms (fun h -> h.h_name));
  List.iter
    (fun s ->
      if s.s_len > 0 then
        Log.info (fun m ->
            m "series %s = [%s]" s.s_name
              (String.concat "; " (List.map string_of_int (Series.to_list s)))))
    (sorted_bindings series_tbl (fun s -> s.s_name));
  List.iter
    (fun sp -> Log.info (fun m -> m "span %s: %.3f ms" sp.sp_name (1e3 *. span_dur sp)))
    (List.rev !span_roots)
