(* Tests for the telemetry subsystem: counter/gauge/histogram/series
   arithmetic, span nesting and timing monotonicity, JSON round-trips,
   the disabled-switch no-op path, the JSON-lines exporter, and a
   regression test that a census metrics snapshot (what
   `qsynth census --metrics FILE` writes) parses back as JSON with the
   Table 2 per-level counts. *)

open Telemetry

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Every test starts from a clean, enabled registry. *)
let fresh () =
  set_enabled true;
  set_trace false;
  set_jsonl None;
  reset ()

(* JSON *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("whole_float", Json.Float 2.0);
        ("string", Json.String "line\nquote\" back\\slash \t end");
        ("list", Json.List [ Json.Int 1; Json.Float 0.25; Json.String "x" ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  let compact = Json.of_string (Json.to_string v) in
  let pretty = Json.of_string (Json.to_string ~pretty:true v) in
  checkb "compact round-trip" true (Json.equal v compact);
  checkb "pretty round-trip" true (Json.equal v pretty)

let test_json_parse () =
  checkb "escapes" true
    (Json.equal
       (Json.of_string {|{"a": "A\n\"", "b": [1, 2.5, -3, true, false, null]}|})
       (Json.Obj
          [
            ("a", Json.String "A\n\"");
            ( "b",
              Json.List
                [
                  Json.Int 1;
                  Json.Float 2.5;
                  Json.Int (-3);
                  Json.Bool true;
                  Json.Bool false;
                  Json.Null;
                ] );
          ]));
  checkb "surrogate pair" true
    (Json.equal (Json.of_string {|"😀"|}) (Json.String "\xf0\x9f\x98\x80"));
  checkb "non-finite floats print as null" true
    (Json.equal (Json.of_string (Json.to_string (Json.Float Float.nan))) Json.Null);
  Alcotest.check_raises "trailing garbage"
    (Json.Parse_error "trailing garbage at offset 2") (fun () ->
      ignore (Json.of_string "1 2"));
  (match Json.of_string "{}" with
  | Json.Obj [] -> ()
  | _ -> Alcotest.fail "empty object");
  check
    Alcotest.(option int)
    "path lookup" (Some 7)
    (match Json.path [ "a"; "b" ] (Json.of_string {|{"a":{"b":7}}|}) with
    | Some (Json.Int i) -> Some i
    | _ -> None)

(* Numbers follow RFC 8259: no leading zero, no bare or trailing dot,
   digits after an exponent; a token that breaks the grammar is
   rejected at the offset where its scan stopped. *)
let test_json_number_grammar () =
  List.iter
    (fun (doc, want) ->
      let got =
        match Json.of_string doc with
        | j -> Ok (Json.to_string j)
        | exception Json.Parse_error msg -> Error msg
      in
      check Alcotest.(result string string) doc want got)
    [
      ("0", Ok "0");
      ("-0", Ok "0");
      ("10", Ok "10");
      ("0.5", Ok "0.5");
      ("-0.5", Ok "-0.5");
      ("0e1", Ok "0.0");
      ("1E+2", Ok "100.0");
      ("25e-2", Ok "0.25");
      ("013", Error "malformed number at offset 3");
      ("00", Error "malformed number at offset 2");
      ("-01", Error "malformed number at offset 3");
      ("-.5", Error "malformed number at offset 3");
      ("1.", Error "malformed number at offset 2");
      ("01.5", Error "malformed number at offset 4");
      ("1.e3", Error "malformed number at offset 4");
      ("1e", Error "malformed number at offset 2");
      ("1e+", Error "malformed number at offset 3");
      ("[1,013]", Error "malformed number at offset 6");
    ]

(* counters, gauges, histograms, series *)

let test_counter_arithmetic () =
  fresh ();
  let c = Counter.create "test.counter" in
  checki "fresh counter" 0 (Counter.value c);
  Counter.incr c;
  Counter.incr c;
  Counter.add c 40;
  checki "incr and add" 42 (Counter.value c);
  let c' = Counter.create "test.counter" in
  checki "find-or-create returns the same instrument" 42 (Counter.value c');
  reset ();
  checki "reset zeroes" 0 (Counter.value c)

let test_gauge () =
  fresh ();
  let g = Gauge.create "test.gauge" in
  Gauge.set g 2.5;
  check (Alcotest.float 0.0) "set" 2.5 (Gauge.value g);
  Gauge.set_int g 7;
  check (Alcotest.float 0.0) "set_int" 7.0 (Gauge.value g)

let test_histogram_arithmetic () =
  fresh ();
  let h = Histogram.create ~lo:1e-6 ~buckets:28 "test.histogram" in
  checkb "min is nan before observations" true (Float.is_nan (Histogram.min_value h));
  List.iter (Histogram.observe h) [ 5e-7; 3e-6; 1e-3; 0.5; 1e9 ];
  checki "count" 5 (Histogram.count h);
  check (Alcotest.float 1e-9) "sum" (5e-7 +. 3e-6 +. 1e-3 +. 0.5 +. 1e9) (Histogram.sum h);
  check (Alcotest.float 0.0) "min" 5e-7 (Histogram.min_value h);
  check (Alcotest.float 0.0) "max" 1e9 (Histogram.max_value h);
  let buckets = Histogram.buckets h in
  checki "bucket mass equals count" (Histogram.count h)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
  checkb "log-scaled: observations spread over distinct buckets" true
    (List.length buckets = 5);
  (* 5e-7 <= lo goes to bucket 0; 1e9 overflows into the +Inf bucket *)
  (match buckets with
  | (first_le, 1) :: _ -> check (Alcotest.float 0.0) "underflow bound" 1e-6 first_le
  | _ -> Alcotest.fail "missing underflow bucket");
  match List.rev buckets with
  | (last_le, 1) :: _ -> checkb "overflow bound is infinite" true (last_le = Float.infinity)
  | _ -> Alcotest.fail "missing overflow bucket"

let test_histogram_time () =
  fresh ();
  let h = Histogram.create "test.timer" in
  let result = Histogram.time h (fun () -> 1 + 1) in
  checki "time returns the result" 2 result;
  checki "one observation" 1 (Histogram.count h);
  checkb "duration is non-negative" true (Histogram.sum h >= 0.)

let test_series () =
  fresh ();
  let s = Series.create "test.series" in
  Series.set s ~index:0 1;
  Series.set s ~index:3 51;
  check Alcotest.(list int) "gaps fill with zero" [ 1; 0; 0; 51 ] (Series.to_list s);
  check Alcotest.(option int) "get" (Some 51) (Series.get s ~index:3);
  check Alcotest.(option int) "out of range" None (Series.get s ~index:4)

(* spans *)

let test_span_nesting_and_timing () =
  fresh ();
  let inner_ran = ref false in
  Span.with_span "outer" (fun () ->
      Span.set_attr "k" (Json.Int 3);
      Span.with_span "inner" (fun () -> inner_ran := true));
  checkb "span bodies run" true !inner_ran;
  match snapshot () with
  | Json.Obj _ as snap -> (
      match Json.member "spans" snap with
      | Some (Json.List [ outer ]) -> (
          check
            Alcotest.(option string)
            "root span name" (Some "outer")
            (match Json.member "name" outer with
            | Some (Json.String s) -> Some s
            | _ -> None);
          check
            Alcotest.(option int)
            "attrs recorded" (Some 3)
            (match Json.path [ "attrs"; "k" ] outer with
            | Some (Json.Int i) -> Some i
            | _ -> None);
          let dur j =
            match Json.member "dur_s" j with Some (Json.Float f) -> f | _ -> Float.nan
          in
          match Json.member "children" outer with
          | Some (Json.List [ inner ]) ->
              check
                Alcotest.(option string)
                "child span name" (Some "inner")
                (match Json.member "name" inner with
                | Some (Json.String s) -> Some s
                | _ -> None);
              checkb "durations non-negative" true (dur inner >= 0. && dur outer >= 0.);
              checkb "child duration bounded by parent" true (dur inner <= dur outer)
          | _ -> Alcotest.fail "expected one child span")
      | _ -> Alcotest.fail "expected one root span")
  | _ -> Alcotest.fail "snapshot is not an object"

let test_span_exception_safety () =
  fresh ();
  (try Span.with_span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  Span.with_span "after" (fun () -> ());
  match Json.member "spans" (snapshot ()) with
  | Some (Json.List spans) ->
      checki "both spans closed at the root" 2 (List.length spans)
  | _ -> Alcotest.fail "missing spans"

(* disabled-switch no-op path *)

let test_disabled_noop () =
  fresh ();
  reset ();
  set_enabled false;
  let c = Counter.create "test.disabled.counter" in
  let g = Gauge.create "test.disabled.gauge" in
  let h = Histogram.create "test.disabled.histogram" in
  let s = Series.create "test.disabled.series" in
  Counter.incr c;
  Counter.add c 100;
  Gauge.set g 5.0;
  Histogram.observe h 1.0;
  checki "disabled timer still runs the body" 3 (Histogram.time h (fun () -> 3));
  Series.set s ~index:2 9;
  Span.with_span "disabled.span" (fun () -> Span.set_attr "x" Json.Null);
  checki "counter untouched" 0 (Counter.value c);
  check (Alcotest.float 0.0) "gauge untouched" 0.0 (Gauge.value g);
  checki "histogram untouched" 0 (Histogram.count h);
  check Alcotest.(list int) "series untouched" [] (Series.to_list s);
  (match Json.member "spans" (snapshot ()) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "disabled mode must record no spans");
  set_enabled true

(* instruments without spans: what a metrics-only daemon records *)

let test_instruments_only () =
  fresh ();
  reset ();
  set_enabled ~spans:false true;
  let c = Counter.create "test.instruments_only.counter" in
  let h = Histogram.create "test.instruments_only.histogram" in
  Span.with_span "instruments_only.span" (fun () ->
      Counter.incr c;
      Histogram.observe h 1.0;
      Span.set_attr "x" Json.Null);
  Span.record "instruments_only.record" ~start_s:0. ~dur_s:1.;
  checki "counter recorded" 1 (Counter.value c);
  checki "histogram recorded" 1 (Histogram.count h);
  (match Json.member "spans" (snapshot ()) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "instruments-only mode must record no spans");
  set_enabled true;
  Span.with_span "full.span" ignore;
  (match Json.member "spans" (snapshot ()) with
  | Some (Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "set_enabled true must record spans again")

(* JSON-lines exporter *)

let test_jsonl_export () =
  fresh ();
  let path = Filename.temp_file "telemetry" ".jsonl" in
  let oc = open_out path in
  set_jsonl (Some oc);
  Span.with_span "a" (fun () -> Span.with_span "b" (fun () -> ()));
  set_jsonl None;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let parsed = List.rev_map Json.of_string !lines in
  checki "one line per closed span" 2 (List.length parsed);
  (* children close before parents in the stream *)
  check
    Alcotest.(list (option string))
    "close order and names"
    [ Some "b"; Some "a" ]
    (List.map
       (fun j ->
         match Json.member "name" j with Some (Json.String s) -> Some s | _ -> None)
       parsed);
  List.iter
    (fun j ->
      match Json.member "type" j with
      | Some (Json.String "span") -> ()
      | _ -> Alcotest.fail "missing type tag")
    parsed

(* The span cap bounds the in-memory forest only: a long-running traced
   daemon must keep streaming span lines after max_spans. *)
let test_jsonl_past_span_cap () =
  fresh ();
  let path = Filename.temp_file "telemetry" ".jsonl" in
  let oc = open_out path in
  set_jsonl (Some oc);
  let total = Span.max_spans + 10 in
  for i = 1 to total do
    Span.with_span ~attrs:[ ("i", Json.Int i) ] "s" ignore
  done;
  Span.with_span "outer" (fun () ->
      Span.record "late" ~start_s:0. ~dur_s:0.;
      Span.with_span "inner" ignore);
  set_jsonl None;
  close_out oc;
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  checki "every span streamed" (total + 3) (List.length lines);
  let name_of line =
    match Json.member "name" (Json.of_string line) with
    | Some (Json.String s) -> s
    | _ -> Alcotest.fail "span line without a name"
  in
  let last_numbered =
    Json.member "attrs" (Json.of_string (List.nth lines (total - 1)))
    |> Option.map (Json.member "i")
  in
  checkb "the last numbered span is written" true
    (last_numbered = Some (Some (Json.Int total)));
  check
    Alcotest.(list string)
    "late spans nest and close in order" [ "late"; "inner"; "outer" ]
    (List.map name_of (List.filteri (fun i _ -> i >= total) lines));
  (* the snapshot still keeps only max_spans *)
  let kept =
    match Json.member "spans" (snapshot ()) with
    | Some (Json.List l) -> List.length l
    | _ -> Alcotest.fail "snapshot without spans"
  in
  checki "in-memory spans capped" Span.max_spans kept;
  fresh ()

(* Two systhreads of one domain, each inside its own span while the
   other runs: a per-domain stack would nest the second thread's span
   under the first's.  Each must close as a root carrying its own trace
   id, and its child must inherit that id in the JSON-lines stream. *)
let test_span_per_thread () =
  fresh ();
  let path = Filename.temp_file "telemetry" ".jsonl" in
  let oc = open_out path in
  set_jsonl (Some oc);
  let opened = Atomic.make 0 in
  let worker tag =
    Span.with_span ~attrs:[ ("trace", Json.String tag) ] "req" (fun () ->
        Atomic.incr opened;
        (* both spans are open before either closes *)
        while Atomic.get opened < 2 do
          Thread.yield ()
        done;
        Span.with_span "child" Thread.yield)
  in
  let threads = List.map (Thread.create worker) [ "A"; "B" ] in
  List.iter Thread.join threads;
  set_jsonl None;
  close_out oc;
  let lines = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let str_of = function Some (Json.String s) -> s | _ -> "" in
  let roots =
    match Json.member "spans" (snapshot ()) with
    | Some (Json.List roots) -> roots
    | _ -> Alcotest.fail "no span forest"
  in
  check
    Alcotest.(list (pair string string))
    "two roots, one per thread"
    [ ("A", "req"); ("B", "req") ]
    (List.sort compare
       (List.map
          (fun r ->
            ( str_of
                (Option.bind (Json.member "attrs" r) (Json.member "trace")),
              str_of (Json.member "name" r) ))
          roots));
  List.iter
    (fun r ->
      match Json.member "children" r with
      | Some (Json.List [ c ]) ->
          check Alcotest.string "one child" "child" (str_of (Json.member "name" c))
      | _ -> Alcotest.fail "each root has exactly its own child")
    roots;
  let exported =
    String.split_on_char '\n' lines
    |> List.filter (( <> ) "")
    |> List.map Json.of_string
    |> List.map (fun j ->
           ( str_of (Json.member "name" j),
             str_of (Option.bind (Json.member "attrs" j) (Json.member "trace")),
             match Json.member "depth" j with Some (Json.Int d) -> d | _ -> -1 ))
  in
  check
    Alcotest.(list (triple string string int))
    "children inherit their own thread's trace"
    [ ("child", "A", 1); ("child", "B", 1); ("req", "A", 0); ("req", "B", 0) ]
    (List.sort compare exported)

(* census metrics snapshot: the `qsynth census --metrics FILE` payload *)

let test_census_metrics_snapshot () =
  fresh ();
  let library = Synthesis.Library.make (Mvl.Encoding.make ~qubits:3) in
  let census = Synthesis.Fmcf.run ~max_depth:3 library in
  (* the printed row is computed on demand, as `census --paper-variant` does *)
  ignore (Synthesis.Fmcf.paper_counts census);
  (* and the index build, as `census --emit-index` does *)
  ignore (Synthesis.Census_index.build census);
  let path = Filename.temp_file "census" ".json" in
  write_snapshot path;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let snap = Json.of_string contents in
  let series name =
    match Json.path [ "series"; name ] snap with
    | Some (Json.List items) ->
        List.map (function Json.Int i -> i | _ -> -1) items
    | _ -> Alcotest.fail ("missing series " ^ name)
  in
  (* the snapshot's per-level G[k] counts match the census itself (the
     printed Table 2 row) *)
  check
    Alcotest.(list int)
    "fmcf.level.g matches Table 2" [ 1; 6; 24; 51 ] (series "fmcf.level.g");
  check
    Alcotest.(list int)
    "fmcf.level.g agrees with Fmcf.counts"
    (List.map snd (Synthesis.Fmcf.counts census))
    (series "fmcf.level.g");
  check
    Alcotest.(list int)
    "paper-variant counts" [ 1; 6; 30; 52 ] (series "fmcf.level.paper_g");
  let frontier = series "fmcf.level.frontier" in
  checki "one frontier entry per level" 4 (List.length frontier);
  (* level k keeps the images mixed on at most 3 - k wires: of B[2]'s
     144 images the 108 mixed on at most one wire, of B[3]'s 633 the 51
     functions of G[3] *)
  check Alcotest.(list int) "frontier sizes" [ 1; 18; 108; 51 ] frontier;
  (* the search's own per-level series: the states each level kept and
     the children its bound dropped (level 0 is the root, never stepped);
     the counter sums the drops *)
  check Alcotest.(list int) "kept per level" [ 0; 18; 108; 51 ] (series "search.level.kept");
  let dropped = series "search.level.mixed_dropped" in
  check Alcotest.(list int) "dropped per level" [ 0; 0; 48; 1008 ] dropped;
  (match Json.path [ "counters"; "search.expansions.mixed_dropped" ] snap with
  | Some (Json.Int n) -> checki "mixed_dropped sums the levels" (List.fold_left ( + ) 0 dropped) n
  | _ -> Alcotest.fail "missing counter search.expansions.mixed_dropped");
  (* the index build's two stages are timed separately *)
  List.iter
    (fun name ->
      match Json.path [ "histograms"; name; "count" ] snap with
      | Some (Json.Int n) -> checki (name ^ " observed once") 1 n
      | _ -> Alcotest.fail ("missing histogram " ^ name))
    [ "census_index.witness.seconds"; "census_index.pack.seconds" ];
  (* counters survived the trip *)
  match Json.path [ "counters"; "search.states.new" ] snap with
  | Some (Json.Int n) -> checki "state counter" (18 + 108 + 51) n
  | _ -> Alcotest.fail "missing search.states.new counter"

(* Census lookup regression: Fmcf.find probes the arena (canonicalized
   under the quotient), in both census modes *)

let test_fmcf_find_index () =
  fresh ();
  set_enabled false;
  let library = Synthesis.Library.make (Mvl.Encoding.make ~qubits:3) in
  List.iter
    (fun quotient ->
      let census = Synthesis.Fmcf.run ~max_depth:4 ~quotient library in
      Synthesis.Fmcf.iter_members census (fun ~cost m ->
          match Synthesis.Fmcf.find census m.Synthesis.Fmcf.func with
          | Some found ->
              checki "find returns the member's own cost" cost
                found.Synthesis.Fmcf.cost
          | None -> Alcotest.fail "census member not found by find");
      (* a function beyond the census depth is absent *)
      checkb "deep function absent from shallow census" true
        (Synthesis.Fmcf.find census Reversible.Gates.toffoli3 = None);
      (* a function of another width is absent, not an error *)
      checkb "2-bit function absent from a 3-wire census" true
        (Synthesis.Fmcf.find census (Reversible.Gates.cnot ~bits:2 ~control:0 ~target:1)
        = None))
    [ false; true ]

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "number grammar" `Quick test_json_number_grammar;
        ] );
      ( "instruments",
        [
          Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram arithmetic" `Quick test_histogram_arithmetic;
          Alcotest.test_case "histogram timing" `Quick test_histogram_time;
          Alcotest.test_case "series" `Quick test_series;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and timing" `Quick test_span_nesting_and_timing;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
          Alcotest.test_case "jsonl past the span cap" `Quick test_jsonl_past_span_cap;
          Alcotest.test_case "stacks are per thread" `Quick test_span_per_thread;
        ] );
      ( "switch",
        [
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
          Alcotest.test_case "instruments without spans" `Quick
            test_instruments_only;
        ] );
      ( "census",
        [
          Alcotest.test_case "metrics snapshot parses" `Quick
            test_census_metrics_snapshot;
          Alcotest.test_case "find uses the index" `Quick test_fmcf_find_index;
        ] );
    ]
