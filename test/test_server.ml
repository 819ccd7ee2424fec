(* Server-stack tests.

   Coverage, bottom of the stack upward:
   - QCheck round-trips: [of_json (to_json x) = Ok x] for Request and
     [of_string (to_string x) = Ok x] for Response over generated specs,
     tasks, plans, cascades and targets — the property every transport's
     byte-identity rests on — plus golden response bytes.
   - Protocol framing over a socketpair: round-trips (including the
     empty payload), the oversized-announcement guard, truncation and
     clean-close detection; the buffered server-side reader on
     pipelined, dribbled and stalled frames, agreeing with [read_frame]
     on every EOF and oversized verdict.
   - Service semantics: cache hits, the hit+coalesced+miss accounting
     invariant under concurrent identical requests, cancellation and
     deadline mapping.
   - A live in-process daemon: 8 client threads x 50 mixed queries on
     one service, every response byte-identical to a fresh one-shot
     service answering the same request; then a graceful drain with a
     request in flight.  On a complete index: index requests answered
     inline (in order, counted, never overloaded behind a full queue,
     shutting-down after stop, traced as their own request trees). *)

open Synthesis
open Reversible
open Server

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)

let jobs_under_test =
  match Sys.getenv_opt "QSYNTH_TEST_JOBS" with
  | None | Some "" -> 1
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)

(* {1 Request JSON round-trip} *)

let spec_gen =
  let open QCheck2.Gen in
  oneof
    [
      oneofl
        [
          "toffoli"; "fredkin"; "peres"; "identity"; "(7,8)";
          "0,1,2,3,4,7,5,6"; "not a spec at all"; "";
        ];
      map
        (fun outs -> String.concat "," (List.map string_of_int outs))
        (shuffle_l [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
    ]

let task_gen =
  let open QCheck2.Gen in
  oneof
    [
      pure Mce.Request.Synthesize;
      pure Mce.Request.Count_witnesses;
      map (fun limit -> Mce.Request.Enumerate { limit }) (int_range 0 500);
    ]

let plan_gen =
  QCheck2.Gen.oneofl Mce.Request.[ Auto; Index; Bidir; Forward ]

let id_gen =
  let open QCheck2.Gen in
  opt (string_size ~gen:printable (int_range 0 16))

let request_gen : Mce.Request.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* id = id_gen in
  let* qubits = int_range 1 4 in
  let* library = oneofl Library.Registry.names in
  let* spec = spec_gen in
  let* task = task_gen in
  let* max_depth = int_range 0 9 in
  let* plan = plan_gen in
  let+ deadline_ms = opt (int_range 1 60_000) in
  { Mce.Request.id; qubits; library; spec; task; max_depth; plan; deadline_ms }

let request_roundtrip =
  qtest "Request: of_json (to_json r) = Ok r" request_gen (fun r ->
      match Mce.Request.of_json (Mce.Request.to_json r) with
      | Ok r' -> Mce.Request.equal r r'
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e)

let request_unknown_field_rejected () =
  let doc =
    {|{"v":1,"qubits":3,"spec":"toffoli","task":"synthesize","max_depth":7,"plan":"auto","bogus":1}|}
  in
  match Mce.Request.of_json (Telemetry.Json.of_string doc) with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error _ -> ()

let request_defaults () =
  let doc = {|{"spec":"fredkin"}|} in
  match Mce.Request.of_json (Telemetry.Json.of_string doc) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "defaults" true (Mce.Request.equal r (Mce.Request.make "fredkin"))

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let request_unknown_library_rejected () =
  let doc = {|{"v":1,"spec":"toffoli","library":"bogus"}|} in
  match Mce.Request.of_json (Telemetry.Json.of_string doc) with
  | Ok _ -> Alcotest.fail "unknown library accepted"
  | Error msg ->
      checkb "message names the library" true
        (has_sub msg "bogus" && has_sub msg "paper18")

let request_qubits_bounded () =
  (* The width must be rejected before anything parses the spec against
     a 2^qubits domain (the cache key does): at 40 wires that parse alone
     exhausts memory and kills a batch run or a daemon worker. *)
  List.iter
    (fun q ->
      let doc = Printf.sprintf {|{"qubits":%d,"spec":"(1,2)"}|} q in
      match Mce.Request.of_json (Telemetry.Json.of_string doc) with
      | Ok _ -> Alcotest.failf "qubits %d accepted" q
      | Error msg -> checkb "message names the field" true (has_sub msg "qubits"))
    [ 0; -3; 11; 26; 40 ];
  List.iter
    (fun q ->
      let doc = Printf.sprintf {|{"qubits":%d,"spec":"identity"}|} q in
      match Mce.Request.of_json (Telemetry.Json.of_string doc) with
      | Ok r -> check Alcotest.int "in-range width kept" q r.Mce.Request.qubits
      | Error e -> Alcotest.fail e)
    [ 1; Mvl.Encoding.max_qubits ]

let request_library_roundtrip () =
  (* The library field survives the wire in both directions; the default
     is omitted from the encoding, so paper18 documents stay byte-stable
     across the API redesign. *)
  List.iter
    (fun name ->
      let r = Mce.Request.make ~library:name "toffoli" in
      match Mce.Request.of_json (Mce.Request.to_json r) with
      | Ok r' ->
          checkb "library survives round-trip" true (Mce.Request.equal r r');
          check Alcotest.string "library name" name r'.Mce.Request.library
      | Error e -> Alcotest.fail e)
    Library.Registry.names;
  let doc = {|{"spec":"toffoli"}|} in
  (match Mce.Request.of_json (Telemetry.Json.of_string doc) with
  | Ok r ->
      check Alcotest.string "omitted library defaults" Library.default_name
        r.Mce.Request.library
  | Error e -> Alcotest.fail e);
  let default = Mce.Request.make "toffoli" in
  checkb "default library omitted on the wire" false
    (has_sub
       (Telemetry.Json.to_string (Mce.Request.to_json default))
       "library")

let key_differs_across_libraries () =
  (* One spec, three universes: never the same cache line. *)
  let keys =
    List.map
      (fun name -> Mce.Request.key (Mce.Request.make ~library:name "toffoli"))
      Library.Registry.names
  in
  check Alcotest.int "all keys distinct"
    (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let key_canonicalizes () =
  (* Two spellings of the same function share one cache slot; the id and
     deadline are not part of the key. *)
  let a = Mce.Request.make ~id:"x" ~deadline_ms:5 "toffoli" in
  let b =
    Mce.Request.make (String.concat "," (List.map string_of_int
        (Revfun.output_column Gates.toffoli3)))
  in
  check Alcotest.string "same key" (Mce.Request.key a) (Mce.Request.key b);
  let c = Mce.Request.make ~max_depth:5 "toffoli" in
  checkb "depth in key" true (Mce.Request.key a <> Mce.Request.key c)

(* {1 Response JSON round-trip} *)

let revfun3_gen =
  let open QCheck2.Gen in
  map (Revfun.of_outputs ~bits:3) (shuffle_l [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let gate_gen =
  let open QCheck2.Gen in
  let* kind = oneofl Gate.[ Controlled_v; Controlled_v_dag; Feynman ] in
  let* target = int_range 0 2 in
  let+ control = oneofl (List.filter (fun c -> c <> target) [ 0; 1; 2 ]) in
  Gate.make kind ~target ~control

let cascade_gen = QCheck2.Gen.(list_size (int_range 0 6) gate_gen)

let plan_used_gen =
  QCheck2.Gen.oneofl
    Mce.Response.[ Trivial; Index_hit; Index_certified; Bidir_meet; Forward_bfs ]

let payload_gen =
  let open QCheck2.Gen in
  oneof
    [
      ( let* target = revfun3_gen in
        let* not_mask = int_range 0 7 in
        let+ cascade = cascade_gen in
        Mce.Response.Synthesized
          { target; not_mask; cascade; cost = Cascade.cost cascade } );
      map (fun max_depth -> Mce.Response.Unrealizable { max_depth })
        (int_range 0 9);
      map (fun count -> Mce.Response.Witnesses { count }) (int_range 0 5000);
      ( let* target = revfun3_gen in
        let* not_mask = int_range 0 7 in
        let* cascades = list_size (int_range 0 4) cascade_gen in
        let* cost = int_range 0 8 in
        let+ complete = bool in
        Mce.Response.Realizations { target; not_mask; cost; cascades; complete }
      );
    ]

let error_gen =
  let open QCheck2.Gen in
  let msg = string_size ~gen:printable (int_range 0 40) in
  oneof
    [
      map (fun m -> Mce.Response.Bad_request m) msg;
      map (fun m -> Mce.Response.Unsupported m) msg;
      map (fun retry_after_ms -> Mce.Response.Overloaded { retry_after_ms })
        (int_range 1 10_000);
      pure Mce.Response.Deadline_exceeded;
      pure Mce.Response.Shutting_down;
      pure Mce.Response.Cancelled;
      map (fun m -> Mce.Response.Internal m) msg;
    ]

let response_gen : Mce.Response.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* id = id_gen in
  let* err = bool in
  let* trace = Option.map (Printf.sprintf "t-%x") <$> opt (int_range 0 0xffff) in
  if err then
    let* qubits = int_range 1 4 in
    let+ e = error_gen in
    { Mce.Response.id; trace; qubits; body = Error e }
  else
    (* Ok payloads embed bits-3 targets and cascades, so qubits = 3:
       of_json re-parses both against the document's qubit count. *)
    let* plan = plan_used_gen in
    let+ payload = payload_gen in
    { Mce.Response.id; trace; qubits = 3; body = Ok { plan; payload } }

let response_string_roundtrip =
  qtest "Response: of_string (to_string r) = Ok r" response_gen (fun r ->
      match Mce.Response.of_string (Mce.Response.to_string r) with
      | Ok r' -> Mce.Response.equal r r'
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e)

let encoding_is_canonical =
  (* Equal values encode to equal bytes: decode-then-re-encode is the
     identity on the wire, which lets clients compare raw frames. *)
  qtest "Response: to_string is canonical" response_gen (fun r ->
      let s = Mce.Response.to_string r in
      match Mce.Response.of_string s with
      | Ok r' -> String.equal s (Mce.Response.to_string r')
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e)

(* Golden wire bytes: one response per payload and error variant, and
   ids/traces that exercise every escape class (quote, backslash,
   newline, a control byte) plus raw UTF-8.  Clients compare frames
   byte for byte, so the encoder may change shape but never output. *)
let golden_responses =
  let target s = Spec.of_output_list ~bits:3 s in
  let cascade s = Cascade.of_string ~qubits:3 s in
  let ok ?id ?trace plan payload =
    { Mce.Response.id; trace; qubits = 3; body = Ok { plan; payload } }
  in
  let err ?id e = { Mce.Response.id; trace = None; qubits = 3; body = Error e } in
  let messy = "q\"uo\\te\nline\001ctl \xc3\xa9\xe2\x86\x92" in
  Mce.Response.
    [
      ( ok Trivial
          (Synthesized
             { target = target "5,4,7,6,1,0,3,2"; not_mask = 5; cascade = []; cost = 0 }),
        {|{"v":1,"qubits":3,"ok":{"plan":"trivial","payload":{"kind":"synthesized","target":"5,4,7,6,1,0,3,2","not_mask":5,"cascade":"()","cost":0}}}|}
      );
      ( ok ~id:messy ~trace:messy Index_hit
          (Synthesized
             {
               target = target "0,1,2,3,4,5,7,6";
               not_mask = 0;
               cascade = cascade "FBA*VCB*V+CA*FBA*V+CB";
               cost = 5;
             }),
        {|{"v":1,"id":"q\"uo\\te\nline\u0001ctl é→","trace":"q\"uo\\te\nline\u0001ctl é→","qubits":3,"ok":{"plan":"index","payload":{"kind":"synthesized","target":"0,1,2,3,4,5,7,6","not_mask":0,"cascade":"FBA*VCB*V+CA*FBA*V+CB","cost":5}}}|}
      );
      ( ok ~id:"u1" Index_certified (Unrealizable { max_depth = 4 }),
        {|{"v":1,"id":"u1","qubits":3,"ok":{"plan":"index-certified","payload":{"kind":"unrealizable","max_depth":4}}}|}
      );
      ( ok Forward_bfs (Witnesses { count = 1234507 }),
        {|{"v":1,"qubits":3,"ok":{"plan":"forward","payload":{"kind":"witnesses","count":1234507}}}|}
      );
      ( ok ~trace:"t-1f" Forward_bfs
          (Realizations
             {
               target = target "0,1,2,3,4,5,7,6";
               not_mask = 2;
               cost = 2;
               cascades = [ cascade "FBA*VCB"; cascade "VCB*FBA" ];
               complete = false;
             }),
        {|{"v":1,"trace":"t-1f","qubits":3,"ok":{"plan":"forward","payload":{"kind":"realizations","target":"0,1,2,3,4,5,7,6","not_mask":2,"cost":2,"cascades":["FBA*VCB","VCB*FBA"],"complete":false}}}|}
      );
      ( ok Bidir_meet
          (Realizations
             {
               target = target "0,1,2,3,4,5,6,7";
               not_mask = 0;
               cost = 0;
               cascades = [];
               complete = true;
             }),
        {|{"v":1,"qubits":3,"ok":{"plan":"bidir","payload":{"kind":"realizations","target":"0,1,2,3,4,5,6,7","not_mask":0,"cost":0,"cascades":[],"complete":true}}}|}
      );
      ( err ~id:messy (Bad_request messy),
        {|{"v":1,"id":"q\"uo\\te\nline\u0001ctl é→","qubits":3,"error":{"kind":"bad-request","message":"q\"uo\\te\nline\u0001ctl é→"}}|}
      );
      ( err (Unsupported "no census index"),
        {|{"v":1,"qubits":3,"error":{"kind":"unsupported","message":"no census index"}}|}
      );
      ( err (Overloaded { retry_after_ms = 10000 }),
        {|{"v":1,"qubits":3,"error":{"kind":"overloaded","retry_after_ms":10000}}|}
      );
      ( err ~id:"d" Deadline_exceeded,
        {|{"v":1,"id":"d","qubits":3,"error":{"kind":"deadline-exceeded"}}|} );
      ( err Shutting_down,
        {|{"v":1,"qubits":3,"error":{"kind":"shutting-down"}}|} );
      (err Cancelled, {|{"v":1,"qubits":3,"error":{"kind":"cancelled"}}|});
      ( err (Internal "\t\r\b\012"),
        {|{"v":1,"qubits":3,"error":{"kind":"internal","message":"\t\r\b\f"}}|}
      );
    ]

let response_golden_bytes () =
  List.iter
    (fun (resp, bytes) ->
      check Alcotest.string "encoder bytes" bytes (Mce.Response.to_string resp);
      match Mce.Response.of_string bytes with
      | Ok back -> checkb ("decodes back: " ^ bytes) true (Mce.Response.equal resp back)
      | Error e -> Alcotest.fail e)
    golden_responses

let response_bad_cascade_rejected () =
  let doc =
    {|{"v":1,"qubits":3,"ok":{"plan":"forward","payload":{"kind":"synthesized","target":"0,1,2,3,4,5,7,6","not_mask":0,"cascade":"XYZ*??","cost":2}}}|}
  in
  match Mce.Response.of_string doc with
  | Ok _ -> Alcotest.fail "ill-formed cascade accepted"
  | Error _ -> ()

(* {1 Protocol framing} *)

let with_socketpair f =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> f a b)

let frame_roundtrip () =
  with_socketpair (fun a b ->
      List.iter
        (fun payload ->
          Protocol.write_frame a payload;
          match Protocol.read_frame b with
          | Ok got -> check Alcotest.string "payload" payload got
          | Error e -> Alcotest.fail (Protocol.read_error_to_string e))
        [ "hello"; ""; String.make 30_000 'x'; "{\"v\":1}" ])

let frame_oversized_write () =
  with_socketpair (fun a _ ->
      match Protocol.write_frame ~max_len:8 a "123456789" with
      | () -> Alcotest.fail "oversized write accepted"
      | exception Invalid_argument _ -> ())

let frame_oversized_read () =
  with_socketpair (fun a b ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 0x7FFF_0000l;
      ignore (Unix.write a header 0 4);
      match Protocol.read_frame ~max_len:1024 b with
      | Error (Protocol.Oversized _) -> ()
      | Error e -> Alcotest.fail (Protocol.read_error_to_string e)
      | Ok _ -> Alcotest.fail "oversized announcement accepted")

let frame_truncated () =
  with_socketpair (fun a b ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 10l;
      ignore (Unix.write a header 0 4);
      ignore (Unix.write a (Bytes.of_string "abc") 0 3);
      Unix.close a;
      match Protocol.read_frame b with
      | Error Protocol.Truncated -> ()
      | Error e -> Alcotest.fail (Protocol.read_error_to_string e)
      | Ok _ -> Alcotest.fail "truncated frame accepted")

let frame_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Protocol.read_frame b with
      | Error Protocol.Closed -> ()
      | Error e -> Alcotest.fail (Protocol.read_error_to_string e)
      | Ok _ -> Alcotest.fail "read from closed peer succeeded")

(* {1 Buffered frame reader} *)

let frame_bytes payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

let write_all fd s =
  let rec go ofs =
    if ofs < String.length s then
      go (ofs + Unix.write_substring fd s ofs (String.length s - ofs))
  in
  go 0

let reader_event_to_string = function
  | Protocol.Reader.Frame p -> Printf.sprintf "frame %S" p
  | Protocol.Reader.Idle -> "idle"
  | Protocol.Reader.Failed e -> Protocol.read_error_to_string e

let next_frame r =
  match Protocol.Reader.next r with
  | Protocol.Reader.Frame p -> p
  | ev -> Alcotest.fail ("expected a frame, got " ^ reader_event_to_string ev)

let reader_pipelined () =
  (* Two and three frames in one write come back one by one; frames
     after the first are served from the buffer, without another read:
     the descriptor's receive side is shut before they are taken. *)
  List.iter
    (fun payloads ->
      with_socketpair (fun a b ->
          let r = Protocol.Reader.create b in
          write_all a (String.concat "" (List.map frame_bytes payloads));
          check Alcotest.string "first" (List.hd payloads) (next_frame r);
          Unix.shutdown b Unix.SHUTDOWN_RECEIVE;
          List.iter
            (fun p -> check Alcotest.string "buffered" p (next_frame r))
            (List.tl payloads);
          match Protocol.Reader.next r with
          | Protocol.Reader.Failed Protocol.Closed -> ()
          | ev -> Alcotest.fail ("after the last frame: " ^ reader_event_to_string ev)))
    [ [ "one"; "two" ]; [ {|{"spec":"toffoli"}|}; ""; String.make 5000 'y' ] ]

let reader_dribbled () =
  (* One frame written a byte per write, the header split across reads
     too; a receive timeout between two bytes only reports Idle. *)
  with_socketpair (fun a b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.002;
      let payload = {|{"spec":"0,1,2,3,4,7,5,6","max_depth":13}|} in
      let bytes = frame_bytes payload in
      let writer =
        Thread.create
          (fun () ->
            String.iter
              (fun c ->
                write_all a (String.make 1 c);
                Thread.delay 0.003)
              bytes)
          ()
      in
      let r = Protocol.Reader.create b in
      let rec until_frame () =
        match Protocol.Reader.next r with
        | Protocol.Reader.Frame p -> p
        | Protocol.Reader.Idle -> until_frame ()
        | ev -> Alcotest.fail (reader_event_to_string ev)
      in
      let got = until_frame () in
      Thread.join writer;
      check Alcotest.string "payload" payload got)

(* The verdicts of both readers on one byte stream ended by EOF. *)
let verdicts ?(max_len = 1024) bytes =
  let on_stream f =
    with_socketpair (fun a b ->
        write_all a bytes;
        Unix.shutdown a Unix.SHUTDOWN_SEND;
        f b)
  in
  let rec plain b acc =
    match Protocol.read_frame ~max_len b with
    | Ok p -> plain b (Ok p :: acc)
    | Error e -> List.rev (Error e :: acc)
  in
  let rec buffered r acc =
    match Protocol.Reader.next r with
    | Protocol.Reader.Frame p -> buffered r (Ok p :: acc)
    | Protocol.Reader.Idle -> Alcotest.fail "idle on a blocking socket"
    | Protocol.Reader.Failed e -> List.rev (Error e :: acc)
  in
  let a = on_stream (fun b -> plain b []) in
  let b = on_stream (fun b -> buffered (Protocol.Reader.create ~max_len b) []) in
  let show = function
    | Ok p -> "frame " ^ p
    | Error e -> Protocol.read_error_to_string e
  in
  check
    Alcotest.(list string)
    "read_frame and Reader agree" (List.map show a) (List.map show b);
  List.hd (List.rev b)

let reader_eof_verdicts () =
  let hdr n =
    let h = Bytes.create 4 in
    Bytes.set_int32_be h 0 n;
    Bytes.to_string h
  in
  let expect what want bytes =
    match verdicts bytes with
    | Error e when e = want -> ()
    | v ->
        Alcotest.failf "%s: got %s" what
          (match v with
          | Ok p -> "frame " ^ p
          | Error e -> Protocol.read_error_to_string e)
  in
  expect "EOF at a boundary" Protocol.Closed (frame_bytes "ab");
  expect "EOF mid-header" Protocol.Truncated (frame_bytes "ab" ^ "\000\000");
  expect "EOF mid-body" Protocol.Truncated (hdr 10l ^ "abc");
  expect "oversized" (Protocol.Oversized 0x7FFF_0000) (hdr 0x7FFF_0000l ^ "abc");
  expect "negative" (Protocol.Oversized (-1)) (hdr (-1l))

let reader_stall () =
  (* Receive timeouts at a frame boundary only ever report Idle; inside
     a frame the max_stalled_reads-th one is Timed_out. *)
  with_socketpair (fun a b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.005;
      let r = Protocol.Reader.create b in
      for _ = 1 to Protocol.Reader.max_stalled_reads + 5 do
        match Protocol.Reader.next r with
        | Protocol.Reader.Idle -> ()
        | ev -> Alcotest.fail ("idle connection: " ^ reader_event_to_string ev)
      done;
      write_all a "\000\000";
      let rec until_failed idles =
        match Protocol.Reader.next r with
        | Protocol.Reader.Idle -> until_failed (idles + 1)
        | Protocol.Reader.Failed Protocol.Timed_out -> idles
        | ev -> Alcotest.fail ("stalled frame: " ^ reader_event_to_string ev)
      in
      check Alcotest.int "idles before giving up"
        (Protocol.Reader.max_stalled_reads - 1) (until_failed 0))

(* {1 Service semantics} *)

let counter name = Telemetry.Counter.value (Telemetry.Counter.create name)

let service_cache_hit () =
  Telemetry.set_enabled true;
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let req = Mce.Request.make ~max_depth:5 "toffoli" in
  let hits0 = counter "server.cache.hit" in
  let first = Service.answer svc req in
  let second = Service.answer svc req in
  check Alcotest.string "identical bytes"
    (Mce.Response.to_string first)
    (Mce.Response.to_string second);
  check Alcotest.int "one cache hit" (hits0 + 1) (counter "server.cache.hit");
  (* A different id re-stamps the cached body without a recompute. *)
  let third = Service.answer svc { req with Mce.Request.id = Some "abc" } in
  check Alcotest.(option string) "id echoed" (Some "abc") third.Mce.Response.id;
  check Alcotest.int "still a hit" (hits0 + 2) (counter "server.cache.hit")

let service_accounting_under_concurrency () =
  (* N concurrent identical requests on a fresh key: exactly one miss
     (the leader computes); every other caller is a coalesced follower
     or a cache hit, depending on arrival time.  All answers byte-equal. *)
  Telemetry.set_enabled true;
  let svc = Service.create ~jobs:1 library3 in
  let req = Mce.Request.make ~max_depth:5 "peres" in
  let n = 6 in
  let hits0 = counter "server.cache.hit"
  and misses0 = counter "server.cache.miss"
  and coal0 = counter "server.coalesced" in
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create (fun () -> results.(i) <- Some (Service.answer svc req)) ())
  in
  List.iter Thread.join threads;
  let bytes =
    Array.to_list results
    |> List.map (function
         | Some r -> Mce.Response.to_string r
         | None -> Alcotest.fail "thread produced no result")
  in
  List.iter (fun b -> check Alcotest.string "all equal" (List.hd bytes) b) bytes;
  let hits = counter "server.cache.hit" - hits0
  and misses = counter "server.cache.miss" - misses0
  and coalesced = counter "server.coalesced" - coal0 in
  check Alcotest.int "one miss" 1 misses;
  check Alcotest.int "hit + coalesced + miss = n" n (hits + coalesced + misses)

let service_cancelled () =
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let req = Mce.Request.make ~max_depth:8 "0,1,2,3,4,7,5,6" in
  match (Service.answer ~should_stop:(fun () -> true) svc req).Mce.Response.body with
  | Error Mce.Response.Cancelled -> ()
  | body ->
      Alcotest.fail
        (Mce.Response.to_string { id = None; trace = None; qubits = 3; body })

let service_deadline () =
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let req = Mce.Request.make ~deadline_ms:1 ~max_depth:8 "0,1,2,3,4,7,5,6" in
  match (Service.answer svc req).Mce.Response.body with
  | Error Mce.Response.Deadline_exceeded -> ()
  | body ->
      Alcotest.fail
        (Mce.Response.to_string { id = None; trace = None; qubits = 3; body })

let service_qubits_mismatch () =
  let svc = Service.create library3 in
  let req = Mce.Request.make ~qubits:2 "toffoli" in
  match (Service.answer svc req).Mce.Response.body with
  | Error (Mce.Response.Bad_request _) -> ()
  | _ -> Alcotest.fail "qubit mismatch not rejected"

let service_unconfigured_library () =
  (* A single-library service names its configured universe in the
     rejection; requests never silently cross libraries. *)
  let svc = Service.create library3 in
  let req = Mce.Request.make ~library:"nft" "toffoli" in
  match (Service.answer svc req).Mce.Response.body with
  | Error (Mce.Response.Bad_request msg) ->
      checkb "rejection names both libraries" true
        (has_sub msg "nft" && has_sub msg "paper18")
  | _ -> Alcotest.fail "unconfigured library not rejected"

let service_routes_libraries () =
  (* A two-library service answers each universe exactly as a one-shot
     evaluation of that library would — the cross-transport byte-identity
     contract, per library. *)
  let nft = Library.of_name "nft" in
  let svc = Service.create ~libraries:[ nft ] library3 in
  check
    (Alcotest.list Alcotest.string)
    "libraries, primary first" [ "paper18"; "nft" ] (Service.libraries svc);
  List.iter
    (fun (name, lib) ->
      let req = Mce.Request.make ~library:name "toffoli" in
      let via_service = Service.answer svc req in
      let one_shot = Mce.solve lib req in
      check Alcotest.string
        (name ^ " answer matches one-shot")
        (Mce.Response.to_string one_shot)
        (Mce.Response.to_string via_service))
    [ ("paper18", library3); ("nft", nft) ];
  (* a library named twice keeps its first binding, and one named like
     the primary is ignored *)
  let nct = Library.of_name "nct" in
  check
    (Alcotest.list Alcotest.string)
    "duplicates collapse" [ "paper18"; "nct"; "nft" ]
    (Service.libraries
       (Service.create ~libraries:[ nct; library3; nft; nct ] library3));
  (* an unconfigured third universe still fails *)
  match
    (Service.answer svc (Mce.Request.make ~library:"nct" "toffoli"))
      .Mce.Response.body
  with
  | Error (Mce.Response.Bad_request _) -> ()
  | _ -> Alcotest.fail "nct accepted by a paper18+nft service"

(* {1 Index-first path} *)

let closure = lazy (Fmcf.run ~max_depth:13 ~quotient:true library3)
let complete_index = lazy (Census_index.build (Lazy.force closure))
let census4 = lazy (Fmcf.run ~max_depth:4 library3)
let index4 = lazy (Census_index.build (Lazy.force census4))

let with_saved_index idx f =
  let path = Filename.temp_file "qsynth_srv_idx" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () ->
      Census_index.save idx path;
      f path)

(* every member of S8 as a truth-table spec *)
let s8_specs =
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
          xs
  in
  List.map
    (fun p -> String.concat "," (List.map string_of_int p))
    (perms [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let gauge name = Telemetry.Gauge.value (Telemetry.Gauge.create name)

let cache_traffic () =
  ( List.map counter [ "server.cache.hit"; "server.cache.miss"; "server.coalesced" ],
    gauge "server.cache.size" )

let answer_plan svc req =
  match (Service.answer svc req).Mce.Response.body with
  | Ok { plan; _ } -> Mce.Response.plan_to_string plan
  | Error _ -> "error"

let index_first_matches_solve () =
  (* A complete index answers every S8 request straight from the probe:
     the bytes equal a one-shot solve against the same index, and the
     cache/coalescer never sees the request. *)
  Telemetry.set_enabled true;
  let index = Lazy.force complete_index in
  let svc = Service.create ~index library3 in
  let reqs = List.map (fun spec -> Mce.Request.make ~max_depth:13 spec) s8_specs in
  check Alcotest.int "all of S8" 40320 (List.length reqs);
  let traffic0 = cache_traffic () and plan0 = counter "mce.plan.index" in
  let answers =
    List.map (fun r -> Mce.Response.to_string (Service.answer svc r)) reqs
  in
  checkb "no cache or coalescer traffic" true (traffic0 = cache_traffic ());
  let count plan = List.length (List.filter (fun s -> has_sub s plan) answers) in
  check Alcotest.int "index answers" 40312 (count {|"plan":"index"|});
  check Alcotest.int "trivial answers" 8 (count {|"plan":"trivial"|});
  check Alcotest.int "mce.plan.index counts every index answer" 40312
    (counter "mce.plan.index" - plan0);
  List.iter2
    (fun r got ->
      let want = Mce.Response.to_string (Mce.solve ~index library3 r) in
      if not (String.equal want got) then
        Alcotest.failf "%s: service %s <> solve %s" r.Mce.Request.spec got want)
    reqs answers;
  (* the instrumented twin takes the same path and says so *)
  let req = Mce.Request.make ~id:"t" ~max_depth:13 "0,1,2,3,4,7,5,6" in
  let resp, timing = Service.answer_timed svc req in
  check Alcotest.string "timed bytes"
    (Mce.Response.to_string (Service.answer svc req))
    (Mce.Response.to_string resp);
  checkb "computed, no cache stage" true
    (timing.Service.source = `Computed && timing.Service.cache_s = 0.);
  check Alcotest.(option string) "plan" (Some "index") timing.Service.plan;
  checkb "still no cache traffic" true (traffic0 = cache_traffic ())

let index_first_pinned_plans_keyed () =
  (* Search answers keep the keyed path on the same service. *)
  Telemetry.set_enabled true;
  let svc = Service.create ~index:(Lazy.force complete_index) library3 in
  let req = Mce.Request.make ~plan:Mce.Request.Forward ~max_depth:5 "toffoli" in
  let hits0 = counter "server.cache.hit" and misses0 = counter "server.cache.miss" in
  let first = Service.answer svc req in
  let second = Service.answer svc req in
  check Alcotest.string "identical bytes"
    (Mce.Response.to_string first)
    (Mce.Response.to_string second);
  check Alcotest.int "one miss" (misses0 + 1) (counter "server.cache.miss");
  check Alcotest.int "then a hit" (hits0 + 1) (counter "server.cache.hit");
  (* the timed path is the same admission: computed once, then cached *)
  let svc = Service.create ~index:(Lazy.force complete_index) library3 in
  let source (_, timing) = timing.Service.source in
  let timed1 = Service.answer_timed svc req in
  let timed2 = Service.answer_timed svc req in
  checkb "timed: computed first" true (source timed1 = `Computed);
  checkb "timed: then a cache hit" true (source timed2 = `Cache_hit);
  List.iter
    (fun (resp, _) ->
      check Alcotest.string "timed bytes equal answer"
        (Mce.Response.to_string first)
        (Mce.Response.to_string resp))
    [ timed1; timed2 ]

let index_first_follows_reload () =
  (* Answers come from whichever index is published: a partial one puts
     requests back on the keyed search path, a complete one takes them
     off it again. *)
  Telemetry.set_enabled true;
  let svc = Service.create ~index:(Lazy.force complete_index) library3 in
  let cost8 = Mce.Request.make ~max_depth:13 "0,1,2,3,4,7,5,6" in
  check Alcotest.string "complete index" "index" (answer_plan svc cost8);
  with_saved_index (Lazy.force index4) (fun partial ->
      ignore (Service.reload_index svc partial);
      let misses0 = counter "server.cache.miss" in
      check Alcotest.string "partial index: searched" "forward"
        (answer_plan svc cost8);
      check Alcotest.int "keyed again" (misses0 + 1) (counter "server.cache.miss"));
  with_saved_index (Lazy.force complete_index) (fun full ->
      ignore (Service.reload_index svc full);
      let traffic0 = cache_traffic () in
      check Alcotest.string "complete again" "index" (answer_plan svc cost8);
      checkb "off the keyed path" true (traffic0 = cache_traffic ()))

let failed_reload_keeps_old_index () =
  (* A rejected file leaves the published index and the response cache
     exactly as they were: same bytes, same plan, same cache size. *)
  Telemetry.set_enabled true;
  let svc = Service.create ~index:(Lazy.force complete_index) library3 in
  let cost8 = Mce.Request.make ~max_depth:13 "0,1,2,3,4,7,5,6" in
  let keyed = Mce.Request.make ~plan:Mce.Request.Forward ~max_depth:5 "toffoli" in
  ignore (Service.answer svc keyed);
  let want = Mce.Response.to_string (Service.answer svc cost8) in
  let size0 = gauge "server.cache.size" in
  checkb "cache holds the keyed answer" true (size0 > 0.);
  let still_serving what =
    check Alcotest.string (what ^ ": same bytes") want
      (Mce.Response.to_string (Service.answer svc cost8));
    check Alcotest.string (what ^ ": same plan") "index" (answer_plan svc cost8);
    check (Alcotest.float 0.) (what ^ ": cache size unchanged") size0
      (gauge "server.cache.size")
  in
  with_saved_index (Lazy.force complete_index) (fun path ->
      let bytes = Checkpoint.read_file path in
      let mid = Bytes.length bytes / 2 in
      Bytes.set_uint8 bytes mid (Bytes.get_uint8 bytes mid lxor 0xFF);
      Checkpoint.write_atomic path bytes;
      (match Service.reload_index svc path with
      | _ -> Alcotest.fail "corrupt index accepted"
      | exception Checkpoint.Corrupt _ -> ());
      still_serving "corrupt");
  let nct = Library.of_name "nct" in
  with_saved_index (Census_index.build (Fmcf.run ~max_depth:2 nct)) (fun path ->
      (match Service.reload_index svc path with
      | _ -> Alcotest.fail "another library's index accepted"
      | exception Checkpoint.Mismatch _ -> ());
      still_serving "mismatch")

(* {1 qsynth batch over a pipe} *)

let qsynth_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "qsynth.exe" ]

let batch_lines =
  [
    {|{"id":"a","spec":"toffoli"}|};
    {|{"spec":"fredkin","max_depth":5}|};
    {|{"qubits":40,"spec":"(1,2)"}|};
    "not json";
    {|{"spec":"peres","plan":"forward"}|};
  ]

(* Fail instead of hanging when a response never arrives. *)
let input_line_within fd ic secs =
  match Unix.select [ fd ] [] [] secs with
  | [], _, _ -> Alcotest.fail "no response in time: batch - did not flush"
  | _ -> input_line ic

let batch_stdin_streams () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process qsynth_exe [| qsynth_exe; "batch"; "-" |] in_r out_w
      Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w and ic = Unix.in_channel_of_descr out_r in
  (* lock-step: the next request is written only after the previous
     answer came back *)
  let streamed =
    List.map
      (fun line ->
        output_string oc (line ^ "\n");
        flush oc;
        input_line_within out_r ic 60.)
      batch_lines
  in
  close_out oc;
  check Alcotest.string "nothing after the last answer" "" (In_channel.input_all ic);
  close_in ic;
  let _, stdin_status = Unix.waitpid [] pid in
  List.iter2
    (fun line resp ->
      match Mce.Response.of_string resp with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s -> undecodable %s: %s" line resp e)
    batch_lines streamed;
  checkb "qubits 40 is a typed Bad_request" true
    (has_sub (List.nth streamed 2) {|"kind":"bad-request"|}
    && has_sub (List.nth streamed 2) "qubits");
  let path = Filename.temp_file "qsynth_batch" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) batch_lines);
  let ic = Unix.open_process_args_in qsynth_exe [| qsynth_exe; "batch"; path |] in
  let from_file = In_channel.input_all ic in
  let file_status = Unix.close_process_in ic in
  check Alcotest.string "file mode = stdin mode"
    (String.concat "" (List.map (fun l -> l ^ "\n") streamed))
    from_file;
  checkb "same exit status (1: two bad lines)" true
    (stdin_status = file_status && file_status = Unix.WEXITED 1)

(* {1 Live daemon: concurrent stress with byte-identity} *)

let temp_socket_path () =
  let path = Filename.temp_file "qsynth_sock" ".s" in
  Sys.remove path;
  path

(* The mixed workload: every plan family, both error paths, counting and
   enumeration.  Depths stay small (index horizon 4) so the whole stress
   run is fast. *)
let stress_requests =
  [
    Mce.Request.make ~max_depth:6 "toffoli" (* index miss -> forward BFS *);
    Mce.Request.make ~max_depth:6 "fredkin";
    Mce.Request.make "identity" (* trivial plan *);
    Mce.Request.make ~max_depth:4 "(7,8)"
    (* toffoli in cycle syntax, cost 5 > horizon 4: index-certified
       unrealizable *);
    Mce.Request.make ~plan:Mce.Request.Index ~max_depth:3 "(7,8)";
    Mce.Request.make ~max_depth:4 "0,1,2,3,6,7,4,5" (* CNOT: an index hit *);
    Mce.Request.make ~plan:Mce.Request.Bidir ~max_depth:6 "toffoli";
    Mce.Request.make ~task:Mce.Request.Count_witnesses ~max_depth:5 "toffoli";
    Mce.Request.make
      ~task:(Mce.Request.Enumerate { limit = 5 })
      ~max_depth:5 "toffoli";
    Mce.Request.make ~max_depth:6 "0,1,2,3,4,7,5,6" (* certified unrealizable *);
    Mce.Request.make "not a spec" (* Bad_request *);
    Mce.Request.make ~qubits:2 "toffoli" (* qubit mismatch *);
  ]

let daemon_stress () =
  let index = Lazy.force index4 in
  (* One-shot oracle: a fresh service per the byte-identity contract —
     same index, no shared state with the daemon. *)
  let oracle = Service.create ~jobs:jobs_under_test ~index library3 in
  let expected =
    List.map
      (fun r -> (r, Mce.Response.to_string (Service.answer oracle r)))
      stress_requests
  in
  let svc = Service.create ~jobs:jobs_under_test ~index library3 in
  let socket = temp_socket_path () in
  let daemon = Daemon.start ~workers:2 ~queue_capacity:64 ~socket svc in
  let n_threads = 8 and per_thread = 50 in
  let failures = Atomic.make 0 in
  let fail_msg = ref "" and fail_mutex = Mutex.create () in
  let client t_idx =
    let fd = Protocol.connect socket in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let k = List.length expected in
        for i = 0 to per_thread - 1 do
          let req, want = List.nth expected ((t_idx + i) mod k) in
          match Protocol.call fd req with
          | Ok resp ->
              let got = Mce.Response.to_string resp in
              if not (String.equal got want) then begin
                Atomic.incr failures;
                Mutex.lock fail_mutex;
                if !fail_msg = "" then
                  fail_msg :=
                    Printf.sprintf "request %s:\n  daemon:   %s\n  one-shot: %s"
                      req.Mce.Request.spec got want;
                Mutex.unlock fail_mutex
              end
          | Error e ->
              Atomic.incr failures;
              Mutex.lock fail_mutex;
              if !fail_msg = "" then fail_msg := "transport: " ^ e;
              Mutex.unlock fail_mutex
        done)
  in
  let threads = List.init n_threads (fun i -> Thread.create client i) in
  List.iter Thread.join threads;
  Daemon.stop daemon;
  Daemon.wait daemon;
  if Atomic.get failures > 0 then
    Alcotest.fail
      (Printf.sprintf "%d/%d responses diverged; first: %s"
         (Atomic.get failures) (n_threads * per_thread) !fail_msg);
  checkb "socket unlinked" false (Sys.file_exists socket)

let daemon_drain_in_flight () =
  (* A request accepted before the drain begins must still be answered
     with its real result; after [wait] the socket file is gone and new
     connections are refused. *)
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let socket = temp_socket_path () in
  let daemon = Daemon.start ~workers:1 ~socket svc in
  let fd = Protocol.connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = Mce.Request.make ~max_depth:7 "fredkin" in
      Protocol.write_frame fd (Telemetry.Json.to_string (Mce.Request.to_json req));
      (* Let the reader pick the frame up, then drain mid-computation. *)
      Thread.delay 0.2;
      Daemon.stop daemon;
      (match Protocol.read_frame fd with
      | Error e -> Alcotest.fail (Protocol.read_error_to_string e)
      | Ok payload -> (
          match Mce.Response.of_string payload with
          | Error e -> Alcotest.fail e
          | Ok resp -> (
              match resp.Mce.Response.body with
              | Ok { payload = Mce.Response.Witnesses _; _ }
              | Ok { payload = Mce.Response.Realizations _; _ } ->
                  Alcotest.fail "wrong payload kind"
              | Ok { payload = Mce.Response.Synthesized { cost; _ }; _ } ->
                  check Alcotest.int "fredkin cost" 7 cost
              | Ok { payload = Mce.Response.Unrealizable _; _ } ->
                  Alcotest.fail "fredkin reported unrealizable"
              | Error e ->
                  Alcotest.fail
                    ("in-flight request not answered: "
                    ^ Mce.Response.to_string
                        { resp with Mce.Response.body = Error e }))));
      Daemon.wait daemon;
      checkb "socket unlinked" false (Sys.file_exists socket);
      match Protocol.connect socket with
      | _fd2 -> Alcotest.fail "connect succeeded after drain"
      | exception Unix.Unix_error _ -> ())

(* {1 Live daemon: inline index answers} *)

let with_index_daemon ?workers ?queue_capacity ?trace ?libraries f =
  let svc =
    Service.create ?libraries ~index:(Lazy.force complete_index) library3
  in
  let socket = temp_socket_path () in
  let daemon = Daemon.start ?workers ?queue_capacity ?trace ~socket svc in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop daemon;
      Daemon.wait daemon)
    (fun () -> f svc daemon socket)

let request_frame req =
  frame_bytes (Telemetry.Json.to_string (Mce.Request.to_json req))

let read_response fd =
  match Protocol.read_frame fd with
  | Error e -> Alcotest.fail (Protocol.read_error_to_string e)
  | Ok payload -> (
      match Mce.Response.of_string payload with
      | Ok resp -> resp
      | Error e -> Alcotest.fail e)

let with_connection socket f =
  let fd = Protocol.connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

let call_ok fd req =
  match Protocol.call fd req with
  | Ok resp -> resp
  | Error e -> Alcotest.fail ("transport: " ^ e)

(* the exact cost-8 function: a probe no forward horizon reaches *)
let probe ?id () = Mce.Request.make ?id ~max_depth:13 "0,1,2,3,4,7,5,6"

let daemon_inline_never_overloaded () =
  (* One worker, a one-slot queue, both held by keyed searches that run
     to their deadline (a transposition on four wires is odd, so NCT
     never reaches it).  An index request sent behind them is answered
     at once, with Service.answer's bytes, while a keyed request sent
     just before it is refused as overloaded. *)
  Telemetry.set_enabled true;
  let nct4 = Library.of_name ~qubits:4 "nct" in
  with_index_daemon ~workers:1 ~queue_capacity:1 ~libraries:[ nct4 ]
  @@ fun svc _ socket ->
  with_connection socket @@ fun fd ->
  let search id =
    Mce.Request.make ~id ~qubits:4 ~library:"nct" ~max_depth:12
      ~deadline_ms:500 "(14,15)"
  in
  write_all fd (request_frame (search "busy"));
  (* wait for the worker to take it, so the next one fills the queue *)
  let t0 = Unix.gettimeofday () in
  while gauge "server.inflight" < 1. do
    if Unix.gettimeofday () -. t0 > 10. then Alcotest.fail "no worker took the search";
    Thread.delay 0.001
  done;
  write_all fd
    (String.concat ""
       (List.map request_frame
          [ search "queued"; search "refused"; probe ~id:"probe" () ]));
  let id (r : Mce.Response.t) = Option.value r.Mce.Response.id ~default:"" in
  (* responses in arrival order *)
  let responses = List.init 4 (fun _ -> read_response fd) in
  check
    Alcotest.(list string)
    "refusal and index answer come first, searches last"
    [ "refused"; "probe"; "busy"; "queued" ]
    (List.map id responses);
  match responses with
  | [ refused; answer; busy; queued ] ->
      (match refused.Mce.Response.body with
      | Error (Mce.Response.Overloaded _) -> ()
      | _ -> Alcotest.fail "the queue was not full: the keyed request got in");
      check Alcotest.string "inline bytes = Service.answer"
        (Mce.Response.to_string (Service.answer svc (probe ~id:"probe" ())))
        (Mce.Response.to_string answer);
      List.iter
        (fun (r : Mce.Response.t) ->
          match r.Mce.Response.body with
          | Error Mce.Response.Deadline_exceeded -> ()
          | _ -> Alcotest.fail (id r ^ ": expected the search to hit its deadline"))
        [ busy; queued ]
  | _ -> assert false

let daemon_inline_pipelined () =
  (* Index frames pipelined in one write are answered in order, a
     zero-length frame gets a bad-request reply, and the inline answers
     count in server.requests. *)
  Telemetry.set_enabled true;
  with_index_daemon @@ fun svc _ socket ->
  with_connection socket @@ fun fd ->
  let reqs =
    List.map (fun spec -> Mce.Request.make ~id:spec ~max_depth:13 spec)
      [ "toffoli"; "fredkin"; "0,1,2,3,4,7,5,6" ]
  in
  let requests0 = counter "server.requests" in
  write_all fd (String.concat "" (List.map request_frame reqs));
  List.iter
    (fun req ->
      check Alcotest.string "in order, Service.answer's bytes"
        (Mce.Response.to_string (Service.answer svc req))
        (Mce.Response.to_string (read_response fd)))
    reqs;
  check Alcotest.int "server.requests counts inline answers" 3
    (counter "server.requests" - requests0);
  write_all fd (frame_bytes "");
  (match (read_response fd).Mce.Response.body with
  | Error (Mce.Response.Bad_request _) -> ()
  | _ -> Alcotest.fail "zero-length frame not answered as bad-request");
  check Alcotest.string "connection still serves"
    (Mce.Response.to_string (Service.answer svc (probe ())))
    (Mce.Response.to_string (call_ok fd (probe ())))

let daemon_oversized_drops () =
  with_index_daemon @@ fun _ _ socket ->
  with_connection socket @@ fun fd ->
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 0x7FFF_0000l;
  write_all fd (Bytes.to_string hdr ^ String.make 100 'x');
  match Protocol.read_frame fd with
  | Error Protocol.Closed | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      ()
  | Ok _ -> Alcotest.fail "oversized frame answered"
  | Error e -> Alcotest.fail (Protocol.read_error_to_string e)

let daemon_drain_buffered_inline () =
  (* Index frames that reach a connection after stop, pipelined so all
     but the first sit in the reader's buffer, each get shutting-down;
     then the daemon hangs up. *)
  with_index_daemon @@ fun _ daemon socket ->
  with_connection socket @@ fun fd ->
  ignore (call_ok fd (probe ()));
  Daemon.stop daemon;
  write_all fd
    (String.concat ""
       (List.map (fun id -> request_frame (probe ~id ())) [ "a"; "b"; "c" ]));
  List.iter
    (fun id ->
      let resp = read_response fd in
      check Alcotest.(option string) "id" (Some id) resp.Mce.Response.id;
      match resp.Mce.Response.body with
      | Error Mce.Response.Shutting_down -> ()
      | _ -> Alcotest.fail (id ^ ": answered during the drain"))
    [ "a"; "b"; "c" ];
  match Protocol.read_frame fd with
  | Error Protocol.Closed -> ()
  | Ok _ -> Alcotest.fail "a fourth response"
  | Error e -> Alcotest.fail (Protocol.read_error_to_string e)

(* {1 HTTP observability endpoints} *)

let find_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else scan (i + 1)
  in
  scan 0

let contains haystack needle = find_sub haystack needle <> None

let http_req port meth path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
          meth path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      let raw = Buffer.contents buf in
      match (String.index_opt raw ' ', find_sub raw "\r\n\r\n") with
      | Some sp, Some sep ->
          let code = int_of_string (String.trim (String.sub raw (sp + 1) 3)) in
          let headers = String.sub raw 0 sep in
          let body = String.sub raw (sep + 4) (String.length raw - sep - 4) in
          (code, headers, body)
      | _ -> Alcotest.fail ("malformed HTTP response: " ^ raw))

let http_get port path = http_req port "GET" path

let http_endpoints () =
  let ready = ref false in
  let srv = Http.start ~port:0 ~ready:(fun () -> !ready) () in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let port = Http.port srv in
      let code, _, body = http_get port "/healthz" in
      check Alcotest.int "healthz is 200" 200 code;
      check Alcotest.string "healthz body" "ok" (String.trim body);
      let code, _, _ = http_get port "/readyz" in
      check Alcotest.int "readyz 503 before ready" 503 code;
      ready := true;
      let code, _, _ = http_get port "/readyz" in
      check Alcotest.int "readyz 200 once ready" 200 code;
      ready := false;
      let code, _, _ = http_get port "/readyz" in
      check Alcotest.int "readyz flips back on drain" 503 code;
      Telemetry.set_enabled true;
      Telemetry.Counter.incr (Telemetry.Counter.create "server.requests");
      let code, headers, body = http_get port "/metrics" in
      check Alcotest.int "metrics is 200" 200 code;
      checkb "prometheus content type" true
        (contains headers "text/plain; version=0.0.4");
      checkb "exposition has TYPE lines" true (contains body "# TYPE qsynth_");
      checkb "daemon counter exported" true
        (contains body "qsynth_server_requests_total");
      let code, _, _ = http_get port "/nope" in
      check Alcotest.int "unknown path is 404" 404 code;
      let code, _, _ = http_req port "POST" "/metrics" in
      check Alcotest.int "non-GET is 405" 405 code)

(* {1 Tracing through the daemon} *)

let daemon_trace_ids () =
  (* With tracing on, every response carries a distinct trace id — and
     the id survives the JSON round-trip (the wire is re-parsed by
     [Protocol.call]).  Cache hits get fresh ids too: the id names the
     request, not the computation. *)
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let socket = temp_socket_path () in
  let daemon = Daemon.start ~workers:1 ~trace:true ~socket svc in
  let fd = Protocol.connect socket in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Daemon.stop daemon;
      Daemon.wait daemon)
    (fun () ->
      let req = Mce.Request.make ~max_depth:5 "toffoli" in
      let a = call_ok fd req in
      let b = call_ok fd req in
      (match (a.Mce.Response.trace, b.Mce.Response.trace) with
      | Some ta, Some tb ->
          checkb "distinct ids per request" true (not (String.equal ta tb))
      | _ -> Alcotest.fail "tracing daemon answered without a trace id");
      (* Overload-free sanity: the traced path must still agree with the
         untraced result once the trace id is erased. *)
      let oracle = Service.create ~jobs:jobs_under_test library3 in
      let want = Mce.Response.to_string (Service.answer oracle req) in
      let got = Mce.Response.to_string (Mce.Response.with_trace None a) in
      check Alcotest.string "traced body equals untraced" want got)

let daemon_traced_inline () =
  (* A traced daemon answering from its complete index: every trace id
     it returns names a server.request root in the span file, with the
     mce.solve and server.write children and no server.queue_wait. *)
  Telemetry.set_enabled true;
  let path = Filename.temp_file "qsynth_trace" ".jsonl" in
  let oc = open_out path in
  Telemetry.set_jsonl (Some oc);
  let ids =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_jsonl None;
        close_out oc)
      (fun () ->
        with_index_daemon ~trace:true @@ fun _ _ socket ->
        with_connection socket @@ fun fd ->
        List.map
          (fun spec ->
            match (call_ok fd (Mce.Request.make ~max_depth:13 spec)).Mce.Response.trace with
            | Some tr -> tr
            | None -> Alcotest.fail "traced daemon answered without a trace id")
          [ "toffoli"; "fredkin"; "0,1,2,3,4,7,5,6"; "toffoli" ])
  in
  let lines = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let spans =
    String.split_on_char '\n' lines
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           let open Telemetry.Json in
           let j = of_string l in
           let str = function Some (String s) -> s | _ -> "" in
           ( str (Option.bind (member "attrs" j) (member "trace")),
             str (member "name" j),
             match member "depth" j with Some (Int d) -> d | _ -> -1 ))
  in
  List.iter
    (fun tr ->
      check
        Alcotest.(list (pair string int))
        (tr ^ ": one request tree")
        [ ("mce.solve", 1); ("server.request", 0); ("server.write", 1) ]
        (List.sort compare
           (List.filter_map
              (fun (t, name, depth) -> if t = tr then Some (name, depth) else None)
              spans)))
    ids

let daemon_untraced_has_no_trace () =
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let socket = temp_socket_path () in
  let daemon = Daemon.start ~workers:1 ~socket svc in
  let fd = Protocol.connect socket in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Daemon.stop daemon;
      Daemon.wait daemon)
    (fun () ->
      let resp = call_ok fd (Mce.Request.make ~max_depth:5 "toffoli") in
      check Alcotest.(option string) "no trace id without observability"
        None resp.Mce.Response.trace)

(* {1 Slow-query log} *)

let with_slow_daemon ~slow_ms f =
  let path = Filename.temp_file "qsynth_slowlog" ".jsonl" in
  let oc = open_out path in
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let socket = temp_socket_path () in
  let daemon = Daemon.start ~workers:1 ~slow_ms ~slow_oc:oc ~socket svc in
  let fd = Protocol.connect socket in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Daemon.stop daemon;
          Daemon.wait daemon;
          close_out oc)
        (fun () -> ignore (f fd));
      let ic = open_in path in
      let rec lines acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> lines (l :: acc)
      in
      let ls = lines [] in
      close_in ic;
      ls)

let slow_log_threshold_zero () =
  (* slow_ms = 0: every request crosses the threshold, including cache
     hits.  Each line is one JSON object with the documented fields. *)
  let lines =
    with_slow_daemon ~slow_ms:0 (fun fd ->
        let req = Mce.Request.make ~max_depth:5 "toffoli" in
        ignore (call_ok fd req);
        ignore (call_ok fd req))
  in
  check Alcotest.int "one line per request" 2 (List.length lines);
  List.iter
    (fun line ->
      let open Telemetry in
      match Json.of_string line with
      | exception Json.Parse_error e -> Alcotest.fail (e ^ ": " ^ line)
      | Json.Obj fields ->
          check Alcotest.(option string) "type tag" (Some "slow_query")
            (match List.assoc_opt "type" fields with
            | Some (Json.String s) -> Some s
            | _ -> None);
          checkb "has trace id" true (List.mem_assoc "trace" fields);
          List.iter
            (fun k -> checkb ("has " ^ k) true (List.mem_assoc k fields))
            [ "key"; "plan"; "source"; "outcome"; "queue_depth";
              "queue_wait_s"; "cache_s"; "coalesce_wait_s"; "solve_s";
              "write_s"; "total_s" ]
      | _ -> Alcotest.fail ("not an object: " ^ line))
    lines

let slow_log_threshold_high () =
  (* An unreachable threshold logs nothing, but the traced path still
     answers normally. *)
  let lines =
    with_slow_daemon ~slow_ms:3_600_000 (fun fd ->
        ignore (call_ok fd (Mce.Request.make ~max_depth:5 "toffoli")))
  in
  check Alcotest.int "no slow lines" 0 (List.length lines)

let slow_log_negative_rejected () =
  let svc = Service.create ~jobs:jobs_under_test library3 in
  match Daemon.start ~workers:1 ~slow_ms:(-1) ~socket:(temp_socket_path ()) svc with
  | _ -> Alcotest.fail "negative slow_ms accepted"
  | exception Invalid_argument _ -> ()

let daemon_workers_bounded () =
  (* Worker domains spawn lazily, so a count beyond the runtime's domain
     limit must fail at start, not on the first search request. *)
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let socket = temp_socket_path () in
  (match Daemon.start ~workers:128 ~socket svc with
  | _ -> Alcotest.fail "128 workers accepted"
  | exception Invalid_argument _ -> ());
  checkb "no socket bound" false (Sys.file_exists socket)

let daemon_draining_flag () =
  let svc = Service.create ~jobs:jobs_under_test library3 in
  let socket = temp_socket_path () in
  let daemon = Daemon.start ~workers:1 ~socket svc in
  checkb "not draining after start" false (Daemon.draining daemon);
  Daemon.stop daemon;
  checkb "draining right after stop" true (Daemon.draining daemon);
  Daemon.wait daemon;
  checkb "still draining after wait" true (Daemon.draining daemon)

let () =
  Alcotest.run "server"
    [
      ( "codec",
        [
          request_roundtrip;
          Alcotest.test_case "unknown field rejected" `Quick
            request_unknown_field_rejected;
          Alcotest.test_case "missing fields take defaults" `Quick
            request_defaults;
          Alcotest.test_case "key canonicalizes spec" `Quick key_canonicalizes;
          Alcotest.test_case "unknown library rejected" `Quick
            request_unknown_library_rejected;
          Alcotest.test_case "qubits bounded to the encoding range" `Quick
            request_qubits_bounded;
          Alcotest.test_case "library round-trips, default omitted" `Quick
            request_library_roundtrip;
          Alcotest.test_case "key differs across libraries" `Quick
            key_differs_across_libraries;
          response_string_roundtrip;
          encoding_is_canonical;
          Alcotest.test_case "bad cascade rejected" `Quick
            response_bad_cascade_rejected;
          Alcotest.test_case "golden response bytes" `Quick
            response_golden_bytes;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "frame round-trip" `Quick frame_roundtrip;
          Alcotest.test_case "oversized write refused" `Quick
            frame_oversized_write;
          Alcotest.test_case "oversized announcement refused" `Quick
            frame_oversized_read;
          Alcotest.test_case "truncated frame detected" `Quick frame_truncated;
          Alcotest.test_case "clean close detected" `Quick frame_closed;
          Alcotest.test_case "pipelined frames, one read" `Quick
            reader_pipelined;
          Alcotest.test_case "dribbled frame" `Quick reader_dribbled;
          Alcotest.test_case "EOF verdicts agree with read_frame" `Quick
            reader_eof_verdicts;
          Alcotest.test_case "stall budget" `Quick reader_stall;
        ] );
      ( "service",
        [
          Alcotest.test_case "cache hit on repeat" `Quick service_cache_hit;
          Alcotest.test_case "miss/hit/coalesce accounting" `Quick
            service_accounting_under_concurrency;
          Alcotest.test_case "cancellation" `Quick service_cancelled;
          Alcotest.test_case "deadline maps to Deadline_exceeded" `Quick
            service_deadline;
          Alcotest.test_case "qubit mismatch is Bad_request" `Quick
            service_qubits_mismatch;
          Alcotest.test_case "unconfigured library is Bad_request" `Quick
            service_unconfigured_library;
          Alcotest.test_case "two-library routing matches one-shot" `Quick
            service_routes_libraries;
        ] );
      ( "index",
        [
          Alcotest.test_case "all of S8 matches solve, cache untouched" `Quick
            index_first_matches_solve;
          Alcotest.test_case "pinned forward plan stays cached" `Quick
            index_first_pinned_plans_keyed;
          Alcotest.test_case "reload switches the answering index" `Quick
            index_first_follows_reload;
          Alcotest.test_case "failed reload keeps the old index" `Quick
            failed_reload_keeps_old_index;
        ] );
      ( "batch",
        [
          Alcotest.test_case "stdin streams, file mode identical" `Quick
            batch_stdin_streams;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "concurrent stress, byte-identical" `Slow
            daemon_stress;
          Alcotest.test_case "graceful drain answers in-flight" `Quick
            daemon_drain_in_flight;
          Alcotest.test_case "worker count bounded at start" `Quick
            daemon_workers_bounded;
          Alcotest.test_case "draining flag transitions" `Quick
            daemon_draining_flag;
          Alcotest.test_case "index answers never overloaded" `Quick
            daemon_inline_never_overloaded;
          Alcotest.test_case "pipelined index frames, counted" `Quick
            daemon_inline_pipelined;
          Alcotest.test_case "oversized frame drops the connection" `Quick
            daemon_oversized_drops;
          Alcotest.test_case "drain answers buffered index frames" `Quick
            daemon_drain_buffered_inline;
        ] );
      ( "http",
        [ Alcotest.test_case "metrics/healthz/readyz" `Quick http_endpoints ] );
      ( "tracing",
        [
          Alcotest.test_case "trace ids round-trip" `Quick daemon_trace_ids;
          Alcotest.test_case "no trace id when untraced" `Quick
            daemon_untraced_has_no_trace;
          Alcotest.test_case "inline answers join their trace" `Quick
            daemon_traced_inline;
        ] );
      ( "slow-log",
        [
          Alcotest.test_case "threshold 0 logs every request" `Quick
            slow_log_threshold_zero;
          Alcotest.test_case "unreachable threshold logs nothing" `Quick
            slow_log_threshold_high;
          Alcotest.test_case "negative threshold rejected" `Quick
            slow_log_negative_rejected;
        ] );
    ]
