(* The evaluator's contract, pinned as data.

   - Golden decision table: [Mce.solve] over every combination of plan
     (auto, index, bidir, forward), task (synthesize, count, enumerate
     with limits 0, 5 and -1), engine resources (none, a depth-4 partial
     index, the complete index, a one-shot [Bidir.create] context, the
     partial index with a context) and target (identity, a CNOT,
     Toffoli, Fredkin, a cost-8 function, a NOT-coset member, a bad
     spec, a qubit mismatch, a wrong library, two lowered depth bounds).
     Each row records the full response bytes and the [mce.plan.*]
     counter deltas; [solve_table.expected] holds the rows.  Regenerate
     it only for a deliberate contract change (the run that writes the
     file still compares against the old copy):
       QSYNTH_SOLVE_TABLE_OUT=$PWD/test/solve_table.expected dune test
   - Codec fuzzing: random strings and single-byte mutations of valid
     frames through [Json.of_string], [Request.of_json] and
     [Response.of_string] may only answer [Ok]/[Error] or raise
     [Json.Parse_error]; every accepted request has a total [key] and
     [target]; generated requests round-trip; every response of the
     table round-trips byte for byte. *)

open Synthesis
module Json = Telemetry.Json

let check = Alcotest.check
let library3 = Library.make (Mvl.Encoding.make ~qubits:3)

(* {1 The decision table} *)

let plans =
  Mce.Request.[ ("auto", Auto); ("index", Index); ("bidir", Bidir); ("forward", Forward) ]

let tasks =
  Mce.Request.
    [
      ("synthesize", Synthesize);
      ("count", Count_witnesses);
      ("enumerate:0", Enumerate { limit = 0 });
      ("enumerate:5", Enumerate { limit = 5 });
      ("enumerate:-1", Enumerate { limit = -1 });
    ]

let index4 = lazy (Census_index.build (Fmcf.run ~max_depth:4 library3))

let complete =
  lazy (Census_index.build (Fmcf.run ~max_depth:13 ~quotient:true library3))

(* A bidir context is built per row: its forward wave grows with every
   query, so sharing one would make a row depend on the rows before it. *)
let resources =
  [
    ("none", fun () -> (None, None));
    ("index4", fun () -> (Some (Lazy.force index4), None));
    ("complete", fun () -> (Some (Lazy.force complete), None));
    ("bidir", fun () -> (None, Some (Bidir.create library3)));
    ("index4+bidir", fun () -> (Some (Lazy.force index4), Some (Bidir.create library3)));
  ]

(* (label, qubits, library, max_depth, spec).  Two rows lower the depth
   bound: cost-5 Toffoli under bound 3 is a miss the depth-4 index
   certifies by its horizon alone, and bound 0 certifies any
   non-identity target without an index. *)
let targets =
  let d = Library.default_name in
  [
    ("identity", 3, d, 7, "identity");
    ("cnot", 3, d, 7, "0,1,2,3,6,7,4,5");
    ("toffoli", 3, d, 7, "toffoli");
    ("toffoli@3", 3, d, 3, "toffoli");
    ("cnot@0", 3, d, 0, "0,1,2,3,6,7,4,5");
    ("fredkin", 3, d, 7, "fredkin");
    ("cost8", 3, d, 7, "0,1,2,3,4,7,5,6");
    ("not-coset", 3, d, 7, "1,0,3,2,5,4,6,7");
    ("bad-spec", 3, d, 7, "not a spec");
    ("qubit-mismatch", 2, d, 7, "toffoli");
    ("wrong-library", 3, "nct", 7, "toffoli");
  ]

let counters =
  List.map
    (fun n -> (n, Telemetry.Counter.create ("mce.plan." ^ n)))
    [ "index"; "bidir"; "forward"; "fallback_reason" ]

let row (plan_name, plan) (task_name, task) (res_name, res)
    (label, qubits, library, max_depth, spec) =
  let index, bidir = res () in
  let req = Mce.Request.make ~qubits ~library ~task ~max_depth ~plan spec in
  let before = List.map (fun (_, c) -> Telemetry.Counter.value c) counters in
  let resp = Mce.solve ?index ?bidir library3 req in
  let deltas =
    List.map2
      (fun (n, c) v0 -> Printf.sprintf "%s=%d" n (Telemetry.Counter.value c - v0))
      counters before
  in
  String.concat "\t"
    [
      plan_name;
      task_name;
      res_name;
      label;
      String.concat " " deltas;
      Mce.Response.to_string resp;
    ]

let table =
  lazy
    (Telemetry.set_enabled ~spans:false true;
     List.concat_map
       (fun plan ->
         List.concat_map
           (fun task ->
             List.concat_map
               (fun res -> List.map (row plan task res) targets)
               resources)
           tasks)
       plans)

let expected_file = "solve_table.expected"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let decision_table () =
  let rows = Lazy.force table in
  (match Sys.getenv_opt "QSYNTH_SOLVE_TABLE_OUT" with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) rows)
  | None -> ());
  let want = read_lines expected_file in
  check Alcotest.int "row count" (List.length want) (List.length rows);
  check Alcotest.int "every combination"
    (List.length plans * List.length tasks * List.length resources
   * List.length targets)
    (List.length rows);
  List.iter2 (fun w g -> check Alcotest.string "row" w g) want rows

(* {1 Codec fuzzing} *)

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The only exception a decoder may let escape is the JSON parser's. *)
let total what f =
  match f () with
  | () -> true
  | exception Json.Parse_error _ -> true
  | exception e ->
      QCheck2.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

let decode_request s =
  total "request decode" (fun () ->
      match Mce.Request.of_json (Json.of_string s) with
      | Error _ -> ()
      | Ok r ->
          ignore (Mce.Request.key r);
          ignore (Mce.Request.target r))

let decode_response s =
  total "response decode" (fun () ->
      match Mce.Response.of_string s with Ok _ | Error _ -> ())

let decoders s = decode_request s && decode_response s

(* one byte replaced, at any position, by any byte *)
let mutate_gen frame_gen =
  let open QCheck2.Gen in
  let* frame = frame_gen in
  let* i = int_bound (String.length frame - 1) in
  let+ c = char in
  String.mapi (fun j x -> if j = i then c else x) frame

let request_gen =
  let open QCheck2.Gen in
  let any_string = string_size ~gen:char (int_range 0 24) in
  let* id = opt any_string in
  let* qubits = int_range 1 Mvl.Encoding.max_qubits in
  let* library = oneofl Library.Registry.names in
  let* spec =
    oneof
      [
        any_string;
        (* the spec grammars' alphabet: names, cycles, columns, formulas *)
        string_size
          ~gen:(oneofl [ 'a'; 'b'; 'c'; 'A'; '&'; '|'; '^'; '!'; '~'; '(';
                         ')'; '0'; '1'; '7'; '8'; ','; ';'; ' '; '\''; '=' ])
          (int_range 0 24);
        oneofl [ "toffoli"; "(7,8)"; "0,1,2,3,4,7,5,6"; "a & b"; "" ];
      ]
  in
  let* task =
    oneof
      Mce.Request.
        [
          pure Synthesize;
          pure Count_witnesses;
          map (fun limit -> Enumerate { limit }) int;
        ]
  in
  let* max_depth = int_bound max_int in
  let* plan = oneofl (List.map snd plans) in
  let+ deadline_ms = opt (int_range 1 max_int) in
  { Mce.Request.id; qubits; library; spec; task; max_depth; plan; deadline_ms }

let request_frame_gen =
  QCheck2.Gen.map
    (fun r -> Json.to_string (Mce.Request.to_json r))
    request_gen

let response_frames () =
  List.map
    (fun l -> List.nth (String.split_on_char '\t' l) 5)
    (Lazy.force table)

let fuzz_random_strings =
  qtest ~count:2000 "random strings decode totally"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 64))
    decoders

let fuzz_json_shaped =
  (* strings over the JSON alphabet reach past the tokenizer far more
     often than uniform bytes do *)
  qtest ~count:2000 "JSON-alphabet strings decode totally"
    QCheck2.Gen.(
      string_size
        ~gen:(oneofl [ '{'; '}'; '['; ']'; ':'; ','; '"'; '\\'; 'u'; '0'; '1';
                       '-'; 'e'; '.'; 't'; 'n'; 'v'; 'k'; ' ' ])
        (int_range 0 48))
    decoders

let fuzz_mutated_requests =
  qtest ~count:2000 "mutated request frames decode totally"
    (mutate_gen request_frame_gen) decoders

let fuzz_mutated_responses () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:2000 ~name:"mutated response frames decode totally"
       (mutate_gen (QCheck2.Gen.oneofl (response_frames ())))
       decoders)

let request_roundtrip =
  qtest ~count:2000 "generated requests round-trip, key and target total"
    request_gen (fun r ->
      total "key/target" (fun () ->
          ignore (Mce.Request.key r);
          ignore (Mce.Request.target r))
      &&
      match Mce.Request.of_json (Mce.Request.to_json r) with
      | Ok r' -> Mce.Request.equal r r'
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e)

let table_responses_roundtrip () =
  List.iter
    (fun s ->
      match Mce.Response.of_string s with
      | Ok r -> check Alcotest.string "re-encoded" s (Mce.Response.to_string r)
      | Error e -> Alcotest.failf "%s: %s" s e)
    (response_frames ())

let () =
  Alcotest.run "solve"
    [
      ("decision table", [ Alcotest.test_case "golden rows" `Quick decision_table ]);
      ( "codec fuzz",
        [
          fuzz_random_strings;
          fuzz_json_shaped;
          fuzz_mutated_requests;
          Alcotest.test_case "mutated response frames decode totally" `Quick
            fuzz_mutated_responses;
          request_roundtrip;
          Alcotest.test_case "table responses round-trip" `Quick
            table_responses_roundtrip;
        ] );
    ]
