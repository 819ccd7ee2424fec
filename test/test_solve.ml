(* The evaluator's contract, pinned as data.

   - Golden decision table: [Mce.solve] over every combination of plan
     (auto, index, bidir, forward), task (synthesize, count, enumerate
     with limits 0, 5 and -1), engine resources (none, a depth-4 partial
     index, the complete index, a one-shot [Bidir.create] context, the
     partial index with a context) and target (identity, a CNOT,
     Toffoli, Fredkin, a cost-8 function, a NOT-coset member, a bad
     spec, a qubit mismatch, a wrong library, two lowered depth bounds,
     a negative one).
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
     table round-trips byte for byte.
   - One request decoder: [Request.of_string s] answers exactly what
     [Json.of_string s |> Request.of_json] does (a parse error as
     ["invalid JSON: " ^ msg]) on the same fuzzed strings, and
     [qsynth batch] over [request_errors.jsonl] prints
     [request_errors.expected] byte for byte.
   - Cache keys: [Request.key] equals the [Json.t] tree it once printed,
     over the table's requests, the spellings file and generated
     requests. *)

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
   non-identity target without an index.  Bound -1 certifies nothing:
   it is a bad request whatever the plan, task or resources. *)
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
    ("negative-depth", 3, d, -1, "toffoli");
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

(* Every synthesized answer in the table, whichever plan produced it,
   is a witness that replays exactly: reasonable, the right restriction,
   and an exact unitary implementing the target. *)
let table_witnesses_replay () =
  let n = ref 0 in
  List.iter
    (fun row ->
      let resp = List.nth (String.split_on_char '\t' row) 5 in
      match Mce.Response.of_string resp with
      | Error e -> Alcotest.failf "row does not decode (%s): %s" e resp
      | Ok r -> (
          match Mce.Response.result_of r with
          | None -> ()
          | Some result ->
              incr n;
              if not (Verify.result_valid library3 result) then
                Alcotest.failf "witness does not replay exactly: %s" resp))
    (Lazy.force table);
  Alcotest.(check bool) "some rows carry witnesses" true (!n > 0)

(* One witness rule: wherever a forward search and an index probe both
   synthesize a target (every task, resource and plan of the table), they
   return the same cascade for it. *)
let forward_and_index_agree () =
  let witness = Hashtbl.create 16 and pairs = ref 0 in
  List.iter
    (fun row ->
      match Mce.Response.of_string (List.nth (String.split_on_char '\t' row) 5) with
      | Ok
          {
            Mce.Response.body =
              Ok
                {
                  plan = (Mce.Response.Index_hit | Forward_bfs) as plan;
                  payload = Synthesized { target; not_mask; cascade; _ };
                };
            _;
          } -> (
          let key = (Permgroup.Perm.key (Reversible.Revfun.to_perm target), not_mask) in
          match Hashtbl.find_opt witness key with
          | None -> Hashtbl.replace witness key (plan, cascade)
          | Some (plan', cascade') ->
              if plan <> plan' then incr pairs;
              if not (Cascade.equal cascade cascade') then
                Alcotest.failf "%s answer %s differs from %s answer %s"
                  (Mce.Response.plan_to_string plan) (Cascade.to_string cascade)
                  (Mce.Response.plan_to_string plan') (Cascade.to_string cascade'))
      | _ -> ())
    (Lazy.force table);
  Alcotest.(check bool) "some targets answered by both plans" true (!pairs > 0)

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

(* the tree decoder, with the wire decoder's message on a parse error *)
let decode_by_tree s =
  match Json.of_string s with
  | j -> Mce.Request.of_json j
  | exception Json.Parse_error msg -> Error ("invalid JSON: " ^ msg)

let one_decoder s =
  let show = function Ok r -> "Ok " ^ Mce.Request.key r | Error e -> "Error " ^ e in
  match (Mce.Request.of_string s, decode_by_tree s) with
  | Ok a, Ok b when Mce.Request.equal a b -> true
  | Error a, Error b when String.equal a b -> true
  | got, want ->
      QCheck2.Test.fail_reportf "%S: of_string %s, tree %s" s (show got) (show want)
  | exception e ->
      QCheck2.Test.fail_reportf "%S: decoding raised %s" s (Printexc.to_string e)

let decoders s = decode_request s && decode_response s && one_decoder s

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

let request_error_lines () = read_lines "request_errors.jsonl"

let fuzz_mutated_error_lines () =
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:2000 ~name:"mutated request_errors lines decode alike"
       (mutate_gen (QCheck2.Gen.oneofl (request_error_lines ())))
       decoders)

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

(* {1 One request decoder, pinned} *)

(* Every line of request_errors.jsonl as [qsynth batch --index] answers
   it from the complete index: parse errors at several offsets, non-object
   documents, unknown, escaped and repeated member names, a wrong type
   for each field, out-of-range values and task objects.  The expected
   bytes were printed by the two-stage decoder this one replaced. *)
let request_errors_pinned () =
  let index = Filename.temp_file "qsynth_complete" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove index) @@ fun () ->
  Census_index.save (Lazy.force complete) index;
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "qsynth.exe" ]
  in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "batch"; "--index"; index; "request_errors.jsonl" |]
  in
  let got = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let want = In_channel.with_open_bin "request_errors.expected" In_channel.input_all in
  check Alcotest.string "responses" want got;
  Alcotest.(check bool) "exit 1: some lines do not decode" true (status = Unix.WEXITED 1)

let request_errors_in_process () =
  List.iter
    (fun line -> ignore (one_decoder line))
    (request_error_lines () @ read_lines "spec_spellings.jsonl")

(* {1 Cache keys} *)

(* The key as it was printed before it was written straight into a
   buffer: a [Json.t] tree with the spec canonicalized to its column. *)
let reference_key (r : Mce.Request.t) =
  let spec =
    match Mce.Request.target r with
    | Ok f ->
        String.concat "," (List.map string_of_int (Reversible.Revfun.output_column f))
    | Error _ -> r.spec
  in
  let task =
    match r.task with
    | Mce.Request.Synthesize -> Json.String "synthesize"
    | Count_witnesses -> Json.String "count-witnesses"
    | Enumerate { limit } ->
        Json.Obj [ ("enumerate", Json.Obj [ ("limit", Json.Int limit) ]) ]
  in
  let plan =
    match r.plan with
    | Mce.Request.Auto -> "auto"
    | Index -> "index"
    | Bidir -> "bidir"
    | Forward -> "forward"
  in
  Json.to_string
    (Json.Obj
       [
         ("qubits", Json.Int r.qubits);
         ("library", Json.String r.library);
         ("spec", Json.String spec);
         ("task", task);
         ("max_depth", Json.Int r.max_depth);
         ("plan", Json.String plan);
       ])

let key_matches_tree () =
  let keyed = ref 0 in
  let check_key r =
    incr keyed;
    check Alcotest.string r.Mce.Request.spec (reference_key r) (Mce.Request.key r)
  in
  List.iter
    (fun (_, plan) ->
      List.iter
        (fun (_, task) ->
          List.iter
            (fun (_, qubits, library, max_depth, spec) ->
              check_key (Mce.Request.make ~qubits ~library ~task ~max_depth ~plan spec))
            targets)
        tasks)
    plans;
  List.iter
    (fun line ->
      match Mce.Request.of_string line with
      | Ok r -> check_key r
      | Error _ -> ())
    (read_lines "spec_spellings.jsonl");
  Alcotest.(check bool) "every spelling line keyed" true
    (!keyed >= (List.length plans * List.length tasks * List.length targets) + 15)

let key_matches_tree_generated =
  qtest ~count:2000 "generated request keys equal the tree key" request_gen (fun r ->
      String.equal (Mce.Request.key r) (reference_key r)
      || QCheck2.Test.fail_reportf "key %s, tree %s" (Mce.Request.key r)
           (reference_key r))

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
      ( "decision table",
        [
          Alcotest.test_case "golden rows" `Quick decision_table;
          Alcotest.test_case "witnesses replay exactly" `Quick table_witnesses_replay;
          Alcotest.test_case "forward and index witnesses agree" `Quick
            forward_and_index_agree;
        ] );
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
          Alcotest.test_case "mutated request_errors lines decode alike" `Quick
            fuzz_mutated_error_lines;
        ] );
      ( "decoder pins",
        [
          Alcotest.test_case "request_errors bytes pinned" `Quick request_errors_pinned;
          Alcotest.test_case "pinned lines decode alike" `Quick
            request_errors_in_process;
        ] );
      ( "request key",
        [
          Alcotest.test_case "key equals the tree key" `Quick key_matches_tree;
          key_matches_tree_generated;
        ] );
    ]
