(* The traced half of the benchmark (perfbench/README.md).

   Each subcommand drives one workload through the public functions of
   the layers it exercises and records a span around every call, from
   here: no span is added inside lib/ or bin/.  Spans are kept in memory
   as raw timestamps and written as one JSON document when the run
   ends; perfbench/run.py turns them into self times, quantiles and
   counts.  Timestamps are nanosecond CLOCK_REALTIME readings in seconds
   since the document's [base_s], so calls of a few hundred nanoseconds
   stay visible and base_s + t is on the clock of the daemon's
   --trace-file spans, which lets the two be joined.

   Without --traced the same work runs without spans (for serve: against
   a daemon without --trace-file), so the two modes' wall times give the
   tracing overhead.

     tracer census  --out F [--traced]
     tracer closure --dir D --out F [--traced]
     tracer batch   --index I --requests R --responses O --out F [--traced]
     tracer serve   --socket S --hot H --expected E --sequence Q --out F [--traced] *)

open Synthesis
module Json = Telemetry.Json

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let base_ns = now_ns ()
let now () = Float.of_int (now_ns () - base_ns) *. 1e-9

(* {1 Output} *)

let buf = Buffer.create (1 lsl 20)
let () = Printf.bprintf buf "{\"base_s\":%.6f," (Float.of_int base_ns *. 1e-9)
let field name = Printf.bprintf buf "%S:" name
let float_list l = "[" ^ String.concat "," (List.map (Printf.sprintf "%.9f") l) ^ "]"

let int_list l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

(* Rows of [cols] timestamps, stored flat. *)
let add_rows name ts ~cols ~rows =
  field name;
  Buffer.add_char buf '[';
  for r = 0 to rows - 1 do
    if r > 0 then Buffer.add_char buf ',';
    Buffer.add_char buf '[';
    for c = 0 to cols - 1 do
      if c > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "%.9f" (Float.Array.get ts ((r * cols) + c))
    done;
    Buffer.add_char buf ']'
  done;
  Buffer.add_string buf "],"

let write_out path =
  (* every section ends with a comma; close the object with a sentinel *)
  Buffer.add_string buf "\"end\":true}";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
  in
  go []

let request_of_line line =
  match Mce.Request.of_json (Json.of_string line) with
  | Ok req -> req
  | Error msg -> failwith msg

(* {1 Census: Search steps under Fmcf.run_guarded}

   The census loop polls [should_stop] at the top of every level before
   calling [Search.try_step], and calls [on_level] as soon as the step
   returns; the first poll after a level boundary therefore opens a
   search.step span and [on_level] closes it. *)

let step_hooks ~traced =
  let steps = ref [] and stepping = ref false and opened = ref 0. in
  let should_stop () =
    if traced && not !stepping then begin
      stepping := true;
      opened := now ()
    end;
    false
  in
  let on_level _ ~cost:_ =
    if traced then begin
      steps := (!opened, now ()) :: !steps;
      stepping := false
    end
  in
  (steps, should_stop, on_level)

let add_search_fields search =
  field "states";
  Printf.bprintf buf "%d," (Search.size search);
  field "arena_bytes";
  Printf.bprintf buf "%d," (Search.arena_bytes search)

let add_steps steps =
  field "steps";
  Buffer.add_string buf
    (float_list (List.concat_map (fun (s, e) -> [ s; e ]) (List.rev steps)));
  Buffer.add_char buf ','

let census ~traced =
  let library = Library.of_name ~qubits:4 "paper18" in
  let steps, should_stop, on_level = step_hooks ~traced in
  let t1 = now () in
  let result, reason =
    Fmcf.run_guarded ~max_depth:5 ~jobs:1 ~should_stop ~on_level library
  in
  let t2 = now () in
  field "run";
  Buffer.add_string buf (float_list [ t1; t2 ] ^ ",");
  add_steps !steps;
  add_search_fields (Fmcf.search result);
  field "completed";
  Printf.bprintf buf "%b," (reason = Fmcf.Completed);
  field "counts";
  Buffer.add_string buf (int_list (List.map snd (Fmcf.counts result)) ^ ",")

(* {1 Closure: census, index build, save and verified reload per library} *)

let closure_libraries = [ ("paper18", 13, true); ("nct", 9, false); ("nft", 8, false) ]

let closure ~traced ~dir =
  let p0 = now () in
  Buffer.add_string buf "\"libraries\":[";
  List.iteri
    (fun i (name, max_depth, quotient) ->
      let l0 = now () in
      let library = Library.of_name ~qubits:3 name in
      let steps, should_stop, on_level = step_hooks ~traced in
      let l1 = now () in
      let result, _ =
        Fmcf.run_guarded ~max_depth ~jobs:1 ~quotient ~should_stop ~on_level library
      in
      let l2 = now () in
      let index = Census_index.build result in
      let l3 = now () in
      let path = Filename.concat dir (name ^ ".idx") in
      Census_index.save index path;
      let l4 = now () in
      let loaded = Census_index.load ~verify:Census_index.Full library path in
      let l5 = now () in
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '{';
      field "name";
      Printf.bprintf buf "%S," name;
      field "marks";
      Buffer.add_string buf (float_list [ l0; l1; l2; l3; l4; l5 ] ^ ",");
      add_steps !steps;
      add_search_fields (Fmcf.search result);
      field "bytes";
      Printf.bprintf buf "%d," (Unix.stat path).Unix.st_size;
      field "complete";
      Printf.bprintf buf "%b," (Census_index.is_complete loaded);
      field "histogram";
      Buffer.add_string buf (int_list (Array.to_list (Census_index.histogram loaded)));
      Buffer.add_char buf '}')
    closure_libraries;
  Buffer.add_string buf "],";
  field "wall";
  Buffer.add_string buf (float_list [ p0; now () ] ^ ",")

(* {1 Layer probe}

   Times the calls that Service.answer and the daemon make internally
   ([Mce.Request.key], the index probe with NOT-coset stripping, the
   response encoder), one call per request of the workload, outside the
   timed loop.  Columns: json.of_string, mce.request_of_json,
   mce.request_key, census_index.find, mce.response_to_string. *)

let probe ?index ?responses lines =
  let n = Array.length lines in
  let cols = 6 in
  let ts = Float.Array.make (n * cols) 0. in
  Array.iteri
    (fun r line ->
      let a = now () in
      let json = Json.of_string line in
      let b = now () in
      let req =
        match Mce.Request.of_json json with Ok q -> q | Error m -> failwith m
      in
      let c = now () in
      ignore (Sys.opaque_identity (Mce.Request.key req));
      let d = now () in
      (match (index, Mce.Request.target req) with
      | Some idx, Ok f ->
          let _mask, g = Mce.strip_not_layer f in
          ignore (Sys.opaque_identity (Census_index.find idx g))
      | _ -> ());
      let e = now () in
      let f =
        match responses with
        | Some resps -> (
            match Mce.Response.of_string resps.(r) with
            | Ok resp ->
                let e' = now () in
                ignore (Sys.opaque_identity (Mce.Response.to_string resp));
                now () -. e' +. e
            | Error m -> failwith m)
        | None -> e
      in
      List.iteri
        (fun k t -> Float.Array.set ts ((r * cols) + k) t)
        [ a; b; c; d; e; f ])
    lines;
  add_rows "probe" ts ~cols ~rows:n

(* {1 Batch: the qsynth batch loop against one warm service}

   Columns per request: before input_line, json.of_string start,
   mce.request_of_json start, service.answer start,
   mce.response_to_string start, output write start, end. *)

let batch ~traced ~index_path ~requests ~responses =
  let library = Library.of_name ~qubits:3 "paper18" in
  let index = Census_index.load ~verify:Census_index.Sample library index_path in
  let service = Server.Service.create ~index library in
  let n = Array.length (read_lines requests) in
  let cols = 7 in
  let ts = Float.Array.make (if traced then n * cols else 0) 0. in
  let solve = Float.Array.make (if traced then n else 0) 0. in
  let hits = ref 0 and misses = ref 0 in
  let ic = open_in requests and oc = open_out responses in
  let t0 = now () in
  let rows = ref 0 in
  (try
     if traced then
       while true do
         let a = now () in
         let line = input_line ic in
         let b = now () in
         let json = Json.of_string line in
         let c = now () in
         let req =
           match Mce.Request.of_json json with Ok q -> q | Error m -> failwith m
         in
         let d = now () in
         let resp, timing = Server.Service.answer_timed service req in
         let e = now () in
         let s = Mce.Response.to_string resp in
         let f = now () in
         output_string oc s;
         output_char oc '\n';
         flush oc;
         let g = now () in
         let r = !rows in
         List.iteri
           (fun k t -> Float.Array.set ts ((r * cols) + k) t)
           [ a; b; c; d; e; f; g ];
         (match timing.Server.Service.source with
         | `Cache_hit -> incr hits
         | `Coalesced | `Computed ->
             incr misses;
             Float.Array.set solve r timing.Server.Service.solve_s);
         incr rows
       done
     else
       while true do
         let line = input_line ic in
         let req = request_of_line line in
         let s = Mce.Response.to_string (Server.Service.answer service req) in
         output_string oc s;
         output_char oc '\n';
         flush oc;
         incr rows
       done
   with End_of_file -> ());
  let t1 = now () in
  close_in ic;
  close_out oc;
  field "loop";
  Buffer.add_string buf (float_list [ t0; t1 ] ^ ",");
  field "requests";
  Printf.bprintf buf "%d," !rows;
  if traced then begin
    add_rows "rows" ts ~cols ~rows:!rows;
    field "solve_s";
    Buffer.add_string buf
      (float_list (List.init !rows (fun r -> Float.Array.get solve r)) ^ ",");
    field "hits";
    Printf.bprintf buf "%d," !hits;
    field "misses";
    Printf.bprintf buf "%d," !misses;
    probe ~index (read_lines requests)
  end

(* {1 Serve: one lock-step client connection}

   Columns per request: write_frame start, read_frame start, end.  The
   client timestamps cost well under 1% of a round trip and are taken in
   both modes; --traced means the daemon runs with --trace-file, whose
   spans are joined on the trace id it echoes in every response. *)

let trace_marker = "\"trace\":\""

(* The response with its ["trace":"...",] member removed, and the id. *)
let split_trace s =
  let m = String.length trace_marker in
  let rec find i =
    if i + m > String.length s then None
    else if String.sub s i m = trace_marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> (s, "")
  | Some i ->
      let j = String.index_from s (i + m) '"' in
      let id = String.sub s (i + m) (j - i - m) in
      let rest = j + 1 + if s.[j + 1] = ',' then 1 else 0 in
      (String.sub s 0 i ^ String.sub s rest (String.length s - rest), id)

let serve ~traced ~socket ~hot ~expected ~sequence =
  let hot = read_lines hot and expected = read_lines expected in
  let sequence = Array.map int_of_string (read_lines sequence) in
  let n = Array.length sequence in
  let fd = Server.Protocol.connect socket in
  let mismatches = ref 0 in
  let read () =
    match Server.Protocol.read_frame fd with
    | Ok s -> s
    | Error e -> failwith (Server.Protocol.read_error_to_string e)
  in
  let check k resp =
    let body, id = if traced then split_trace resp else (resp, "") in
    if not (String.equal body expected.(k)) then incr mismatches;
    id
  in
  Array.iteri
    (fun k payload ->
      Server.Protocol.write_frame fd payload;
      ignore (check k (read ())))
    hot;
  let cols = 3 in
  let ts = Float.Array.make (n * cols) 0. in
  let ids = Array.make n "" in
  let t0 = now () in
  Array.iteri
    (fun r k ->
      let a = now () in
      Server.Protocol.write_frame fd hot.(k);
      let b = now () in
      let resp = read () in
      let c = now () in
      Float.Array.set ts (r * cols) a;
      Float.Array.set ts ((r * cols) + 1) b;
      Float.Array.set ts ((r * cols) + 2) c;
      ids.(r) <- check k resp)
    sequence;
  let t1 = now () in
  Unix.close fd;
  field "loop";
  Buffer.add_string buf (float_list [ t0; t1 ] ^ ",");
  field "requests";
  Printf.bprintf buf "%d," n;
  field "mismatches";
  Printf.bprintf buf "%d," !mismatches;
  add_rows "rows" ts ~cols ~rows:n;
  if traced then begin
    field "ids";
    Buffer.add_char buf '[';
    Array.iteri
      (fun i id ->
        if i > 0 then Buffer.add_char buf ',';
        Printf.bprintf buf "%S" id)
      ids;
    Buffer.add_string buf "],";
    probe ~responses:(Array.map (fun k -> expected.(k)) sequence)
      (Array.map (fun k -> hot.(k)) sequence)
  end

let () =
  let traced = ref false and out = ref "" and dir = ref "." in
  let index = ref "" and requests = ref "" and responses = ref "" in
  let socket = ref "" and hot = ref "" and expected = ref "" and sequence = ref "" in
  let cmd = ref "" in
  let specs =
    [
      ("--traced", Arg.Set traced, " record spans");
      ("--out", Arg.Set_string out, "FILE span document");
      ("--dir", Arg.Set_string dir, "DIR index output directory (closure)");
      ("--index", Arg.Set_string index, "FILE census index (batch)");
      ("--requests", Arg.Set_string requests, "FILE JSONL requests (batch)");
      ("--responses", Arg.Set_string responses, "FILE response output (batch)");
      ("--socket", Arg.Set_string socket, "PATH daemon socket (serve)");
      ("--hot", Arg.Set_string hot, "FILE hot-set requests (serve)");
      ("--expected", Arg.Set_string expected, "FILE local answers to --hot (serve)");
      ("--sequence", Arg.Set_string sequence, "FILE hot-set indices to send (serve)");
    ]
  in
  Arg.parse (Arg.align specs) (fun s -> cmd := s) "tracer census|closure|batch|serve [options]";
  if !out = "" then failwith "--out is required";
  let traced = !traced in
  (match !cmd with
  | "census" -> census ~traced
  | "closure" -> closure ~traced ~dir:!dir
  | "batch" ->
      batch ~traced ~index_path:!index ~requests:!requests ~responses:!responses
  | "serve" ->
      serve ~traced ~socket:!socket ~hot:!hot ~expected:!expected ~sequence:!sequence
  | c -> failwith ("unknown subcommand " ^ c));
  write_out !out
