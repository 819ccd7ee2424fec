open Reversible

let log_src = Logs.Src.create "qsynth.mce" ~doc:"Minimum-cost expression (MCE)"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Json = Telemetry.Json

let m_queries = Telemetry.Counter.create "mce.queries"
let m_realizations = Telemetry.Counter.create "mce.realizations"
let m_plan_index = Telemetry.Counter.create "mce.plan.index"
let m_plan_bidir = Telemetry.Counter.create "mce.plan.bidir"
let m_plan_forward = Telemetry.Counter.create "mce.plan.forward"
let m_plan_fallback = Telemetry.Counter.create "mce.plan.fallback_reason"

(* One warning per process the first time a partial index fails to
   answer and the planner silently reaches for a search engine — the
   situation is correct but surprising (the fix is a deeper census or a
   complete index), so say why once instead of spamming per query. *)
let fallback_logged = Atomic.make false

let note_fallback ~horizon ~max_depth ~engine =
  Telemetry.Counter.incr m_plan_fallback;
  if not (Atomic.exchange fallback_logged true) then
    Log.warn (fun m ->
        m
          "index horizon %d cannot answer a miss at max_depth %d: falling back \
           to %s (this partial index leaves every deeper query to a live \
           search; run the census to closure with `--emit-index` to serve \
           everything from the index)"
          horizon max_depth engine)
let g_depth_reached = Telemetry.Gauge.create "mce.depth_reached"
let h_search = Telemetry.Histogram.create "mce.search.seconds"

type result = {
  target : Revfun.t;
  not_mask : int;
  cascade : Cascade.t;
  cost : int;
}

let strip_not_layer target =
  let bits = Revfun.bits target in
  (* Want remainder(0) = 0 where target = d0 * remainder, i.e.
     remainder(x) = target(x XOR mask): pick mask = target^-1(0), the
     position of 0 in the output column. *)
  let column = Permgroup.Perm.to_array (Revfun.to_perm target) in
  let mask = ref 0 in
  while column.(!mask) <> 0 do
    incr mask
  done;
  let mask = !mask in
  let remainder =
    Revfun.of_perm ~bits
      (Permgroup.Perm.unsafe_of_array
         (Array.init (Array.length column) (fun x -> column.(x lxor mask))))
  in
  assert (Revfun.fixes_zero remainder);
  (mask, remainder)

(* Run the BFS until the remainder's image is stored; return the engine
   and that image.  Depth 0 (identity) handled by the caller. *)
let no_stop () = false

let search_until ~max_depth ~jobs ~should_stop library remainder =
  Telemetry.Counter.incr m_queries;
  Telemetry.Histogram.time h_search @@ fun () ->
  Telemetry.Span.with_span "mce.search"
    ~attrs:[ ("max_depth", Telemetry.Json.Int max_depth) ]
  @@ fun () ->
  (* Never quotiented: the target is looked up by its exact image, and
     its witness is the backward step's from that image — the cascade a
     census index holds for it, with or without --quotient. *)
  let search = Search.create ~jobs library in
  let target =
    String.init (Search.key_length search) (fun j -> Char.chr (Revfun.apply remainder j))
  in
  let rec go () =
    if should_stop () then begin
      Log.info (fun m -> m "search cancelled at depth %d" (Search.depth search));
      None
    end
    else if Search.depth search >= max_depth then begin
      Log.debug (fun m -> m "depth bound %d reached without a witness" max_depth);
      None
    end
    else begin
      (* The target is a function, so a level needs only the states
         that can still become one within [max_depth] gates, and the
         last allowed level only functions; every witness walk from the
         target finds the parents the full search would. *)
      let bound = max_depth - Search.depth search - 1 in
      match Search.try_step ~bound search ~cancel:should_stop with
      | None ->
          Log.info (fun m ->
              m "search cancelled mid-level at depth %d" (Search.depth search));
          None
      | Some fresh ->
      Telemetry.Gauge.set_int g_depth_reached (Search.depth search);
      if fresh = 0 then None
      else if Search.handle_of_key search target = None then go ()
      else begin
        Telemetry.Counter.incr m_realizations;
        Log.info (fun m ->
            m "found the target at depth %d (%d states explored)" (Search.depth search)
              (Search.size search));
        Some (search, target)
      end
    end
  in
  go ()

(* {1 The unified query API} *)

let column_spec f = String.concat "," (List.map string_of_int (Revfun.output_column f))

(* {2 Wire writers}

   Requests' keys and responses are written straight into a buffer:
   fields in fixed order, no insignificant whitespace, dynamic strings
   escaped by [Json.write_string] — byte-identical to printing the
   equivalent [Json.t] tree with [Json.to_string], without building it. *)

(* Digits straight into the buffer: [string_of_int] goes through the
   C printf machinery, and a response carries a dozen small integers. *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

(* a function's output column as a JSON string: [column_spec f], quoted *)
let add_column b f =
  let column = Permgroup.Perm.to_array (Revfun.to_perm f) in
  Buffer.add_char b '"';
  for x = 0 to Array.length column - 1 do
    if x > 0 then Buffer.add_char b ',';
    add_int b column.(x)
  done;
  Buffer.add_char b '"'

module Request = struct
  type plan = Auto | Index | Bidir | Forward
  type task = Synthesize | Count_witnesses | Enumerate of { limit : int }

  type t = {
    id : string option;
    qubits : int;
    library : string;
    spec : string;
    task : task;
    max_depth : int;
    plan : plan;
    deadline_ms : int option;
  }

  let make ?id ?(qubits = 3) ?(library = Library.default_name)
      ?(task = Synthesize) ?(max_depth = 7) ?(plan = Auto) ?deadline_ms spec =
    { id; qubits; library; spec; task; max_depth; plan; deadline_ms }

  let equal a b = a = b

  let target t =
    match Spec.parse ~bits:t.qubits t.spec with
    | f -> Ok f
    | exception Invalid_argument msg -> Error msg
    | exception Failure msg -> Error msg

  let plan_to_string = function
    | Auto -> "auto"
    | Index -> "index"
    | Bidir -> "bidir"
    | Forward -> "forward"

  let plan_of_string = function
    | "auto" -> Ok Auto
    | "index" -> Ok Index
    | "bidir" -> Ok Bidir
    | "forward" -> Ok Forward
    | s -> Error (Printf.sprintf "unknown plan %S" s)

  let task_to_json = function
    | Synthesize -> Json.String "synthesize"
    | Count_witnesses -> Json.String "count-witnesses"
    | Enumerate { limit } ->
        Json.Obj [ ("enumerate", Json.Obj [ ("limit", Json.Int limit) ]) ]

  let to_json t =
    Json.Obj
      ((("v", Json.Int 1)
        :: (match t.id with Some id -> [ ("id", Json.String id) ] | None -> []))
      @ [ ("qubits", Json.Int t.qubits) ]
      (* the default library is omitted on the wire so pre-plugin peers
         keep parsing our requests *)
      @ (if String.equal t.library Library.default_name then []
         else [ ("library", Json.String t.library) ])
      @ [
          ("spec", Json.String t.spec);
          ("task", task_to_json t.task);
          ("max_depth", Json.Int t.max_depth);
          ("plan", Json.String (plan_to_string t.plan));
        ]
      @
      match t.deadline_ms with
      | Some ms -> [ ("deadline_ms", Json.Int ms) ]
      | None -> [])

  (* {2 Decoding}

     One validator over the nine members' values (a slot each, [None]
     when absent) and the first unknown member name, filled from a parsed
     object by [of_json] or straight from the text by [of_string].  The
     first occurrence of a repeated member wins, as [List.assoc_opt] finds
     it.  Checks run in a fixed order, so the first failing one names the
     error. *)

  type slots = {
    mutable s_v : Json.t option;
    mutable s_id : Json.t option;
    mutable s_qubits : Json.t option;
    mutable s_library : Json.t option;
    mutable s_spec : Json.t option;
    mutable s_task : Json.t option;
    mutable s_max_depth : Json.t option;
    mutable s_plan : Json.t option;
    mutable s_deadline_ms : Json.t option;
    mutable s_unknown : string option;
  }

  let empty_slots () =
    {
      s_v = None; s_id = None; s_qubits = None; s_library = None; s_spec = None;
      s_task = None; s_max_depth = None; s_plan = None; s_deadline_ms = None;
      s_unknown = None;
    }

  let rec bytes_match s off lit i =
    i = String.length lit
    || String.unsafe_get s (off + i) = String.unsafe_get lit i
       && bytes_match s off lit (i + 1)

  let span_is s off len lit = len = String.length lit && bytes_match s off lit 0

  (* the slot of the member named by the [len] bytes of [s] at [off],
     matched in place; -1 for an unknown name *)
  let slot_of s off len =
    match len with
    | 1 -> if span_is s off len "v" then 0 else -1
    | 2 -> if span_is s off len "id" then 1 else -1
    | 4 ->
        if span_is s off len "spec" then 4
        else if span_is s off len "task" then 5
        else if span_is s off len "plan" then 7
        else -1
    | 6 -> if span_is s off len "qubits" then 2 else -1
    | 7 -> if span_is s off len "library" then 3 else -1
    | 9 -> if span_is s off len "max_depth" then 6 else -1
    | 11 -> if span_is s off len "deadline_ms" then 8 else -1
    | _ -> -1

  let first j = function None -> Some j | kept -> kept

  let fill sl slot j =
    match slot with
    | 0 -> sl.s_v <- first j sl.s_v
    | 1 -> sl.s_id <- first j sl.s_id
    | 2 -> sl.s_qubits <- first j sl.s_qubits
    | 3 -> sl.s_library <- first j sl.s_library
    | 4 -> sl.s_spec <- first j sl.s_spec
    | 5 -> sl.s_task <- first j sl.s_task
    | 6 -> sl.s_max_depth <- first j sl.s_max_depth
    | 7 -> sl.s_plan <- first j sl.s_plan
    | _ -> sl.s_deadline_ms <- first j sl.s_deadline_ms

  let note_unknown sl name = if Option.is_none sl.s_unknown then sl.s_unknown <- Some name

  exception Invalid of string

  let invalid msg = raise (Invalid msg)

  let task_of_json = function
    | Json.String "synthesize" -> Synthesize
    | Json.String "count-witnesses" -> Count_witnesses
    | Json.Obj [ ("enumerate", Json.Obj [ ("limit", Json.Int limit) ]) ] ->
        Enumerate { limit }
    | Json.String s -> invalid (Printf.sprintf "unknown task %S" s)
    | _ -> invalid "malformed task"

  let decode sl =
    (match sl.s_unknown with
    | Some other -> invalid (Printf.sprintf "unknown request field %S" other)
    | None -> ());
    (match sl.s_v with
    | None | Some (Json.Int 1) -> ()
    | Some (Json.Int v) -> invalid (Printf.sprintf "unsupported protocol version %d" v)
    | Some _ -> invalid "malformed version field");
    let id =
      match sl.s_id with
      | None -> None
      | Some (Json.String s) -> Some s
      | Some _ -> invalid "malformed id field (want a string)"
    in
    let qubits =
      match sl.s_qubits with
      | None -> 3
      (* bounded here, at the parse boundary: a spec is parsed
         against a 2^qubits domain, so an unbounded width would
         allocate before any engine could reject the request *)
      | Some (Json.Int n) when n >= 1 && n <= Mvl.Encoding.max_qubits -> n
      | Some _ ->
          invalid
            (Printf.sprintf "malformed qubits field (want an integer in 1..%d)"
               Mvl.Encoding.max_qubits)
    in
    let library =
      match sl.s_library with
      | None -> Library.default_name
      | Some (Json.String s) ->
          if List.mem s Library.Registry.names then s
          else
            invalid
              (Printf.sprintf "unknown library %S (known: %s)" s
                 (String.concat ", " Library.Registry.names))
      | Some _ -> invalid "malformed library field (want a string)"
    in
    let spec =
      match sl.s_spec with
      | Some (Json.String s) -> s
      | Some _ -> invalid "malformed spec field (want a string)"
      | None -> invalid "missing spec field"
    in
    let task = match sl.s_task with None -> Synthesize | Some j -> task_of_json j in
    let max_depth =
      match sl.s_max_depth with
      | None -> 7
      | Some (Json.Int n) when n >= 0 -> n
      | Some _ -> invalid "malformed max_depth field (want a non-negative integer)"
    in
    let plan =
      match sl.s_plan with
      | None -> Auto
      | Some (Json.String s) -> (
          match plan_of_string s with Ok p -> p | Error msg -> invalid msg)
      | Some _ -> invalid "malformed plan field (want a string)"
    in
    let deadline_ms =
      match sl.s_deadline_ms with
      | None -> None
      | Some (Json.Int ms) when ms >= 1 -> Some ms
      | Some _ -> invalid "malformed deadline_ms field (want a positive integer)"
    in
    { id; qubits; library; spec; task; max_depth; plan; deadline_ms }

  let of_slots sl = match decode sl with t -> Ok t | exception Invalid msg -> Error msg

  let of_json = function
    | Json.Obj members ->
        let sl = empty_slots () in
        List.iter
          (fun (name, j) ->
            let slot = slot_of name 0 (String.length name) in
            if slot < 0 then note_unknown sl name else fill sl slot j)
          members;
        of_slots sl
    | _ -> Error "request must be a JSON object"

  module Cursor = Json.Cursor

  (* The members of an object whose '{' is read, through its '}': each
     name is matched in place when it needs no decoding, and every value
     is read by the cursor, so a malformed document fails as
     [Json.of_string] does before any field is checked. *)
  let rec scan_members c sl =
    Cursor.skip_ws c;
    let start = Cursor.string_start c in
    let slot =
      if Cursor.next_is c '"' then begin
        let s = Cursor.source c and len = Cursor.pos c - start in
        Cursor.advance c;
        let slot = slot_of s start len in
        if slot < 0 then note_unknown sl (String.sub s start len);
        slot
      end
      else begin
        let name = Cursor.string_rest c start in
        let slot = slot_of name 0 (String.length name) in
        if slot < 0 then note_unknown sl name;
        slot
      end
    in
    Cursor.skip_ws c;
    Cursor.expect c ':';
    let j = Cursor.value c in
    if slot >= 0 then fill sl slot j;
    Cursor.skip_ws c;
    if Cursor.next_is c ',' then begin
      Cursor.advance c;
      scan_members c sl
    end
    else Cursor.expect c '}'

  let scan c =
    Cursor.skip_ws c;
    if Cursor.next_is c '{' then begin
      Cursor.advance c;
      Cursor.skip_ws c;
      let sl = empty_slots () in
      if Cursor.next_is c '}' then Cursor.advance c else scan_members c sl;
      Cursor.finish c;
      Some sl
    end
    else begin
      ignore (Cursor.value c);
      Cursor.finish c;
      None
    end

  let of_string s =
    match scan (Cursor.create s) with
    | Some sl -> of_slots sl
    | None -> Error "request must be a JSON object"
    | exception Json.Parse_error msg -> Error ("invalid JSON: " ^ msg)

  let write_task b = function
    | Synthesize -> Buffer.add_string b {|"synthesize"|}
    | Count_witnesses -> Buffer.add_string b {|"count-witnesses"|}
    | Enumerate { limit } ->
        Buffer.add_string b {|{"enumerate":{"limit":|};
        add_int b limit;
        Buffer.add_string b "}}"

  let key t =
    let b = Buffer.create 128 in
    Buffer.add_string b {|{"qubits":|};
    add_int b t.qubits;
    Buffer.add_string b {|,"library":|};
    Json.write_string b t.library;
    Buffer.add_string b {|,"spec":|};
    (match target t with
    | Ok f -> add_column b f
    | Error _ -> Json.write_string b t.spec);
    Buffer.add_string b {|,"task":|};
    write_task b t.task;
    Buffer.add_string b {|,"max_depth":|};
    add_int b t.max_depth;
    Buffer.add_string b {|,"plan":"|};
    Buffer.add_string b (plan_to_string t.plan);
    Buffer.add_string b {|"}|};
    Buffer.contents b
end

module Response = struct
  type plan_used = Trivial | Index_hit | Index_certified | Bidir_meet | Forward_bfs

  type payload =
    | Synthesized of {
        target : Revfun.t;
        not_mask : int;
        cascade : Cascade.t;
        cost : int;
      }
    | Unrealizable of { max_depth : int }
    | Witnesses of { count : int }
    | Realizations of {
        target : Revfun.t;
        not_mask : int;
        cost : int;
        cascades : Cascade.t list;
        complete : bool;
      }

  type error =
    | Bad_request of string
    | Unsupported of string
    | Overloaded of { retry_after_ms : int }
    | Deadline_exceeded
    | Shutting_down
    | Cancelled
    | Internal of string

  type ok = { plan : plan_used; payload : payload }

  type t = {
    id : string option;
    trace : string option;
    qubits : int;
    body : (ok, error) Stdlib.result;
  }

  let with_id id t = { t with id }
  let with_trace trace t = { t with trace }

  let payload_equal a b =
    match (a, b) with
    | ( Synthesized { target = t1; not_mask = m1; cascade = c1; cost = k1 },
        Synthesized { target = t2; not_mask = m2; cascade = c2; cost = k2 } ) ->
        Revfun.equal t1 t2 && m1 = m2 && Cascade.equal c1 c2 && k1 = k2
    | Unrealizable { max_depth = a }, Unrealizable { max_depth = b } -> a = b
    | Witnesses { count = a }, Witnesses { count = b } -> a = b
    | ( Realizations { target = t1; not_mask = m1; cost = k1; cascades = c1; complete = f1 },
        Realizations { target = t2; not_mask = m2; cost = k2; cascades = c2; complete = f2 }
      ) ->
        Revfun.equal t1 t2 && m1 = m2 && k1 = k2 && f1 = f2
        && List.length c1 = List.length c2
        && List.for_all2 Cascade.equal c1 c2
    | _ -> false

  let equal a b =
    a.id = b.id && a.trace = b.trace && a.qubits = b.qubits
    &&
    match (a.body, b.body) with
    | Ok x, Ok y -> x.plan = y.plan && payload_equal x.payload y.payload
    | Error x, Error y -> x = y
    | _ -> false

  let plan_to_string = function
    | Trivial -> "trivial"
    | Index_hit -> "index"
    | Index_certified -> "index-certified"
    | Bidir_meet -> "bidir"
    | Forward_bfs -> "forward"

  let plan_of_string = function
    | "trivial" -> Ok Trivial
    | "index" -> Ok Index_hit
    | "index-certified" -> Ok Index_certified
    | "bidir" -> Ok Bidir_meet
    | "forward" -> Ok Forward_bfs
    | s -> Error (Printf.sprintf "unknown plan %S" s)

  (* {2 Wire encoder} *)

  (* gate names are drawn from [A-Z+] and the identity is "()": nothing
     in a cascade string ever needs escaping *)
  let add_cascade b c =
    Buffer.add_char b '"';
    Cascade.write b c;
    Buffer.add_char b '"'

  let write_payload b = function
    | Synthesized { target; not_mask; cascade; cost } ->
        Buffer.add_string b {|{"kind":"synthesized","target":|};
        add_column b target;
        Buffer.add_string b {|,"not_mask":|};
        add_int b not_mask;
        Buffer.add_string b {|,"cascade":|};
        add_cascade b cascade;
        Buffer.add_string b {|,"cost":|};
        add_int b cost;
        Buffer.add_char b '}'
    | Unrealizable { max_depth } ->
        Buffer.add_string b {|{"kind":"unrealizable","max_depth":|};
        add_int b max_depth;
        Buffer.add_char b '}'
    | Witnesses { count } ->
        Buffer.add_string b {|{"kind":"witnesses","count":|};
        add_int b count;
        Buffer.add_char b '}'
    | Realizations { target; not_mask; cost; cascades; complete } ->
        Buffer.add_string b {|{"kind":"realizations","target":|};
        add_column b target;
        Buffer.add_string b {|,"not_mask":|};
        add_int b not_mask;
        Buffer.add_string b {|,"cost":|};
        add_int b cost;
        Buffer.add_string b {|,"cascades":[|};
        List.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char b ',';
            add_cascade b c)
          cascades;
        Buffer.add_string b {|],"complete":|};
        Buffer.add_string b (if complete then "true}" else "false}")

  let write_message b kind msg =
    Buffer.add_string b {|{"kind":"|};
    Buffer.add_string b kind;
    Buffer.add_string b {|","message":|};
    Json.write_string b msg;
    Buffer.add_char b '}'

  let write_error b = function
    | Bad_request msg -> write_message b "bad-request" msg
    | Unsupported msg -> write_message b "unsupported" msg
    | Internal msg -> write_message b "internal" msg
    | Overloaded { retry_after_ms } ->
        Buffer.add_string b {|{"kind":"overloaded","retry_after_ms":|};
        add_int b retry_after_ms;
        Buffer.add_char b '}'
    | Deadline_exceeded -> Buffer.add_string b {|{"kind":"deadline-exceeded"}|}
    | Shutting_down -> Buffer.add_string b {|{"kind":"shutting-down"}|}
    | Cancelled -> Buffer.add_string b {|{"kind":"cancelled"}|}

  let write b t =
    Buffer.add_string b {|{"v":1|};
    Option.iter
      (fun id ->
        Buffer.add_string b {|,"id":|};
        Json.write_string b id)
      t.id;
    Option.iter
      (fun tr ->
        Buffer.add_string b {|,"trace":|};
        Json.write_string b tr)
      t.trace;
    Buffer.add_string b {|,"qubits":|};
    add_int b t.qubits;
    (match t.body with
    | Ok { plan; payload } ->
        Buffer.add_string b {|,"ok":{"plan":"|};
        Buffer.add_string b (plan_to_string plan);
        Buffer.add_string b {|","payload":|};
        write_payload b payload;
        Buffer.add_char b '}'
    | Error e ->
        Buffer.add_string b {|,"error":|};
        write_error b e);
    Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 192 in
    write b t;
    Buffer.contents b

  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

  let parse_target ~qubits s =
    match Spec.of_output_list ~bits:qubits s with
    | f -> Ok f
    | exception Invalid_argument msg ->
        Error (Printf.sprintf "malformed target %S: %s" s msg)

  let parse_cascade ~qubits s =
    match Cascade.of_string ~qubits s with
    | c -> Ok c
    | exception Invalid_argument msg ->
        Error (Printf.sprintf "malformed cascade %S: %s" s msg)

  let int_field fields name =
    match List.assoc_opt name fields with
    | Some (Json.Int n) -> Ok n
    | Some _ -> Error (Printf.sprintf "malformed %s field" name)
    | None -> Error (Printf.sprintf "missing %s field" name)

  let string_field fields name =
    match List.assoc_opt name fields with
    | Some (Json.String s) -> Ok s
    | Some _ -> Error (Printf.sprintf "malformed %s field" name)
    | None -> Error (Printf.sprintf "missing %s field" name)

  let payload_of_json ~qubits = function
    | Json.Obj fields -> (
        let* kind = string_field fields "kind" in
        match kind with
        | "synthesized" ->
            let* target = string_field fields "target" in
            let* target = parse_target ~qubits target in
            let* not_mask = int_field fields "not_mask" in
            let* cascade = string_field fields "cascade" in
            let* cascade = parse_cascade ~qubits cascade in
            let* cost = int_field fields "cost" in
            Ok (Synthesized { target; not_mask; cascade; cost })
        | "unrealizable" ->
            let* max_depth = int_field fields "max_depth" in
            Ok (Unrealizable { max_depth })
        | "witnesses" ->
            let* count = int_field fields "count" in
            Ok (Witnesses { count })
        | "realizations" ->
            let* target = string_field fields "target" in
            let* target = parse_target ~qubits target in
            let* not_mask = int_field fields "not_mask" in
            let* cost = int_field fields "cost" in
            let* cascades =
              match List.assoc_opt "cascades" fields with
              | Some (Json.List items) ->
                  List.fold_left
                    (fun acc item ->
                      let* acc = acc in
                      match item with
                      | Json.String s ->
                          let* c = parse_cascade ~qubits s in
                          Ok (c :: acc)
                      | _ -> Error "malformed cascades field")
                    (Ok []) items
                  |> Stdlib.Result.map List.rev
              | Some _ | None -> Error "missing cascades field"
            in
            let* complete =
              match List.assoc_opt "complete" fields with
              | Some (Json.Bool b) -> Ok b
              | Some _ | None -> Error "missing complete field"
            in
            Ok (Realizations { target; not_mask; cost; cascades; complete })
        | other -> Error (Printf.sprintf "unknown payload kind %S" other))
    | _ -> Error "payload must be a JSON object"

  let error_of_json = function
    | Json.Obj fields -> (
        let* kind = string_field fields "kind" in
        match kind with
        | "bad-request" ->
            let* msg = string_field fields "message" in
            Ok (Bad_request msg)
        | "unsupported" ->
            let* msg = string_field fields "message" in
            Ok (Unsupported msg)
        | "overloaded" ->
            let* retry_after_ms = int_field fields "retry_after_ms" in
            Ok (Overloaded { retry_after_ms })
        | "deadline-exceeded" -> Ok Deadline_exceeded
        | "shutting-down" -> Ok Shutting_down
        | "cancelled" -> Ok Cancelled
        | "internal" ->
            let* msg = string_field fields "message" in
            Ok (Internal msg)
        | other -> Error (Printf.sprintf "unknown error kind %S" other))
    | _ -> Error "error body must be a JSON object"

  let of_json = function
    | Json.Obj fields ->
        let* () =
          match List.assoc_opt "v" fields with
          | None | Some (Json.Int 1) -> Ok ()
          | Some (Json.Int v) ->
              Error (Printf.sprintf "unsupported protocol version %d" v)
          | Some _ -> Error "malformed version field"
        in
        let* id =
          match List.assoc_opt "id" fields with
          | None -> Ok None
          | Some (Json.String s) -> Ok (Some s)
          | Some _ -> Error "malformed id field"
        in
        let* trace =
          match List.assoc_opt "trace" fields with
          | None -> Ok None
          | Some (Json.String s) -> Ok (Some s)
          | Some _ -> Error "malformed trace field"
        in
        let* qubits = int_field fields "qubits" in
        let* body =
          match (List.assoc_opt "ok" fields, List.assoc_opt "error" fields) with
          | Some (Json.Obj ok_fields), None ->
              let* plan = string_field ok_fields "plan" in
              let* plan = plan_of_string plan in
              let* payload =
                match List.assoc_opt "payload" ok_fields with
                | Some j -> payload_of_json ~qubits j
                | None -> Error "missing payload field"
              in
              Ok (Ok { plan; payload })
          | None, Some err ->
              let* e = error_of_json err in
              Ok (Error e)
          | Some _, None -> Error "malformed ok field"
          | None, None -> Error "response carries neither ok nor error"
          | Some _, Some _ -> Error "response carries both ok and error"
        in
        Ok { id; trace; qubits; body }
    | _ -> Error "response must be a JSON object"

  let of_string s =
    match Json.of_string s with
    | j -> of_json j
    | exception Json.Parse_error msg -> Error ("invalid JSON: " ^ msg)

  let result_of t =
    match t.body with
    | Ok { payload = Synthesized { target; not_mask; cascade; cost }; _ } ->
        Some { target; not_mask; cascade; cost }
    | _ -> None
end

(* Theorem 2's free NOT layer exists only under coset reduction; a
   full-group library (NCT, NFT) prices NOTs like any gate, so the
   target is searched whole. *)
let coset_split library target =
  if Library.coset_reduction library then strip_not_layer target else (0, target)

(* Enumerate up to [limit] cascades, and report whether the budget
   survived (the enumeration is then provably complete). *)
let enumerate_cascades ~limit search target =
  let cascades = Search.all_cascades ~limit search target in
  (cascades, List.length cascades < limit)

(* {1 The evaluator}

   [solve] picks the cheapest sound plan for the request:
   1. index hit — the exact cost and a witness in O(log n), no search;
   2. index miss at depth d — proven lower bound cost >= d+1: a
      certified Unrealizable when d >= max_depth, else fall through with
      the bound (which lets the bidirectional engine stop at first join);
   3. bidirectional — meet-in-the-middle over the caller's context;
   4. forward BFS — the original algorithm. *)

let solve ?(jobs = 1) ?(should_stop = no_stop) ?index ?bidir library
    (req : Request.t) : Response.t =
  let open Request in
  let respond body : Response.t =
    { id = req.id; trace = None; qubits = req.qubits; body }
  in
  let fail e = respond (Error e) in
  let ok plan payload = respond (Ok { Response.plan; payload }) in
  if req.qubits <> Library.qubits library then
    fail
      (Response.Bad_request
         (Printf.sprintf "this engine is built for %d qubits; the request says %d"
            (Library.qubits library) req.qubits))
  else if not (String.equal req.library (Library.name library)) then
    fail
      (Response.Bad_request
         (Printf.sprintf
            "this engine serves library %s; the request asks for %s"
            (Library.name library) req.library))
  else
    match Request.target req with
    | Error msg -> fail (Response.Bad_request msg)
    | Ok _ when req.max_depth < 0 ->
        fail (Response.Bad_request "max_depth must be non-negative")
    | Ok target -> (
        let mask, remainder = coset_split library target in
        let synthesized cascade =
          Response.Synthesized
            { target; not_mask = mask; cascade; cost = List.length cascade }
        in
        let unrealizable = Response.Unrealizable { max_depth = req.max_depth } in
        (* The forward BFS to the depth bound: [answer] reads the search
           that stored the remainder's image, [none] is the payload when
           the bound is exhausted first. *)
        let forward ~none answer =
          match
            search_until ~max_depth:req.max_depth ~jobs ~should_stop library
              remainder
          with
          | Some (search, image) ->
              Telemetry.Counter.incr m_plan_forward;
              ok Response.Forward_bfs (answer search image)
          | None when should_stop () -> fail Response.Cancelled
          | None -> ok Response.Forward_bfs none
        in
        let forward_synthesize () =
          forward ~none:unrealizable (fun search image ->
              synthesized (Search.cascade_of_key search image))
        in
        let bidir_synthesize ~lower_bound engine =
          Telemetry.Counter.incr m_plan_bidir;
          match
            Bidir.synthesize ~max_cost:req.max_depth ~lower_bound ~should_stop
              engine remainder
          with
          | Some o -> ok Response.Bidir_meet (synthesized o.Bidir.cascade)
          | None when should_stop () -> fail Response.Cancelled
          | None -> ok Response.Bidir_meet unrealizable
        in
        (* One index probe: an answer, or the horizon past which a miss
           proves nothing within the depth bound.  A complete index
           cannot miss a zero-fixing remainder of the library's width —
           every such function has a record — so a miss there means the
           file and the library disagree despite the fingerprints, and
           is never silently searched past. *)
        let probe idx =
          match Census_index.find idx remainder with
          | Some (cost, cascade) ->
              Telemetry.Counter.incr m_plan_index;
              if cost <= req.max_depth then
                `Answer
                  (ok Response.Index_hit
                     (Response.Synthesized { target; not_mask = mask; cascade; cost }))
              else `Answer (ok Response.Index_certified unrealizable)
          | None when Census_index.is_complete idx ->
              `Answer
                (fail
                   (Response.Internal
                      "complete index failed to answer a zero-fixing remainder \
                       — the index does not match this library"))
          | None when Census_index.depth idx >= req.max_depth ->
              Telemetry.Counter.incr m_plan_index;
              `Answer (ok Response.Index_certified unrealizable)
          | None ->
              Log.debug (fun m ->
                  m "index miss: cost >= %d proven" (Census_index.depth idx + 1));
              `Miss (Census_index.depth idx)
        in
        match req.task with
        | Count_witnesses | Enumerate _
          when req.plan <> Auto && req.plan <> Forward ->
            fail
              (Response.Unsupported
                 "witness counting and enumeration run on the forward plan only")
        | Enumerate { limit } when limit < 0 ->
            fail (Response.Bad_request "limit must be non-negative")
        | task when Revfun.is_identity remainder ->
            ok Response.Trivial
              (match task with
              | Synthesize -> synthesized []
              | Count_witnesses -> Response.Witnesses { count = 1 }
              | Enumerate { limit } ->
                  Response.Realizations
                    {
                      target;
                      not_mask = mask;
                      cost = 0;
                      cascades = (if limit > 0 then [ [] ] else []);
                      complete = limit > 0;
                    })
        | Count_witnesses ->
            forward ~none:(Response.Witnesses { count = 0 }) (fun search image ->
                Response.Witnesses { count = Search.count_point_perms search image })
        | Enumerate { limit } ->
            forward ~none:unrealizable (fun search image ->
                let cascades, complete = enumerate_cascades ~limit search image in
                let cost = match cascades with c :: _ -> List.length c | [] -> 0 in
                Response.Realizations
                  { target; not_mask = mask; cost; cascades; complete })
        | Synthesize -> (
            match (req.plan, index, bidir) with
            | Forward, _, _ -> forward_synthesize ()
            | Bidir, _, None ->
                fail
                  (Response.Unsupported
                     "no meet-in-the-middle context on this evaluator \
                      (daemon started without bidir, or synth run \
                      without --bidir)")
            | Bidir, _, Some engine -> bidir_synthesize ~lower_bound:1 engine
            | Index, None, _ ->
                fail
                  (Response.Unsupported
                     "no census index on this evaluator (daemon started \
                      without --index, or synth run without --index)")
            | Index, Some idx, _ -> (
                match probe idx with
                | `Answer resp -> resp
                | `Miss horizon ->
                    fail
                      (Response.Unsupported
                         (Printf.sprintf
                            "index horizon %d cannot certify max_depth %d on a \
                             miss; use plan auto to fall through"
                            horizon req.max_depth)))
            | Auto, _, _ -> (
                let search ~lower_bound =
                  if lower_bound > req.max_depth then begin
                    (* the bound alone certifies: no search needed *)
                    Telemetry.Counter.incr m_plan_index;
                    ok Response.Index_certified unrealizable
                  end
                  else
                    match bidir with
                    | Some engine -> bidir_synthesize ~lower_bound engine
                    | None -> forward_synthesize ()
                in
                match Option.map probe index with
                | Some (`Answer resp) -> resp
                | None -> search ~lower_bound:1
                | Some (`Miss horizon) ->
                    note_fallback ~horizon ~max_depth:req.max_depth
                      ~engine:
                        (match bidir with
                        | Some _ -> "the meet-in-the-middle engine"
                        | None -> "a forward BFS");
                    search ~lower_bound:(horizon + 1))))

(* {1 One-request wrappers} *)

let solve_function ?max_depth ?jobs ?should_stop ?index ?bidir ~task library target =
  let req =
    Request.make
      ~qubits:(Revfun.bits target)
      ~library:(Library.name library) ~task ?max_depth (column_spec target)
  in
  solve ?jobs ?should_stop ?index ?bidir library req

let express ?max_depth ?jobs ?should_stop ?index ?bidir library target =
  Response.result_of
    (solve_function ?max_depth ?jobs ?should_stop ?index ?bidir ~task:Synthesize
       library target)

let all_realizations ?max_depth ?(limit = 10_000) ?jobs ?should_stop library target =
  match
    (solve_function ?max_depth ?jobs ?should_stop ~task:(Enumerate { limit }) library
       target)
      .body
  with
  | Ok { payload = Response.Realizations { target; not_mask; cascades; _ }; _ } ->
      List.map
        (fun cascade -> { target; not_mask; cascade; cost = List.length cascade })
        cascades
  | _ -> []

let distinct_witnesses ?max_depth ?jobs ?should_stop library target =
  match
    (solve_function ?max_depth ?jobs ?should_stop ~task:Count_witnesses library
       target)
      .body
  with
  | Ok { payload = Response.Witnesses { count }; _ } -> count
  | _ -> 0
