type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* printing *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let write_string b s =
  Buffer.add_char b '"';
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write b ~pretty ~indent v =
  let nl n =
    if pretty then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * n) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> write_string b s
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          nl (indent + 1);
          write b ~pretty ~indent:(indent + 1) item)
        items;
      nl indent;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char b ',';
          nl (indent + 1);
          write_string b k;
          Buffer.add_char b ':';
          if pretty then Buffer.add_char b ' ';
          write b ~pretty ~indent:(indent + 1) item)
        fields;
      nl indent;
      Buffer.add_char b '}'

let to_string ?(pretty = false) v =
  let b = Buffer.create 256 in
  write b ~pretty ~indent:0 v;
  Buffer.contents b

let to_channel ?(pretty = false) oc v = output_string oc (to_string ~pretty v)

(* parsing *)

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> fail "malformed \\u escape"
  in
  let parse_string () =
    expect '"';
    (* A string with no escape and no control character is one copy;
       anything else takes the buffer path from where the scan stopped,
       which reports an error at the same offset. *)
    let start = !pos in
    while
      !pos < n
      &&
      let c = String.unsafe_get s !pos in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      incr pos
    done;
    if !pos < n && String.unsafe_get s !pos = '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let b = Buffer.create 16 in
      Buffer.add_substring b s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents b
        | '\\' ->
            incr pos;
            if !pos >= n then fail "truncated escape";
            let c = s.[!pos] in
            incr pos;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                let code = hex4 () in
                let code =
                  (* combine surrogate pairs; lone surrogates become U+FFFD *)
                  if code >= 0xD800 && code <= 0xDBFF then
                    if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
                      pos := !pos + 2;
                      let low = hex4 () in
                      if low >= 0xDC00 && low <= 0xDFFF then
                        0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00))
                      else 0xFFFD
                    end
                    else 0xFFFD
                  else if code >= 0xDC00 && code <= 0xDFFF then 0xFFFD
                  else code
                in
                Buffer.add_utf_8_uchar b (Uchar.of_int code)
            | _ -> fail "unknown escape");
            go ()
        | c when Char.code c < 0x20 -> fail "control character in string"
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ()
    end
  in
  let parse_number () =
    let start = !pos in
    if !pos < n && s.[!pos] = '-' then incr pos;
    let is_float = ref false in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              fields ((key, v) :: acc)
            end
            else begin
              expect '}';
              List.rev ((key, v) :: acc)
            end
          in
          Obj (fields [])
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              List.rev (v :: acc)
            end
          in
          List (items [])
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let path keys v =
  List.fold_left
    (fun acc key -> match acc with Some v -> member key v | None -> None)
    (Some v) keys

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y || (Float.is_nan x && Float.is_nan y)
  | String x, String y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           x y
  | _ -> false
