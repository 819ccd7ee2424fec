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

(* One cursor over the document: every reader below is a top-level
   function of it, so a parse allocates the cursor and the values it
   returns, not a closure per reader. *)
module Cursor = struct
  type t = { s : string; n : int; mutable pos : int }

  let create s = { s; n = String.length s; pos = 0 }
  let source c = c.s
  let pos c = c.pos
  let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
  let next_is c ch = c.pos < c.n && String.unsafe_get c.s c.pos = ch
  let advance c = c.pos <- c.pos + 1

  let skip_ws c =
    while
      c.pos < c.n
      && (match String.unsafe_get c.s c.pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false)
    do
      c.pos <- c.pos + 1
    done

  let expect c ch = if next_is c ch then advance c else fail c (Printf.sprintf "expected '%c'" ch)

  let literal c lit v =
    let l = String.length lit in
    if c.pos + l <= c.n && String.sub c.s c.pos l = lit then begin
      c.pos <- c.pos + l;
      v
    end
    else fail c ("expected " ^ lit)

  let hex_digit = function
    | '0' .. '9' as ch -> Char.code ch - Char.code '0'
    | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
    | _ -> -1

  (* Exactly four hex digits, nothing else: [int_of_string "0x..."]
     would also take '_'. *)
  let hex4 c =
    if c.pos + 4 > c.n then fail c "truncated \\u escape";
    let code = ref 0 and valid = ref true in
    for i = c.pos to c.pos + 3 do
      let d = hex_digit (String.unsafe_get c.s i) in
      if d < 0 then valid := false;
      code := (!code lsl 4) + d
    done;
    c.pos <- c.pos + 4;
    if !valid then !code else fail c "malformed \\u escape"

  let string_start c =
    expect c '"';
    let start = c.pos in
    while
      c.pos < c.n
      &&
      let ch = String.unsafe_get c.s c.pos in
      ch <> '"' && ch <> '\\' && Char.code ch >= 0x20
    do
      c.pos <- c.pos + 1
    done;
    start

  (* the buffer path: decodes escapes from where [string_start] stopped,
     reporting any error at the offset the one-pass parser did *)
  let string_rest c start =
    let b = Buffer.create 16 in
    Buffer.add_substring b c.s start (c.pos - start);
    let rec go () =
      if c.pos >= c.n then fail c "unterminated string";
      match c.s.[c.pos] with
      | '"' ->
          advance c;
          Buffer.contents b
      | '\\' ->
          advance c;
          if c.pos >= c.n then fail c "truncated escape";
          let ch = c.s.[c.pos] in
          advance c;
          (match ch with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let code = hex4 c in
              let code =
                (* combine surrogate pairs; lone surrogates become U+FFFD *)
                if code >= 0xD800 && code <= 0xDBFF then
                  if c.pos + 1 < c.n && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u'
                  then begin
                    c.pos <- c.pos + 2;
                    let low = hex4 c in
                    if low >= 0xDC00 && low <= 0xDFFF then
                      0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00))
                    else 0xFFFD
                  end
                  else 0xFFFD
                else if code >= 0xDC00 && code <= 0xDFFF then 0xFFFD
                else code
              in
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | _ -> fail c "unknown escape");
          go ()
      | ch when Char.code ch < 0x20 -> fail c "control character in string"
      | ch ->
          Buffer.add_char b ch;
          advance c;
          go ()
    in
    go ()

  (* A string with no escape and no control character is one copy. *)
  let string c =
    let start = string_start c in
    if next_is c '"' then begin
      advance c;
      String.sub c.s start (c.pos - 1 - start)
    end
    else string_rest c start

  (* whether [s.[start] .. s.[stop - 1]] matches RFC 8259's number
     grammar: an optional minus, then 0 or a digit string without a
     leading zero, then optionally a dot and digits, then optionally an
     exponent (e or E, an optional sign, digits) *)
  let grammatical s start stop =
    let pos = ref start in
    let at ch = !pos < stop && String.unsafe_get s !pos = ch in
    let digits () =
      let from = !pos in
      while
        !pos < stop
        && match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false
      do
        incr pos
      done;
      !pos > from
    in
    if at '-' then incr pos;
    (if at '0' then begin
       incr pos;
       true
     end
     else digits ())
    && ((not (at '.')) || (incr pos; digits ()))
    && ((not (at 'e' || at 'E'))
       || begin
            incr pos;
            if at '+' || at '-' then incr pos;
            digits ()
          end)
    && !pos = stop

  let number c =
    let start = c.pos in
    if next_is c '-' then advance c;
    let digits = c.pos in
    let is_float = ref false in
    while
      c.pos < c.n
      &&
      match String.unsafe_get c.s c.pos with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      c.pos <- c.pos + 1
    done;
    let len = c.pos - digits in
    if !is_float then
      if grammatical c.s start c.pos then
        Float (float_of_string (String.sub c.s start (c.pos - start)))
      else fail c "malformed number"
    else if len = 0 || (len > 1 && String.unsafe_get c.s digits = '0') then
      (* an integer is one or more digits without a leading zero *)
      fail c "malformed number"
    else if len <= 18 then begin
      (* at most 18 decimal digits always fit in 63 bits: read them in
         place, as int_of_string would *)
      let v = ref 0 in
      for i = digits to c.pos - 1 do
        v := (!v * 10) + (Char.code (String.unsafe_get c.s i) - 48)
      done;
      Int (if digits > start then - !v else !v)
    end
    else
      (* past 63 bits an integer becomes a float *)
      let text = String.sub c.s start (c.pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)

  let rec value c =
    skip_ws c;
    if c.pos >= c.n then fail c "unexpected end of input";
    match String.unsafe_get c.s c.pos with
    | '{' ->
        advance c;
        skip_ws c;
        if next_is c '}' then begin
          advance c;
          Obj []
        end
        else Obj (fields c [])
    | '[' ->
        advance c;
        skip_ws c;
        if next_is c ']' then begin
          advance c;
          List []
        end
        else List (items c [])
    | '"' -> String (string c)
    | 't' -> literal c "true" (Bool true)
    | 'f' -> literal c "false" (Bool false)
    | 'n' -> literal c "null" Null
    | '-' | '0' .. '9' -> number c
    | ch -> fail c (Printf.sprintf "unexpected character '%c'" ch)

  and fields c acc =
    skip_ws c;
    let key = string c in
    skip_ws c;
    expect c ':';
    let v = value c in
    skip_ws c;
    if next_is c ',' then begin
      advance c;
      fields c ((key, v) :: acc)
    end
    else begin
      expect c '}';
      List.rev ((key, v) :: acc)
    end

  and items c acc =
    let v = value c in
    skip_ws c;
    if next_is c ',' then begin
      advance c;
      items c (v :: acc)
    end
    else begin
      expect c ']';
      List.rev (v :: acc)
    end

  let finish c =
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage"
end

let of_string s =
  let c = Cursor.create s in
  let v = Cursor.value c in
  Cursor.finish c;
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
