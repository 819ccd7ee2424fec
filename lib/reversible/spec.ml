(* The value of the plain decimal digits [s.[i .. b)], or -1. *)
let rec digits s b i v =
  if i = b then v
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits s b (i + 1) ((10 * v) + Char.code c - 48)
    | _ -> -1

let entry s a b =
  let v = if b > a && b - a <= 18 then digits s b a 0 else -1 in
  if v >= 0 then v
  else
    match int_of_string_opt (String.trim (String.sub s a (b - a))) with
    | Some v -> v
    | None -> invalid_arg ("Spec.of_output_list: bad entry " ^ String.sub s a (b - a))

(* One scan over the spec, no intermediate list.  An entry of 1 to 18
   plain decimal digits (below 10^18, so it cannot overflow) is read
   digit by digit; any other spelling — padding, a sign, [0x], [_], an
   overflow, an empty entry — goes through [int_of_string_opt] on the
   trimmed entry, so every spelling is accepted or refused exactly as
   that function does.  A bad entry is reported before a wrong count,
   the first bad entry in order. *)
let of_output_list ~bits s =
  let n = 1 lsl bits in
  let len = String.length s in
  let entries = ref 1 in
  for i = 0 to len - 1 do
    if String.unsafe_get s i = ',' then incr entries
  done;
  (* entries are stored only when their count is right; otherwise they
     are still parsed, for the bad-entry error that takes precedence *)
  let out = if !entries = n then Array.make n 0 else [||] in
  let a = ref 0 in
  for k = 0 to !entries - 1 do
    let b = ref !a in
    while !b < len && String.unsafe_get s !b <> ',' do
      incr b
    done;
    let v = entry s !a !b in
    if !entries = n then out.(k) <- v;
    a := !b + 1
  done;
  if !entries <> n then invalid_arg "Spec.of_output_list: wrong number of outputs";
  Revfun.of_perm ~bits (Permgroup.Perm.of_array out)

let of_cycles ~bits s =
  Revfun.of_perm ~bits (Permgroup.Cycles.of_string ~degree:(1 lsl bits) s)

(* No name is longer than "identity": a longer spec (an output column,
   cycles, formulas) skips the lowercase copy. *)
let of_name s =
  if String.length s > 8 then None
  else
    match String.lowercase_ascii s with
    | "toffoli" -> Some Gates.toffoli3
    | "peres" | "g1" -> Some Gates.g1
    | "g2" -> Some Gates.g2
    | "g3" -> Some Gates.g3
    | "g4" -> Some Gates.g4
    | "fredkin" -> Some Gates.fredkin3
    | "identity" -> Some (Revfun.identity ~bits:3)
    | _ -> None

let of_formulas ~bits s =
  Boolexpr.revfun_of_formulas ~bits (List.map String.trim (String.split_on_char ';' s))

let parse ~bits s =
  match of_name s with
  | Some f when Revfun.bits f = bits -> f
  | Some _ -> invalid_arg "Spec.parse: named circuit has a different width"
  | None -> (
      let trimmed = String.trim s in
      if String.length trimmed > 0 && trimmed.[0] = '(' then of_cycles ~bits trimmed
      else if String.contains trimmed ';' then of_formulas ~bits trimmed
      else of_output_list ~bits trimmed)
