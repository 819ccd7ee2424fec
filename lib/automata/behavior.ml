open Synthesis

type wire_behavior = Zero | One | Coin | Any
type t = wire_behavior array array

let of_strings library rows =
  let qubits = Library.qubits library in
  if List.length rows <> 1 lsl qubits then
    invalid_arg "Behavior.of_strings: one row per input code";
  let parse_row row =
    let row = String.trim row in
    if String.length row <> qubits then invalid_arg "Behavior.of_strings: row width";
    Array.init qubits (fun w ->
        match row.[w] with
        | '0' -> Zero
        | '1' -> One
        | '?' -> Coin
        | '*' -> Any
        | c -> invalid_arg (Printf.sprintf "Behavior.of_strings: bad character %c" c))
  in
  Array.of_list (List.map parse_row rows)

let wire_matches behavior value =
  match (behavior, value) with
  | Zero, Mvl.Quat.Zero | One, Mvl.Quat.One -> true
  | Coin, (Mvl.Quat.V0 | Mvl.Quat.V1) -> true
  | Any, _ -> true
  | (Zero | One | Coin), _ -> false

let matches spec ~input pattern =
  let row = spec.(input) in
  let n = Array.length row in
  let rec go w = w >= n || (wire_matches row.(w) (Mvl.Pattern.get pattern w) && go (w + 1)) in
  go 0

let satisfied_by spec circuit =
  let inputs = Array.length spec in
  let rec go input =
    input >= inputs
    || (matches spec ~input (Prob_circuit.output_pattern circuit ~input) && go (input + 1))
  in
  go 0

let synthesize ?(max_depth = 7) library spec =
  let encoding = Library.encoding library in
  let nb = Mvl.Encoding.num_binary encoding in
  if Array.length spec <> nb then invalid_arg "Behavior.synthesize: spec arity";
  let search = Search.create library in
  let store = Search.store search in
  let key_matches h =
    let src = State_arena.shard_arena store (State_arena.shard_of_handle h) in
    let off = State_arena.key_offset store h in
    let rec go input =
      input >= nb
      || matches spec ~input
           (Mvl.Encoding.pattern encoding (Char.code (Bytes.get src (off + input))))
         && go (input + 1)
    in
    go 0
  in
  (* the first match of the newest level, in the canonical order *)
  let rec run () =
    let found = ref (-1) in
    Search.iter_level search (Search.depth search) (fun h ->
        if !found < 0 && key_matches h then found := h);
    if !found >= 0 then
      Some (Prob_circuit.of_cascade library (Search.cascade_of_handle search !found))
    else if Search.depth search >= max_depth then None
    else
      match Search.try_step search ~cancel:(fun () -> false) with
      | Some fresh when fresh > 0 -> run ()
      | Some _ | None -> None
  in
  run ()

let observe circuit =
  let qubits = Prob_circuit.qubits circuit in
  Array.init (1 lsl qubits) (fun input ->
      let pattern = Prob_circuit.output_pattern circuit ~input in
      Array.init qubits (fun w ->
          match Mvl.Pattern.get pattern w with
          | Mvl.Quat.Zero -> Zero
          | Mvl.Quat.One -> One
          | Mvl.Quat.V0 | Mvl.Quat.V1 -> Coin))

let behavior_char = function Zero -> '0' | One -> '1' | Coin -> '?' | Any -> '*'

let pp ppf spec =
  Array.iteri
    (fun input row ->
      Format.fprintf ppf "input %d -> %s@." input
        (String.init (Array.length row) (fun w -> behavior_char row.(w))))
    spec
