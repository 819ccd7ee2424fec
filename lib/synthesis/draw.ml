let cell_width = 6

let centered text =
  let pad = cell_width - String.length text in
  let left = pad / 2 in
  String.init cell_width (fun i ->
      if i >= left && i < left + String.length text then text.[i - left] else '-')

let plain = String.make cell_width '-'
let crossing = centered "|"

let gate_cell gate wire =
  if wire = Gate.target gate then
    match Gate.kind gate with
    | Gate.Controlled_v -> centered "[V]"
    | Gate.Controlled_v_dag -> centered "[V+]"
    | Gate.Feynman | Gate.Toffoli -> centered "(+)"
    | Gate.Not -> centered "[N]"
    | Gate.Swap | Gate.Fredkin -> centered "x"
    | Gate.Peres -> centered "[P]"
    | Gate.Peres_dag -> centered "[P+]"
  else if wire = Gate.control gate then
    match Gate.kind gate with
    | Gate.Swap -> centered "x"
    | _ -> centered "*"
  else if wire = Gate.control2 gate then
    match Gate.kind gate with
    | Gate.Fredkin -> centered "x"
    | Gate.Peres | Gate.Peres_dag -> centered "(+)"
    | _ -> centered "*"
  else
    let touched = Gate.wires gate in
    let low = List.fold_left min max_int touched in
    let high = List.fold_left max (-1) touched in
    if wire > low && wire < high then crossing else plain

let default_labels qubits =
  List.init qubits (fun w -> String.make 1 (Char.chr (Char.code 'A' + w)))

let to_ascii ~qubits ?(not_mask = 0) ?labels cascade =
  let labels = match labels with Some l -> l | None -> default_labels qubits in
  if List.length labels <> qubits then invalid_arg "Draw.to_ascii: label count";
  (* [not_mask] is a code mask as in [Mce.result]: wire 0 is the most
     significant bit. *)
  let not_column wire =
    if not_mask = 0 then ""
    else if (not_mask lsr (qubits - 1 - wire)) land 1 = 1 then centered "[N]"
    else plain
  in
  let row wire label =
    label ^ ": " ^ not_column wire
    ^ String.concat "" (List.map (fun g -> gate_cell g wire) cascade)
  in
  let width = List.fold_left (fun acc l -> max acc (String.length l)) 0 labels in
  let padded = List.map (fun l -> l ^ String.make (width - String.length l) ' ') labels in
  String.concat "\n" (List.mapi row padded)

let pp ~qubits ppf cascade =
  Format.pp_print_string ppf (to_ascii ~qubits cascade)
