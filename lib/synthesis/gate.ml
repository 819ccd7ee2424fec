type kind =
  | Controlled_v
  | Controlled_v_dag
  | Feynman
  | Not
  | Toffoli
  | Swap
  | Fredkin
  | Peres
  | Peres_dag

(* [control2] is the third wire of a 3-wire gate (second Toffoli control,
   second swapped wire of a Fredkin, CNOT target of a Peres) and -1
   elsewhere; [control] is -1 for the control-free NOT.  Keeping one
   flat record preserves cheap structural [equal]/[compare]/
   [Hashtbl.hash] on the hot paths. *)
type t = { kind : kind; target : int; control : int; control2 : int }

let no_wire = -1

let make kind ~target ~control =
  (match kind with
  | Controlled_v | Controlled_v_dag | Feynman | Swap -> ()
  | Not | Toffoli | Fredkin | Peres | Peres_dag ->
      invalid_arg "Gate.make: kind needs make_not/make_toffoli/make_fredkin/make_peres");
  if target < 0 || control < 0 then invalid_arg "Gate.make: negative wire";
  if target = control then invalid_arg "Gate.make: target equals control";
  match kind with
  | Swap ->
      (* order-insensitive: canonicalize so SAB = SBA *)
      { kind; target = min target control; control = max target control;
        control2 = no_wire }
  | _ -> { kind; target; control; control2 = no_wire }

let make_not ~target =
  if target < 0 then invalid_arg "Gate.make_not: negative wire";
  { kind = Not; target; control = no_wire; control2 = no_wire }

let make_toffoli ~target ~controls:(c1, c2) =
  if target < 0 || c1 < 0 || c2 < 0 then invalid_arg "Gate.make_toffoli: negative wire";
  if target = c1 || target = c2 || c1 = c2 then
    invalid_arg "Gate.make_toffoli: wires must be distinct";
  { kind = Toffoli; target; control = min c1 c2; control2 = max c1 c2 }

let make_swap a b = make Swap ~target:a ~control:b

let make_peres ~target ~controls:(a, b) =
  if target < 0 || a < 0 || b < 0 then invalid_arg "Gate.make_peres: negative wire";
  if target = a || target = b || a = b then
    invalid_arg "Gate.make_peres: wires must be distinct";
  { kind = Peres; target; control = a; control2 = b }

let make_fredkin ~targets:(a, b) ~control =
  if a < 0 || b < 0 || control < 0 then invalid_arg "Gate.make_fredkin: negative wire";
  if a = b || a = control || b = control then
    invalid_arg "Gate.make_fredkin: wires must be distinct";
  { kind = Fredkin; target = min a b; control; control2 = max a b }

let all ~qubits =
  let pairs =
    List.concat_map
      (fun target ->
        List.filter_map
          (fun control -> if control <> target then Some (target, control) else None)
          (List.init qubits Fun.id))
      (List.init qubits Fun.id)
  in
  List.concat_map
    (fun kind ->
      List.map (fun (target, control) -> make kind ~target ~control) pairs)
    [ Controlled_v; Controlled_v_dag; Feynman ]

let wires_of qubits = List.init qubits Fun.id

let nots ~qubits = List.map (fun w -> make_not ~target:w) (wires_of qubits)

let cnots ~qubits =
  List.concat_map
    (fun target ->
      List.filter_map
        (fun control ->
          if control <> target then Some (make Feynman ~target ~control) else None)
        (wires_of qubits))
    (wires_of qubits)

let toffolis ~qubits =
  List.concat_map
    (fun target ->
      let others = List.filter (fun w -> w <> target) (wires_of qubits) in
      List.concat_map
        (fun c1 ->
          List.filter_map
            (fun c2 ->
              if c2 > c1 then Some (make_toffoli ~target ~controls:(c1, c2))
              else None)
            others)
        others)
    (wires_of qubits)

let swaps ~qubits =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if b > a then Some (make_swap a b) else None)
        (wires_of qubits))
    (wires_of qubits)

let fredkins ~qubits =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          if b <= a then []
          else
            List.filter_map
              (fun control ->
                if control <> a && control <> b then
                  Some (make_fredkin ~targets:(a, b) ~control)
                else None)
              (wires_of qubits))
        (wires_of qubits))
    (wires_of qubits)

(* every ordered (a, b) control pair: a Peres gate is not symmetric in
   its controls *)
let peres_placements ~qubits =
  List.concat_map
    (fun target ->
      let others = List.filter (fun w -> w <> target) (wires_of qubits) in
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if b <> a then Some (make_peres ~target ~controls:(a, b)) else None)
            others)
        others)
    (wires_of qubits)

let nc ~qubits = nots ~qubits @ cnots ~qubits
let nct ~qubits = nots ~qubits @ cnots ~qubits @ toffolis ~qubits

let nft ~qubits =
  nots ~qubits @ cnots ~qubits @ toffolis ~qubits @ swaps ~qubits
  @ fredkins ~qubits

let ncp ~qubits =
  let peres = peres_placements ~qubits in
  nots ~qubits @ cnots ~qubits @ peres
  @ List.map (fun g -> { g with kind = Peres_dag }) peres

let kind g = g.kind
let target g = g.target
let control g = g.control
let control2 g = g.control2
let equal a b = a = b
let compare = Stdlib.compare

let wires g =
  List.filter (fun w -> w >= 0) [ g.target; g.control; g.control2 ]

let adjoint g =
  match g.kind with
  | Controlled_v -> { g with kind = Controlled_v_dag }
  | Controlled_v_dag -> { g with kind = Controlled_v }
  | Peres -> { g with kind = Peres_dag }
  | Peres_dag -> { g with kind = Peres }
  | Feynman | Not | Toffoli | Swap | Fredkin -> g

let purity_wires g =
  match g.kind with
  | Controlled_v | Controlled_v_dag -> [ g.control ]
  | Feynman -> [ min g.control g.target; max g.control g.target ]
  | Not | Toffoli | Swap | Fredkin | Peres | Peres_dag ->
      List.sort Stdlib.compare (wires g)

let purity_mask g = List.fold_left (fun m w -> m lor (1 lsl w)) 0 (purity_wires g)

let swap_values p a b =
  let open Mvl in
  let va = Pattern.get p a and vb = Pattern.get p b in
  Pattern.set (Pattern.set p a vb) b va

(* [flip_when p ~on w] negates wire [w] when [on] holds and [w] is
   binary (a flip of a mixed value is the don't-care identity). *)
let flip_when p ~on w =
  let open Mvl in
  if on && Quat.is_binary (Pattern.get p w) then
    Pattern.set p w (Quat.not_ (Pattern.get p w))
  else p

let is_one p w = Mvl.Pattern.get p w = Mvl.Quat.One
let toffoli g p = flip_when p ~on:(is_one p g.control && is_one p g.control2) g.target

(* a Peres gate's CNOT: its first control into its second *)
let peres_cnot g p = flip_when p ~on:(is_one p g.control) g.control2

let apply g p =
  let open Mvl in
  match g.kind with
  | Controlled_v ->
      if is_one p g.control then Pattern.set p g.target (Quat.v (Pattern.get p g.target))
      else p
  | Controlled_v_dag ->
      if is_one p g.control then
        Pattern.set p g.target (Quat.v_dag (Pattern.get p g.target))
      else p
  | Feynman -> flip_when p ~on:(is_one p g.control) g.target
  | Not -> flip_when p ~on:true g.target
  | Toffoli -> toffoli g p
  | Peres -> peres_cnot g (toffoli g p)
  | Peres_dag -> toffoli g (peres_cnot g p)
  | Swap -> swap_values p g.target g.control
  | Fredkin -> if is_one p g.control then swap_values p g.target g.control2 else p

(* Classical gates are basis permutations: build their unitary from the
   action on basis codes (qubit 0 = most significant bit, matching
   Gate_matrix's convention). *)
let classical_matrix ~qubits f =
  Qmath.Dmatrix.permutation_matrix (Array.init (1 lsl qubits) f)

let bit_of ~qubits code w = (code lsr (qubits - 1 - w)) land 1
let flip_bit ~qubits code w = code lxor (1 lsl (qubits - 1 - w))

let matrix ~qubits g =
  let open Qmath in
  match g.kind with
  | Controlled_v -> Gate_matrix.controlled_v ~qubits ~control:g.control ~target:g.target
  | Controlled_v_dag ->
      Gate_matrix.controlled_v_dag ~qubits ~control:g.control ~target:g.target
  | Feynman -> Gate_matrix.feynman ~qubits ~control:g.control ~target:g.target
  | Not -> Gate_matrix.not_on ~qubits ~wire:g.target
  | Toffoli ->
      classical_matrix ~qubits (fun code ->
          if bit_of ~qubits code g.control = 1 && bit_of ~qubits code g.control2 = 1
          then flip_bit ~qubits code g.target
          else code)
  | Swap ->
      classical_matrix ~qubits (fun code ->
          let a = bit_of ~qubits code g.target and b = bit_of ~qubits code g.control in
          if a = b then code
          else flip_bit ~qubits (flip_bit ~qubits code g.target) g.control)
  | Fredkin ->
      classical_matrix ~qubits (fun code ->
          if bit_of ~qubits code g.control = 1 then begin
            let a = bit_of ~qubits code g.target
            and b = bit_of ~qubits code g.control2 in
            if a = b then code
            else flip_bit ~qubits (flip_bit ~qubits code g.target) g.control2
          end
          else code)
  | Peres | Peres_dag ->
      classical_matrix ~qubits (fun code ->
          let a = bit_of ~qubits code g.control in
          let b = bit_of ~qubits code g.control2 in
          (* the Toffoli sees the second control before the CNOT flips it
             (Peres) or after (inverse) *)
          let b_seen = if g.kind = Peres then b else b lxor a in
          let code =
            if a = 1 && b_seen = 1 then flip_bit ~qubits code g.target else code
          in
          if a = 1 then flip_bit ~qubits code g.control2 else code)

let wire_letter w =
  if w < 0 || w > 25 then invalid_arg "Gate.wire_letter: wire out of range";
  Char.chr (Char.code 'A' + w)

(* A gate's name is a kind prefix and its wire letters: target then
   control for the two-wire kinds, target, control, second control for
   Toffoli and Peres, both targets then the control for Fredkin. *)
let add_wire b w = Buffer.add_char b (wire_letter w)

let write_name b g =
  (match g.kind with
  | Controlled_v -> Buffer.add_char b 'V'
  | Controlled_v_dag -> Buffer.add_string b "V+"
  | Feynman -> Buffer.add_char b 'F'
  | Swap -> Buffer.add_char b 'S'
  | Not -> Buffer.add_char b 'N'
  | Toffoli -> Buffer.add_char b 'T'
  | Fredkin -> Buffer.add_string b "FR"
  | Peres -> Buffer.add_char b 'P'
  | Peres_dag -> Buffer.add_string b "P+");
  add_wire b g.target;
  match g.kind with
  | Not -> ()
  | Controlled_v | Controlled_v_dag | Feynman | Swap -> add_wire b g.control
  | Toffoli | Peres | Peres_dag ->
      add_wire b g.control;
      add_wire b g.control2
  | Fredkin ->
      add_wire b g.control2;
      add_wire b g.control

let name g =
  let b = Buffer.create 5 in
  write_name b g;
  Buffer.contents b

let of_name ~qubits s =
  let fail () = invalid_arg ("Gate.of_name: cannot parse " ^ s) in
  let s = String.uppercase_ascii (String.trim s) in
  let has_prefix p = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  let wire c =
    let w = Char.code c - Char.code 'A' in
    if w < 0 || w >= qubits then fail ();
    w
  in
  (* longest prefixes first: "V+" before "V", "FR" before "F", "P+"
     before "P" *)
  if has_prefix "V+" then begin
    let rest = after "V+" in
    if String.length rest <> 2 then fail ();
    make Controlled_v_dag ~target:(wire rest.[0]) ~control:(wire rest.[1])
  end
  else if has_prefix "FR" then begin
    let rest = after "FR" in
    if String.length rest <> 3 then fail ();
    make_fredkin ~targets:(wire rest.[0], wire rest.[1]) ~control:(wire rest.[2])
  end
  else if has_prefix "P+" then begin
    let rest = after "P+" in
    if String.length rest <> 3 then fail ();
    adjoint (make_peres ~target:(wire rest.[0]) ~controls:(wire rest.[1], wire rest.[2]))
  end
  else if has_prefix "P" then begin
    let rest = after "P" in
    if String.length rest <> 3 then fail ();
    make_peres ~target:(wire rest.[0]) ~controls:(wire rest.[1], wire rest.[2])
  end
  else if has_prefix "V" then begin
    let rest = after "V" in
    if String.length rest <> 2 then fail ();
    make Controlled_v ~target:(wire rest.[0]) ~control:(wire rest.[1])
  end
  else if has_prefix "F" then begin
    let rest = after "F" in
    if String.length rest <> 2 then fail ();
    make Feynman ~target:(wire rest.[0]) ~control:(wire rest.[1])
  end
  else if has_prefix "N" then begin
    let rest = after "N" in
    if String.length rest <> 1 then fail ();
    make_not ~target:(wire rest.[0])
  end
  else if has_prefix "T" then begin
    let rest = after "T" in
    if String.length rest <> 3 then fail ();
    make_toffoli ~target:(wire rest.[0]) ~controls:(wire rest.[1], wire rest.[2])
  end
  else if has_prefix "S" then begin
    let rest = after "S" in
    if String.length rest <> 2 then fail ();
    make_swap (wire rest.[0]) (wire rest.[1])
  end
  else fail ()

let pp ppf g = Format.pp_print_string ppf (name g)
