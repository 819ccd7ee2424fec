type t = {
  qubits : int;
  points : Pattern.t array;
  index : (string, int) Hashtbl.t;
  signatures : int array;
}

let pattern_key p =
  String.init (Pattern.qubits p) (fun w -> Char.chr (Quat.to_int (Pattern.get p w)))

let max_qubits = 10

let of_points ~qubits points =
  let index = Hashtbl.create (2 * Array.length points) in
  Array.iteri (fun i p -> Hashtbl.add index (pattern_key p) i) points;
  { qubits; points; index; signatures = Array.map Pattern.mixed_signature points }

let make ~qubits =
  if qubits < 1 || qubits > max_qubits then invalid_arg "Encoding.make: qubits out of range";
  let everything = Pattern.all ~qubits in
  let binary = List.filter Pattern.is_binary everything in
  let mixed =
    List.filter (fun p -> Pattern.has_one p && not (Pattern.is_binary p)) everything
  in
  (* [Pattern.all] is sorted and [Zero < One], so the binary block is in
     numeric order: point i < 2^qubits is binary code i. *)
  of_points ~qubits (Array.of_list (binary @ mixed))

let make_binary ~qubits =
  if qubits < 1 || qubits > max_qubits then
    invalid_arg "Encoding.make_binary: qubits out of range";
  (* point i is binary code i, as in [make] *)
  of_points ~qubits (Array.init (1 lsl qubits) (Pattern.of_binary_code ~qubits))

let rec power b n = if n = 0 then 1 else b * power b (n - 1)
let points ~qubits = power 4 qubits - power 3 qubits + 1
let qubits e = e.qubits
let size e = Array.length e.points
let num_binary e = 1 lsl e.qubits
let pattern e i = e.points.(i)
let point_of_pattern e p = Hashtbl.find_opt e.index (pattern_key p)
let mixed_signature e i = e.signatures.(i)

let banned_points e ~wire =
  let acc = ref [] in
  for i = size e - 1 downto 0 do
    if e.signatures.(i) land (1 lsl wire) <> 0 then acc := i :: !acc
  done;
  !acc

let image_signature e points =
  List.fold_left (fun s i -> s lor e.signatures.(i)) 0 points

let perm_of_action e action =
  let img =
    Array.map
      (fun p ->
        match point_of_pattern e (action p) with
        | Some j -> j
        | None -> invalid_arg "Encoding.perm_of_action: image leaves the domain")
      e.points
  in
  Permgroup.Perm.of_array img
