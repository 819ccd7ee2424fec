open Permgroup

type t = Gate.t list

let cost = List.length
let adjoint cascade = List.rev_map Gate.adjoint cascade

let swap_v_dag cascade = List.map Gate.adjoint cascade
(* [Gate.adjoint] swaps V and V+ and keeps Feynman; without reversal this
   is exactly the paper's V <-> V+ exchange. *)

let perm_of library cascade =
  let degree = Mvl.Encoding.size (Library.encoding library) in
  List.fold_left
    (fun acc g -> Perm.mul acc (Library.entry_of_gate library g).Library.perm)
    (Perm.identity degree) cascade

let is_reasonable library cascade =
  let encoding = Library.encoding library in
  let nb = Mvl.Encoding.num_binary encoding in
  let degree = Mvl.Encoding.size encoding in
  let rec go acc = function
    | [] -> true
    | g :: rest ->
        let entry = Library.entry_of_gate library g in
        let signature =
          Mvl.Encoding.image_signature encoding (List.init nb (Perm.apply acc))
        in
        Library.signature_allows ~signature entry
        && go (Perm.mul acc entry.Library.perm) rest
  in
  go (Perm.identity degree) cascade

let restriction library cascade =
  let encoding = Library.encoding library in
  let nb = Mvl.Encoding.num_binary encoding in
  match Restricted.restrict_prefix (perm_of library cascade) nb with
  | Some p -> Some (Reversible.Revfun.of_perm ~bits:(Mvl.Encoding.qubits encoding) p)
  | None -> None

let matrices ~qubits cascade = List.map (Gate.matrix ~qubits) cascade
let unitary ~qubits cascade = Qsim.Circuit_sim.unitary_of_cascade ~qubits (matrices ~qubits cascade)

let write b = function
  | [] -> Buffer.add_string b "()"
  | g :: rest ->
      Gate.write_name b g;
      List.iter
        (fun g ->
          Buffer.add_char b '*';
          Gate.write_name b g)
        rest

let to_string cascade =
  let b = Buffer.create 32 in
  write b cascade;
  Buffer.contents b

let of_string ~qubits s =
  let s = String.trim s in
  if s = "()" || s = "" then []
  else
    String.split_on_char '*' s |> List.map (fun part -> Gate.of_name ~qubits part)

let pp ppf cascade = Format.pp_print_string ppf (to_string cascade)
let equal a b = List.length a = List.length b && List.for_all2 Gate.equal a b
