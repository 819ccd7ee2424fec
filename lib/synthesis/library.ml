open Mvl

type entry = {
  gate : Gate.t;
  perm : Permgroup.Perm.t;
  perm_array : int array;
  inverse_array : int array;
  purity_mask : int;
}

type t = {
  name : string;
  encoding : Encoding.t;
  entries : entry array;
  by_gate : (Gate.t, int) Hashtbl.t;
  coset_reduction : bool;
}

let default_name = "paper18"

let compile encoding gate =
  let qubits = Encoding.qubits encoding in
  if List.exists (fun w -> w >= qubits) (Gate.wires gate) then
    invalid_arg "Library.make: gate wire outside the encoding";
  let perm = Encoding.perm_of_action encoding (Gate.apply gate) in
  {
    gate;
    perm;
    perm_array = Permgroup.Perm.to_array perm;
    inverse_array = Permgroup.Perm.to_array (Permgroup.Perm.inverse perm);
    purity_mask = Gate.purity_mask gate;
  }

let make ?(name = default_name) ?(coset_reduction = true) ?gates encoding =
  let gates =
    match gates with Some gs -> gs | None -> Gate.all ~qubits:(Encoding.qubits encoding)
  in
  let entries = Array.of_list (List.map (compile encoding) gates) in
  (* index into [entries] rather than the entry itself, so entry rewrites
     ([unconstrained]) keep the table valid *)
  let by_gate = Hashtbl.create (2 * Array.length entries) in
  Array.iteri (fun i e -> Hashtbl.replace by_gate e.gate i) entries;
  { name; encoding; entries; by_gate; coset_reduction }

let max_key_points = 255
let byte_keys encoding = Encoding.size encoding <= max_key_points
let name t = t.name
let encoding t = t.encoding
let entries t = t.entries
let qubits t = Encoding.qubits t.encoding
let size t = Array.length t.entries
let coset_reduction t = t.coset_reduction

let entry_of_gate t g =
  match Hashtbl.find_opt t.by_gate g with
  | Some i -> t.entries.(i)
  | None -> raise Not_found

let perm_of_gate t g = (entry_of_gate t g).perm
let signature_allows ~signature entry = signature land entry.purity_mask = 0

let banned_set t g =
  let entry = entry_of_gate t g in
  let acc = ref [] in
  for point = Encoding.size t.encoding - 1 downto 0 do
    if Encoding.mixed_signature t.encoding point land entry.purity_mask <> 0 then
      acc := point :: !acc
  done;
  !acc

let unconstrained t =
  { t with entries = Array.map (fun e -> { e with purity_mask = 0 }) t.entries }

let feynman_only t =
  let gates =
    Array.to_list t.entries
    |> List.filter_map (fun e ->
           match Gate.kind e.gate with Gate.Feynman -> Some e.gate | _ -> None)
  in
  make ~name:t.name ~coset_reduction:t.coset_reduction ~gates t.encoding

module Registry = struct
  type descriptor = {
    name : string;
    summary : string;
    gates : qubits:int -> Gate.t list;
    encoding : qubits:int -> Encoding.t;
    points : qubits:int -> int; (* the encoding's size, without building it *)
    coset_reduction : bool;
  }

  let name d = d.name
  let summary d = d.summary
  let coset_reduction d = d.coset_reduction

  let paper18 =
    {
      name = default_name;
      summary =
        "CV/CV+/CNOT quantum library of the paper (mixed-pattern encoding, \
         free NOT layer)";
      gates = (fun ~qubits -> Gate.all ~qubits);
      encoding = (fun ~qubits -> Encoding.make ~qubits);
      points = Encoding.points;
      coset_reduction = true;
    }

  let nct =
    {
      name = "nct";
      summary =
        "classical NCT library: NOT, CNOT, Toffoli (binary encoding)";
      gates = (fun ~qubits -> Gate.nct ~qubits);
      encoding = (fun ~qubits -> Encoding.make_binary ~qubits);
      points = (fun ~qubits -> 1 lsl qubits);
      coset_reduction = false;
    }

  let nft =
    {
      name = "nft";
      summary =
        "classical NFT library of Younes, arXiv:1304.5804: generalized \
         Toffoli + generalized Fredkin families (binary encoding)";
      gates = (fun ~qubits -> Gate.nft ~qubits);
      encoding = (fun ~qubits -> Encoding.make_binary ~qubits);
      points = (fun ~qubits -> 1 lsl qubits);
      coset_reduction = false;
    }

  let nc =
    {
      name = "nc";
      summary = "classical NOT + CNOT library: the affine-linear functions (binary encoding)";
      gates = (fun ~qubits -> Gate.nc ~qubits);
      encoding = (fun ~qubits -> Encoding.make_binary ~qubits);
      points = (fun ~qubits -> 1 lsl qubits);
      coset_reduction = false;
    }

  let ncp =
    {
      name = "ncp";
      summary =
        "classical NOT, CNOT, Peres and inverse Peres library of the paper's \
         conclusion (binary encoding)";
      gates = (fun ~qubits -> Gate.ncp ~qubits);
      encoding = (fun ~qubits -> Encoding.make_binary ~qubits);
      points = (fun ~qubits -> 1 lsl qubits);
      coset_reduction = false;
    }

  let all = [ paper18; nct; nft; nc; ncp ]
  let names = List.map (fun d -> d.name) all
  let find n = List.find_opt (fun d -> String.equal d.name n) all

  let compile d encoding =
    make ~name:d.name ~coset_reduction:d.coset_reduction
      ~gates:(d.gates ~qubits:(Encoding.qubits encoding))
      encoding

  let instantiate ?(qubits = 3) d = compile d (d.encoding ~qubits)
end

let descriptor n =
  match Registry.find n with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "Library.of_name: unknown library %S (known: %s)" n
           (String.concat ", " Registry.names))

let of_name ?qubits n = Registry.instantiate ?qubits (descriptor n)

(* The point count is checked before the encoding is built: paper18's
   has 4^n patterns to enumerate, 1,048,576 at ten wires. *)
let searchable ~qubits n =
  let d = descriptor n in
  let fits q = d.points ~qubits:q <= max_key_points in
  if fits qubits then Ok (Registry.compile d (d.encoding ~qubits))
  else
    let rec widest q = if fits (q + 1) then widest (q + 1) else q in
    Error
      (Printf.sprintf
         "library %s is searchable up to %d qubits (a search stores one encoding point a \
          key byte); %d qubits is too wide"
         n (widest 1) qubits)
