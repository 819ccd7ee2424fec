open Synthesis

type t = {
  library : Library.t;
  cascade : Cascade.t;
  perm : Permgroup.Perm.t;
}

let of_cascade library cascade =
  if not (Cascade.is_reasonable library cascade) then
    invalid_arg "Prob_circuit.of_cascade: cascade violates the reasonable product";
  { library; cascade; perm = Cascade.perm_of library cascade }

let cascade t = t.cascade
let qubits t = Library.qubits t.library

let output_pattern t ~input =
  let encoding = Library.encoding t.library in
  if input < 0 || input >= Mvl.Encoding.num_binary encoding then
    invalid_arg "Prob_circuit.output_pattern: input out of range";
  Mvl.Encoding.pattern encoding (Permgroup.Perm.apply t.perm input)

let output_distribution t ~input = Measurement.distribution (output_pattern t ~input)

let is_deterministic t =
  let nb = Mvl.Encoding.num_binary (Library.encoding t.library) in
  let rec go input =
    input >= nb
    || (Mvl.Pattern.is_binary (output_pattern t ~input) && go (input + 1))
  in
  go 0

let entropy_bits t ~input = Measurement.entropy_bits (output_pattern t ~input)

type spec = Mvl.Pattern.t array

let point_spec library spec =
  let encoding = Library.encoding library in
  let nb = Mvl.Encoding.num_binary encoding in
  if Array.length spec <> nb then invalid_arg "Prob_circuit.synthesize: spec arity";
  let points =
    Array.map
      (fun pattern ->
        match Mvl.Encoding.point_of_pattern encoding pattern with
        | Some point -> point
        | None -> invalid_arg "Prob_circuit.synthesize: pattern outside the domain")
      spec
  in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun point ->
      if Hashtbl.mem seen point then
        invalid_arg "Prob_circuit.synthesize: repeated output pattern";
      Hashtbl.add seen point ())
    points;
  points

let synthesize ?(max_depth = 7) library spec =
  let points = point_spec library spec in
  (* the spec is one exact image: look it up after each level *)
  let target = String.init (Array.length points) (fun i -> Char.chr points.(i)) in
  let search = Search.create library in
  let rec run () =
    match Search.handle_of_key search target with
    | Some h -> Some (of_cascade library (Search.cascade_of_handle search h))
    | None -> (
        if Search.depth search >= max_depth then None
        else
          match Search.try_step search ~cancel:(fun () -> false) with
          | Some fresh when fresh > 0 -> run ()
          | Some _ | None -> None)
  in
  run ()

let spec_of_strings library rows =
  let qubits = Library.qubits library in
  let parse_row row =
    let row = String.trim row in
    let values =
      if String.contains row ',' then
        List.map Mvl.Quat.of_string
          (List.map String.trim (String.split_on_char ',' row))
      else begin
        (* Concatenated form: "0", "1" or "V0"/"V1" tokens. *)
        let rec scan i acc =
          if i >= String.length row then List.rev acc
          else if row.[i] = 'V' || row.[i] = 'v' then begin
            if i + 1 >= String.length row then
              invalid_arg "Prob_circuit.spec_of_strings: dangling V";
            scan (i + 2) (Mvl.Quat.of_string (String.sub row i 2) :: acc)
          end
          else scan (i + 1) (Mvl.Quat.of_string (String.make 1 row.[i]) :: acc)
        in
        scan 0 []
      end
    in
    if List.length values <> qubits then
      invalid_arg "Prob_circuit.spec_of_strings: wrong pattern width";
    Mvl.Pattern.of_list values
  in
  Array.of_list (List.map parse_row rows)

let controlled_coin library =
  of_cascade library [ Gate.make Gate.Controlled_v ~target:2 ~control:0 ]
