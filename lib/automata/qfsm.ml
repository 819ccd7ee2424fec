open Qsim

type t = {
  circuit : Prob_circuit.t;
  state_wires : int array;
  input_wires : int array;
  obs_wires : int array;
}

let make ~circuit ~state_wires ~input_wires ~obs_wires =
  let qubits = Prob_circuit.qubits circuit in
  let all = state_wires @ input_wires @ obs_wires in
  if state_wires = [] then invalid_arg "Qfsm.make: no state wires";
  if List.exists (fun w -> w < 0 || w >= qubits) all then
    invalid_arg "Qfsm.make: wire out of range";
  let sorted = List.sort Int.compare (state_wires @ input_wires) in
  let rec has_dup = function
    | a :: (b :: _ as rest) -> a = b || has_dup rest
    | _ -> false
  in
  (* Observation wires may coincide with state wires (observing the state
     register is legal) but state and input wires must be disjoint. *)
  if has_dup sorted then invalid_arg "Qfsm.make: overlapping wires";
  {
    circuit;
    state_wires = Array.of_list state_wires;
    input_wires = Array.of_list input_wires;
    obs_wires = Array.of_list obs_wires;
  }

let circuit t = t.circuit
let state_wires t = Array.copy t.state_wires
let input_wires t = Array.copy t.input_wires
let obs_wires t = Array.copy t.obs_wires
let num_states t = 1 lsl Array.length t.state_wires
let num_inputs t = 1 lsl Array.length t.input_wires
let num_obs t = 1 lsl Array.length t.obs_wires

(* Assemble the circuit's binary input code from register values: bit j of
   [value] goes to wire [wires.(j)] (wire 0 = MSB of the circuit code). *)
let assemble t ~input ~state =
  let qubits = Prob_circuit.qubits t.circuit in
  let code = ref 0 in
  let place wires value =
    Array.iteri
      (fun j w ->
        let bit = (value lsr (Array.length wires - 1 - j)) land 1 in
        if bit = 1 then code := !code lor (1 lsl (qubits - 1 - w)))
      wires
  in
  place t.state_wires state;
  place t.input_wires input;
  !code

(* Exact marginal over a wire set of the measured output pattern: wires of
   a product state measure independently. *)
let marginal pattern wires value =
  let n = Array.length wires in
  let acc = ref Prob.one in
  for j = 0 to n - 1 do
    let p0, p1 = Measurement.wire_distribution (Mvl.Pattern.get pattern wires.(j)) in
    let bit = (value lsr (n - 1 - j)) land 1 in
    acc := Prob.mul !acc (if bit = 1 then p1 else p0)
  done;
  !acc

let output_pattern t ~input ~state =
  Prob_circuit.output_pattern t.circuit ~input:(assemble t ~input ~state)

let transition_row t ~input ~state =
  let pattern = output_pattern t ~input ~state in
  Array.init (num_states t) (marginal pattern t.state_wires)

let transition_matrix t ~input =
  Array.init (num_states t) (fun state -> transition_row t ~input ~state)

let step t ~input dist =
  let n = num_states t in
  if Array.length dist <> n then invalid_arg "Qfsm.step: distribution arity";
  let next = Array.make n Prob.zero in
  for state = 0 to n - 1 do
    if not (Prob.is_zero dist.(state)) then begin
      let row = transition_row t ~input ~state in
      for s' = 0 to n - 1 do
        next.(s') <- Prob.add next.(s') (Prob.mul dist.(state) row.(s'))
      done
    end
  done;
  next

let run t ~inputs dist = List.fold_left (fun d input -> step t ~input d) dist inputs
