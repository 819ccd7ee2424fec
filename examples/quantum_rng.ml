(* Reproduction of the paper's Section 4: probabilistic circuits, a
   controlled quantum random number generator, and quantum-realized
   probabilistic state machines — all with exact dyadic probabilities.

   Run with: dune exec examples/quantum_rng.exe *)

open Synthesis
open Automata

let () =
  let library = Library.make (Mvl.Encoding.make ~qubits:3) in

  (* 1. Controlled coin: V_CA makes wire C a fair coin when A = 1. *)
  let coin = Prob_circuit.controlled_coin library in
  Format.printf "controlled coin (cascade %a):@." Cascade.pp (Prob_circuit.cascade coin);
  List.iter
    (fun input ->
      let pattern = Prob_circuit.output_pattern coin ~input in
      Format.printf "  input %d -> %a, entropy %.1f bits@." input Mvl.Pattern.pp pattern
        (Prob_circuit.entropy_bits coin ~input))
    [ 0; 4; 6 ];

  (* 2. Synthesize a probabilistic circuit from a quaternary spec: a
     two-coin generator -- when A = 1, both B and C become fair coins;
     when A = 0, everything is deterministic. *)
  let spec =
    Prob_circuit.spec_of_strings library
      [ "000"; "001"; "010"; "011"; "1V0V0"; "1V0V1"; "1V1V0"; "1V1V1" ]
  in
  (match Prob_circuit.synthesize library spec with
  | Some circuit ->
      Format.printf "@.two-coin generator synthesized: %a (cost %d)@." Cascade.pp
        (Prob_circuit.cascade circuit)
        (Cascade.cost (Prob_circuit.cascade circuit));
      let dist = Prob_circuit.output_distribution circuit ~input:4 in
      Format.printf "  input 4 measurement distribution:";
      Array.iteri
        (fun code p ->
          if not (Qsim.Prob.is_zero p) then Format.printf " %d:%a" code Qsim.Prob.pp p)
        dist;
      Format.printf "@."
  | None -> Format.printf "@.two-coin generator: no realization within depth@.");

  (* 3. A probabilistic state machine (paper Figure 3): wire A is the
     1-bit state register, wire B the external input, wire C is observed.
     Logic V_CA*V_AB: the observed wire becomes a fair coin while the
     state is 1, and an input of 1 randomizes the state (a quantum
     random walk driven by measurement). *)
  let machine =
    Qfsm.make
      ~circuit:(Prob_circuit.of_cascade library (Cascade.of_string ~qubits:3 "VCA*VAB"))
      ~state_wires:[ 0 ] ~input_wires:[ 1 ] ~obs_wires:[ 2 ]
  in
  Format.printf "@.machine: state=A, input=B, observed=C, logic V_CA*V_AB@.";
  List.iter
    (fun input ->
      Array.iteri
        (fun state row ->
          Format.printf "  input %d, state %d -> next-state distribution:" input state;
          Array.iteri (fun s' p -> Format.printf " %d:%a" s' Qsim.Prob.pp p) row;
          Format.printf "@.")
        (Qfsm.transition_matrix machine ~input))
    [ 0; 1 ];

  (* 4. Synthesis from behaviour examples (the paper's Section 6 program):
     specify only what an observer measures — '?' is a fair coin, '*' a
     don't-care — and search for the cheapest circuit consistent with it. *)
  let behaviour =
    Behavior.of_strings library
      [ "000"; "001"; "010"; "011"; "1??"; "***"; "***"; "***" ]
  in
  Format.printf "@.behavioural spec (observer's view):@.%a" Behavior.pp behaviour;
  match Behavior.synthesize library behaviour with
  | Some circuit ->
      Format.printf "cheapest consistent circuit: %a (cost %d)@." Cascade.pp
        (Prob_circuit.cascade circuit)
        (Cascade.cost (Prob_circuit.cascade circuit));
      Format.printf "its full observable behaviour:@.%a" Behavior.pp
        (Behavior.observe circuit)
  | None -> Format.printf "no circuit matches the behaviour@."
