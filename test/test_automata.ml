(* Tests for the automata library: measurement, probabilistic circuits,
   quantum state machines and behaviour specifications. *)

open Automata
open Qsim

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let prob = Alcotest.testable Prob.pp Prob.equal

let qcheck_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let quat_gen = QCheck2.Gen.(map Mvl.Quat.of_int (int_range 0 3))

let pattern_gen qubits =
  QCheck2.Gen.(map Mvl.Pattern.of_list (list_repeat qubits quat_gen))

let library3 = Synthesis.Library.make (Mvl.Encoding.make ~qubits:3)

(* The synthesizers return the first match of the shallowest level in
   the search's canonical order, and its backward-step witness: the
   exact cascade is pinned, not only its cost. *)
let cascade_string circuit = Synthesis.Cascade.to_string (Prob_circuit.cascade circuit)

(* Measurement *)

let test_wire_distribution () =
  let p0, p1 = Measurement.wire_distribution Mvl.Quat.V0 in
  check prob "V0 -> 0 w.p. 1/2" Prob.half p0;
  check prob "V0 -> 1 w.p. 1/2" Prob.half p1;
  let p0, p1 = Measurement.wire_distribution Mvl.Quat.One in
  check prob "1 -> 0 never" Prob.zero p0;
  check prob "1 -> 1 surely" Prob.one p1

let test_binary_pattern_deterministic () =
  let p = Mvl.Pattern.of_binary_code ~qubits:3 5 in
  check prob "its own code" Prob.one (Measurement.code_probability p 5);
  check prob "other codes" Prob.zero (Measurement.code_probability p 4);
  checkb "deterministic" true (Measurement.is_deterministic p)

let test_mixed_distribution () =
  let p = Mvl.Pattern.of_list [ Mvl.Quat.One; Mvl.Quat.V0; Mvl.Quat.V1 ] in
  let support = Measurement.support p in
  check Alcotest.int "4 outcomes" 4 (List.length support);
  List.iter (fun (_, pr) -> check prob "quarter each" (Prob.make 1 2) pr) support;
  checkb "all codes have the A bit set" true
    (List.for_all (fun (code, _) -> code land 4 <> 0) support);
  check (Alcotest.float 1e-9) "entropy 2 bits" 2.0 (Measurement.entropy_bits p)

let measurement_props =
  [
    qcheck_test "distribution sums to one" (pattern_gen 3) (fun p ->
        Prob.equal (Prob.sum (Array.to_list (Measurement.distribution p))) Prob.one);
    qcheck_test "support consistent with distribution" (pattern_gen 2) (fun p ->
        let dist = Measurement.distribution p in
        List.for_all (fun (code, pr) -> Prob.equal dist.(code) pr) (Measurement.support p));
    qcheck_test "measurement agrees with state vector" (pattern_gen 2) (fun p ->
        (* The MV-level measurement distribution equals the one computed
           from the exact quantum state. *)
        let state = State.of_pattern p in
        let dist = Measurement.distribution p in
        Array.for_all Fun.id
          (Array.mapi (fun code pr -> Prob.equal (State.basis_probability state code) pr) dist));
  ]

(* Prob_circuit *)

let test_controlled_coin () =
  let coin = Prob_circuit.controlled_coin library3 in
  checkb "not deterministic" false (Prob_circuit.is_deterministic coin);
  check (Alcotest.float 1e-9) "armed input entropy" 1.0
    (Prob_circuit.entropy_bits coin ~input:4);
  check (Alcotest.float 1e-9) "disarmed input entropy" 0.0
    (Prob_circuit.entropy_bits coin ~input:0);
  let dist = Prob_circuit.output_distribution coin ~input:4 in
  check prob "code 4" Prob.half dist.(4);
  check prob "code 5" Prob.half dist.(5)

let test_deterministic_circuit () =
  let c =
    Prob_circuit.of_cascade library3 (Synthesis.Cascade.of_string ~qubits:3 "FBA*FCA")
  in
  checkb "deterministic" true (Prob_circuit.is_deterministic c)

let test_of_cascade_rejects_unreasonable () =
  Alcotest.check_raises "unreasonable"
    (Invalid_argument "Prob_circuit.of_cascade: cascade violates the reasonable product")
    (fun () ->
      ignore
        (Prob_circuit.of_cascade library3 (Synthesis.Cascade.of_string ~qubits:3 "VBA*FBA")))

let test_synthesize_two_coin () =
  let spec =
    Prob_circuit.spec_of_strings library3
      [ "000"; "001"; "010"; "011"; "1V0V0"; "1V0V1"; "1V1V0"; "1V1V1" ]
  in
  match Prob_circuit.synthesize library3 spec with
  | Some circuit ->
      check Alcotest.int "cost 2" 2 (Synthesis.Cascade.cost (Prob_circuit.cascade circuit));
      check Alcotest.string "cascade" "VCA*VBA" (cascade_string circuit);
      (* The synthesized circuit matches the spec on every input. *)
      Array.iteri
        (fun input expected ->
          checkb "matches spec" true
            (Mvl.Pattern.equal (Prob_circuit.output_pattern circuit ~input) expected))
        spec
  | None -> Alcotest.fail "spec is realizable"

let test_synthesize_deterministic_spec () =
  (* The identity spec synthesizes to the empty cascade. *)
  let spec =
    Array.init 8 (fun code -> Mvl.Pattern.of_binary_code ~qubits:3 code)
  in
  match Prob_circuit.synthesize library3 spec with
  | Some circuit ->
      check Alcotest.int "cost 0" 0 (Synthesis.Cascade.cost (Prob_circuit.cascade circuit));
      check Alcotest.string "cascade" "()" (cascade_string circuit)
  | None -> Alcotest.fail "identity spec realizable"

let test_spec_errors () =
  checkb "repeated output" true
    (match
       Prob_circuit.synthesize library3
         (Array.make 8 (Mvl.Pattern.of_binary_code ~qubits:3 0))
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad arity" true
    (match Prob_circuit.spec_of_strings library3 [ "000" ] with
    | spec -> (
        match Prob_circuit.synthesize library3 spec with
        | exception Invalid_argument _ -> true
        | _ -> false));
  checkb "bad pattern width" true
    (match Prob_circuit.spec_of_strings library3 [ "0000" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_spec_of_strings_forms () =
  let spec = Prob_circuit.spec_of_strings library3 [ "1,V0,0" ] in
  checkb "comma form" true
    (Mvl.Pattern.equal spec.(0)
       (Mvl.Pattern.of_list [ Mvl.Quat.One; Mvl.Quat.V0; Mvl.Quat.Zero ]));
  let spec2 = Prob_circuit.spec_of_strings library3 [ "1V00" ] in
  checkb "concatenated form" true (Mvl.Pattern.equal spec2.(0) spec.(0))

(* Qfsm *)

let walk_machine =
  Qfsm.make
    ~circuit:
      (Prob_circuit.of_cascade library3 (Synthesis.Cascade.of_string ~qubits:3 "VCA*VAB"))
    ~state_wires:[ 0 ] ~input_wires:[ 1 ] ~obs_wires:[ 2 ]

let test_qfsm_sizes () =
  check Alcotest.int "states" 2 (Qfsm.num_states walk_machine);
  check Alcotest.int "inputs" 2 (Qfsm.num_inputs walk_machine);
  check Alcotest.int "obs" 2 (Qfsm.num_obs walk_machine)

let test_qfsm_transitions () =
  (* input 0: state persists; input 1: uniform next state. *)
  let m0 = Qfsm.transition_matrix walk_machine ~input:0 in
  check prob "0 stays" Prob.one m0.(0).(0);
  check prob "1 stays" Prob.one m0.(1).(1);
  let m1 = Qfsm.transition_matrix walk_machine ~input:1 in
  Array.iter (fun row -> Array.iter (fun p -> check prob "uniform" Prob.half p) row) m1

let test_qfsm_rows_stochastic () =
  List.iter
    (fun input ->
      Array.iter
        (fun row -> check prob "row sums to 1" Prob.one (Prob.sum (Array.to_list row)))
        (Qfsm.transition_matrix walk_machine ~input))
    [ 0; 1 ]

let test_qfsm_step () =
  let start = [| Prob.one; Prob.zero |] in
  let after = Qfsm.step walk_machine ~input:1 start in
  check prob "randomized" Prob.half after.(0);
  check prob "randomized" Prob.half after.(1);
  let stay = Qfsm.run walk_machine ~inputs:[ 0; 0; 0 ] start in
  check prob "deterministic run" Prob.one stay.(0)

let test_qfsm_errors () =
  Alcotest.check_raises "overlap" (Invalid_argument "Qfsm.make: overlapping wires")
    (fun () ->
      ignore
        (Qfsm.make
           ~circuit:(Prob_circuit.controlled_coin library3)
           ~state_wires:[ 0 ] ~input_wires:[ 0 ] ~obs_wires:[]));
  Alcotest.check_raises "no state" (Invalid_argument "Qfsm.make: no state wires")
    (fun () ->
      ignore
        (Qfsm.make
           ~circuit:(Prob_circuit.controlled_coin library3)
           ~state_wires:[] ~input_wires:[ 0 ] ~obs_wires:[]))

(* Behavior *)

let test_behavior_parse () =
  let spec =
    Behavior.of_strings library3 [ "000"; "001"; "010"; "011"; "1??"; "1?*"; "1??"; "1??" ]
  in
  check Alcotest.int "rows" 8 (Array.length spec);
  checkb "coin parsed" true (spec.(4).(1) = Behavior.Coin);
  checkb "any parsed" true (spec.(5).(2) = Behavior.Any);
  checkb "bad char" true
    (match Behavior.of_strings library3 (List.init 8 (fun _ -> "0x0")) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad width" true
    (match Behavior.of_strings library3 (List.init 8 (fun _ -> "00")) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_behavior_matches () =
  let spec = Behavior.of_strings library3 (List.init 8 (fun _ -> "1?*")) in
  let p v = Mvl.Pattern.of_list [ Mvl.Quat.One; v; Mvl.Quat.V0 ] in
  checkb "coin accepts V0" true (Behavior.matches spec ~input:0 (p Mvl.Quat.V0));
  checkb "coin accepts V1" true (Behavior.matches spec ~input:0 (p Mvl.Quat.V1));
  checkb "coin rejects 0" false (Behavior.matches spec ~input:0 (p Mvl.Quat.Zero));
  checkb "one rejects zero" false
    (Behavior.matches spec ~input:0
       (Mvl.Pattern.of_list [ Mvl.Quat.Zero; Mvl.Quat.V0; Mvl.Quat.Zero ]))

let test_behavior_synthesize () =
  (* Observable spec of the two-coin generator: both B and C behave as
     coins when A = 1.  Weaker than the exact pattern spec, same minimal
     cost. *)
  let spec =
    Behavior.of_strings library3
      [ "000"; "001"; "010"; "011"; "1??"; "1??"; "1??"; "1??" ]
  in
  match Behavior.synthesize library3 spec with
  | Some circuit ->
      check Alcotest.int "cost 2" 2
        (Synthesis.Cascade.cost (Prob_circuit.cascade circuit));
      check Alcotest.string "cascade" "V+CA*V+BA" (cascade_string circuit);
      checkb "satisfied" true (Behavior.satisfied_by spec circuit)
  | None -> Alcotest.fail "behaviour realizable"

let test_behavior_dont_cares_help () =
  (* With don't-cares on half the inputs, a cheaper circuit suffices than
     for the fully specified behaviour. *)
  let strict =
    Behavior.of_strings library3
      [ "000"; "001"; "010"; "011"; "10?"; "10?"; "11?"; "11?" ]
  in
  let relaxed =
    Behavior.of_strings library3
      [ "000"; "***"; "***"; "***"; "10?"; "***"; "***"; "***" ]
  in
  match (Behavior.synthesize library3 strict, Behavior.synthesize library3 relaxed) with
  | Some s, Some r ->
      check Alcotest.string "strict cascade" "V+CA" (cascade_string s);
      check Alcotest.string "relaxed cascade" "V+CA" (cascade_string r);
      checkb "relaxed not costlier" true
        (Synthesis.Cascade.cost (Prob_circuit.cascade r)
        <= Synthesis.Cascade.cost (Prob_circuit.cascade s))
  | _ -> Alcotest.fail "both realizable"

let test_behavior_observe_roundtrip () =
  let coin = Prob_circuit.controlled_coin library3 in
  let observed = Behavior.observe coin in
  checkb "circuit satisfies its own behaviour" true (Behavior.satisfied_by observed coin);
  (* observing contains no Any *)
  checkb "no Any" true
    (Array.for_all (Array.for_all (fun b -> b <> Behavior.Any)) observed);
  (* re-synthesis from the observed behaviour costs no more *)
  match Behavior.synthesize library3 observed with
  | Some resynth ->
      check Alcotest.string "cascade" "V+CA" (cascade_string resynth);
      checkb "cost preserved" true
        (Synthesis.Cascade.cost (Prob_circuit.cascade resynth)
        <= Synthesis.Cascade.cost (Prob_circuit.cascade coin))
  | None -> Alcotest.fail "observed behaviour realizable"

let test_behavior_unsatisfiable () =
  (* Demanding a coin on C while keeping A = 0 rows deterministic with C
     untouched conflicts with how coins are generated (a control must be
     1): input 0 -> coin is impossible. *)
  let impossible =
    Behavior.of_strings library3
      [ "00?"; "***"; "***"; "***"; "***"; "***"; "***"; "***" ]
  in
  checkb "unsatisfiable" true (Behavior.synthesize ~max_depth:4 library3 impossible = None)

let () =
  Alcotest.run "automata"
    [
      ( "measurement",
        [
          Alcotest.test_case "wire distribution" `Quick test_wire_distribution;
          Alcotest.test_case "binary deterministic" `Quick
            test_binary_pattern_deterministic;
          Alcotest.test_case "mixed distribution" `Quick test_mixed_distribution;
        ] );
      ("measurement properties", measurement_props);
      ( "prob_circuit",
        [
          Alcotest.test_case "controlled coin" `Quick test_controlled_coin;
          Alcotest.test_case "deterministic circuit" `Quick test_deterministic_circuit;
          Alcotest.test_case "rejects unreasonable" `Quick
            test_of_cascade_rejects_unreasonable;
          Alcotest.test_case "synthesize two-coin" `Quick test_synthesize_two_coin;
          Alcotest.test_case "synthesize identity" `Quick
            test_synthesize_deterministic_spec;
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "spec string forms" `Quick test_spec_of_strings_forms;
        ] );
      ( "qfsm",
        [
          Alcotest.test_case "sizes" `Quick test_qfsm_sizes;
          Alcotest.test_case "transitions" `Quick test_qfsm_transitions;
          Alcotest.test_case "stochastic rows" `Quick test_qfsm_rows_stochastic;
          Alcotest.test_case "step and run" `Quick test_qfsm_step;
          Alcotest.test_case "errors" `Quick test_qfsm_errors;
        ] );
      ( "behavior",
        [
          Alcotest.test_case "parse" `Quick test_behavior_parse;
          Alcotest.test_case "matches" `Quick test_behavior_matches;
          Alcotest.test_case "synthesize" `Quick test_behavior_synthesize;
          Alcotest.test_case "don't-cares help" `Quick test_behavior_dont_cares_help;
          Alcotest.test_case "observe roundtrip" `Quick test_behavior_observe_roundtrip;
          Alcotest.test_case "unsatisfiable" `Quick test_behavior_unsatisfiable;
        ] );
    ]
