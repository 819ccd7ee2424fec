(* End-to-end integration tests: the multiple-valued abstraction, the
   group-theoretic search and the exact unitary simulator must all agree.

   These are the strongest soundness checks in the repository: they
   exercise synthesis -> factorization -> simulation across random inputs
   and against a brute-force oracle. *)

open Synthesis

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let qcheck_test ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let library2 = Library.make (Mvl.Encoding.make ~qubits:2)

(* Generate random *reasonable* cascades by walking allowed gates. *)
let reasonable_cascade_gen library len =
  QCheck2.Gen.(
    map
      (fun seed ->
        let state = Random.State.make [| seed |] in
        let encoding = Library.encoding library in
        let nb = Mvl.Encoding.num_binary encoding in
        let degree = Mvl.Encoding.size encoding in
        let rec go acc perm k =
          if k = 0 then List.rev acc
          else begin
            let signature =
              Mvl.Encoding.image_signature encoding
                (List.init nb (Permgroup.Perm.apply perm))
            in
            let allowed =
              Array.to_list (Library.entries library)
              |> List.filter (Library.signature_allows ~signature)
            in
            match allowed with
            | [] -> List.rev acc
            | _ ->
                let entry = List.nth allowed (Random.State.int state (List.length allowed)) in
                go (entry.Library.gate :: acc)
                  (Permgroup.Perm.mul perm entry.Library.perm)
                  (k - 1)
          end
        in
        go [] (Permgroup.Perm.identity degree) len)
      int)

(* 1. MV abstraction vs exact unitaries on random reasonable cascades. *)

let mv_soundness_props =
  [
    qcheck_test ~count:40 "3-qubit MV agrees with unitary"
      (reasonable_cascade_gen library3 5) (fun cascade ->
        Cascade.is_reasonable library3 cascade
        && Verify.mv_agrees_with_unitary library3 cascade);
    qcheck_test ~count:40 "2-qubit MV agrees with unitary"
      (reasonable_cascade_gen library2 5) (fun cascade ->
        Cascade.is_reasonable library2 cascade
        && Verify.mv_agrees_with_unitary library2 cascade);
    qcheck_test ~count:40 "binary-restriction matches simulator"
      (reasonable_cascade_gen library3 6) (fun cascade ->
        match Cascade.restriction library3 cascade with
        | Some f -> Verify.cascade_implements ~qubits:3 cascade f
        | None -> Verify.classical_function ~qubits:3 cascade = None);
  ]

(* 2. Brute-force oracle: minimal costs up to 3 gates computed naively
   (all reasonable gate sequences) match the census. *)

let test_census_against_brute_force () =
  let module FnMap = Map.Make (String) in
  let oracle = ref FnMap.empty in
  let remember cost f =
    let key = Permgroup.Perm.key (Reversible.Revfun.to_perm f) in
    oracle :=
      FnMap.update key
        (function Some c -> Some (min c cost) | None -> Some cost)
        !oracle
  in
  remember 0 (Reversible.Revfun.identity ~bits:3);
  let gates = Gate.all ~qubits:3 in
  let rec enumerate cascade cost =
    if cost > 0 then
      (match Cascade.restriction library3 (List.rev cascade) with
      | Some f when Cascade.is_reasonable library3 (List.rev cascade) ->
          remember cost f
      | _ -> ());
    if cost < 3 then
      List.iter (fun g -> enumerate (g :: cascade) (cost + 1)) gates
  in
  enumerate [] 0;
  (* Keep only sequences that were reasonable; compare with census. *)
  let census = Fmcf.run ~max_depth:3 library3 in
  Fmcf.iter_members census (fun ~cost:_ m ->
      let key = Permgroup.Perm.key (Reversible.Revfun.to_perm m.Fmcf.func) in
      match FnMap.find_opt key !oracle with
      | Some oracle_cost -> check Alcotest.int "cost agrees" oracle_cost m.Fmcf.cost
      | None -> Alcotest.fail "census found a function the oracle missed");
  (* and the other direction: every oracle function appears in the census *)
  let total = FnMap.cardinal !oracle in
  check Alcotest.int "same function count" total (Fmcf.total_found census)

(* 3. Sampled members of the depth-6 census re-synthesize at their census
   cost and verify against the unitary semantics, NOT layers included. *)

let test_express_random_s8_elements () =
  (* Random elements of S8 that are cheap enough to find: compose a NOT
     layer with census members. *)
  let census = Fmcf.run ~max_depth:4 library3 in
  let state = Random.State.make [| 42 |] in
  for _ = 1 to 25 do
    let cost = 1 + Random.State.int state 4 in
    let members = Fmcf.members_at census ~cost in
    let m = List.nth members (Random.State.int state (List.length members)) in
    let mask = Random.State.int state 8 in
    let target =
      Reversible.Revfun.compose
        (Reversible.Revfun.xor_layer ~bits:3 mask)
        m.Fmcf.func
    in
    match Mce.express library3 target with
    | Some r ->
        check Alcotest.int "same cost with free NOTs" cost r.Mce.cost;
        checkb "verifies" true (Verify.result_valid library3 r)
    | None -> Alcotest.fail "expressible"
  done

(* 4. Theorem 2 numerically: 8 * |G[k]| functions of cost k exist in S8
   when the input NOT layer is free; check by sampling masks. *)

let test_not_layer_never_changes_cost () =
  let census = Fmcf.run ~max_depth:3 library3 in
  List.iter
    (fun (m : Fmcf.member) ->
      List.iter
        (fun mask ->
          let target =
            Reversible.Revfun.compose
              (Reversible.Revfun.xor_layer ~bits:3 mask)
              m.Fmcf.func
          in
          match Mce.express library3 target with
          | Some r -> check Alcotest.int "cost invariant" m.Fmcf.cost r.Mce.cost
          | None -> Alcotest.fail "expressible")
        [ 1; 5; 7 ])
    (Fmcf.members_at census ~cost:2)

(* 5. The probabilistic-synthesis path agrees with the deterministic one
   on deterministic specs. *)

let test_prob_synthesis_on_deterministic_specs () =
  List.iter
    (fun target ->
      let spec =
        Array.init 8 (fun code ->
            Mvl.Pattern.of_binary_code ~qubits:3 (Reversible.Revfun.apply target code))
      in
      match (Automata.Prob_circuit.synthesize library3 spec, Mce.express library3 target) with
      | Some circuit, Some r ->
          check Alcotest.int "same cost" r.Mce.cost
            (Cascade.cost (Automata.Prob_circuit.cascade circuit))
      | _ -> Alcotest.fail "both paths must synthesize")
    [
      Reversible.Gates.cnot ~bits:3 ~control:0 ~target:1;
      Reversible.Gates.g1;
      Reversible.Gates.toffoli3;
    ]

(* 6. Adjoint cascades synthesize the inverse function. *)

let test_adjoint_implements_inverse () =
  match Mce.express library3 Reversible.Gates.g1 with
  | Some r ->
      let adjoint = Cascade.adjoint r.Mce.cascade in
      checkb "adjoint implements inverse" true
        (Verify.cascade_implements ~qubits:3 adjoint
           (Reversible.Revfun.inverse Reversible.Gates.g1))
  | None -> Alcotest.fail "peres expressible"

(* 7. Measurement statistics of a synthesized probabilistic circuit match
   the exact quantum state probabilities. *)

let test_rng_against_state_vector () =
  let coin = Automata.Prob_circuit.controlled_coin library3 in
  for input = 0 to 7 do
    let pattern = Automata.Prob_circuit.output_pattern coin ~input in
    let state =
      Qsim.Circuit_sim.run ~qubits:3
        (Cascade.matrices ~qubits:3 (Automata.Prob_circuit.cascade coin))
        (Qsim.State.basis ~qubits:3 input)
    in
    let mv_dist = Automata.Measurement.distribution pattern in
    Array.iteri
      (fun code p ->
        checkb "distributions agree" true
          (Qsim.Prob.equal p (Qsim.State.basis_probability state code)))
      mv_dist
  done

(* {1 Widths a search cannot store}

   A search key holds one encoding point a byte: paper18 has 782 points
   at 5 wires and the binary encoding 256 at 8.  Every search command
   refuses the first such width as a usage error (exit 2) that names the
   widest searchable one, before it prints anything. *)

let qsynth_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "qsynth.exe" ]

(* [run_qsynth args] is qsynth's exit code, stdout and stderr; a run
   still alive after ten seconds is killed and fails the test. *)
let run_qsynth args =
  let out = Filename.temp_file "qsynth" ".out" and err = Filename.temp_file "qsynth" ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = fd out and fd_err = fd err in
  let pid =
    Unix.create_process qsynth_exe (Array.of_list (qsynth_exe :: args)) Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let rec wait n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when n = 0 ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "qsynth %s did not exit" (String.concat " " args)
    | 0, _ ->
        Unix.sleepf 0.05;
        wait (n - 1)
    | _, Unix.WEXITED code -> code
    | _ -> Alcotest.failf "qsynth %s was killed" (String.concat " " args)
  in
  let code = wait 200 in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let result = (code, read out, read err) in
  Sys.remove out;
  Sys.remove err;
  result

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* the 3-wire Toffoli on the last three of five wires *)
let toffoli5 = String.concat "," (List.map string_of_int (List.init 32 (fun i -> if i >= 24 then i lxor 1 else i)))

let test_too_wide (args, widest) () =
  let requests = Filename.temp_file "qsynth" ".jsonl" in
  Out_channel.with_open_bin requests (fun oc -> output_string oc "{\"spec\":\"toffoli\"}\n");
  let socket = Filename.concat (Filename.get_temp_dir_name ()) "qsynth-too-wide.sock" in
  let args =
    List.map (function "REQUESTS" -> requests | "SOCKET" -> socket | a -> a) args
  in
  let code, out, err = run_qsynth args in
  Sys.remove requests;
  check Alcotest.int "exit" 2 code;
  check Alcotest.string "stdout" "" out;
  checkb
    (Printf.sprintf "stderr names %d qubits: %s" widest err)
    true
    (contains err (Printf.sprintf "up to %d qubits" widest))

let too_wide_cases =
  [
    ("census -q 5", [ "census"; "-q"; "5"; "-d"; "2" ], 4);
    ("census -q 5 --quotient", [ "census"; "-q"; "5"; "-d"; "2"; "--quotient" ], 4);
    ("census --library nct -q 8", [ "census"; "--library"; "nct"; "-q"; "8"; "-d"; "1" ], 7);
    ("synth -q 5", [ "synth"; "-q"; "5"; toffoli5 ], 4);
    ("describe -q 5", [ "describe"; "-q"; "5"; toffoli5 ], 4);
    ("weighted -q 5", [ "weighted"; "-q"; "5"; "--max-cost"; "5"; toffoli5 ], 4);
    ("batch -q 5", [ "batch"; "-q"; "5"; "REQUESTS" ], 4);
    ("serve -q 5", [ "serve"; "-q"; "5"; "--socket"; "SOCKET" ], 4);
    (* refused from the point count, before 4^10 patterns are built *)
    ("census -q 10", [ "census"; "-q"; "10"; "-d"; "0" ], 4);
  ]

let () =
  Alcotest.run "integration"
    [
      ("mv soundness", mv_soundness_props);
      ( "oracles",
        [
          Alcotest.test_case "brute force to cost 3" `Slow test_census_against_brute_force;
          Alcotest.test_case "random S8 elements" `Slow test_express_random_s8_elements;
          Alcotest.test_case "NOT layers are free" `Slow test_not_layer_never_changes_cost;
        ] );
      ( "command line",
        List.map
          (fun (name, args, widest) ->
            Alcotest.test_case (name ^ " is a usage error") `Quick (test_too_wide (args, widest)))
          too_wide_cases );
      ( "cross-layer",
        [
          Alcotest.test_case "probabilistic = deterministic on specs" `Slow
            test_prob_synthesis_on_deterministic_specs;
          Alcotest.test_case "adjoint inverts" `Quick test_adjoint_implements_inverse;
          Alcotest.test_case "rng matches state vector" `Quick
            test_rng_against_state_vector;
        ] );
    ]
