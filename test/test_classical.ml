(* Tests for ANF extraction and classical gate-library synthesis — the
   machinery behind the paper's Peres-vs-Toffoli library claim.  The
   NOT+CNOT ("nc"), NOT+CNOT+Toffoli ("nct") and NOT+CNOT+Peres ("ncp")
   libraries are registry census universes; a small breadth-first search
   over Revfun values, written here from Reversible.Gates alone, is the
   independent oracle for their gate-count spectra. *)

open Reversible
module Library = Synthesis.Library
module Gate = Synthesis.Gate
module Fmcf = Synthesis.Fmcf

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let revfun = Alcotest.testable Revfun.pp Revfun.equal

let qcheck_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let revfun_gen bits =
  QCheck2.Gen.(
    map
      (fun seed ->
        let state = Random.State.make [| seed |] in
        let n = 1 lsl bits in
        let a = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int state (i + 1) in
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        done;
        Revfun.of_perm ~bits (Permgroup.Perm.of_array a))
      int)

(* The nc library run to closure (diameter 7). *)
let nc_closure = lazy (Fmcf.run ~max_depth:8 (Library.of_name "nc"))

(* Anf *)

let test_anf_paper_formulas () =
  (* The paper's own formulas: Peres is P = A, Q = B xor A, R = C xor AB. *)
  check Alcotest.string "peres" "P = A, Q = A+B, R = AB+C" (Anf.describe Gates.g1);
  check Alcotest.string "toffoli" "P = A, Q = B, R = AB+C" (Anf.describe Gates.toffoli3);
  (* g3: R = C xor A'B = C + B + AB over GF(2). *)
  check Alcotest.string "g3" "P = A, Q = A+B, R = B+AB+C" (Anf.describe Gates.g3)

let test_anf_constants () =
  check Alcotest.string "zero" "0" (Anf.to_string ~bits:2 []);
  check Alcotest.string "one" "1" (Anf.to_string ~bits:2 [ 0 ]);
  let const_one = Anf.of_outputs ~bits:2 [ true; true; true; true ] in
  check Alcotest.string "constant column" "1" (Anf.to_string ~bits:2 const_one);
  let xor = Anf.of_outputs ~bits:2 [ false; true; true; false ] in
  check Alcotest.string "xor column" "A+B" (Anf.to_string ~bits:2 xor)

let test_anf_degree_linear () =
  check Alcotest.int "xor degree" 1
    (Anf.degree (Anf.of_outputs ~bits:2 [ false; true; true; false ]));
  check Alcotest.int "and degree" 2
    (Anf.degree (Anf.of_outputs ~bits:2 [ false; false; false; true ]));
  checkb "cnot linear" true (Anf.is_linear (Gates.cnot ~bits:3 ~control:2 ~target:0));
  checkb "toffoli not linear" false (Anf.is_linear Gates.toffoli3);
  checkb "fredkin not linear" false (Anf.is_linear Gates.fredkin3);
  checkb "not layer linear" true (Anf.is_linear (Revfun.xor_layer ~bits:3 5))

let anf_props =
  [
    qcheck_test "anf evaluates back to the wire" (revfun_gen 3) (fun f ->
        List.for_all
          (fun wire ->
            let anf = Anf.of_wire f ~wire in
            List.for_all2
              (fun code expected -> Anf.eval ~bits:3 anf code = expected)
              (List.init 8 Fun.id)
              (Revfun.wire_outputs f ~wire))
          [ 0; 1; 2 ]);
    qcheck_test "linear iff in the CNOT/NOT closure" (revfun_gen 3) (fun f ->
        (* the affine group on 3 bits has 1344 elements *)
        Anf.is_linear f = (Fmcf.find (Lazy.force nc_closure) f <> None));
  ]

(* Boolexpr *)

let test_boolexpr_parse_eval () =
  let e = Boolexpr.parse ~bits:3 "C^AB" in
  (* code 6 = A=1,B=1,C=0: 0 xor (1 and 1) = 1 *)
  checkb "110" true (Boolexpr.eval ~bits:3 e 6);
  checkb "100" false (Boolexpr.eval ~bits:3 e 4);
  checkb "001" true (Boolexpr.eval ~bits:3 e 1);
  let prime = Boolexpr.parse ~bits:3 "B^AC'" in
  (* g2's Q: code 4 = A=1,B=0,C=0: 0 xor (1 and 1) = 1 *)
  checkb "postfix not" true (Boolexpr.eval ~bits:3 prime 4);
  checkb "postfix not off" false (Boolexpr.eval ~bits:3 prime 5);
  let ops = Boolexpr.parse ~bits:2 "!A | B & 1 ^ 0" in
  checkb "mixed operators" true (Boolexpr.eval ~bits:2 ops 0)

let test_boolexpr_errors () =
  List.iter
    (fun s ->
      checkb s true
        (match Boolexpr.parse ~bits:2 s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "A^"; "(A"; "A)"; "C"; "A @ B"; "" ]

let test_boolexpr_paper_formulas () =
  (* The paper's formulas for g1..g4 parse to exactly those functions. *)
  let expect name formulas gate =
    check revfun name (Spec.of_formulas ~bits:3 formulas) gate
  in
  expect "g1" "A; B^A; C^AB" Gates.g1;
  expect "g2" "A; B^AC'; C^A" Gates.g2;
  expect "g3" "A; B^A; C^A'B" Gates.g3;
  expect "g4" "A; B^A; C'^A'B'" Gates.g4;
  expect "toffoli" "A; B; C^AB" Gates.toffoli3;
  expect "fredkin via mux" "A; A'B^AC; A'C^AB" Gates.fredkin3

let test_boolexpr_not_reversible () =
  checkb "constant formulas rejected" true
    (match Boolexpr.revfun_of_formulas ~bits:2 [ "0"; "B" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let boolexpr_props =
  [
    qcheck_test "anf of parsed formula evaluates the same"
      QCheck2.Gen.(int_range 0 7)
      (fun code ->
        let e = Boolexpr.parse ~bits:3 "A^BC'|C" in
        let anf = Boolexpr.to_anf ~bits:3 e in
        Boolexpr.eval ~bits:3 e code = Anf.eval ~bits:3 anf code);
    qcheck_test "pp then parse roundtrips semantics" (revfun_gen 3) (fun f ->
        List.for_all
          (fun wire ->
            let anf = Anf.of_wire f ~wire in
            let printed = Anf.to_string ~bits:3 anf in
            let reparsed = Boolexpr.parse ~bits:3 printed in
            List.for_all
              (fun code ->
                Boolexpr.eval ~bits:3 reparsed code = Anf.eval ~bits:3 anf code)
              (List.init 8 Fun.id))
          [ 0; 1; 2 ]);
  ]

(* Revfun.relabel *)

let test_relabel () =
  let sigma = [| 1; 0; 2 |] in
  check revfun "cnot wires swapped"
    (Gates.cnot ~bits:3 ~control:1 ~target:0)
    (Revfun.relabel (Gates.cnot ~bits:3 ~control:0 ~target:1) sigma);
  check revfun "identity sigma" Gates.g1 (Revfun.relabel Gates.g1 [| 0; 1; 2 |]);
  Alcotest.check_raises "arity" (Invalid_argument "Revfun.relabel: arity") (fun () ->
      ignore (Revfun.relabel Gates.g1 [| 0; 1 |]))

let relabel_props =
  [
    qcheck_test "relabel by sigma then inverse sigma" (revfun_gen 3) (fun f ->
        let sigma = [| 2; 0; 1 |] and inverse = [| 1; 2; 0 |] in
        Revfun.equal f (Revfun.relabel (Revfun.relabel f sigma) inverse));
    qcheck_test "relabel preserves cycle structure" (revfun_gen 3) (fun f ->
        Permgroup.Perm.order (Revfun.to_perm f)
        = Permgroup.Perm.order (Revfun.to_perm (Revfun.relabel f [| 1; 2; 0 |])));
  ]

(* Gf2 *)

let test_gf2_basics () =
  let i3 = Gf2.identity 3 in
  checkb "identity invertible" true (Gf2.is_invertible i3);
  check Alcotest.int "identity rank" 3 (Gf2.rank i3);
  checkb "identity self-inverse" true
    (match Gf2.inverse i3 with Some inv -> Gf2.equal inv i3 | None -> false);
  let singular = [| [| true; true |]; [| true; true |] |] in
  check Alcotest.int "singular rank" 1 (Gf2.rank singular);
  checkb "singular has no inverse" true (Gf2.inverse singular = None);
  checkb "mul identity" true (Gf2.equal (Gf2.mul i3 i3) i3)

let test_gf2_of_revfun () =
  (match Gf2.of_revfun (Gates.cnot ~bits:3 ~control:0 ~target:1) with
  | Some (m, shift) ->
      check Alcotest.int "no shift" 0 shift;
      checkb "B row has A and B" true (m.(1).(0) && m.(1).(1));
      checkb "A row is A" true (m.(0).(0) && not (m.(0).(1)) && not (m.(0).(2)))
  | None -> Alcotest.fail "cnot is linear");
  (match Gf2.of_revfun (Revfun.xor_layer ~bits:3 5) with
  | Some (m, shift) ->
      check Alcotest.int "shift" 5 shift;
      checkb "identity matrix" true (Gf2.equal m (Gf2.identity 3))
  | None -> Alcotest.fail "xor layer is affine");
  checkb "toffoli not affine" true (Gf2.of_revfun Gates.toffoli3 = None)

let test_gf2_roundtrip () =
  let f = Revfun.compose (Gates.cnot ~bits:3 ~control:0 ~target:1)
            (Revfun.compose (Gates.cnot ~bits:3 ~control:2 ~target:0)
               (Revfun.xor_layer ~bits:3 3)) in
  match Gf2.of_revfun f with
  | Some (m, shift) -> check revfun "roundtrip" f (Gf2.to_revfun ~bits:3 m shift)
  | None -> Alcotest.fail "f is affine"

let test_gf2_synthesize () =
  let check_synthesis f =
    match Gf2.synthesize f with
    | Some (not_mask, cnots) ->
        (* recompose: NOT layer then the CNOTs in order *)
        let bits = Revfun.bits f in
        let recomposed =
          List.fold_left
            (fun acc (control, target) ->
              Revfun.compose acc (Gates.cnot ~bits ~control ~target))
            (Revfun.xor_layer ~bits not_mask)
            cnots
        in
        checkb "recomposes exactly" true (Revfun.equal recomposed f);
        checkb "gate count bounded" true (List.length cnots <= bits * bits)
    | None -> Alcotest.fail "affine function expected"
  in
  check_synthesis (Gates.cnot ~bits:3 ~control:1 ~target:2);
  check_synthesis (Gates.swap ~bits:3 ~wire1:0 ~wire2:2);
  check_synthesis (Revfun.xor_layer ~bits:3 7);
  check_synthesis (Revfun.identity ~bits:3);
  checkb "nonlinear rejected" true (Gf2.synthesize Gates.toffoli3 = None)

let gf2_props =
  [
    qcheck_test ~count:60 "synthesize every affine function" QCheck2.Gen.int (fun seed ->
        (* random invertible matrix by composing random row ops *)
        let state = Random.State.make [| seed |] in
        let m = ref (Gf2.identity 3) in
        for _ = 1 to 6 do
          let t = Random.State.int state 3 in
          let c = Random.State.int state 3 in
          if t <> c then begin
            let op = Gf2.identity 3 in
            op.(t).(c) <- true;
            m := Gf2.mul op !m
          end
        done;
        let shift = Random.State.int state 8 in
        let f = Gf2.to_revfun ~bits:3 !m shift in
        match Gf2.synthesize f with
        | Some (not_mask, cnots) ->
            let recomposed =
              List.fold_left
                (fun acc (control, target) ->
                  Revfun.compose acc (Gates.cnot ~bits:3 ~control ~target))
                (Revfun.xor_layer ~bits:3 not_mask)
                cnots
            in
            Revfun.equal recomposed f
        | None -> false);
    qcheck_test "linearity agrees between Anf and Gf2" (revfun_gen 3) (fun f ->
        Anf.is_linear f = (Gf2.of_revfun f <> None));
  ]

(* Classical libraries *)

let wires = [ 0; 1; 2 ]

let ordered_pairs =
  List.concat_map
    (fun a -> List.filter_map (fun b -> if a <> b then Some (a, b) else None) wires)
    wires

(* [peres (a, b)] is Peres[abc]: a into b, and c XOR ab. *)
let peres (a, b) = Gates.peres ~bits:3 ~control1:a ~control2:b ~target:(3 - a - b)

let oracle_nc =
  List.map (fun wire -> Gates.not_ ~bits:3 ~wire) wires
  @ List.map (fun (control, target) -> Gates.cnot ~bits:3 ~control ~target) ordered_pairs

let oracle_nct =
  oracle_nc
  @ List.map
      (fun target ->
        match List.filter (( <> ) target) wires with
        | [ control1; control2 ] -> Gates.toffoli ~bits:3 ~control1 ~control2 ~target
        | _ -> assert false)
      wires

let oracle_ncp =
  oracle_nc @ List.map peres ordered_pairs
  @ List.map (fun pair -> Revfun.inverse (peres pair)) ordered_pairs

(* The oracle: breadth-first search over S8 by gate count; [(k, n)] for
   every nonempty level. *)
let oracle_spectrum generators =
  let seen = Hashtbl.create 65536 in
  let fresh f =
    let key = Permgroup.Perm.key (Revfun.to_perm f) in
    (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true)
  in
  let identity = Revfun.identity ~bits:3 in
  ignore (fresh identity);
  let rec levels k frontier acc =
    if frontier = [] then List.rev acc
    else
      let next =
        List.concat_map
          (fun f ->
            List.filter_map
              (fun g ->
                let h = Revfun.compose f g in
                if fresh h then Some h else None)
              generators)
          frontier
      in
      levels (k + 1) next ((k, List.length frontier) :: acc)
  in
  levels 0 [ identity ] []

(* The oracle Revfun of one registry gate, from its wires alone. *)
let oracle_gate g =
  let target = Gate.target g and control = Gate.control g in
  match Gate.kind g with
  | Gate.Not -> Gates.not_ ~bits:3 ~wire:target
  | Gate.Feynman -> Gates.cnot ~bits:3 ~control ~target
  | Gate.Toffoli ->
      Gates.toffoli ~bits:3 ~control1:control ~control2:(Gate.control2 g) ~target
  | Gate.Peres -> peres (control, Gate.control2 g)
  | Gate.Peres_dag -> Revfun.inverse (peres (control, Gate.control2 g))
  | _ -> Alcotest.failf "%s is in no classical library here" (Gate.name g)

let spectra =
  let memo = Hashtbl.create 3 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some s -> s
    | None ->
        let library = Library.of_name name in
        let by_gates =
          List.filter (fun (_, n) -> n > 0) (Fmcf.counts (Fmcf.run ~max_depth:16 library))
        in
        let by_cost =
          Synthesis.Weighted.census ~max_cost:64 library ~model:Synthesis.Cost_model.quantum
        in
        Hashtbl.replace memo name (by_gates, by_cost);
        (by_gates, by_cost)

let histogram = Alcotest.(list (pair int int))
let total h = List.fold_left (fun acc (_, n) -> acc + n) 0 h

let average h =
  float_of_int (List.fold_left (fun acc (k, n) -> acc + (k * n)) 0 h)
  /. float_of_int (total h)

let of_row row = List.mapi (fun k n -> (k, n)) row

(* One library's spectra: gate counts equal to the pin and the oracle,
   quantum costs and both averages equal to the pins. *)
let check_library name ~oracle ~gates ~quantum ~average_gates ~average_quantum =
  let by_gates, by_cost = spectra name in
  check histogram (name ^ " gate counts") (of_row gates) by_gates;
  check histogram (name ^ " oracle") (oracle_spectrum oracle) by_gates;
  check histogram (name ^ " quantum costs") quantum by_cost;
  let printed h = Printf.sprintf "%.3f" (average h) in
  check Alcotest.string (name ^ " average gates") average_gates (printed by_gates);
  check Alcotest.string (name ^ " average quantum cost") average_quantum
    (printed by_cost)

let test_placements () =
  (* every gate of the three libraries acts as its oracle placement *)
  List.iter
    (fun name ->
      let library = Library.of_name name in
      Array.iter
        (fun e ->
          let g = e.Library.gate in
          checkb (name ^ " " ^ Gate.name g) true
            (Permgroup.Perm.equal e.Library.perm (Revfun.to_perm (oracle_gate g))))
        (Library.entries library))
    [ "nc"; "nct"; "ncp" ];
  let count kind name =
    Array.fold_left
      (fun acc e -> if Gate.kind e.Library.gate = kind then acc + 1 else acc)
      0
      (Library.entries (Library.of_name name))
  in
  check Alcotest.int "toffoli placements" 3 (count Gate.Toffoli "nct");
  check Alcotest.int "peres placements" 6 (count Gate.Peres "ncp");
  check Alcotest.int "inverse peres placements" 6 (count Gate.Peres_dag "ncp")

let test_library_sizes () =
  List.iter
    (fun (name, oracle, size) ->
      check Alcotest.int name size (Library.size (Library.of_name name));
      check Alcotest.int (name ^ " oracle") size
        (List.length
           (List.sort_uniq compare
              (List.map (fun f -> Permgroup.Perm.key (Revfun.to_perm f)) oracle))))
    [ ("nc", oracle_nc, 9); ("nct", oracle_nct, 12); ("ncp", oracle_ncp, 21) ]

let test_linear_census () =
  check_library "nc" ~oracle:oracle_nc ~gates:[ 1; 9; 51; 187; 393; 474; 215; 14 ]
    ~quantum:[ (0, 8); (1, 48); (2, 192); (3, 408); (4, 480); (5, 192); (6, 16) ]
    ~average_gates:"4.466" ~average_quantum:"3.446";
  (* affine group: 2^3 * |GL(3,2)| = 8 * 168 *)
  check Alcotest.int "affine functions" 1344 (total (fst (spectra "nc")))

let test_toffoli_census () =
  (* Shende et al.: every 3-bit reversible function needs at most 8
     NOT/CNOT/Toffoli gates. *)
  check_library "nct" ~oracle:oracle_nct
    ~gates:[ 1; 12; 102; 625; 2780; 8921; 17049; 10253; 577 ]
    ~quantum:
      [ (0, 8); (1, 48); (2, 192); (3, 408); (4, 480); (5, 288); (6, 592); (7, 2016);
        (8, 4128); (9, 2496); (10, 672); (11, 2880); (12, 7488); (13, 7488);
        (14, 384); (15, 1600); (16, 5568); (17, 3584) ]
    ~average_gates:"5.866" ~average_quantum:"11.983";
  check Alcotest.int "all of S8" 40320 (total (fst (spectra "nct")))

let test_peres_census_beats_toffoli () =
  check_library "ncp" ~oracle:oracle_ncp
    ~gates:[ 1; 21; 300; 3001; 14329; 22013; 655 ]
    ~quantum:
      [ (0, 8); (1, 48); (2, 192); (3, 408); (4, 672); (5, 1248); (6, 3184);
        (7, 4320); (8, 3552); (9, 11520); (10, 4416); (12, 9856); (13, 896) ]
    ~average_gates:"4.487" ~average_quantum:"9.080";
  let ncp_gates, ncp_cost = spectra "ncp" and nct_gates, nct_cost = spectra "nct" in
  check Alcotest.int "peres reaches everything" 40320 (total ncp_gates);
  (* The paper's conclusion: Peres libraries need fewer gates... *)
  checkb "fewer gates on average" true (average ncp_gates < average nct_gates);
  (* ...and lower total quantum cost. *)
  checkb "lower quantum cost on average" true (average ncp_cost < average nct_cost)

let test_quantum_cost_histogram_matches_elementary_census () =
  (* The Peres-library quantum-cost census is 8 |G[k]| of the paper's
     library run to closure at every cost — the NOT layer is free in
     both, and the two models measure the same quantity. *)
  let closure = Fmcf.run ~max_depth:13 ~quotient:true (Library.of_name "paper18") in
  check histogram "8 |G[k]|"
    (List.filter (fun (_, n) -> n > 0) (Fmcf.s8_counts closure))
    (snd (spectra "ncp"))

let test_synthesize_known () =
  (* synth --library ncp fredkin: three Peres-family gates, replayed
     exactly as a unitary and as the oracle's Revfun product *)
  let ncp = Library.of_name "ncp" in
  (match Synthesis.Mce.express ncp Gates.fredkin3 with
  | Some r ->
      check Alcotest.int "fredkin = 3 peres" 3 r.Synthesis.Mce.cost;
      checkb "replays as a unitary" true
        (Synthesis.Verify.cascade_implements ~qubits:3 ~not_mask:r.Synthesis.Mce.not_mask
           r.Synthesis.Mce.cascade Gates.fredkin3);
      let product =
        List.fold_left
          (fun acc g -> Revfun.compose acc (oracle_gate g))
          (Revfun.identity ~bits:3) r.Synthesis.Mce.cascade
      in
      checkb "factorization valid" true (Revfun.equal product Gates.fredkin3)
  | None -> Alcotest.fail "fredkin reachable");
  checkb "toffoli is not affine" true
    (Synthesis.Mce.express ~max_depth:8 (Library.of_name "nc") Gates.toffoli3 = None);
  match Synthesis.Mce.express (Library.of_name "nct") (Revfun.identity ~bits:3) with
  | Some r -> check Alcotest.int "identity is free" 0 r.Synthesis.Mce.cost
  | None -> Alcotest.fail "identity is free"

let () =
  Alcotest.run "classical"
    [
      ( "anf",
        [
          Alcotest.test_case "paper formulas" `Quick test_anf_paper_formulas;
          Alcotest.test_case "constants" `Quick test_anf_constants;
          Alcotest.test_case "degree and linearity" `Quick test_anf_degree_linear;
        ] );
      ("anf properties", anf_props);
      ( "boolexpr",
        [
          Alcotest.test_case "parse and eval" `Quick test_boolexpr_parse_eval;
          Alcotest.test_case "errors" `Quick test_boolexpr_errors;
          Alcotest.test_case "paper formulas" `Quick test_boolexpr_paper_formulas;
          Alcotest.test_case "non-reversible rejected" `Quick
            test_boolexpr_not_reversible;
        ] );
      ("boolexpr properties", boolexpr_props);
      ( "relabel",
        [ Alcotest.test_case "relabel wires" `Quick test_relabel ] );
      ("relabel properties", relabel_props);
      ( "gf2",
        [
          Alcotest.test_case "basics" `Quick test_gf2_basics;
          Alcotest.test_case "of_revfun" `Quick test_gf2_of_revfun;
          Alcotest.test_case "roundtrip" `Quick test_gf2_roundtrip;
          Alcotest.test_case "synthesize" `Quick test_gf2_synthesize;
        ] );
      ("gf2 properties", gf2_props);
      ( "classical_synth",
        [
          Alcotest.test_case "placements" `Quick test_placements;
          Alcotest.test_case "library sizes" `Quick test_library_sizes;
          Alcotest.test_case "linear census" `Quick test_linear_census;
          Alcotest.test_case "toffoli census" `Slow test_toffoli_census;
          Alcotest.test_case "peres beats toffoli" `Slow test_peres_census_beats_toffoli;
          Alcotest.test_case "quantum costs match elementary census" `Slow
            test_quantum_cost_histogram_matches_elementary_census;
          Alcotest.test_case "synthesize known circuits" `Quick test_synthesize_known;
        ] );
    ]
