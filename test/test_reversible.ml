(* Tests for the reversible-circuit substrate: functions, the gate zoo and
   specification parsing. *)

open Reversible

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let revfun = Alcotest.testable Revfun.pp Revfun.equal

let qcheck_test ?(count = 200) name gen prop =
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

(* Revfun *)

let test_construction () =
  let f = Revfun.of_outputs ~bits:2 [ 0; 1; 3; 2 ] in
  check Alcotest.int "apply" 3 (Revfun.apply f 2);
  Alcotest.check_raises "bad outputs" (Invalid_argument "Perm.of_array: not a permutation")
    (fun () -> ignore (Revfun.of_outputs ~bits:2 [ 0; 0; 1; 2 ]));
  Alcotest.check_raises "degree mismatch" (Invalid_argument "Revfun.of_perm: degree mismatch")
    (fun () -> ignore (Revfun.of_perm ~bits:3 (Permgroup.Perm.identity 4)))

let test_xor_layer () =
  let f = Revfun.xor_layer ~bits:3 5 in
  check Alcotest.int "0 ^ 5" 5 (Revfun.apply f 0);
  check Alcotest.int "7 ^ 5" 2 (Revfun.apply f 7);
  checkb "involution" true (Revfun.is_identity (Revfun.compose f f));
  check Alcotest.int "group size" 8 (List.length (Revfun.not_layer_group ~bits:3))

let test_not_layer_group_closed () =
  let group = Revfun.not_layer_group ~bits:2 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Revfun.compose a b in
          checkb "closed" true (List.exists (Revfun.equal ab) group))
        group)
    group

let test_fixes_zero () =
  checkb "identity fixes zero" true (Revfun.fixes_zero (Revfun.identity ~bits:3));
  checkb "xor layer moves zero" false (Revfun.fixes_zero (Revfun.xor_layer ~bits:3 1))

let test_wire_outputs () =
  let f = Gates.cnot ~bits:2 ~control:0 ~target:1 in
  check (Alcotest.list Alcotest.bool) "target column B = A xor B"
    [ false; true; true; false ] (Revfun.wire_outputs f ~wire:1);
  check (Alcotest.list Alcotest.bool) "control column unchanged"
    [ false; false; true; true ] (Revfun.wire_outputs f ~wire:0)

let test_output_column () =
  check (Alcotest.list Alcotest.int) "toffoli column" [ 0; 1; 2; 3; 4; 5; 7; 6 ]
    (Revfun.output_column Gates.toffoli3)

let revfun_props =
  let open QCheck2.Gen in
  let g = revfun_gen 3 in
  [
    qcheck_test "compose with inverse" g (fun f ->
        Revfun.is_identity (Revfun.compose f (Revfun.inverse f)));
    qcheck_test "compose associative" (triple g g g) (fun (a, b, c) ->
        Revfun.equal
          (Revfun.compose (Revfun.compose a b) c)
          (Revfun.compose a (Revfun.compose b c)));
    qcheck_test "compose order" (pair g g) (fun (a, b) ->
        (* compose applies the left function first *)
        let x = 3 in
        Revfun.apply (Revfun.compose a b) x = Revfun.apply b (Revfun.apply a x));
  ]

(* Gates *)

let test_toffoli () =
  let f = Gates.toffoli3 in
  check Alcotest.int "110 -> 111" 7 (Revfun.apply f 6);
  check Alcotest.int "111 -> 110" 6 (Revfun.apply f 7);
  check Alcotest.int "101 fixed" 5 (Revfun.apply f 5);
  check Alcotest.string "cycle form" "(7,8)" (Format.asprintf "%a" Revfun.pp f)

let test_fredkin () =
  let f = Gates.fredkin3 in
  check Alcotest.int "101 -> 110" 6 (Revfun.apply f 5);
  check Alcotest.int "110 -> 101" 5 (Revfun.apply f 6);
  check Alcotest.int "100 fixed" 4 (Revfun.apply f 4);
  check Alcotest.int "001 fixed (control off)" 1 (Revfun.apply f 1)

let test_peres_formulas () =
  (* P = A, Q = B xor A, R = C xor AB for every input code. *)
  for code = 0 to 7 do
    let a = (code lsr 2) land 1 and b = (code lsr 1) land 1 and c = code land 1 in
    let expected = (a lsl 2) lor ((b lxor a) lsl 1) lor (c lxor (a land b)) in
    check Alcotest.int "peres formula" expected (Revfun.apply Gates.g1 code)
  done

let test_g2_g3_g4_formulas () =
  for code = 0 to 7 do
    let a = (code lsr 2) land 1 and b = (code lsr 1) land 1 and c = code land 1 in
    (* g2: Q = B xor A(not C), R = C xor A *)
    let g2 = (a lsl 2) lor ((b lxor (a land (1 - c))) lsl 1) lor (c lxor a) in
    check Alcotest.int "g2" g2 (Revfun.apply Gates.g2 code);
    (* g3: Q = B xor A, R = C xor (not A)B *)
    let g3 = (a lsl 2) lor ((b lxor a) lsl 1) lor (c lxor ((1 - a) land b)) in
    check Alcotest.int "g3" g3 (Revfun.apply Gates.g3 code);
    (* g4: Q = B xor A, R = (not C) xor (not A)(not B) *)
    let g4 =
      (a lsl 2) lor ((b lxor a) lsl 1) lor (1 - c lxor ((1 - a) land (1 - b)))
    in
    check Alcotest.int "g4" g4 (Revfun.apply Gates.g4 code)
  done

let test_paper_cycle_forms () =
  let expect name cycles f =
    check revfun name
      (Revfun.of_perm ~bits:3 (Permgroup.Cycles.of_string ~degree:8 cycles))
      f
  in
  expect "g1 = (5,7,6,8)" "(5,7,6,8)" Gates.g1;
  expect "g2 = (5,8,7,6)" "(5,8,7,6)" Gates.g2;
  expect "g3 = (3,4)(5,7)(6,8)" "(3,4)(5,7)(6,8)" Gates.g3;
  expect "g4 = (3,4)(5,8)(6,7)" "(3,4)(5,8)(6,7)" Gates.g4;
  expect "toffoli = (7,8)" "(7,8)" Gates.toffoli3;
  expect "fredkin = (6,7)" "(6,7)" Gates.fredkin3

let test_swap_and_not () =
  let s = Gates.swap ~bits:2 ~wire1:0 ~wire2:1 in
  check Alcotest.int "01 -> 10" 2 (Revfun.apply s 1);
  checkb "swap involution" true (Revfun.is_identity (Revfun.compose s s));
  let n = Gates.not_ ~bits:2 ~wire:1 in
  check Alcotest.int "not lsb" 1 (Revfun.apply n 0);
  check revfun "not is xor layer" (Revfun.xor_layer ~bits:2 1) n

let test_peres_is_cnot_after_toffoli () =
  (* Peres = Toffoli then CNOT(B <- A). *)
  let composed =
    Revfun.compose Gates.toffoli3 (Gates.cnot ~bits:3 ~control:0 ~target:1)
  in
  check revfun "decomposition" Gates.g1 composed

let test_gate_errors () =
  Alcotest.check_raises "cnot same wire" (Invalid_argument "Gates.cnot: bad wires")
    (fun () -> ignore (Gates.cnot ~bits:2 ~control:1 ~target:1));
  Alcotest.check_raises "toffoli out of range" (Invalid_argument "Gates.toffoli: bad wires")
    (fun () -> ignore (Gates.toffoli ~bits:2 ~control1:0 ~control2:1 ~target:2))

(* Spec *)

let test_spec_names () =
  checkb "toffoli" true
    (match Spec.of_name "Toffoli" with
    | Some f -> Revfun.equal f Gates.toffoli3
    | None -> false);
  checkb "peres = g1" true
    (match Spec.of_name "peres" with
    | Some f -> Revfun.equal f Gates.g1
    | None -> false);
  checkb "unknown" true (Spec.of_name "nonsense" = None)

let test_spec_parse () =
  check revfun "cycles" Gates.toffoli3 (Spec.parse ~bits:3 "(7,8)");
  check revfun "outputs" Gates.toffoli3 (Spec.parse ~bits:3 "0,1,2,3,4,5,7,6");
  check revfun "name" Gates.g2 (Spec.parse ~bits:3 "g2");
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Spec.of_output_list: wrong number of outputs") (fun () ->
      ignore (Spec.parse ~bits:3 "0,1,2"))

(* The list-based output-column parser the scanner replaced, kept as
   the oracle: every spelling must give the same function or the same
   [Invalid_argument] message. *)
let reference_of_output_list ~bits s =
  let outputs =
    String.split_on_char ',' s
    |> List.map (fun part ->
           match int_of_string_opt (String.trim part) with
           | Some v -> v
           | None -> invalid_arg ("Spec.of_output_list: bad entry " ^ part))
  in
  if List.length outputs <> 1 lsl bits then
    invalid_arg "Spec.of_output_list: wrong number of outputs";
  Revfun.of_outputs ~bits outputs

let outcome parse ~bits s =
  match parse ~bits s with
  | f -> Ok (Format.asprintf "%a" Revfun.pp f)
  | exception Invalid_argument msg -> Error msg

let agrees_with_reference ~bits s =
  let want = outcome reference_of_output_list ~bits s
  and got = outcome Spec.of_output_list ~bits s in
  want = got
  || QCheck2.Test.fail_reportf "bits %d, %S: reference %s, scanner %s" bits s
       (match want with Ok f -> f | Error e -> "error " ^ e)
       (match got with Ok f -> f | Error e -> "error " ^ e)

let test_spec_output_list_edges () =
  List.iter
    (fun (bits, s) ->
      ignore (agrees_with_reference ~bits s : bool))
    [
      (3, "");
      (3, ",");
      (3, "0,1,2,3,4,5,7,6,");
      (3, ",0,1,2,3,4,5,7,6");
      (3, "0,1,2,3,4,5,7");
      (3, "0,1,2,3,4,5,7,6,8");
      (3, "0,1,2,3,4,5,7,x,9");
      (3, "0,1,2,3,4,5,7,6,x");
      (3, "0,1,2,3,4,5,6,7,99999999999999999999");
      (3, "0,1,2,3,4,5,7,4611686018427387904");
      (3, "0,1,2,3,4,5,7,9999999999999999999");
      (3, "0,1,2,3,4,5,6,7,9999999999999999999");
      (3, "0,1,2,3,4,5,7,4611686018427387903");
      (3, "0,1,2,3,4,5,7,999999999999999999");
      (3, "0,1,2,3,4,5,7,1000000000000000000");
      (3, "0,1,2,3,4,5,7,000000000000000000006");
      (3, " 0 ,+1,0x2,0_3,04,5,\t7\t,6");
      (3, "0,1,2,3,4,5,7,-6");
      (3, "0,1,1,3,4,5,7,6");
      (0, "0");
      (1, "1,0");
      (2, "0,1,3,2");
      (4, "0,1,2,3,4,5,6,7,8,9,10,11,12,13,15,14");
    ];
  check revfun "scanned column" Gates.toffoli3
    (Spec.of_output_list ~bits:3 "0,01,+2,0x3, 4,5 ,007,6")

let spec_oracle_props =
  let open QCheck2.Gen in
  let bits = int_range 1 4 in
  let noise =
    string_size ~gen:(oneofl [ '0'; '1'; '2'; '3'; '7'; '9'; ' '; ','; '+'; '-'; '_'; 'x'; '\t' ])
      (int_range 0 40)
  in
  (* a valid permutation, each entry spelled one of the ways
     int_of_string reads the same number *)
  let spelled =
    bits >>= fun bits ->
    let n = 1 lsl bits in
    shuffle_a (Array.init n Fun.id) >>= fun perm ->
    list_repeat n (int_range 0 5) >|= fun styles ->
    let spell v = function
      | 0 -> string_of_int v
      | 1 -> Printf.sprintf " %d\t" v
      | 2 -> Printf.sprintf "+%d" v
      | 3 -> Printf.sprintf "0x%x" v
      | 4 -> Printf.sprintf "000%d" v
      | _ -> Printf.sprintf "%d_" v
    in
    (bits, String.concat "," (List.mapi (fun i st -> spell perm.(i) st) styles))
  in
  [
    qcheck_test ~count:2000 "of_output_list = reference on noise" (pair (int_range 0 4) noise)
      (fun (bits, s) -> agrees_with_reference ~bits s);
    qcheck_test ~count:1000 "of_output_list = reference on spelled permutations" spelled
      (fun (bits, s) -> agrees_with_reference ~bits s);
  ]

let () =
  Alcotest.run "reversible"
    [
      ( "revfun",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "xor layers" `Quick test_xor_layer;
          Alcotest.test_case "NOT group closed" `Quick test_not_layer_group_closed;
          Alcotest.test_case "fixes zero" `Quick test_fixes_zero;
          Alcotest.test_case "wire outputs" `Quick test_wire_outputs;
          Alcotest.test_case "output column" `Quick test_output_column;
        ] );
      ("revfun properties", revfun_props);
      ( "gates",
        [
          Alcotest.test_case "toffoli" `Quick test_toffoli;
          Alcotest.test_case "fredkin" `Quick test_fredkin;
          Alcotest.test_case "peres formulas" `Quick test_peres_formulas;
          Alcotest.test_case "g2 g3 g4 formulas" `Quick test_g2_g3_g4_formulas;
          Alcotest.test_case "paper cycle forms" `Quick test_paper_cycle_forms;
          Alcotest.test_case "swap and not" `Quick test_swap_and_not;
          Alcotest.test_case "peres = toffoli ; cnot" `Quick
            test_peres_is_cnot_after_toffoli;
          Alcotest.test_case "errors" `Quick test_gate_errors;
        ] );
      ( "spec",
        [
          Alcotest.test_case "names" `Quick test_spec_names;
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "output list edge cases match the reference" `Quick
            test_spec_output_list_edges;
        ] );
      ("spec oracle", spec_oracle_props);
    ]
