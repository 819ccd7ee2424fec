(* Tests for the multiple-valued logic substrate: quaternary values,
   patterns, the paper's label encoding and truth tables. *)

open Mvl

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let quat = Alcotest.testable Quat.pp Quat.equal
let pattern = Alcotest.testable Pattern.pp Pattern.equal
let perm = Alcotest.testable Permgroup.Perm.pp Permgroup.Perm.equal

let qcheck_test ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let quat_gen = QCheck2.Gen.(map Quat.of_int (int_range 0 3))

(* Quat *)

let test_v_cycle () =
  (* V: 0 -> V0 -> 1 -> V1 -> 0, the square root of NOT on signal values. *)
  check quat "v 0" Quat.V0 (Quat.v Quat.Zero);
  check quat "v V0" Quat.One (Quat.v Quat.V0);
  check quat "v 1" Quat.V1 (Quat.v Quat.One);
  check quat "v V1" Quat.Zero (Quat.v Quat.V1)

let test_v_squared_is_not () =
  List.iter
    (fun value ->
      if Quat.is_binary value then
        check quat "v(v(x)) = not x" (Quat.not_ value) (Quat.v (Quat.v value)))
    Quat.all

let test_not_errors () =
  Alcotest.check_raises "not of V0"
    (Invalid_argument "Quat.not_: mixed value on a NOT input") (fun () ->
      ignore (Quat.not_ Quat.V0))

let test_quat_conversions () =
  List.iter
    (fun value ->
      check quat "int roundtrip" value (Quat.of_int (Quat.to_int value));
      check quat "string roundtrip" value (Quat.of_string (Quat.to_string value)))
    Quat.all;
  check quat "of_bool true" Quat.One (Quat.of_bool true);
  Alcotest.check_raises "of_int range" (Invalid_argument "Quat.of_int: out of range")
    (fun () -> ignore (Quat.of_int 4))

let test_state_vectors () =
  (* The quaternary values denote exact quantum states; check V0 = V|0>
     against the matrix substrate. *)
  let v0_vec = Quat.to_state_vector Quat.V0 in
  let expected =
    Qmath.Dmatrix.apply Qmath.Gate_matrix.v (Quat.to_state_vector Quat.Zero)
  in
  checkb "V0 = V|0>" true (Array.for_all2 Qmath.Dyadic.equal v0_vec expected);
  let v1_vec = Quat.to_state_vector Quat.V1 in
  let expected1 =
    Qmath.Dmatrix.apply Qmath.Gate_matrix.v (Quat.to_state_vector Quat.One)
  in
  checkb "V1 = V|1>" true (Array.for_all2 Qmath.Dyadic.equal v1_vec expected1)

let test_v0_equals_vdag1 () =
  (* The paper's collapse of six values to four: V0 = V+|1>, V1 = V+|0>. *)
  let vdag1 =
    Qmath.Dmatrix.apply Qmath.Gate_matrix.v_dag (Quat.to_state_vector Quat.One)
  in
  checkb "V0 = V+|1>" true
    (Array.for_all2 Qmath.Dyadic.equal (Quat.to_state_vector Quat.V0) vdag1);
  let vdag0 =
    Qmath.Dmatrix.apply Qmath.Gate_matrix.v_dag (Quat.to_state_vector Quat.Zero)
  in
  checkb "V1 = V+|0>" true
    (Array.for_all2 Qmath.Dyadic.equal (Quat.to_state_vector Quat.V1) vdag0)

let test_measure_probability () =
  check (Alcotest.pair Alcotest.int Alcotest.int) "P(1|V0) = 1/2" (1, 1)
    (Quat.measure_one_probability Quat.V0);
  check (Alcotest.pair Alcotest.int Alcotest.int) "P(1|1) = 1" (1, 0)
    (Quat.measure_one_probability Quat.One)

let quat_props =
  [
    qcheck_test "v_dag inverts v" quat_gen (fun x -> Quat.equal x (Quat.v_dag (Quat.v x)));
    qcheck_test "v inverts v_dag" quat_gen (fun x -> Quat.equal x (Quat.v (Quat.v_dag x)));
    qcheck_test "v has order 4" quat_gen (fun x ->
        Quat.equal x (Quat.v (Quat.v (Quat.v (Quat.v x)))));
    qcheck_test "state vectors normalized" quat_gen (fun x ->
        let vec = Quat.to_state_vector x in
        let total =
          Array.fold_left
            (fun acc a -> Qsim.Prob.add acc (Qsim.Prob.of_norm_sq (Qmath.Dyadic.norm_sq a)))
            Qsim.Prob.zero vec
        in
        Qsim.Prob.equal total Qsim.Prob.one);
  ]

(* Pattern *)

let test_binary_codes () =
  let p = Pattern.of_binary_code ~qubits:3 5 in
  check pattern "101" (Pattern.of_list [ Quat.One; Quat.Zero; Quat.One ]) p;
  check (Alcotest.option Alcotest.int) "roundtrip" (Some 5) (Pattern.to_binary_code p);
  check (Alcotest.option Alcotest.int) "mixed has no code" None
    (Pattern.to_binary_code (Pattern.of_list [ Quat.V0; Quat.Zero ]));
  Alcotest.check_raises "range" (Invalid_argument "Pattern.of_binary_code: out of range")
    (fun () -> ignore (Pattern.of_binary_code ~qubits:2 4))

let test_pattern_predicates () =
  let p = Pattern.of_list [ Quat.One; Quat.V0; Quat.Zero ] in
  checkb "not binary" false (Pattern.is_binary p);
  checkb "has one" true (Pattern.has_one p);
  checkb "mixed at 1" true (Pattern.is_mixed_at p 1);
  checkb "not mixed at 0" false (Pattern.is_mixed_at p 0);
  check Alcotest.int "signature" 2 (Pattern.mixed_signature p)

let test_pattern_set_pure () =
  let p = Pattern.of_list [ Quat.Zero; Quat.Zero ] in
  let q = Pattern.set p 0 Quat.One in
  checkb "original untouched" true (Quat.equal (Pattern.get p 0) Quat.Zero);
  checkb "updated" true (Quat.equal (Pattern.get q 0) Quat.One)

let test_pattern_all () =
  let all2 = Pattern.all ~qubits:2 in
  check Alcotest.int "4^2 patterns" 16 (List.length all2);
  (* sorted and first is 00 *)
  check pattern "first" (Pattern.of_list [ Quat.Zero; Quat.Zero ]) (List.hd all2);
  let rec sorted = function
    | a :: (b :: _ as rest) -> Pattern.compare a b < 0 && sorted rest
    | _ -> true
  in
  checkb "sorted" true (sorted all2)

(* Encoding *)

let test_encoding_one_qubit () =
  (* Degenerate width: only the patterns 0 and 1 are permutable (mixed
     one-wire patterns carry no One), and there are no 2-qubit gates. *)
  let e = Encoding.make ~qubits:1 in
  check Alcotest.int "two points" 2 (Encoding.size e);
  check Alcotest.int "no gates" 0
    (List.length (Synthesis.Gate.all ~qubits:1))

let test_encoding_sizes () =
  check Alcotest.int "n=2: 16-9+1" 8 (Encoding.size (Encoding.make ~qubits:2));
  check Alcotest.int "n=3: 64-27+1" 38 (Encoding.size (Encoding.make ~qubits:3));
  check Alcotest.int "n=4: 256-81+1" 176 (Encoding.size (Encoding.make ~qubits:4));
  (* the count a width check reads before enumerating any pattern *)
  for qubits = 1 to 6 do
    check Alcotest.int
      (Printf.sprintf "points ~qubits:%d" qubits)
      (Encoding.size (Encoding.make ~qubits))
      (Encoding.points ~qubits)
  done;
  check Alcotest.int "n=10: 4^10-3^10+1" 989_528 (Encoding.points ~qubits:10)

let test_encoding_binary_block () =
  let e = Encoding.make ~qubits:3 in
  for code = 0 to 7 do
    check (Alcotest.option Alcotest.int) "binary point is its code" (Some code)
      (Pattern.to_binary_code (Encoding.pattern e code))
  done

let test_encoding_excluded () =
  let e = Encoding.make ~qubits:3 in
  (* a pattern with V but no One is outside the permutable domain *)
  check (Alcotest.option Alcotest.int) "excluded" None
    (Encoding.point_of_pattern e (Pattern.of_list [ Quat.Zero; Quat.V0; Quat.Zero ]));
  (* but the all-zero pattern is point 0 *)
  check (Alcotest.option Alcotest.int) "all-zero kept" (Some 0)
    (Encoding.point_of_pattern e (Pattern.of_binary_code ~qubits:3 0))

let test_encoding_banned_sets () =
  (* The paper's banned sets, verbatim (1-based). *)
  let e = Encoding.make ~qubits:3 in
  let banned wire = List.map (fun p -> p + 1) (Encoding.banned_points e ~wire) in
  check (Alcotest.list Alcotest.int) "N_A"
    [ 25; 26; 27; 28; 29; 30; 31; 32; 33; 34; 35; 36; 37; 38 ]
    (banned 0);
  check (Alcotest.list Alcotest.int) "N_B"
    [ 11; 12; 17; 18; 19; 20; 21; 22; 23; 24; 30; 31; 37; 38 ]
    (banned 1);
  check (Alcotest.list Alcotest.int) "N_C"
    [ 9; 10; 13; 14; 15; 16; 19; 20; 23; 24; 28; 29; 35; 36 ]
    (banned 2)

let test_encoding_paper_perms () =
  (* The three permutations the paper prints in Section 3. *)
  let e = Encoding.make ~qubits:3 in
  let apply_gate kind target control p =
    match kind with
    | `V ->
        if Quat.equal (Pattern.get p control) Quat.One then
          Pattern.set p target (Quat.v (Pattern.get p target))
        else p
    | `Vdag ->
        if Quat.equal (Pattern.get p control) Quat.One then
          Pattern.set p target (Quat.v_dag (Pattern.get p target))
        else p
    | `F ->
        if
          Quat.equal (Pattern.get p control) Quat.One
          && Quat.is_binary (Pattern.get p target)
        then Pattern.set p target (Quat.not_ (Pattern.get p target))
        else p
  in
  let expect s kind target control =
    check perm s
      (Permgroup.Cycles.of_string ~degree:38 s)
      (Encoding.perm_of_action e (apply_gate kind target control))
  in
  expect "(5,17,7,21)(6,18,8,22)(13,19,15,23)(14,20,16,24)" `V 1 0;
  expect "(3,33,7,26)(4,34,8,27)(9,35,15,28)(10,36,16,29)" `Vdag 0 1;
  expect "(5,6)(7,8)(17,18)(21,22)" `F 2 0

let test_encoding_action_error () =
  let e = Encoding.make ~qubits:2 in
  Alcotest.check_raises "leaves domain"
    (Invalid_argument "Encoding.perm_of_action: image leaves the domain") (fun () ->
      ignore
        (Encoding.perm_of_action e (fun _ ->
             Pattern.of_list [ Quat.V0; Quat.Zero ])))

let encoding_props =
  let e3 = Encoding.make ~qubits:3 in
  [
    qcheck_test "point_of_pattern inverts pattern" QCheck2.Gen.(int_range 0 37)
      (fun point ->
        Encoding.point_of_pattern e3 (Encoding.pattern e3 point) = Some point);
    qcheck_test "signature matches pattern" QCheck2.Gen.(int_range 0 37) (fun point ->
        Encoding.mixed_signature e3 point
        = Pattern.mixed_signature (Encoding.pattern e3 point));
    qcheck_test "domain patterns have a One or are zero" QCheck2.Gen.(int_range 0 37)
      (fun point ->
        let p = Encoding.pattern e3 point in
        Pattern.has_one p || Pattern.to_binary_code p = Some 0);
  ]

(* Truth tables *)

let test_table1_order () =
  check Alcotest.int "16 rows" 16 (List.length Truth_table.table1_order);
  check pattern "row 5 is 0,V0"
    (Pattern.of_list [ Quat.Zero; Quat.V0 ])
    (List.nth Truth_table.table1_order 4);
  check pattern "row 9 is V0,0"
    (Pattern.of_list [ Quat.V0; Quat.Zero ])
    (List.nth Truth_table.table1_order 8)

let test_table1_ctrl_v () =
  (* Rebuild Table 1 and read off the paper's permutation (3,7,4,8). *)
  let ctrl_v p =
    if Quat.equal (Pattern.get p 0) Quat.One then
      Pattern.set p 1 (Quat.v (Pattern.get p 1))
    else p
  in
  let rows = Truth_table.labeled_rows ~order:Truth_table.table1_order ctrl_v in
  let img = Array.make 16 0 in
  List.iter (fun (li, _, _, lo) -> img.(li - 1) <- lo - 1) rows;
  check perm "(3,7,4,8)"
    (Permgroup.Cycles.of_string ~degree:16 "(3,7,4,8)")
    (Permgroup.Perm.of_array img)

let test_full_table () =
  let table = Truth_table.full_table ~qubits:2 (fun p -> p) in
  check Alcotest.int "16 rows" 16 (List.length table);
  checkb "identity rows" true (List.for_all (fun (a, b) -> Pattern.equal a b) table)

let test_labeled_rows_error () =
  (* An action leaving the row order cannot be labeled. *)
  Alcotest.check_raises "output missing"
    (Invalid_argument "Truth_table.labeled_rows: output pattern not in order")
    (fun () ->
      ignore
        (Truth_table.labeled_rows
           ~order:[ Pattern.of_list [ Quat.Zero ] ]
           (fun _ -> Pattern.of_list [ Quat.One ])))

let () =
  Alcotest.run "mvl"
    [
      ( "quat",
        [
          Alcotest.test_case "V cycle" `Quick test_v_cycle;
          Alcotest.test_case "V squared is NOT" `Quick test_v_squared_is_not;
          Alcotest.test_case "NOT rejects mixed" `Quick test_not_errors;
          Alcotest.test_case "conversions" `Quick test_quat_conversions;
          Alcotest.test_case "state vectors" `Quick test_state_vectors;
          Alcotest.test_case "V0 = V+|1>" `Quick test_v0_equals_vdag1;
          Alcotest.test_case "measurement" `Quick test_measure_probability;
        ] );
      ("quat properties", quat_props);
      ( "pattern",
        [
          Alcotest.test_case "binary codes" `Quick test_binary_codes;
          Alcotest.test_case "predicates" `Quick test_pattern_predicates;
          Alcotest.test_case "set is pure" `Quick test_pattern_set_pure;
          Alcotest.test_case "all" `Quick test_pattern_all;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "sizes" `Quick test_encoding_sizes;
          Alcotest.test_case "one qubit" `Quick test_encoding_one_qubit;
          Alcotest.test_case "binary block" `Quick test_encoding_binary_block;
          Alcotest.test_case "excluded patterns" `Quick test_encoding_excluded;
          Alcotest.test_case "paper banned sets" `Quick test_encoding_banned_sets;
          Alcotest.test_case "paper permutations" `Quick test_encoding_paper_perms;
          Alcotest.test_case "action error" `Quick test_encoding_action_error;
        ] );
      ("encoding properties", encoding_props);
      ( "truth_table",
        [
          Alcotest.test_case "table1 order" `Quick test_table1_order;
          Alcotest.test_case "table1 ctrl-V" `Quick test_table1_ctrl_v;
          Alcotest.test_case "full table" `Quick test_full_table;
          Alcotest.test_case "labeled rows error" `Quick test_labeled_rows_error;
        ] );
    ]
