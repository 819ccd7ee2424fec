(* Tests for the core synthesis library: gates, the compiled library,
   cascades, the BFS engine, FMCF, MCE, universality and verification. *)

open Synthesis

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let perm = Alcotest.testable Permgroup.Perm.pp Permgroup.Perm.equal
let revfun = Alcotest.testable Reversible.Revfun.pp Reversible.Revfun.equal

let qcheck_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let encoding3 = Mvl.Encoding.make ~qubits:3
let library3 = Library.make encoding3

(* One shared depth-7 census: several suites read from it. *)
let census7 = lazy (Fmcf.run ~max_depth:7 library3)

let gate_gen =
  QCheck2.Gen.(
    map
      (fun i -> List.nth (Gate.all ~qubits:3) (abs i mod 18))
      int)

let cascade_gen = QCheck2.Gen.(list_size (int_range 0 6) gate_gen)

(* the paper's 18 gates plus every Peres and inverse-Peres placement *)
let gate_or_peres_gen =
  QCheck2.Gen.oneofl
    (Gate.all ~qubits:3
    @ List.filter
        (fun g -> match Gate.kind g with Gate.Peres | Gate.Peres_dag -> true | _ -> false)
        (Gate.ncp ~qubits:3))

(* Gate *)

let test_gate_all () =
  check Alcotest.int "18 gates for 3 qubits" 18 (List.length (Gate.all ~qubits:3));
  check Alcotest.int "6 gates for 2 qubits" 6 (List.length (Gate.all ~qubits:2));
  check Alcotest.int "36 gates for 4 qubits" 36 (List.length (Gate.all ~qubits:4))

let test_gate_names () =
  let vba = Gate.make Gate.Controlled_v ~target:1 ~control:0 in
  check Alcotest.string "VBA" "VBA" (Gate.name vba);
  check Alcotest.string "V+AB" "V+AB"
    (Gate.name (Gate.make Gate.Controlled_v_dag ~target:0 ~control:1));
  check Alcotest.string "FCA" "FCA"
    (Gate.name (Gate.make Gate.Feynman ~target:2 ~control:0));
  checkb "roundtrip" true (Gate.equal vba (Gate.of_name ~qubits:3 "VBA"));
  checkb "case insensitive" true (Gate.equal vba (Gate.of_name ~qubits:3 "vba"))

let test_gate_name_errors () =
  List.iter
    (fun s ->
      checkb s true
        (match Gate.of_name ~qubits:3 s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "XAB"; "V"; "VAD"; "VAA"; "FABC" ]

let test_gate_adjoint () =
  let vba = Gate.make Gate.Controlled_v ~target:1 ~control:0 in
  check Alcotest.string "adjoint kind" "V+BA" (Gate.name (Gate.adjoint vba));
  checkb "involution" true (Gate.equal vba (Gate.adjoint (Gate.adjoint vba)));
  let fab = Gate.make Gate.Feynman ~target:0 ~control:1 in
  checkb "feynman self-adjoint" true (Gate.equal fab (Gate.adjoint fab))

let test_gate_purity () =
  let vba = Gate.make Gate.Controlled_v ~target:1 ~control:0 in
  check (Alcotest.list Alcotest.int) "controlled purity" [ 0 ] (Gate.purity_wires vba);
  check Alcotest.int "mask" 1 (Gate.purity_mask vba);
  let fca = Gate.make Gate.Feynman ~target:2 ~control:0 in
  check (Alcotest.list Alcotest.int) "feynman purity" [ 0; 2 ] (Gate.purity_wires fca);
  check Alcotest.int "mask" 5 (Gate.purity_mask fca)

let test_gate_apply_dont_care () =
  let vba = Gate.make Gate.Controlled_v ~target:1 ~control:0 in
  let mixed_control = Mvl.Pattern.of_list [ Mvl.Quat.V0; Mvl.Quat.One; Mvl.Quat.Zero ] in
  checkb "mixed control is identity" true
    (Mvl.Pattern.equal mixed_control (Gate.apply vba mixed_control))

let test_gate_errors () =
  Alcotest.check_raises "same wire" (Invalid_argument "Gate.make: target equals control")
    (fun () -> ignore (Gate.make Gate.Feynman ~target:1 ~control:1))

let gate_props =
  [
    qcheck_test "name roundtrip" gate_gen (fun g ->
        Gate.equal g (Gate.of_name ~qubits:3 (Gate.name g)));
    qcheck_test "adjoint matrix is matrix adjoint" gate_or_peres_gen (fun g ->
        Qmath.Dmatrix.equal
          (Gate.matrix ~qubits:3 (Gate.adjoint g))
          (Qmath.Dmatrix.adjoint (Gate.matrix ~qubits:3 g)));
    qcheck_test "gate matrices unitary" gate_gen (fun g ->
        Qmath.Dmatrix.is_unitary (Gate.matrix ~qubits:3 g));
    qcheck_test "gate perm order divides 4" gate_gen (fun g ->
        let order = Permgroup.Perm.order (Library.perm_of_gate library3 g) in
        order = 1 || order = 2 || order = 4);
  ]

(* Library *)

let test_library_paper_perms () =
  let expect name cycles =
    check perm name
      (Permgroup.Cycles.of_string ~degree:38 cycles)
      (Library.perm_of_gate library3 (Gate.of_name ~qubits:3 name))
  in
  expect "VBA" "(5,17,7,21)(6,18,8,22)(13,19,15,23)(14,20,16,24)";
  expect "V+AB" "(3,33,7,26)(4,34,8,27)(9,35,15,28)(10,36,16,29)";
  expect "FCA" "(5,6)(7,8)(17,18)(21,22)"

let test_library_banned_sets () =
  let banned name =
    List.map (fun p -> p + 1) (Library.banned_set library3 (Gate.of_name ~qubits:3 name))
  in
  check (Alcotest.list Alcotest.int) "N_A for VBA"
    [ 25; 26; 27; 28; 29; 30; 31; 32; 33; 34; 35; 36; 37; 38 ]
    (banned "VBA");
  check (Alcotest.list Alcotest.int) "N_AB for FAB"
    [ 11; 12; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28; 29; 30; 31; 32; 33; 34;
      35; 36; 37; 38 ]
    (banned "FAB");
  check (Alcotest.list Alcotest.int) "N_BC for FCB"
    [ 9; 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20; 21; 22; 23; 24; 28; 29; 30; 31;
      35; 36; 37; 38 ]
    (banned "FCB")

let test_library_feynman_only () =
  check Alcotest.int "6 feynman gates" 6 (Library.size (Library.feynman_only library3))

let test_library_signature () =
  let entry = Library.entry_of_gate library3 (Gate.of_name ~qubits:3 "VBA") in
  checkb "pure signature allowed" true (Library.signature_allows ~signature:0 entry);
  checkb "mixed control banned" false (Library.signature_allows ~signature:1 entry);
  checkb "mixed elsewhere fine" true (Library.signature_allows ~signature:6 entry)

let test_library_gate_perms_fix_no_one_patterns () =
  (* Points outside the domain were dropped because gates fix them; inside
     the domain every gate must be a bijection (checked at build) and the
     all-zero point must be fixed by every gate. *)
  Array.iter
    (fun entry ->
      check Alcotest.int "zero fixed" 0 (Permgroup.Perm.apply entry.Library.perm 0))
    (Library.entries library3)

(* Cascade *)

let paper_peres = Cascade.of_string ~qubits:3 "VCB*FBA*VCA*V+CB"

let test_cascade_parse_print () =
  check Alcotest.string "roundtrip" "VCB*FBA*VCA*V+CB" (Cascade.to_string paper_peres);
  check Alcotest.int "cost 4" 4 (Cascade.cost paper_peres);
  checkb "empty" true (Cascade.equal [] (Cascade.of_string ~qubits:3 "()"));
  check Alcotest.string "empty prints" "()" (Cascade.to_string [])

let test_cascade_weighted_cost () =
  (* An NMR-style cost model: V gates cheaper than Feynman. *)
  let model =
    Cost_model.make ~name:"nmr" (fun g ->
        match Gate.kind g with Gate.Feynman -> 2 | _ -> 1)
  in
  check Alcotest.int "weighted" 5 (Cost_model.cascade_cost model paper_peres)

let test_cascade_restriction () =
  (match Cascade.restriction library3 paper_peres with
  | Some f -> check revfun "peres" Reversible.Gates.g1 f
  | None -> Alcotest.fail "peres cascade restricts");
  checkb "lone V has no restriction" true
    (Cascade.restriction library3 (Cascade.of_string ~qubits:3 "VBA") = None)

let test_cascade_reasonable () =
  checkb "paper peres reasonable" true (Cascade.is_reasonable library3 paper_peres);
  (* V_BA leaves B mixed on binary inputs; a Feynman on B then violates
     Definition 1. *)
  checkb "unreasonable detected" false
    (Cascade.is_reasonable library3 (Cascade.of_string ~qubits:3 "VBA*FBA"));
  checkb "empty reasonable" true (Cascade.is_reasonable library3 [])

let test_cascade_swap_v_dag () =
  check Alcotest.string "figure 8" "V+CB*FBA*V+CA*VCB"
    (Cascade.to_string (Cascade.swap_v_dag paper_peres));
  checkb "involution" true
    (Cascade.equal paper_peres (Cascade.swap_v_dag (Cascade.swap_v_dag paper_peres)))

let cascade_props =
  [
    qcheck_test "string roundtrip" cascade_gen (fun c ->
        Cascade.equal c (Cascade.of_string ~qubits:3 (Cascade.to_string c)));
    qcheck_test "adjoint inverts the permutation" cascade_gen (fun c ->
        Permgroup.Perm.equal
          (Cascade.perm_of library3 (Cascade.adjoint c))
          (Permgroup.Perm.inverse (Cascade.perm_of library3 c)));
    qcheck_test "adjoint inverts the unitary" ~count:40 cascade_gen (fun c ->
        Qmath.Dmatrix.equal
          (Cascade.unitary ~qubits:3 (Cascade.adjoint c))
          (Qmath.Dmatrix.adjoint (Cascade.unitary ~qubits:3 c)));
    qcheck_test "unitary is unitary" ~count:40 cascade_gen (fun c ->
        Qmath.Dmatrix.is_unitary (Cascade.unitary ~qubits:3 c));
    qcheck_test "perm compose splits" (QCheck2.Gen.pair cascade_gen cascade_gen)
      (fun (a, b) ->
        Permgroup.Perm.equal
          (Cascade.perm_of library3 (a @ b))
          (Permgroup.Perm.mul (Cascade.perm_of library3 a) (Cascade.perm_of library3 b)));
  ]

(* Search *)

(* States are binary-image vectors, so these are image counts per level
   (distinct images first reached with k gates). *)
let search_to ?(max_depth = max_int) library =
  let search = Search.create library in
  let rec go () =
    if Search.depth search < max_depth && Search.step_handles search <> [||] then go ()
  in
  go ();
  search

let test_search_levels () =
  let search = Search.create library3 in
  check Alcotest.int "B1" 18 (Array.length (Search.step_handles search));
  check Alcotest.int "B2" 144 (Array.length (Search.step_handles search));
  check Alcotest.int "B3" 633 (Array.length (Search.step_handles search));
  check Alcotest.int "size after 3 levels" (1 + 18 + 144 + 633) (Search.size search);
  (* the census bounds level k by the 7 - k mixed wires a state may
     still clear: levels 0..5 are whole (5,992 images; a bound of 2 or
     more binds nothing at 3 wires), level 6 keeps the 2,420 of its
     4,880 images mixed on at most one wire, and level 7 its 540
     functions of 9,876 *)
  check Alcotest.int "3 wires, depth 7" (5_992 + 2_420 + 540)
    (Search.size (Fmcf.search (Lazy.force census7)));
  let closure = search_to library3 in
  check Alcotest.int "paper18 diameter-13 images" 304
    (Array.length (Search.handles_at_depth closure 13));
  check Alcotest.int "paper18 closure states" 126_000 (Search.size closure);
  let library4 = Library.make (Mvl.Encoding.make ~qubits:4) in
  check Alcotest.int "4 wires, depth 5" 513_129
    (Search.size (search_to ~max_depth:5 library4))

(* The image of a cascade: where its point permutation sends each binary
   code. *)
let image_of_cascade cascade =
  let p = Cascade.perm_of library3 cascade in
  String.init (Mvl.Encoding.num_binary encoding3) (fun b ->
      Char.chr (Permgroup.Perm.apply p b))

let test_search_factorization () =
  let search = Fmcf.search (Lazy.force census7) in
  for d = 0 to Search.depth search do
    Array.iter
      (fun h ->
        let cascade = Search.cascade_of_handle search h in
        check Alcotest.int "cascade length = depth" d (Cascade.cost cascade);
        if Search.key_of_handle search h <> image_of_cascade cascade then
          Alcotest.failf "stored key differs from its cascade's image at depth %d" d;
        checkb "cascade reasonable" true (Cascade.is_reasonable library3 cascade))
      (Search.handles_at_depth search d)
  done

let test_search_all_cascades () =
  let search = Search.create library3 in
  ignore (Search.step_handles search);
  let key = Search.key_of_handle search (Search.step_handles search).(0) in
  let all = Search.all_cascades search key in
  checkb "non-empty" true (all <> []);
  checkb "recorded cascade among them" true
    (List.exists (Cascade.equal (Search.cascade_of_key search key)) all);
  List.iter
    (fun c ->
      check Alcotest.int "minimal length" 2 (Cascade.cost c);
      check Alcotest.string "same image" key (image_of_cascade c);
      checkb "reasonable" true (Cascade.is_reasonable library3 c))
    all

let test_search_restriction_of_key () =
  let search = Search.create library3 in
  let root = Search.key_of_handle search (Search.frontier_handles search).(0) in
  (match Search.restriction_of_key search root with
  | Some f -> checkb "root is identity" true (Reversible.Revfun.is_identity f)
  | None -> Alcotest.fail "root restricts");
  check (Alcotest.option Alcotest.int) "root depth" (Some 0)
    (Option.map (Search.depth_of_handle search) (Search.handle_of_key search root))

(* FMCF *)

let test_fmcf_counts () =
  let census = Lazy.force census7 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "as-specified counts"
    [ (0, 1); (1, 6); (2, 24); (3, 51); (4, 84); (5, 156); (6, 398); (7, 540) ]
    (Fmcf.counts census)

let test_fmcf_paper_counts () =
  let census = Lazy.force census7 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "paper's Table 2"
    [ (0, 1); (1, 6); (2, 30); (3, 52); (4, 84); (5, 156); (6, 398); (7, 540) ]
    (Fmcf.paper_counts census)

let test_fmcf_s8_counts () =
  let census = Lazy.force census7 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "Table 2 bottom row (as-specified semantics)"
    [ (0, 8); (1, 48); (2, 192); (3, 408); (4, 672); (5, 1248); (6, 3184); (7, 4320) ]
    (Fmcf.s8_counts census)

let test_fmcf_level1_is_cnots () =
  let census = Lazy.force census7 in
  let level1 = List.map (fun m -> m.Fmcf.func) (Fmcf.members_at census ~cost:1) in
  check Alcotest.int "6 members" 6 (List.length level1);
  List.iter
    (fun f -> checkb "is a cnot" true (List.exists (Reversible.Revfun.equal f) level1))
    (Universality.cnots ~bits:3)

let test_fmcf_total () =
  let census = Lazy.force census7 in
  check Alcotest.int "1260 functions within cost 7" 1260 (Fmcf.total_found census)

let test_fmcf_find () =
  let census = Lazy.force census7 in
  (match Fmcf.find census Reversible.Gates.toffoli3 with
  | Some m -> check Alcotest.int "toffoli cost 5" 5 m.Fmcf.cost
  | None -> Alcotest.fail "toffoli in census");
  (match Fmcf.find census Reversible.Gates.g1 with
  | Some m -> check Alcotest.int "peres cost 4" 4 m.Fmcf.cost
  | None -> Alcotest.fail "peres in census");
  match Fmcf.find census Reversible.Gates.fredkin3 with
  | Some m -> check Alcotest.int "fredkin cost 7" 7 m.Fmcf.cost
  | None -> Alcotest.fail "fredkin is within cost 7"

let test_fmcf_witnesses_verify () =
  (* Spot-check: the witness cascade of every cost<=4 member implements
     its function, exactly. *)
  let census = Lazy.force census7 in
  List.iter
    (fun cost ->
      List.iter
        (fun (m : Fmcf.member) ->
          let cascade = Fmcf.cascade_of_member census m in
          check Alcotest.int "cost matches" m.Fmcf.cost (Cascade.cost cascade);
          checkb "reasonable" true (Cascade.is_reasonable library3 cascade);
          checkb "implements" true
            (Verify.cascade_implements ~qubits:3 cascade m.Fmcf.func))
        (Fmcf.members_at census ~cost))
    [ 0; 1; 2; 3; 4 ]

let test_fmcf_members_fix_zero () =
  (* Theorem 2: NOT-free circuits all fix the all-zero pattern. *)
  let census = Lazy.force census7 in
  Fmcf.iter_members census (fun ~cost:_ m ->
      checkb "fixes zero" true (Reversible.Revfun.fixes_zero m.Fmcf.func))

(* MCE *)

let test_mce_identity () =
  match Mce.express library3 (Reversible.Revfun.identity ~bits:3) with
  | Some r ->
      check Alcotest.int "cost 0" 0 r.Mce.cost;
      check Alcotest.int "mask 0" 0 r.Mce.not_mask
  | None -> Alcotest.fail "identity expressible"

let test_mce_not_layer () =
  match Mce.express library3 (Reversible.Revfun.xor_layer ~bits:3 5) with
  | Some r ->
      check Alcotest.int "cost 0" 0 r.Mce.cost;
      check Alcotest.int "mask 5" 5 r.Mce.not_mask;
      checkb "valid" true (Verify.result_valid library3 r)
  | None -> Alcotest.fail "NOT layer expressible"

let test_mce_costs () =
  let expect name target cost =
    match Mce.express library3 target with
    | Some r ->
        check Alcotest.int (name ^ " cost") cost r.Mce.cost;
        checkb (name ^ " valid") true (Verify.result_valid library3 r)
    | None -> Alcotest.fail (name ^ " not expressible")
  in
  expect "cnot" (Reversible.Gates.cnot ~bits:3 ~control:0 ~target:1) 1;
  expect "swap AB" (Reversible.Gates.swap ~bits:3 ~wire1:0 ~wire2:1) 3;
  expect "peres" Reversible.Gates.g1 4;
  expect "g2" Reversible.Gates.g2 4;
  expect "g3" Reversible.Gates.g3 4;
  expect "g4" Reversible.Gates.g4 4;
  expect "toffoli" Reversible.Gates.toffoli3 5

let test_mce_with_not_layer () =
  (* A target that moves zero: NOT on A composed with CNOT. *)
  let target =
    Reversible.Revfun.compose
      (Reversible.Revfun.xor_layer ~bits:3 4)
      (Reversible.Gates.cnot ~bits:3 ~control:0 ~target:2)
  in
  match Mce.express library3 target with
  | Some r ->
      checkb "mask nonzero" true (r.Mce.not_mask <> 0);
      checkb "valid" true (Verify.result_valid library3 r)
  | None -> Alcotest.fail "expressible"

let test_mce_witness_counts () =
  check Alcotest.int "peres 2 witnesses" 2
    (Mce.distinct_witnesses library3 Reversible.Gates.g1);
  check Alcotest.int "toffoli 4 witnesses" 4
    (Mce.distinct_witnesses library3 Reversible.Gates.toffoli3)

(* Forward-plan answers come from the image-keyed arena: each must replay
   exactly as a unitary (Qsim), and Toffoli's witness is pinned. *)
let test_mce_forward_replay () =
  let forward spec =
    match
      Mce.Response.result_of
        (Mce.solve library3 (Mce.Request.make ~plan:Mce.Request.Forward spec))
    with
    | Some r -> r
    | None -> Alcotest.failf "%s: no forward answer" spec
  in
  List.iter
    (fun spec ->
      checkb (spec ^ " replays exactly") true
        (Verify.result_valid library3 (forward spec)))
    [
      "toffoli"; "peres"; "fredkin"; "0,1,3,2,4,5,7,6"; "0,2,1,3,4,6,5,7";
      "7,6,5,4,3,2,1,0";
    ];
  checkb "toffoli witness" true
    (Cascade.equal (forward "toffoli").Mce.cascade
       (Cascade.of_string ~qubits:3 "FAB*V+CA*FAB*VCB*VCA"))

let test_mce_all_realizations () =
  let results = Mce.all_realizations library3 Reversible.Gates.toffoli3 in
  check Alcotest.int "40 minimal toffoli cascades" 40 (List.length results);
  checkb "all cost 5" true (List.for_all (fun r -> r.Mce.cost = 5) results);
  checkb "all valid" true (List.for_all (Verify.result_valid library3) results);
  (* All four printed circuits of Figure 9 occur. *)
  List.iter
    (fun printed ->
      let cascade = Cascade.of_string ~qubits:3 printed in
      checkb printed true
        (List.exists (fun r -> Cascade.equal r.Mce.cascade cascade) results))
    [
      "FBA*V+CB*FBA*VCA*VCB";
      "FBA*VCB*FBA*V+CA*V+CB";
      "FAB*V+CA*FAB*VCA*VCB";
      "FAB*VCA*FAB*V+CA*V+CB";
    ]

(* The forward plan bounds level k by the max_depth - k mixed wires a
   state may still clear, and steps its last allowed level functions
   only.  At four wires, every 97th zero-fixing function of cost 4 is
   asked for at max_depth 4, where it sits in the functions-only level
   and levels 2 and 3 are bounded by 2 and 1, and at max_depth 5, where
   it sits in a level bounded by 1: the witness, the witness count and
   the enumerated cascades are the ones a search that stored every
   level whole reads for the same image. *)
let test_mce_four_wire_forward () =
  let library4 = Library.make (Mvl.Encoding.make ~qubits:4) in
  let full = search_to ~max_depth:4 library4 in
  let asked = ref 0 in
  let ask max_depth =
    Search.iter_functions full ~depth:4 (fun key off h ->
        if Bytes.get key off = '\000' && h mod 97 = 0 then begin
          incr asked;
          let image = Bytes.sub_string key off 16 in
          let spec =
            String.concat "," (List.init 16 (fun j -> string_of_int (Char.code image.[j])))
          in
          let solve task =
            (Mce.solve library4
               (Mce.Request.make ~qubits:4 ~plan:Mce.Request.Forward ~task ~max_depth spec))
              .Mce.Response.body
          in
          (match solve Mce.Request.Synthesize with
          | Ok { payload = Mce.Response.Synthesized { cascade; cost; _ }; _ } ->
              check Alcotest.int (spec ^ " cost") 4 cost;
              checkb (spec ^ " witness") true
                (Cascade.equal cascade (Search.cascade_of_key full image))
          | _ -> Alcotest.failf "%s: no forward answer" spec);
          (match solve Mce.Request.Count_witnesses with
          | Ok { payload = Mce.Response.Witnesses { count }; _ } ->
              check Alcotest.int (spec ^ " witness count")
                (Search.count_point_perms full image) count
          | _ -> Alcotest.failf "%s: no witness count" spec);
          match solve (Mce.Request.Enumerate { limit = 10_000 }) with
          | Ok { payload = Mce.Response.Realizations { cascades; _ }; _ } ->
              check Alcotest.int (spec ^ " realizations")
                (List.length (Search.all_cascades full image))
                (List.length cascades)
          | _ -> Alcotest.failf "%s: no realizations" spec
        end)
  in
  ask 4;
  ask 5;
  checkb "some functions asked" true (!asked > 0)

let test_mce_strip_not_layer () =
  let target = Reversible.Revfun.xor_layer ~bits:3 3 in
  let mask, remainder = Mce.strip_not_layer target in
  check Alcotest.int "mask" 3 mask;
  checkb "remainder identity" true (Reversible.Revfun.is_identity remainder)

let test_mce_depth_bound () =
  checkb "fredkin not found at depth 5" true
    (Mce.express ~max_depth:5 library3 Reversible.Gates.fredkin3 = None)

let mce_props =
  [
    qcheck_test ~count:25 "census costs agree with express"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let census = Lazy.force census7 in
        (* pick a pseudo-random member of a pseudo-random level *)
        let level = (seed mod 5) + 1 in
        let members = Fmcf.members_at census ~cost:level in
        let m = List.nth members (seed * 7 mod List.length members) in
        match Mce.express library3 m.Fmcf.func with
        | Some r -> r.Mce.cost = level && r.Mce.not_mask = 0
        | None -> false);
  ]

(* Universality *)

let test_split_g4 () =
  let census = Lazy.force census7 in
  let linear, family = Universality.split_g4 census in
  check Alcotest.int "60 linear" 60 (List.length linear);
  check Alcotest.int "24 family" 24 (List.length family)

let test_universality_of_family () =
  let census = Lazy.force census7 in
  let _, family = Universality.split_g4 census in
  checkb "all 24 universal" true
    (List.for_all (fun (m : Fmcf.member) -> Universality.is_universal m.Fmcf.func) family)

let test_non_universal () =
  checkb "cnot not universal" false
    (Universality.is_universal (Reversible.Gates.cnot ~bits:3 ~control:0 ~target:1));
  checkb "identity not universal" false
    (Universality.is_universal (Reversible.Revfun.identity ~bits:3));
  checkb "toffoli IS universal" true (Universality.is_universal Reversible.Gates.toffoli3)

let test_wire_orbits () =
  let census = Lazy.force census7 in
  let _, family = Universality.split_g4 census in
  let orbits =
    Universality.wire_orbits (List.map (fun (m : Fmcf.member) -> m.Fmcf.func) family)
  in
  check (Alcotest.list Alcotest.int) "4 orbits of 6" [ 6; 6; 6; 6 ]
    (List.map List.length orbits);
  (* g1..g4 land in distinct orbits *)
  let reps = [ Reversible.Gates.g1; Reversible.Gates.g2; Reversible.Gates.g3;
               Reversible.Gates.g4 ] in
  List.iter
    (fun g ->
      check Alcotest.int "each gi in exactly one orbit" 1
        (List.length (List.filter (List.exists (Reversible.Revfun.equal g)) orbits)))
    reps

let test_relabel_wires () =
  let sigma = [| 1; 0; 2 |] in
  let relabeled = Universality.relabel_wires (Reversible.Gates.cnot ~bits:3 ~control:0 ~target:1) sigma in
  check revfun "cnot relabeled" (Reversible.Gates.cnot ~bits:3 ~control:1 ~target:0) relabeled;
  let idperm = [| 0; 1; 2 |] in
  check revfun "identity relabel" Reversible.Gates.g1
    (Universality.relabel_wires Reversible.Gates.g1 idperm)

let test_linear_functions () =
  let linear = Universality.linear_functions ~bits:3 in
  check Alcotest.int "GL(3,2) order" 168 (Permgroup.Closure.size linear);
  checkb "toffoli not linear" false
    (Permgroup.Closure.mem linear (Reversible.Revfun.to_perm Reversible.Gates.toffoli3))

let test_theorem2 () =
  let g, h = Universality.theorem2_check ~bits:3 in
  check Alcotest.int "|G|" 5040 g;
  check Alcotest.int "|S8|" 40320 h;
  let g2, h2 = Universality.theorem2_check ~bits:2 in
  check Alcotest.int "|G| n=2" 6 g2;
  check Alcotest.int "|S4|" 24 h2

let test_group_order () =
  check Alcotest.int "<cnots, peres> = 5040" 5040
    (Universality.group_order ~bits:3
       (Reversible.Gates.g1 :: Universality.cnots ~bits:3));
  check Alcotest.int "<cnots> = 168" 168
    (Universality.group_order ~bits:3 (Universality.cnots ~bits:3))

(* Verify *)

let test_verify_paper_figures () =
  List.iter
    (fun (cascade, target) ->
      let c = Cascade.of_string ~qubits:3 cascade in
      checkb cascade true (Verify.cascade_implements ~qubits:3 c target);
      checkb (cascade ^ " mv-sound") true (Verify.mv_agrees_with_unitary library3 c))
    [
      ("VCB*FBA*VCA*V+CB", Reversible.Gates.g1);
      ("V+CB*FBA*V+CA*VCB", Reversible.Gates.g1);
      ("V+BC*FCA*VBA*VBC", Reversible.Gates.g2);
      ("VCB*FBA*V+CA*VCB", Reversible.Gates.g3);
      ("VCB*FBA*VCA*VCB", Reversible.Gates.g4);
      ("FBA*V+CB*FBA*VCA*VCB", Reversible.Gates.toffoli3);
      ("FBA*VCB*FBA*V+CA*V+CB", Reversible.Gates.toffoli3);
      ("FAB*V+CA*FAB*VCA*VCB", Reversible.Gates.toffoli3);
      ("FAB*VCA*FAB*V+CA*V+CB", Reversible.Gates.toffoli3);
    ]

let test_verify_negative () =
  (* A wrong cascade must be rejected. *)
  let c = Cascade.of_string ~qubits:3 "FBA" in
  checkb "cnot is not toffoli" false
    (Verify.cascade_implements ~qubits:3 c Reversible.Gates.toffoli3);
  (* A non-permutative cascade has no classical function. *)
  checkb "lone V not classical" true
    (Verify.classical_function ~qubits:3 (Cascade.of_string ~qubits:3 "VBA") = None)

let test_verify_not_mask () =
  let target = Reversible.Revfun.xor_layer ~bits:3 7 in
  checkb "pure NOT layer" true
    (Verify.cascade_implements ~qubits:3 ~not_mask:7 [] target)

let test_trajectory_purity () =
  let peres = paper_peres in
  checkb "binary input pure" true
    (Verify.trajectory_is_pure peres (Mvl.Pattern.of_binary_code ~qubits:3 7));
  (* input with V on wire B: the first gate V_CB needs B pure *)
  let mixed = Mvl.Pattern.of_list [ Mvl.Quat.One; Mvl.Quat.V0; Mvl.Quat.Zero ] in
  checkb "mixed control impure" false (Verify.trajectory_is_pure peres mixed)

(* Library plugins: the NCT/NFT classical universes behind the registry *)

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_classical_gate_names () =
  List.iter
    (fun s ->
      let g = Gate.of_name ~qubits:3 s in
      check Alcotest.string "name round-trip" s (Gate.name g))
    [ "NA"; "NB"; "NC"; "TABC"; "TBAC"; "TCAB"; "SAB"; "SBC"; "FRBCA"; "PCAB"; "PCBA";
      "P+CAB"; "P+ABC" ];
  (* canonicalization: controls and swapped pairs are order-insensitive *)
  checkb "Toffoli controls sorted" true
    (Gate.equal (Gate.of_name ~qubits:3 "TABC") (Gate.of_name ~qubits:3 "TACB"));
  checkb "Swap wires sorted" true
    (Gate.equal (Gate.of_name ~qubits:3 "SAB") (Gate.of_name ~qubits:3 "SBA"));
  checkb "Fredkin pair sorted" true
    (Gate.equal (Gate.of_name ~qubits:3 "FRBCA") (Gate.of_name ~qubits:3 "FRCBA"));
  (* classical gates are involutions *)
  List.iter
    (fun s ->
      let g = Gate.of_name ~qubits:3 s in
      checkb (s ^ " self-adjoint") true (Gate.equal g (Gate.adjoint g)))
    [ "NA"; "TABC"; "SAB"; "FRBCA" ];
  (* Peres controls are ordered, and its adjoint is the inverse kind *)
  checkb "Peres controls ordered" false
    (Gate.equal (Gate.of_name ~qubits:3 "PCAB") (Gate.of_name ~qubits:3 "PCBA"));
  check Alcotest.string "Peres adjoint" "P+CAB"
    (Gate.name (Gate.adjoint (Gate.of_name ~qubits:3 "PCAB")));
  check Alcotest.string "inverse Peres adjoint" "PCAB"
    (Gate.name (Gate.adjoint (Gate.of_name ~qubits:3 "P+CAB")))

let test_classical_gate_matrices () =
  (* Hand-computed permutation matrices over the computational basis,
     qubit 0 = most significant bit (A = 4, B = 2, C = 1). *)
  let expect name img =
    check
      (Alcotest.testable Qmath.Dmatrix.pp Qmath.Dmatrix.equal)
      name
      (Qmath.Dmatrix.permutation_matrix img)
      (Gate.matrix ~qubits:3 (Gate.of_name ~qubits:3 name))
  in
  expect "NA" [| 4; 5; 6; 7; 0; 1; 2; 3 |];
  expect "TCAB" [| 0; 1; 2; 3; 4; 5; 7; 6 |];
  expect "TABC" [| 0; 1; 2; 7; 4; 5; 6; 3 |];
  expect "SAB" [| 0; 1; 4; 5; 2; 3; 6; 7 |];
  expect "FRBCA" [| 0; 1; 2; 3; 4; 6; 5; 7 |];
  (* the paper's g1 = (5,7,6,8): P = A, Q = B xor A, R = C xor AB *)
  expect "PCAB" [| 0; 1; 2; 3; 6; 7; 5; 4 |];
  expect "P+CAB" [| 0; 1; 2; 3; 7; 6; 4; 5 |]

let test_library_registry () =
  check
    (Alcotest.list Alcotest.string)
    "registry names" [ "paper18"; "nct"; "nft"; "nc"; "ncp" ] Library.Registry.names;
  checkb "unknown name raises, listing the registry" true
    (match Library.of_name "bogus" with
    | exception Invalid_argument msg -> has_sub msg "paper18"
    | _ -> false);
  (* paper18 through the registry is the historical default library:
     same name, same structural fingerprint, coset reduction on. *)
  let p18 = Library.of_name "paper18" in
  check Alcotest.string "default name" Library.default_name (Library.name p18);
  check Alcotest.int64 "paper18 fingerprint unchanged"
    (Checkpoint.fingerprint library3) (Checkpoint.fingerprint p18);
  checkb "paper18 coset reduction" true (Library.coset_reduction p18);
  let nct = Library.of_name "nct" and nft = Library.of_name "nft" in
  check Alcotest.int "nct gate count" 12 (Library.size nct);
  check Alcotest.int "nft gate count" 18 (Library.size nft);
  checkb "nct full-group" false (Library.coset_reduction nct);
  checkb "nft full-group" false (Library.coset_reduction nft);
  (* fingerprints separate the universes — the checkpoint/index guard *)
  check Alcotest.int "three distinct fingerprints" 3
    (List.length
       (List.sort_uniq Int64.compare
          (List.map Checkpoint.fingerprint [ p18; nct; nft ])))

(* [qsynth libraries] prints each summary next to the instance's real
   qubit and gate columns, so a count written into a summary must match
   the instance at every width — at 4 qubits as much as at 3. *)
let test_library_summaries_match_instances () =
  let counts_in summary =
    (* every "<number><suffix>" pair, e.g. (12, " gates") *)
    let n = String.length summary in
    let rec go i acc =
      if i >= n then List.rev acc
      else if summary.[i] >= '0' && summary.[i] <= '9' then begin
        let j = ref i in
        while !j < n && summary.[!j] >= '0' && summary.[!j] <= '9' do
          incr j
        done;
        let rest = String.sub summary !j (min 7 (n - !j)) in
        go !j ((int_of_string (String.sub summary i (!j - i)), rest) :: acc)
      end
      else go (i + 1) acc
    in
    go 0 []
  in
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  List.iter
    (fun qubits ->
      List.iter
        (fun d ->
          let lib = Library.Registry.instantiate ~qubits d in
          let summary = Library.Registry.summary d in
          List.iter
            (fun (v, rest) ->
              let agrees what actual =
                if v <> actual then
                  Alcotest.failf "%s at %d qubits: summary says %d %s, instance has %d"
                    (Library.Registry.name d) qubits v what actual
              in
              if starts_with " gate" rest then agrees "gates" (Library.size lib)
              else if starts_with " qubit" rest then agrees "qubits" qubits
              else if starts_with "-point" rest then
                agrees "points" (Mvl.Encoding.size (Library.encoding lib)))
            (counts_in summary))
        Library.Registry.all)
    [ 3; 4 ]

(* Engine-verified published spectra: Shende et al. for NCT, Younes
   (arXiv:1304.5804) for NFT.  Both sum to |S8| = 40320 at full depth. *)
let test_nct_census () =
  let census = Fmcf.run ~max_depth:5 (Library.of_name "nct") in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "Shende spectrum to depth 5"
    [ (0, 1); (1, 12); (2, 102); (3, 625); (4, 2780); (5, 8921) ]
    (Fmcf.counts census);
  (* no free NOT layer: the S8 row is the counts themselves *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "s8_counts unscaled" (Fmcf.counts census) (Fmcf.s8_counts census)

let test_nft_census () =
  let census = Fmcf.run ~max_depth:7 (Library.of_name "nft") in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "Younes spectrum, full diameter 7"
    [ (0, 1); (1, 18); (2, 184); (3, 1318); (4, 6474); (5, 17695);
      (6, 14134); (7, 496) ]
    (Fmcf.counts census);
  check Alcotest.int "all of S8" 40320 (Fmcf.total_found census)

let test_nft_census_quotient_identical () =
  (* The wire-relabeling quotient is sound for the classical libraries
     too (their gate sets are wire-equivariant). *)
  let lib = Library.of_name "nft" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "quotient counts identical"
    (Fmcf.counts (Fmcf.run ~max_depth:4 lib))
    (Fmcf.counts (Fmcf.run ~max_depth:4 ~quotient:true lib))

let test_census_io_library_header () =
  let nct = Library.of_name "nct" in
  let census = Fmcf.run ~max_depth:2 nct in
  let path = Filename.temp_file "qsynth_census" ".tsv" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Census_io.save census path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  checkb "header records the library" true
    (List.exists (fun l -> l = "# library: nct") !lines);
  check Alcotest.int "one line per member" (Fmcf.total_found census)
    (List.length (List.filter (fun l -> l <> "" && l.[0] <> '#') !lines))

let test_checkpoint_names_library () =
  let path = Filename.temp_file "qsynth_ckpt" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Checkpoint.save (Search.create (Library.of_name "nct")) path;
  checkb "mismatch message names the loading library" true
    (match Checkpoint.load (Library.of_name "nft") path with
    | exception Checkpoint.Mismatch msg -> has_sub msg "nft"
    | _ -> false)

let () =
  Alcotest.run "synthesis"
    [
      ( "gate",
        [
          Alcotest.test_case "all" `Quick test_gate_all;
          Alcotest.test_case "names" `Quick test_gate_names;
          Alcotest.test_case "name errors" `Quick test_gate_name_errors;
          Alcotest.test_case "adjoint" `Quick test_gate_adjoint;
          Alcotest.test_case "purity" `Quick test_gate_purity;
          Alcotest.test_case "don't-care semantics" `Quick test_gate_apply_dont_care;
          Alcotest.test_case "errors" `Quick test_gate_errors;
        ] );
      ("gate properties", gate_props);
      ( "library",
        [
          Alcotest.test_case "paper permutations" `Quick test_library_paper_perms;
          Alcotest.test_case "paper banned sets" `Quick test_library_banned_sets;
          Alcotest.test_case "feynman sub-library" `Quick test_library_feynman_only;
          Alcotest.test_case "signature gating" `Quick test_library_signature;
          Alcotest.test_case "zero pattern fixed" `Quick
            test_library_gate_perms_fix_no_one_patterns;
        ] );
      ( "cascade",
        [
          Alcotest.test_case "parse and print" `Quick test_cascade_parse_print;
          Alcotest.test_case "weighted cost" `Quick test_cascade_weighted_cost;
          Alcotest.test_case "restriction" `Quick test_cascade_restriction;
          Alcotest.test_case "reasonable product" `Quick test_cascade_reasonable;
          Alcotest.test_case "swap V/V+" `Quick test_cascade_swap_v_dag;
        ] );
      ("cascade properties", cascade_props);
      ( "search",
        [
          Alcotest.test_case "level sizes" `Quick test_search_levels;
          Alcotest.test_case "factorization" `Quick test_search_factorization;
          Alcotest.test_case "all cascades" `Quick test_search_all_cascades;
          Alcotest.test_case "key utilities" `Quick test_search_restriction_of_key;
        ] );
      ( "fmcf",
        [
          Alcotest.test_case "as-specified counts" `Slow test_fmcf_counts;
          Alcotest.test_case "paper Table 2" `Slow test_fmcf_paper_counts;
          Alcotest.test_case "S8 row" `Slow test_fmcf_s8_counts;
          Alcotest.test_case "level 1 is the CNOTs" `Slow test_fmcf_level1_is_cnots;
          Alcotest.test_case "total found" `Slow test_fmcf_total;
          Alcotest.test_case "find" `Slow test_fmcf_find;
          Alcotest.test_case "witnesses verify" `Slow test_fmcf_witnesses_verify;
          Alcotest.test_case "members fix zero" `Slow test_fmcf_members_fix_zero;
        ] );
      ( "mce",
        [
          Alcotest.test_case "identity" `Quick test_mce_identity;
          Alcotest.test_case "NOT layer" `Quick test_mce_not_layer;
          Alcotest.test_case "known costs" `Quick test_mce_costs;
          Alcotest.test_case "with NOT layer" `Quick test_mce_with_not_layer;
          Alcotest.test_case "witness counts" `Quick test_mce_witness_counts;
          Alcotest.test_case "forward answers replay" `Quick test_mce_forward_replay;
          Alcotest.test_case "all realizations" `Quick test_mce_all_realizations;
          Alcotest.test_case "four wires, final level" `Quick test_mce_four_wire_forward;
          Alcotest.test_case "strip NOT layer" `Quick test_mce_strip_not_layer;
          Alcotest.test_case "depth bound" `Quick test_mce_depth_bound;
        ] );
      ("mce properties", mce_props);
      ( "universality",
        [
          Alcotest.test_case "G[4] split" `Slow test_split_g4;
          Alcotest.test_case "all 24 universal" `Slow test_universality_of_family;
          Alcotest.test_case "non-universal gates" `Quick test_non_universal;
          Alcotest.test_case "wire orbits" `Slow test_wire_orbits;
          Alcotest.test_case "relabel wires" `Quick test_relabel_wires;
          Alcotest.test_case "linear functions" `Quick test_linear_functions;
          Alcotest.test_case "theorem 2" `Quick test_theorem2;
          Alcotest.test_case "group orders" `Quick test_group_order;
        ] );
      ( "verify",
        [
          Alcotest.test_case "paper figures" `Quick test_verify_paper_figures;
          Alcotest.test_case "negatives" `Quick test_verify_negative;
          Alcotest.test_case "NOT mask" `Quick test_verify_not_mask;
          Alcotest.test_case "trajectory purity" `Quick test_trajectory_purity;
        ] );
      ( "library plugins",
        [
          Alcotest.test_case "classical gate names" `Quick
            test_classical_gate_names;
          Alcotest.test_case "classical gate matrices" `Quick
            test_classical_gate_matrices;
          Alcotest.test_case "registry" `Quick test_library_registry;
          Alcotest.test_case "summaries agree with 4-qubit instances" `Quick
            test_library_summaries_match_instances;
          Alcotest.test_case "NCT census (Shende)" `Slow test_nct_census;
          Alcotest.test_case "NFT census (Younes)" `Slow test_nft_census;
          Alcotest.test_case "NFT quotient identical" `Slow
            test_nft_census_quotient_identical;
          Alcotest.test_case "census file records library" `Quick
            test_census_io_library_header;
          Alcotest.test_case "checkpoint mismatch names library" `Quick
            test_checkpoint_names_library;
        ] );
    ]
