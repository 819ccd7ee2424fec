(* Tests for the toolkit extensions: cost models, weighted synthesis,
   ASCII drawing, and the no-pruning ablation. *)

open Synthesis

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let qcheck_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)

(* Cost_model *)

let test_cost_models () =
  let vba = Gate.of_name ~qubits:3 "VBA" in
  let fab = Gate.of_name ~qubits:3 "FAB" in
  check Alcotest.int "unit" 1 (Cost_model.gate_cost Cost_model.unit vba);
  check Alcotest.int "v-cheap V" 1 (Cost_model.gate_cost Cost_model.v_cheap vba);
  check Alcotest.int "v-cheap F" 2 (Cost_model.gate_cost Cost_model.v_cheap fab);
  check Alcotest.int "feynman-cheap V" 2
    (Cost_model.gate_cost Cost_model.feynman_cheap vba);
  check Alcotest.int "feynman-cheap F" 1
    (Cost_model.gate_cost Cost_model.feynman_cheap fab);
  check Alcotest.int "cascade cost" 6
    (Cost_model.cascade_cost Cost_model.v_cheap
       (Cascade.of_string ~qubits:3 "VBA*FAB*VCA*FBC"));
  check Alcotest.string "name" "unit" (Cost_model.name Cost_model.unit)

let test_cost_model_validation () =
  let broken = Cost_model.make ~name:"broken" (fun _ -> -1) in
  Alcotest.check_raises "negative"
    (Invalid_argument "Cost_model.gate_cost: negative cost") (fun () ->
      ignore (Cost_model.gate_cost broken (Gate.of_name ~qubits:3 "VBA")));
  (* a free gate is legal: the NOT layer of Theorem 2 costs nothing *)
  check Alcotest.int "free NOT" 0
    (Cost_model.gate_cost Cost_model.quantum (Gate.make_not ~target:0))

(* Weighted *)

let s8_sample n =
  let rng = Random.State.make [| 2005 |] in
  List.init n (fun _ ->
      let a = Array.init 8 Fun.id in
      for i = 7 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      Reversible.Revfun.of_perm ~bits:3 (Permgroup.Perm.of_array a))

(* At the unit model the levels are the BFS levels and the backward step
   is Search's, so the whole answer, cascade included, is Mce's. *)
let test_weighted_unit_matches_bfs () =
  let nct = Library.of_name "nct" in
  let same ?(realizable = false) library ~max_cost target =
    match
      ( Weighted.express ~max_cost library ~model:Cost_model.unit target,
        Mce.express ~max_depth:max_cost library target )
    with
    | Some w, Some m ->
        check Alcotest.int "unit model = BFS cost" m.Mce.cost w.Mce.cost;
        check Alcotest.int "NOT layer" m.Mce.not_mask w.Mce.not_mask;
        check Alcotest.string "BFS cascade" (Cascade.to_string m.Mce.cascade)
          (Cascade.to_string w.Mce.cascade);
        checkb "verified" true
          (Verify.cascade_implements ~qubits:3 ~not_mask:w.Mce.not_mask w.Mce.cascade target)
    | None, None when not realizable -> ()
    | _ -> Alcotest.fail "the searches disagree, or miss a realizable target"
  in
  List.iter (same ~realizable:true library3 ~max_cost:7)
    [
      Reversible.Gates.g1;
      Reversible.Gates.g2;
      Reversible.Gates.g3;
      Reversible.Gates.g4;
      Reversible.Gates.toffoli3;
      Reversible.Gates.cnot ~bits:3 ~control:1 ~target:2;
      Reversible.Gates.swap ~bits:3 ~wire1:0 ~wire2:2;
    ];
  let sample = s8_sample 100 in
  List.iter (same library3 ~max_cost:7) sample;
  List.iter (same nct ~max_cost:8) sample

let test_weighted_known_costs () =
  (* Minimal Toffoli circuits use 2 Feynman + 3 controlled gates, so the
     v-cheap optimum is 3*1 + 2*2 = 7 and the feynman-cheap optimum is
     2*1 + 3*2 = 8. *)
  (match Weighted.express library3 ~model:Cost_model.v_cheap Reversible.Gates.toffoli3 with
  | Some r -> check Alcotest.int "toffoli v-cheap" 7 r.Mce.cost
  | None -> Alcotest.fail "found");
  (match
     Weighted.express ~max_cost:9 library3 ~model:Cost_model.feynman_cheap
       Reversible.Gates.toffoli3
   with
  | Some r -> check Alcotest.int "toffoli feynman-cheap" 8 r.Mce.cost
  | None -> Alcotest.fail "found");
  (* swap = 3 CNOTs; no V-realization beats 3 Feynman gates even when V is
     cheap (6 = 3 * 2). *)
  match
    Weighted.express library3 ~model:Cost_model.v_cheap
      (Reversible.Gates.swap ~bits:3 ~wire1:0 ~wire2:1)
  with
  | Some r -> check Alcotest.int "swap v-cheap" 6 r.Mce.cost
  | None -> Alcotest.fail "found"

let test_weighted_identity_and_not () =
  (match Weighted.express library3 ~model:Cost_model.v_cheap (Reversible.Revfun.identity ~bits:3) with
  | Some r -> check Alcotest.int "identity" 0 r.Mce.cost
  | None -> Alcotest.fail "identity");
  match
    Weighted.express library3 ~model:Cost_model.v_cheap
      (Reversible.Revfun.xor_layer ~bits:3 6)
  with
  | Some r ->
      check Alcotest.int "free NOT" 0 r.Mce.cost;
      check Alcotest.int "mask" 6 r.Mce.not_mask
  | None -> Alcotest.fail "not layer"

(* nct has no free NOT layer: its NOT gates are priced like any other
   gate, so Weighted answers a bare NOT as Mce does. *)
let test_weighted_nct_not () =
  let nct = Library.of_name "nct" in
  let not_c = Reversible.Spec.parse ~bits:3 "1,0,3,2,5,4,7,6" in
  (match Weighted.express nct ~model:Cost_model.unit not_c with
  | Some r ->
      check Alcotest.int "priced NOT" 1 r.Mce.cost;
      check Alcotest.int "no free layer" 0 r.Mce.not_mask;
      check Alcotest.string "cascade" "NC" (Cascade.to_string r.Mce.cascade)
  | None -> Alcotest.fail "NOT reachable");
  match Mce.express nct not_c with
  | Some m -> check Alcotest.int "Mce agrees" 1 m.Mce.cost
  | None -> Alcotest.fail "NOT reachable"

(* A cost-0 gate's children land in the bucket being drained; they must
   be settled at that cost, not dropped. *)
let test_weighted_free_gates () =
  let nct = Library.of_name "nct" in
  let not_layer = Reversible.Revfun.xor_layer ~bits:3 5 in
  (match Weighted.express nct ~model:Cost_model.quantum not_layer with
  | Some r ->
      check Alcotest.int "NOT layer settled free" 0 r.Mce.cost;
      check Alcotest.int "two NOT gates" 2 (List.length r.Mce.cascade);
      checkb "replays" true
        (Verify.cascade_implements ~qubits:3 r.Mce.cascade not_layer)
  | None -> Alcotest.fail "NOT layer reachable");
  (* NOT 0, CNOT 1: the 8 NOT layers are free, one CNOT between them
     makes 48 functions *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "quantum census to cost 1" [ (0, 8); (1, 48) ]
    (Weighted.census ~max_cost:1 nct ~model:Cost_model.quantum)

let test_weighted_census () =
  (* Unit-model weighted census must equal the FMCF census. *)
  let agree name ~max_cost library =
    let bfs =
      List.filter (fun (_, n) -> n > 0) (Fmcf.counts (Fmcf.run ~max_depth:max_cost library))
    in
    check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
      name bfs
      (Weighted.census ~max_cost library ~model:Cost_model.unit)
  in
  agree "paper18 closure" ~max_cost:13 library3;
  agree "nct past closure" ~max_cost:9 (Library.of_name "nct");
  agree "4-wire paper18" ~max_cost:4 (Library.make (Mvl.Encoding.make ~qubits:4))

(* Four-wire spectra whose buckets pull from several earlier levels
   (v-cheap: V 1, Feynman 2; feynman-cheap the other way round) and
   settle cost-0 rounds (the quantum model's free NOT gates on nct). *)
let test_weighted_four_wires () =
  let pin name expected census =
    check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) name expected census
  in
  let paper4 = Library.make (Mvl.Encoding.make ~qubits:4) in
  pin "paper18 v-cheap to 8"
    [ (0, 1); (2, 12); (4, 96); (5, 96); (6, 542); (7, 1488); (8, 2826) ]
    (Weighted.census ~max_cost:8 paper4 ~model:Cost_model.v_cheap);
  pin "paper18 feynman-cheap to 6"
    [ (0, 1); (1, 12); (2, 96); (3, 542); (4, 2058); (5, 5316); (6, 7530) ]
    (Weighted.census ~max_cost:6 paper4 ~model:Cost_model.feynman_cheap);
  pin "nct quantum to 5"
    [ (0, 16); (1, 192); (2, 1536); (3, 8672); (4, 32928); (5, 85824) ]
    (Weighted.census ~max_cost:5 (Library.of_name ~qubits:4 "nct") ~model:Cost_model.quantum)

(* The bound sizes nothing: the search ends when the target is found or
   the universe closes, so a huge bound costs what the answer costs. *)
let test_weighted_huge_bound () =
  let before = (Gc.quick_stat ()).Gc.top_heap_words in
  (match
     Weighted.express ~max_cost:100_000_000 library3 ~model:Cost_model.unit
       Reversible.Gates.toffoli3
   with
  | Some r -> check Alcotest.int "toffoli" 5 r.Mce.cost
  | None -> Alcotest.fail "found");
  let grown = (Gc.quick_stat ()).Gc.top_heap_words - before in
  checkb (Printf.sprintf "heap grew by %d words" grown) true (grown < 10_000_000)

let test_weighted_census_v_cheap () =
  (* With v-cheap costs the cheapest non-trivial functions cost 2 (one
     Feynman = 2, or two V gates); nothing costs 1. *)
  let census = Weighted.census ~max_cost:4 library3 ~model:Cost_model.v_cheap in
  checkb "no cost-1 functions" true (not (List.mem_assoc 1 census));
  (match List.assoc_opt 2 census with
  | Some n -> checkb "cost-2 includes the 6 CNOTs" true (n >= 6)
  | None -> Alcotest.fail "cost 2 exists")

let weighted_props =
  [
    qcheck_test ~count:6 "weighted beats re-pricing the unit optimum"
      QCheck2.Gen.(pair (int_range 1 2) (int_range 1 2))
      (fun (v, f) ->
        let model = Cost_model.by_kind ~name:"random" ~v ~v_dag:v ~feynman:f in
        List.for_all
          (fun target ->
            match
              ( Weighted.express ~max_cost:10 library3 ~model target,
                Mce.express library3 target )
            with
            | Some weighted, Some unit_result ->
                (* the model-optimal cascade costs no more, under the
                   model, than the gate-count-optimal cascade does *)
                weighted.Mce.cost
                <= Cost_model.cascade_cost model unit_result.Mce.cascade
            | _ -> false)
          [ Reversible.Gates.g1; Reversible.Gates.cnot ~bits:3 ~control:1 ~target:0 ]);
  ]

let test_weighted_depth_bound () =
  checkb "bound respected" true
    (Weighted.express ~max_cost:4 library3 ~model:Cost_model.unit
       Reversible.Gates.toffoli3
    = None)

(* Draw *)

let test_draw_peres () =
  let peres = Cascade.of_string ~qubits:3 "VCB*FBA*VCA*V+CB" in
  check Alcotest.string "figure 4"
    "A: --------*-----*---------\n\
     B: --*----(+)----|-----*---\n\
     C: -[V]---------[V]---[V+]-"
    (Draw.to_ascii ~qubits:3 peres)

let test_draw_classical_peres () =
  (* the Peres gate as one column: A controls, B takes A, C takes AB *)
  check Alcotest.string "PCAB then P+CAB"
    "A: --*-----*---\n\
     B: -(+)---(+)--\n\
     C: -[P]---[P+]-"
    (Draw.to_ascii ~qubits:3 (Cascade.of_string ~qubits:3 "PCAB*P+CAB"))

let test_draw_not_mask () =
  (* not_mask is a code mask: 4 = wire A on 3 qubits. *)
  let drawing = Draw.to_ascii ~qubits:3 ~not_mask:4 [ Gate.of_name ~qubits:3 "FBA" ] in
  (match String.split_on_char '\n' drawing with
  | [ a; b; c ] ->
      checkb "A has the NOT box" true (String.length a > 3 && String.sub a 3 6 = "-[N]--");
      checkb "B has no NOT box" true (String.sub b 3 6 = "------");
      checkb "C has no NOT box" true (String.sub c 3 6 = "------")
  | _ -> Alcotest.fail "three wires expected")

let test_draw_labels () =
  let drawing =
    Draw.to_ascii ~qubits:2 ~labels:[ "ctl"; "tgt" ] [ Gate.of_name ~qubits:2 "FBA" ]
  in
  checkb "custom labels" true
    (String.length drawing > 3 && String.sub drawing 0 3 = "ctl");
  Alcotest.check_raises "label arity" (Invalid_argument "Draw.to_ascii: label count")
    (fun () -> ignore (Draw.to_ascii ~qubits:2 ~labels:[ "x" ] []))

let test_draw_crossing () =
  (* A gate between A and C must draw a crossing on B. *)
  let drawing = Draw.to_ascii ~qubits:3 [ Gate.of_name ~qubits:3 "VCA" ] in
  match String.split_on_char '\n' drawing with
  | [ _; b; _ ] -> checkb "crossing on B" true (String.contains b '|')
  | _ -> Alcotest.fail "three wires expected"

(* Ablation *)

let test_ablation_diverges_and_is_unsound () =
  let unconstrained = Fmcf.run ~max_depth:3 (Library.unconstrained library3) in
  let constrained = Fmcf.run ~max_depth:3 library3 in
  check Alcotest.int "constrained G[3]" 51
    (List.length (Fmcf.members_at constrained ~cost:3));
  check Alcotest.int "unconstrained G[3] is larger" 66
    (List.length (Fmcf.members_at unconstrained ~cost:3));
  (* Every extra member's witness fails exact verification... *)
  let constrained_funcs =
    List.map (fun (m : Fmcf.member) -> m.Fmcf.func) (Fmcf.members_at constrained ~cost:3)
  in
  let extras =
    List.filter
      (fun (m : Fmcf.member) ->
        not (List.exists (Reversible.Revfun.equal m.Fmcf.func) constrained_funcs))
      (Fmcf.members_at unconstrained ~cost:3)
  in
  checkb "extras exist" true (extras <> []);
  List.iter
    (fun (m : Fmcf.member) ->
      let cascade = Fmcf.cascade_of_member unconstrained m in
      checkb "unsound witness" false
        (Verify.cascade_implements ~qubits:3 cascade m.Fmcf.func))
    extras;
  (* ...while every constrained witness passes (soundness of Definition 1). *)
  List.iter
    (fun (m : Fmcf.member) ->
      let cascade = Fmcf.cascade_of_member constrained m in
      checkb "sound witness" true
        (Verify.cascade_implements ~qubits:3 cascade m.Fmcf.func))
    (Fmcf.members_at constrained ~cost:3)

(* Spectrum *)

let test_subadditivity_premise () =
  (* Concatenating witness cascades of two binary-preserving circuits is
     reasonable (the first ends with an empty mixed signature), and the
     restriction composes, so cost is subadditive over binary-preserving
     factors. *)
  let census = Fmcf.run ~max_depth:5 library3 in
  let witness target =
    match Fmcf.find census target with
    | Some m -> Fmcf.cascade_of_member census m
    | None -> Alcotest.fail "census member expected"
  in
  let toffoli = witness Reversible.Gates.toffoli3 in
  let peres = witness Reversible.Gates.g1 in
  let combined = toffoli @ peres in
  checkb "concatenation reasonable" true (Cascade.is_reasonable library3 combined);
  match Cascade.restriction library3 combined with
  | Some f ->
      checkb "restriction composes" true
        (Reversible.Revfun.equal f
           (Reversible.Revfun.compose Reversible.Gates.toffoli3 Reversible.Gates.g1))
  | None -> Alcotest.fail "combined cascade restricts"

(* Equivalence *)

let toffoli_cascades =
  lazy
    (List.map
       (fun r -> r.Mce.cascade)
       (Mce.all_realizations library3 Reversible.Gates.toffoli3))

let test_equivalence_fig9_structure () =
  let cascades = Lazy.force toffoli_cascades in
  let groups = Equivalence.group_by_circuit library3 cascades in
  check Alcotest.int "4 circuit groups" 4 (List.length groups);
  List.iter (fun g -> check Alcotest.int "10 orderings each" 10 (List.length g)) groups;
  (* closed under V <-> V+, every cascade has a distinct partner *)
  check Alcotest.int "all vdag-paired" 40 (Equivalence.vdag_closed library3 cascades);
  (* the XOR wire is A or B, never C — the paper's observation *)
  List.iter
    (fun cascade ->
      match Equivalence.xor_wires cascade with
      | [ w ] -> checkb "xor on A or B" true (w = 0 || w = 1)
      | _ -> Alcotest.fail "exactly one XOR wire expected")
    cascades;
  (* relabeling A <-> B maps minimal cascades to minimal cascades *)
  let orbits = Equivalence.relabel_orbits ~qubits:3 cascades in
  check Alcotest.int "20 orbits" 20 (List.length orbits);
  List.iter (fun o -> check Alcotest.int "pairs" 2 (List.length o)) orbits

let test_equivalence_basics () =
  let a = Cascade.of_string ~qubits:3 "VCB*FBA*VCA*V+CB" in
  let b = Cascade.of_string ~qubits:3 "V+CB*FBA*V+CA*VCB" in
  checkb "same function" true (Equivalence.same_function library3 a b);
  checkb "different circuits" false (Equivalence.same_circuit library3 a b);
  checkb "same circuit reflexive" true (Equivalence.same_circuit library3 a a);
  check (Alcotest.list Alcotest.int) "xor wires" [ 1 ] (Equivalence.xor_wires a)

let test_relabel_cascade () =
  let a = Cascade.of_string ~qubits:3 "VCB*FBA" in
  let swapped = Equivalence.relabel_cascade a [| 1; 0; 2 |] in
  check Alcotest.string "relabeled" "VCA*FAB" (Cascade.to_string swapped);
  checkb "bad sigma" true
    (match Equivalence.relabel_cascade a [| 0; 0; 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_vdag_not_closed () =
  checkb "open set rejected" true
    (match Equivalence.vdag_closed library3 [ Cascade.of_string ~qubits:3 "VBA" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Census_io *)

let test_census_io_roundtrip () =
  let census = Fmcf.run ~max_depth:4 library3 in
  let path = Filename.temp_file "qsynth_census" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Census_io.save census path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check Alcotest.string "format banner"
        "# qsynth census: cost <TAB> cycles <TAB> cascade" (List.hd lines);
      checkb "library header" true (List.mem "# library: paper18" lines);
      (* one line per member: cost, the function's cycles, and a witness
         of that length that implements it *)
      let rows =
        List.filter_map
          (fun line ->
            if line = "" || line.[0] = '#' then None
            else
              match String.split_on_char '\t' line with
              | [ cost; cycles; cascade ] ->
                  let cascade = Cascade.of_string ~qubits:3 cascade in
                  check Alcotest.int "cost is the witness length" (int_of_string cost)
                    (Cascade.cost cascade);
                  checkb "witness is reasonable" true (Cascade.is_reasonable library3 cascade);
                  (match Cascade.restriction library3 cascade with
                  | Some f ->
                      check Alcotest.string "witness implements the function" cycles
                        (Format.asprintf "%a" Reversible.Revfun.pp f)
                  | None -> Alcotest.fail "witness is not a function");
                  Some (cycles, int_of_string cost)
              | _ -> Alcotest.failf "malformed line %S" line)
          lines
      in
      check Alcotest.int "one line per member" (Fmcf.total_found census) (List.length rows);
      (* the recorded costs agree with the census *)
      List.iter
        (fun target ->
          let cycles = Format.asprintf "%a" Reversible.Revfun.pp target in
          match (List.assoc_opt cycles rows, Fmcf.find census target) with
          | Some cost, Some m -> check Alcotest.int "cost" m.Fmcf.cost cost
          | None, None -> ()
          | _ -> Alcotest.fail "saved file disagrees with census")
        [ Reversible.Gates.g1; Reversible.Gates.toffoli3;
          Reversible.Gates.cnot ~bits:3 ~control:2 ~target:0 ])

let () =
  Alcotest.run "toolkit"
    [
      ( "cost_model",
        [
          Alcotest.test_case "canned models" `Quick test_cost_models;
          Alcotest.test_case "validation" `Quick test_cost_model_validation;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "unit model matches BFS" `Quick
            test_weighted_unit_matches_bfs;
          Alcotest.test_case "known weighted costs" `Quick test_weighted_known_costs;
          Alcotest.test_case "identity and NOT layers" `Quick
            test_weighted_identity_and_not;
          Alcotest.test_case "unit census matches" `Quick test_weighted_census;
          Alcotest.test_case "v-cheap census" `Quick test_weighted_census_v_cheap;
          Alcotest.test_case "cost bound" `Quick test_weighted_depth_bound;
          Alcotest.test_case "huge cost bound" `Quick test_weighted_huge_bound;
          Alcotest.test_case "nct NOT is priced" `Quick test_weighted_nct_not;
          Alcotest.test_case "cost-0 gates settle" `Quick test_weighted_free_gates;
          Alcotest.test_case "four-wire spectra" `Quick test_weighted_four_wires;
        ] );
      ("weighted properties", weighted_props);
      ( "draw",
        [
          Alcotest.test_case "peres figure" `Quick test_draw_peres;
          Alcotest.test_case "classical Peres" `Quick test_draw_classical_peres;
          Alcotest.test_case "NOT layer" `Quick test_draw_not_mask;
          Alcotest.test_case "labels" `Quick test_draw_labels;
          Alcotest.test_case "crossing" `Quick test_draw_crossing;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "pruning is what makes FMCF sound" `Slow
            test_ablation_diverges_and_is_unsound;
        ] );
      ( "spectrum",
        [
          Alcotest.test_case "subadditivity premise" `Quick test_subadditivity_premise;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "figure 9 structure" `Slow test_equivalence_fig9_structure;
          Alcotest.test_case "basics" `Quick test_equivalence_basics;
          Alcotest.test_case "relabel cascade" `Quick test_relabel_cascade;
          Alcotest.test_case "vdag closure check" `Quick test_vdag_not_closed;
        ] );
      ( "census_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_census_io_roundtrip;
        ] );
    ]
