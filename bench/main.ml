(* Paper-reproduction report: regenerates every table and figure of the
   paper — Table 1, Table 2, Figures 4-9, the Section 5 group results and
   the Peres/Toffoli timing ratio — followed by the extension experiments
   of EXPERIMENTS.md (X1 closure spectrum, X2 two-qubit census, X3
   Fredkin, X4 weighted costs, X6 classical libraries, X9 behaviour
   synthesis, X5 ablation) and the Section 4 controlled coin.  Writes
   nothing; exits non-zero when the X1 spectrum check fails.  Performance is measured by perfbench/.

   Paper: Yang, Hung, Song, Perkowski, "Exact Synthesis of 3-qubit Quantum
   Circuits from Non-binary Quantum Gates Using Multiple-Valued Logic and
   Group Theory" (DATE 2005).

   Run with: dune exec bench/main.exe *)

open Synthesis

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let library2 = Library.make (Mvl.Encoding.make ~qubits:2)

let hr title = Format.printf "@.==== %s ====@." title

(* Table 1 *)

let reproduce_table1 () =
  hr "Table 1: 2-qubit controlled-V truth table";
  let gate = Gate.make Gate.Controlled_v ~target:1 ~control:0 in
  let rows =
    Mvl.Truth_table.labeled_rows ~order:Mvl.Truth_table.table1_order (Gate.apply gate)
  in
  Mvl.Truth_table.pp_table ~wires:[ "A"; "B" ] Format.std_formatter rows;
  let img = Array.make 16 0 in
  List.iter (fun (li, _, _, lo) -> img.(li - 1) <- lo - 1) rows;
  Format.printf "permutation: %a  (paper: (3,7,4,8))@." Permgroup.Perm.pp
    (Permgroup.Perm.of_array img)

(* Table 2 *)

let reproduce_table2 () =
  hr "Table 2: number of circuits with cost k";
  let census = Fmcf.run ~max_depth:7 library3 in
  let print_row label values =
    Format.printf "%-28s" label;
    List.iter (fun v -> Format.printf " %6d" v) values;
    Format.printf "@."
  in
  print_row "cost k" (List.map fst (Fmcf.counts census));
  print_row "|G[k]|  (as specified)" (List.map snd (Fmcf.counts census));
  print_row "|G[k]|  (paper variant)" (List.map snd (Fmcf.paper_counts census));
  print_row "paper's printed row" [ 1; 6; 30; 52; 84; 156; 398; 540 ];
  print_row "|S8[k]| (8 x as-specified)" (List.map snd (Fmcf.s8_counts census));
  Format.printf
    "note: 30 = 24 + 6 CNOTs re-derived as V*V (missed subtraction); 52 = 51 + \
     identity (G[0] never subtracted); costs >= 4 agree exactly.@.";
  census

(* Figures 4-8: the cost-4 family *)

let reproduce_figures_4_to_8 () =
  hr "Figures 4-8: Peres and the cost-4 family";
  let report name target printed =
    match Mce.express library3 target with
    | Some r ->
        let witnesses = Mce.distinct_witnesses library3 target in
        Format.printf "%s: %a  cost %d, %d distinct implementation(s), found %a@." name
          Reversible.Revfun.pp target r.Mce.cost witnesses Cascade.pp r.Mce.cascade;
        List.iter
          (fun s ->
            let c = Cascade.of_string ~qubits:3 s in
            Format.printf "  paper: %s  reasonable=%b implements=%b@." s
              (Cascade.is_reasonable library3 c)
              (Verify.cascade_implements ~qubits:3 c target))
          printed
    | None -> Format.printf "%s: NOT FOUND (unexpected)@." name
  in
  report "Fig 4 Peres g1" Reversible.Gates.g1 [ "VCB*FBA*VCA*V+CB" ];
  report "Fig 5 g2" Reversible.Gates.g2 [ "V+BC*FCA*VBA*VBC" ];
  report "Fig 6 g3" Reversible.Gates.g3 [ "VCB*FBA*V+CA*VCB" ];
  report "Fig 7 g4" Reversible.Gates.g4 [ "VCB*FBA*VCA*VCB" ];
  let fig4 = Cascade.of_string ~qubits:3 "VCB*FBA*VCA*V+CB" in
  let fig8 = Cascade.swap_v_dag fig4 in
  Format.printf
    "Fig 8: V<->V+ swap of Fig 4 = %a, implements Peres: %b (the paper's second \
     implementation)@."
    Cascade.pp fig8
    (Verify.cascade_implements ~qubits:3 fig8 Reversible.Gates.g1)

(* Figure 9: Toffoli *)

let reproduce_figure_9 () =
  hr "Figure 9: Toffoli implementations";
  let target = Reversible.Gates.toffoli3 in
  (* three tasks, one Mce.solve request each *)
  (match Mce.express library3 target with
  | Some r -> Format.printf "minimal cost %d: %a@." r.Mce.cost Cascade.pp r.Mce.cascade
  | None -> Format.printf "NOT FOUND (unexpected)@.");
  Format.printf "distinct implementations: %d (paper found 4)@."
    (Mce.distinct_witnesses library3 target);
  let all = Mce.all_realizations library3 target in
  Format.printf "all minimal cascades: %d, all exactly verified: %b@." (List.length all)
    (List.for_all (Verify.result_valid library3) all);
  List.iter
    (fun s ->
      let c = Cascade.of_string ~qubits:3 s in
      Format.printf "  paper (a-d): %s  implements=%b@." s
        (Verify.cascade_implements ~qubits:3 c target))
    [
      "FBA*V+CB*FBA*VCA*VCB";
      "FBA*VCB*FBA*V+CA*V+CB";
      "FAB*V+CA*FAB*VCA*VCB";
      "FAB*VCA*FAB*V+CA*V+CB";
    ]

let reproduce_figure_9_structure () =
  hr "Figure 9 discussion: symmetry structure of the minimal Toffoli set";
  let cascades =
    List.map (fun r -> r.Mce.cascade)
      (Mce.all_realizations library3 Reversible.Gates.toffoli3)
  in
  let groups = Equivalence.group_by_circuit library3 cascades in
  Format.printf "%d minimal cascades form %d circuit groups of sizes %s@."
    (List.length cascades) (List.length groups)
    (String.concat "," (List.map (fun g -> string_of_int (List.length g)) groups));
  Format.printf "closed under V<->V+ with %d distinct-partner pairs (paper: (a)/(b) and \
                 (c)/(d) are adjoint pairs)@."
    (Equivalence.vdag_closed library3 cascades / 2);
  let xor_sets =
    List.sort_uniq compare (List.map Equivalence.xor_wires cascades)
  in
  Format.printf "XOR wires used: %s (paper: 'two choices ... qubit A or qubit B')@."
    (String.concat " "
       (List.map
          (fun ws ->
            "{" ^ String.concat "," (List.map (fun w -> String.make 1 (Char.chr (Char.code 'A' + w))) ws) ^ "}")
          xor_sets));
  Format.printf "wire-relabeling orbits: %d (A <-> B symmetry pairs the cascades)@."
    (List.length (Equivalence.relabel_orbits ~qubits:3 cascades))

(* Section 5 group results *)

let reproduce_group_results census =
  hr "Section 5: G[4] split, universality, Theorem 2";
  let linear, family = Universality.split_g4 census in
  Format.printf "G[4]: %d Feynman-realizable + %d Peres-family (paper: 60 + 24)@."
    (List.length linear) (List.length family);
  let universal =
    List.filter
      (fun (m : Fmcf.member) -> Universality.is_universal m.Fmcf.func)
      family
  in
  Format.printf "universal members: %d of %d (paper: all 24, Size(M) = 40320)@."
    (List.length universal) (List.length family);
  let orbits =
    Universality.wire_orbits (List.map (fun (m : Fmcf.member) -> m.Fmcf.func) family)
  in
  Format.printf "wire-relabeling orbits: %s (paper: 4 families g1..g4 of 6)@."
    (String.concat " + " (List.map (fun o -> string_of_int (List.length o)) orbits));
  List.iteri
    (fun i orbit ->
      Format.printf "  orbit %d representative: %a@." (i + 1) Reversible.Revfun.pp
        (List.hd orbit))
    orbits;
  let g_size, h_size = Universality.theorem2_check ~bits:3 in
  Format.printf "|G| = %d, |S8| = %d (paper: 5040 and 40320)@." g_size h_size

(* Paper's timing experiment *)

(* One search takes a millisecond or less, so each is repeated until
   50 ms have passed and the mean per search is reported. *)
let mean_seconds search =
  let t0 = Unix.gettimeofday () in
  let rec go n =
    ignore (search ());
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed < 0.05 then go (n + 1) else elapsed /. float_of_int n
  in
  go 1

let reproduce_timing () =
  hr "Section 5 timings (paper: Peres 9 s, Toffoli 98 s on a 850 MHz P-III)";
  let peres = mean_seconds (fun () -> Mce.express library3 Reversible.Gates.g1) in
  let toffoli = mean_seconds (fun () -> Mce.express library3 Reversible.Gates.toffoli3) in
  Format.printf "this machine: Peres %.5fs, Toffoli %.5fs, ratio %.1fx (paper: %.1fx)@."
    peres toffoli (toffoli /. peres) (98.0 /. 9.0)

(* Extensions *)

let reproduce_two_qubit () =
  hr "Extension X2: 2-qubit census to closure";
  let census = Fmcf.run ~max_depth:6 library2 in
  List.iter
    (fun (k, n) -> if n > 0 then Format.printf "|G[%d]| = %d@." k n)
    (Fmcf.counts census);
  Format.printf "total: %d of %d zero-fixing functions@." (Fmcf.total_found census) 6

let reproduce_fredkin () =
  hr "Extension: Fredkin's exact cost (not in the paper)";
  match Mce.express library3 Reversible.Gates.fredkin3 with
  | Some r ->
      Format.printf "Fredkin: cost %d, cascade %a, verified %b@." r.Mce.cost Cascade.pp
        r.Mce.cascade
        (Verify.result_valid library3 r)
  | None -> Format.printf "Fredkin: not found within cb@."

let reproduce_weighted () =
  hr "Extension: synthesis under non-uniform gate costs (NMR-style models)";
  List.iter
    (fun (name, target) ->
      List.iter
        (fun model ->
          match Weighted.express ~max_cost:10 library3 ~model target with
          | Some r ->
              Format.printf "  %-14s %-10s cost %2d  %s@." (Cost_model.name model) name
                r.Mce.cost (Cascade.to_string r.Mce.cascade)
          | None -> Format.printf "  %-14s %-10s not found@." (Cost_model.name model) name)
        [ Cost_model.unit; Cost_model.v_cheap; Cost_model.feynman_cheap ])
    [ ("peres", Reversible.Gates.g1); ("toffoli", Reversible.Gates.toffoli3) ]

let reproduce_ablation () =
  hr "Ablation: census without the reasonable-product constraint (Definition 1)";
  let constrained = Fmcf.run ~max_depth:4 library3 in
  let unconstrained = Fmcf.run ~max_depth:4 (Library.unconstrained library3) in
  Format.printf "constrained |G[k]|  :";
  List.iter (fun (_, n) -> Format.printf " %4d" n) (Fmcf.counts constrained);
  Format.printf "@.unconstrained |G[k]|:";
  List.iter (fun (_, n) -> Format.printf " %4d" n) (Fmcf.counts unconstrained);
  Format.printf "@.";
  let unsound = ref 0 and first = ref None in
  Fmcf.iter_members unconstrained (fun ~cost:_ m ->
      let cascade = Fmcf.cascade_of_member unconstrained m in
      if not (Verify.cascade_implements ~qubits:3 cascade m.Fmcf.func) then begin
        incr unsound;
        if !first = None then first := Some (cascade, m.Fmcf.func)
      end);
  Format.printf
    "unsound members within depth 4: %d (their multiple-valued permutations are not \
     implemented by their cascades' unitaries) — the constraint is load-bearing@."
    !unsound;
  Option.iter
    (fun (cascade, func) ->
      Format.printf
        "unsound witness: %a claims %a in the multiple-valued model but its exact \
         unitary does not implement it — this is why Definition 1 bans mixed \
         control values.@."
        Cascade.pp cascade Reversible.Revfun.pp func)
    !first

(* X6: every classical library is a registry census universe.  Gate
   counts are its Fmcf levels run to closure; quantum costs its Weighted
   census under Cost_model.quantum (NOT 0, CNOT 1, Peres 4, Toffoli 5). *)
let reproduce_classical_libraries () =
  hr "Conclusion claim: Peres libraries beat Toffoli libraries";
  let pp_histogram ppf = List.iter (fun (k, n) -> Format.fprintf ppf " %d:%d" k n) in
  List.iter
    (fun name ->
      let library = Library.of_name name in
      let by_gates =
        List.filter (fun (_, n) -> n > 0) (Fmcf.counts (Fmcf.run ~max_depth:16 library))
      in
      let by_cost = Weighted.census ~max_cost:64 library ~model:Cost_model.quantum in
      let reachable = List.fold_left (fun acc (_, n) -> acc + n) 0 by_gates in
      let average histogram =
        float_of_int (List.fold_left (fun acc (k, n) -> acc + (k * n)) 0 histogram)
        /. float_of_int reachable
      in
      Format.printf
        "library %s (%d gates):@.  reachable functions: %d@.  by gate count:%a@.  \
         average gates: %.3f@.  by quantum cost:%a@.  average quantum cost: %.3f@."
        name (Library.size library) reachable pp_histogram by_gates (average by_gates)
        pp_histogram by_cost (average by_cost))
    [ "nc"; "nct"; "ncp" ];
  (* the paper's own formula notation for the Peres gate *)
  Format.printf "ANF of Peres (paper: P = A, Q = B xor A, R = C xor AB): %s@."
    (Reversible.Anf.describe Reversible.Gates.g1)

(* The exact spectrum of the zero-fixing universe (EXPERIMENTS.md X1):
   the census run to closure under the symmetry quotient, indexed, and
   every one of the 5040 functions answered from that index. *)
let x1_spectrum = [| 1; 6; 24; 51; 84; 156; 398; 540; 444; 1440; 552; 0; 1232; 112 |]

let reproduce_closure_census () =
  hr "X1: exact synthesis of all 5040 functions from the closure census";
  let index =
    Census_index.build (Fmcf.run ~max_depth:13 ~quotient:true library3)
  in
  let group =
    Universality.closure_of (Reversible.Gates.g1 :: Universality.cnots ~bits:3)
  in
  let histogram = Array.make (Array.length x1_spectrum) 0 in
  Permgroup.Closure.iter
    (fun p ->
      match Census_index.find index (Reversible.Revfun.of_perm ~bits:3 p) with
      | Some (cost, _) -> histogram.(cost) <- histogram.(cost) + 1
      | None -> failwith "closure index missed a zero-fixing function")
    group;
  Format.printf "exact costs:";
  Array.iteri (fun c n -> Format.printf " %d:%d" c n) histogram;
  if histogram <> x1_spectrum then
    failwith "closure census: spectrum differs from X1";
  Format.printf "@.matches X1: diameter 13, nothing at cost 11.@."

let reproduce_behavior () =
  hr "Section 6 program: synthesis from behaviour examples";
  let spec =
    Automata.Behavior.of_strings library3
      [ "000"; "001"; "010"; "011"; "1??"; "***"; "***"; "***" ]
  in
  match Automata.Behavior.synthesize library3 spec with
  | Some circuit ->
      Format.printf
        "observer spec 'input 4 measures 1,coin,coin' -> cheapest circuit %a (cost %d)@."
        Cascade.pp
        (Automata.Prob_circuit.cascade circuit)
        (Cascade.cost (Automata.Prob_circuit.cascade circuit))
  | None -> Format.printf "behavioural spec unrealizable (unexpected)@."

let reproduce_qrng () =
  hr "Section 4: probabilistic circuits (QRNG substitute)";
  let coin = Automata.Prob_circuit.controlled_coin library3 in
  let dist = Automata.Prob_circuit.output_distribution coin ~input:4 in
  Format.printf "controlled coin, armed: P(C=0) = %a, P(C=1) = %a (exact)@." Qsim.Prob.pp
    dist.(4) Qsim.Prob.pp dist.(5)

let () =
  Format.printf "Reproduction harness: exact 3-qubit quantum circuit synthesis@.";
  reproduce_table1 ();
  let census = reproduce_table2 () in
  reproduce_figures_4_to_8 ();
  reproduce_figure_9 ();
  reproduce_figure_9_structure ();
  reproduce_group_results census;
  reproduce_timing ();
  reproduce_two_qubit ();
  reproduce_fredkin ();
  reproduce_weighted ();
  reproduce_classical_libraries ();
  reproduce_closure_census ();
  reproduce_behavior ();
  reproduce_ablation ();
  reproduce_qrng ()
