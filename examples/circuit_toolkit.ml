(* Circuit toolkit tour: ASCII rendering and minimum-cost synthesis
   under non-uniform gate cost models (the paper's "easily modified to
   take into account the precise NMR costs" claim).

   Run with: dune exec examples/circuit_toolkit.exe *)

open Synthesis

(* [Mce.solve] answers a [Mce.Request.t]; a target held as a [Revfun.t]
   goes in as its truth-table output column, the one spec syntax every
   transport accepts. *)
let synthesize library target =
  let spec =
    String.concat ","
      (List.map string_of_int (Reversible.Revfun.output_column target))
  in
  Mce.Response.result_of
    (Mce.solve library
       (Mce.Request.make ~qubits:(Reversible.Revfun.bits target) spec))

let () =
  let library = Library.make (Mvl.Encoding.make ~qubits:3) in

  (* 1. Draw the paper's figures. *)
  let show name cascade =
    Format.printf "@.%s  (%s):@.%s@." name (Cascade.to_string cascade)
      (Draw.to_ascii ~qubits:3 cascade)
  in
  show "Figure 4, Peres" (Cascade.of_string ~qubits:3 "VCB*FBA*VCA*V+CB");
  show "Figure 9(a), Toffoli" (Cascade.of_string ~qubits:3 "FBA*V+CB*FBA*VCA*VCB");

  (* 2. Weighted synthesis: how the optimal circuit changes with the cost
     model. *)
  let report model target name =
    match Weighted.express ~max_cost:10 library ~model target with
    | Some r ->
        Format.printf "  %-14s %-16s cost %2d  %s@." (Cost_model.name model) name
          r.Mce.cost (Cascade.to_string r.Mce.cascade)
    | None -> Format.printf "  %-14s %-16s (not found)@." (Cost_model.name model) name
  in
  Format.printf "@.minimum costs under three gate-cost models:@.";
  List.iter
    (fun (name, target) ->
      List.iter
        (fun model -> report model target name)
        [ Cost_model.unit; Cost_model.v_cheap; Cost_model.feynman_cheap ])
    [
      ("peres", Reversible.Gates.g1);
      ("toffoli", Reversible.Gates.toffoli3);
      ("swap(A,B)", Reversible.Gates.swap ~bits:3 ~wire1:0 ~wire2:1);
    ];

  (* 3. The unit model agrees with the paper's BFS algorithms. *)
  let agreement =
    List.for_all
      (fun target ->
        match
          ( Weighted.express library ~model:Cost_model.unit target,
            synthesize library target )
        with
        | Some w, Some m -> Cascade.equal w.Mce.cascade m.Mce.cascade
        | _ -> false)
      [ Reversible.Gates.g1; Reversible.Gates.g2; Reversible.Gates.toffoli3 ]
  in
  Format.printf "@.unit-model weighted search agrees with the paper's BFS: %b@." agreement
