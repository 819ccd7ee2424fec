(* Reproduction of the paper's Section 5 synthesis experiments:
   Figures 4-9 — Peres (cost 4, two implementations), its Hermitian-adjoint
   form, the g2/g3/g4 circuits, and Toffoli (cost 5, four implementations).

   Every question goes through the unified query API: build a
   [Mce.Request.t], call [Mce.solve], read the typed [Mce.Response.t] —
   the same records [qsynth synth --json], [qsynth batch] and the
   [qsynth serve] daemon exchange as JSON.

   Run with: dune exec examples/toffoli_synthesis.exe *)

open Synthesis

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* A request for a target we already hold as a [Revfun.t]: hand [solve]
   the truth-table output column, the one spec syntax every transport
   accepts. *)
let request ?task target =
  Mce.Request.make ?task
    ~qubits:(Reversible.Revfun.bits target)
    (String.concat ","
       (List.map string_of_int (Reversible.Revfun.output_column target)))

let witness_count library target =
  match (Mce.solve library (request ~task:Mce.Request.Count_witnesses target)).body with
  | Ok { payload = Mce.Response.Witnesses { count }; _ } -> count
  | _ -> failwith "witness count failed"

let report library name target ~expected_cost ~paper_cascades =
  Format.printf "@.=== %s: %a ===@." name Reversible.Revfun.pp target;
  let response, elapsed = time (fun () -> Mce.solve library (request target)) in
  (match Mce.Response.result_of response with
  | None -> Format.printf "not found (unexpected)@."
  | Some r ->
      Format.printf "minimal cost %d (expected %d), %.3fs: %a@." r.Mce.cost expected_cost
        elapsed Cascade.pp r.Mce.cascade;
      Format.printf "exact verification: %b@." (Verify.result_valid library r));
  Format.printf "distinct minimal circuit permutations: %d@."
    (witness_count library target);
  List.iter
    (fun printed ->
      let cascade = Cascade.of_string ~qubits:3 printed in
      let ok =
        Cascade.is_reasonable library cascade
        && Verify.cascade_implements ~qubits:3 cascade target
      in
      Format.printf "paper's printed cascade %s: valid = %b@." printed ok)
    paper_cascades

let () =
  let library = Library.make (Mvl.Encoding.make ~qubits:3) in

  report library "Peres (g1, Figure 4)" Reversible.Gates.g1 ~expected_cost:4
    ~paper_cascades:[ "VCB*FBA*VCA*V+CB"; "V+CB*FBA*V+CA*VCB" ];

  (* Figure 8: the second Peres implementation is the V <-> V+ swap of the
     first — check the transformation reproduces it. *)
  let fig4 = Cascade.of_string ~qubits:3 "VCB*FBA*VCA*V+CB" in
  let fig8 = Cascade.swap_v_dag fig4 in
  Format.printf "Figure 8 from Figure 4 by swapping V/V+: %a, implements Peres: %b@."
    Cascade.pp fig8
    (Verify.cascade_implements ~qubits:3 fig8 Reversible.Gates.g1);

  report library "g2 (Figure 5)" Reversible.Gates.g2 ~expected_cost:4
    ~paper_cascades:[ "V+BC*FCA*VBA*VBC" ];
  report library "g3 (Figure 6)" Reversible.Gates.g3 ~expected_cost:4
    ~paper_cascades:[ "VCB*FBA*V+CA*VCB" ];
  report library "g4 (Figure 7)" Reversible.Gates.g4 ~expected_cost:4
    ~paper_cascades:[ "VCB*FBA*VCA*VCB" ];

  report library "Toffoli (Figure 9)" Reversible.Gates.toffoli3 ~expected_cost:5
    ~paper_cascades:
      [
        "FBA*V+CB*FBA*VCA*VCB";
        "FBA*VCB*FBA*V+CA*V+CB";
        "FAB*V+CA*FAB*VCA*VCB";
        "FAB*VCA*FAB*V+CA*V+CB";
      ];

  (* Enumerate every minimal Toffoli cascade (the paper stops at four
     witnesses; each witness admits several gate orderings). *)
  (match
     (Mce.solve library
        (request
           ~task:(Mce.Request.Enumerate { limit = 10_000 })
           Reversible.Gates.toffoli3))
       .body
   with
  | Ok { payload = Mce.Response.Realizations { cascades; complete; cost; _ }; _ } ->
      Format.printf "@.all minimal Toffoli cascades: %d (complete %b), all implement: %b@."
        (List.length cascades) complete
        (List.for_all
           (fun c ->
             Verify.cascade_implements ~qubits:3 c Reversible.Gates.toffoli3)
           cascades);
      ignore cost
  | _ -> Format.printf "@.enumeration failed (unexpected)@.");

  (* Fredkin needs NOT-free cost > 5; find its exact cost.  The response
     is also printed in its wire encoding — exactly the line [qsynth
     synth --json fredkin] emits and the daemon frames on the socket. *)
  let response, elapsed =
    time (fun () -> Mce.solve library (request Reversible.Gates.fredkin3))
  in
  (match Mce.Response.result_of response with
  | Some r ->
      Format.printf "@.Fredkin: minimal cost %d, %.3fs: %a, verified %b@." r.Mce.cost
        elapsed Cascade.pp r.Mce.cascade (Verify.result_valid library r)
  | None -> Format.printf "@.Fredkin: beyond the default depth bound@.");
  Format.printf "wire encoding: %s@." (Mce.Response.to_string response)
