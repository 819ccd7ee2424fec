(* The formulation generalizes beyond the paper's 3 qubits: rebuild the
   whole machinery for 4 qubits.  The permutable pattern domain grows to
   256 - 81 + 1 = 176 points and the library to 36 gates; the search
   frontier grows accordingly, so this example stays at shallow depths
   (the paper's cb = 7 is specific to 3 qubits).

   Run with: dune exec examples/four_qubit.exe *)

open Synthesis

(* [Mce.solve] answers a [Mce.Request.t]; a target held as a [Revfun.t]
   goes in as its truth-table output column, the one spec syntax every
   transport accepts. *)
let synthesize ~max_depth library target =
  let spec =
    String.concat ","
      (List.map string_of_int (Reversible.Revfun.output_column target))
  in
  Mce.Response.result_of
    (Mce.solve library
       (Mce.Request.make ~qubits:(Reversible.Revfun.bits target) ~max_depth spec))

let () =
  let encoding = Mvl.Encoding.make ~qubits:4 in
  let library = Library.make encoding in
  Format.printf "4-qubit domain: %d patterns, library: %d gates@."
    (Mvl.Encoding.size encoding) (Library.size library);

  (* Census to depth 3: the frontier growth dwarfs the 3-qubit case. *)
  let t0 = Unix.gettimeofday () in
  let census = Fmcf.run ~max_depth:3 library in
  Format.printf "census to depth 3 (%.2fs): " (Unix.gettimeofday () -. t0);
  List.iter (fun (k, n) -> Format.printf "|G[%d]| = %d  " k n) (Fmcf.counts census);
  Format.printf "@.search states: %d (level 3 keeps only its functions)@."
    (Search.size (Fmcf.search census));

  (* Synthesis on the wider register: gates acting on any wire pair. *)
  List.iter
    (fun (name, target) ->
      match synthesize ~max_depth:3 library target with
      | Some r ->
          Format.printf "%s: cost %d, cascade %a, exact verification %b@." name
            r.Mce.cost Cascade.pp r.Mce.cascade
            (Verify.result_valid library r)
      | None -> Format.printf "%s: beyond depth 3@." name)
    [
      ("CNOT(D<-A)", Reversible.Gates.cnot ~bits:4 ~control:0 ~target:3);
      ("swap(B,D)", Reversible.Gates.swap ~bits:4 ~wire1:1 ~wire2:3);
      ("double CNOT",
        Reversible.Revfun.compose
          (Reversible.Gates.cnot ~bits:4 ~control:0 ~target:1)
          (Reversible.Gates.cnot ~bits:4 ~control:2 ~target:3));
    ];

  (* The paper's banned-set machinery scales with the encoding: check a
     couple of 4-qubit gates and their purity constraints. *)
  let vda = Gate.make Gate.Controlled_v ~target:3 ~control:0 in
  Format.printf "V_DA banned set size: %d of %d points@."
    (List.length (Library.banned_set library vda))
    (Mvl.Encoding.size encoding);

  (* Drawing works on any width. *)
  let cascade = Cascade.of_string ~qubits:4 "VDA*FCB*V+DA" in
  Format.printf "@.%s@." (Draw.to_ascii ~qubits:4 cascade);
  Format.printf "reasonable: %b@." (Cascade.is_reasonable library cascade);

  (* Toffoli embedded on 4 wires still costs 5 — synthesize its witness
     from the paper's 3-qubit answer lifted to 4 wires and verify. *)
  let lifted =
    List.map
      (fun g -> Gate.make (Gate.kind g) ~target:(Gate.target g) ~control:(Gate.control g))
      (Cascade.of_string ~qubits:3 "FBA*V+CB*FBA*VCA*VCB")
  in
  let toffoli4 = Reversible.Gates.toffoli ~bits:4 ~control1:0 ~control2:1 ~target:2 in
  Format.printf "@.3-qubit Toffoli cascade lifted to 4 wires implements Toffoli(A,B->C): %b@."
    (Verify.cascade_implements ~qubits:4 lifted toffoli4)
