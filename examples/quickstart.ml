(* Quickstart: synthesize a minimal-cost quantum circuit for the Toffoli
   gate and verify it against the exact unitary semantics.

   Run with: dune exec examples/quickstart.exe *)

open Synthesis

let () =
  (* 1. Build the multiple-valued encoding and compile the gate library:
     38 permutable patterns, 18 two-qubit gates for 3 qubits. *)
  let encoding = Mvl.Encoding.make ~qubits:3 in
  let library = Library.make encoding in
  Format.printf "domain: %d patterns, library: %d gates@." (Mvl.Encoding.size encoding)
    (Library.size library);

  (* 2. Pick a target reversible function.  Toffoli swaps the last two
     binary patterns: cycle (7,8) in the paper's 1-based labels. *)
  let target = Reversible.Gates.toffoli3 in
  Format.printf "target (Toffoli): %a@." Reversible.Revfun.pp target;

  (* 3. Synthesize with the paper's MCE algorithm: build a request (the
     spec is any syntax the CLI accepts, here a gate name) and solve it. *)
  let request = Mce.Request.make "toffoli" in
  (match Mce.Response.result_of (Mce.solve library request) with
  | Some result ->
      Format.printf "minimal cost: %d@." result.Mce.cost;
      Format.printf "cascade: %a@." Cascade.pp result.Mce.cascade;
      (* 4. Verify: simulate the cascade as a product of exact unitary
         matrices over the Gaussian-dyadic ring and compare with the
         target truth table.  No floating point, no tolerance. *)
      Format.printf "exact unitary verification: %b@."
        (Verify.result_valid library result)
  | None -> Format.printf "not synthesizable within the default depth@.");

  (* 5. Gates act on four-valued signals; look at one truth-table row:
     V_CA sends the binary pattern 1,0,0 to 1,0,V0. *)
  let vca = Gate.of_name ~qubits:3 "VCA" in
  let input = Mvl.Pattern.of_binary_code ~qubits:3 4 in
  Format.printf "V_CA: %a -> %a@." Mvl.Pattern.pp input Mvl.Pattern.pp
    (Gate.apply vca input);

  (* 6. The same gate as a permutation of the 38 patterns, in the paper's
     1-based cycle notation. *)
  Format.printf "V_CA as a permutation: %a@." Permgroup.Perm.pp
    (Library.perm_of_gate library vca)
