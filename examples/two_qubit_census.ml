(* The method is generic in the number of qubits: rebuild everything for
   2 qubits.  The permutable domain shrinks to 8 patterns (16 - 9 + 1),
   the library to 6 gates, and the census runs to closure: all 4! = 24
   two-bit reversible functions split as |G[k]| over the 6 functions
   fixing 00, times the 4 NOT layers (Theorem 2 with n = 2).

   Also regenerates Table 1 (the 2-qubit controlled-V truth table).

   Run with: dune exec examples/two_qubit_census.exe *)

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
  let encoding = Mvl.Encoding.make ~qubits:2 in
  let library = Library.make encoding in
  Format.printf "2-qubit domain: %d patterns, library: %d gates@."
    (Mvl.Encoding.size encoding) (Library.size library);

  (* Table 1. *)
  let gate = Gate.make Gate.Controlled_v ~target:1 ~control:0 in
  let rows =
    Mvl.Truth_table.labeled_rows ~order:Mvl.Truth_table.table1_order (Gate.apply gate)
  in
  Mvl.Truth_table.pp_table ~wires:[ "A"; "B" ] Format.std_formatter rows;

  (* Census to closure: every 0-fixing 2-bit reversible function has a
     NOT-free realization; S3 has 6 elements. *)
  let census = Fmcf.run ~max_depth:6 library in
  List.iter (fun (k, n) -> Format.printf "|G[%d]| = %d@." k n) (Fmcf.counts census);
  Format.printf "total found: %d (the stabilizer of 00 in S4 has %d elements)@."
    (Fmcf.total_found census) 6;

  (* Costs of the three non-trivial named 2-bit circuits. *)
  List.iter
    (fun (name, target) ->
      match synthesize library target with
      | Some r ->
          Format.printf "%s: cost %d, cascade %s%a, verified %b@." name r.Mce.cost
            (if r.Mce.not_mask = 0 then ""
             else Printf.sprintf "NOT(mask=%d) * " r.Mce.not_mask)
            Cascade.pp r.Mce.cascade
            (Verify.result_valid library r)
      | None -> Format.printf "%s: not found@." name)
    [
      ("CNOT(B<-A)", Reversible.Gates.cnot ~bits:2 ~control:0 ~target:1);
      ("swap", Reversible.Gates.swap ~bits:2 ~wire1:0 ~wire2:1);
      ("NOT on A", Reversible.Gates.not_ ~bits:2 ~wire:0);
    ];

  (* Theorem 2 for n = 2. *)
  let g_size, h_size = Universality.theorem2_check ~bits:2 in
  Format.printf "Theorem 2 (n=2): |G| = %d, |S4| = %d = 4 x %d@." g_size h_size g_size
