(* Exact synthesis of EVERY 3-bit reversible function: run the census to
   closure (depth 13, the diameter of the zero-fixing universe) under the
   symmetry quotient, index it, and answer each of the 5040 NOT-free
   functions with a minimal cascade from the complete index.

   The closure census takes well under a second; its histogram is the
   exact cost spectrum (EXPERIMENTS.md X1), including the empty level at
   cost 11.

   Run with: dune exec examples/full_synthesis.exe *)

open Synthesis

let () =
  let library = Library.make (Mvl.Encoding.make ~qubits:3) in
  let t0 = Unix.gettimeofday () in
  let census = Fmcf.run ~max_depth:13 ~quotient:true library in
  let index = Census_index.build census in
  Format.printf "closure census + index: %d functions, complete=%b, %.2fs@."
    (Census_index.size index)
    (Census_index.is_complete index)
    (Unix.gettimeofday () -. t0);

  (* every element of G = zero-fixing functions, order 5040, answered
     through [Mce.solve] — the same call behind [qsynth synth --json] and
     the serve daemon *)
  let group =
    Universality.closure_of (Reversible.Gates.g1 :: Universality.cnots ~bits:3)
  in
  let t0 = Unix.gettimeofday () in
  let histogram = Array.make (Census_index.depth index + 1) 0 in
  let failures = ref 0 in
  let rng = Random.State.make [| 7 |] in
  let verified = ref 0 and sampled = ref 0 in
  Permgroup.Closure.iter
    (fun p ->
      let target = Reversible.Revfun.of_perm ~bits:3 p in
      let req =
        Mce.Request.make ~qubits:3 ~max_depth:13
          (String.concat ","
             (List.map string_of_int (Reversible.Revfun.output_column target)))
      in
      match Mce.Response.result_of (Mce.solve ~index library req) with
      | Some r ->
          histogram.(r.Mce.cost) <- histogram.(r.Mce.cost) + 1;
          (* exact verification on a 2% sample (each check multiplies
             exact 8x8 unitaries) *)
          if Random.State.int rng 50 = 0 then begin
            incr sampled;
            if Verify.result_valid library r then incr verified
          end
      | None -> incr failures)
    group;
  Format.printf "synthesized all %d functions in %.2fs (%d failures)@."
    (Permgroup.Closure.size group)
    (Unix.gettimeofday () -. t0)
    !failures;
  Format.printf "verified exactly: %d of %d sampled@." !verified !sampled;
  Format.printf "exact cost spectrum:";
  Array.iteri (fun c n -> Format.printf " %d:%d" c n) histogram;
  Format.printf "@.";
  let weighted = ref 0 in
  Array.iteri (fun c n -> weighted := !weighted + (c * n)) histogram;
  Format.printf "average minimal cost: %.2f, worst case %d@."
    (float_of_int !weighted /. 5040.0)
    (Census_index.depth index);

  List.iter
    (fun (name, target) ->
      match Census_index.find index target with
      | Some (cost, _) -> Format.printf "%s: exact cost %d@." name cost
      | None -> Format.printf "%s: missing from the index@." name)
    [
      ("peres", Reversible.Gates.g1);
      ("toffoli", Reversible.Gates.toffoli3);
      ("fredkin", Reversible.Gates.fredkin3);
    ]
