(* Benchmark harness: regenerates every table and figure of the paper
   (printed first, with wall-clock timings), then runs one Bechamel
   micro-benchmark per experiment, and finally writes the machine-readable
   perf artifact BENCH_10.json (named experiment timings + bechamel
   estimates + parallel-census rows for jobs = 1/2/4 with the effective
   rank count + the checkpoint durability overhead row + quotient-vs-plain
   census rows at depths 7 and 8 + query-latency rows comparing the
   forward BFS, the persistent census index and the meet-in-the-middle
   engine + the complete-index section (closure census and index build,
   file size, heap vs mmap cold start, cost-8 probe p50/p99 against a
   warm meet-in-the-middle engine with a >= 100x p99 gate) +
   server-latency rows comparing a warm service against one-shot cold
   evaluation + the nft_census gate-library section timing Younes's NFT
   universe next to the paper's at depth 5 + the telemetry snapshot of
   the depth-7 census).  Each
   PR that moves performance appends BENCH_N.json in the same schema to
   track the perf trajectory; the schema is documented in
   doc/OBSERVABILITY.md.

   Paper: Yang, Hung, Song, Perkowski, "Exact Synthesis of 3-qubit Quantum
   Circuits from Non-binary Quantum Gates Using Multiple-Valued Logic and
   Group Theory" (DATE 2005).

   Run with: dune exec bench/main.exe   (set BENCH_OUT to change the path) *)

open Synthesis

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let library2 = Library.make (Mvl.Encoding.make ~qubits:2)

(* Every synthesis question in the harness goes through the unified
   query API — the same Request/Response pair the CLI and the daemon
   speak — so the timings here measure the code path users run. *)

let request ?task ?(max_depth = 7) target =
  let spec =
    String.concat ","
      (List.map string_of_int (Reversible.Revfun.output_column target))
  in
  Mce.Request.make ?task ~qubits:(Reversible.Revfun.bits target) ~max_depth spec

let express ?index ?bidir ?max_depth library target =
  Mce.Response.result_of (Mce.solve ?index ?bidir library (request ?max_depth target))

let witnesses library target =
  match
    (Mce.solve library (request ~task:Mce.Request.Count_witnesses target))
      .Mce.Response.body
  with
  | Ok { payload = Mce.Response.Witnesses { count }; _ } -> count
  | _ -> failwith "witness count failed"

let realizations ?(limit = 10_000) library target =
  match
    (Mce.solve library (request ~task:(Mce.Request.Enumerate { limit }) target))
      .Mce.Response.body
  with
  | Ok { payload = Mce.Response.Realizations { target; not_mask; cost; cascades; _ }; _ }
    ->
      List.map
        (fun cascade -> { Mce.target; not_mask; cascade; cost })
        cascades
  | Ok { payload = Mce.Response.Unrealizable _; _ } -> []
  | _ -> failwith "enumeration failed"

let time name f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  Format.printf "  [%-28s %8.3fs]@." name (Unix.gettimeofday () -. t0);
  result

(* Named experiment timings, accumulated for BENCH_1.json. *)
let timings : (string * float) list ref = ref []

let experiment name f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = Unix.gettimeofday () -. t0 in
  timings := (name, dt) :: !timings;
  result

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
  let census = time "FMCF census depth 7" (fun () -> Fmcf.run ~max_depth:7 library3) in
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
    let result = time (name ^ " MCE") (fun () -> express library3 target) in
    match result with
    | Some r ->
        let witnesses = witnesses library3 target in
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
  (* three tasks, one request shape each — the daemon's response cache
     is what replaces the old shared-query machinery *)
  (match time "Toffoli synthesis" (fun () -> express library3 target) with
  | Some r -> Format.printf "minimal cost %d: %a@." r.Mce.cost Cascade.pp r.Mce.cascade
  | None -> Format.printf "NOT FOUND (unexpected)@.");
  Format.printf "distinct implementations: %d (paper found 4)@."
    (witnesses library3 target);
  let all = realizations library3 target in
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
      (realizations library3 Reversible.Gates.toffoli3)
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
    time "24 universality checks" (fun () ->
        List.filter
          (fun (m : Fmcf.member) -> Universality.is_universal m.Fmcf.func)
          family)
  in
  Format.printf "universal members: %d of %d (paper: all 24, Size(M) = 40320)@."
    (List.length universal) (List.length family);
  let orbits =
    Universality.wire_orbits (List.map (fun (m : Fmcf.member) -> m.Fmcf.func) family)
  in
  Format.printf "wire-relabeling orbits: %s (paper: 4 families g1..g4 of 6)@."
    (String.concat " + " (List.map (fun o -> string_of_int (List.length o)) orbits));
  let g_size, h_size =
    time "Theorem 2 checks" (fun () -> Universality.theorem2_check ~bits:3)
  in
  Format.printf "|G| = %d, |S8| = %d (paper: 5040 and 40320)@." g_size h_size

(* Paper's timing experiment *)

let reproduce_timing () =
  hr "Section 5 timings (paper: Peres 9 s, Toffoli 98 s on a 850 MHz P-III)";
  let t0 = Unix.gettimeofday () in
  ignore (express library3 Reversible.Gates.g1);
  let peres = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  ignore (express library3 Reversible.Gates.toffoli3);
  let toffoli = Unix.gettimeofday () -. t0 in
  Format.printf "this machine: Peres %.3fs, Toffoli %.3fs, ratio %.1fx (paper: %.1fx)@."
    peres toffoli (toffoli /. peres) (98.0 /. 9.0)

(* Extensions *)

let reproduce_two_qubit () =
  hr "Extension X2: 2-qubit census to closure";
  let census = time "2-qubit census" (fun () -> Fmcf.run ~max_depth:6 library2) in
  List.iter
    (fun (k, n) -> if n > 0 then Format.printf "|G[%d]| = %d@." k n)
    (Fmcf.counts census);
  Format.printf "total: %d of %d zero-fixing functions@." (Fmcf.total_found census) 6

let reproduce_fredkin () =
  hr "Extension: Fredkin's exact cost (not in the paper)";
  match time "Fredkin MCE" (fun () -> express library3 Reversible.Gates.fredkin3) with
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
                r.Weighted.cost
                (Cascade.to_string r.Weighted.cascade)
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
  let unsound = ref 0 in
  Fmcf.iter_members unconstrained (fun ~cost:_ m ->
      if
        not
          (Verify.cascade_implements ~qubits:3
             (Fmcf.cascade_of_member unconstrained m)
             m.Fmcf.func)
      then incr unsound);
  Format.printf
    "unsound members within depth 4: %d (their multiple-valued permutations are not \
     implemented by their cascades' unitaries) — the constraint is load-bearing@."
    !unsound

let reproduce_rewrite () =
  hr "Extension: peephole rewriting";
  let bloated = Cascade.of_string ~qubits:3 "VBA*FCA*V+BA*FCB*FCB*VCA*VCA" in
  let slim = Rewrite.normalize bloated in
  Format.printf "%s (%d gates) -> %s (%d gates), unitary preserved: %b@."
    (Cascade.to_string bloated) (Cascade.cost bloated) (Cascade.to_string slim)
    (Cascade.cost slim)
    (Rewrite.equivalent_unitary ~qubits:3 bloated slim)

let reproduce_classical_libraries () =
  hr "Conclusion claim: Peres libraries beat Toffoli libraries";
  List.iter
    (fun library ->
      let result =
        time
          ("census " ^ library.Reversible.Classical_synth.label)
          (fun () -> Reversible.Classical_synth.census ~bits:3 library)
      in
      Format.printf "%a@." Reversible.Classical_synth.pp_result result)
    [
      Reversible.Classical_synth.ncp_linear;
      Reversible.Classical_synth.ncp_toffoli;
      Reversible.Classical_synth.ncp_peres;
    ];
  (* the paper's own formula notation for the Peres gate *)
  Format.printf "ANF of Peres (paper: P = A, Q = B xor A, R = C xor AB): %s@."
    (Reversible.Anf.describe Reversible.Gates.g1)

(* The exact spectrum of the zero-fixing universe (EXPERIMENTS.md X1):
   the census run to closure under the symmetry quotient, indexed, and
   every one of the 5040 functions answered from that index. *)
let x1_spectrum = [| 1; 6; 24; 51; 84; 156; 398; 540; 444; 1440; 552; 0; 1232; 112 |]

let reproduce_closure_census () =
  hr "X1: exact synthesis of all 5040 functions from the closure census";
  let t0 = Unix.gettimeofday () in
  let index =
    Census_index.build (Fmcf.run ~max_depth:13 ~quotient:true library3)
  in
  let build_t = Unix.gettimeofday () -. t0 in
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
  Format.printf "closure census + index %.3fs; exact costs:" build_t;
  Array.iteri (fun c n -> Format.printf " %d:%d" c n) histogram;
  if histogram <> x1_spectrum then
    failwith "closure census: spectrum differs from X1";
  Format.printf "@.matches X1: diameter 13, nothing at cost 11.@.";
  (index, build_t)

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
    dist.(4) Qsim.Prob.pp dist.(5);
  let machine =
    Automata.Qfsm.make
      ~circuit:
        (Automata.Prob_circuit.of_cascade library3
           (Cascade.of_string ~qubits:3 "VCA*VAB"))
      ~state_wires:[ 0 ] ~input_wires:[ 1 ] ~obs_wires:[ 2 ]
  in
  let hmm = Automata.Hmm.of_machine machine ~input:1 in
  let init = [| Qsim.Prob.half; Qsim.Prob.half |] in
  Format.printf "HMM forward P(obs = 101) = %a (exact dyadic)@." Qsim.Prob.pp
    (Automata.Hmm.forward hmm ~init ~observations:[ 1; 0; 1 ])

(* Parallel census: the BENCH_2 experiment.  Times the depth-7 census at
   jobs = 1, 2 and 4 and records the words allocated per run (the arena
   engine's allocation win over the boxed-node engine shows up here: the
   jobs=1 census allocates a few tens of Mwords where the string-keyed
   Hashtbl engine allocated one box and one key per state and probe).
   Every census row is identical across jobs — Search determinism. *)
let reproduce_parallel_census () =
  hr "Parallel census: depth 7 at jobs = 1, 2, 4";
  let reference = ref None in
  let g_jobs_eff = Telemetry.Gauge.create "search.jobs.effective" in
  List.map
    (fun jobs ->
      let g0 = Gc.quick_stat () in
      let t0 = Unix.gettimeofday () in
      (* The effective-jobs gauge is written by the engine per step;
         telemetry is scoped to this run so the gauge reflects the final
         (largest-frontier) level of exactly this census. *)
      Telemetry.set_enabled true;
      let census = Fmcf.run ~max_depth:7 ~jobs library3 in
      let effective = int_of_float (Telemetry.Gauge.value g_jobs_eff) in
      Telemetry.set_enabled false;
      let dt = Unix.gettimeofday () -. t0 in
      let g1 = Gc.quick_stat () in
      let words g = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
      let allocated = words g1 -. words g0 in
      let states = Search.size (Fmcf.search census) in
      let arena = Search.arena_bytes (Fmcf.search census) in
      let counts = Fmcf.counts census in
      (match !reference with
      | None -> reference := Some counts
      | Some expected ->
          if counts <> expected then
            failwith (Printf.sprintf "census diverged at jobs=%d" jobs));
      (* The BENCH_3 regression guard: adaptation must be live on every
         row.  Depth 7's deepest frontier is far above the per-rank
         chunk threshold, so the effective count must equal the request
         capped by the machine's recommended domain count — an
         oversubscribed rank count here is exactly the jobs=4 skew
         BENCH_3 recorded. *)
      let expected_eff = min jobs (Domain.recommended_domain_count ()) in
      if effective <> expected_eff then
        failwith
          (Printf.sprintf
             "effective-jobs adaptation inactive at jobs=%d: engine ran %d \
              ranks, expected %d"
             jobs effective expected_eff);
      timings := (Printf.sprintf "census-depth7/jobs=%d" jobs, dt) :: !timings;
      Format.printf
        "jobs=%d (effective %d): %7.3fs, %d states, %6.1f Mwords allocated, \
         %.1f MB arena@."
        jobs effective dt states (allocated /. 1e6)
        (float_of_int arena /. 1e6);
      (jobs, effective, dt, allocated, states, arena))
    [ 1; 2; 4 ]

(* Checkpoint durability overhead: the BENCH_3 experiment.  Times the
   depth-7 census with a snapshot written at every level boundary
   (--checkpoint-every 1: seven saves, the largest covering all ~660k
   states) against the plain census.  Snapshots store ~11 bytes of
   metadata per state (keys are replayed from the gate log on load) and
   are written by a background domain overlapping the next level's
   expansion, so the target is < 5% overhead.  The arms are interleaved
   (plain, checkpointed, plain, …) and each takes its best of 3, so both
   see the same heap history and machine drift. *)
let reproduce_checkpoint_overhead () =
  hr "Checkpoint overhead: depth-7 census at --checkpoint-every 1 vs none";
  let path = Filename.temp_file "qsynth_bench_ckpt" ".bin" in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let run_plain () = ignore (Fmcf.run ~max_depth:7 library3) in
  let bytes = ref 0 in
  let run_checkpointed () =
    let census, reason =
      Fmcf.run_guarded ~max_depth:7
        ~on_level:(fun search ~cost:_ -> Checkpoint.save_async search path)
        library3
    in
    Checkpoint.drain ();
    if reason <> Fmcf.Completed then failwith "guarded census stopped early";
    bytes := (Unix.stat path).Unix.st_size;
    ignore (Fmcf.counts census)
  in
  let plain = ref infinity and checkpointed = ref infinity in
  for _ = 1 to 3 do
    let p = timed run_plain in
    if p < !plain then plain := p;
    let c = timed run_checkpointed in
    if c < !checkpointed then checkpointed := c
  done;
  let plain = !plain and checkpointed = !checkpointed in
  Sys.remove path;
  let overhead = (checkpointed -. plain) /. plain in
  timings := ("checkpoint-depth7/every=1", checkpointed) :: !timings;
  timings := ("checkpoint-depth7/none", plain) :: !timings;
  Format.printf
    "plain: %7.3fs   checkpointed: %7.3fs   overhead: %+5.1f%%   snapshot: %.1f MB@."
    plain checkpointed (100. *. overhead)
    (float_of_int !bytes /. 1e6);
  (plain, checkpointed, overhead, !bytes)

(* Symmetry-quotiented census: the BENCH_7 experiment.  Runs the depth-7
   and depth-8 censuses plain and under --quotient behind the same 1 GiB
   arena guard, checks the function tables agree wherever both modes
   completed, and enforces the quotient's contract against the BENCH_2
   trajectory: the depth-7 quotient arena must hold at most 1/20 of the
   BENCH_2 state count (689,402 full-point states; the plain arena now
   keys states by binary image too) and beat the BENCH_2 jobs=1 baseline
   (0.82 s) by at least 5x.  Stop reasons are recorded as measured — a
   depth-8 run that trips the guard is reported as the partial run it
   is, not hidden. *)
let bench2_baseline_seconds = 0.82
let bench2_baseline_states = 689_402
let quotient_mem_guard = 1 lsl 30

let reproduce_quotient_census () =
  hr "Symmetry quotient: census plain vs --quotient at depths 7 and 8";
  let row ~depth ~quotient =
    let t0 = Unix.gettimeofday () in
    let census, reason =
      Fmcf.run_guarded ~max_depth:depth ~quotient ~max_mem:quotient_mem_guard
        library3
    in
    let dt = Unix.gettimeofday () -. t0 in
    let states = Search.size (Fmcf.search census) in
    let arena = Search.arena_bytes (Fmcf.search census) in
    let mode = if quotient then "quotient" else "plain" in
    timings := (Printf.sprintf "census-depth%d/%s" depth mode, dt) :: !timings;
    Format.printf "depth %d %-8s: %7.3fs, %8d states, %6.1f MB arena, %s@." depth
      mode dt states
      (float_of_int arena /. 1e6)
      (Fmcf.describe_stop reason);
    (depth, quotient, dt, states, arena, census, reason)
  in
  let rows =
    [
      row ~depth:7 ~quotient:false;
      row ~depth:7 ~quotient:true;
      row ~depth:8 ~quotient:false;
      row ~depth:8 ~quotient:true;
    ]
  in
  let census_of (_, _, _, _, _, c, _) = c in
  let raw7 = List.nth rows 0 and q7 = List.nth rows 1 in
  let (_, _, raw7_dt, raw7_states, _, _, raw7_reason) = raw7 in
  let (_, _, q7_dt, q7_states, _, _, q7_reason) = q7 in
  if raw7_reason <> Fmcf.Completed || q7_reason <> Fmcf.Completed then
    failwith "depth-7 census did not complete under the arena guard";
  if Fmcf.counts (census_of raw7) <> Fmcf.counts (census_of q7) then
    failwith "quotient census diverged from plain at depth 7";
  if q7_states * 20 > bench2_baseline_states then
    failwith
      (Printf.sprintf
         "quotient arena too large: %d states vs %d in BENCH_2 (need <= 1/20)"
         q7_states bench2_baseline_states);
  if q7_dt > bench2_baseline_seconds /. 5. then
    failwith
      (Printf.sprintf
         "quotient depth-7 census took %.3fs, need <= %.3fs (5x the BENCH_2 \
          jobs=1 baseline)"
         q7_dt
         (bench2_baseline_seconds /. 5.));
  let (_, _, _, _, _, _, q8_reason) = List.nth rows 3 in
  if q8_reason <> Fmcf.Completed then
    failwith "quotient depth-8 census did not complete under the arena guard";
  Format.printf
    "depth-7 reduction: %.1fx states, %.1fx time vs plain (%.0fx vs the BENCH_2 \
     baseline)@."
    (float_of_int raw7_states /. float_of_int (max 1 q7_states))
    (raw7_dt /. q7_dt)
    (bench2_baseline_seconds /. q7_dt);
  List.map (fun (d, q, dt, s, a, _, r) -> (d, q, dt, s, a, r)) rows

(* Query latency: the BENCH_4 experiment.  One synthesis question, three
   plans: the forward BFS of the paper, a binary search over the
   persistent census index (round-tripped through the QSYNIDX2 file so
   the timed path is what a CLI user loads, validation included in the
   load but not the lookup), and the meet-in-the-middle engine over a
   warm shared context (the realistic shape for the second and later
   queries of a session; the first query pays the forward wave).  Each
   row takes the best of several runs.  The cost-8 row has no forward or
   indexed column: that function is beyond the depth-7 horizon of both,
   which is the point of the bidirectional plan. *)
let reproduce_query_latency census =
  hr "Query latency: forward BFS vs census index vs meet-in-the-middle";
  let path = Filename.temp_file "qsynth_bench_idx" ".bin" in
  Census_index.save (Census_index.build census) path;
  let index = Census_index.load library3 path in
  Sys.remove path;
  let bidir = Bidir.create library3 in
  (* best of [n] samples, each sample timing [reps] back-to-back calls
     and reporting the per-call mean — indexed lookups run in well under
     a microsecond, below a single gettimeofday tick *)
  let best ?(reps = 1) n f =
    let best_t = ref infinity and result = ref None in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      for _ = 2 to reps do
        ignore (f ())
      done;
      let r = f () in
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
      if dt < !best_t then best_t := dt;
      result := Some r
    done;
    (!best_t, Option.get !result)
  in
  let cost_of = function
    | Some r -> r.Mce.cost
    | None -> failwith "query-latency: target not synthesized"
  in
  let cost8 = Reversible.Spec.parse ~bits:3 "0,1,2,3,4,7,5,6" in
  let rows =
    List.map
      (fun (name, target) ->
        let forward, r = best 3 (fun () -> express library3 target) in
        let indexed, r' =
          best ~reps:1000 3 (fun () -> express ~index library3 target)
        in
        let bidir_t, r'' = best 10 (fun () -> express ~bidir library3 target) in
        let cost = cost_of r in
        if cost_of r' <> cost || cost_of r'' <> cost then
          failwith (name ^ ": plans disagree on the minimal cost");
        timings := (Printf.sprintf "query/%s/forward" name, forward) :: !timings;
        timings := (Printf.sprintf "query/%s/indexed" name, indexed) :: !timings;
        timings := (Printf.sprintf "query/%s/bidir" name, bidir_t) :: !timings;
        Format.printf
          "%-10s cost %d: forward %10.3f ms   indexed %10.4f ms (%.0fx)   bidir \
           %10.3f ms (%.0fx)@."
          name cost (1e3 *. forward) (1e3 *. indexed) (forward /. indexed)
          (1e3 *. bidir_t) (forward /. bidir_t);
        (name, cost, Some forward, Some indexed, bidir_t))
      [
        ("peres", Reversible.Gates.g1);
        ("toffoli", Reversible.Gates.toffoli3);
        ("fredkin", Reversible.Gates.fredkin3);
      ]
  in
  let bidir_t, r8 =
    best 3 (fun () -> express ~max_depth:14 ~index ~bidir library3 cost8)
  in
  let cost8_cost = cost_of r8 in
  timings := ("query/cost8/bidir", bidir_t) :: !timings;
  Format.printf
    "%-10s cost %d: forward        — (beyond cb)              — \
     bidir %8.3f ms@."
    "cost8" cost8_cost (1e3 *. bidir_t);
  rows @ [ ("cost8", cost8_cost, None, None, bidir_t) ]

(* Complete index: the BENCH_9 experiment.  The query-latency rows above
   stop indexing at the census horizon; here the whole zero-fixing
   universe (5040 functions, all 40320 members of S8 through the
   Theorem-2 NOT cosets) is precomputed, so a cost-8 query — beyond any
   forward horizon — becomes the same O(log n) in-place probe as a
   cost-2 one.  Measured: the offline build (the closure census of the
   X1 experiment plus Census_index.build), the file size, the cold-start
   load (heap copy vs mmap, both with the
   default sampled verification a daemon start pays), and the p50/p99
   of cost-8 answers from the complete index against a warm
   meet-in-the-middle engine — with a hard >= 100x p99 gate, since
   replacing the join by a probe is the point of the artifact. *)
let complete_index_p99_gate = 100.

let reproduce_complete_index (complete, build_t) =
  hr "Complete index: total-coverage build, mmap cold start, O(1) probes";
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let best ?(reps = 1) n f =
    let best_t = ref infinity and result = ref None in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      for _ = 2 to reps do
        ignore (f ())
      done;
      let r = f () in
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
      if dt < !best_t then best_t := dt;
      result := Some r
    done;
    (!best_t, Option.get !result)
  in
  let percentile samples p =
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  timings := ("complete_index/build", build_t) :: !timings;
  Format.printf "build:          closure census + index %8.3fs@." build_t;
  (* cold start: what a daemon pays before /readyz, sampled verify *)
  let path = Filename.temp_file "qsynth_bench_cidx" ".bin" in
  Census_index.save complete path;
  let file_bytes = (Unix.stat path).Unix.st_size in
  let heap_t, _ = best 5 (fun () -> Census_index.load library3 path) in
  let mmap_t, index = best 5 (fun () -> Census_index.load_mmap library3 path) in
  Sys.remove path;
  timings := ("complete_index/load_heap", heap_t) :: !timings;
  timings := ("complete_index/load_mmap", mmap_t) :: !timings;
  Format.printf
    "cold start:     heap %9.4f ms   mmap %9.4f ms (%.1fx)   file %d bytes@."
    (1e3 *. heap_t) (1e3 *. mmap_t) (heap_t /. mmap_t) file_bytes;
  (* p50/p99 over distinct cost-8 functions: the complete index answers
     each with a probe; the warm engine pays a genuine bidirectional
     join per function (this is the daemon's only alternative — cost 8
     is beyond every forward horizon in this harness) *)
  let cost8_targets =
    let acc = ref [] and n = ref 0 in
    let group =
      Universality.closure_of (Reversible.Gates.g1 :: Universality.cnots ~bits:3)
    in
    (try
       Permgroup.Closure.iter
         (fun p ->
           let func = Reversible.Revfun.of_perm ~bits:3 p in
           match Census_index.find index func with
           | Some (8, _) ->
               acc := func :: !acc;
               incr n;
               if !n = 48 then raise Exit
           | _ -> ())
         group
     with Exit -> ());
    List.rev !acc
  in
  let samples = List.length cost8_targets in
  let probe_cost target =
    match express ~index ~max_depth:13 library3 target with
    | Some r -> r.Mce.cost
    | None -> failwith "complete-index: probe missed a universe member"
  in
  let index_samples =
    List.map
      (fun target ->
        let dt, cost = best ~reps:500 3 (fun () -> probe_cost target) in
        if cost <> 8 then failwith "complete-index: probe cost is not 8";
        dt)
      cost8_targets
  in
  let bidir = Bidir.create library3 in
  (* the first join grows the forward wave; pay it before sampling *)
  ignore (express ~bidir ~max_depth:13 library3 (List.hd cost8_targets));
  let bidir_samples =
    List.map
      (fun target ->
        let dt, r = timed (fun () -> express ~bidir ~max_depth:13 library3 target) in
        (match r with
        | Some { Mce.cost = 8; _ } -> ()
        | _ -> failwith "complete-index: warm engine disagrees on cost 8");
        dt)
      cost8_targets
  in
  let ip50 = percentile index_samples 0.50
  and ip99 = percentile index_samples 0.99
  and bp50 = percentile bidir_samples 0.50
  and bp99 = percentile bidir_samples 0.99 in
  timings := ("complete_index/cost8_index_p99", ip99) :: !timings;
  timings := ("complete_index/cost8_bidir_p99", bp99) :: !timings;
  Format.printf
    "cost-8 x%d:     index p50 %9.4f ms  p99 %9.4f ms   warm bidir p50 %9.3f ms  \
     p99 %9.3f ms   p99 speedup %7.0fx@."
    samples (1e3 *. ip50) (1e3 *. ip99) (1e3 *. bp50) (1e3 *. bp99)
    (bp99 /. ip99);
  if bp99 < complete_index_p99_gate *. ip99 then
    failwith
      (Printf.sprintf
         "complete-index: p99 gate failed — probe %.6fs vs warm bidir %.6fs \
          (< %.0fx)"
         ip99 bp99 complete_index_p99_gate);
  (build_t, file_bytes, heap_t, mmap_t, (samples, ip50, ip99, bp50, bp99))

(* Server latency: the BENCH_5 experiment.  What does a client actually
   wait for?  The warm arm is the daemon's situation: one Service
   created once (census index loaded, bidir forward wave grown to the
   warm depth), every query answered against read-only engine state.
   The cold arm is the one-shot CLI's situation: each query pays
   Census_index.load plus Service.create (including the warm-up) before
   it can answer.  The response cache is disabled in both arms so every
   sample measures the engine, not the LRU; the cost-7 row spreads its
   samples over distinct census members so no two samples share a key.
   The cost8 row goes through a real meet-in-the-middle join (beyond
   the index horizon) in both arms. *)
let reproduce_server_latency census =
  hr "Server latency: warm service vs one-shot cold (per uncached query)";
  let warm_depth = 4 in
  let index_path = Filename.temp_file "qsynth_bench_srv_idx" ".bin" in
  Census_index.save (Census_index.build census) index_path;
  let make_service () =
    let index = Census_index.load library3 index_path in
    Server.Service.create ~index ~warm_depth ~cache_capacity:0 library3
  in
  let percentile samples p =
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let cost7_members =
    let acc = ref [] in
    Fmcf.iter_members census (fun ~cost m ->
        if cost = 7 && List.length !acc < 100 then acc := m.Fmcf.func :: !acc);
    List.rev !acc
  in
  let rows =
    [
      ("toffoli", [ request Reversible.Gates.toffoli3 ], 30, 5);
      ("fredkin", [ request Reversible.Gates.fredkin3 ], 30, 5);
      ( "cost8",
        [ request ~max_depth:8 (Reversible.Spec.parse ~bits:3 "0,1,2,3,4,7,5,6") ],
        5, 3 );
      ("cost7-members", List.map request cost7_members, 100, 5);
    ]
  in
  let warm_service = time "warm service create" make_service in
  List.map
    (fun (name, requests, warm_samples, cold_samples) ->
      let k = List.length requests in
      let nth i = List.nth requests (i mod k) in
      let sample_one svc req =
        let t0 = Unix.gettimeofday () in
        (match (Server.Service.answer svc req).Mce.Response.body with
        | Ok _ -> ()
        | Error e ->
            failwith
              (Printf.sprintf "server-latency %s: %s" name
                 (Mce.Response.to_string
                    { Mce.Response.id = None; trace = None; qubits = 3; body = Error e })));
        Unix.gettimeofday () -. t0
      in
      let warm =
        List.init warm_samples (fun i -> sample_one warm_service (nth i))
      in
      let cold =
        List.init cold_samples (fun i ->
            let t0 = Unix.gettimeofday () in
            let svc = make_service () in
            let dt_query = sample_one svc (nth i) in
            ignore dt_query;
            Unix.gettimeofday () -. t0)
      in
      let wp50 = percentile warm 0.50 and wp99 = percentile warm 0.99 in
      let cp50 = percentile cold 0.50 and cp99 = percentile cold 0.99 in
      timings := (Printf.sprintf "server/%s/warm_p99" name, wp99) :: !timings;
      timings := (Printf.sprintf "server/%s/cold_p99" name, cp99) :: !timings;
      Format.printf
        "%-14s warm p50 %9.4f ms  p99 %9.4f ms   cold p50 %9.1f ms  p99 %9.1f ms   \
         p99 speedup %7.0fx@."
        name (1e3 *. wp50) (1e3 *. wp99) (1e3 *. cp50) (1e3 *. cp99)
        (cp99 /. wp99);
      (name, warm_samples, wp50, wp99, cold_samples, cp50, cp99))
    rows
  |> fun server_rows ->
  Sys.remove index_path;
  (warm_depth, server_rows)

(* Server load: the BENCH_6 experiment.  The latency rows above measure
   one client politely taking turns; this one offers an open-loop
   Poisson stream (arrivals never wait for answers) against a live
   in-process daemon, so queueing, response caching, coalescing and
   backpressure all participate.  Two offered rates: one the daemon
   absorbs comfortably, one hot enough that the bounded queue's
   Overloaded rejections can show up in the row. *)
let load_workers = 2
let load_queue_capacity = 64
let load_connections = 4
let load_rates = [ 500.; 2000. ]

let reproduce_server_load census =
  hr "Server load: open-loop Poisson arrivals against a live daemon";
  let index_path = Filename.temp_file "qsynth_bench_load_idx" ".bin" in
  Census_index.save (Census_index.build census) index_path;
  let index = Census_index.load library3 index_path in
  let service =
    Server.Service.create ~index ~warm_depth:4 ~cache_capacity:256 library3
  in
  let socket = Filename.temp_file "qsynth_bench_load" ".sock" in
  Sys.remove socket;
  let daemon =
    Server.Daemon.start ~workers:load_workers
      ~queue_capacity:load_queue_capacity ~socket service
  in
  let mix =
    [
      request Reversible.Gates.toffoli3;
      request Reversible.Gates.fredkin3;
      request Reversible.Gates.g1;
      request (Reversible.Spec.parse ~bits:3 "0,1,2,3,4,5,7,6");
    ]
  in
  let rows =
    List.map
      (fun rps ->
        let r =
          Server.Loadgen.run ~connections:load_connections ~socket ~rps
            ~duration_s:3. mix
        in
        timings :=
          (Printf.sprintf "server_load/rps%.0f/p99" rps,
           r.Server.Loadgen.p99_ms /. 1e3)
          :: !timings;
        Format.printf
          "%7.0f rps offered: %6d sent  %6d ok  %4d overloaded  %4d errors   \
           p50 %8.3f ms  p99 %8.3f ms  p99.9 %8.3f ms@."
          rps r.Server.Loadgen.sent r.Server.Loadgen.ok
          r.Server.Loadgen.overloaded r.Server.Loadgen.errors
          r.Server.Loadgen.p50_ms r.Server.Loadgen.p99_ms
          r.Server.Loadgen.p999_ms;
        r)
      load_rates
  in
  Server.Daemon.stop daemon;
  Server.Daemon.wait daemon;
  Sys.remove index_path;
  rows

(* Bechamel micro-benchmarks: one per experiment *)

let bechamel_tests =
  let open Bechamel in
  let stage = Staged.stage in
  let ctrl_v = Gate.make Gate.Controlled_v ~target:1 ~control:0 in
  let vba = Library.perm_of_gate library3 (Gate.of_name ~qubits:3 "VBA") in
  let peres_cascade = Cascade.of_string ~qubits:3 "VCB*FBA*VCA*V+CB" in
  let machine =
    Automata.Qfsm.make
      ~circuit:
        (Automata.Prob_circuit.of_cascade library3
           (Cascade.of_string ~qubits:3 "VCA*VAB"))
      ~state_wires:[ 0 ] ~input_wires:[ 1 ] ~obs_wires:[ 2 ]
  in
  let hmm = Automata.Hmm.of_machine machine ~input:1 in
  let init = [| Qsim.Prob.half; Qsim.Prob.half |] in
  [
    Test.make ~name:"table1/truth-table"
      (stage (fun () ->
           Mvl.Truth_table.labeled_rows ~order:Mvl.Truth_table.table1_order
             (Gate.apply ctrl_v)));
    Test.make ~name:"table2/census-depth3"
      (stage (fun () -> Fmcf.run ~max_depth:3 library3));
    Test.make ~name:"table2/census-depth4"
      (stage (fun () -> Fmcf.run ~max_depth:4 library3));
    Test.make ~name:"fig4/peres-synthesis"
      (stage (fun () -> express library3 Reversible.Gates.g1));
    Test.make ~name:"fig5/g2-synthesis"
      (stage (fun () -> express library3 Reversible.Gates.g2));
    Test.make ~name:"fig6/g3-synthesis"
      (stage (fun () -> express library3 Reversible.Gates.g3));
    Test.make ~name:"fig7/g4-synthesis"
      (stage (fun () -> express library3 Reversible.Gates.g4));
    Test.make ~name:"fig8/adjoint-verify"
      (stage (fun () ->
           Verify.cascade_implements ~qubits:3 (Cascade.swap_v_dag peres_cascade)
             Reversible.Gates.g1));
    Test.make ~name:"fig9/toffoli-synthesis"
      (stage (fun () -> express library3 Reversible.Gates.toffoli3));
    Test.make ~name:"e1/g4-split"
      (stage (fun () -> Universality.split_g4 (Fmcf.run ~max_depth:4 library3)));
    Test.make ~name:"e2/universality-check"
      (stage (fun () -> Universality.is_universal Reversible.Gates.g1));
    Test.make ~name:"e3/group-order-5040"
      (stage (fun () ->
           Universality.group_order ~bits:3
             (Reversible.Gates.g1 :: Universality.cnots ~bits:3)));
    Test.make ~name:"x2/two-qubit-census"
      (stage (fun () -> Fmcf.run ~max_depth:6 library2));
    Test.make ~name:"x3/hmm-forward"
      (stage (fun () -> Automata.Hmm.forward hmm ~init ~observations:[ 1; 0; 1; 1 ]));
    Test.make ~name:"core/gate-perm-compose"
      (stage (fun () -> Permgroup.Perm.mul vba vba));
    Test.make ~name:"ext/weighted-toffoli-vcheap"
      (stage (fun () ->
           Weighted.express library3 ~model:Cost_model.v_cheap
             Reversible.Gates.toffoli3));
    Test.make ~name:"ext/rewrite-normalize"
      (stage
         (let bloated = Cascade.of_string ~qubits:3 "VBA*FCA*V+BA*FCB*FCB*VCA*VCA" in
          fun () -> Rewrite.normalize bloated));
    Test.make ~name:"ablation/unconstrained-census-d3"
      (stage
         (let unconstrained = Library.unconstrained library3 in
          fun () -> Fmcf.run ~max_depth:3 unconstrained));
    Test.make ~name:"ext/classical-linear-census"
      (stage (fun () ->
           Reversible.Classical_synth.census ~bits:3 Reversible.Classical_synth.ncp_linear));
    Test.make ~name:"ext/anf-describe"
      (stage (fun () -> Reversible.Anf.describe Reversible.Gates.fredkin3));
    Test.make ~name:"ext/draw-toffoli"
      (stage
         (let cascade = Cascade.of_string ~qubits:3 "FBA*V+CB*FBA*VCA*VCB" in
          fun () -> Draw.to_ascii ~qubits:3 cascade));
    Test.make ~name:"core/exact-unitary-verify"
      (stage (fun () ->
           Verify.cascade_implements ~qubits:3 peres_cascade Reversible.Gates.g1));
  ]

(* Runs the micro-benchmarks and returns [(name, ns_per_run)] rows. *)
let run_bechamel () =
  hr "Bechamel micro-benchmarks (time per run)";
  let open Bechamel in
  let open Toolkit in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"paper" ~fmt:"%s %s" bechamel_tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let pretty ns =
    if ns >= 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
    else Printf.sprintf "%8.1f ns" ns
  in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (name, ns) -> Format.printf "%-32s %s@." name (pretty ns)) rows;
  rows

(* BENCH_N.json: the perf-trajectory artifact.  Every PR regenerates it so
   per-experiment wall-clock and engine counters can be compared across
   the repository's history. *)

(* Gate-library plugins: the BENCH_10 experiment.  Times the depth-5
   census of the NFT library (Younes's 18 classical gates, arXiv:1304.5804,
   counting the full S8 universe with priced NOTs) next to the paper's
   library at the same depth.  The NFT count row is the published Younes
   spectrum prefix — pinned by the test suite and the CI smoke job, so a
   regression in the plugin machinery shows up here as wrong counts, not
   just as different timings. *)
let reproduce_nft_census () =
  hr "Gate-library plugins: depth-5 NFT census vs paper18";
  let print_row label values =
    Format.printf "%-28s" label;
    List.iter (fun v -> Format.printf " %6d" v) values;
    Format.printf "@."
  in
  let run name library =
    let t0 = Unix.gettimeofday () in
    let census = Fmcf.run ~max_depth:5 library in
    let dt = Unix.gettimeofday () -. t0 in
    let counts = Fmcf.counts census in
    print_row (name ^ " |" ^ (if Library.coset_reduction library then "G" else "S8") ^ "[k]|")
      (List.map snd counts);
    Format.printf "%-28s %.3fs, %d functions@." "" dt (Fmcf.total_found census);
    (counts, dt)
  in
  let nft = run "nft" (Library.of_name "nft") in
  let paper18 = run "paper18" library3 in
  (nft, paper18)

let write_bench_json ~telemetry_snapshot ~bechamel_rows ~parallel_rows ~checkpoint_row
    ~quotient_rows ~query_rows ~complete_index ~server_latency ~server_load
    ~nft_census path =
  let open Telemetry in
  let plain, checkpointed, overhead, snapshot_bytes = checkpoint_row in
  let server_warm_depth, server_rows = server_latency in
  let server_row_json (name, warm_samples, wp50, wp99, cold_samples, cp50, cp99) =
    Json.Obj
      [
        ("name", Json.String name);
        ("warm_samples", Json.Int warm_samples);
        ("warm_p50_seconds", Json.Float wp50);
        ("warm_p99_seconds", Json.Float wp99);
        ("cold_samples", Json.Int cold_samples);
        ("cold_p50_seconds", Json.Float cp50);
        ("cold_p99_seconds", Json.Float cp99);
        ("p99_speedup", Json.Float (cp99 /. wp99));
      ]
  in
  let query_json (name, cost, forward, indexed, bidir) =
    Json.Obj
      (("name", Json.String name)
       :: ("cost", Json.Int cost)
       :: (match forward with
          | Some s -> [ ("forward_seconds", Json.Float s) ]
          | None -> [])
      @ (match indexed with
        | Some s -> [ ("indexed_seconds", Json.Float s) ]
        | None -> [])
      @ [ ("bidir_seconds", Json.Float bidir) ])
  in
  let json =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("bench_id", Json.Int 10);
        ("generated_by", Json.String "bench/main.ml");
        ("unix_time", Json.Float (Unix.time ()));
        ("ocaml_version", Json.String Sys.ocaml_version);
        ("word_size", Json.Int Sys.word_size);
        ( "experiments",
          Json.List
            (List.rev_map
               (fun (name, seconds) ->
                 Json.Obj
                   [ ("name", Json.String name); ("seconds", Json.Float seconds) ])
               !timings) );
        ( "bechamel_ns_per_run",
          Json.Obj (List.map (fun (name, ns) -> (name, Json.Float ns)) bechamel_rows) );
        ( "nft_census",
          (* depth-5 library-plugin row: Younes's NFT universe next to the
             paper's library under identical search settings *)
          let row ((counts : (int * int) list), dt) =
            Json.Obj
              [
                ("seconds", Json.Float dt);
                ("counts", Json.List (List.map (fun (_, n) -> Json.Int n) counts));
              ]
          in
          let nft, paper18 = nft_census in
          Json.Obj
            [ ("depth", Json.Int 5); ("nft", row nft); ("paper18", row paper18) ] );
        ( "parallel_census",
          Json.List
            (List.map
               (fun (jobs, effective, dt, allocated, states, arena) ->
                 Json.Obj
                   [
                     ("jobs", Json.Int jobs);
                     ("search.jobs.effective", Json.Int effective);
                     ("seconds", Json.Float dt);
                     ("allocated_words", Json.Float allocated);
                     ("states", Json.Int states);
                     ("arena_bytes", Json.Int arena);
                   ])
               parallel_rows) );
        ( "quotient_census",
          Json.Obj
            [
              ("mem_guard_bytes", Json.Int quotient_mem_guard);
              ("bench2_baseline_seconds", Json.Float bench2_baseline_seconds);
              ( "rows",
                Json.List
                  (List.map
                     (fun (depth, quotient, dt, states, arena, reason) ->
                       Json.Obj
                         [
                           ("depth", Json.Int depth);
                           ("quotient", Json.Bool quotient);
                           ("seconds", Json.Float dt);
                           ("states", Json.Int states);
                           ("arena_bytes", Json.Int arena);
                           ( "stop_reason",
                             Json.String (Fmcf.describe_stop reason) );
                         ])
                     quotient_rows) );
            ] );
        ( "checkpoint_overhead",
          Json.Obj
            [
              ("depth", Json.Int 7);
              ("every", Json.Int 1);
              ("plain_seconds", Json.Float plain);
              ("checkpointed_seconds", Json.Float checkpointed);
              ("overhead_ratio", Json.Float overhead);
              ("snapshot_bytes", Json.Int snapshot_bytes);
            ] );
        ("query_latency", Json.List (List.map query_json query_rows));
        ( "complete_index",
          let build_t, file_bytes, heap_t, mmap_t, (samples, ip50, ip99, bp50, bp99)
              =
            complete_index
          in
          Json.Obj
            [
              ("universe", Json.Int 5040);
              ("coverage", Json.Int 40320);
              ("diameter", Json.Int 13);
              ("file_bytes", Json.Int file_bytes);
              ("closure_build_seconds", Json.Float build_t);
              ( "cold_start",
                Json.Obj
                  [
                    ("heap_load_seconds", Json.Float heap_t);
                    ("mmap_load_seconds", Json.Float mmap_t);
                    ("mmap_speedup", Json.Float (heap_t /. mmap_t));
                  ] );
              ( "cost8_probe",
                Json.Obj
                  [
                    ("samples", Json.Int samples);
                    ("index_p50_seconds", Json.Float ip50);
                    ("index_p99_seconds", Json.Float ip99);
                    ("warm_bidir_p50_seconds", Json.Float bp50);
                    ("warm_bidir_p99_seconds", Json.Float bp99);
                    ("p99_speedup", Json.Float (bp99 /. ip99));
                    ( "p99_gate",
                      Json.String
                        (Printf.sprintf "enforced >= %.0fx"
                           complete_index_p99_gate) );
                  ] );
            ] );
        ( "server_latency",
          Json.Obj
            [
              ("warm_depth", Json.Int server_warm_depth);
              ("index_depth", Json.Int 7);
              ("rows", Json.List (List.map server_row_json server_rows));
            ] );
        ( "server_load",
          Json.Obj
            [
              ("workers", Json.Int load_workers);
              ("queue_capacity", Json.Int load_queue_capacity);
              ("connections", Json.Int load_connections);
              ("rows", Json.List (List.map Server.Loadgen.results_to_json server_load));
            ] );
        ("telemetry", telemetry_snapshot);
      ]
  in
  let oc = open_out path in
  Telemetry.Json.to_channel ~pretty:true oc json;
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s@." path

let () =
  Format.printf "Reproduction harness: exact 3-qubit quantum circuit synthesis@.";
  experiment "table1" reproduce_table1;
  (* Telemetry is scoped to the canonical depth-7 census: the experiments
     after it run further censuses (cost-family probes, 2-qubit, ablation)
     over the same global series registry, and letting them all write would
     leave BENCH_1.json with per-level series that belong to no single run. *)
  Telemetry.set_enabled true;
  let census = experiment "table2/census-depth7" reproduce_table2 in
  let telemetry_snapshot = Telemetry.snapshot () in
  Telemetry.set_enabled false;
  experiment "figs4-8/cost-4-family" reproduce_figures_4_to_8;
  experiment "fig9/toffoli" reproduce_figure_9;
  experiment "fig9/symmetry-structure" reproduce_figure_9_structure;
  experiment "sec5/group-results" (fun () -> reproduce_group_results census);
  experiment "sec5/timings" reproduce_timing;
  experiment "x2/two-qubit-census" reproduce_two_qubit;
  experiment "ext/fredkin" reproduce_fredkin;
  experiment "ext/weighted" reproduce_weighted;
  experiment "ext/classical-libraries" reproduce_classical_libraries;
  let closure_index = experiment "x1/closure-census" reproduce_closure_census in
  experiment "sec6/behavior" reproduce_behavior;
  experiment "ablation/unconstrained" reproduce_ablation;
  experiment "ext/rewrite" reproduce_rewrite;
  experiment "sec4/qrng" reproduce_qrng;
  let query_rows = reproduce_query_latency census in
  let complete_index = reproduce_complete_index closure_index in
  let server_latency = reproduce_server_latency census in
  let server_load = reproduce_server_load census in
  let parallel_rows = reproduce_parallel_census () in
  let checkpoint_row = reproduce_checkpoint_overhead () in
  let quotient_rows = reproduce_quotient_census () in
  let nft_census = experiment "ext/nft-census" reproduce_nft_census in
  let bechamel_rows = run_bechamel () in
  let path = try Sys.getenv "BENCH_OUT" with Not_found -> "BENCH_10.json" in
  write_bench_json ~telemetry_snapshot ~bechamel_rows ~parallel_rows ~checkpoint_row
    ~quotient_rows ~query_rows ~complete_index ~server_latency ~server_load
    ~nft_census path
