(* Determinism tests for the domain-parallel BFS engine: every jobs value
   must reproduce the sequential census exactly — same per-level counts,
   same function sets, same frontier keys in the same order — and the
   arena composition path must agree with abstract permutation algebra.

   The jobs values under test come from QSYNTH_TEST_JOBS (space- or
   comma-separated, default "2 4") so the CI matrix can vary them. *)

open Synthesis

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let qcheck_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let oracle_depth = 5

(* Table 2 prefixes up to depth 5. *)
let oracle_counts = [ 1; 6; 24; 51; 84; 156 ]
let oracle_paper_counts = [ 1; 6; 30; 52; 84; 156 ]

let jobs_under_test =
  match Sys.getenv_opt "QSYNTH_TEST_JOBS" with
  | None | Some "" -> [ 2; 4 ]
  | Some s ->
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char ',')
      |> List.filter_map int_of_string_opt
      |> List.filter (fun j -> j >= 1)

let census ~jobs = Fmcf.run ~max_depth:oracle_depth ~jobs library3
let sequential = lazy (census ~jobs:1)

let func_key (m : Fmcf.member) =
  Permgroup.Perm.key (Reversible.Revfun.to_perm m.Fmcf.func)

let level_key_sets c =
  List.map
    (fun (cost, _) ->
      List.sort_uniq compare (List.map func_key (Fmcf.members_at c ~cost)))
    (Fmcf.counts c)

let test_counts_match_oracle jobs () =
  let c = census ~jobs in
  check
    Alcotest.(list int)
    (Printf.sprintf "G[k] counts, jobs=%d" jobs)
    oracle_counts
    (List.map snd (Fmcf.counts c));
  check
    Alcotest.(list int)
    (Printf.sprintf "paper G[k] counts, jobs=%d" jobs)
    oracle_paper_counts
    (List.map snd (Fmcf.paper_counts c))

let test_same_function_sets jobs () =
  let expected = level_key_sets (Lazy.force sequential) in
  let got = level_key_sets (census ~jobs) in
  List.iteri
    (fun k (e, g) ->
      check
        Alcotest.(list string)
        (Printf.sprintf "level %d func_key set, jobs=%d" k jobs)
        e g)
    (List.combine expected got)

let test_witness_cascades_valid jobs () =
  let c = census ~jobs in
  Fmcf.iter_members c (fun ~cost:_ m ->
      let cascade = Fmcf.cascade_of_member c m in
      check Alcotest.int
        (Printf.sprintf "witness length = cost %d" m.Fmcf.cost)
        m.Fmcf.cost (List.length cascade);
      checkb
        (Printf.sprintf "witness implements func at cost %d" m.Fmcf.cost)
        true
        (Verify.cascade_implements ~qubits:3 cascade m.Fmcf.func))

(* The strongest invariant: the per-level frontiers (every stored image,
   not just the binary restrictions) agree byte for byte and in order. *)
let test_frontiers_byte_identical jobs () =
  let run j =
    let s = Search.create ~jobs:j library3 in
    List.init oracle_depth (fun _ ->
        Array.map (Search.key_of_handle s) (Search.step_handles s))
  in
  let expected = run 1 and got = run jobs in
  List.iteri
    (fun k (e, g) ->
      check
        Alcotest.(array string)
        (Printf.sprintf "level %d frontier, jobs=%d" (k + 1) jobs)
        e g)
    (List.combine expected got)

(* Composition through the arena: applying a gate sequence point-wise via
   the compiled image arrays (exactly what the engine's expand loop does)
   must agree with composing the abstract permutations, and a reasonable
   sequence's binary image must be stored at a depth no larger than the
   sequence length, with a recorded cascade reaching the same image. *)

let entries3 = Library.entries library3

let gate_index_gen =
  QCheck2.Gen.(list_size (int_range 0 oracle_depth)
                 (int_range 0 (Array.length entries3 - 1)))

let stepped_search =
  lazy
    (let s = Search.create ~jobs:2 library3 in
     for _ = 1 to oracle_depth do
       ignore (Search.step_handles s)
     done;
     s)

let qcheck_arena_compose =
  qcheck_test "arena composition = Perm composition" gate_index_gen (fun vias ->
      let degree = Mvl.Encoding.size (Library.encoding library3) in
      let bytes = ref (Array.init degree Fun.id) in
      let perm = ref (Permgroup.Perm.identity degree) in
      List.iter
        (fun via ->
          let e = entries3.(via) in
          bytes := Array.map (fun p -> e.Library.perm_array.(p)) !bytes;
          perm := Permgroup.Perm.mul !perm e.Library.perm)
        vias;
      let key = String.init degree (fun i -> Char.chr !bytes.(i)) in
      let algebraic =
        String.init degree (fun i ->
            Char.chr (Permgroup.Perm.apply !perm i))
      in
      key = algebraic
      &&
      let cascade = List.map (fun via -> entries3.(via).Library.gate) vias in
      (not (Cascade.is_reasonable library3 cascade))
      ||
      let s = Lazy.force stepped_search in
      let image p =
        String.init (Search.key_length s) (fun b -> Char.chr (Permgroup.Perm.apply p b))
      in
      let img = image !perm in
      match Search.depth_of_key s img with
      | None -> false
      | Some d ->
          d <= List.length vias
          && image (Cascade.perm_of library3 (Search.cascade_of_key s img)) = img)

(* The engine caps the rank count at the machine's recommended domain
   count; depth 7's deepest frontier is far above the per-rank chunk
   threshold, so the effective count the final step records is exactly
   the request under that cap — and the census is still Table 2. *)
let test_effective_jobs () =
  let jobs = 2 in
  let gauge = Telemetry.Gauge.create "search.jobs.effective" in
  Telemetry.set_enabled true;
  let census =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled false)
      (fun () -> Fmcf.run ~max_depth:7 ~jobs library3)
  in
  check Alcotest.int "search.jobs.effective"
    (min jobs (Domain.recommended_domain_count ()))
    (int_of_float (Telemetry.Gauge.value gauge));
  check
    Alcotest.(list int)
    "depth-7 G[k] counts" [ 1; 6; 24; 51; 84; 156; 398; 540 ]
    (List.map snd (Fmcf.counts census))

let per_jobs name f =
  List.map
    (fun jobs ->
      Alcotest.test_case (Printf.sprintf "%s (jobs=%d)" name jobs) `Quick (f jobs))
    jobs_under_test

let () =
  Alcotest.run "search_parallel"
    [
      ("census oracle", per_jobs "Table 2 counts" test_counts_match_oracle);
      ("function sets", per_jobs "per-level func_key sets" test_same_function_sets);
      ("witnesses", per_jobs "witness cascades valid" test_witness_cascades_valid);
      ("frontiers", per_jobs "byte-identical frontiers" test_frontiers_byte_identical);
      ("arena algebra", [ qcheck_arena_compose ]);
      ( "adaptation",
        [ Alcotest.test_case "effective jobs at depth 7" `Quick test_effective_jobs ] );
    ]
