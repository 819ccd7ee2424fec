(* Meet-in-the-middle and census-index tests.

   The heart is an exhaustive oracle check: for every one of the 1260
   functions in the depth-7 census, the bidirectional engine must report
   exactly the census cost and a legal cascade realizing the function.
   The engine's forward wave is capped at depth 4 for that test, so
   every cost >= 5 answer is forced through a genuine forward+backward
   join rather than a warm forward lookup.

   The census index is checked as a round-trip (build -> save -> load ->
   every lookup agrees with Fmcf.find) plus rejection tests: CRC damage,
   truncation, version and fingerprint mismatches, and a value-level
   forgery that keeps the CRC valid but plants an illegal witness. *)

open Synthesis
open Reversible

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let census7 = lazy (Fmcf.run ~max_depth:7 library3)
let census_total = 1260 (* 1+6+24+51+84+156+398+540 *)

let with_temp_file f =
  let path = Filename.temp_file "qsynth_idx" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let toffoli = Spec.parse ~bits:3 "toffoli"
let peres = Spec.parse ~bits:3 "peres"
let fredkin = Spec.parse ~bits:3 "fredkin"

(* Exact cost 8: beyond the paper's cb = 7 horizon (Fredkin followed by
   a CNOT; its absence from the depth-7 census proves cost >= 8, and the
   engine joins at 8). *)
let cost8 = Spec.parse ~bits:3 "0,1,2,3,4,7,5,6"

let realizes func cascade =
  Cascade.is_reasonable library3 cascade
  &&
  match Cascade.restriction library3 cascade with
  | Some f -> Revfun.equal f func
  | None -> false

(* {1 Bidirectional engine} *)

let test_exhaustive_census_costs () =
  let census = Lazy.force census7 in
  (* cap the forward wave below the deepest census level: every cost-5..7
     member then requires an honest meet-in-the-middle join *)
  let engine = Bidir.create ~max_fwd_depth:4 library3 in
  let total = ref 0 in
  Fmcf.iter_members census (fun ~cost m ->
      incr total;
      match Bidir.synthesize engine m.Fmcf.func with
      | None ->
          Alcotest.failf "bidir found nothing for a cost-%d census member" cost
      | Some o ->
          if o.Bidir.cost <> cost then
            Alcotest.failf "bidir cost %d for a census member of cost %d"
              o.Bidir.cost cost;
          if List.length o.Bidir.cascade <> cost then
            Alcotest.failf "cascade length %d differs from cost %d"
              (List.length o.Bidir.cascade) cost;
          if not (realizes m.Fmcf.func o.Bidir.cascade) then
            Alcotest.failf "illegal or wrong cascade for a cost-%d member" cost);
  check Alcotest.int "census members queried" census_total !total;
  checkb "forward wave stayed capped" true (Bidir.fwd_depth engine <= 4)

let test_known_costs () =
  let engine = Bidir.create library3 in
  List.iter
    (fun (name, target, expected) ->
      match Bidir.synthesize engine target with
      | None -> Alcotest.failf "%s: no realization found" name
      | Some o ->
          check Alcotest.int (name ^ " cost") expected o.Bidir.cost;
          checkb (name ^ " cascade realizes target") true
            (realizes target o.Bidir.cascade);
          (* close the loop against the exact unitary semantics *)
          checkb (name ^ " unitary") true
            (Verify.cascade_implements ~qubits:3 o.Bidir.cascade target))
    [ ("toffoli", toffoli, 5); ("peres", peres, 4); ("fredkin", fredkin, 7) ]

let test_identity_and_bounds () =
  let engine = Bidir.create library3 in
  (match Bidir.synthesize engine (Revfun.identity ~bits:3) with
  | Some o ->
      check Alcotest.int "identity cost" 0 o.Bidir.cost;
      checkb "identity cascade empty" true (o.Bidir.cascade = [])
  | None -> Alcotest.fail "identity not synthesized");
  checkb "toffoli refused under max_cost 4" true
    (Bidir.synthesize ~max_cost:4 engine toffoli = None);
  checkb "fredkin refused under max_cost 6" true
    (Bidir.synthesize ~max_cost:6 engine fredkin = None)

let test_cost8_beyond_census () =
  let census = Lazy.force census7 in
  checkb "cost-8 function absent from the depth-7 census" true
    (Fmcf.find census cost8 = None);
  let engine = Bidir.create library3 in
  match Bidir.synthesize ~max_cost:14 engine cost8 with
  | None -> Alcotest.fail "cost-8 function not synthesized"
  | Some o ->
      check Alcotest.int "exact cost" 8 o.Bidir.cost;
      checkb "cascade realizes the function" true (realizes cost8 o.Bidir.cascade);
      checkb "exact unitary implements it" true
        (Verify.cascade_implements ~qubits:3 o.Bidir.cascade cost8);
      (* the census proves cost >= 8; handing that bound in must not
         change the answer *)
      (match Bidir.synthesize ~max_cost:14 ~lower_bound:8 engine cost8 with
      | Some o' -> check Alcotest.int "cost with lower bound" 8 o'.Bidir.cost
      | None -> Alcotest.fail "lower-bound query found nothing")

let test_determinism_across_jobs () =
  let run jobs =
    let engine = Bidir.create ~jobs ~max_fwd_depth:4 library3 in
    List.map
      (fun t ->
        match Bidir.synthesize engine t with
        | Some o -> o.Bidir.cascade
        | None -> Alcotest.fail "query failed")
      [ toffoli; peres; fredkin ]
  in
  List.iteri
    (fun i (a, b) ->
      checkb (Printf.sprintf "cascade %d identical at jobs=2" i) true
        (Cascade.equal a b))
    (List.combine (run 1) (run 2))

(* {1 Census index} *)

let index7 = lazy (Census_index.build (Lazy.force census7))

let test_index_round_trip () =
  let census = Lazy.force census7 in
  with_temp_file @@ fun path ->
  Census_index.save (Lazy.force index7) path;
  let idx = Census_index.load library3 path in
  check Alcotest.int "size" census_total (Census_index.size idx);
  check Alcotest.int "depth" 7 (Census_index.depth idx);
  let total = ref 0 in
  Fmcf.iter_members census (fun ~cost m ->
      incr total;
      match Census_index.find idx m.Fmcf.func with
      | None -> Alcotest.failf "census member of cost %d missing from index" cost
      | Some (c, witness) ->
          if c <> cost then Alcotest.failf "index cost %d, census cost %d" c cost;
          if List.length witness <> cost then Alcotest.fail "witness length";
          if not (realizes m.Fmcf.func witness) then
            Alcotest.failf "index witness invalid at cost %d" cost);
  check Alcotest.int "lookups" census_total !total;
  checkb "beyond-horizon function misses" true
    (Census_index.find idx cost8 = None)

let save_to path = Census_index.save (Lazy.force index7) path

(* tests replay every witness — the sampled default is covered by
   test_complete_index's loader-equivalence check *)
let reload path =
  ignore (Census_index.load ~verify:Census_index.Full library3 path)

let patch path ~pos bytes =
  let buf = Checkpoint.read_file path in
  Bytes.blit_string bytes 0 buf pos (String.length bytes);
  let fd = open_out_bin path in
  output_bytes fd buf;
  close_out fd

(* rewrite the trailing CRC so header/payload edits survive the
   integrity check and reach the semantic validators *)
let refresh_crc path =
  let buf = Checkpoint.read_file path in
  let len = Bytes.length buf in
  Bytes.set_int32_le buf (len - 4)
    (Int32.of_int (Checkpoint.crc32 buf ~off:0 ~len:(len - 4)));
  let fd = open_out_bin path in
  output_bytes fd buf;
  close_out fd

let expect_corrupt name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Corrupt" name
  | exception Checkpoint.Corrupt _ -> ()

let expect_mismatch name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Mismatch" name
  | exception Checkpoint.Mismatch _ -> ()

let test_index_rejects_damage () =
  with_temp_file @@ fun path ->
  save_to path;
  let original = Checkpoint.read_file path in
  let len = Bytes.length original in
  (* bit flips anywhere must fail the CRC (or the magic check) *)
  List.iter
    (fun pos ->
      save_to path;
      let buf = Checkpoint.read_file path in
      Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0x40));
      let fd = open_out_bin path in
      output_bytes fd buf;
      close_out fd;
      expect_corrupt (Printf.sprintf "flip at %d" pos) (fun () -> reload path))
    [ 0; 9; 20; 50; len / 2; len - 5; len - 1 ];
  (* truncation at any prefix *)
  List.iter
    (fun keep ->
      save_to path;
      let fd = open_out_bin path in
      output_bytes fd (Bytes.sub original 0 keep);
      close_out fd;
      expect_corrupt (Printf.sprintf "truncated to %d" keep) (fun () -> reload path))
    [ 0; 7; 30; len / 2; len - 4 ]

let test_index_rejects_mismatch () =
  with_temp_file @@ fun path ->
  (* future format version *)
  save_to path;
  patch path ~pos:8 "\x63\x00\x00\x00";
  refresh_crc path;
  expect_mismatch "version 99" (fun () -> reload path);
  (* foreign library fingerprint *)
  save_to path;
  patch path ~pos:12 "\xde\xad\xbe\xef\xde\xad\xbe\xef";
  refresh_crc path;
  expect_mismatch "fingerprint" (fun () -> reload path);
  (* a structurally valid index for a different library *)
  save_to path;
  expect_mismatch "different library" (fun () ->
      ignore (Census_index.load (Library.feynman_only library3) path))

(* QSYNIDX2 layout constants for the depth-7 index under test: the
   records start after the fixed header and the (depth+1)-entry
   histogram, the gate log after the records. *)
let nb = 8
let rec_size = nb + 1 + 4
let v2_header_bytes = 8 + 4 + 8 + 8 + (9 * 4)
let records_off = v2_header_bytes + (4 * (7 + 1))
let log_off = records_off + (census_total * rec_size)

let test_index_rejects_forged_witness () =
  with_temp_file @@ fun path ->
  save_to path;
  (* records sort by func_key, so record 0 is the identity (cost 0) and
     record 1 is some non-identity function; zeroing record 1's cost byte
     and re-CRCing forges a file that passes the integrity checks yet
     claims that function has an empty witness — the header histogram no
     longer matches the records, so the cross-check must reject it *)
  patch path ~pos:(records_off + rec_size + nb) "\x00";
  refresh_crc path;
  expect_corrupt "forged empty witness" (fun () -> reload path);
  (* a deeper forgery that keeps every structural invariant intact:
     rewrite one gate-log byte to a different (valid) library gate.
     Counts, costs, offsets and the histogram all still agree — only the
     witness-replay validator can notice the cascade now computes a
     different function than the record's key claims *)
  save_to path;
  let buf = Checkpoint.read_file path in
  let original = Bytes.get_uint8 buf log_off in
  let forged = (original + 1) mod Library.size library3 in
  patch path ~pos:log_off (String.make 1 (Char.chr forged));
  refresh_crc path;
  expect_corrupt "forged gate-log byte" (fun () -> reload path)

let test_v1_format_rejected () =
  (* a v1 file (here a v2 file relabelled and re-sealed, so only the
     format differs) is a typed Corrupt naming the version, so the
     operator knows to rebuild it rather than suspect damage *)
  with_temp_file @@ fun path ->
  save_to path;
  let buf = Checkpoint.read_file path in
  Bytes.blit_string "QSYNIDX1" 0 buf 0 8;
  Bytes.set_int32_le buf 8 1l;
  let len = Bytes.length buf in
  Bytes.set_int32_le buf (len - 4)
    (Int32.of_int (Checkpoint.crc32 buf ~off:0 ~len:(len - 4)));
  let fd = open_out_bin path in
  output_bytes fd buf;
  close_out fd;
  let contains msg sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
    in
    go 0
  in
  match Census_index.load library3 path with
  | _ -> Alcotest.fail "a QSYNIDX1 file loaded"
  | exception Checkpoint.Corrupt msg ->
      checkb "names the format" true (contains msg "QSYNIDX1");
      checkb "names the version" true (contains msg "version 1")

(* {1 Mce integration: planner and one-request wrappers} *)

let test_express_with_index () =
  with_temp_file @@ fun path ->
  save_to path;
  let idx = Census_index.load library3 path in
  List.iter
    (fun (name, target, expected) ->
      match Mce.express ~index:idx library3 target with
      | Some r ->
          check Alcotest.int (name ^ " cost via index") expected r.Mce.cost;
          checkb (name ^ " result valid") true (Verify.result_valid library3 r)
      | None -> Alcotest.failf "%s: no result via index" name)
    [ ("toffoli", toffoli, 5); ("peres", peres, 4); ("fredkin", fredkin, 7) ];
  (* a miss under an index covering the whole depth bound is a certified
     None — no search runs *)
  checkb "certified miss" true (Mce.express ~index:idx library3 cost8 = None);
  (* beyond the horizon the planner falls through to bidir and finds 8 *)
  let engine = Bidir.create library3 in
  match Mce.express ~max_depth:14 ~index:idx ~bidir:engine library3 cost8 with
  | Some r ->
      check Alcotest.int "cost-8 via index+bidir" 8 r.Mce.cost;
      checkb "cost-8 result valid" true (Verify.result_valid library3 r)
  | None -> Alcotest.fail "cost-8: no result via index+bidir"

let test_three_wrappers () =
  (match Mce.express library3 toffoli with
  | Some r -> check Alcotest.int "toffoli cost" 5 r.Mce.cost
  | None -> Alcotest.fail "toffoli: no result");
  check Alcotest.int "toffoli witnesses" 4 (Mce.distinct_witnesses library3 toffoli);
  check Alcotest.int "toffoli realizations" 40
    (List.length (Mce.all_realizations library3 toffoli));
  check Alcotest.int "realizations under limit" 7
    (List.length (Mce.all_realizations ~limit:7 library3 toffoli))

let test_realizations_limit_regression () =
  (* the returned list must never exceed [limit], including limit 0 and
     limits smaller than one witness's cascade count *)
  List.iter
    (fun limit ->
      let rs = Mce.all_realizations ~limit library3 toffoli in
      check Alcotest.int
        (Printf.sprintf "all_realizations ~limit:%d" limit)
        (min limit 40) (List.length rs))
    [ 0; 1; 3; 9; 40; 1000 ];
  check Alcotest.int "identity under limit 0" 0
    (List.length
       (Mce.all_realizations ~limit:0 library3 (Revfun.identity ~bits:3)))

let () =
  Alcotest.run "bidir"
    [
      ( "bidir oracle",
        [
          Alcotest.test_case "exhaustive depth-7 census agreement" `Quick
            test_exhaustive_census_costs;
          Alcotest.test_case "known costs + unitary check" `Quick test_known_costs;
          Alcotest.test_case "identity and cost bounds" `Quick
            test_identity_and_bounds;
          Alcotest.test_case "exact cost 8 beyond the census" `Quick
            test_cost8_beyond_census;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_determinism_across_jobs;
        ] );
      ( "census index",
        [
          Alcotest.test_case "round trip matches Fmcf.find" `Quick
            test_index_round_trip;
          Alcotest.test_case "damage rejection" `Quick test_index_rejects_damage;
          Alcotest.test_case "mismatch rejection" `Quick test_index_rejects_mismatch;
          Alcotest.test_case "forged witness rejection" `Quick
            test_index_rejects_forged_witness;
          Alcotest.test_case "QSYNIDX1 files are rejected" `Quick
            test_v1_format_rejected;
        ] );
      ( "mce planner",
        [
          Alcotest.test_case "express via index and bidir" `Quick
            test_express_with_index;
          Alcotest.test_case "one search, three answers" `Quick test_three_wrappers;
          Alcotest.test_case "all_realizations respects limit" `Quick
            test_realizations_limit_regression;
        ] );
    ]
