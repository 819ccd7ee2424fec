(* Durability tests: snapshot round-trips at several depths, rejection of
   damaged or mismatched snapshots, crash-at-every-level fault injection
   with resume equality against an uninterrupted census, and a QCheck
   property that restore ∘ snapshot is the identity. *)

open Synthesis

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let qcheck_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let library2 = Library.make (Mvl.Encoding.make ~qubits:2)
let library4 = Library.make (Mvl.Encoding.make ~qubits:4)

let with_temp_file f =
  let path = Filename.temp_file "qsynth_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

(* [search_at ?horizon library depth]: levels 1..depth stepped whole,
   or bounded as a census to depth [horizon] bounds them *)
let search_at ?horizon library depth =
  let s = Search.create library in
  for d = 1 to depth do
    let bound = Option.map (fun h -> h - d) horizon in
    ignore (Search.try_step ?bound s ~cancel:(fun () -> false))
  done;
  s

let keys_at s d = Array.map (Search.key_of_handle s) (Search.handles_at_depth s d)
let frontier_keys s = Array.map (Search.key_of_handle s) (Search.frontier_handles s)

(* {1 Round-trips} *)

let test_round_trip depth () =
  with_temp_file @@ fun path ->
  let s = search_at library3 depth in
  Checkpoint.save s path;
  let r = Checkpoint.load library3 path in
  check Alcotest.int "depth" (Search.depth s) (Search.depth r);
  check Alcotest.int "size" (Search.size s) (Search.size r);
  for d = 0 to depth do
    check
      Alcotest.(array int)
      (Printf.sprintf "level %d handles" d)
      (Search.handles_at_depth s d) (Search.handles_at_depth r d);
    check
      Alcotest.(array string)
      (Printf.sprintf "level %d keys" d)
      (keys_at s d) (keys_at r d)
  done;
  check Alcotest.(array string) "frontier" (frontier_keys s) (frontier_keys r);
  (* continuing the restored engine must match continuing the original,
     byte for byte and handle for handle *)
  for step = 1 to 2 do
    let e = Search.step_handles s and g = Search.step_handles r in
    check Alcotest.(array int) (Printf.sprintf "continued level +%d handles" step) e g;
    check
      Alcotest.(array string)
      (Printf.sprintf "continued level +%d keys" step)
      (Array.map (Search.key_of_handle s) e)
      (Array.map (Search.key_of_handle r) g)
  done

(* The header's fields come back through [load]: depth, states and
   frontier from the restored engine, qubits and fingerprint from its
   library. *)
let test_header_on_load () =
  with_temp_file @@ fun path ->
  let s = search_at library3 3 in
  Checkpoint.save s path;
  let r = Checkpoint.load library3 path in
  check Alcotest.int "depth" 3 (Search.depth r);
  check Alcotest.int "states" (Search.size s) (Search.size r);
  check Alcotest.int "frontier" (Array.length (Search.frontier_handles s))
    (Search.frontier_size r);
  check Alcotest.int "qubits" 3 (Library.qubits (Search.library r));
  checkb "fingerprint" true
    (Int64.equal
       (Checkpoint.fingerprint (Search.library r))
       (Checkpoint.fingerprint library3))

(* {1 Damaged snapshots} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let expect_corrupt name load =
  match load () with
  | exception Checkpoint.Corrupt _ -> ()
  | exception Checkpoint.Mismatch msg ->
      Alcotest.failf "%s: raised Mismatch (%s) instead of Corrupt" name msg
  | _ -> Alcotest.failf "%s: damaged snapshot loaded without error" name

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_mismatch name ~substring load =
  match load () with
  | exception Checkpoint.Mismatch msg ->
      checkb
        (Printf.sprintf "%s: message %S names %S" name msg substring)
        true
        (contains ~sub:substring msg)
  | exception Checkpoint.Corrupt msg ->
      Alcotest.failf "%s: raised Corrupt (%s) instead of Mismatch" name msg
  | _ -> Alcotest.failf "%s: mismatched snapshot loaded without error" name

let test_truncation_rejected () =
  with_temp_file @@ fun path ->
  Checkpoint.save (search_at library3 2) path;
  let full = read_file path in
  let len = String.length full in
  List.iter
    (fun keep ->
      write_file path (String.sub full 0 keep);
      expect_corrupt (Printf.sprintf "truncated to %d/%d bytes" keep len) (fun () ->
          Checkpoint.load library3 path))
    [ len - 1; len / 2; 40; 10; 0 ]

let test_bitflip_rejected () =
  with_temp_file @@ fun path ->
  Checkpoint.save (search_at library3 2) path;
  let full = read_file path in
  let len = String.length full in
  List.iter
    (fun pos ->
      let damaged = Bytes.of_string full in
      Bytes.set damaged pos (Char.chr (Char.code full.[pos] lxor 0x40));
      write_file path (Bytes.to_string damaged);
      expect_corrupt (Printf.sprintf "byte %d flipped" pos) (fun () ->
          Checkpoint.load library3 path))
    [ 2; 20; len / 2; len - 2 ]

(* Patch the version field and re-seal the CRC: the version gate must
   fire as a Mismatch (the file is intact, just from another format). *)
let crc32 s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let test_version_gate () =
  with_temp_file @@ fun path ->
  Checkpoint.save (search_at library3 1) path;
  let full = Bytes.of_string (read_file path) in
  Bytes.set_int32_le full 8 99l;
  let body = Bytes.sub_string full 0 (Bytes.length full - 4) in
  Bytes.set_int32_le full (Bytes.length full - 4) (Int32.of_int (crc32 body));
  write_file path (Bytes.to_string full);
  expect_mismatch "future format version" ~substring:"version" (fun () ->
      Checkpoint.load library3 path)

(* A version-3 snapshot as the previous format's CLI wrote it ([census -d
   3 --checkpoint]): parent chains instead of keys.  It is intact, so it
   is rejected as a mismatch naming its version. *)
let test_v3_fixture_rejected () =
  let path = "checkpoint_v3_d3.bin" in
  check Alcotest.int "fixture length" 9076 (String.length (read_file path));
  expect_mismatch "load a version-3 snapshot" ~substring:"format version 3" (fun () ->
      Checkpoint.load library3 path)

let test_library_mismatch () =
  with_temp_file @@ fun path ->
  Checkpoint.save (search_at library3 2) path;
  expect_mismatch "wrong qubit count" ~substring:"qubit" (fun () ->
      Checkpoint.load library2 path);
  (* same shape, different gate semantics: only the fingerprint differs *)
  expect_mismatch "different gate library" ~substring:"fingerprint" (fun () ->
      Checkpoint.load (Library.unconstrained library3) path)

let test_atomic_save_crash () =
  with_temp_file @@ fun path ->
  let s = search_at library3 2 in
  Checkpoint.save s path;
  let before = read_file path in
  (* crash injected between the temp-file fsync and the rename: the
     previous snapshot must survive untouched and loadable *)
  Faultsim.configure (Some "checkpoint:1");
  Fun.protect ~finally:(fun () -> Faultsim.configure None) @@ fun () ->
  ignore (Search.step_handles s);
  (match Checkpoint.save s path with
  | exception Faultsim.Injected "checkpoint" -> ()
  | () -> Alcotest.fail "checkpoint fault did not fire");
  check Alcotest.string "previous snapshot intact" before (read_file path);
  let r = Checkpoint.load library3 path in
  check Alcotest.int "previous snapshot still loads" 2 (Search.depth r)

(* {1 Crash at level k, resume, compare with the uninterrupted census} *)

let member_sig (m : Fmcf.member) =
  ( m.Fmcf.cost,
    Permgroup.Perm.key (Reversible.Revfun.to_perm m.Fmcf.func),
    m.Fmcf.image )

let census_sig c =
  List.map2
    (fun (l : Fmcf.level) (_, paper_count) ->
      ( l.Fmcf.cost,
        l.Fmcf.frontier_size,
        paper_count,
        List.map member_sig (Fmcf.members_at c ~cost:l.Fmcf.cost) ))
    (Fmcf.levels c) (Fmcf.paper_counts c)

let census_depth = 7
let clean_census = lazy (Fmcf.run ~max_depth:census_depth library3)

let test_crash_resume k () =
  with_temp_file @@ fun path ->
  Fun.protect ~finally:(fun () -> Faultsim.configure None) @@ fun () ->
  (* a depth-0 snapshot makes even a level-1 crash resumable *)
  Checkpoint.save (Search.create library3) path;
  Faultsim.configure (Some (Printf.sprintf "merge:%d" k));
  (match
     Fmcf.run_guarded ~max_depth:census_depth
       ~on_level:(fun s ~cost:_ -> Checkpoint.save s path)
       library3
   with
  | exception Faultsim.Injected "merge" -> ()
  | _ -> Alcotest.failf "fault merge:%d did not fire" k);
  Faultsim.configure None;
  check Alcotest.int "snapshot sits at the last complete level" (k - 1)
    (Search.depth (Checkpoint.load library3 path));
  let census, reason =
    Fmcf.run_guarded ~max_depth:census_depth
      ~resume:(Checkpoint.load library3 path)
      library3
  in
  checkb "resumed run completes" true (reason = Fmcf.Completed);
  checkb
    (Printf.sprintf "census after crash at level %d = uninterrupted census" k)
    true
    (census_sig census = census_sig (Lazy.force clean_census))

(* [checkpointed_census ?every ?quotient library depth path] is [census
   -d depth --checkpoint path --checkpoint-every every] on a fresh path:
   a level-0 snapshot, one from the level hook every [every] levels, and
   a final save at the boundary the census stopped on. *)
let checkpointed_census ?(every = 1) ?(quotient = false) library depth path =
  Sys.remove path;
  let symmetry = if quotient then Some (Symmetry.create library) else None in
  let seed = Search.create ?symmetry library in
  Checkpoint.save seed path;
  let census, reason =
    Fmcf.run_guarded ~max_depth:depth ~resume:seed
      ~on_level:(fun s ~cost -> if cost mod every = 0 then Checkpoint.save s path)
      library
  in
  checkb "checkpointed census completed" true (reason = Fmcf.Completed);
  Checkpoint.save (Fmcf.search census) path;
  census

(* The snapshot a checkpointed census leaves, pinned by length and MD5
   ([census -d 6 --checkpoint F] and [census -q 4 -d 5 --quotient
   --checkpoint F]): levels past d - n + 1 are bounded, so it keeps the
   whole levels 0..d-n+1, and resuming it gives the uninterrupted
   census. *)
let test_checkpointed_census_bytes () =
  List.iter
    (fun (name, library, quotient, depth, len, md5) ->
      with_temp_file @@ fun path ->
      ignore (checkpointed_census ~quotient library depth path);
      check Alcotest.int (name ^ ": file length") len (String.length (read_file path));
      check Alcotest.string (name ^ ": MD5") md5 (Digest.to_hex (Digest.file path));
      let r = Checkpoint.load library path in
      check Alcotest.int (name ^ ": snapshot depth")
        (depth - Library.qubits library + 1)
        (Search.depth r))
    [
      (* levels 0-4: 68-byte header, 64 shards x 5 level sizes x 4 bytes,
         2,626 keys x 8 bytes and the 4-byte CRC *)
      ("census -d 6", library3, false, 6, 22_360, "811b4feedde80f1daea5ce20fee709ab");
      (* levels 0-2: 68 + 64 x 3 x 4 + 37 orbits x 16 + 4 *)
      ( "census -q 4 -d 5 --quotient",
        library4,
        true,
        5,
        1_432,
        "5307ebbbd5ea5111a2b566c220dd6deb" );
    ];
  with_temp_file @@ fun path ->
  ignore (checkpointed_census library3 census_depth path);
  let census, reason =
    Fmcf.run_guarded ~max_depth:census_depth ~resume:(Checkpoint.load library3 path) library3
  in
  checkb "resumed census completed" true (reason = Fmcf.Completed);
  checkb "resumed census = uninterrupted census" true
    (census_sig census = census_sig (Lazy.force clean_census))

(* One write per whole level: a bounded level's snapshot is the deepest
   whole level's, level 5 of [census -d 7], which is written once, so
   [census -d 7] writes levels 0-5 and [--checkpoint-every 3] levels 0
   and 3, then 5 from the hook at level 6. *)
let test_one_write_per_level () =
  let writes = Telemetry.Counter.create "search.checkpoint.count" in
  List.iter
    (fun (every, expected) ->
      with_temp_file @@ fun path ->
      Telemetry.set_enabled true;
      let before = Telemetry.Counter.value writes in
      Fun.protect
        ~finally:(fun () -> Telemetry.set_enabled false)
        (fun () -> ignore (checkpointed_census ~every library3 census_depth path));
      check Alcotest.int
        (Printf.sprintf "snapshots written, every %d" every)
        expected
        (Telemetry.Counter.value writes - before);
      check Alcotest.int "last snapshot" (census_depth - 2)
        (Search.depth (Checkpoint.load library3 path)))
    [ (1, 6); (3, 3) ]

(* A save streams the store's key arenas into the file: it allocates a
   header and one shard's level sizes, not a buffer the size of the
   snapshot. *)
(* Bytes allocated since [before], a [Gc.counters] reading: minor plus
   major words less the promoted ones, which both count. *)
let allocated_since (minor, promoted, major) =
  let minor', promoted', major' = Gc.counters () in
  (minor' -. minor +. (major' -. major) -. (promoted' -. promoted))
  *. float_of_int (Sys.word_size / 8)

let test_save_allocation () =
  with_temp_file @@ fun path ->
  (* whole levels 0..4 at four wires: 74,557 states, 1.19 MB *)
  let s = search_at library4 4 in
  let before = Gc.counters () in
  Checkpoint.save s path;
  let allocated = allocated_since before in
  let written = String.length (read_file path) in
  checkb
    (Printf.sprintf "%.0f bytes allocated to write %d" allocated written)
    true
    (allocated < float_of_int written /. 4.);
  (* the bound catches a snapshot-sized buffer *)
  let before = Gc.counters () in
  ignore (Sys.opaque_identity (Bytes.create written));
  let buffered = allocated_since before in
  checkb
    (Printf.sprintf "a %d-byte buffer reads %.0f bytes" written buffered)
    true
    (buffered >= float_of_int written /. 4.)

(* {1 Resource guards} *)

(* A census to depth d bounds level k by the d - k mixed wires a state
   may still clear, which binds once d - k falls below n - 1 (a paper18
   state is mixed on at most n - 1 of its n wires: every gate keeps a
   binary control), and its final level holds functions only.  So its snapshot
   keeps the whole levels 0..d-n+1: that depth, their states, and level
   d-n+1 as the frontier.  Resumed to d it re-runs the bounded levels,
   and resumed to d+1 it runs on; either way the census is the
   uninterrupted one's, member for member. *)
let closed_sig c =
  List.map
    (fun (l : Fmcf.level) ->
      ( l.Fmcf.cost,
        l.Fmcf.frontier_size,
        l.Fmcf.functions,
        List.map member_sig (Fmcf.members_at c ~cost:l.Fmcf.cost) ))
    (Fmcf.levels c)

let test_closed_snapshot (library, depth) quotient jobs () =
  with_temp_file @@ fun path ->
  let name =
    Printf.sprintf "%d wires%s, jobs=%d" (Library.qubits library)
      (if quotient then " quotient" else "")
      jobs
  in
  let run ?resume max_depth =
    let census, reason = Fmcf.run_guarded ~max_depth ~jobs ~quotient ?resume library in
    checkb (Printf.sprintf "%s: depth %d completed" name max_depth) true
      (reason = Fmcf.Completed);
    census
  in
  let census = run depth in
  let s = Fmcf.search census in
  checkb (name ^ ": final") true (Search.bound s = Some 0);
  let whole = depth - Library.qubits library + 1 in
  check Alcotest.int (name ^ ": deepest whole level") whole (Search.whole_depth s);
  Checkpoint.save s path;
  let r = Checkpoint.load ~jobs library path in
  check Alcotest.int (name ^ ": snapshot depth") whole (Search.depth r);
  check Alcotest.int (name ^ ": snapshot states")
    (List.fold_left ( + ) 0 (List.init (whole + 1) (Search.level_size s)))
    (Search.size r);
  check Alcotest.int (name ^ ": snapshot frontier")
    (Search.level_size s whole)
    (Search.frontier_size r);
  List.iter
    (fun d ->
      let resumed = run ~resume:(Checkpoint.load ~jobs library path) d in
      checkb
        (Printf.sprintf "%s: resumed to %d = uninterrupted" name d)
        true
        (closed_sig resumed = closed_sig (if d = depth then census else run d)))
    [ depth; depth + 1 ]

let prefix_of_clean census =
  let depth = Search.depth (Fmcf.search census) in
  let clean = census_sig (Lazy.force clean_census) in
  census_sig census = List.filter (fun (c, _, _, _) -> c <= depth) clean

let test_budget_states () =
  let census, reason = Fmcf.run_guarded ~max_depth:census_depth ~max_states:1000 library3 in
  checkb "stop reason" true (reason = Fmcf.Budget_states);
  checkb "census is below the budgeted level count" true
    (Search.depth (Fmcf.search census) < census_depth);
  checkb "partial census is an exact prefix of the clean one" true
    (prefix_of_clean census)

let test_budget_mem () =
  let census, reason =
    Fmcf.run_guarded ~max_depth:census_depth ~max_mem:(64 * 1024) library3
  in
  checkb "stop reason" true (reason = Fmcf.Budget_mem);
  checkb "partial census is an exact prefix of the clean one" true
    (prefix_of_clean census)

(* Four wires: the cap sits one byte under what the store would hold
   once level 4's reservation is made (bounded by the one mixed wire a
   depth-5 census leaves it), so levels 1-3 run and the census stops
   PARTIAL at that boundary, before reserving, with the store under the
   cap and every level exactly the uncapped run's: levels 0-2 whole, and
   level 3's 7,174 states within two mixed wires. *)
let test_budget_mem_four_wires () =
  let clean = search_at ~horizon:5 library4 3 in
  check Alcotest.int "level 3 within two mixed wires" 7_174 (Search.level_size clean 3);
  let cap = Search.predicted_bytes ~bound:1 clean - 1 in
  let census, reason = Fmcf.run_guarded ~max_depth:5 ~max_mem:cap library4 in
  checkb "stop reason" true (reason = Fmcf.Budget_mem);
  let s = Fmcf.search census in
  check Alcotest.int "stopped at level 3" 3 (Search.depth s);
  checkb "store under the cap" true (Search.arena_bytes s <= cap);
  check
    Alcotest.(list (pair int int))
    "|G[k]| prefix"
    [ (0, 1); (1, 12); (2, 96); (3, 542) ]
    (Fmcf.counts census);
  check Alcotest.int "states" (Search.size clean) (Search.size s);
  for d = 0 to 3 do
    check
      Alcotest.(array string)
      (Printf.sprintf "level %d keys" d)
      (keys_at clean d) (keys_at s d)
  done

let test_cancel_immediate () =
  let census, reason =
    Fmcf.run_guarded ~max_depth:census_depth ~should_stop:(fun () -> true) library3
  in
  checkb "stop reason" true (reason = Fmcf.Cancelled);
  check Alcotest.int "no level expanded" 0 (Search.depth (Fmcf.search census));
  check
    Alcotest.(list (pair int int))
    "level 0 only" [ (0, 1) ] (Fmcf.counts census)

(* Cancellation firing mid-expansion: the half-built level must be rolled
   back, leaving an exact prefix census. *)
let test_cancel_mid_level () =
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 100
  in
  let census, reason =
    Fmcf.run_guarded ~max_depth:census_depth ~should_stop:stop library3
  in
  checkb "stop reason" true (reason = Fmcf.Cancelled);
  checkb "some levels completed before the cancel" true
    (Search.depth (Fmcf.search census) > 0);
  checkb "rolled-back census is an exact prefix of the clean one" true
    (prefix_of_clean census)

(* {1 QCheck: restore ∘ snapshot = identity} *)

let qcheck_round_trip =
  qcheck_test ~count:20 "restore . snapshot = identity"
    QCheck2.Gen.(int_range 0 4)
    (fun depth ->
      with_temp_file @@ fun path ->
      let s = search_at library2 depth in
      Checkpoint.save s path;
      let r = Checkpoint.load library2 path in
      Search.depth r = Search.depth s
      && Search.size r = Search.size s
      && frontier_keys r = frontier_keys s
      && List.for_all
           (fun d ->
             Search.handles_at_depth s d = Search.handles_at_depth r d
             && keys_at s d = keys_at r d)
           (List.init (depth + 1) Fun.id))

(* {1 Loader fuzz}

   Random bytes of a valid snapshot are overwritten and the CRC is
   sealed again, so the damage reaches the structural checks.  The
   loader must then return a search or raise [Corrupt] or [Mismatch];
   any other exception fails the property.  Half the writes land in the
   68-byte header, whose fields steer the reader; the rest anywhere
   before the CRC, where a shard's level sizes sit between the keys of
   its neighbours (a third of the open snapshot's body).  The snapshots
   are one of
   an open engine (raw, depth 3) and one of a bounded census (a
   quotient census to depth 4, whose snapshot holds its whole levels
   0..2). *)

let reseal b =
  let len = Bytes.length b in
  Bytes.set_int32_le b (len - 4) (Int32.of_int (Checkpoint.crc32 b ~off:0 ~len:(len - 4)))

let fuzz_sources =
  lazy
    (List.map
       (fun s ->
         with_temp_file @@ fun path ->
         Checkpoint.save s path;
         read_file path)
       [ search_at library3 3; Fmcf.search (Fmcf.run ~max_depth:4 ~quotient:true library3) ])

(* which snapshot, then writes: (in the first [head] bytes?, position
   seed, byte) *)
let mutations =
  QCheck2.Gen.(
    pair bool (list_size (int_range 1 6) (triple bool (int_bound 1_000_000) (int_bound 255))))

let mutate src (_, writes) ~head =
  let b = Bytes.of_string src in
  let body = Bytes.length b - 4 in
  List.iter
    (fun (in_head, pos, v) ->
      Bytes.set b ((if in_head then pos mod min head body else pos mod body)) (Char.chr v))
    writes;
  reseal b;
  b

let qcheck_loader_fuzz =
  qcheck_test ~count:400 "mutated snapshots load or raise typed" mutations
    (fun ((bounded, _) as m) ->
      let src = List.nth (Lazy.force fuzz_sources) (if bounded then 1 else 0) in
      let damaged = mutate src m ~head:68 in
      with_temp_file @@ fun path ->
      write_file path (Bytes.to_string damaged);
      match Checkpoint.load library3 path with
      | _ -> true
      | exception (Checkpoint.Corrupt _ | Checkpoint.Mismatch _) -> true)

(* {1 Golden bytes}

   QSYNCKP1 files pinned by length and CRC-32 trailer, as written by
   [census -d 6 --checkpoint] and [census -q 4 -d 4 --checkpoint], plain
   and with [--quotient]: a change to the arena's handles, frontier
   order, level sizes or keys shows up here. *)

let test_golden_checkpoint_bytes () =
  List.iter
    (fun (name, library, quotient, depth, len, crc) ->
      with_temp_file @@ fun path ->
      let symmetry = if quotient then Some (Symmetry.create library) else None in
      let s = Search.create ?symmetry library in
      for _ = 1 to depth do
        ignore (Search.step_handles s)
      done;
      Checkpoint.save s path;
      let bytes = Checkpoint.read_file path in
      check Alcotest.int (name ^ ": file length") len (Bytes.length bytes);
      check Alcotest.string (name ^ ": CRC-32 trailer") (Printf.sprintf "%08lx" crc)
        (Printf.sprintf "%08lx" (Bytes.get_int32_le bytes (Bytes.length bytes - 4))))
    [
      ("census -d 6", library3, false, 6, 88_840, 0xa49f6683l);
      ("census -d 6 --quotient", library3, true, 6, 16_544, 0x1aec0542l);
      ("census -q 4 -d 4", library4, false, 4, 1_194_264, 0xf0051e53l);
      ("census -q 4 -d 4 --quotient", library4, true, 4, 52_632, 0xa578edccl);
    ]

let () =
  Alcotest.run "checkpoint"
    [
      ( "round trip",
        List.map
          (fun d ->
            Alcotest.test_case (Printf.sprintf "depth %d" d) `Quick
              (test_round_trip d))
          [ 0; 1; 2; 3; 4 ]
        @ [ Alcotest.test_case "header on load" `Quick test_header_on_load ] );
      ( "damage rejection",
        [
          Alcotest.test_case "truncation" `Quick test_truncation_rejected;
          Alcotest.test_case "bit flips" `Quick test_bitflip_rejected;
          Alcotest.test_case "version gate" `Quick test_version_gate;
          Alcotest.test_case "version-3 fixture" `Quick test_v3_fixture_rejected;
          Alcotest.test_case "library mismatch" `Quick test_library_mismatch;
          Alcotest.test_case "atomic save under crash" `Quick test_atomic_save_crash;
        ] );
      ( "crash and resume",
        List.map
          (fun k ->
            Alcotest.test_case (Printf.sprintf "crash at level %d" k) `Quick
              (test_crash_resume k))
          [ 1; 2; 3; 4; 5; 6 ]
        @ [ Alcotest.test_case "checkpointed census bytes" `Quick test_checkpointed_census_bytes ]
        @ List.concat_map
            (fun ((library, depth) as case) ->
              List.concat_map
                (fun quotient ->
                  List.map
                    (fun jobs ->
                      Alcotest.test_case
                        (Printf.sprintf "closed q%d -d %d %s (jobs=%d)"
                           (Library.qubits library) depth
                           (if quotient then "quotient" else "raw")
                           jobs)
                        `Quick
                        (test_closed_snapshot case quotient jobs))
                    [ 1; 2 ])
                [ false; true ])
            [ (library3, 6); (library4, 4) ] );
      ( "streamed save",
        [
          Alcotest.test_case "one write per level" `Quick test_one_write_per_level;
          Alcotest.test_case "allocation bound" `Quick test_save_allocation;
        ] );
      ( "resource guards",
        [
          Alcotest.test_case "max states" `Quick test_budget_states;
          Alcotest.test_case "max mem" `Quick test_budget_mem;
          Alcotest.test_case "max mem, four wires" `Quick test_budget_mem_four_wires;
          Alcotest.test_case "cancel immediately" `Quick test_cancel_immediate;
          Alcotest.test_case "cancel mid-level" `Quick test_cancel_mid_level;
        ] );
      ("properties", [ qcheck_round_trip; qcheck_loader_fuzz ]);
      ( "golden bytes",
        [ Alcotest.test_case "QSYNCKP1 length and CRC" `Quick test_golden_checkpoint_bytes ] );
    ]
