(* Symmetry-quotient parity tests: the quotiented census must be
   observationally identical to the unquotiented one — Table 2, the
   paper's printed row, |S8[k]|, the exact 1260 depth-7 members with
   equal costs and witness cascades, and byte-identical QSYNIDX2 files,
   and the same at 4 wires under S4 — plus QCheck properties of the
   canonical form, quotient (v2) checkpoint round-trips, rejection of
   retired v1 snapshots and of snapshots whose symmetry section is
   damaged or mismatched. *)

open Synthesis

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

let qcheck_test ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let sym3 = lazy (Symmetry.create library3)
let raw7 = lazy (Fmcf.run ~max_depth:7 library3)
let quot7 = lazy (Fmcf.run ~max_depth:7 ~quotient:true library3)

let with_temp_file f =
  let path = Filename.temp_file "qsynth_quot" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

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

let func_key m = Permgroup.Perm.key (Reversible.Revfun.to_perm m.Fmcf.func)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* {1 Census parity} *)

let test_table2_parity () =
  let raw = Lazy.force raw7 and quot = Lazy.force quot7 in
  checkb "raw is not quotiented" false (Fmcf.quotiented raw);
  checkb "quotient is quotiented" true (Fmcf.quotiented quot);
  check
    Alcotest.(list (pair int int))
    "paper's printed row" (Fmcf.paper_counts raw) (Fmcf.paper_counts quot);
  check
    Alcotest.(list (pair int int))
    "|G[k]|" (Fmcf.counts raw) (Fmcf.counts quot);
  check
    Alcotest.(list (pair int int))
    "|S8[k]|" (Fmcf.s8_counts raw) (Fmcf.s8_counts quot);
  check Alcotest.int "total functions" (Fmcf.total_found raw)
    (Fmcf.total_found quot);
  check Alcotest.int "1260 functions" 1260 (Fmcf.total_found quot)

(* Every one of the 1260 members: same function set, same cost, and the
   reconstructed witness cascade is gate-for-gate identical. *)
let test_members_parity () =
  let members census =
    let tbl = Hashtbl.create 2048 in
    Fmcf.iter_members census (fun ~cost m ->
        Hashtbl.replace tbl (func_key m) (cost, Fmcf.cascade_of_member census m));
    tbl
  in
  let raw = Lazy.force raw7 and quot = Lazy.force quot7 in
  let rm = members raw and qm = members quot in
  check Alcotest.int "member count" (Hashtbl.length rm) (Hashtbl.length qm);
  Hashtbl.iter
    (fun key (cost, cascade) ->
      match Hashtbl.find_opt qm key with
      | None -> Alcotest.failf "function missing from the quotient census"
      | Some (qcost, qcascade) ->
          if cost <> qcost then
            Alcotest.failf "cost differs: raw %d, quotient %d" cost qcost;
          if not (List.equal Gate.equal cascade qcascade) then
            Alcotest.failf "witness cascade differs at cost %d" cost)
    rm

let test_index_byte_identity () =
  with_temp_file @@ fun path_raw ->
  with_temp_file @@ fun path_quot ->
  Census_index.save (Census_index.build (Lazy.force raw7)) path_raw;
  Census_index.save (Census_index.build (Lazy.force quot7)) path_quot;
  checkb "QSYNIDX2 files byte-identical" true
    (String.equal (read_file path_raw) (read_file path_quot))

(* --save writes the same file in both modes, line for line. *)
let test_save_byte_identity () =
  with_temp_file @@ fun path_raw ->
  with_temp_file @@ fun path_quot ->
  Census_io.save (Lazy.force raw7) path_raw;
  Census_io.save (Lazy.force quot7) path_quot;
  check Alcotest.string "census TSVs byte-identical" (read_file path_raw)
    (read_file path_quot)

(* State counts under the same 1 GiB arena guard, raw and quotiented, at
   depths 7 and 8: the quotient keeps about one state in six, and both
   modes count the same functions.  A census to depth d keeps at level
   k the states mixed on at most d - k wires, which binds from level
   d - 1 on at 3 wires, and the final level holds functions only, so
   each count is the whole levels 0..d-2, then level d-1's states within
   one mixed wire, then level d's function states (orbits when
   quotiented):
   - depth 7: raw 5,992 + 2,420 + 540, quotient 1,014 + 410 + 94;
   - depth 8: raw 10,872 + 5,700 + 444, quotient 1,835 + 960 + 77.
   (The full levels 6, 7 and 8 hold 4,880, 9,876 and 20,172 images,
   821, 1,658 and 3,379 orbits.) *)
let test_state_counts () =
  let guarded ~depth ~quotient =
    let census, reason =
      Fmcf.run_guarded ~max_depth:depth ~quotient ~max_mem:(1 lsl 30) library3
    in
    checkb
      (Printf.sprintf "depth %d (quotient %b) completed" depth quotient)
      true (reason = Fmcf.Completed);
    census
  in
  List.iter
    (fun (depth, raw_states, quot_states) ->
      let raw = guarded ~depth ~quotient:false
      and quot = guarded ~depth ~quotient:true in
      check Alcotest.int
        (Printf.sprintf "depth %d raw states" depth)
        raw_states
        (Search.size (Fmcf.search raw));
      check Alcotest.int
        (Printf.sprintf "depth %d quotient states" depth)
        quot_states
        (Search.size (Fmcf.search quot));
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "depth %d |G[k]|" depth)
        (Fmcf.counts raw) (Fmcf.counts quot))
    [ (7, 8_952, 1_518); (8, 17_016, 2_872) ]

(* {1 Four wires: the S4 quotient} *)

(* The 4-wire group has 24 relabelings, which the conjugator field must
   hold; the quotient census must count what the plain one counts, and
   every member's witness must replay exactly as a unitary. *)
let test_four_wire_parity () =
  let library4 = Library.make (Mvl.Encoding.make ~qubits:4) in
  checkb "S4 has 24 elements" true (Symmetry.order (Symmetry.create library4) = 24);
  let plain = Fmcf.run ~max_depth:5 library4 in
  let quot = Fmcf.run ~max_depth:5 ~quotient:true library4 in
  check Alcotest.(list int) "4-wire |G[k]|" [ 1; 12; 96; 542; 2154; 6804 ]
    (List.map snd (Fmcf.counts plain));
  check Alcotest.(list (pair int int)) "quotient row" (Fmcf.counts plain)
    (Fmcf.counts quot);
  Fmcf.iter_members quot (fun ~cost m ->
      let r =
        { Mce.target = m.Fmcf.func; not_mask = 0;
          cascade = Fmcf.cascade_of_member quot m; cost }
      in
      if List.length r.Mce.cascade <> cost || not (Verify.result_valid library4 r) then
        Alcotest.failf "4-wire witness of cost %d does not replay" cost)

(* NCT at 4 wires has no mixed points, so every state is a function and
   a quotiented level counts pure orbit sizes: the rows, the streamed
   member sets, and each representative's orbit size must all agree with
   the plain census and with the materialized orbit. *)
let test_four_wire_nct_parity () =
  let nct4 = Library.of_name ~qubits:4 "nct" in
  let plain = Fmcf.run ~max_depth:4 nct4 in
  let quot = Fmcf.run ~max_depth:4 ~quotient:true nct4 in
  check Alcotest.(list int) "4-wire NCT |S16[k]|" [ 1; 28; 576; 9886; 147841 ]
    (List.map snd (Fmcf.counts plain));
  check Alcotest.(list (pair int int)) "quotient row" (Fmcf.counts plain)
    (Fmcf.counts quot);
  let member_set census =
    let acc = ref [] in
    Fmcf.iter_members census (fun ~cost m -> acc := (func_key m, cost) :: !acc);
    List.sort compare !acc
  in
  check Alcotest.(list (pair string int)) "member sets" (member_set plain)
    (member_set quot);
  let search = Fmcf.search quot in
  let sym = Option.get (Search.symmetry search) in
  for d = 0 to Fmcf.depth quot do
    Array.iter
      (fun h ->
        let img = Search.key_of_handle search h in
        (* the orbit by brute force: the distinct conjugates *)
        let expected =
          List.length
            (List.sort_uniq compare
               (List.init (Symmetry.order sym) (fun i -> Symmetry.conjugate_image sym i img)))
        in
        let got = Symmetry.orbit_size sym ~src:(Bytes.of_string img) ~soff:0 in
        if got <> expected then
          Alcotest.failf "orbit_size %d, distinct conjugates %d at depth %d" got expected d)
      (Search.handles_at_depth search d)
  done

(* {1 Canonical-form properties} *)

(* canon is constant on orbits and idempotent, over arbitrary image
   vectors (any point value, not just reachable states). *)
let test_canon_invariant_qcheck =
  let sym = Lazy.force sym3 in
  let size = Mvl.Encoding.size (Library.encoding library3) in
  let gen =
    QCheck2.Gen.(
      pair
        (int_range 0 (Symmetry.order sym - 1))
        (string_size ~gen:(map Char.chr (int_range 0 (size - 1)))
           (pure (Symmetry.num_binary sym))))
  in
  qcheck_test "canon(g.s) = canon(s)" gen (fun (g, v) ->
      let c, _ = Symmetry.canon sym v in
      let c', _ = Symmetry.canon sym (Symmetry.conjugate_image sym g v) in
      let c'', i = Symmetry.canon sym c in
      String.equal c c' && String.equal c c'' && i = 0)

(* The same invariance over every reachable state of a shallow
   unquotiented search — the vectors the engine actually canonicalizes. *)
let test_canon_invariant_reachable () =
  let sym = Lazy.force sym3 in
  let s = Search.create library3 in
  for _ = 1 to 3 do
    ignore (Search.step_handles s)
  done;
  for d = 0 to 3 do
    Array.iter
      (fun h ->
        let img = Search.key_of_handle s h in
        let c, _ = Symmetry.canon sym img in
        for g = 0 to Symmetry.order sym - 1 do
          let c', _ = Symmetry.canon sym (Symmetry.conjugate_image sym g img) in
          if not (String.equal c c') then
            Alcotest.failf "canon not orbit-constant at depth %d" d
        done)
      (Search.handles_at_depth s d)
  done

(* canon_into against brute force: the least [conjugate_image] string
   over all elements, the earliest element on ties, at 3 and 4 wires.
   Images come from random bytes and from reachable states, many of
   which (the identity, single gates) have non-trivial stabilizers, so
   the tie rule decides the conjugator.  Buffers are read and written at
   non-zero offsets. *)
let test_canon_brute_force qubits () =
  let library = Library.make (Mvl.Encoding.make ~qubits) in
  let sym = Symmetry.create library in
  let nb = Symmetry.num_binary sym and size = Mvl.Encoding.size (Library.encoding library) in
  let reference img =
    let best = ref img and arg = ref 0 in
    for i = 1 to Symmetry.order sym - 1 do
      let c = Symmetry.conjugate_image sym i img in
      if String.compare c !best < 0 then begin
        best := c;
        arg := i
      end
    done;
    (!best, !arg)
  in
  let src = Bytes.make (nb + 3) '\255' and dst = Bytes.make (nb + 5) '\255' in
  let check_img img =
    Bytes.blit_string img 0 src 3 nb;
    let conj = Symmetry.canon_into sym ~src ~soff:3 ~dst ~doff:5 in
    let expected, arg = reference img in
    check Alcotest.string "canonical form" expected (Bytes.sub_string dst 5 nb);
    check Alcotest.int "conjugator" arg conj;
    check Alcotest.string "src untouched" img (Bytes.sub_string src 3 nb)
  in
  let rng = Random.State.make [| qubits |] in
  for _ = 1 to 2000 do
    check_img (String.init nb (fun _ -> Char.chr (Random.State.int rng size)))
  done;
  let s = Search.create library in
  for _ = 1 to 3 do
    ignore (Search.step_handles s)
  done;
  let stabilized = ref 0 in
  for d = 0 to 3 do
    Array.iter
      (fun h ->
        let img = Search.key_of_handle s h in
        if Symmetry.orbit_size sym ~src:(Bytes.of_string img) ~soff:0 < Symmetry.order sym
        then incr stabilized;
        check_img img)
      (Search.handles_at_depth s d)
  done;
  checkb "some images have a non-trivial stabilizer" true (!stabilized > 0)

(* {1 Quotient checkpoints} *)

let quotient_search_at ?(jobs = 1) depth =
  let s = Search.create ~jobs ~symmetry:(Lazy.force sym3) library3 in
  for _ = 1 to depth do
    ignore (Search.step_handles s)
  done;
  s

let keys_at s d = Array.map (Search.key_of_handle s) (Search.handles_at_depth s d)
let cascades_at s d = Array.map (Search.cascade_of_handle s) (Search.handles_at_depth s d)

let test_v2_round_trip () =
  with_temp_file @@ fun path ->
  let s = quotient_search_at 5 in
  Checkpoint.save s path;
  let header = Bytes.of_string (read_file path) in
  checkb "header records the symmetry fingerprint" true
    (Bytes.get_int32_le header 28 = 1l
    && Bytes.get_int64_le header 20 = Symmetry.fingerprint (Lazy.force sym3));
  let r = Checkpoint.load library3 path in
  checkb "restored engine is quotiented" true (Search.symmetry r <> None);
  check Alcotest.int "depth" (Search.depth s) (Search.depth r);
  check Alcotest.int "size" (Search.size s) (Search.size r);
  for d = 0 to 5 do
    check Alcotest.(array string)
      (Printf.sprintf "level %d keys" d)
      (keys_at s d) (keys_at r d);
    checkb
      (Printf.sprintf "level %d witnesses" d)
      true
      (cascades_at s d = cascades_at r d)
  done;
  (* continuing both engines stays byte-identical *)
  let e = Search.step_handles s and g = Search.step_handles r in
  check Alcotest.(array int) "continued handles" e g;
  check Alcotest.(array string) "continued keys"
    (Array.map (Search.key_of_handle s) e)
    (Array.map (Search.key_of_handle r) g)

let test_v2_resume_parity () =
  with_temp_file @@ fun path ->
  Checkpoint.save (quotient_search_at 4) path;
  let resume = Checkpoint.load library3 path in
  let resumed, reason = Fmcf.run_guarded ~max_depth:7 ~resume library3 in
  checkb "resumed census completed" true (reason = Fmcf.Completed);
  let fresh = Lazy.force quot7 in
  check Alcotest.(list (pair int int)) "resumed counts" (Fmcf.counts fresh)
    (Fmcf.counts resumed);
  check Alcotest.int "resumed total" (Fmcf.total_found fresh)
    (Fmcf.total_found resumed)

let test_v2_jobs_determinism () =
  with_temp_file @@ fun p1 ->
  with_temp_file @@ fun p4 ->
  Checkpoint.save (quotient_search_at ~jobs:1 6) p1;
  Checkpoint.save (quotient_search_at ~jobs:4 6) p4;
  checkb "jobs=1 and jobs=4 quotient snapshots byte-identical" true
    (String.equal (read_file p1) (read_file p4))

let reseal buf =
  let n = Bytes.length buf in
  Bytes.set_int32_le buf (n - 4)
    (Int32.of_int (Checkpoint.crc32 buf ~off:0 ~len:(n - 4)))

(* Versions 1 to 3 stored parent chains; a current snapshot relabeled
   with an old version stands in for one, and the committed fixture is a
   real version-3 file (see test_checkpoint). *)
let test_v1_rejected () =
  with_temp_file @@ fun path ->
  let s = Search.create library3 in
  for _ = 1 to 3 do
    ignore (Search.step_handles s)
  done;
  Checkpoint.save s path;
  checkb "unquotiented snapshot has no symmetry section" true
    (Search.symmetry (Checkpoint.load library3 path) = None);
  let current = read_file path in
  List.iter
    (fun v ->
      let buf = Bytes.of_string current in
      Bytes.set_int32_le buf 8 (Int32.of_int v);
      reseal buf;
      write_file path (Bytes.to_string buf);
      match Checkpoint.load library3 path with
      | exception Checkpoint.Mismatch msg ->
          checkb
            (Printf.sprintf "message names format version %d" v)
            true
            (contains ~sub:(Printf.sprintf "format version %d" v) msg)
      | exception Checkpoint.Corrupt msg ->
          Alcotest.failf "raised Corrupt (%s) instead of Mismatch" msg
      | _ -> Alcotest.failf "a v%d snapshot loaded" v)
    [ 1; 2; 3 ]

(* {1 Damaged symmetry sections} *)

(* v4 layout: magic 8 | version u32 | library fp u64 | symmetry fp u64 at
   offset 20 | quotient u32 | 4 u32 (qubits, key length, gates, depth) |
   states u64 | frontier u64 | num_shards u32 at offset 64 | per shard:
   depth + 1 level sizes u32, then its keys | crc u32.  Patches below
   re-seal the CRC so the format gates, not the checksum, must reject
   the file. *)

let test_symmetry_fingerprint_mismatch () =
  with_temp_file @@ fun path ->
  Checkpoint.save (quotient_search_at 3) path;
  let buf = Bytes.of_string (read_file path) in
  Bytes.set buf 20 (Char.chr (Char.code (Bytes.get buf 20) lxor 0x01));
  reseal buf;
  write_file path (Bytes.to_string buf);
  match Checkpoint.load library3 path with
  | exception Checkpoint.Mismatch msg ->
      checkb "message names the symmetry group" true (contains ~sub:"symmetry" msg)
  | exception Checkpoint.Corrupt msg ->
      Alcotest.failf "raised Corrupt (%s) instead of Mismatch" msg
  | _ -> Alcotest.fail "mismatched symmetry fingerprint loaded without error"

(* A quotient store holds canonical keys only.  A stored key replaced by
   one of its other conjugates that hashes into the same shard (and is
   not stored) passes every shard and uniqueness check, so only the
   canonical-form check can reject it. *)
let test_non_canonical_key () =
  with_temp_file @@ fun path ->
  let s = quotient_search_at 3 in
  Checkpoint.save s path;
  let sym = Lazy.force sym3 in
  let store = Search.store s in
  let nb = Search.key_length s in
  let depth = Search.depth s in
  let shard_offset = Array.make (State_arena.num_shards + 1) 68 in
  for sh = 0 to State_arena.num_shards - 1 do
    shard_offset.(sh + 1) <-
      shard_offset.(sh) + (4 * (depth + 1)) + (nb * State_arena.shard_count store sh)
  done;
  let forged = ref None in
  for d = 1 to depth do
    Array.iter
      (fun h ->
        let key = Search.key_of_handle s h in
        for i = 1 to Symmetry.order sym - 1 do
          let c = Symmetry.conjugate_image sym i key in
          let hash = State_arena.hash_key (Bytes.of_string c) ~off:0 ~len:nb in
          if
            !forged = None && c <> key
            && State_arena.shard_of_hash hash = State_arena.shard_of_handle h
            && Search.handle_of_key s c = None
          then forged := Some (h, c)
        done)
      (Search.handles_at_depth s d)
  done;
  let h, c = Option.get !forged in
  let sh = State_arena.shard_of_handle h in
  let pos = shard_offset.(sh) + (4 * (depth + 1)) + State_arena.key_offset store h in
  let buf = Bytes.of_string (read_file path) in
  check Alcotest.string "the patched bytes are the stored key" (Search.key_of_handle s h)
    (Bytes.sub_string buf pos nb);
  Bytes.blit_string c 0 buf pos nb;
  reseal buf;
  write_file path (Bytes.to_string buf);
  match Checkpoint.load library3 path with
  | exception Checkpoint.Corrupt msg ->
      checkb "message names the canonical form" true (contains ~sub:"canonical" msg)
  | exception Checkpoint.Mismatch msg ->
      Alcotest.failf "raised Mismatch (%s) instead of Corrupt" msg
  | _ -> Alcotest.fail "a non-canonical key loaded without error"

let () =
  Alcotest.run "quotient"
    [
      ( "parity",
        [
          Alcotest.test_case "table 2 and |S8[k]|" `Quick test_table2_parity;
          Alcotest.test_case "1260 members and cascades" `Quick
            test_members_parity;
          Alcotest.test_case "index byte-identity" `Quick
            test_index_byte_identity;
          Alcotest.test_case "--save byte-identity" `Quick test_save_byte_identity;
          Alcotest.test_case "state counts at depths 7 and 8" `Quick
            test_state_counts;
        ] );
      ( "four wires",
        [
          Alcotest.test_case "S4 quotient parity and replay" `Quick
            test_four_wire_parity;
          Alcotest.test_case "NCT quotient parity and orbit sizes" `Quick
            test_four_wire_nct_parity;
        ] );
      ( "canonical form",
        [
          test_canon_invariant_qcheck;
          Alcotest.test_case "canon_into = brute force, 3 wires" `Quick
            (test_canon_brute_force 3);
          Alcotest.test_case "canon_into = brute force, 4 wires" `Quick
            (test_canon_brute_force 4);
          Alcotest.test_case "reachable states" `Quick
            test_canon_invariant_reachable;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "v2 round trip" `Quick test_v2_round_trip;
          Alcotest.test_case "v2 resume parity" `Quick test_v2_resume_parity;
          Alcotest.test_case "v2 jobs determinism" `Quick
            test_v2_jobs_determinism;
          Alcotest.test_case "v1 is rejected" `Quick test_v1_rejected;
          Alcotest.test_case "symmetry fingerprint mismatch" `Quick
            test_symmetry_fingerprint_mismatch;
          Alcotest.test_case "non-canonical key" `Quick test_non_canonical_key;
        ] );
    ]
