(* Total-coverage proof for the complete QSYNIDX2 index.

   The claim is that [Census_index.build] on a census run to closure
   yields an index holding {e every} zero-fixing member of S8 — 5040
   records whose 2^3 Theorem-2 NOT cosets cover all 40320 members — so
   the planner can answer any realizable request with a binary search
   and treat a miss as a broken file, never as a reason to search.

   The spectrum asserted below (note the genuine gap at cost 11 and the
   diameter of 13) is cross-validated: every witness replays to its
   claimed function under the multiple-valued gate semantics, and a
   seeded sample is re-derived here against a fresh meet-in-the-middle
   engine, which shares no code with the census beyond the library. *)

open Synthesis
open Reversible

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let library3 = Library.make (Mvl.Encoding.make ~qubits:3)
let closure = lazy (Fmcf.run ~max_depth:13 ~quotient:true library3)
let complete = lazy (Census_index.build (Lazy.force closure))

(* |G[k]| over the whole zero-fixing universe.  Empty at k = 11 yet
   inhabited at 12 and 13: legality (the reasonable-product rule)
   constrains which gate may follow which {e image vector}, and
   intermediate vectors may leave the binary block, so minimal-cost
   levels of the binary-permutation targets need not be contiguous. *)
let spectrum = [| 1; 6; 24; 51; 84; 156; 398; 540; 444; 1440; 552; 0; 1232; 112 |]
let universe = 5040
let coverage_s8 = 40320

let with_temp_file f =
  let path = Filename.temp_file "qsynth_cidx" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

(* every zero-fixing function of S8, in lexicographic order *)
let iter_universe f =
  let nb = 8 in
  let perm = Array.init (nb - 1) (fun i -> i + 1) in
  let next () =
    let n = Array.length perm in
    let swap i j =
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    in
    let i = ref (n - 2) in
    while !i >= 0 && perm.(!i) >= perm.(!i + 1) do
      decr i
    done;
    if !i < 0 then false
    else begin
      let j = ref (n - 1) in
      while perm.(!j) <= perm.(!i) do
        decr j
      done;
      swap !i !j;
      let l = ref (!i + 1) and r = ref (n - 1) in
      while !l < !r do
        swap !l !r;
        incr l;
        decr r
      done;
      true
    end
  in
  let continue = ref true in
  while !continue do
    f (Revfun.of_outputs ~bits:3 (0 :: Array.to_list perm));
    continue := next ()
  done

let realizes func cascade =
  Cascade.is_reasonable library3 cascade
  &&
  match Cascade.restriction library3 cascade with
  | Some f -> Revfun.equal f func
  | None -> false

let test_total_coverage () =
  let idx = Lazy.force complete in
  checkb "complete" true (Census_index.is_complete idx);
  check Alcotest.int "size = (2^3 - 1)!" universe (Census_index.size idx);
  check Alcotest.int "coverage = |S8|" coverage_s8 (Census_index.coverage idx);
  check Alcotest.int "the closure census found the whole universe" universe
    (Fmcf.total_found (Lazy.force closure));
  check Alcotest.int "depth = max cost" 13 (Census_index.depth idx);
  check Alcotest.(array int) "spectrum" spectrum (Census_index.histogram idx);
  (* the histogram is the census's own Table 2 *)
  List.iter
    (fun (cost, n) ->
      check Alcotest.int
        (Printf.sprintf "|G[%d]| matches the census" cost)
        n spectrum.(cost))
    (Fmcf.counts (Lazy.force closure));
  (* every member of the universe answers, and no probe ever misses *)
  let seen = Array.make (Array.length spectrum) 0 in
  let total = ref 0 in
  iter_universe (fun func ->
      incr total;
      match Census_index.find idx func with
      | None -> Alcotest.fail "complete index missed a zero-fixing function"
      | Some (cost, _) -> seen.(cost) <- seen.(cost) + 1);
  check Alcotest.int "universe enumerated" universe !total;
  check Alcotest.(array int) "per-cost lookup counts" spectrum seen

(* {1 Canonical witnesses}

   [reference_cascade] is the per-member greedy walk that
   [Fmcf.cascade_of_member] memoizes: from the member's image, peel the
   least library gate whose removal lands on an image of minimal census
   depth exactly one lower, re-deriving every step of every witness from
   scratch.  The memoized reconstruction must agree with it member by
   member, in both modes and on every library. *)

let reference_cascade census (member : Fmcf.member) =
  let search = Fmcf.search census in
  let library = Search.library search in
  let entries = Library.entries library in
  let encoding = Library.encoding library in
  let nb = Mvl.Encoding.num_binary encoding in
  let signatures =
    Array.init (Mvl.Encoding.size encoding) (Mvl.Encoding.mixed_signature encoding)
  in
  let depth_of img =
    let key =
      match Search.symmetry search with
      | Some sym -> fst (Symmetry.canon sym img)
      | None -> img
    in
    Option.map (Search.depth_of_handle search) (Search.handle_of_key search key)
  in
  let v = Bytes.init nb (fun b -> Char.chr (Revfun.apply member.Fmcf.func b)) in
  let u = Bytes.create nb in
  let acc = ref [] in
  for k = member.Fmcf.cost downto 1 do
    let rec find g =
      if g >= Array.length entries then Alcotest.fail "reference walk found no step"
      else begin
        let e = entries.(g) in
        let sg = ref 0 in
        for b = 0 to nb - 1 do
          let x = e.Library.inverse_array.(Char.code (Bytes.get v b)) in
          Bytes.set u b (Char.chr x);
          sg := !sg lor signatures.(x)
        done;
        if !sg land e.Library.purity_mask = 0
           && depth_of (Bytes.to_string u) = Some (k - 1)
        then g
        else find (g + 1)
      end
    in
    let g = find 0 in
    acc := entries.(g).Library.gate :: !acc;
    Bytes.blit u 0 v 0 nb
  done;
  !acc

let paper18_raw = lazy (Fmcf.run ~max_depth:13 library3)
let nct8 = lazy (Fmcf.run ~max_depth:8 (Library.of_name "nct"))
let nft7 = lazy (Fmcf.run ~max_depth:7 (Library.of_name "nft"))

let library4 = Library.make (Mvl.Encoding.make ~qubits:4)
let nct4 = Library.of_name ~qubits:4 "nct"
let paper4_raw = lazy (Fmcf.run ~max_depth:4 library4)
let paper4_quot = lazy (Fmcf.run ~max_depth:4 ~quotient:true library4)
let nct4_raw = lazy (Fmcf.run ~max_depth:3 nct4)
let nct4_quot = lazy (Fmcf.run ~max_depth:3 ~quotient:true nct4)

let test_witnesses_match_reference () =
  List.iter
    (fun (name, census) ->
      let census = Lazy.force census in
      let checked = ref 0 in
      Fmcf.iter_members census (fun ~cost m ->
          incr checked;
          let got = Fmcf.cascade_of_member census m in
          if not (List.equal Gate.equal got (reference_cascade census m)) then
            Alcotest.failf "%s: cost-%d witness %s differs from the reference walk"
              name cost (Cascade.to_string got));
      check Alcotest.int (name ^ ": every member checked")
        (Fmcf.total_found census) !checked)
    [
      ("paper18 -d 13", paper18_raw);
      ("paper18 -d 13 --quotient", closure);
      ("nct -d 8", nct8);
      ("nft -d 7", nft7);
      ("4-wire paper18 -d 4", paper4_raw);
      (* the order-24 group, where non-trivial stabilizers make several
         conjugators reach one image *)
      ("4-wire paper18 -d 4 --quotient", paper4_quot);
      ("4-wire nct -d 3 --quotient", nct4_quot);
    ]

(* One witness rule for every plan: the engine's backward step, read
   from a member's image ([Search.cascade_of_key], the forward plan's
   witness) or from its stored state ([Search.cascade_of_handle]), gives
   the index's witness ([Fmcf.cascade_of_member]) for every member of
   each closure. *)
let test_engine_witnesses_match_index () =
  List.iter
    (fun (name, census) ->
      let census = Lazy.force census in
      let search = Fmcf.search census in
      let handles = ref 0 in
      Fmcf.iter_members census (fun ~cost m ->
          let want = Fmcf.cascade_of_member census m in
          let same got = List.equal Gate.equal got want in
          if not (same (Search.cascade_of_key search m.Fmcf.image)) then
            Alcotest.failf "%s: cost-%d image witness differs from %s" name cost
              (Cascade.to_string want);
          match Search.handle_of_key search m.Fmcf.image with
          | None -> ()
          | Some h ->
              incr handles;
              if not (same (Search.cascade_of_handle search h)) then
                Alcotest.failf "%s: cost-%d state witness differs from %s" name cost
                  (Cascade.to_string want));
      checkb (name ^ ": some members are stored states") true (!handles > 0))
    [
      ("paper18 -d 13", paper18_raw);
      ("paper18 -d 13 --quotient", closure);
      ("nct -d 8", nct8);
      ("nft -d 7", nft7);
    ]

(* A store no search built: level 1 holds a real one-gate image and
   level 2 the Toffoli image, which no gate reaches from it.  Loading
   checks structure, not reachability, so the engine accepts the store;
   asking the forged state for a witness raises instead of looping (each
   backward step lowers the depth), and the real state still has one. *)
let test_forged_store_has_no_witness () =
  let nb = 8 in
  let image f = Bytes.init nb (fun b -> Char.chr (f b)) in
  let identity = image Fun.id in
  let toffoli = image (Revfun.apply Reversible.Gates.toffoli3) in
  let one_gate = image (fun b -> (Library.entries library3).(0).Library.perm_array.(b)) in
  let store = State_arena.create ~degree:nb in
  List.iter
    (fun key ->
      State_arena.open_level store ~reserve:1;
      let hash = State_arena.hash_key key ~off:0 ~len:nb in
      checkb "forged state stored" true (State_arena.try_insert store ~key ~off:0 ~hash >= 0))
    [ identity; one_gate; toffoli ];
  let search = Search.of_store library3 store in
  let h = Option.get (Search.handle_of_key search (Bytes.to_string toffoli)) in
  check Alcotest.int "forged state's depth" 2 (Search.depth_of_handle search h);
  checkb "no witness for the forged state" true
    (match Search.cascade_of_handle search h with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let real = Option.get (Search.handle_of_key search (Bytes.to_string one_gate)) in
  check Alcotest.int "the real state keeps its witness" 1
    (List.length (Search.cascade_of_handle search real))

let test_foreign_member_rejected () =
  (* a cost-5 member of a deeper census is absent from a depth-3 one, and
     an nct member (it moves code 0) is absent from the paper's
     zero-fixing census: neither has a witness there *)
  let shallow = Fmcf.run ~max_depth:3 library3 in
  let foreign census member =
    match Fmcf.witness_gates census member with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let deep = List.hd (Fmcf.members_at (Lazy.force closure) ~cost:5) in
  checkb "deeper census member raises" true (foreign shallow deep);
  let nct_member =
    List.find
      (fun (m : Fmcf.member) -> Revfun.apply m.Fmcf.func 0 <> 0)
      (Fmcf.members_at (Lazy.force nct8) ~cost:1)
  in
  checkb "other library's member raises" true (foreign shallow nct_member);
  checkb "quotient census rejects it too" true (foreign (Lazy.force closure) nct_member);
  (* a census member claiming another cost is not this census's member *)
  let m = List.hd (Fmcf.members_at shallow ~cost:2) in
  checkb "member with a wrong cost raises" true (foreign shallow { m with Fmcf.cost = 3 })

(* The bytes of each complete index, pinned by file length and stored
   CRC-32 trailer: any change to witness selection, record layout or
   header shows up here. *)
let test_golden_index_bytes () =
  List.iter
    (fun (name, census, len, crc) ->
      with_temp_file @@ fun path ->
      Census_index.save (Census_index.build (Lazy.force census)) path;
      let bytes = Checkpoint.read_file path in
      check Alcotest.int (name ^ ": file length") len (Bytes.length bytes);
      check Alcotest.string (name ^ ": CRC-32 trailer") (Printf.sprintf "%08lx" crc)
        (Printf.sprintf "%08lx" (Bytes.get_int32_le bytes (Bytes.length bytes - 4))))
    [
      ("paper18 -d 13", paper18_raw, 111_407, 0x425fcfc4l);
      ("paper18 -d 13 --quotient", closure, 111_407, 0x425fcfc4l);
      ("nct -d 8", nct8, 760_761, 0x0ebbb19al);
      ("nft -d 7", nft7, 731_247, 0xb29b482al);
    ]

let test_sampled_costs_against_fresh_engine () =
  let idx = Lazy.force complete in
  (* an independent engine, grown lazily from scratch by the queries
     themselves, must agree on cost and accept the stored witness — a
     seeded stride covers every cost level including the deep
     post-census tail *)
  let engine = Bidir.create ~max_fwd_depth:7 library3 in
  let i = ref 0 and checked = ref 0 in
  iter_universe (fun func ->
      if !i mod 97 = 0 then begin
        incr checked;
        match Census_index.find idx func with
        | None -> Alcotest.fail "sampled function missing"
        | Some (cost, witness) -> (
            checkb "stored witness realizes its function" true
              (realizes func witness);
            check Alcotest.int "witness length = cost" cost
              (List.length witness);
            match Bidir.synthesize ~max_cost:15 engine func with
            | None -> Alcotest.fail "fresh engine found nothing"
            | Some o ->
                check Alcotest.int "fresh engine agrees on cost" cost
                  o.Bidir.cost)
      end;
      incr i);
  checkb "sample non-trivial" true (!checked >= 50)

let same_bytes what a b =
  with_temp_file @@ fun path_a ->
  with_temp_file @@ fun path_b ->
  Census_index.save a path_a;
  Census_index.save b path_b;
  checkb what true (Checkpoint.read_file path_a = Checkpoint.read_file path_b)

let test_deterministic_bytes_across_jobs_and_quotient () =
  (* a complete index records the highest cost present, not the census
     depth, so running past the diameter — on any number of domains,
     with or without the symmetry quotient — serializes to the same
     bytes as the closure itself *)
  let idx14 = Census_index.build (Fmcf.run ~max_depth:14 ~jobs:2 library3) in
  checkb "depth-14 census is complete" true (Census_index.is_complete idx14);
  check Alcotest.int "depth-14 index depth = diameter" 13
    (Census_index.depth idx14);
  same_bytes
    "paper18: quotient depth-13/jobs=1 and plain depth-14/jobs=2 byte-identical"
    (Lazy.force complete) idx14;
  (* NFT's diameter is 7 (Younes) *)
  let nft = Library.of_name "nft" in
  let raw = Census_index.build (Fmcf.run ~max_depth:7 nft) in
  let quotiented =
    Census_index.build (Fmcf.run ~max_depth:8 ~jobs:2 ~quotient:true nft)
  in
  checkb "nft closure complete" true (Census_index.is_complete raw);
  check Alcotest.int "nft index depth = diameter" 7 (Census_index.depth quotiented);
  same_bytes "nft: raw depth-7/jobs=1 and quotient depth-8/jobs=2 byte-identical"
    raw quotiented;
  (* four wires: partial indexes under the order-24 group *)
  let build c = Census_index.build (Lazy.force c) in
  same_bytes "4-wire paper18 -d 4: raw and quotient byte-identical" (build paper4_raw)
    (build paper4_quot);
  same_bytes "4-wire nct -d 3: raw and quotient byte-identical" (build nct4_raw)
    (build nct4_quot)

let test_saved_then_loaded_answers_like_built () =
  let idx = Lazy.force complete in
  with_temp_file @@ fun path ->
  Census_index.save idx path;
  let loaded = Census_index.load library3 path in
  (* the full-replay verification must also accept it *)
  ignore (Census_index.load ~verify:Census_index.Full library3 path);
  checkb "complete" true (Census_index.is_complete loaded);
  check Alcotest.int "size" (Census_index.size idx) (Census_index.size loaded);
  check Alcotest.int "depth" (Census_index.depth idx) (Census_index.depth loaded);
  check Alcotest.int "coverage" (Census_index.coverage idx)
    (Census_index.coverage loaded);
  check Alcotest.(array int) "histogram" (Census_index.histogram idx)
    (Census_index.histogram loaded);
  (* byte-identical answers record by record *)
  let i = ref 0 in
  iter_universe (fun func ->
      if !i mod 11 = 0 then begin
        let a = Census_index.find idx func in
        let b = Census_index.find loaded func in
        if a <> b then Alcotest.fail "built and loaded probes disagree"
      end;
      incr i)

let test_solve_always_hits () =
  let idx = Lazy.force complete in
  (* with a complete index every realizable request is answered by a
     probe — across all 8 NOT cosets, with no bidir context supplied and
     no silent fallback possible *)
  let spec_of func =
    String.concat ","
      (List.init 8 (fun j -> string_of_int (Revfun.apply func j)))
  in
  let rng = Random.State.make [| 0x51dec0de |] in
  for _ = 1 to 64 do
    let outputs = Array.init 8 Fun.id in
    for j = 7 downto 1 do
      let k = Random.State.int rng (j + 1) in
      let t = outputs.(j) in
      outputs.(j) <- outputs.(k);
      outputs.(k) <- t
    done;
    let func = Revfun.of_outputs ~bits:3 (Array.to_list outputs) in
    let mask, remainder = Mce.strip_not_layer func in
    let request = Mce.Request.make ~max_depth:13 (spec_of func) in
    let response = Mce.solve ~index:idx library3 request in
    match response.Mce.Response.body with
    | Ok { plan; payload = Synthesized { cost; cascade; not_mask; _ } } ->
        let expected_plan =
          if Revfun.equal remainder (Revfun.identity ~bits:3) then
            Mce.Response.Trivial
          else Mce.Response.Index_hit
        in
        checkb "plan is a probe, never a search" true (plan = expected_plan);
        check Alcotest.int "NOT layer enumerated, not searched" mask not_mask;
        (match Census_index.find idx remainder with
        | Some (c, _) -> check Alcotest.int "cost matches the record" c cost
        | None -> Alcotest.fail "remainder missing from the complete index");
        checkb "cascade realizes the remainder" true (realizes remainder cascade)
    | Ok _ -> Alcotest.fail "unexpected payload"
    | Error _ -> Alcotest.fail "solve failed on a realizable request"
  done

let test_solve_certifies_beyond_depth_bound () =
  let idx = Lazy.force complete in
  (* a cost-13 function under the default cb = 7: the probe's exact cost
     proves unrealizability within the bound without any search *)
  let deep = ref None in
  iter_universe (fun func ->
      if !deep = None then
        match Census_index.find idx func with
        | Some (13, _) -> deep := Some func
        | _ -> ());
  let func = Option.get !deep in
  let spec =
    String.concat ","
      (List.init 8 (fun j -> string_of_int (Revfun.apply func j)))
  in
  (match (Mce.solve ~index:idx library3 (Mce.Request.make ~max_depth:7 spec)).Mce.Response.body with
  | Ok { plan = Mce.Response.Index_certified; payload = Unrealizable { max_depth = 7 } } -> ()
  | Ok _ -> Alcotest.fail "expected a certified unrealizable answer"
  | Error _ -> Alcotest.fail "certification failed");
  (* and raising the bound to the diameter turns it into a hit *)
  match (Mce.solve ~index:idx library3 (Mce.Request.make ~max_depth:13 spec)).Mce.Response.body with
  | Ok { plan = Mce.Response.Index_hit; payload = Synthesized { cost = 13; _ } } -> ()
  | Ok _ -> Alcotest.fail "expected an index hit at the diameter"
  | Error _ -> Alcotest.fail "hit failed"

(* {1 The probe against a linear scan} *)

(* A saved index's records, read straight from the file per the
   documented QSYNIDX2 layout (64 header bytes, the cost histogram, then
   key, cost and gate-log offset per record): (key, cost, witness). *)
let records_of_index library idx =
  with_temp_file @@ fun path ->
  Census_index.save idx path;
  let buf = Checkpoint.read_file path in
  let u32 off = Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF in
  let nb = u32 32 and count = u32 44 and hist_len = u32 60 in
  let records_off = 64 + (4 * hist_len) in
  let log_off = records_off + (count * (nb + 5)) in
  let entries = Library.entries library in
  Array.init count (fun i ->
      let base = records_off + (i * (nb + 5)) in
      let cost = Bytes.get_uint8 buf (base + nb) and log = log_off + u32 (base + nb + 1) in
      ( Bytes.sub_string buf base nb,
        cost,
        List.init cost (fun k -> entries.(Bytes.get_uint8 buf (log + k)).Library.gate) ))

(* What a front-to-back scan of the records answers for [key]. *)
let linear_find records key =
  Array.find_map
    (fun (k, cost, witness) -> if String.equal k key then Some (cost, witness) else None)
    records

let func_of_key ~bits key =
  Revfun.of_perm ~bits
    (Permgroup.Perm.of_array (Array.init (String.length key) (fun j -> Char.code key.[j])))

let key_of_func f =
  String.init (1 lsl Revfun.bits f) (fun j -> Char.chr (Revfun.apply f j))

let answer_string = function
  | None -> "miss"
  | Some (cost, witness) -> Printf.sprintf "%d %s" cost (Cascade.to_string witness)

let test_probe_matches_linear_scan () =
  List.iter
    (fun (name, library, idx) ->
      let idx = Lazy.force idx in
      let records = records_of_index library idx in
      let bits = Library.qubits library in
      check Alcotest.int (name ^ ": record count") (Census_index.size idx)
        (Array.length records);
      (* keys strictly increase, so the scan's first match for record i's
         key is record i itself *)
      Array.iteri
        (fun i (key, cost, witness) ->
          if i > 0 then begin
            let prev, _, _ = records.(i - 1) in
            if String.compare prev key >= 0 then
              Alcotest.failf "%s: records %d and %d out of order" name (i - 1) i
          end;
          let got = Census_index.find idx (func_of_key ~bits key) in
          if got <> Some (cost, witness) then
            Alcotest.failf "%s: record %d probes as %s, scan says %s" name i
              (answer_string got)
              (answer_string (Some (cost, witness))))
        records)
    [
      ("paper18 closure", library3, complete);
      ("nct closure", Library.of_name "nct", lazy (Census_index.build (Lazy.force nct8)));
      ("nft closure", Library.of_name "nft", lazy (Census_index.build (Lazy.force nft7)));
      ("4-wire paper18 -d 4", library4, lazy (Census_index.build (Lazy.force paper4_raw)));
    ]

let test_probe_misses_match_linear_scan () =
  (* the two-word compare at nb = 16: seeded zero-fixing 4-wire
     functions, and record keys with two outputs swapped, which land
     next to a stored key in key order — hits and misses both must
     agree with the scan *)
  let idx = Census_index.build (Lazy.force paper4_raw) in
  let records = records_of_index library4 idx in
  let rng = Random.State.make [| 0x9e3779b9 |] in
  let hits = ref 0 and misses = ref 0 in
  let probe key =
    let got = Census_index.find idx (func_of_key ~bits:4 key) in
    let want = linear_find records key in
    if got <> want then
      Alcotest.failf "%S probes as %s, scan says %s" key (answer_string got)
        (answer_string want);
    if got = None then incr misses else incr hits
  in
  for _ = 1 to 1000 do
    let a = Array.init 16 Fun.id in
    for j = 15 downto 2 do
      let k = 1 + Random.State.int rng j in
      let t = a.(j) in
      a.(j) <- a.(k);
      a.(k) <- t
    done;
    probe (String.init 16 (fun j -> Char.chr a.(j)))
  done;
  Array.iteri
    (fun i (key, _, _) ->
      if i mod 3 = 0 then begin
        let b = Bytes.of_string key in
        let j = 1 + Random.State.int rng 15 and k = 1 + Random.State.int rng 15 in
        let t = Bytes.get b j in
        Bytes.set b j (Bytes.get b k);
        Bytes.set b k t;
        probe (Bytes.to_string b)
      end)
    records;
  checkb "misses probed" true (!misses >= 1000);
  checkb "hits probed" true (!hits >= 1);
  (* a probe of another width is no key of the file *)
  checkb "4-wire probe of a 3-wire index" true
    (Census_index.find (Lazy.force complete) (Revfun.identity ~bits:4) = None);
  checkb "3-wire probe of a 4-wire index" true
    (Census_index.find idx Gates.toffoli3 = None)

let test_strip_not_layer_matches_definition () =
  (* target = xor_layer mask ∘ remainder, computed the long way: the
     mask is target^-1(0) *)
  let reference target =
    let mask = Revfun.apply (Revfun.inverse target) 0 in
    (mask, Revfun.compose (Revfun.xor_layer ~bits:3 mask) target)
  in
  let n = ref 0 in
  iter_universe (fun f ->
      for m = 0 to 7 do
        let target = Revfun.compose (Revfun.xor_layer ~bits:3 m) f in
        let mask, remainder = Mce.strip_not_layer target in
        let mask', remainder' = reference target in
        if mask <> mask' || not (Revfun.equal remainder remainder') then
          Alcotest.failf "strip_not_layer %s disagrees" (key_of_func target);
        incr n
      done);
  check Alcotest.int "all of S8" coverage_s8 !n

(* {1 Loader fuzz}

   Random bytes of the depth-4 index are overwritten and the CRC is
   sealed again, so the damage reaches the structural checks and the
   witness replay.  [Census_index.load ~verify:Full] must then return an
   index or raise [Checkpoint.Corrupt] or [Checkpoint.Mismatch]; any
   other exception fails the property.  Half the writes land in the
   84-byte header (magic, version, fingerprints, shape and the five
   histogram counts), the rest
   anywhere before the CRC: records, costs, witness offsets and the
   gate log. *)

let depth4_index =
  lazy
    (with_temp_file @@ fun path ->
     Census_index.save (Census_index.build (Fmcf.run ~max_depth:4 library3)) path;
     Checkpoint.read_file path)

let qcheck_index_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"mutated -d 4 index loads or raises typed"
       QCheck2.Gen.(
         list_size (int_range 1 6) (triple bool (int_bound 1_000_000) (int_bound 255)))
       (fun writes ->
         let b = Bytes.copy (Lazy.force depth4_index) in
         let body = Bytes.length b - 4 in
         List.iter
           (fun (in_head, pos, v) ->
             Bytes.set b (if in_head then pos mod 84 else pos mod body) (Char.chr v))
           writes;
         Bytes.set_int32_le b body (Int32.of_int (Checkpoint.crc32 b ~off:0 ~len:body));
         with_temp_file @@ fun path ->
         Checkpoint.write_atomic path b;
         match Census_index.load ~verify:Census_index.Full library3 path with
         | _ -> true
         | exception (Checkpoint.Corrupt _ | Checkpoint.Mismatch _) -> true))

let () =
  Alcotest.run "complete_index"
    [
      ( "complete index",
        [
          Alcotest.test_case "total coverage of the zero-fixing universe"
            `Quick test_total_coverage;
          Alcotest.test_case "sampled costs agree with a fresh engine" `Quick
            test_sampled_costs_against_fresh_engine;
          Alcotest.test_case "byte-identical across jobs and quotient" `Quick
            test_deterministic_bytes_across_jobs_and_quotient;
          Alcotest.test_case "saved then loaded index answers like the built one"
            `Quick test_saved_then_loaded_answers_like_built;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "memoized witnesses match the reference walk" `Quick
            test_witnesses_match_reference;
          Alcotest.test_case "golden index bytes" `Quick test_golden_index_bytes;
          Alcotest.test_case "foreign members have no witness" `Quick
            test_foreign_member_rejected;
          Alcotest.test_case "engine witnesses equal index witnesses" `Quick
            test_engine_witnesses_match_index;
          Alcotest.test_case "a forged store gives no witness" `Quick
            test_forged_store_has_no_witness;
        ] );
      ( "planner",
        [
          Alcotest.test_case "every S8 request answers as a probe" `Quick
            test_solve_always_hits;
          Alcotest.test_case "probe cost certifies depth bounds" `Quick
            test_solve_certifies_beyond_depth_bound;
        ] );
      ( "probe",
        [
          Alcotest.test_case "every record probes as the linear scan finds it"
            `Quick test_probe_matches_linear_scan;
          Alcotest.test_case "4-wire misses and wrong widths match the scan" `Quick
            test_probe_misses_match_linear_scan;
          Alcotest.test_case "NOT-layer strip matches its definition on S8" `Quick
            test_strip_not_layer_matches_definition;
        ] );
      ("loader fuzz", [ qcheck_index_fuzz ]);
    ]
