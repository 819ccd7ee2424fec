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
      match Option.map (Search.depth_of_handle s) (Search.handle_of_key s img) with
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

(* {1 State arena against a Hashtbl reference} *)

let arena_degree = 16

let random_key rng = String.init arena_degree (fun _ -> Char.chr (Random.State.int rng 256))
let hash_of key = State_arena.hash_key (Bytes.of_string key) ~off:0 ~len:arena_degree

let arena_key_count = 65536

(* [arena_key_count] distinct random 16-byte keys. *)
let arena_keys =
  lazy
    (let rng = Random.State.make [| 20 |] in
     let seen = Hashtbl.create arena_key_count in
     let keys = ref [] in
     while Hashtbl.length seen < arena_key_count do
       let k = random_key rng in
       if not (Hashtbl.mem seen k) then begin
         Hashtbl.replace seen k ();
         keys := k :: !keys
       end
     done;
     Array.of_list !keys)

type ref_state = { r_handle : int; r_depth : int }

(* Inserts keys [lo .. hi-1] into the newest level, [depth]. *)
let insert_all store reference keys ~lo ~hi ~depth =
  for i = lo to hi - 1 do
    let key = keys.(i) in
    let h = State_arena.try_insert store ~key:(Bytes.of_string key) ~off:0 ~hash:(hash_of key) in
    if h < 0 then Alcotest.failf "fresh key %d rejected as a duplicate" i;
    Hashtbl.replace reference key { r_handle = h; r_depth = depth }
  done

let check_against store reference keys =
  check Alcotest.int "size" (Hashtbl.length reference) (State_arena.size store);
  Array.iter
    (fun key ->
      let h = State_arena.find store (Bytes.of_string key) ~off:0 ~hash:(hash_of key) in
      match Hashtbl.find_opt reference key with
      | None -> if h <> -1 then Alcotest.fail "absent key found"
      | Some r ->
          if h <> r.r_handle then Alcotest.failf "handle %d, expected %d" h r.r_handle;
          if
            State_arena.key_of store h <> key
            || State_arena.depth_of store h <> r.r_depth
            || not (State_arena.in_level store h ~depth:r.r_depth)
          then Alcotest.failf "key or level of handle %d disagrees with the reference" h)
    keys

(* [restore_copy store] is a store rebuilt from copies of [store]'s keys
   and level sizes, as a checkpoint load rebuilds one. *)
let restore_copy store =
  let degree = State_arena.degree store in
  State_arena.restore ~degree
    ~keys:
      (Array.init State_arena.num_shards (fun s ->
           Bytes.sub (State_arena.shard_arena store s) 0
             (State_arena.shard_count store s * degree)))
    ~level_sizes:
      (Array.init State_arena.num_shards (fun s ->
           Array.init (State_arena.levels store) (fun d ->
               State_arena.level_end store ~depth:d s - State_arena.level_start store ~depth:d s)))

(* [arena_reference levels] inserts the keys level by level, each
   [(lo, hi, reserve)] opening a level with that reservation, and checks
   the store against a Hashtbl reference after every level, after every
   key is inserted again (all duplicates), after the last level is
   abandoned, after it is replayed (the same handles come back) and in a
   store restored from its keys and level sizes.  It returns the store
   and the restored one. *)
let arena_reference levels =
  let keys = Lazy.force arena_keys in
  let store = State_arena.create ~degree:arena_degree in
  let reference = Hashtbl.create (Array.length keys) in
  List.iteri
    (fun depth (lo, hi, reserve) ->
      State_arena.open_level store ~reserve;
      insert_all store reference keys ~lo ~hi ~depth;
      check_against store reference keys)
    levels;
  Array.iter
    (fun key ->
      if
        State_arena.try_insert store ~key:(Bytes.of_string key) ~off:0 ~hash:(hash_of key)
        <> -1
      then Alcotest.fail "duplicate key inserted")
    keys;
  check_against store reference keys;
  let last = List.length levels - 1 in
  let lo, hi, _ = List.nth levels last in
  let full = Hashtbl.copy reference in
  State_arena.abandon_level store;
  for i = lo to hi - 1 do
    Hashtbl.remove reference keys.(i)
  done;
  check_against store reference keys;
  State_arena.open_level store ~reserve:0;
  insert_all store reference keys ~lo ~hi ~depth:last;
  Hashtbl.iter
    (fun key r ->
      if (Hashtbl.find reference key).r_handle <> r.r_handle then
        Alcotest.fail "replayed insert moved a handle")
    full;
  let restored = restore_copy store in
  check_against restored reference keys;
  (store, restored)

(* The second half of the keys is one level, opened with no
   reservation, so every shard grows by the doubling fallback. *)
let test_arena_reference () =
  let n = arena_key_count in
  ignore (arena_reference [ (0, n / 2, n / 2); (n / 2, n, 0) ])

(* A store grown from a fresh shard's 256 slots by doubling alone, over
   four levels opened with no reservation: every shard's table doubles
   three times, to 2048 slots, and the tag narrows from 23 bits to 20.
   About n^2 / 2^27 = 32 pairs of the keys share a shard and a 20-bit
   tag, so the byte comparison behind an equal tag is exercised. *)
let test_arena_doublings () =
  let n = arena_key_count in
  let bits = 31 - 11 (* 2048 = 2^11 slots a shard *) in
  let buckets = Hashtbl.create n in
  Array.iter
    (fun k ->
      let h = hash_of k in
      Hashtbl.replace buckets (State_arena.shard_of_hash h, State_arena.tag_of_hash ~bits h) ())
    (Lazy.force arena_keys);
  checkb "some keys share a shard and a tag" true (Hashtbl.length buckets < n);
  let store, restored =
    arena_reference [ (0, n / 16, 0); (n / 16, n / 4, 0); (n / 4, n / 2, 0); (n / 2, n, 0) ]
  in
  check Alcotest.int "every shard doubled to 2048 slots" (State_arena.num_shards * 2048)
    (State_arena.table_capacity store);
  check Alcotest.int "a restored store sizes its tables alike"
    (State_arena.table_capacity store)
    (State_arena.table_capacity restored)

(* Two keys in the same shard, home slot and tag meet in one probe
   sequence, where only their bytes tell them apart.  Such pairs are
   searched for among 13-byte keys (one 64-bit word plus a 5-byte tail)
   that differ only in the word, and among keys that differ only in the
   tail, so both halves of the comparison must decide.  A fresh shard
   has 256 slots, so its slots keep 23-bit tags: 6 shard bits, 8
   home-slot bits and the tag make 37 bits to collide on, about 2^18.5
   keys by the birthday bound. *)
let test_arena_tag_collisions () =
  let degree = 13 in
  let collide vary =
    let rng = Random.State.make [| degree; vary |] in
    let fixed = Bytes.init degree (fun _ -> Char.chr (Random.State.int rng 256)) in
    let seen = Hashtbl.create 65536 in
    let rec go () =
      let k = Bytes.copy fixed in
      let lo, len = if vary = 0 then (0, 8) else (8, degree - 8) in
      for i = lo to lo + len - 1 do
        Bytes.set k i (Char.chr (Random.State.int rng 256))
      done;
      let h = State_arena.hash_key k ~off:0 ~len:degree in
      (* the shard and the home slot of a fresh shard's 256-slot table,
         and the tag its slots keep *)
      let place = (h land 0x3FFF) lor (State_arena.tag_of_hash ~bits:23 h lsl 14) in
      match Hashtbl.find_opt seen place with
      | Some k' when not (Bytes.equal k k') -> (k', k)
      | _ ->
          Hashtbl.replace seen place k;
          go ()
    in
    go ()
  in
  List.iter
    (fun (name, (a, b)) ->
      let store = State_arena.create ~degree in
      State_arena.open_level store ~reserve:0;
      let insert k =
        State_arena.try_insert store ~key:k ~off:0
          ~hash:(State_arena.hash_key k ~off:0 ~len:degree)
      in
      let find k =
        State_arena.find store k ~off:0 ~hash:(State_arena.hash_key k ~off:0 ~len:degree)
      in
      let ha = insert a in
      let hb = insert b in
      checkb (name ^ ": second key stored") true (hb >= 0 && hb <> ha);
      check Alcotest.int (name ^ ": first key found") ha (find a);
      check Alcotest.int (name ^ ": second key found") hb (find b))
    [ ("keys differing in the word", collide 0); ("keys differing in the tail", collide 1) ]

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

(* A state's depth is the level whose range holds it.  A store of 40
   levels, some of them empty, answers every state's level by its shard's
   level starts (the binary search must skip the empty levels), and a
   store restored from its keys and level sizes answers the same. *)
let test_arena_level_depths () =
  let rng = Random.State.make [| 40 |] in
  let store = State_arena.create ~degree:arena_degree in
  let placed = ref [] in
  for d = 0 to 39 do
    State_arena.open_level store ~reserve:0;
    for _ = 1 to (d * 7) mod 5 * 40 do
      let key = random_key rng in
      let h =
        State_arena.try_insert store ~key:(Bytes.of_string key) ~off:0 ~hash:(hash_of key)
      in
      if h >= 0 then placed := (h, d) :: !placed
    done
  done;
  check Alcotest.int "levels" 40 (State_arena.levels store);
  check Alcotest.int "empty level" 0 (State_arena.level_size store ~depth:5);
  let restored = restore_copy store in
  List.iter
    (fun (h, d) ->
      List.iter
        (fun st ->
          if State_arena.depth_of st h <> d then
            Alcotest.failf "handle %d: depth %d, expected %d" h (State_arena.depth_of st h) d;
          if
            (not (State_arena.in_level st h ~depth:d))
            || State_arena.in_level st h ~depth:(d - 1)
            || State_arena.in_level st h ~depth:(d + 1)
          then Alcotest.failf "handle %d: in_level disagrees with depth %d" h d)
        [ store; restored ])
    !placed;
  checkb "a key-less store is rejected" true
    (raises_invalid (fun () -> State_arena.create ~degree:0));
  checkb "shards disagreeing on the level count are rejected" true
    (raises_invalid (fun () ->
         State_arena.restore ~degree:arena_degree
           ~keys:(Array.make State_arena.num_shards Bytes.empty)
           ~level_sizes:
             (Array.init State_arena.num_shards (fun s -> Array.make (1 + (s land 1)) 0))))

(* The expand kernel allocates nothing per child: one 4-wire level (about
   150k children) stays far under one minor-heap word per child, plain
   and quotiented.  Large per-level arrays go straight to the major heap
   and are not counted. *)
let test_step_allocation quotient () =
  let library4 = Library.make (Mvl.Encoding.make ~qubits:4) in
  let symmetry = if quotient then Some (Symmetry.create library4) else None in
  let s = Search.create ?symmetry library4 in
  for _ = 1 to 3 do
    ignore (Search.step_handles s)
  done;
  let encoding = Library.encoding library4 in
  let children =
    Array.fold_left
      (fun n h ->
        let signature =
          String.fold_left
            (fun acc c -> acc lor Mvl.Encoding.mixed_signature encoding (Char.code c))
            0 (Search.key_of_handle s h)
        in
        Array.fold_left
          (fun n (e : Library.entry) ->
            if signature land e.Library.purity_mask = 0 then n + 1 else n)
          n (Library.entries library4))
      0 (Search.frontier_handles s)
  in
  let before = Gc.minor_words () in
  ignore (Search.step_handles s);
  let words = Gc.minor_words () -. before in
  if words > 0.5 *. float_of_int children then
    Alcotest.failf "%.0f minor words for %d children" words children

(* {1 Four wires: chunked levels, reservations and rollback} *)

let library4 = Library.make (Mvl.Encoding.make ~qubits:4)

let never () = false

(* A level as its handles and a digest of its keys in frontier order. *)
let level_print s =
  let keys = Buffer.create 4096 in
  let hs = Search.frontier_handles s in
  Array.iter (fun h -> Buffer.add_string keys (Search.key_of_handle s h)) hs;
  (hs, Digest.to_hex (Digest.string (Buffer.contents keys)))

let check_level name (eh, ek) (gh, gk) =
  check Alcotest.(array int) (name ^ " handles") eh gh;
  check Alcotest.string (name ^ " keys") ek gk

(* [run4 ~jobs ~quotient ~depth] steps a 4-wire search level by level
   and prints every level. *)
let run4 ~jobs ~quotient ~depth =
  let symmetry = if quotient then Some (Symmetry.create library4) else None in
  let s = Search.create ~jobs ?symmetry library4 in
  let levels =
    List.init depth (fun _ ->
        ignore (Search.try_step s ~cancel:never);
        level_print s)
  in
  (s, levels)

(* The jobs-1 runs every comparison is against, computed once each. *)
let sequential4_runs = Hashtbl.create 4

let sequential4 ~quotient ~depth =
  match Hashtbl.find_opt sequential4_runs (quotient, depth) with
  | Some r -> r
  | None ->
      let _, r = run4 ~jobs:1 ~quotient ~depth in
      Hashtbl.replace sequential4_runs (quotient, depth) r;
      r

(* Level 5 of the raw census expands 66,186 parents (nine chunks) and
   level 6 of the quotient one 18,470 (three). *)
let test_frontiers_four_wires jobs () =
  List.iter
    (fun (quotient, depth) ->
      let _, got = run4 ~jobs ~quotient ~depth in
      List.iteri
        (fun k (e, g) ->
          check_level
            (Printf.sprintf "%s level %d, jobs=%d" (if quotient then "quotient" else "raw")
               (k + 1) jobs)
            e g)
        (List.combine (sequential4 ~quotient ~depth) got))
    [ (false, 5); (true, 6) ]

(* A reservation only sizes storage.  A 4-wire depth-4 search's states
   are replayed level by level into fresh stores, each level opened with
   no reservation (every shard grows by the doubling fallback) or with
   far more room than the level needs (no shard grows mid-level): every
   state gets its original handle, and every level its original ranges,
   and an engine around the replayed store gives its states the
   original's witnesses. *)
let test_reservation_sizes () =
  let search, _ = run4 ~jobs:1 ~quotient:false ~depth:4 in
  let src = Search.store search in
  let replay reserve =
    let store = State_arena.create ~degree:(State_arena.degree src) in
    for d = 0 to Search.depth search do
      State_arena.open_level store ~reserve:(reserve (Search.level_size search d));
      Search.iter_level search d (fun h ->
          let key = Bytes.of_string (State_arena.key_of src h) in
          let hash = State_arena.hash_key key ~off:0 ~len:(Bytes.length key) in
          let got = State_arena.try_insert store ~key ~off:0 ~hash in
          if got <> h then Alcotest.failf "level %d: handle %d replayed as %d" d h got)
    done;
    check Alcotest.int "states" (State_arena.size src) (State_arena.size store);
    let replayed = Search.of_store library4 store in
    for d = 0 to Search.depth search do
      Search.iter_level search d (fun h ->
          let key = State_arena.key_of src h in
          let b = Bytes.of_string key in
          let hash = State_arena.hash_key b ~off:0 ~len:(Bytes.length b) in
          if
            State_arena.find store b ~off:0 ~hash <> h
            || State_arena.key_of store h <> key
            || State_arena.depth_of store h <> d
          then Alcotest.failf "level %d: handle %d holds another state" d h;
          (* one state in eight keeps the witness walks cheap; every
             level and shard is still sampled *)
          if
            State_arena.index_of_handle h land 7 = 0
            && Search.cascade_of_handle replayed h <> Search.cascade_of_handle search h
          then Alcotest.failf "level %d: handle %d has another witness" d h);
      for s = 0 to State_arena.num_shards - 1 do
        if
          State_arena.level_start store ~depth:d s <> State_arena.level_start src ~depth:d s
          || State_arena.level_end store ~depth:d s <> State_arena.level_end src ~depth:d s
        then Alcotest.failf "level %d: shard %d range differs" d s
      done
    done;
    State_arena.bytes store
  in
  let small = replay (fun _ -> 0) and large = replay (fun n -> (8 * n) + 4096) in
  checkb "the oversized reservation holds more" true (large > small)

(* A cancel that fires partway through level 5 (after earlier chunks
   were inserted, under jobs > 1) rolls the store back to level 4
   exactly, and the retried level matches an uninterrupted run. *)
let test_cancel_rollback jobs () =
  let expected = sequential4 ~quotient:false ~depth:5 in
  let s, _ = run4 ~jobs ~quotient:false ~depth:4 in
  let before = level_print s and size = Search.size s in
  let bytes = Search.arena_bytes s in
  let polls = Atomic.make 0 and stored_at_cancel = Atomic.make (-1) in
  let cancel () =
    if Atomic.fetch_and_add polls 1 >= 600 then begin
      ignore (Atomic.compare_and_set stored_at_cancel (-1) (Search.size s));
      true
    end
    else false
  in
  checkb "cancelled level returns None" true (Search.try_step s ~cancel = None);
  checkb "states were inserted before the cancel" true (Atomic.get stored_at_cancel > size);
  check Alcotest.int "depth" 4 (Search.depth s);
  check Alcotest.int "size rolled back" size (Search.size s);
  check Alcotest.int "levels" 5 (State_arena.levels (Search.store s));
  checkb "reservation kept" true (Search.arena_bytes s > bytes);
  check_level "frontier after rollback" before (level_print s);
  ignore (Search.try_step s ~cancel:never);
  check_level (Printf.sprintf "retried level 5, jobs=%d" jobs) (List.nth expected 4)
    (level_print s)

(* One reservation per level: a 4-wire depth-5 census allocates at most
   1.5x its final store in major-heap words (doubling columns and tables
   as they fill allocates about 2.5x).  The census stores levels 0..2
   whole (685 states), level k = 3, 4 within 5 - k mixed wires (7,174
   and 24,018 states) and level 5 as its 6,804 functions, 38,681
   states.  The store itself, 16-byte keys and 4-byte probe slots at
   reserved capacity, is 1,511,216 bytes, and the test fails above it
   (whole levels 0..4 made it 2,955,056 bytes, 81,361 states, and the
   full level 5 15,962,064 bytes, 513,129 states). *)
let test_major_allocation () =
  Gc.compact ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let census = Fmcf.run ~max_depth:5 library4 in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  let bytes = Search.arena_bytes (Fmcf.search census) in
  let store = float_of_int (bytes / 8) in
  check Alcotest.int "states" (685 + 7_174 + 24_018 + 6_804) (Search.size (Fmcf.search census));
  if bytes > 1_511_216 then Alcotest.failf "the store holds %d bytes" bytes;
  if words > 1.5 *. store then
    Alcotest.failf "%.0f major words for a store of %.0f words (%.2fx)" words store
      (words /. store)

(* {1 Bounded levels}

   A census to depth [horizon] steps level d with bound [horizon - d]:
   only the children mixed on at most that many wires are deduplicated
   and stored, and the final level (bound 0) holds functions only.  A
   bound of at least n - 1 leaves the level whole (a state is mixed on
   at most n - 1 of its n wires: every gate keeps a binary control).
   Against a search stepped whole, the whole levels hold the same
   handles and keys, each bounded level holds exactly the full level's
   keys within its bound in the same canonical order, the bounded
   handles are the same for every jobs value, and every bounded state's
   witness is the one the full search reads for its key. *)

let stepped ?horizon library ~jobs ~quotient ~depth =
  let symmetry = if quotient then Some (Symmetry.create library) else None in
  let s = Search.create ~jobs ?symmetry library in
  for d = 1 to depth do
    let bound = Option.map (fun h -> h - d) horizon in
    ignore (Search.try_step ?bound s ~cancel:never)
  done;
  s

let keys_of s d = Array.map (Search.key_of_handle s) (Search.handles_at_depth s d)

(* the number of wires some point of the image carries a mixed value on *)
let mixed_wires library key =
  let encoding = Library.encoding library in
  let signature =
    String.fold_left (fun acc c -> acc lor Mvl.Encoding.mixed_signature encoding (Char.code c)) 0 key
  in
  let rec pop s = if s = 0 then 0 else (s land 1) + pop (s lsr 1) in
  pop signature

let keys_within library s d ~bound =
  Array.of_list
    (List.filter (fun key -> mixed_wires library key <= bound) (Array.to_list (keys_of s d)))

(* the full searches every comparison is against, computed once each *)
let full_runs = Hashtbl.create 4

let full_run library ~quotient ~depth =
  let key = (Library.qubits library, quotient, depth) in
  match Hashtbl.find_opt full_runs key with
  | Some s -> s
  | None ->
      let s = stepped library ~jobs:1 ~quotient ~depth in
      Hashtbl.replace full_runs key s;
      s

let final_cases = [ (library3, 7); (library4, 5) ]

let test_functions_only_level jobs () =
  List.iter
    (fun ((library, depth), quotient) ->
      let name =
        Printf.sprintf "%d wires%s, jobs=%d" (Library.qubits library)
          (if quotient then " quotient" else "")
          jobs
      in
      let full = full_run library ~quotient ~depth in
      let bounded = stepped library ~horizon:depth ~jobs ~quotient ~depth in
      let whole = depth - Library.qubits library + 1 in
      checkb (name ^ ": final") true (Search.bound bounded = Some 0);
      checkb (name ^ ": the full search stays whole") true (Search.bound full = None);
      check Alcotest.int (name ^ ": deepest whole level") whole (Search.whole_depth bounded);
      check Alcotest.int (name ^ ": the full search's") depth (Search.whole_depth full);
      for d = 0 to whole do
        check
          Alcotest.(array int)
          (Printf.sprintf "%s: level %d handles" name d)
          (Search.handles_at_depth full d) (Search.handles_at_depth bounded d);
        check
          Alcotest.(array string)
          (Printf.sprintf "%s: level %d keys" name d)
          (keys_of full d) (keys_of bounded d)
      done;
      let states = ref (Search.size full) in
      for d = whole + 1 to depth do
        let within = keys_within library full d ~bound:(depth - d) in
        check
          Alcotest.(array string)
          (Printf.sprintf "%s: level %d = the full level within bound %d" name d (depth - d))
          within (keys_of bounded d);
        states := !states - Search.level_size full d + Array.length within
      done;
      check Alcotest.int (name ^ ": states") !states (Search.size bounded);
      if jobs > 1 then begin
        let sequential = stepped library ~horizon:depth ~jobs:1 ~quotient ~depth in
        for d = whole + 1 to depth do
          check
            Alcotest.(array int)
            (Printf.sprintf "%s: level %d handles as at jobs=1" name d)
            (Search.handles_at_depth sequential d)
            (Search.handles_at_depth bounded d)
        done
      end;
      for d = whole + 1 to depth do
        Search.iter_level bounded d (fun h ->
            if State_arena.index_of_handle h land 7 = 0 then begin
              let key = Search.key_of_handle bounded h in
              if Search.cascade_of_handle bounded h <> Search.cascade_of_key full key then
                Alcotest.failf "%s: handle %d has another witness" name h
            end)
      done)
    (List.concat_map (fun c -> [ (c, false); (c, true) ]) final_cases)

(* Each bound must be below the newest level's: a bounded level refuses
   an equal, higher or whole successor, and a final one any successor.
   A final level cancelled partway rolls back to the level before,
   still bounded as it was, whose retried step matches an uninterrupted
   one. *)
let test_closed_engine jobs () =
  let expected = stepped library4 ~horizon:5 ~jobs:1 ~quotient:false ~depth:5 in
  let s = stepped library4 ~jobs ~quotient:false ~depth:3 in
  checkb "level 4, bound 1" true (Search.try_step ~bound:1 s ~cancel:never <> None);
  check Alcotest.(array string) "level 4 = the full level within 1"
    (keys_within library4 (full_run library4 ~quotient:false ~depth:5) 4 ~bound:1)
    (keys_of s 4);
  List.iter
    (fun (name, bound) ->
      match Search.try_step ?bound s ~cancel:never with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "a level bounded by 1 was followed by %s" name)
    [ ("bound 1", Some 1); ("bound 2", Some 2); ("a whole level", None) ];
  check Alcotest.int "depth after refusals" 4 (Search.depth s);
  let size = Search.size s in
  let polls = ref 0 in
  let cancel () =
    incr polls;
    !polls > 100
  in
  checkb "cancelled final level returns None" true
    (Search.try_step ~bound:0 s ~cancel = None);
  checkb "still bounded by 1" true (Search.bound s = Some 1);
  check Alcotest.int "depth" 4 (Search.depth s);
  check Alcotest.int "size rolled back" size (Search.size s);
  checkb "retried final level completes" true
    (Search.try_step ~bound:0 s ~cancel:never <> None);
  checkb "final" true (Search.bound s = Some 0);
  check Alcotest.int "whole levels" 3 (Search.whole_depth s);
  check Alcotest.(array string) "retried final level" (keys_of expected 5) (keys_of s 5);
  (match Search.try_step ~bound:0 s ~cancel:never with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a final level stepped again");
  match Search.step_handles s with
  | exception Invalid_argument _ -> check Alcotest.int "depth unchanged" 5 (Search.depth s)
  | _ -> Alcotest.fail "a final level stepped again"

(* The memory guard checks exactly what a bounded level reserves.  A
   four-wire census to depth 5 stores levels 0-2 whole (1, 36 and 648
   states), level 3 within 2 mixed wires (7,174 of 7,686), level 4
   within 1 (24,018 of 66,186) and level 5's 6,804 functions.  Level
   4's reservation, scaled by level 3's share of states within one
   mixed wire, is 1,511,216 bytes against 2,726,704 for the whole
   level; one byte under it stops the census at level 3, and at it the
   census completes: levels 4 and 5 fit in it, so no shard outgrows
   it. *)
let test_final_reservation () =
  let at3 = stepped library4 ~horizon:5 ~jobs:1 ~quotient:false ~depth:3 in
  let cap = Search.predicted_bytes ~bound:1 at3 in
  check Alcotest.int "level 4's reservation" 1_511_216 cap;
  checkb "the bounded reservation is below a whole level's" true
    (cap < Search.predicted_bytes at3);
  let census, reason = Fmcf.run_guarded ~max_depth:5 ~max_mem:(cap - 1) library4 in
  checkb "one byte under: Budget_mem" true (reason = Fmcf.Budget_mem);
  check Alcotest.int "stopped at level 3" 3 (Search.depth (Fmcf.search census));
  let census, reason = Fmcf.run_guarded ~max_depth:5 ~max_mem:cap library4 in
  checkb "at the cap: completed" true (reason = Fmcf.Completed);
  let s = Fmcf.search census in
  check Alcotest.int "states" (1 + 36 + 648 + 7_174 + 24_018 + 6_804) (Search.size s);
  check Alcotest.int "store = reservation" cap (Search.arena_bytes s)

(* {1 Stepping from chosen sources} *)

let all_gates library = Array.init (Library.size library) Fun.id

(* Naming the default source, the newest level through every gate,
   steps exactly as a plain step does. *)
let test_default_source jobs () =
  List.iter
    (fun (quotient, depth) ->
      let symmetry = if quotient then Some (Symmetry.create library4) else None in
      let s = Search.create ~jobs ?symmetry library4 in
      for d = 1 to depth do
        ignore
          (Search.try_step ~sources:[ (Search.depth s, all_gates library4) ] s ~cancel:never);
        check_level
          (Printf.sprintf "%s level %d, jobs=%d" (if quotient then "quotient" else "raw") d jobs)
          (List.nth (sequential4 ~quotient ~depth:5) (d - 1))
          (level_print s)
      done)
    [ (false, 4); (true, 5) ]

(* {1 Gate plans against a child-by-child reference}

   A step tabulates, per source and parent signature, the gates the
   signature admits and what the bound makes of their children.  The
   reference below makes every child one by one instead: each parent of
   the sources in canonical order, through each of its gates in order;
   an illegal gate is rejected, a legal gate's child mixed on more than
   [bound] wires is dropped, and any other child (its canonical form,
   quotiented) is new unless stored before or made earlier in the step.
   The step must store the new children in the canonical order (shard
   by shard, each in insertion order) and count exactly the reference's
   new, duplicate, rejected and dropped children. *)

type reference = {
  new_keys : string list;
  duplicates : int;
  rejected : int;
  dropped : int;
}

let signature_of library key =
  let encoding = Library.encoding library in
  String.fold_left (fun acc c -> acc lor Mvl.Encoding.mixed_signature encoding (Char.code c)) 0 key

let shard_of_key key =
  State_arena.shard_of_hash
    (State_arena.hash_key (Bytes.of_string key) ~off:0 ~len:(String.length key))

let reference_step library s ~sources ~bound =
  let entries = Library.entries library in
  let canon key =
    match Search.symmetry s with
    | None -> key
    | Some sym ->
        let dst = Bytes.create (String.length key) in
        ignore (Symmetry.canon_into sym ~src:(Bytes.of_string key) ~soff:0 ~dst ~doff:0);
        Bytes.to_string dst
  in
  let fresh = ref [] and seen = Hashtbl.create 4096 in
  let kept = ref 0 and rejected = ref 0 and dropped = ref 0 in
  List.iter
    (fun (d, gates) ->
      Array.iter
        (fun h ->
          let key = Search.key_of_handle s h in
          let signature = signature_of library key in
          Array.iter
            (fun g ->
              let e = entries.(g) in
              if signature land e.Library.purity_mask <> 0 then incr rejected
              else begin
                let child = String.map (fun c -> Char.chr e.Library.perm_array.(Char.code c)) key in
                if mixed_wires library child > bound then incr dropped
                else begin
                  incr kept;
                  let child = canon child in
                  if Search.handle_of_key s child = None && not (Hashtbl.mem seen child) then begin
                    Hashtbl.replace seen child ();
                    fresh := child :: !fresh
                  end
                end
              end)
            gates)
        (Search.handles_at_depth s d))
    sources;
  {
    new_keys = List.stable_sort (fun a b -> compare (shard_of_key a) (shard_of_key b)) (List.rev !fresh);
    duplicates = !kept - Hashtbl.length seen;
    rejected = !rejected;
    dropped = !dropped;
  }

let counter_names =
  [ "search.states.new"; "search.states.duplicate"; "search.expansions.signature_rejected";
    "search.expansions.mixed_dropped" ]

(* [counted f] runs [f] with the instruments recording (no spans) and
   is the four counters' growth over it, in [counter_names] order. *)
let counted f =
  let counters = List.map Telemetry.Counter.create counter_names in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled ~spans:false true;
  let before = List.map Telemetry.Counter.value counters in
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) f;
  List.map2 (fun c v -> Telemetry.Counter.value c - v) counters before

(* [check_step name s ~sources ~bound] steps [s] and checks the level
   and the counters against the reference. *)
let check_step name s ~sources ~bound =
  let library = Search.library s in
  let r = reference_step library s ~sources ~bound:(Option.value bound ~default:max_int) in
  let counts = counted (fun () -> ignore (Search.try_step ?bound ~sources s ~cancel:never)) in
  check Alcotest.(list string) (name ^ ": new level") r.new_keys
    (Array.to_list (keys_of s (Search.depth s)));
  check
    Alcotest.(list int)
    (name ^ ": new, duplicate, rejected, dropped")
    [ List.length r.new_keys; r.duplicates; r.rejected; r.dropped ]
    counts

(* Every step of a whole search, at every bound from 0 (the final
   level) to n (whole), at 3 wires to depth 7 and 4 wires to depth 4,
   raw and quotiented. *)
let test_plans_every_bound jobs () =
  List.iter
    (fun ((library, depth), quotient) ->
      let n = Library.qubits library in
      let symmetry = if quotient then Some (Symmetry.create library) else None in
      let all = all_gates library in
      for d = 1 to depth do
        for bound = 0 to n do
          let s = Search.create ~jobs ?symmetry library in
          for _ = 1 to d - 1 do
            ignore (Search.try_step s ~cancel:never)
          done;
          check_step
            (Printf.sprintf "%d wires%s, level %d, bound %d, jobs=%d" n
               (if quotient then " quotient" else "")
               d bound jobs)
            s ~sources:[ (d - 1, all) ] ~bound:(Some bound)
        done
      done)
    (List.concat_map (fun c -> [ (c, false); (c, true) ]) [ (library3, 7); (library4, 4) ])

(* A function parent's image is the whole binary block, so its child
   through a gate has that gate's binary-block signature: the OR of the
   point signatures of the gate's images of the binary codes.  Checked
   on every function state of the 2-, 3- and 4-wire censuses' first
   levels. *)
let test_function_parent_signature () =
  List.iter
    (fun (qubits, depth) ->
      let library = Library.make (Mvl.Encoding.make ~qubits) in
      let encoding = Library.encoding library in
      let nb = Mvl.Encoding.num_binary encoding in
      let block e =
        let s = ref 0 in
        for x = 0 to nb - 1 do
          s := !s lor Mvl.Encoding.mixed_signature encoding e.Library.perm_array.(x)
        done;
        !s
      in
      let s = Search.create library in
      let functions = ref 0 in
      for d = 0 to depth do
        if d > 0 then ignore (Search.try_step s ~cancel:never);
        Search.iter_functions s ~depth:d (fun key off _ ->
            incr functions;
            let key = Bytes.sub_string key off nb in
            Array.iter
              (fun (e : Library.entry) ->
                let child = String.map (fun c -> Char.chr e.Library.perm_array.(Char.code c)) key in
                if signature_of library child <> block e then
                  Alcotest.failf "%d wires: gate %s on a function parent" qubits
                    (Gate.name e.Library.gate))
              (Library.entries library))
      done;
      checkb (Printf.sprintf "%d wires: function parents checked" qubits) true (!functions > 1))
    [ (2, 4); (3, 5); (4, 3) ]

(* census-s16's work, pinned: a gate the plan misclassifies changes a
   counter even where the stored states agree. *)
let test_census_counters jobs () =
  let counts = counted (fun () -> ignore (Fmcf.run ~max_depth:5 ~jobs library4)) in
  check
    Alcotest.(list int)
    (Printf.sprintf "census -q 4 -d 5 counters, jobs=%d" jobs)
    [ 38_680; 93_596; 383_904; 631_392 ]
    counts

(* Two sources with gate subsets: level 1 through the even entries and
   level 3 through the odd ones.  The new level is every legal child
   not stored before, in source order, parents in canonical order and
   each parent's children in gate order, whole or bounded, and jobs
   changes nothing. *)
let test_two_sources () =
  let evens = Array.of_list (List.filter (fun g -> g mod 2 = 0) (Array.to_list (all_gates library4))) in
  let odds = Array.of_list (List.filter (fun g -> g mod 2 = 1) (Array.to_list (all_gates library4))) in
  let sources = [ (1, evens); (3, odds) ] in
  let step jobs bound =
    let s = Search.create ~jobs library4 in
    for _ = 1 to 3 do
      ignore (Search.try_step s ~cancel:never)
    done;
    check_step
      (Printf.sprintf "jobs=%d, bound %s" jobs
         (Option.fold ~none:"none" ~some:string_of_int bound))
      s ~sources ~bound;
    level_print s
  in
  List.iter
    (fun bound ->
      let sequential = step 1 bound in
      List.iter
        (fun jobs -> check_level (Printf.sprintf "jobs=%d" jobs) sequential (step jobs bound))
        jobs_under_test)
    [ None; Some 2; Some 1; Some 0 ];
  List.iter
    (fun (name, sources) ->
      match Search.try_step ~sources (Search.create library4) ~cancel:never with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "stepped from %s" name)
    [ ("no source", []); ("a level not stored", [ (1, [| 0 |]) ]);
      ("gates out of order", [ (0, [| 3; 2 |]) ]) ]

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
      ( "frontiers",
        per_jobs "byte-identical frontiers" test_frontiers_byte_identical
        @ per_jobs "four wires, raw -d 5 and quotient -d 6" test_frontiers_four_wires );
      ("arena algebra", [ qcheck_arena_compose ]);
      ( "state arena",
        [
          Alcotest.test_case "Hashtbl reference, 65536 keys" `Quick test_arena_reference;
          Alcotest.test_case "doublings narrow the tag" `Quick test_arena_doublings;
          Alcotest.test_case "shard, slot and tag collisions" `Quick test_arena_tag_collisions;
          Alcotest.test_case "derived depth at level bounds" `Quick test_arena_level_depths;
          Alcotest.test_case "step allocation, plain" `Quick (test_step_allocation false);
          Alcotest.test_case "step allocation, quotient" `Quick (test_step_allocation true);
        ] );
      ( "reservations",
        [
          Alcotest.test_case "too small and too large" `Quick test_reservation_sizes;
          Alcotest.test_case "major words per store word" `Quick test_major_allocation;
        ]
        @ List.map
            (fun jobs ->
              Alcotest.test_case (Printf.sprintf "cancel mid-level (jobs=%d)" jobs) `Quick
                (test_cancel_rollback jobs))
            (1 :: jobs_under_test) );
      ( "final level",
        List.map
          (fun jobs ->
            Alcotest.test_case (Printf.sprintf "functions only (jobs=%d)" jobs) `Quick
              (test_functions_only_level jobs))
          [ 1; 2 ]
        @ List.map
            (fun jobs ->
              Alcotest.test_case (Printf.sprintf "closed engine (jobs=%d)" jobs) `Quick
                (test_closed_engine jobs))
            [ 1; 2 ]
        @ [ Alcotest.test_case "guarded reservation" `Quick test_final_reservation ] );
      ( "sources",
        List.map
          (fun jobs ->
            Alcotest.test_case (Printf.sprintf "default source (jobs=%d)" jobs) `Quick
              (test_default_source jobs))
          [ 1; 2 ]
        @ [ Alcotest.test_case "two sources, gate subsets" `Quick test_two_sources ] );
      ( "gate plans",
        List.map
          (fun jobs ->
            Alcotest.test_case (Printf.sprintf "every step at every bound (jobs=%d)" jobs) `Quick
              (test_plans_every_bound jobs))
          [ 1; 2 ]
        @ [ Alcotest.test_case "function parents' child signatures" `Quick
              test_function_parent_signature ]
        @ List.map
            (fun jobs ->
              Alcotest.test_case (Printf.sprintf "census -q 4 -d 5 counters (jobs=%d)" jobs) `Quick
                (test_census_counters jobs))
            [ 1; 2 ] );
      ( "adaptation",
        [ Alcotest.test_case "effective jobs at depth 7" `Quick test_effective_jobs ] );
    ]
