open Permgroup

let log_src = Logs.Src.create "qsynth.search" ~doc:"BFS search engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_states_new = Telemetry.Counter.create "search.states.new"
let m_states_dup = Telemetry.Counter.create "search.states.duplicate"
let m_sig_rejected = Telemetry.Counter.create "search.expansions.signature_rejected"
let m_mixed_dropped = Telemetry.Counter.create "search.expansions.mixed_dropped"
let g_frontier = Telemetry.Gauge.create "search.frontier.size"
let g_table_size = Telemetry.Gauge.create "search.table.size"
let g_table_load = Telemetry.Gauge.create "search.table.load"
let g_jobs = Telemetry.Gauge.create "search.jobs"
let g_jobs_eff = Telemetry.Gauge.create "search.jobs.effective"
let g_arena = Telemetry.Gauge.create "search.arena.bytes"
let h_step = Telemetry.Histogram.create "search.step.seconds"
let h_expand = Telemetry.Histogram.create "search.step.expand.seconds"
let h_merge = Telemetry.Histogram.create "search.step.merge.seconds"
let s_domain_states = Telemetry.Series.create "search.domain.states"
let m_orbits = Telemetry.Counter.create "search.quotient.orbits"
let m_orbit_hits = Telemetry.Counter.create "search.quotient.hits"
let s_orbits = Telemetry.Series.create "search.quotient.orbits.per_level"
let s_kept = Telemetry.Series.create "search.level.kept"
let s_dropped = Telemetry.Series.create "search.level.mixed_dropped"

type handle = int

let num_shards = State_arena.num_shards

(* Candidate children produced by one (domain, target shard) pair during
   the expansion phase: packed keys plus each candidate's key hash.  A
   candidate carries no provenance: the stored state is its key. *)
type candbuf = {
  mutable ckeys : Bytes.t; (* clen * key_length bytes *)
  mutable chashes : int array;
  mutable clen : int;
}

let make_candbuf degree =
  { ckeys = Bytes.create (64 * degree); chashes = Array.make 64 0; clen = 0 }

let cand_append buf ~degree key ~off ~hash =
  let i = buf.clen in
  if i = Array.length buf.chashes then begin
    let hashes' = Array.make (2 * i) 0 in
    Array.blit buf.chashes 0 hashes' 0 i;
    buf.chashes <- hashes';
    let keys' = Bytes.create (2 * i * degree) in
    Bytes.blit buf.ckeys 0 keys' 0 (i * degree);
    buf.ckeys <- keys'
  end;
  Bytes.blit key off buf.ckeys (i * degree) degree;
  buf.chashes.(i) <- hash;
  buf.clen <- i + 1

(* A step's gate plan for one (source, parent signature): the source's
   gates that are legal for the signature and not excluded by the
   step's bound, in gate order, each with its test (see [gate_test]). *)
type plan = {
  pas : int array array; (* the admitted gates' point maps *)
  tests : int array; (* 0: keep unchecked; else the wires the child must be binary on *)
  excluded : int; (* legal gates the bound excludes before composing *)
}

type t = {
  library : Library.t;
  store : State_arena.t;
  jobs : int;
  klen : int; (* stored key length: the encoding's [num_binary] *)
  sym : Symmetry.t option; (* Some: quotient mode — keys are canonical image vectors *)
  entries : Library.entry array;
  signatures : int array; (* mixed signature of each encoding point *)
  popcount : int array; (* signature -> its number of mixed wires *)
  changes : int array; (* each entry's changeable-wire mask (see [change_mask]) *)
  function_sigs : int array; (* each entry's child signature on a function parent *)
  num_sigs : int; (* the parent signatures a plan covers: 0 .. num_sigs - 1 *)
  max_mixed : int; (* the most mixed wires a stored state can have *)
  (* quotient-mode tallies, kept on the engine (unlike the telemetry
     counters these are live even with telemetry disabled, so [census
     --stats] can report the collapse factor of a plain run) *)
  mutable orbit_fresh : int;
  mutable orbit_hits : int;
  mutable kids_per_parent : float; (* the last level's candidates per parent, 0 until known *)
  mutable bound : int; (* the newest level's bound, [max_int] when whole *)
  mutable whole_depth : int; (* the deepest whole level *)
  (* per-step scratch, reused across levels *)
  cand : candbuf array array; (* jobs x shards *)
  (* the step's parents, one segment per (source, shard) *)
  mutable fpos : int array; (* each segment's first position in the step, then the step's size *)
  mutable fstart : int array; (* each segment's first local index in its shard *)
  mutable src_gates : int array; (* each source's number of gates *)
  mutable plans : plan array array; (* source -> parent signature -> its gates *)
  (* per-domain children of one parent (see expand_parent) *)
  raw : Bytes.t array; (* a child's image before canonicalization (quotient mode) *)
  kids : Bytes.t array; (* ngates * klen key bytes *)
  kid_hashes : int array array;
  canon_buf : Bytes.t; (* the canonical image a backward step probes for *)
  rejected_d : int array; (* per-domain counters, summed after the join *)
  mixed_d : int array; (* legal children of a bounded step dropped by its bound *)
  fresh_d : int array;
  dup_d : int array;
  domain_states : int array; (* cumulative states inserted per domain *)
}

let max_jobs = num_shards

(* Adaptive parallelism (the BENCH_3 jobs=4 regression fix).  Running a
   level across [t.jobs] ranks only pays when each rank gets a
   substantial contiguous chunk of the frontier: below [min_chunk]
   states per rank, the fixed per-level cost (clearing candidate rows,
   domain spawn/join, skewed rank finish times) dominates the expansion
   itself.  Each step therefore computes an {e effective} rank count
   from the frontier length, additionally capped by the machine's
   recommended domain count — asking for 4 domains on a 2-core runner
   time-slices two of them onto busy cores and makes the join wait for
   the stragglers, which is exactly the census-depth7/jobs=4 skew
   BENCH_3 recorded.  Phase functions are parameterized on the step's
   rank count, never on [t.jobs]; determinism is structural (contiguous
   chunks in frontier order, rank-order candidate replay, shard-pure
   placement), so the states, handles and frontier order are identical
   for every effective value. *)
let min_chunk = 2048
let hardware_jobs = lazy (Domain.recommended_domain_count ())

let effective_jobs t n =
  let cap = min t.jobs (Lazy.force hardware_jobs) in
  max 1 (min cap ((n + min_chunk - 1) / min_chunk))

(* A backward step packs a located state as [(handle lsl conj_bits) lor
   conjugator]: up to 32 wire relabelings (24 at 4 qubits). *)
let conj_bits = 5

(* The stored key is the binary-image vector: [num_binary] bytes, byte
   [j] the encoding point binary code [j] is mapped to.  Legality of the
   next gate (Definition 1) and the function a circuit computes depend
   only on these bytes, so circuits with equal images are one state. *)
let key_length_of ~symmetry library =
  let encoding = Library.encoding library in
  if not (Library.byte_keys encoding) then
    invalid_arg "Search.create: encoding too large for byte keys";
  let num_binary = Mvl.Encoding.num_binary encoding in
  (match symmetry with
  | None -> ()
  | Some sym ->
      if Symmetry.num_binary sym <> num_binary then
        invalid_arg "Search: symmetry group built for a different encoding";
      if Symmetry.order sym > 1 lsl conj_bits then
        invalid_arg "Search: symmetry group too large for the conjugator field");
  num_binary

(* A gate's changeable-wire mask: the wires whose mixedness it changes
   at some point, the OR over points [p] of [sig p lxor sig (pa p)].  A
   child's mixed wires are its parent's, except those of this mask; a
   controlled-V or V-dagger changes its target, every classical gate
   nothing. *)
let change_mask signatures pa =
  let m = ref 0 in
  Array.iteri (fun p s -> m := !m lor (s lxor signatures.(pa.(p)))) signatures;
  !m

let make_engine ~jobs ~symmetry library ~store =
  let entries = Library.entries library in
  let encoding = Library.encoding library in
  let klen = key_length_of ~symmetry library in
  let signatures =
    Array.init (Mvl.Encoding.size encoding) (Mvl.Encoding.mixed_signature encoding)
  in
  let qubits = Library.qubits library in
  let popcount =
    Array.init (1 lsl qubits) (fun s ->
        let rec pop s = if s = 0 then 0 else (s land 1) + pop (s lsr 1) in
        pop s)
  in
  let changes = Array.map (fun e -> change_mask signatures e.Library.perm_array) entries in
  (* A function parent's image is the whole binary block (codes 0 ..
     num_binary - 1), so its child through a gate has one signature. *)
  let function_sigs =
    Array.map
      (fun e ->
        let s = ref 0 in
        for x = 0 to klen - 1 do
          s := !s lor signatures.(e.Library.perm_array.(x))
        done;
        !s)
      entries
  in
  (* A gate keeps binary the wires its purity mask demands binary and it
     does not change, so its children have at most the others mixed. *)
  let max_mixed =
    if Array.for_all (( = ) 0) signatures then 0
    else
      Array.fold_left max 0
        (Array.mapi
           (fun g e -> qubits - popcount.(e.Library.purity_mask land lnot changes.(g)))
           entries)
  in
  Telemetry.Gauge.set_int g_jobs jobs;
  {
    library;
    store;
    jobs;
    klen;
    sym = symmetry;
    entries;
    signatures;
    popcount;
    changes;
    function_sigs;
    num_sigs = Array.fold_left ( lor ) 0 signatures + 1;
    max_mixed;
    orbit_fresh = 0;
    orbit_hits = 0;
    kids_per_parent = 0.;
    bound = max_int;
    whole_depth = State_arena.levels store - 1;
    cand = Array.init jobs (fun _ -> Array.init num_shards (fun _ -> make_candbuf klen));
    fpos = [||];
    fstart = [||];
    src_gates = [||];
    plans = [||];
    raw = Array.init jobs (fun _ -> Bytes.create klen);
    kids = Array.init jobs (fun _ -> Bytes.create (Array.length entries * klen));
    kid_hashes = Array.init jobs (fun _ -> Array.make (Array.length entries) 0);
    canon_buf = Bytes.create klen;
    rejected_d = Array.make jobs 0;
    mixed_d = Array.make jobs 0;
    fresh_d = Array.make jobs 0;
    dup_d = Array.make jobs 0;
    domain_states = Array.make jobs 0;
  }

let create ?(jobs = 1) ?symmetry library =
  if jobs < 1 then invalid_arg "Search.create: jobs must be >= 1";
  let jobs = min jobs max_jobs in
  let klen = key_length_of ~symmetry library in
  let store = State_arena.create ~degree:klen in
  (* The identity's key: the identity image vector, which is its own
     canonical form (it is fixed by every wire relabeling). *)
  let root_key = Bytes.init klen Char.chr in
  let root_hash = State_arena.hash_key root_key ~off:0 ~len:klen in
  State_arena.open_level store ~reserve:1;
  ignore (State_arena.try_insert store ~key:root_key ~off:0 ~hash:root_hash);
  make_engine ~jobs ~symmetry library ~store

(* [of_store] rebuilds a live engine around a restored arena, whose
   levels are already recorded, so the frontier is its newest level in
   the canonical (shard, index) order the live engine held, and a
   resumed search continues byte-identically.  Every key is checked to
   be an image the engine could hold: each byte a point of the encoding
   (expansion indexes the gates' point maps with them) and, quotiented,
   its own canonical form. *)
let of_store ?(jobs = 1) ?symmetry library store =
  if jobs < 1 then invalid_arg "Search.of_store: jobs must be >= 1";
  let jobs = min jobs max_jobs in
  let klen = key_length_of ~symmetry library in
  if State_arena.degree store <> klen then
    invalid_arg
      (Printf.sprintf
         "Search.of_store: store key length %d does not match the library \
          encoding (%d)"
         (State_arena.degree store) klen);
  let points = Mvl.Encoding.size (Library.encoding library) in
  let canon = Bytes.create klen in
  for d = 0 to State_arena.levels store - 1 do
    State_arena.iter_level store ~depth:d (fun h ->
        let src = State_arena.shard_arena store (State_arena.shard_of_handle h) in
        let off = State_arena.key_offset store h in
        for j = off to off + klen - 1 do
          if Char.code (Bytes.get src j) >= points then
            invalid_arg "Search.of_store: a key byte lies outside the encoding"
        done;
        match symmetry with
        | Some sym when Symmetry.canon_into sym ~src ~soff:off ~dst:canon ~doff:0 <> 0 ->
            invalid_arg "Search.of_store: a quotient key is not its own canonical form"
        | _ -> ())
  done;
  (* the identity circuit must be the sole depth-0 state *)
  let root_key = Bytes.init klen Char.chr in
  let root_hash = State_arena.hash_key root_key ~off:0 ~len:klen in
  (match State_arena.handles_at_depth store 0 with
  | [| h |]
    when h = State_arena.find store root_key ~off:0 ~hash:root_hash -> ()
  | _ -> invalid_arg "Search.of_store: store does not contain the identity root");
  make_engine ~jobs ~symmetry library ~store

let store t = t.store
let bound t = if t.bound = max_int then None else Some t.bound
let whole_depth t = t.whole_depth
let symmetry t = t.sym
let key_length t = t.klen

let quotient_collapsed t =
  match t.sym with None -> None | Some _ -> Some (t.orbit_fresh, t.orbit_hits)
let handles_at_depth t d = State_arena.handles_at_depth t.store d
let level_size t d = State_arena.level_size t.store ~depth:d

let iter_level t d f = State_arena.iter_level t.store ~depth:d f

let library t = t.library
(* the frontier is the store's newest level *)
let depth t = State_arena.levels t.store - 1
let size t = State_arena.size t.store
let arena_bytes t = State_arena.bytes t.store
let frontier_size t = level_size t (depth t)
let frontier_handles t = handles_at_depth t (depth t)
let key_of_handle t h = State_arena.key_of t.store h
let depth_of_handle t h = State_arena.depth_of t.store h

(* Level [depth]'s function states, one range scan per shard over the
   level's key bytes: each key's point signatures are tested inline and
   the test stops at the first mixed point, so no per-state call is
   made for the (many) states that leave the binary block. *)
let iter_functions t ~depth f =
  if depth >= 0 && depth < State_arena.levels t.store then begin
    let klen = t.klen and signatures = t.signatures in
    for s = 0 to State_arena.num_shards - 1 do
      let src = State_arena.shard_arena t.store s in
      for idx = State_arena.level_start t.store ~depth s
          to State_arena.level_end t.store ~depth s - 1 do
        let off = idx * klen in
        let stop = off + klen in
        let j = ref off in
        while
          !j < stop
          && Array.unsafe_get signatures (Char.code (Bytes.unsafe_get src !j)) = 0
        do
          incr j
        done;
        if !j = stop then f src off (State_arena.handle ~shard:s ~index:idx)
      done
    done
  end

(* [level_bound t bound] is the bound a step keeps, [max_int] for a
   whole level.  A bound no state can exceed is whole, except bound 0,
   which makes the level final: on a binary encoding it keeps every
   child, but nothing may be stepped after it. *)
let level_bound t = function
  | None -> max_int
  | Some b when b < 0 -> invalid_arg "Search.try_step: a bound is at least 0"
  | Some b -> if b > 0 && b >= t.max_mixed then max_int else b

(* [within t ~depth ~bound] counts level [depth]'s states with at most
   [bound] mixed wires, each key's scan stopping once it has more. *)
let within t ~depth ~bound =
  let klen = t.klen and signatures = t.signatures and popcount = t.popcount in
  let n = ref 0 in
  for s = 0 to State_arena.num_shards - 1 do
    let src = State_arena.shard_arena t.store s in
    for idx = State_arena.level_start t.store ~depth s
        to State_arena.level_end t.store ~depth s - 1 do
      let off = idx * klen in
      let stop = off + klen in
      let j = ref off and signature = ref 0 in
      while !j < stop && Array.unsafe_get popcount !signature <= bound do
        signature :=
          !signature lor Array.unsafe_get signatures (Char.code (Bytes.unsafe_get src !j));
        incr j
      done;
      if Array.unsafe_get popcount !signature <= bound then incr n
    done
  done;
  !n

(* A bounded level keeps only the children within its bound, so its
   reservation is the usual prediction scaled by the newest level's
   share of states within that bound.  The share falls with depth
   wherever a level holds mixed states, so the estimate errs on the
   large side; where no state can exceed the bound (nct, nft, and
   every bound at least [max_mixed]) it is the usual prediction.
   [bound] is [level_bound]'s. *)
let predicted_level t ~bound =
  let p = State_arena.predicted_level t.store ~fanout:(Array.length t.entries) in
  let n = frontier_size t in
  if bound >= t.max_mixed || n = 0 then p
  else ((p * within t ~depth:(depth t) ~bound) + n - 1) / n

let predicted_bytes ?bound t =
  State_arena.reserve_bytes t.store (predicted_level t ~bound:(level_bound t bound))

(* [run_workers ~parallel jobs f] runs [f 0 .. f (jobs-1)], either on
   [jobs] domains or sequentially on the calling one.  Every [f r] writes
   only rank-[r]-owned slots (candidate row [r], counter index [r], shards
   congruent to [r]), so the two modes compute identical states; the
   domain joins publish all writes back to the coordinator. *)
let run_workers ~parallel jobs f =
  if not parallel then
    for r = 0 to jobs - 1 do
      f r
    done
  else begin
    let workers = Array.init (jobs - 1) (fun r -> Domain.spawn (fun () -> f (r + 1))) in
    f 0;
    Array.iter Domain.join workers
  end

(* Cooperative cancellation: [cancel] is polled every
   [cancel_poll_mask + 1] frontier states.  It must be cheap,
   domain-safe and monotonic (once true, always true) — an [Atomic.t]
   set by a signal handler qualifies. *)
let cancel_poll_mask = 63

(* {1 Gate plans}

   Whether a gate may follow a parent, and what the step's bound makes
   of its child, depend only on the gate, the bound and the parent's
   signature.  Each step therefore tabulates, per source and per parent
   signature, the source's gates the signature admits (its purity mask
   is clear of the signature's mixed wires) and the bound does not
   exclude, each with the test its child needs.  Below [max_mixed]
   every gate changes the mixedness of at most one wire ([try_step]
   refuses other libraries), and a wire outside a gate's change mask
   is mixed at a child's point exactly when it is at the parent's, so
   the child of a parent of signature [s] through a gate of change mask
   [c] is mixed on the wires of [s] outside [c], plus [c] itself when
   some child point is mixed there.  Hence a gate is
   - excluded, counted but never composed, when popcount (s land lnot
     c) > bound: it cannot bring the parent within the bound;
   - kept unchecked (test 0) when popcount (s lor c) <= bound: it
     cannot take the parent past the bound;
   - otherwise tested with [c]: its child is kept when it is binary on
     [c] at every point, scanned before composing and stopping at the
     first point mixed there.
   A function parent (signature 0) has an exact rule: its image is the
   whole binary block, so its child through gate [g] has signature
   [function_sigs.(g)], and the gate is kept or excluded outright (at
   bound 0 every controlled-V or V-dagger is excluded).  A wire
   relabeling permutes wires, so the raw child's count is its
   canonical form's. *)

(* [gate_test t ~bound signature g] is gate [g]'s test for a parent of
   [signature] (0 keeps the child unchecked), [excluded] when the bound
   excludes it and [illegal] when the signature breaks its purity
   mask. *)
let illegal = -2
let excluded = -1

let gate_test t ~bound signature g =
  let popcount = t.popcount and change = t.changes.(g) in
  if signature land t.entries.(g).Library.purity_mask <> 0 then illegal
  else if bound >= t.max_mixed then 0
  else if signature = 0 then if popcount.(t.function_sigs.(g)) <= bound then 0 else excluded
  else if popcount.(signature land lnot change) > bound then excluded
  else if popcount.(signature lor change) <= bound then 0
  else change

let plan_row t gates ~bound signature =
  let admitted = ref 0 and excluded_gates = ref 0 in
  Array.iter
    (fun g ->
      let test = gate_test t ~bound signature g in
      if test >= 0 then incr admitted else if test = excluded then incr excluded_gates)
    gates;
  let pas = Array.make !admitted [||] and tests = Array.make !admitted 0 in
  let k = ref 0 in
  Array.iter
    (fun g ->
      let test = gate_test t ~bound signature g in
      if test >= 0 then begin
        pas.(!k) <- t.entries.(g).Library.perm_array;
        tests.(!k) <- test;
        incr k
      end)
    gates;
  { pas; tests; excluded = !excluded_gates }

(* [binary_on t pa mask src soff] is whether the child image [pa]
   composed onto the key at [src.[soff ..]] is binary on the wires of
   [mask] at every point.  Stops at the first point mixed there. *)
let binary_on t pa mask src soff =
  let stop = soff + t.klen in
  let j = ref soff in
  while
    !j < stop
    && Array.unsafe_get t.signatures
         (Array.unsafe_get pa (Char.code (Bytes.unsafe_get src !j)))
       land mask
       = 0
  do
    incr j
  done;
  !j = stop

(* [expand_parent t r i h] writes every child of state [h] that source
   [i]'s plan for [h]'s signature keeps into rank [r]'s child buffers,
   in gate order: its key (the canonical form in quotient mode) and the
   key's hash.  Returns the number of children.  The parent's signature
   is the OR of its key bytes' point signatures.  A child the bound
   drops is dropped before it is composed; the dropped children are
   counted in [t.mixed_d.(r)], and every gate of the source not taken
   in [t.rejected_d.(r)].
   Composing a parent's children before any of them is probed lets the
   probes run back to back, so their cache misses overlap. *)
let expand_parent t r i h =
  let klen = t.klen and signatures = t.signatures in
  let kids = t.kids.(r) and hashes = t.kid_hashes.(r) in
  let src = State_arena.shard_arena t.store (State_arena.shard_of_handle h) in
  let soff = State_arena.key_offset t.store h in
  let signature = ref 0 in
  for j = soff to soff + klen - 1 do
    signature :=
      !signature lor Array.unsafe_get signatures (Char.code (Bytes.unsafe_get src j))
  done;
  let plan = Array.unsafe_get (Array.unsafe_get t.plans i) !signature in
  let pas = plan.pas and tests = plan.tests in
  let k = ref 0 and mixed = ref plan.excluded in
  for via = 0 to Array.length pas - 1 do
    let pa = Array.unsafe_get pas via and test = Array.unsafe_get tests via in
    if test <> 0 && not (binary_on t pa test src soff) then incr mixed
    else begin
      let off = !k * klen in
      match t.sym with
      | None ->
          let acc = ref 0 in
          for j = 0 to klen - 1 do
            let b = Array.unsafe_get pa (Char.code (Bytes.unsafe_get src (soff + j))) in
            Bytes.unsafe_set kids (off + j) (Char.unsafe_chr b);
            acc := (!acc * 131) + b
          done;
          (* finalize exactly as State_arena.hash_key *)
          let hv = !acc in
          let hv = hv lxor (hv lsr 23) in
          let hv = hv * 0x2545F4914F6CDD1 in
          let hv = hv lxor (hv lsr 29) in
          Array.unsafe_set hashes !k (hv land max_int);
          incr k
      | Some sym ->
          (* Quotiented: the stored key is a canonical image vector, so
             applying the gate gives the child's raw image; hash only its
             canonical form. *)
          let raw = t.raw.(r) in
          for j = 0 to klen - 1 do
            Bytes.unsafe_set raw j
              (Char.unsafe_chr
                 (Array.unsafe_get pa (Char.code (Bytes.unsafe_get src (soff + j)))))
          done;
          ignore (Symmetry.canon_into sym ~src:raw ~soff:0 ~dst:kids ~doff:off);
          Array.unsafe_set hashes !k (State_arena.hash_key kids ~off ~len:klen);
          incr k
    end
  done;
  if !mixed > 0 then t.mixed_d.(r) <- t.mixed_d.(r) + !mixed;
  t.rejected_d.(r) <- t.rejected_d.(r) + Array.unsafe_get t.src_gates i - !k;
  !k

(* [set_sources t sources ~bound] builds each source's gate plans for a
   step bounded by [bound] ([level_bound]'s) and splits the step's
   parents, source by source and each level in its canonical order,
   into one segment per (source, shard).  Called before the next level
   is opened; the most children the sources can make. *)
let set_sources t sources ~bound =
  let valid (d, gates) =
    let prev = ref (-1) in
    d >= 0 && d <= depth t
    && Array.for_all (fun g -> !prev < g && g < Array.length t.entries && (prev := g; true)) gates
  in
  if sources = [] || not (List.for_all valid sources) then
    invalid_arg "Search.try_step: sources are stored levels, each with increasing entry indices";
  let sources = Array.of_list sources in
  t.src_gates <- Array.map (fun (_, gates) -> Array.length gates) sources;
  t.plans <-
    Array.map (fun (_, gates) -> Array.init t.num_sigs (plan_row t gates ~bound)) sources;
  let segments = Array.length sources * num_shards in
  t.fstart <- Array.make segments 0;
  t.fpos <- Array.make (segments + 1) 0;
  Array.iteri
    (fun i (depth, _) ->
      for s = 0 to num_shards - 1 do
        let g = (i * num_shards) + s in
        let start = State_arena.level_start t.store ~depth s in
        t.fstart.(g) <- start;
        t.fpos.(g + 1) <- t.fpos.(g) + State_arena.level_end t.store ~depth s - start
      done)
    sources;
  Array.fold_left (fun n (d, gates) -> n + (level_size t d * Array.length gates)) 0 sources

(* [walk t ~lo ~hi ~cancel f] calls [f i h] on the step's parents at
   positions [lo .. hi-1] ([i] is [h]'s source), polling [cancel] at
   every multiple of [cancel_poll_mask + 1]; [false] when it fired. *)
let walk t ~lo ~hi ~cancel f =
  let fpos = t.fpos in
  let g = ref 0 in
  while !g < Array.length t.fstart - 1 && fpos.(!g + 1) <= lo do
    incr g
  done;
  let base = ref (t.fstart.(!g) - fpos.(!g)) in
  let shard = ref (!g land (num_shards - 1)) and src = ref (!g / num_shards) in
  let p = ref lo and live = ref true in
  while !live && !p < hi do
    if !p land cancel_poll_mask = 0 && cancel () then live := false
    else begin
      while !p >= fpos.(!g + 1) do
        incr g;
        base := t.fstart.(!g) - fpos.(!g);
        shard := !g land (num_shards - 1);
        src := !g / num_shards
      done;
      f !src (State_arena.handle ~shard:!shard ~index:(!base + !p));
      incr p
    end
  done;
  !live

(* Single-domain path: expand and insert in one pass, with no candidate
   buffering.  Children are inserted in (frontier order, gate order);
   within any given shard that is exactly the order in which the chunked
   path replays its candidates, so the stored states and their handles
   coincide with the parallel engine's.  [false] when [cancel] fired. *)
let expand_insert_sequential t ~cancel =
  let klen = t.klen in
  let kids = t.kids.(0) and hashes = t.kid_hashes.(0) in
  let fresh = ref 0 and dup = ref 0 in
  let completed =
    walk t ~lo:0 ~hi:t.fpos.(Array.length t.fstart) ~cancel (fun i h ->
        let k = expand_parent t 0 i h in
        for c = 0 to k - 1 do
          if State_arena.try_insert t.store ~key:kids ~off:(c * klen) ~hash:hashes.(c) >= 0
          then incr fresh
          else incr dup
        done)
  in
  t.fresh_d.(0) <- !fresh;
  t.dup_d.(0) <- !dup;
  completed

(* Under [jobs > 1] a level runs as consecutive chunks of this many
   frontier positions, each through phase 1 then phase 2, so the
   candidate buffers hold one chunk's children rather than a level's. *)
let chunk_parents = 8192

(* [reserve_rows t ~e ~n] sizes candidate rows [0 .. e-1] for one chunk
   of a level of [n] parents: a rank's slice of the chunk times the last
   level's candidates per parent, spread over the shards as a uniform
   hash spreads them.  Rows are emptied at every chunk, so a row below
   its share is replaced, not copied, and a chunk that outgrows its
   share falls back to doubling.  Nothing is reserved before a level
   has been expanded. *)
let reserve_rows t ~e ~n =
  if t.kids_per_parent > 0. then begin
    let slice = (min n chunk_parents + e - 1) / e in
    let kids = Float.ceil (float_of_int slice *. t.kids_per_parent) in
    let want = State_arena.shard_share (int_of_float kids) in
    for r = 0 to e - 1 do
      Array.iter
        (fun buf ->
          if Array.length buf.chashes < want then begin
            buf.chashes <- Array.make want 0;
            buf.ckeys <- Bytes.create (want * t.klen)
          end)
        t.cand.(r)
    done
  end

(* Phase 1: rank [r] expands its contiguous share of the chunk [lo ..
   hi-1] into per-shard candidate buffers.  Read-only on the store.
   Sets [stop] when [cancel] fires. *)
let expand_chunk t r ~e ~lo ~hi ~stop ~cancel =
  let klen = t.klen in
  let row = t.cand.(r) in
  for s = 0 to num_shards - 1 do
    row.(s).clen <- 0
  done;
  let kids = t.kids.(r) and hashes = t.kid_hashes.(r) in
  let len = hi - lo in
  let completed =
    walk t ~lo:(lo + (r * len / e)) ~hi:(lo + ((r + 1) * len / e)) ~cancel (fun i h ->
        let k = expand_parent t r i h in
        for c = 0 to k - 1 do
          let hash = hashes.(c) in
          cand_append row.(State_arena.shard_of_hash hash) ~degree:klen kids ~off:(c * klen) ~hash
        done)
  in
  if not completed then Atomic.set stop true

(* Phase 2: rank [r] dedupes and inserts the candidates of its owned
   shards (s mod e = r), scanning domain rows in rank order so each
   shard sees its candidates in global frontier order — the processing
   order, and hence the stored states, do not depend on the number of
   domains.  Only rows [0 .. e-1] are scanned: rows beyond the step's
   effective rank count were not cleared this step and may hold stale
   candidates from an earlier, wider level. *)
let dedupe_shards t r ~e =
  let klen = t.klen in
  let fresh = ref 0 and dup = ref 0 in
  let s = ref r in
  while !s < num_shards do
    for d = 0 to e - 1 do
      let buf = t.cand.(d).(!s) in
      for i = 0 to buf.clen - 1 do
        if State_arena.try_insert t.store ~key:buf.ckeys ~off:(i * klen) ~hash:buf.chashes.(i) >= 0
        then incr fresh
        else incr dup
      done
    done;
    s := !s + e
  done;
  t.fresh_d.(r) <- t.fresh_d.(r) + !fresh;
  t.dup_d.(r) <- t.dup_d.(r) + !dup

(* The chunked level: phase 1 then phase 2 for each chunk in frontier
   order, so every shard still sees its candidates in global frontier
   order.  [false] when [cancel] fired, before that chunk's phase 2. *)
let expand_insert_chunked t ~e ~cancel =
  let n = t.fpos.(Array.length t.fstart) in
  let parallel = e > 1 in
  let stop = Atomic.make false in
  let lo = ref 0 in
  while !lo < n && not (Atomic.get stop) do
    let hi = min n (!lo + chunk_parents) in
    let lo' = !lo in
    Telemetry.Histogram.time h_expand (fun () ->
        run_workers ~parallel e (fun r -> expand_chunk t r ~e ~lo:lo' ~hi ~stop ~cancel));
    if not (Atomic.get stop) then
      Telemetry.Histogram.time h_merge (fun () ->
          run_workers ~parallel e (fun r -> dedupe_shards t r ~e));
    lo := hi
  done;
  not (Atomic.get stop)

(* Every bounded level is exact (it holds the full level's states
   within its bound) when each bound is below the one before: a gate
   changes the mixedness of at most one wire, so a state with [b]
   mixed wires has its shortest-path parents within [b + 1]. *)
let try_step ?bound ?sources t ~cancel =
  let bound = level_bound t bound in
  if t.bound < max_int && bound >= t.bound then
    invalid_arg
      (Printf.sprintf "Search.try_step: the newest level is bounded by %d; the next bound must be lower"
         t.bound);
  if bound < t.max_mixed && Array.exists (fun c -> t.popcount.(c) > 1) t.changes then
    invalid_arg "Search.try_step: a bounded level needs gates that each change one wire's mixedness";
  let sources =
    Option.value sources ~default:[ (depth t, Array.init (Array.length t.entries) Fun.id) ]
  in
  let most = set_sources t sources ~bound in
  Telemetry.Histogram.time h_step @@ fun () ->
  Telemetry.Span.with_span "search.step" @@ fun () ->
  let next_depth = depth t + 1 in
  let n = t.fpos.(Array.length t.fstart) in
  (* the newest level's prediction binds unless other sources make fewer *)
  let reserve = min (predicted_level t ~bound) most in
  (* The step's effective rank count: small frontiers collapse to one
     rank (run inline — spawning domains for them costs more than it
     saves), and the configured jobs are capped by the core count.  The
     rank functions compute identical states either way; only
     scheduling changes. *)
  let e = effective_jobs t n in
  let parallel = e > 1 in
  Telemetry.Gauge.set_int g_jobs_eff e;
  Array.fill t.fresh_d 0 t.jobs 0;
  Array.fill t.dup_d 0 t.jobs 0;
  Array.fill t.rejected_d 0 t.jobs 0;
  Array.fill t.mixed_d 0 t.jobs 0;
  State_arena.open_level t.store ~reserve;
  let completed =
    if t.jobs = 1 then
      Telemetry.Histogram.time h_expand (fun () ->
          expand_insert_sequential t ~cancel)
    else begin
      reserve_rows t ~e ~n;
      expand_insert_chunked t ~e ~cancel
    end
  in
  if not completed then begin
    State_arena.abandon_level t.store;
    Telemetry.Span.set_attr "cancelled" (Telemetry.Json.Bool true);
    Log.info (fun m ->
        m "level %d abandoned on cancellation; engine rolled back to level %d"
          next_depth (depth t));
    None
  end
  else begin
  Faultsim.hit "merge";
  let sum a = Array.fold_left ( + ) 0 a in
  let fresh = sum t.fresh_d and dup = sum t.dup_d and mixed = sum t.mixed_d in
  let rejected = sum t.rejected_d - mixed in
  if n > 0 then t.kids_per_parent <- float_of_int (fresh + dup) /. float_of_int n;
  t.bound <- bound;
  if bound = max_int then t.whole_depth <- next_depth;
  for r = 0 to t.jobs - 1 do
    t.domain_states.(r) <- t.domain_states.(r) + t.fresh_d.(r)
  done;
  Telemetry.Counter.add m_states_new fresh;
  Telemetry.Counter.add m_states_dup dup;
  Telemetry.Counter.add m_sig_rejected rejected;
  Telemetry.Counter.add m_mixed_dropped mixed;
  Telemetry.Series.set s_kept ~index:next_depth fresh;
  Telemetry.Series.set s_dropped ~index:next_depth mixed;
  (match t.sym with
  | None -> ()
  | Some _ ->
      (* In quotient mode every stored state is one orbit representative:
         fresh counts new orbits, dup counts expansions canonicalized onto
         an already-stored representative. *)
      t.orbit_fresh <- t.orbit_fresh + fresh;
      t.orbit_hits <- t.orbit_hits + dup;
      Telemetry.Counter.add m_orbits fresh;
      Telemetry.Counter.add m_orbit_hits dup;
      Telemetry.Series.set s_orbits ~index:next_depth fresh);
  Telemetry.Gauge.set_int g_frontier fresh;
  Telemetry.Gauge.set_int g_table_size (State_arena.size t.store);
  if Telemetry.enabled () then begin
    Telemetry.Gauge.set_int g_arena (State_arena.bytes t.store);
    Telemetry.Gauge.set g_table_load
      (float_of_int (State_arena.size t.store)
      /. float_of_int (max 1 (State_arena.table_capacity t.store)));
    for r = 0 to t.jobs - 1 do
      Telemetry.Series.set s_domain_states ~index:r t.domain_states.(r)
    done;
    Telemetry.Span.set_attr "level" (Telemetry.Json.Int next_depth);
    Telemetry.Span.set_attr "new" (Telemetry.Json.Int fresh);
    Telemetry.Span.set_attr "duplicate" (Telemetry.Json.Int dup);
    Telemetry.Span.set_attr "signature_rejected" (Telemetry.Json.Int rejected);
    if bound < max_int then begin
      Telemetry.Span.set_attr "bound" (Telemetry.Json.Int bound);
      Telemetry.Span.set_attr "mixed_dropped" (Telemetry.Json.Int mixed)
    end;
    Telemetry.Span.set_attr "parallel" (Telemetry.Json.Bool parallel);
    Telemetry.Span.set_attr "effective_jobs" (Telemetry.Json.Int e)
  end;
  Log.debug (fun m ->
      m "level %d: %d new states (%d duplicate, %d rejected), %d total" next_depth fresh
        dup rejected (State_arena.size t.store));
  Some fresh
  end

let never_cancel () = false

let step_handles t =
  match try_step t ~cancel:never_cancel with
  | Some _ -> frontier_handles t
  | None -> assert false (* never_cancel cannot fire *)

(* {1 Key-based lookups} *)

let find_key t key =
  if String.length key <> t.klen then -1
  else
    let b = Bytes.unsafe_of_string key in
    let hash = State_arena.hash_key b ~off:0 ~len:t.klen in
    State_arena.find t.store b ~off:0 ~hash

let handle_of_key t key = match find_key t key with -1 -> None | h -> Some h

let restriction_of_key t key =
  let nb = t.klen in
  if String.length key = nb && String.for_all (fun c -> Char.code c < nb) key then
    let perm = Perm.unsafe_of_array (Array.init nb (fun i -> Char.code key.[i])) in
    Some (Reversible.Revfun.of_perm ~bits:(Library.qubits t.library) perm)
  else None

(* {1 The backward step}

   A state's witness is read backward from its image: at minimal depth
   k, the step peels the least library gate [g] whose inverse maps the
   image to a pre-image that admits [g] (the reasonable-product
   constraint) and lies at level k - 1.  The choice depends only on the
   image -> minimal-depth relation, which the quotient preserves, so it
   needs nothing stored beside the keys. *)

let locate t src soff =
  let nb = t.klen in
  match t.sym with
  | None -> (
      let hash = State_arena.hash_key src ~off:soff ~len:nb in
      match State_arena.find t.store src ~off:soff ~hash with
      | -1 -> -1
      | h -> h lsl conj_bits)
  | Some sym -> (
      let conj = Symmetry.canon_into sym ~src ~soff ~dst:t.canon_buf ~doff:0 in
      let hash = State_arena.hash_key t.canon_buf ~off:0 ~len:nb in
      match State_arena.find t.store t.canon_buf ~off:0 ~hash with
      | -1 -> -1
      | h -> (h lsl conj_bits) lor conj)

let pre_image t (e : Library.entry) src soff ~dst =
  let nb = t.klen in
  let inv = e.Library.inverse_array and mask = e.Library.purity_mask in
  let b = ref 0 in
  while
    !b < nb
    &&
    let x = inv.(Char.code (Bytes.unsafe_get src (soff + !b))) in
    Bytes.unsafe_set dst !b (Char.unsafe_chr x);
    t.signatures.(x) land mask = 0
  do
    incr b
  done;
  if !b < nb then -1 else match locate t dst 0 with -1 -> -2 | r -> r

let back_probe t e src soff ~depth ~dst =
  let r = pre_image t e src soff ~dst in
  if r >= 0 && not (State_arena.in_level t.store (r lsr conj_bits) ~depth) then -2 else r

(* [cascade_of_image t img off ~depth] walks the backward step from the
   image at [img.[off ..]], of minimal depth [depth], to the identity.
   Each step lowers the depth by one, so the walk ends; a state with no
   predecessor (a forged store) raises. *)
let cascade_of_image t img off ~depth =
  let v = Bytes.sub img off t.klen and u = Bytes.create t.klen in
  let gates = ref [] in
  for k = depth downto 1 do
    let g = ref 0 and r = ref (-1) in
    while !r < 0 do
      if !g >= Array.length t.entries then
        invalid_arg "Search: no backward step (the state has no predecessor one level up)";
      r := back_probe t t.entries.(!g) v 0 ~depth:(k - 1) ~dst:u;
      if !r < 0 then incr g
    done;
    gates := t.entries.(!g).Library.gate :: !gates;
    Bytes.blit u 0 v 0 t.klen
  done;
  !gates

let cascade_of_handle t h =
  cascade_of_image t
    (State_arena.shard_arena t.store (State_arena.shard_of_handle h))
    (State_arena.key_offset t.store h)
    ~depth:(State_arena.depth_of t.store h)

let cascade_of_key t key =
  let points = Array.length t.signatures in
  let r =
    if String.length key = t.klen && String.for_all (fun c -> Char.code c < points) key then
      locate t (Bytes.unsafe_of_string key) 0
    else -1
  in
  if r < 0 then invalid_arg "Search.cascade_of_key: unknown key";
  cascade_of_image t (Bytes.unsafe_of_string key) 0
    ~depth:(State_arena.depth_of t.store (r lsr conj_bits))

(* [minimal_parents t h f] calls [f parent entry] for every minimal
   predecessor of [h]: a stored state one level up whose image admits
   the connecting gate and steps to [h]'s image through it. *)
let minimal_parents t h f =
  let u = Bytes.create t.klen in
  let depth = State_arena.depth_of t.store h in
  let src = State_arena.shard_arena t.store (State_arena.shard_of_handle h) in
  let soff = State_arena.key_offset t.store h in
  Array.iter
    (fun entry ->
      let r = back_probe t entry src soff ~depth:(depth - 1) ~dst:u in
      if r >= 0 then f (r lsr conj_bits) entry)
    t.entries

let minimal_dag_root name t key =
  if t.sym <> None then invalid_arg (name ^ ": unavailable in quotient mode");
  match find_key t key with -1 -> invalid_arg (name ^ ": unknown key") | h -> h

let all_cascades ?(limit = 10_000) t key =
  let h = minimal_dag_root "Search.all_cascades" t key in
  let results = ref [] and count = ref 0 in
  let exception Done in
  (* Every path from the root to [h] through minimal parents is a
     minimal cascade, and every minimal cascade is such a path (each of
     its prefixes is minimal for its own image). *)
  let rec walk h suffix =
    if !count >= limit then raise Done;
    if State_arena.depth_of t.store h = 0 then begin
      results := suffix :: !results;
      incr count
    end
    else minimal_parents t h (fun parent entry -> walk parent (entry.Library.gate :: suffix))
  in
  (try walk h [] with Done -> ());
  !results

let count_point_perms t key =
  let h = minimal_dag_root "Search.count_point_perms" t key in
  let degree = Mvl.Encoding.size (Library.encoding t.library) in
  (* Walk the minimal-parent sub-DAG backward one level at a time.  Each
     node carries the set of point permutations its minimal suffixes to
     [h] implement; stepping back over gate [g] precomposes [g] onto every
     one.  At the root the set is exactly the distinct full-domain
     permutations of [h]'s minimal cascades. *)
  let target = Hashtbl.create 1 in
  Hashtbl.replace target (String.init degree Char.chr) ();
  let level = ref (Hashtbl.create 1) in
  Hashtbl.replace !level h target;
  for _ = 1 to State_arena.depth_of t.store h do
    let next = Hashtbl.create 64 in
    Hashtbl.iter
      (fun node suffixes ->
        minimal_parents t node (fun parent entry ->
            let set =
              match Hashtbl.find_opt next parent with
              | Some set -> set
              | None ->
                  let set = Hashtbl.create 16 in
                  Hashtbl.replace next parent set;
                  set
            in
            let pa = entry.Library.perm_array in
            Hashtbl.iter
              (fun s () ->
                Hashtbl.replace set (String.init degree (fun i -> s.[pa.(i)])) ())
              suffixes))
      !level;
    level := next
  done;
  Hashtbl.fold (fun _ set acc -> acc + Hashtbl.length set) !level 0
