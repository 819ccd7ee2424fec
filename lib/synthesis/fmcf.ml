let log_src = Logs.Src.create "qsynth.fmcf" ~doc:"FMCF census (Table 2)"

module Log = (val Logs.src_log log_src : Logs.LOG)

let s_frontier = Telemetry.Series.create "fmcf.level.frontier"
let s_g = Telemetry.Series.create "fmcf.level.g"
let s_paper_g = Telemetry.Series.create "fmcf.level.paper_g"
let h_restrict = Telemetry.Histogram.create "fmcf.restriction.seconds"
let m_budget_states = Telemetry.Counter.create "search.budget.states.hit"
let m_budget_mem = Telemetry.Counter.create "search.budget.mem.hit"
let m_timeout = Telemetry.Counter.create "search.timeout.hit"
let m_cancelled = Telemetry.Counter.create "search.cancelled"
let m_step_images = Telemetry.Counter.create "census_index.witness.images"
let m_step_trials = Telemetry.Counter.create "census_index.witness.trials"

type member = { func : Reversible.Revfun.t; image : string; cost : int }

type level = { cost : int; frontier_size : int; functions : int }

(* The step table of the canonical witnesses (see "Canonical witness
   reconstruction" below), allocated on the first witness read. *)
type steps = {
  order : int; (* |group|, 1 for a raw census *)
  base : int array; (* dense index of each shard's first state *)
  slots : int array;
      (* image id -> (pre-image id lsl gate_bits) lor gate, -1 until stepped *)
  maps : int array array;
      (* per group element [c]: gate [g] -> the gate [g'] with
         [conj_c (g⁻¹ v) = g'⁻¹ (conj_c v)]; empty when raw *)
  legal : Bytes.t;
      (* quotient only: (dense handle, gate) -> whether the gate steps the
         representative down a level: 0 not yet probed, 1 yes, 2 no *)
  v : Bytes.t; (* the image being stepped *)
  u : Bytes.t; (* a trial pre-image *)
}

type t = {
  library : Library.t;
  search : Search.t;
  levels : level list;
  mutable steps : steps option;
}

type stop_reason = Completed | Budget_states | Budget_mem | Timed_out | Cancelled

let describe_stop = function
  | Completed -> "completed"
  | Budget_states -> "state budget exhausted (--max-states)"
  | Budget_mem -> "memory budget exhausted (--max-mem)"
  | Timed_out -> "wall-clock budget exhausted (--timeout)"
  | Cancelled -> "cancelled (SIGINT/SIGTERM)"

(* |G[k]|: keys are unique across the arena, so each function state of
   a level is a distinct function of that minimal cost.  A quotiented
   state stands for its orbit: conjugates are distinct functions of the
   same minimal cost, and distinct representatives' orbits are disjoint. *)
let level_functions search ~cost =
  let n = ref 0 in
  (match Search.symmetry search with
  | None -> Search.iter_functions search ~depth:cost (fun _ _ _ -> incr n)
  | Some sym ->
      Search.iter_functions search ~depth:cost (fun key off _ ->
          n := !n + Symmetry.orbit_size sym ~src:key ~soff:off));
  !n

let process_level search ~cost =
  Telemetry.Span.with_span "fmcf.level" ~attrs:[ ("cost", Telemetry.Json.Int cost) ]
  @@ fun () ->
  let frontier_size = Search.level_size search cost in
  let functions =
    Telemetry.Histogram.time h_restrict (fun () -> level_functions search ~cost)
  in
  Telemetry.Series.set s_frontier ~index:cost frontier_size;
  Telemetry.Series.set s_g ~index:cost functions;
  Log.info (fun m ->
      m "level %d: frontier %d, |G[%d]| = %d" cost frontier_size cost functions);
  { cost; frontier_size; functions }

let no_stop () = false

let run_guarded ?(max_depth = 7) ?(jobs = 1) ?(quotient = false) ?resume ?max_states
    ?max_mem ?timeout ?(should_stop = no_stop) ?on_level library =
  Telemetry.Span.with_span "fmcf.run"
    ~attrs:[ ("max_depth", Telemetry.Json.Int max_depth) ]
  @@ fun () ->
  let started = Unix.gettimeofday () in
  let search =
    match resume with
    | None ->
        let symmetry = if quotient then Some (Symmetry.create library) else None in
        Search.create ~jobs ?symmetry library
    | Some s ->
        (* A resumed engine carries its own mode (a quotient checkpoint
           rebuilds its symmetry group at load time); [quotient] is
           ignored, like [jobs]. *)
        if Search.library s != library then
          invalid_arg "Fmcf.run_guarded: resumed search was built for another library";
        s
  in
  if Search.depth search > max_depth then
    invalid_arg
      (Printf.sprintf
         "Fmcf.run_guarded: resumed search is already at level %d, beyond max_depth %d"
         (Search.depth search) max_depth);
  (* Count the levels already in the arena — the identity's level 0, and
     every completed level of a restored one — through the same path as
     newly expanded levels: a level's count depends only on its states,
     so the replayed counts match the original run's. *)
  let levels = ref [] in
  for cost = 0 to Search.depth search do
    levels := process_level search ~cost :: !levels
  done;
  let deadline = Option.map (fun s -> started +. s) timeout in
  let deadline_passed () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () >= d
  in
  let cancel () = should_stop () || deadline_passed () in
  let over_states () =
    match max_states with None -> false | Some n -> Search.size search >= n
  in
  (* The census reads only functions, and a state mixed on m wires
     needs at least m more gates to become one: a level k + 1 keeps the
     states mixed on at most max_depth - (k + 1) wires, and B[max_depth]
     only its functions. *)
  let bound () = max_depth - Search.depth search - 1 in
  let over_mem () =
    match max_mem with
    | None -> false
    | Some n -> Search.predicted_bytes ~bound:(bound ()) search > n
  in
  let stop = ref None in
  while !stop = None && Search.depth search < max_depth do
    if should_stop () then stop := Some Cancelled
    else if deadline_passed () then stop := Some Timed_out
    else if over_states () then stop := Some Budget_states
    else if over_mem () then stop := Some Budget_mem
    else
      match Search.try_step ~bound:(bound ()) search ~cancel with
      | None ->
          (* mid-level abandon: the engine rolled back to the last
             complete level; decide which guard fired *)
          stop := Some (if should_stop () then Cancelled else Timed_out)
      | Some _ ->
          let cost = Search.depth search in
          (* The hook fires before the level is counted, so a level
             checkpointed here is on disk even if counting it fails. *)
          (match on_level with None -> () | Some f -> f search ~cost);
          levels := process_level search ~cost :: !levels
  done;
  let reason = Option.value ~default:Completed !stop in
  (match reason with
  | Completed -> ()
  | Budget_states -> Telemetry.Counter.incr m_budget_states
  | Budget_mem -> Telemetry.Counter.incr m_budget_mem
  | Timed_out -> Telemetry.Counter.incr m_timeout
  | Cancelled -> Telemetry.Counter.incr m_cancelled);
  if reason <> Completed then
    Log.warn (fun m ->
        m "census stopped early at level %d/%d: %s" (Search.depth search) max_depth
          (describe_stop reason));
  if Telemetry.enabled () then
    Telemetry.Span.set_attr "stop_reason" (Telemetry.Json.String (describe_stop reason));
  ( { library; search; levels = List.rev !levels; steps = None },
    reason )

let run ?max_depth ?jobs ?quotient library =
  fst (run_guarded ?max_depth ?jobs ?quotient library)

let levels t = t.levels
let search t = t.search
let quotiented t = Search.symmetry t.search <> None
let depth t = Search.depth t.search

let counts t = List.map (fun l -> (l.cost, l.functions)) t.levels

(* [iter_images t ~cost f] streams a level's member images from the
   arena: its function states in canonical frontier order, each
   quotiented one expanded into its distinct conjugates in element order.
   [f img off h conj] gets the image at [img.[off ..]] (valid only during
   the call), its state's handle and its canonicalizing conjugator —
   distinct conjugates of one state have distinct conjugators. *)
let iter_images t ~cost f =
  match Search.symmetry t.search with
  | None -> Search.iter_functions t.search ~depth:cost (fun key off h -> f key off h 0)
  | Some sym ->
      let nb = Search.key_length t.search in
      let img = Bytes.create nb and canon = Bytes.create nb in
      Search.iter_functions t.search ~depth:cost (fun key off h ->
          let seen = ref 0 in
          for i = 0 to Symmetry.order sym - 1 do
            Symmetry.conjugate_into sym i ~src:key ~soff:off ~dst:img ~doff:0;
            let conj = Symmetry.canon_into sym ~src:img ~soff:0 ~dst:canon ~doff:0 in
            if !seen land (1 lsl conj) = 0 then begin
              seen := !seen lor (1 lsl conj);
              f img 0 h conj
            end
          done)

let iter_level t ~cost f =
  let nb = Search.key_length t.search in
  iter_images t ~cost (fun img off _ _ ->
      let image = Bytes.sub_string img off nb in
      Option.iter
        (fun func -> f { func; image; cost })
        (Search.restriction_of_key t.search image))

let iter_members t f =
  List.iter (fun l -> iter_level t ~cost:l.cost (f ~cost:l.cost)) t.levels

let members_at t ~cost =
  let members = ref [] in
  iter_level t ~cost (fun m -> members := m :: !members);
  List.rev !members

(* {1 The paper's printed Table 2}

   The printed row counts the functions of each level's {e circuits}
   (full point permutations) with two artifacts of the original GAP
   computation (DESIGN.md section 2): level 2 skips the subtraction of
   earlier levels, and G[0] = {identity} is never subtracted.  Both need
   the raw circuits, which the image-keyed engine never stores, so a
   private BFS over full point permutations replays the levels.

   It stops early.  Write R_k for the functions of the raw level-k
   circuits and P_k for the union of R_1 .. R_k.  Every function of
   minimal cost k lies in R_k, and every member of R_k costs at most k,
   so P_{k-1} holds every function of cost 1 .. k-1.  Once the identity
   has re-entered some R_j, P_{k-1} is the whole of G[0 .. k-1], and
   from level 3 on the printed count |R_k \ P_{k-1}| is exactly |G[k]|. *)
let paper_counts t =
  let entries = Library.entries t.library in
  let encoding = Library.encoding t.library in
  let degree = Mvl.Encoding.size encoding in
  let nb = Mvl.Encoding.num_binary encoding in
  let signatures = Array.init degree (Mvl.Encoding.mixed_signature encoding) in
  let seen = Hashtbl.create 4096 in
  let frontier = ref [ String.init degree Char.chr ] in
  Hashtbl.replace seen (List.hd !frontier) ();
  let printed = Hashtbl.create 256 in
  let identity = String.init nb Char.chr in
  let raw_level () =
    let fresh = ref [] and funcs = Hashtbl.create 256 in
    List.iter
      (fun key ->
        let sg = ref 0 in
        for b = 0 to nb - 1 do
          sg := !sg lor signatures.(Char.code key.[b])
        done;
        Array.iter
          (fun (e : Library.entry) ->
            if !sg land e.Library.purity_mask = 0 then begin
              let child =
                String.map (fun c -> Char.chr e.Library.perm_array.(Char.code c)) key
              in
              if not (Hashtbl.mem seen child) then begin
                Hashtbl.replace seen child ();
                fresh := child :: !fresh;
                let img = String.sub child 0 nb in
                if String.for_all (fun c -> Char.code c < nb) img then
                  Hashtbl.replace funcs img ()
              end
            end)
          entries)
      !frontier;
    frontier := !fresh;
    funcs
  in
  (* levels in order: each raw level extends the previous frontier *)
  let counts =
    List.rev
      (List.fold_left
         (fun acc (cost, n) ->
           if cost = 0 || (cost >= 3 && Hashtbl.mem printed identity) then (cost, n) :: acc
           else begin
             let funcs = raw_level () in
             let count = ref 0 in
             Hashtbl.iter
               (fun f () -> if cost = 2 || not (Hashtbl.mem printed f) then incr count)
               funcs;
             Hashtbl.iter (fun f () -> Hashtbl.replace printed f ()) funcs;
             (cost, !count) :: acc
           end)
         [] (counts t))
  in
  List.iter (fun (cost, n) -> Telemetry.Series.set s_paper_g ~index:cost n) counts;
  counts

let s8_counts t =
  (* the 2^n scale-up is the Theorem-2 free NOT layer: it only exists for
     coset-reduced libraries.  A full-group census already counts every
     function, so the "with NOTs" row is the census itself. *)
  if Library.coset_reduction t.library then
    let factor = 1 lsl Library.qubits t.library in
    List.map (fun (cost, n) -> (cost, factor * n)) (counts t)
  else counts t

let total_found t = List.fold_left (fun acc l -> acc + l.functions) 0 t.levels

let conj_bits = Search.conj_bits

(* A function's image vector is its func_key. *)
let find t func =
  if Reversible.Revfun.bits func <> Library.qubits t.library then None
  else
    let image = Permgroup.Perm.key (Reversible.Revfun.to_perm func) in
    match Search.locate t.search (Bytes.unsafe_of_string image) 0 with
    | -1 -> None
    | r ->
        let cost = State_arena.depth_of (Search.store t.search) (r lsr conj_bits) in
        Some { func; image; cost }

(* {1 Canonical witness reconstruction}

   Witnesses are rebuilt {e backward}: from an image of minimal depth k,
   the canonical step peels the least library gate whose removal lands on
   an image of minimal depth exactly k - 1 (respecting the
   reasonable-product constraint at the step).  The choice depends only
   on the census's image -> minimal-depth relation — which the quotient
   search preserves exactly (minimal depths are constant on orbits) — so
   plain and quotient censuses emit byte-identical cascades, and hence
   byte-identical QSYNIDX2 files.

   Members share prefixes all the way down, so each image is stepped
   once, into the {e step table}: a flat int array indexed by the image
   id [dense_handle * |group| + conjugator] (the conjugator that
   canonicalizes the image; |group| = 1 and conjugator 0 without the
   quotient), whose slot holds the canonical step's gate and its
   pre-image's id.  Stepping an image tries gates in order with an
   early-exit backward probe: apply the gate's inverse to the key bytes,
   reject at the first byte breaking the gate's purity mask, canonicalize
   and probe the arena.  Under the quotient, whether gate [g] steps an
   image down a level is decided on its representative instead:
   conjugation by the image's conjugator [c] maps [g⁻¹ v] to
   [(gate_map c g)⁻¹ (conj_c v)] and preserves depths and legality, so
   one memoized probe per (representative, gate) serves its whole orbit,
   and only the gate chosen is applied to the image itself, to find its
   pre-image.  A witness is then read from the table, last gate first.
   The table is allocated on the first witness read, so a census that
   emits none pays nothing. *)

let gate_bits = 7 (* library entry indices of every registered library *)

let steps t =
  match t.steps with
  | Some s -> s
  | None ->
      let store = Search.store t.search in
      let base = Array.make State_arena.num_shards 0 in
      for sh = 1 to State_arena.num_shards - 1 do
        base.(sh) <- base.(sh - 1) + State_arena.shard_count store (sh - 1)
      done;
      let maps =
        match Search.symmetry t.search with
        | None -> [||]
        | Some sym ->
            (* [gate_map] conjugates a gate by [q g q⁻¹]; images
               conjugate as [q⁻¹ v q], so the gate moves by the inverse *)
            Array.init (Symmetry.order sym) (fun i ->
                let m = Symmetry.gate_map sym i in
                let inv = Array.make (Array.length m) 0 in
                Array.iteri (fun g g' -> inv.(g') <- g) m;
                inv)
      in
      let order = max 1 (Array.length maps) in
      let nb = Search.key_length t.search in
      if Library.size t.library > 1 lsl gate_bits then
        invalid_arg "Fmcf: library too large for the step table's gate field";
      let s =
        {
          order;
          base;
          slots = Array.make (State_arena.size store * order) (-1);
          maps;
          legal =
            (if order = 1 then Bytes.empty
             else Bytes.make (State_arena.size store * Library.size t.library) '\000');
          v = Bytes.create nb;
          u = Bytes.create nb;
        }
      in
      t.steps <- Some s;
      s

let dense s h = s.base.(State_arena.shard_of_handle h) + State_arena.index_of_handle h
let image_id s h conj = (dense s h * s.order) + conj
let conj_mask = (1 lsl conj_bits) - 1

(* [back_probe t s e src soff ~depth trials] is {!Search.back_probe}
   into [s.u], counting each arena probe it makes. *)
let back_probe t s e src soff ~depth trials =
  let r = Search.back_probe t.search e src soff ~depth ~dst:s.u in
  if r <> -1 then incr trials;
  r

(* Under the quotient: whether gate [g] steps the image of conjugator
   [conj] on representative [h] down to [depth], probed on the
   representative once per gate it maps to. *)
let steps_down t s h conj g ~depth trials =
  let g' = s.maps.(conj).(g) in
  let i = (dense s h * Library.size t.library) + g' in
  match Bytes.get s.legal i with
  | '\001' -> true
  | '\002' -> false
  | _ ->
      let store = Search.store t.search in
      let ok =
        back_probe t s (Library.entries t.library).(g')
          (State_arena.shard_arena store (State_arena.shard_of_handle h))
          (State_arena.key_offset store h) ~depth trials
        >= 0
      in
      Bytes.set s.legal i (if ok then '\001' else '\002');
      ok

(* [fill t s ~src ~soff ~h ~conj ~cost] steps the image at
   [src.[soff ..]] — canonicalized by [conj] onto state [h], of minimal
   depth [cost] — and then its pre-images, until it reaches a stepped
   image or the identity: every stepped image's pre-image is stepped
   too, so a filled chain reads to depth 0. *)
let fill t s ~src ~soff ~h ~conj ~cost =
  let entries = Library.entries t.library in
  let nb = Search.key_length t.search in
  let images = ref 0 and trials = ref 0 in
  let h = ref h and conj = ref conj and k = ref cost in
  Bytes.blit src soff s.v 0 nb;
  while !k > 0 && s.slots.(image_id s !h !conj) < 0 do
    let depth = !k - 1 in
    let g = ref 0 and r = ref (-1) in
    while !r < 0 do
      if !g >= Array.length entries then
        invalid_arg "Fmcf: no backward step (member not from this census?)";
      if s.order = 1 || steps_down t s !h !conj !g ~depth trials then begin
        r := back_probe t s entries.(!g) s.v 0 ~depth trials;
        if !r < 0 && s.order > 1 then
          invalid_arg "Fmcf: a step of the representative does not transport to its image"
      end;
      if !r < 0 then incr g
    done;
    let pre_h = !r lsr conj_bits and pre_conj = !r land conj_mask in
    s.slots.(image_id s !h !conj) <- (image_id s pre_h pre_conj lsl gate_bits) lor !g;
    incr images;
    Bytes.blit s.u 0 s.v 0 nb;
    h := pre_h;
    conj := pre_conj;
    decr k
  done;
  Telemetry.Counter.add m_step_images !images;
  Telemetry.Counter.add m_step_trials !trials

let write_witness t ~id ~cost buf off =
  let s = steps t in
  let id = ref id in
  for j = cost - 1 downto 0 do
    let slot = s.slots.(!id) in
    Bytes.set buf (off + j) (Char.chr (slot land ((1 lsl gate_bits) - 1)));
    id := slot lsr gate_bits
  done

let iter_member_ids t f =
  let s = steps t in
  List.iter
    (fun l ->
      let cost = l.cost in
      iter_images t ~cost (fun img off h conj ->
          fill t s ~src:img ~soff:off ~h ~conj ~cost;
          f ~cost ~id:(image_id s h conj) img off))
    t.levels

let witness_gates t (member : member) =
  let nb = Search.key_length t.search in
  let image = member.image in
  let src = Bytes.unsafe_of_string image in
  let r =
    if String.length image = nb && String.for_all (fun c -> Char.code c < nb) image then
      Search.locate t.search src 0
    else -1
  in
  if r < 0 || State_arena.depth_of (Search.store t.search) (r lsr conj_bits) <> member.cost
  then invalid_arg "Fmcf.witness_gates: member not from this census";
  let s = steps t in
  let h = r lsr conj_bits and conj = r land conj_mask in
  fill t s ~src ~soff:0 ~h ~conj ~cost:member.cost;
  let id = image_id s h conj in
  let w = Bytes.create member.cost in
  write_witness t ~id ~cost:member.cost w 0;
  Bytes.unsafe_to_string w

let cascade_of_member t member =
  let entries = Library.entries t.library in
  let w = witness_gates t member in
  List.init (String.length w) (fun i -> entries.(Char.code w.[i]).Library.gate)
