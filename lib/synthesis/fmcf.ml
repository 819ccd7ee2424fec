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

type member = { func : Reversible.Revfun.t; image : string; cost : int }

type level = { cost : int; frontier_size : int; functions : int }

type t = {
  library : Library.t;
  search : Search.t;
  levels : level list;
  witnesses : (string, string) Hashtbl.t;
      (* image -> canonical witness (library entry indices), filled on demand *)
  signatures : int array; (* mixed signature of each encoding point *)
  canon_buf : Bytes.t; (* canonical-image scratch of depth_of_image *)
}

type stop_reason = Completed | Budget_states | Budget_mem | Timed_out | Cancelled

let describe_stop = function
  | Completed -> "completed"
  | Budget_states -> "state budget exhausted (--max-states)"
  | Budget_mem -> "memory budget exhausted (--max-mem)"
  | Timed_out -> "wall-clock budget exhausted (--timeout)"
  | Cancelled -> "cancelled (SIGINT/SIGTERM)"

(* A state computes a function when it maps the binary block onto itself:
   when no image point carries a mixed value, i.e. its signature is 0. *)
let is_function store h = State_arena.signature_of store h = 0

(* |G[k]|: keys are unique across the arena, so each function state of
   a level is a distinct function of that minimal cost.  A quotiented
   state stands for its orbit: conjugates are distinct functions of the
   same minimal cost, and distinct representatives' orbits are disjoint. *)
let level_functions search frontier =
  let store = Search.store search in
  let weight h =
    match Search.symmetry search with
    | None -> 1
    | Some sym ->
        Symmetry.orbit_size sym
          ~src:(State_arena.shard_arena store (State_arena.shard_of_handle h))
          ~soff:(State_arena.key_offset store h)
  in
  Array.fold_left (fun n h -> if is_function store h then n + weight h else n) 0 frontier

let process_level search ~cost frontier =
  Telemetry.Span.with_span "fmcf.level" ~attrs:[ ("cost", Telemetry.Json.Int cost) ]
  @@ fun () ->
  let frontier_size = Array.length frontier in
  let functions =
    Telemetry.Histogram.time h_restrict (fun () -> level_functions search frontier)
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
    levels := process_level search ~cost (Search.handles_at_depth search cost) :: !levels
  done;
  let deadline = Option.map (fun s -> started +. s) timeout in
  let deadline_passed () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () >= d
  in
  let cancel () = should_stop () || deadline_passed () in
  let over_states () =
    match max_states with None -> false | Some n -> Search.size search >= n
  in
  let over_mem () =
    match max_mem with None -> false | Some n -> Search.arena_bytes search >= n
  in
  let stop = ref None in
  while !stop = None && Search.depth search < max_depth do
    if should_stop () then stop := Some Cancelled
    else if deadline_passed () then stop := Some Timed_out
    else if over_states () then stop := Some Budget_states
    else if over_mem () then stop := Some Budget_mem
    else
      match Search.try_step search ~cancel with
      | None ->
          (* mid-level abandon: the engine rolled back to the last
             complete level; decide which guard fired *)
          stop := Some (if should_stop () then Cancelled else Timed_out)
      | Some fresh ->
          let cost = Search.depth search in
          (* The hook fires before the level is counted so an
             asynchronous checkpoint write can overlap that processing. *)
          (match on_level with None -> () | Some f -> f search ~cost);
          levels := process_level search ~cost fresh :: !levels
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
  let encoding = Library.encoding library in
  ( {
      library;
      search;
      levels = List.rev !levels;
      witnesses = Hashtbl.create 4096;
      signatures =
        Array.init (Mvl.Encoding.size encoding) (Mvl.Encoding.mixed_signature encoding);
      canon_buf = Bytes.create (Mvl.Encoding.num_binary encoding);
    },
    reason )

let run ?max_depth ?jobs ?quotient library =
  fst (run_guarded ?max_depth ?jobs ?quotient library)

let levels t = t.levels
let search t = t.search
let quotiented t = Search.symmetry t.search <> None
let depth t = Search.depth t.search

let counts t = List.map (fun l -> (l.cost, l.functions)) t.levels

(* A level's members, streamed from the arena: its function states in
   canonical frontier order, each quotiented one expanded into its orbit. *)
let iter_level t ~cost f =
  let store = Search.store t.search in
  let emit image =
    Option.iter
      (fun func -> f { func; image; cost })
      (Search.restriction_of_key t.search image)
  in
  Array.iter
    (fun h ->
      if is_function store h then
        let image = Search.key_of_handle t.search h in
        match Search.symmetry t.search with
        | None -> emit image
        | Some sym -> List.iter emit (Symmetry.orbit_images sym image))
    (Search.handles_at_depth t.search cost)

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

(* The census depth of an image, canonicalized under the quotient (minimal
   depths are constant on orbits): a function's minimal cost. *)
let depth_of_image t img =
  match Search.symmetry t.search with
  | Some sym ->
      ignore
        (Symmetry.canon_into sym ~src:(Bytes.unsafe_of_string img) ~soff:0
           ~dst:t.canon_buf ~doff:0);
      Search.depth_of_key t.search (Bytes.unsafe_to_string t.canon_buf)
  | None -> Search.depth_of_key t.search img

(* A function's image vector is its func_key. *)
let find t func =
  if Reversible.Revfun.bits func <> Library.qubits t.library then None
  else
    let image = Permgroup.Perm.key (Reversible.Revfun.to_perm func) in
    Option.map (fun cost -> { func; image; cost }) (depth_of_image t image)

(* {1 Canonical witness reconstruction}

   Witnesses are rebuilt {e backward}: from an image of minimal depth k,
   the canonical step peels the lexicographically least library gate
   whose removal lands on an image of minimal depth exactly k - 1
   (respecting the reasonable-product constraint at the step).  The
   choice depends only on the census's image -> minimal-depth relation —
   which the quotient search preserves exactly (minimal depths are
   constant on orbits) — so plain and quotient censuses emit
   byte-identical cascades, and hence byte-identical QSYNIDX2 files.

   Members share prefixes all the way down, so each image's witness is
   computed once and kept in [t.witnesses]: a whole census costs one
   step search per distinct image its witnesses pass through. *)

let witness_gates t (member : member) =
  let entries = Library.entries t.library in
  let nb = Search.key_length t.search in
  (* [step v k 0] is the canonical step's gate, its pre-image left in [u] *)
  let u = Bytes.create nb in
  let rec step v k g =
    if g >= Array.length entries then
      invalid_arg "Fmcf.witness_gates: no backward step (member not from this census?)";
    let e = entries.(g) in
    let sg = ref 0 in
    for b = 0 to nb - 1 do
      let x = e.Library.inverse_array.(Char.code v.[b]) in
      Bytes.set u b (Char.chr x);
      sg := !sg lor t.signatures.(x)
    done;
    (* [u] is only read by the probe, never kept *)
    if !sg land e.Library.purity_mask = 0
       && depth_of_image t (Bytes.unsafe_to_string u) = Some (k - 1)
    then g
    else step v k (g + 1)
  in
  let rec witness v k =
    if k = 0 then ""
    else
      match Hashtbl.find_opt t.witnesses v with
      | Some w -> w
      | None ->
          let g = step v k 0 in
          let w = witness (Bytes.to_string u) (k - 1) ^ String.make 1 (Char.chr g) in
          Hashtbl.add t.witnesses v w;
          w
  in
  witness member.image member.cost

let cascade_of_member t member =
  let entries = Library.entries t.library in
  let w = witness_gates t member in
  List.init (String.length w) (fun i -> entries.(Char.code w.[i]).Library.gate)
