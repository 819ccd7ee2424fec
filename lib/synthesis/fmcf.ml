let log_src = Logs.Src.create "qsynth.fmcf" ~doc:"FMCF census (Table 2)"

module Log = (val Logs.src_log log_src : Logs.LOG)

let s_frontier = Telemetry.Series.create "fmcf.level.frontier"
let s_pre_g = Telemetry.Series.create "fmcf.level.pre_g"
let s_g = Telemetry.Series.create "fmcf.level.g"
let s_paper_g = Telemetry.Series.create "fmcf.level.paper_g"
let m_dedupe_level = Telemetry.Counter.create "fmcf.dedupe.level_hits"
let m_dedupe_global = Telemetry.Counter.create "fmcf.dedupe.global_hits"
let h_restrict = Telemetry.Histogram.create "fmcf.restriction.seconds"
let m_budget_states = Telemetry.Counter.create "search.budget.states.hit"
let m_budget_mem = Telemetry.Counter.create "search.budget.mem.hit"
let m_timeout = Telemetry.Counter.create "search.timeout.hit"
let m_cancelled = Telemetry.Counter.create "search.cancelled"

type member = { func : Reversible.Revfun.t; witness : string; cost : int }

type level = {
  cost : int;
  frontier_size : int;
  members : member list;
  paper_count : int;
}

type t = {
  library : Library.t;
  search : Search.t;
  symmetry : Symmetry.t option; (* Some: the search ran quotiented *)
  levels : level list;
  index : (string, member) Hashtbl.t; (* func_key -> member, built at census time *)
  mutable image_oracle : (string, int) Hashtbl.t option;
      (* raw mode: lazily built binary-image -> minimal-depth table, the
         witness-reconstruction oracle (quotient mode reads the arena) *)
}

type stop_reason = Completed | Budget_states | Budget_mem | Timed_out | Cancelled

let describe_stop = function
  | Completed -> "completed"
  | Budget_states -> "state budget exhausted (--max-states)"
  | Budget_mem -> "memory budget exhausted (--max-mem)"
  | Timed_out -> "wall-clock budget exhausted (--timeout)"
  | Cancelled -> "cancelled (SIGINT/SIGTERM)"

let func_key func = Permgroup.Perm.key (Reversible.Revfun.to_perm func)

(* Shared census state threaded through level processing; deterministic
   given the frontier sequence, so replaying the frontiers of a restored
   arena reproduces the levels of the interrupted run exactly. *)
type acc = {
  found : (string, unit) Hashtbl.t;
  paper_found : (string, unit) Hashtbl.t;
  idx : (string, member) Hashtbl.t;
}

let collect_restrictions ~quotient search acc ~cost frontier members member_count
    level_hits global_hits level_restrictions =
  (* Record one member per newly discovered function.  A quotiented
     frontier holds one representative per orbit, so the representative's
     whole orbit of image vectors is re-expanded here: conjugate images
     are distinct functions of the same minimal cost (minimal depths are
     constant on orbits), which restores exactly the raw census's G[k]
     sets — probe-verified byte-for-byte at depth 7. *)
  let record func witness =
    let fk = func_key func in
    if not (Hashtbl.mem level_restrictions fk) then begin
      Hashtbl.add level_restrictions fk witness;
      if not (Hashtbl.mem acc.found fk) then begin
        Hashtbl.add acc.found fk ();
        let member = { func; witness; cost } in
        Hashtbl.add acc.idx fk member;
        members := member :: !members;
        incr member_count
      end
      else incr global_hits
    end
    else incr level_hits
  in
  let bits = Library.qubits (Search.library search) in
  Array.iter
    (fun h ->
      match Search.restriction_of_handle search h with
      | None -> ()
      | Some func -> (
          match quotient with
          | None -> record func (Search.key_of_handle search h)
          | Some sym ->
              let img = Search.key_of_handle search h in
              List.iter
                (fun img' ->
                  let func' =
                    Reversible.Revfun.of_perm ~bits
                      (Permgroup.Perm.unsafe_of_array
                         (Array.init (String.length img') (fun i ->
                              Char.code img'.[i])))
                  in
                  record func' img')
                (Symmetry.orbit_images sym img)))
    frontier

let process_level search acc ~cost frontier =
  Telemetry.Span.with_span "fmcf.level" ~attrs:[ ("cost", Telemetry.Json.Int cost) ]
  @@ fun () ->
  let frontier_size = Array.length frontier in
  let members = ref [] in
  let member_count = ref 0 in
  let level_hits = ref 0 and global_hits = ref 0 in
  let level_restrictions = Hashtbl.create 256 in
  Telemetry.Histogram.time h_restrict (fun () ->
      collect_restrictions ~quotient:(Search.symmetry search) search acc ~cost frontier
        members member_count level_hits global_hits level_restrictions);
  (* Paper-variant count: level 2 skips subtraction of earlier levels;
     other levels subtract everything recorded so far (which never
     includes the identity, G[0]). *)
  let paper_count = ref 0 in
  Hashtbl.iter
    (fun fk _ ->
      if cost = 2 || not (Hashtbl.mem acc.paper_found fk) then incr paper_count)
    level_restrictions;
  Hashtbl.iter
    (fun fk _ ->
      if not (Hashtbl.mem acc.paper_found fk) then Hashtbl.add acc.paper_found fk ())
    level_restrictions;
  Telemetry.Series.set s_frontier ~index:cost frontier_size;
  Telemetry.Series.set s_pre_g ~index:cost (Hashtbl.length level_restrictions);
  Telemetry.Series.set s_g ~index:cost !member_count;
  Telemetry.Series.set s_paper_g ~index:cost !paper_count;
  Telemetry.Counter.add m_dedupe_level !level_hits;
  Telemetry.Counter.add m_dedupe_global !global_hits;
  Log.info (fun m ->
      m "level %d: frontier %d, pre-G %d, |G[%d]| = %d (dedupe: %d in-level, %d global)"
        cost frontier_size
        (Hashtbl.length level_restrictions)
        cost !member_count !level_hits !global_hits);
  { cost; frontier_size; members = List.rev !members; paper_count = !paper_count }

let level_zero search acc library =
  let identity_func = Reversible.Revfun.identity ~bits:(Library.qubits library) in
  (* G[0] = {identity}; the paper's variant never subtracts it. *)
  let root = Search.key_of_handle search (Search.handles_at_depth search 0).(0) in
  let identity_member = { func = identity_func; witness = root; cost = 0 } in
  Hashtbl.add acc.found (func_key identity_func) ();
  Hashtbl.add acc.idx (func_key identity_func) identity_member;
  Telemetry.Series.set s_frontier ~index:0 1;
  Telemetry.Series.set s_pre_g ~index:0 1;
  Telemetry.Series.set s_g ~index:0 1;
  Telemetry.Series.set s_paper_g ~index:0 1;
  { cost = 0; frontier_size = 1; members = [ identity_member ]; paper_count = 1 }

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
  let acc =
    { found = Hashtbl.create 4096; paper_found = Hashtbl.create 4096;
      idx = Hashtbl.create 4096 }
  in
  let levels = ref [ level_zero search acc library ] in
  (* Replay the completed levels of a restored arena through the same
     processing path: the reconstructed frontiers are byte-identical to
     the original run's (Search.handles_at_depth returns canonical
     order), so the replayed members, witnesses and counts are too. *)
  for cost = 1 to Search.depth search do
    levels := process_level search acc ~cost (Search.handles_at_depth search cost)
              :: !levels
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
          (* The hook fires before the level's members are extracted so an
             asynchronous checkpoint write can overlap that processing. *)
          (match on_level with None -> () | Some f -> f search ~cost);
          levels := process_level search acc ~cost fresh :: !levels
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
  ( { library; search; symmetry = Search.symmetry search; levels = List.rev !levels;
      index = acc.idx; image_oracle = None },
    reason )

let run ?max_depth ?jobs ?quotient library =
  fst (run_guarded ?max_depth ?jobs ?quotient library)

let levels t = t.levels
let search t = t.search
let quotiented t = t.symmetry <> None

(* The paper-variant numbers model duplicate {e candidates} inside a
   level (V.V re-deriving a CNOT at level 2), and the quotient arena
   keeps one state per orbit, so those duplicates never re-materialize:
   the variant is only reproducible from a raw run. *)
let paper_counts_exact t = t.symmetry = None
let depth t = Search.depth t.search

let iter_members t f =
  List.iter (fun level -> List.iter (f ~cost:level.cost) level.members) t.levels
let counts t = List.map (fun l -> (l.cost, List.length l.members)) t.levels
let paper_counts t = List.map (fun l -> (l.cost, l.paper_count)) t.levels

let s8_counts t =
  (* the 2^n scale-up is the Theorem-2 free NOT layer: it only exists for
     coset-reduced libraries.  A full-group census already counts every
     function, so the "with NOTs" row is the census itself. *)
  if Library.coset_reduction t.library then
    let factor = 1 lsl Library.qubits t.library in
    List.map (fun (cost, n) -> (cost, factor * n)) (counts t)
  else counts t

let total_found t =
  List.fold_left (fun acc l -> acc + List.length l.members) 0 t.levels

let find t func = Hashtbl.find_opt t.index (func_key func)

(* {1 Canonical witness reconstruction}

   [cascade_of_member] rebuilds witnesses {e backward}: from the member's
   function image, greedily peel the lexicographically least library gate
   whose removal steps to an image of minimal depth exactly one lower
   (respecting the reasonable-product constraint at the step).  The
   choice depends only on the census's image -> minimal-depth relation —
   which the quotient search preserves exactly (minimal depths are
   constant on orbits) — so raw and quotient censuses emit byte-identical
   cascades, and hence byte-identical QSYNIDX2 files. *)

let image_min_depth t =
  match t.symmetry with
  | Some sym ->
      fun img -> Search.depth_of_key t.search (fst (Symmetry.canon sym img))
  | None -> (
      match t.image_oracle with
      | Some tbl -> Hashtbl.find_opt tbl
      | None ->
          let tbl = Hashtbl.create 4096 in
          for d = 0 to Search.depth t.search do
            Array.iter
              (fun h ->
                let img = Search.binary_image_of_handle t.search h in
                if not (Hashtbl.mem tbl img) then Hashtbl.add tbl img d)
              (Search.handles_at_depth t.search d)
          done;
          t.image_oracle <- Some tbl;
          Hashtbl.find_opt tbl)

let cascade_of_member t (member : member) =
  if member.cost = 0 then []
  else begin
    let entries = Library.entries t.library in
    let encoding = Library.encoding t.library in
    let nb = Mvl.Encoding.num_binary encoding in
    let signatures =
      Array.init (Mvl.Encoding.size encoding) (Mvl.Encoding.mixed_signature encoding)
    in
    let depth_of = image_min_depth t in
    let fp = Permgroup.Perm.to_array (Reversible.Revfun.to_perm member.func) in
    let v = Bytes.init nb (fun b -> Char.chr fp.(b)) in
    let u = Bytes.create nb in
    let acc = ref [] in
    for k = member.cost downto 1 do
      let rec find g =
        if g >= Array.length entries then
          invalid_arg
            "Fmcf.cascade_of_member: no backward step (member not from this census?)"
        else begin
          let e = entries.(g) in
          let inv = e.Library.inverse_array in
          let sg = ref 0 in
          for b = 0 to nb - 1 do
            let x = inv.(Char.code (Bytes.get v b)) in
            Bytes.set u b (Char.chr x);
            sg := !sg lor signatures.(x)
          done;
          if
            !sg land e.Library.purity_mask = 0
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
  end
let members_at t ~cost =
  match List.find_opt (fun l -> l.cost = cost) t.levels with
  | Some l -> l.members
  | None -> []
