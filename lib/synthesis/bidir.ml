open Reversible

let log_src = Logs.Src.create "qsynth.bidir" ~doc:"Meet-in-the-middle MCE"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_queries = Telemetry.Counter.create "bidir.queries"
let m_joins = Telemetry.Counter.create "bidir.joins"
let m_bwd_states = Telemetry.Counter.create "bidir.backward.states"
let g_fwd_depth = Telemetry.Gauge.create "bidir.forward.depth"
let g_bwd_depth = Telemetry.Gauge.create "bidir.backward.depth"
let g_bwd_bytes = Telemetry.Gauge.create "bidir.backward.bytes"
let h_query = Telemetry.Histogram.create "bidir.query.seconds"

(* Why both waves run over image vectors.

   Whether a gate may legally follow a circuit (Definition 1's
   reasonable-product test) and what binary function the composite
   finally computes depend only on the circuit's image of the binary
   block — [num_binary] bytes, the key of every forward {!Search} state.
   So for the purpose of completing a prefix into a realization of a
   target function, two prefixes with equal binary images are
   interchangeable, and the backward search works in the same space:
   vectors v with an edge v --g--> w when w[j] = perm_g(v[j]) and
   signature(v) land purity_mask(g) = 0 — the constraint sits on the
   vector the gate is applied at, exactly as in the forward engine.

   Exactness of the join.  Let Df be the deepest absorbed forward level
   and Db the deepest backward level.  Claim: every realization of cost
   t <= Df + Db has been discovered as a join of total <= t.  Take a
   minimal cascade g1..gt and split at a = max (0, t - Db); the prefix
   g1..ga is itself minimal (substituting a shorter realization of the
   same image would shorten the whole cascade — legality of the suffix
   only reads the binary image, which is preserved), so its image is a
   forward state at depth a <= Df.  The suffix chain makes the vector
   backward-reachable at depth <= t - a <= Db.  Both sides probe the
   other on insertion, so the pair was recorded with total <= t.
   Conversely any recorded join of total c yields a valid cascade of
   length c (prefix from the BFS, suffix legality checked edge by edge),
   and trivially c <= Df + Db.  Hence the first join found is already
   optimal, and "no join with Df + Db >= max_cost" proves there is no
   realization within the bound.  An exhausted side counts as infinite
   reach: an exhausted forward wave contains every constructible
   circuit, and an exhausted backward wave contains every legal suffix
   chain into the target — either way all solutions join. *)

type t = {
  library : Library.t;
  search : Search.t; (* the shared forward wave, grown lazily *)
  nb : int;
  signatures : int array; (* mixed signature per encoding point *)
  entries : Library.entry array;
  max_fwd_depth : int;
  mutable fwd_exhausted : bool;
}

let create ?(jobs = 1) ?(max_fwd_depth = 7) library =
  if max_fwd_depth < 0 then invalid_arg "Bidir.create: negative max_fwd_depth";
  (* The forward half is never quotiented: the join looks exact images up
     in its arena, which orbit canonicalization would break.  Bidir
     answers are therefore identical whether or not the rest of the
     pipeline runs under --quotient. *)
  let search = Search.create ~jobs library in
  let encoding = Library.encoding library in
  {
    library;
    search;
    nb = Mvl.Encoding.num_binary encoding;
    signatures =
      Array.init (Mvl.Encoding.size encoding) (Mvl.Encoding.mixed_signature encoding);
    entries = Library.entries library;
    max_fwd_depth;
    fwd_exhausted = false;
  }

let fwd_depth t = Search.depth t.search

exception Cancelled

(* The backward wave is a store of image vectors like the forward one:
   level d holds the vectors whose shortest legal suffix to the target
   has d gates, level 0 the target alone.  A state is its key; its depth
   is its level, and its suffix is derived below. *)

(* [legal t v g] is whether gate [g] may be applied at the image [v]:
   no point of [v] is mixed on a wire [g] needs pure. *)
let legal t v g =
  let mask = t.entries.(g).Library.purity_mask in
  let rec go j =
    j >= t.nb
    || (t.signatures.(Char.code (Bytes.unsafe_get v j)) land mask = 0 && go (j + 1))
  in
  go 0

(* [bwd_suffix t bwd bid] is the forward-order gate suffix from backward
   state [bid] to the target: at depth d, the least gate that is legal at
   the vector and takes it into level d - 1; then the same from there.
   The gate that inserted the vector is one such gate, so each step
   exists, and each lowers the depth. *)
let bwd_suffix t bwd bid =
  let nb = t.nb in
  let v = Bytes.create nb and w = Bytes.create nb in
  Bytes.blit
    (State_arena.shard_arena bwd (State_arena.shard_of_handle bid))
    (State_arena.key_offset bwd bid) v 0 nb;
  let gates = ref [] in
  for d = State_arena.depth_of bwd bid downto 1 do
    let rec least g =
      if g >= Array.length t.entries then
        invalid_arg "Bidir: no backward state one level closer to the target"
      else if not (legal t v g) then least (g + 1)
      else begin
        let perm = t.entries.(g).Library.perm_array in
        for j = 0 to nb - 1 do
          Bytes.unsafe_set w j (Char.unsafe_chr perm.(Char.code (Bytes.unsafe_get v j)))
        done;
        let hash = State_arena.hash_key w ~off:0 ~len:nb in
        let h = State_arena.find bwd w ~off:0 ~hash in
        if h >= 0 && State_arena.in_level bwd h ~depth:(d - 1) then g else least (g + 1)
      end
    in
    let g = least 0 in
    gates := t.entries.(g).Library.gate :: !gates;
    Bytes.blit w 0 v 0 nb
  done;
  List.rev !gates

type outcome = {
  cascade : Cascade.t;
  cost : int;
  fwd_depth : int;
  bwd_depth : int;
  bwd_states : int;
}

let no_stop () = false
let infinite = max_int asr 2

let synthesize ?(max_cost = 14) ?(lower_bound = 0) ?(should_stop = no_stop) t remainder
    =
  if Revfun.bits remainder <> Library.qubits t.library then
    invalid_arg "Bidir.synthesize: target bit width does not match the library";
  if not (Revfun.fixes_zero remainder) then
    invalid_arg "Bidir.synthesize: target must fix zero (strip the NOT layer first)";
  if max_cost < 0 then invalid_arg "Bidir.synthesize: negative max_cost";
  Telemetry.Counter.incr m_queries;
  Telemetry.Histogram.time h_query @@ fun () ->
  Telemetry.Span.with_span "bidir.query"
    ~attrs:[ ("max_cost", Telemetry.Json.Int max_cost) ]
  @@ fun () ->
  let nb = t.nb in
  let ngates = Array.length t.entries in
  let fwd = Search.store t.search in
  let target = Bytes.init nb (fun j -> Char.chr (Revfun.apply remainder j)) in
  let bwd = State_arena.create ~degree:nb in
  State_arena.open_level bwd ~reserve:1;
  let root =
    State_arena.try_insert bwd ~key:target ~off:0
      ~hash:(State_arena.hash_key target ~off:0 ~len:nb)
  in
  let bwd_depth = ref 0 in
  let bwd_frontier () = State_arena.level_size bwd ~depth:!bwd_depth in
  (* best join so far: (total cost, forward handle, backward handle) *)
  let best = ref None in
  let consider fh bid =
    Telemetry.Counter.incr m_joins;
    let total = Search.depth_of_handle t.search fh + State_arena.depth_of bwd bid in
    match !best with
    | Some (c, _, _) when c <= total -> ()
    | _ -> best := Some (total, fh, bid)
  in
  (* The forward state of the image at [v.[0 ..]], or -1. *)
  let forward_handle v =
    match Search.locate t.search v 0 with -1 -> -1 | r -> r lsr Search.conj_bits
  in
  (* seed: the target vector may already be a forward image (a grown
     wave answers any cost <= Df query with a single lookup here) *)
  (match forward_handle target with
  | -1 -> ()
  | fh -> consider fh root);
  let grow_forward () =
    match Search.try_step t.search ~cancel:should_stop with
    | None -> raise Cancelled
    | Some 0 -> t.fwd_exhausted <- true
    | Some _ ->
        Search.iter_level t.search (Search.depth t.search) (fun fh ->
            let src = State_arena.shard_arena fwd (State_arena.shard_of_handle fh) in
            let off = State_arena.key_offset fwd fh in
            let hash = State_arena.hash_key src ~off ~len:nb in
            match State_arena.find bwd src ~off ~hash with
            | -1 -> ()
            | bid -> consider fh bid)
  in
  let parent = Bytes.create nb and pre = Bytes.create nb in
  let grow_backward () =
    let d = !bwd_depth + 1 in
    State_arena.open_level bwd ~reserve:(State_arena.predicted_level bwd ~fanout:ngates);
    State_arena.iter_level bwd ~depth:(d - 1) (fun id ->
        if should_stop () then raise Cancelled;
        (* inserts may move the shard arenas: read the parent from a copy *)
        Bytes.blit
          (State_arena.shard_arena bwd (State_arena.shard_of_handle id))
          (State_arena.key_offset bwd id) parent 0 nb;
        for g = 0 to ngates - 1 do
          let inv = t.entries.(g).Library.inverse_array in
          for j = 0 to nb - 1 do
            Bytes.unsafe_set pre j
              (Char.unsafe_chr
                 (Array.unsafe_get inv (Char.code (Bytes.unsafe_get parent j))))
          done;
          if legal t pre g then
            match
              State_arena.try_insert bwd ~key:pre ~off:0
                ~hash:(State_arena.hash_key pre ~off:0 ~len:nb)
            with
            | -1 -> ()
            | vid -> ( match forward_handle pre with -1 -> () | fh -> consider fh vid)
        done);
    bwd_depth := d
  in
  let reach () =
    (if t.fwd_exhausted then infinite else Search.depth t.search)
    + if bwd_frontier () = 0 then infinite else !bwd_depth
  in
  let answered () =
    match !best with
    | Some (c, _, _) -> c <= reach () || c <= lower_bound
    | None -> reach () >= max_cost
  in
  (try
     while not (answered ()) do
       if should_stop () then raise Cancelled;
       let can_fwd =
         (not t.fwd_exhausted) && Search.depth t.search < t.max_fwd_depth
       in
       let can_bwd = bwd_frontier () > 0 in
       if not (can_fwd || can_bwd) then raise Exit
       else if
         (* grow the side whose next level looks cheaper *)
         can_fwd
         && ((not can_bwd)
            || Search.frontier_size t.search <= bwd_frontier ())
       then grow_forward ()
       else grow_backward ()
     done
   with
  | Exit -> ()
  | Cancelled ->
      Log.info (fun m ->
          m "query cancelled at forward depth %d, backward depth %d"
            (Search.depth t.search) !bwd_depth);
      best := None);
  let bwd_states = State_arena.size bwd in
  Telemetry.Counter.add m_bwd_states bwd_states;
  Telemetry.Gauge.set_int g_fwd_depth (Search.depth t.search);
  Telemetry.Gauge.set_int g_bwd_depth !bwd_depth;
  Telemetry.Gauge.set_int g_bwd_bytes (State_arena.bytes bwd);
  if Telemetry.enabled () then begin
    Telemetry.Span.set_attr "fwd_depth" (Telemetry.Json.Int (Search.depth t.search));
    Telemetry.Span.set_attr "bwd_depth" (Telemetry.Json.Int !bwd_depth);
    Telemetry.Span.set_attr "bwd_states" (Telemetry.Json.Int bwd_states)
  end;
  match !best with
  | Some (cost, fh, bid) when cost <= max_cost ->
      let cascade = Search.cascade_of_handle t.search fh @ bwd_suffix t bwd bid in
      Telemetry.Span.set_attr "cost" (Telemetry.Json.Int cost);
      Log.info (fun m ->
          m "join at cost %d (forward %d + backward %d; %d backward states)" cost
            (Search.depth_of_handle t.search fh)
            (State_arena.depth_of bwd bid) bwd_states);
      Some
        {
          cascade;
          cost;
          fwd_depth = Search.depth t.search;
          bwd_depth = !bwd_depth;
          bwd_states;
        }
  | Some _ | None -> None
