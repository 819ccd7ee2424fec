open Reversible

let log_src = Logs.Src.create "qsynth.bidir" ~doc:"Meet-in-the-middle MCE"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_queries = Telemetry.Counter.create "bidir.queries"
let m_joins = Telemetry.Counter.create "bidir.joins"
let m_bwd_states = Telemetry.Counter.create "bidir.backward.states"
let g_fwd_depth = Telemetry.Gauge.create "bidir.forward.depth"
let g_bwd_depth = Telemetry.Gauge.create "bidir.backward.depth"
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
  inverse_arrays : int array array;
  purity_masks : int array;
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
  let degree = Mvl.Encoding.size encoding in
  let entries = Library.entries library in
  {
    library;
    search;
    nb = Mvl.Encoding.num_binary encoding;
    signatures = Array.init degree (Mvl.Encoding.mixed_signature encoding);
    inverse_arrays = Array.map (fun e -> e.Library.inverse_array) entries;
    purity_masks = Array.map (fun e -> e.Library.purity_mask) entries;
    max_fwd_depth;
    fwd_exhausted = false;
  }

let fwd_depth t = Search.depth t.search

exception Cancelled

(* Backward states, stored in parallel growable columns: the image
   vector, the gate that leads forward out of it, the successor id, and
   the depth (suffix length to the target).  Ids are insertion order. *)
type bwd = {
  mutable vec : string array;
  mutable via : int array;
  mutable next : int array; (* successor state id, -1 at the target root *)
  mutable dep : int array;
  mutable len : int;
  seen : (string, int) Hashtbl.t; (* vector -> id *)
}

let bwd_create root =
  let b =
    {
      vec = Array.make 256 root;
      via = Array.make 256 (-1);
      next = Array.make 256 (-1);
      dep = Array.make 256 0;
      len = 1;
      seen = Hashtbl.create 1024;
    }
  in
  Hashtbl.add b.seen root 0;
  b

let bwd_push b v ~via ~next ~dep =
  if b.len = Array.length b.vec then begin
    let grow a fill =
      let a' = Array.make (2 * b.len) fill in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.vec <- grow b.vec v;
    b.via <- grow b.via 0;
    b.next <- grow b.next 0;
    b.dep <- grow b.dep 0
  end;
  let id = b.len in
  b.vec.(id) <- v;
  b.via.(id) <- via;
  b.next.(id) <- next;
  b.dep.(id) <- dep;
  b.len <- id + 1;
  Hashtbl.add b.seen v id;
  id

(* The forward-order gate suffix recorded by a backward state: its own
   via gate (applied at its vector), then its successor's, up to the
   target root. *)
let bwd_suffix entries b id =
  let rec walk id acc =
    let g = b.via.(id) in
    if g < 0 then List.rev acc else walk b.next.(id) (entries.(g).Library.gate :: acc)
  in
  walk id []

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
  let entries = Library.entries t.library in
  let ngates = Array.length t.purity_masks in
  let target = String.init nb (fun j -> Char.chr (Revfun.apply remainder j)) in
  let bwd = bwd_create target in
  let bwd_depth = ref 0 in
  let bwd_frontier = ref [ 0 ] in
  (* best join so far: (total cost, forward handle, backward id) *)
  let best = ref None in
  let consider fh bid =
    Telemetry.Counter.incr m_joins;
    let total = Search.depth_of_handle t.search fh + bwd.dep.(bid) in
    match !best with
    | Some (c, _, _) when c <= total -> ()
    | _ -> best := Some (total, fh, bid)
  in
  (* seed: the target vector may already be a forward image (a grown
     wave answers any cost <= Df query with a single lookup here) *)
  (match Search.handle_of_key t.search target with
  | Some fh -> consider fh 0
  | None -> ());
  let grow_forward () =
    match Search.try_step t.search ~cancel:should_stop with
    | None -> raise Cancelled
    | Some 0 -> t.fwd_exhausted <- true
    | Some _ ->
        Search.iter_level t.search (Search.depth t.search) (fun fh ->
            match Hashtbl.find_opt bwd.seen (Search.key_of_handle t.search fh) with
            | Some bid -> consider fh bid
            | None -> ())
  in
  let scratch = Bytes.create nb in
  let grow_backward () =
    let d = !bwd_depth + 1 in
    let next = ref [] in
    List.iter
      (fun id ->
        if should_stop () then raise Cancelled;
        let w = bwd.vec.(id) in
        for g = 0 to ngates - 1 do
          let inv = t.inverse_arrays.(g) in
          let sg = ref 0 in
          for j = 0 to nb - 1 do
            let p = Array.unsafe_get inv (Char.code (String.unsafe_get w j)) in
            Bytes.unsafe_set scratch j (Char.unsafe_chr p);
            sg := !sg lor Array.unsafe_get t.signatures p
          done;
          if !sg land t.purity_masks.(g) = 0 then begin
            let v = Bytes.to_string scratch in
            if not (Hashtbl.mem bwd.seen v) then begin
              let vid = bwd_push bwd v ~via:g ~next:id ~dep:d in
              (match Search.handle_of_key t.search v with
              | Some fh -> consider fh vid
              | None -> ());
              next := vid :: !next
            end
          end
        done)
      !bwd_frontier;
    bwd_frontier := List.rev !next;
    bwd_depth := d
  in
  let reach () =
    (if t.fwd_exhausted then infinite else Search.depth t.search)
    + if !bwd_frontier = [] then infinite else !bwd_depth
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
       let can_bwd = !bwd_frontier <> [] in
       if not (can_fwd || can_bwd) then raise Exit
       else if
         (* grow the side whose next level looks cheaper *)
         can_fwd
         && ((not can_bwd)
            || Search.frontier_size t.search <= List.length !bwd_frontier)
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
  Telemetry.Counter.add m_bwd_states bwd.len;
  Telemetry.Gauge.set_int g_fwd_depth (Search.depth t.search);
  Telemetry.Gauge.set_int g_bwd_depth !bwd_depth;
  if Telemetry.enabled () then begin
    Telemetry.Span.set_attr "fwd_depth" (Telemetry.Json.Int (Search.depth t.search));
    Telemetry.Span.set_attr "bwd_depth" (Telemetry.Json.Int !bwd_depth);
    Telemetry.Span.set_attr "bwd_states" (Telemetry.Json.Int bwd.len)
  end;
  match !best with
  | Some (cost, fh, bid) when cost <= max_cost ->
      let cascade = Search.cascade_of_handle t.search fh @ bwd_suffix entries bwd bid in
      Telemetry.Span.set_attr "cost" (Telemetry.Json.Int cost);
      Log.info (fun m ->
          m "join at cost %d (forward %d + backward %d; %d backward states)" cost
            (Search.depth_of_handle t.search fh)
            bwd.dep.(bid) bwd.len);
      Some
        {
          cascade;
          cost;
          fwd_depth = Search.depth t.search;
          bwd_depth = !bwd_depth;
          bwd_states = bwd.len;
        }
  | Some _ | None -> None
