(* Buckets come up in increasing cost and a key is stored once, so a
   state's level gives its minimal cost.  No level is empty. *)

type t = {
  costs : int array; (* each library entry's gate cost *)
  search : Search.t;
  level_cost : int array; (* the bucket each level belongs to *)
}

(* [run ~max_cost library ~model ~stop] stores every state of cost at
   most [max_cost], until no stored level reaches a later bucket or
   [stop search] holds after a level is stored. *)
let run ~max_cost library ~model ~stop =
  let cost e = Cost_model.gate_cost model e.Library.gate in
  let costs = Array.map cost (Library.entries library) in
  let top = Array.fold_left max 0 costs in
  (* [priced.(k)]: the entries of cost [k], in entry order *)
  let entries = List.init (Array.length costs) Fun.id in
  let priced =
    Array.init (top + 1) (fun k -> Array.of_list (List.filter (fun g -> costs.(g) = k) entries))
  in
  let free = priced.(0) in
  let search = Search.create library and level_cost = ref [ 0 ] (* newest first *) in
  (* Steps bucket [c]'s next level from [sources] and drops it when it
     is empty.  With no free gate nothing at the bound is expanded and
     only its functions are read, so that level is stepped with bound 0. *)
  let step c sources =
    let bound = if c = max_cost && free = [||] then Some 0 else None in
    match Search.try_step ?bound ~sources search ~cancel:(fun () -> false) with
    | Some 0 -> State_arena.abandon_level (Search.store search); false
    | _ -> level_cost := c :: !level_cost; true
  in
  (* round [r + 1] of bucket [c]: round [r] through the free gates *)
  let rec rounds c =
    if free <> [||] && not (stop search) && step c [ (Search.depth search, free) ] then rounds c
  in
  rounds 0;
  let c = ref 1 in
  while !c <= max_cost && List.hd !level_cost + top >= !c && not (stop search) do
    (* round 0: every level of bucket [c - k] through the gates of cost [k] *)
    let levels = Array.of_list (List.rev !level_cost) in
    let from d =
      let k = !c - levels.(d) in
      if k <= top && priced.(k) <> [||] then Some (d, priced.(k)) else None
    in
    let sources = List.filter_map from (List.init (Array.length levels) Fun.id) in
    if sources <> [] && step !c sources then rounds !c;
    incr c
  done;
  { costs; search; level_cost = Array.of_list (List.rev !level_cost) }

(* The backward step: from a state at level d, the least gate g whose
   pre-image admits g, is stored at an earlier level and lies in bucket
   cost(d) - cost(g).  The earlier level ends the walk across cost-0
   gates; at the unit model it is [Search]'s step. *)
let witness t h =
  let entries = Library.entries (Search.library t.search) and klen = Search.key_length t.search in
  let v = Bytes.of_string (Search.key_of_handle t.search h) and u = Bytes.create klen in
  let rec walk d acc =
    if d = 0 then acc
    else
      let cost = t.level_cost.(d) in
      let rec back g =
        if g = Array.length entries then invalid_arg "Weighted: no backward step";
        let r =
          if t.costs.(g) > cost then -1 else Search.pre_image t.search entries.(g) v 0 ~dst:u
        in
        let d' = if r < 0 then d else Search.depth_of_handle t.search (r lsr Search.conj_bits) in
        if d' < d && t.level_cost.(d') = cost - t.costs.(g) then (g, d') else back (g + 1)
      in
      let g, d' = back 0 in
      Bytes.blit u 0 v 0 klen;
      walk d' (entries.(g).gate :: acc)
  in
  walk (Search.depth_of_handle t.search h) []

let express ?(max_cost = 7) library ~model target =
  let not_mask, remainder = Mce.coset_split library target in
  let key = Permgroup.Perm.key (Reversible.Revfun.to_perm remainder) in
  let t = run ~max_cost library ~model ~stop:(fun s -> Search.handle_of_key s key <> None) in
  Option.map
    (fun h ->
      let cost = t.level_cost.(Search.depth_of_handle t.search h) in
      { Mce.target; not_mask; cascade = witness t h; cost })
    (Search.handle_of_key t.search key)

let census ?(max_cost = 7) library ~model =
  let t = run ~max_cost library ~model ~stop:(fun _ -> false) in
  let n = Array.make (Array.fold_left max 0 t.level_cost + 1) 0 in
  let count c _ _ _ = n.(c) <- n.(c) + 1 in
  Array.iteri (fun d c -> Search.iter_functions t.search ~depth:d (count c)) t.level_cost;
  List.filter (fun (_, n) -> n > 0) (List.mapi (fun c n -> (c, n)) (Array.to_list n))
