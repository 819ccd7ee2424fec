(* Buckets come up in increasing cost and a key is stored once, so a
   state's level gives its minimal cost.  No level is empty. *)

type t = {
  library : Library.t;
  costs : int array; (* each library entry's gate cost *)
  store : State_arena.t;
  level_cost : int array; (* the bucket each level belongs to *)
}

let hash key = State_arena.hash_key key ~off:0 ~len:(Bytes.length key)
let find store key = State_arena.find store key ~off:0 ~hash:(hash key)
let insert store key = State_arena.try_insert store ~key ~off:0 ~hash:(hash key) >= 0

(* [run ~max_cost library ~model ~stop] stores every state of cost at
   most [max_cost], until the ring is empty or [stop store] holds after a
   level is stored. *)
let run ~max_cost library ~model ~stop =
  let encoding = Library.encoding library in
  let klen = Mvl.Encoding.num_binary encoding in
  let mixed = Array.init (Mvl.Encoding.size encoding) (Mvl.Encoding.mixed_signature encoding) in
  let entries = Library.entries library in
  let costs = Array.map (fun e -> Cost_model.gate_cost model e.Library.gate) entries in
  let ring = Array.init (1 + Array.fold_left max 0 costs) (fun _ -> Buffer.create 0) in
  let store = State_arena.create ~degree:klen and level_cost = ref [] in
  (* Ends the newest level, of bucket [c]; an empty one is dropped. *)
  let close c added =
    if added = 0 then State_arena.abandon_level store else level_cost := c :: !level_cost;
    added > 0
  in
  (* With no free gate a state at the bound is never expanded and only
     its functions are read: a mixed child at the bound is dropped before
     it is buffered, as in a census's last level ([Search.try_step]). *)
  let free = Array.mem 0 costs in
  let parent = Bytes.create klen and child = Bytes.create klen in
  let maps_binary pa =
    let j = ref 0 in
    while !j < klen && mixed.(pa.(Char.code (Bytes.get parent !j))) = 0 do incr j done;
    !j = klen
  in
  (* [expand c d] stores level [d]'s cost-0 children and buffers its
     priced ones; returns how many it stored. *)
  let expand c d =
    let added = ref 0 in
    State_arena.iter_level store ~depth:d (fun h ->
        Bytes.blit
          (State_arena.shard_arena store (State_arena.shard_of_handle h))
          (State_arena.key_offset store h) parent 0 klen;
        let signature = Bytes.fold_left (fun s p -> s lor mixed.(Char.code p)) 0 parent in
        for g = 0 to Array.length entries - 1 do
          let e = entries.(g) and cost = c + costs.(g) in
          if
            Library.signature_allows ~signature e
            && (cost < max_cost || (cost = max_cost && (free || maps_binary e.perm_array)))
          then begin
            for j = 0 to klen - 1 do
              Bytes.unsafe_set child j
                (Char.unsafe_chr e.perm_array.(Char.code (Bytes.unsafe_get parent j)))
            done;
            if cost = c then (if insert store child then incr added)
            else if find store child < 0 then
              Buffer.add_bytes ring.(cost mod Array.length ring) child
          end
        done);
    !added
  in
  let rec rounds c =
    if not (stop store) then (
      State_arena.open_level store ~reserve:0;
      if close c (expand c (State_arena.levels store - 2)) then rounds c)
  in
  Buffer.add_bytes ring.(0) (Bytes.init klen Char.chr);
  let c = ref 0 in
  while Array.exists (fun b -> Buffer.length b > 0) ring && not (stop store) do
    let b = ring.(!c mod Array.length ring) in
    let n = Buffer.length b / klen and added = ref 0 in
    State_arena.open_level store ~reserve:n;
    for i = 0 to n - 1 do
      Buffer.blit b (i * klen) child 0 klen;
      if insert store child then incr added
    done;
    Buffer.reset b;
    if close !c !added then rounds !c;
    incr c
  done;
  { library; costs; store; level_cost = Array.of_list (List.rev !level_cost) }

(* The backward step: from a state at level d, the least gate g whose
   pre-image admits g, is stored at an earlier level and lies in bucket
   cost(d) - cost(g).  The earlier level ends the walk across cost-0
   gates; at the unit model it is [Search]'s step. *)
let witness t h =
  let entries = Library.entries t.library and klen = State_arena.degree t.store in
  let mixed = Mvl.Encoding.mixed_signature (Library.encoding t.library) in
  let v = Bytes.of_string (State_arena.key_of t.store h) and u = Bytes.create klen in
  let pre_image (e : Library.entry) =
    let admits = ref true in
    for j = 0 to klen - 1 do
      let x = e.inverse_array.(Char.code (Bytes.get v j)) in
      Bytes.set u j (Char.chr x);
      if mixed x land e.purity_mask <> 0 then admits := false
    done;
    if !admits then find t.store u else -1
  in
  let rec walk d acc =
    if d = 0 then acc
    else
      let cost = t.level_cost.(d) in
      let rec back g =
        if g = Array.length entries then invalid_arg "Weighted: no backward step";
        let h' = if t.costs.(g) <= cost then pre_image entries.(g) else -1 in
        let d' = if h' < 0 then d else State_arena.depth_of t.store h' in
        if d' < d && t.level_cost.(d') = cost - t.costs.(g) then (g, d') else back (g + 1)
      in
      let g, d' = back 0 in
      Bytes.blit u 0 v 0 klen;
      walk d' (entries.(g).gate :: acc)
  in
  walk (State_arena.depth_of t.store h) []

let express ?(max_cost = 7) library ~model target =
  let not_mask, remainder = Mce.coset_split library target in
  let key = Bytes.of_string (Permgroup.Perm.key (Reversible.Revfun.to_perm remainder)) in
  let t = run ~max_cost library ~model ~stop:(fun store -> find store key >= 0) in
  match find t.store key with
  | -1 -> None
  | h ->
      let cost = t.level_cost.(State_arena.depth_of t.store h) in
      Some { Mce.target; not_mask; cascade = witness t h; cost }

(* Levels come in bucket order, so one bucket's levels are adjacent. *)
let census ?(max_cost = 7) library ~model =
  let t = run ~max_cost library ~model ~stop:(fun _ -> false) in
  let klen = State_arena.degree t.store in
  let counts = ref [] in
  Array.iteri
    (fun d c ->
      let n = ref 0 in
      State_arena.iter_level t.store ~depth:d (fun h ->
          if String.for_all (fun p -> Char.code p < klen) (State_arena.key_of t.store h) then
            incr n);
      counts :=
        match !counts with
        | (c', n') :: rest when c' = c -> (c, n' + !n) :: rest
        | rest -> (c, !n) :: rest)
    t.level_cost;
  List.rev (List.filter (fun (_, n) -> n > 0) !counts)
