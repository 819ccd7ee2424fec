open Reversible

type result = {
  target : Revfun.t;
  not_mask : int;
  cascade : Cascade.t;
  cost : int;
}

type node = { cost : int; via : int; parent : string }

(* Uniform-cost search over circuit states (byte-string keys, as in
   [Search]).  Settles states in order of increasing total cost and calls
   [on_settle key cost]; the callback returns [true] to continue, [false]
   to stop.  Returns the table of best-known nodes for reconstruction
   (entries of settled states are final).  A cost-0 gate pushes its
   children into the bucket being drained, so each bucket is drained
   until it stays empty. *)
let dijkstra ~max_cost library ~model ~on_settle =
  let encoding = Library.encoding library in
  let degree = Mvl.Encoding.size encoding in
  let num_binary = Mvl.Encoding.num_binary encoding in
  let signatures = Array.init degree (Mvl.Encoding.mixed_signature encoding) in
  let entries = Library.entries library in
  let costs = Array.map (fun e -> Cost_model.gate_cost model e.Library.gate) entries in
  let best : (string, node) Hashtbl.t = Hashtbl.create (1 lsl 14) in
  let settled : (string, unit) Hashtbl.t = Hashtbl.create (1 lsl 14) in
  let buckets = Array.make (max_cost + 1) [] in
  let root = String.init degree Char.chr in
  Hashtbl.replace best root { cost = 0; via = -1; parent = "" };
  buckets.(0) <- [ root ];
  let image_signature key =
    let s = ref 0 in
    for i = 0 to num_binary - 1 do
      s := !s lor signatures.(Char.code (String.unsafe_get key i))
    done;
    !s
  in
  let compose key perm_array =
    let child = Bytes.create degree in
    for i = 0 to degree - 1 do
      Bytes.unsafe_set child i
        (Char.unsafe_chr perm_array.(Char.code (String.unsafe_get key i)))
    done;
    Bytes.unsafe_to_string child
  in
  let continue = ref true in
  let settle c key =
    match Hashtbl.find_opt best key with
    | Some node when node.cost = c && not (Hashtbl.mem settled key) ->
        Hashtbl.add settled key ();
        if not (on_settle key c) then continue := false
        else begin
          let signature = image_signature key in
          Array.iteri
            (fun via entry ->
              if Library.signature_allows ~signature entry then begin
                let child_cost = c + costs.(via) in
                if child_cost <= max_cost then begin
                  let child = compose key entry.Library.perm_array in
                  let better =
                    match Hashtbl.find_opt best child with
                    | Some existing -> child_cost < existing.cost
                    | None -> true
                  in
                  if better && not (Hashtbl.mem settled child) then begin
                    Hashtbl.replace best child { cost = child_cost; via; parent = key };
                    buckets.(child_cost) <- child :: buckets.(child_cost)
                  end
                end
              end)
            entries
        end
    | Some _ | None -> ()
  in
  let c = ref 0 in
  while !continue && !c <= max_cost do
    while !continue && buckets.(!c) <> [] do
      let bucket = buckets.(!c) in
      buckets.(!c) <- [];
      List.iter (fun key -> if !continue then settle !c key) bucket
    done;
    incr c
  done;
  best

let cascade_of best library key =
  let entries = Library.entries library in
  let rec walk key acc =
    match Hashtbl.find_opt best key with
    | None -> invalid_arg "Weighted.cascade_of: unknown key"
    | Some node ->
        if node.via < 0 then acc
        else walk node.parent (entries.(node.via).Library.gate :: acc)
  in
  walk key []

let restriction_of library key =
  let nb = Mvl.Encoding.num_binary (Library.encoding library) in
  let rec binary i = i >= nb || (Char.code key.[i] < nb && binary (i + 1)) in
  if binary 0 then
    Some
      (Revfun.of_perm ~bits:(Library.qubits library)
         (Permgroup.Perm.unsafe_of_array (Array.init nb (fun i -> Char.code key.[i]))))
  else None

let express ?(max_cost = 7) library ~model target =
  let mask, remainder = Mce.coset_split library target in
  if Revfun.is_identity remainder then
    Some { target; not_mask = mask; cascade = []; cost = 0 }
  else begin
    let witness = ref None in
    let best =
      dijkstra ~max_cost library ~model ~on_settle:(fun key cost ->
          match restriction_of library key with
          | Some f when Revfun.equal f remainder ->
              witness := Some (key, cost);
              false
          | Some _ | None -> true)
    in
    match !witness with
    | Some (key, cost) ->
        Some { target; not_mask = mask; cascade = cascade_of best library key; cost }
    | None -> None
  end

let census ?(max_cost = 7) library ~model =
  let found = Hashtbl.create 1024 in
  let counts = Hashtbl.create 16 in
  let record key cost =
    (match restriction_of library key with
    | None -> ()
    | Some f ->
        let fk = Permgroup.Perm.key (Revfun.to_perm f) in
        if not (Hashtbl.mem found fk) then begin
          Hashtbl.add found fk ();
          Hashtbl.replace counts cost
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts cost))
        end);
    true
  in
  ignore (dijkstra ~max_cost library ~model ~on_settle:record);
  Hashtbl.fold (fun cost n acc -> (cost, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
