open Permgroup

type elt = {
  wire : int array; (* the wire relabeling pi *)
  perm : Perm.t; (* induced permutation q of the encoding's points *)
  qbin : int array; (* q on the binary block: qbin.(b) = q b < num_binary *)
  qinv : int array; (* q^-1 on every point *)
  gate_map : int array; (* library entry index of q^-1 . g . q *)
}

type t = {
  library : Library.t;
  num_binary : int;
  order : int;
  not_cosets : int;
  elements : elt array; (* sorted by Perm.key of [perm]; index 0 = identity *)
  fingerprint : int64;
}

let library t = t.library
let order t = t.order
let not_cosets t = t.not_cosets
let num_binary t = t.num_binary
let wire_perm t i = Array.copy t.elements.(i).wire
let fingerprint t = t.fingerprint
let gate_map t i = Array.copy t.elements.(i).gate_map

(* All permutations of [0 .. n-1], by recursive insertion; the result is
   re-sorted on the induced point permutations, so enumeration order is
   irrelevant. *)
let all_wire_perms n =
  let rec go k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun rest ->
          List.init (List.length rest + 1) (fun i ->
              let rec insert i l =
                if i = 0 then (k - 1) :: l
                else match l with [] -> [ k - 1 ] | x :: tl -> x :: insert (i - 1) tl
              in
              insert i rest))
        (go (k - 1))
  in
  List.map Array.of_list (go n)

(* [permute_wire_bits pi mask] moves bit [w] of a per-wire bitmask to bit
   [pi.(w)] — how mixed signatures and purity masks transport under the
   relabeling. *)
let permute_wire_bits pi mask =
  let out = ref 0 in
  Array.iteri (fun w w' -> if mask land (1 lsl w) <> 0 then out := !out lor (1 lsl w')) pi;
  !out

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let group_fingerprint ~qubits ~size ~num_binary elements =
  let h = ref fnv_offset in
  let feed_byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xFF))) fnv_prime
  in
  let feed_int v =
    for shift = 0 to 7 do
      feed_byte (v lsr (8 * shift))
    done
  in
  let feed_string s = String.iter (fun c -> feed_byte (Char.code c)) s in
  feed_string "qsynth-symmetry-v1";
  feed_int qubits;
  feed_int size;
  feed_int num_binary;
  feed_int (Array.length elements);
  Array.iter (fun e -> feed_string (Perm.key e.perm)) elements;
  !h

let create lib =
  let encoding = Library.encoding lib in
  let qubits = Library.qubits lib in
  let size = Mvl.Encoding.size encoding in
  let nb = Mvl.Encoding.num_binary encoding in
  let entries = Library.entries lib in
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  (* each entry's index by its point permutation, the first of equals *)
  let entry_of_perm = Hashtbl.create (Array.length entries) in
  Array.iteri
    (fun j (e : Library.entry) ->
      let key = Perm.key e.Library.perm in
      if not (Hashtbl.mem entry_of_perm key) then Hashtbl.add entry_of_perm key j)
    entries;
  (* the point permutation induced by relabeling wire w to pi.(w): the
     image pattern reads its wire pi.(w) (= old wire w) from the source *)
  let point_perm pi =
    let inv = Array.make qubits 0 in
    Array.iteri (fun w w' -> inv.(w') <- w) pi;
    Mvl.Encoding.perm_of_action encoding (fun p ->
        Mvl.Pattern.make qubits (fun w -> Mvl.Pattern.get p inv.(w)))
  in
  let build pi =
    let q = point_perm pi in
    let qa = Perm.to_array q in
    let qia = Perm.to_array (Perm.inverse q) in
    (* the relabeling must keep the binary block a block *)
    for b = 0 to nb - 1 do
      if qa.(b) >= nb then
        fail "Symmetry.create: wire relabeling does not preserve the binary block"
    done;
    (* mixed signatures must transport per-wire *)
    for p = 0 to size - 1 do
      if
        Mvl.Encoding.mixed_signature encoding qa.(p)
        <> permute_wire_bits pi (Mvl.Encoding.mixed_signature encoding p)
      then fail "Symmetry.create: mixed signatures are not wire-equivariant"
    done;
    (* the library must be closed under conjugation, with coherent purity
       masks — this is what makes quotienting the BFS sound *)
    let gate_map =
      Array.mapi
        (fun gi (e : Library.entry) ->
          let conj = Perm.conjugate e.Library.perm q in
          let j =
            match Hashtbl.find_opt entry_of_perm (Perm.key conj) with
            | Some j -> j
            | None ->
                fail "Symmetry.create: library is not closed under wire relabeling \
                      (conjugating gate %d of %d leaves the library)"
                  gi (Array.length entries)
          in
          if entries.(j).Library.purity_mask <> permute_wire_bits pi e.Library.purity_mask
          then fail "Symmetry.create: purity masks are not wire-equivariant";
          j)
        entries
    in
    { wire = pi; perm = q; qbin = Array.sub qa 0 nb; qinv = qia; gate_map }
  in
  let elements =
    all_wire_perms qubits |> List.map build
    |> List.sort (fun a b -> Perm.compare a.perm b.perm)
    |> Array.of_list
  in
  (* Schreier–Sims sanity check: the induced point permutations generate
     a group of order qubits! containing every element — i.e. the
     construction really is the symmetric group on wires acting on
     points, not an accidental subset. *)
  let chain =
    Schreier.of_generators ~degree:size (Array.to_list (Array.map (fun e -> e.perm) elements))
  in
  let expected = Array.fold_left (fun acc i -> acc * (i + 1)) 1 (Array.init qubits Fun.id) in
  if Schreier.order chain <> expected then
    fail "Symmetry.create: wire relabelings generate order %d, expected %d!"
      (Schreier.order chain) expected;
  Array.iter
    (fun e ->
      if not (Schreier.mem chain e.perm) then
        fail "Symmetry.create: element outside its own Schreier chain")
    elements;
  if not (Perm.is_identity elements.(0).perm) then
    fail "Symmetry.create: identity is not the least element";
  {
    library = lib;
    num_binary = nb;
    order = Array.length elements;
    not_cosets = 1 lsl qubits;
    elements;
    fingerprint = group_fingerprint ~qubits ~size ~num_binary:nb elements;
  }

let conjugate_into t i ~src ~soff ~dst ~doff =
  let e = t.elements.(i) in
  for b = 0 to t.num_binary - 1 do
    let x = Char.code (Bytes.get src (soff + e.qbin.(b))) in
    Bytes.set dst (doff + b) (Char.chr e.qinv.(x))
  done

let conjugate_image t i img =
  let dst = Bytes.create t.num_binary in
  conjugate_into t i ~src:(Bytes.unsafe_of_string img) ~soff:0 ~dst ~doff:0;
  Bytes.unsafe_to_string dst

(* Each conjugate is generated byte by byte against the best so far and
   decided at the first byte that differs: a larger one is abandoned
   there, a smaller one is written into [dst] from that byte on (the
   bytes before it already agree).  An equal conjugate is never written,
   so ties keep the earliest element and the conjugator is deterministic
   even when the canonical form has a non-trivial stabilizer. *)
let canon_into t ~src ~soff ~dst ~doff =
  let nb = t.num_binary in
  Bytes.blit src soff dst doff nb;
  let best = ref 0 in
  for gi = 1 to t.order - 1 do
    let e = Array.unsafe_get t.elements gi in
    let qbin = e.qbin and qinv = e.qinv in
    (* byte [b] of the conjugate is [qinv.(src.(soff + qbin.(b)))] *)
    let b = ref 0 and c = ref 0 in
    while !c = 0 && !b < nb do
      c :=
        Array.unsafe_get qinv
          (Char.code (Bytes.unsafe_get src (soff + Array.unsafe_get qbin !b)))
        - Char.code (Bytes.unsafe_get dst (doff + !b));
      incr b
    done;
    if !c < 0 then begin
      for j = !b - 1 to nb - 1 do
        Bytes.unsafe_set dst (doff + j)
          (Char.unsafe_chr
             (Array.unsafe_get qinv
                (Char.code (Bytes.unsafe_get src (soff + Array.unsafe_get qbin j)))))
      done;
      best := gi
    end
  done;
  !best

let canon t img =
  let nb = t.num_binary in
  if String.length img <> nb then invalid_arg "Symmetry.canon: image length mismatch";
  let dst = Bytes.create nb in
  let gi = canon_into t ~src:(Bytes.unsafe_of_string img) ~soff:0 ~dst ~doff:0 in
  (Bytes.unsafe_to_string dst, gi)

(* Orbit–stabilizer: the orbit has [order / |stabilizer|] images, and the
   stabilizer is tallied in place, with no image materialized. *)
let orbit_size t ~src ~soff =
  let nb = t.num_binary in
  let fixed = ref 0 in
  for gi = 0 to t.order - 1 do
    let e = Array.unsafe_get t.elements gi in
    let b = ref 0 in
    while
      !b < nb
      && e.qinv.(Char.code (Bytes.get src (soff + e.qbin.(!b))))
         = Char.code (Bytes.get src (soff + !b))
    do
      incr b
    done;
    if !b = nb then incr fixed
  done;
  t.order / !fixed
