let same_wires a b =
  Gate.target a = Gate.target b
  && Gate.control a = Gate.control b
  && Gate.control2 a = Gate.control2 b

let wires = Gate.wires

let disjoint a b = List.for_all (fun w -> not (List.mem w (wires b))) (wires a)

let is_v_kind g =
  match Gate.kind g with
  | Gate.Controlled_v | Gate.Controlled_v_dag -> true
  | _ -> false

(* The shared-wire commutation algebra below is derived for the paper's
   two-wire kinds only; classical kinds commute here just when their
   wire sets are disjoint. *)
let is_classical g =
  match Gate.kind g with
  | Gate.Not | Gate.Toffoli | Gate.Swap | Gate.Fredkin | Gate.Peres | Gate.Peres_dag ->
      true
  | Gate.Controlled_v | Gate.Controlled_v_dag | Gate.Feynman -> false

let kind_compatible a b =
  (is_v_kind a && is_v_kind b) || ((not (is_v_kind a)) && not (is_v_kind b))

let commute a b =
  disjoint a b
  || (not (is_classical a))
     && (not (is_classical b))
     && ((Gate.control a = Gate.control b && Gate.target a <> Gate.target b)
        || (Gate.target a = Gate.target b
           && Gate.control a <> Gate.control b
           && kind_compatible a b)
        || (same_wires a b && kind_compatible a b))

(* Adjacent-pair rules, sound over the unitary semantics. *)
let pair_rule a b =
  if is_classical a || is_classical b then
    (* a classical gate cancels against its adjoint (itself, but for the
       Peres pair); no other local rule applies *)
    if Gate.equal a (Gate.adjoint b) then Some [] else None
  else if not (same_wires a b) then None
  else
    match (Gate.kind a, Gate.kind b) with
    | Gate.Controlled_v, Gate.Controlled_v_dag
    | Gate.Controlled_v_dag, Gate.Controlled_v
    | Gate.Feynman, Gate.Feynman ->
        Some [] (* inverse pair cancels *)
    | Gate.Controlled_v, Gate.Controlled_v
    | Gate.Controlled_v_dag, Gate.Controlled_v_dag ->
        (* V.V = V+.V+ = NOT on the target, controlled: a Feynman gate. *)
        Some [ Gate.make Gate.Feynman ~target:(Gate.target a) ~control:(Gate.control a) ]
    | Gate.Controlled_v, Gate.Feynman
    | Gate.Controlled_v_dag, Gate.Feynman
    | Gate.Feynman, Gate.Controlled_v
    | Gate.Feynman, Gate.Controlled_v_dag ->
        (* X.V = V+.X up to global structure — not a local simplification
           we apply (it does not reduce gate count). *)
        None
    | _ -> None (* classical kinds were dispatched above *)

let cancel_once cascade =
  let rec go prefix = function
    | a :: b :: rest -> (
        match pair_rule a b with
        | Some replacement -> Some (List.rev_append prefix (replacement @ rest))
        | None -> go (a :: prefix) (b :: rest))
    | _ -> None
  in
  go [] cascade

(* One bubble pass: push commuting neighbours into gate order so that
   cancelling pairs separated by independent gates become adjacent. *)
let bubble_pass cascade =
  let changed = ref false in
  let rec go = function
    | a :: b :: rest when commute a b && Gate.compare b a < 0 ->
        changed := true;
        b :: go (a :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  let result = go cascade in
  (result, !changed)

let normalize ?(max_rounds = 64) cascade =
  let rec cancel_fully cascade =
    match cancel_once cascade with
    | Some simpler -> cancel_fully simpler
    | None -> cascade
  in
  let rec rounds cascade n =
    if n = 0 then cascade
    else
      let cascade = cancel_fully cascade in
      let reordered, changed = bubble_pass cascade in
      if changed then rounds reordered (n - 1) else cascade
  in
  rounds cascade max_rounds

let equivalent_unitary ~qubits a b =
  Qmath.Dmatrix.equal (Cascade.unitary ~qubits a) (Cascade.unitary ~qubits b)
