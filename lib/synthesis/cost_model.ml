type t = { name : string; gate_cost : Gate.t -> int }

let make ~name gate_cost = { name; gate_cost }
let name t = t.name

let gate_cost t g =
  let c = t.gate_cost g in
  if c < 0 then invalid_arg "Cost_model.gate_cost: negative cost";
  c

let cascade_cost t cascade = List.fold_left (fun acc g -> acc + gate_cost t g) 0 cascade

let by_kind ~name ~v ~v_dag ~feynman =
  make ~name (fun g ->
      match Gate.kind g with
      | Gate.Controlled_v -> v
      | Gate.Controlled_v_dag -> v_dag
      | Gate.Feynman -> feynman
      (* classical library gates (NCT/NFT) are unit-cost in their
         literature's gate-count metric *)
      | Gate.Not | Gate.Toffoli | Gate.Swap | Gate.Fredkin | Gate.Peres | Gate.Peres_dag ->
          1)

let unit = make ~name:"unit" (fun _ -> 1)
let feynman_cheap = by_kind ~name:"feynman-cheap" ~v:2 ~v_dag:2 ~feynman:1
let v_cheap = by_kind ~name:"v-cheap" ~v:1 ~v_dag:1 ~feynman:2

(* Each kind's exact cost on the paper's library (qsynth synth): NOT is
   the free input layer of Theorem 2, SWAP is three CNOTs. *)
let quantum =
  make ~name:"quantum" (fun g ->
      match Gate.kind g with
      | Gate.Not -> 0
      | Gate.Controlled_v | Gate.Controlled_v_dag | Gate.Feynman -> 1
      | Gate.Swap -> 3
      | Gate.Peres | Gate.Peres_dag -> 4
      | Gate.Toffoli -> 5
      | Gate.Fredkin -> 7)
