(** Minimum-cost synthesis under an arbitrary {!Cost_model}.

    The paper's FMCF/MCE are breadth-first searches, correct only when
    every gate costs the same.  This module generalizes them to integer
    gate costs with a uniform-cost (Dijkstra) search over the same state
    space — the paper's "easily modified to take into account the precise
    NMR costs" claim, made concrete.  With the unit model the results
    coincide with {!Mce} and {!Fmcf} (a property the test suite checks). *)

type result = {
  target : Reversible.Revfun.t;
  not_mask : int; (** free input NOT layer, as in {!Mce} *)
  cascade : Cascade.t;
  cost : int; (** total model cost of the cascade *)
}

(** [express ?max_cost library ~model target] finds a cascade of minimal
    total cost implementing [target] (with a free input NOT layer when
    {!Library.coset_reduction} holds; other libraries pay for their NOT
    gates and answer [not_mask = 0]), or
    [None] if none exists within [max_cost] (default 7, like the paper's cb; raise with care — the state space grows geometrically in the cost bound). *)
val express :
  ?max_cost:int ->
  Library.t ->
  model:Cost_model.t ->
  Reversible.Revfun.t ->
  result option

(** [census ?max_cost library ~model] is the weighted analogue of the
    paper's Table 2: [(c, n)] pairs counting the reversible functions
    whose minimal model cost is exactly [c] at most [max_cost] (NOT-free,
    zero-fixing functions, as in Theorem 1, for the paper's library; all
    reachable functions for the classical ones).  Gates may cost 0. *)
val census :
  ?max_cost:int -> Library.t -> model:Cost_model.t -> (int * int) list
