(** Minimum-cost synthesis under an arbitrary {!Cost_model}.

    The paper's FMCF/MCE are breadth-first searches, correct only when
    every gate costs the same.  This module generalizes them to integer
    gate costs — the paper's "easily modified to take into account the
    precise NMR costs" claim, made concrete — with Dial's algorithm over
    the census store: states are {!Search}'s binary-image vectors in one
    {!State_arena}, and each level is one round of one cost bucket (round
    0: the states first reached at that cost through a priced gate; round
    [r + 1]: what round [r] reaches through a cost-0 gate).  Priced
    children wait in a ring of (largest gate cost + 1) buckets, so the
    cost bound sizes nothing.  A witness comes from the backward step:
    the least gate [g] whose pre-image admits [g], is stored at an
    earlier level and lies in bucket [cost - cost g].  At the unit model
    the answers, cascades included, are {!Mce.express}'s (tested). *)

(** [express ?max_cost library ~model target] is a cascade of minimal
    total model cost implementing [target] (after a free input NOT layer
    when {!Library.coset_reduction} holds; other libraries pay for their
    NOT gates and answer [not_mask = 0]), or [None] if none exists
    within [max_cost] (default 7, like the paper's cb). *)
val express :
  ?max_cost:int -> Library.t -> model:Cost_model.t -> Reversible.Revfun.t -> Mce.result option

(** [census ?max_cost library ~model] is the weighted analogue of the
    paper's Table 2: [(c, n)] pairs counting the reversible functions
    whose minimal model cost is exactly [c] at most [max_cost] (NOT-free,
    zero-fixing functions, as in Theorem 1, for the paper's library; all
    reachable functions for the classical ones).  Gates may cost 0. *)
val census : ?max_cost:int -> Library.t -> model:Cost_model.t -> (int * int) list
