(** Minimum-cost synthesis under an arbitrary {!Cost_model}.

    The paper's FMCF/MCE are breadth-first searches, correct only when
    every gate costs the same.  This module generalizes them to integer
    gate costs — the paper's "easily modified to take into account the
    precise NMR costs" claim, made concrete — with Dial's algorithm
    stepped by the census engine: each level is one {!Search.try_step}
    round of one cost bucket.  Round 0 of bucket [c] steps every level of
    each bucket [c - k] through the gates of cost [k]; round [r + 1]
    steps round [r] through the cost-0 gates.  Nothing waits between
    buckets, so the cost bound sizes nothing.  A witness comes from the
    backward step: the least gate [g] whose pre-image
    ({!Search.pre_image}) admits [g], is stored at an earlier level and
    lies in bucket [cost - cost g].  At the unit model the levels are
    the census's and the answers, cascades included, {!Mce.express}'s
    (tested). *)

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
