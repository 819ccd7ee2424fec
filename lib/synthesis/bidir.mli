(** Meet-in-the-middle (bidirectional) minimum-cost synthesis.

    Grows a forward BFS wave from the identity circuit (the ordinary
    {!Search} engine) and, per query, a backward wave from the target,
    joining the two on the binary-block {e image vector} — the key of
    every forward state.  Under the
    reasonable-product constraint (Definition 1), whether a gate
    sequence may legally follow a circuit and which binary function the
    composite computes depend only on that vector, so the backward wave
    searches the same vector space as the forward one: vector [v] steps backward to every pre-image
    [inverse_array(g) v] whose signature admits [g].  Each query keeps
    its backward wave in a {!State_arena} of its own, level [d] holding
    the vectors [d] gates from the target.  Each fresh state on either
    side probes the other side's store; the first join found
    is already a {e minimum}-cost realization, because every realization
    of cost [<= fwd_depth + bwd_depth] is provably discovered (see the
    completeness argument in [bidir.ml]).

    Reachable cost therefore {e doubles} relative to the forward-only
    engine — two depth-D waves certify costs up to [2·D] — while the
    forward wave is shared across the queries of one context: once a
    query has grown it to depth [Df], a later cost [<= Df] query answers
    with a single probe of the forward store and certifies deeper costs by growing
    only the (cheap) backward side.  Because the wave a query finds
    depends on the queries before it, a shared context may return a
    different minimum-cost witness for the same target; the cost never
    changes.  [qsynth synth --bidir] builds one context per run; it is
    the deep-cost path for four wires. *)

type t
(** A reusable query context: the shared forward wave, whose arena is
    the join index.  Queries grow the forward wave lazily and never
    shrink it. *)

(** [create ?jobs ?max_fwd_depth library] builds an empty context.
    [jobs] is the forward engine's worker-domain count (default 1).
    [max_fwd_depth] (default 7) caps forward growth — the forward
    frontier multiplies by ~4.5 per level, while backward levels are
    cheap, so queries beyond the cap grow only the backward wave (which
    bounds certifiable cost by [max_fwd_depth + bwd_depth]).
    @raise Invalid_argument when [max_fwd_depth < 0] or [jobs < 1]. *)
val create : ?jobs:int -> ?max_fwd_depth:int -> Library.t -> t

(** [fwd_depth t] is the current depth of the shared forward wave. *)
val fwd_depth : t -> int

type outcome = {
  cascade : Cascade.t;  (** a minimum-cost realization of the target *)
  cost : int;  (** its length — exact, not an upper bound *)
  fwd_depth : int;  (** forward depth when the query answered *)
  bwd_depth : int;  (** backward depth when the query answered *)
  bwd_states : int;  (** backward states explored by this query *)
}

(** [synthesize ?max_cost ?lower_bound ?should_stop t remainder] finds a
    minimum-cost cascade whose binary restriction is [remainder] (which
    must fix zero — strip the NOT layer first, as in {!Mce}), or [None]
    when every realization costs more than [max_cost] (default 14).

    [lower_bound] is external knowledge that no realization cheaper than
    it exists (e.g. a {!Census_index} miss at depth [d] proves cost
    [>= d+1]); a join at exactly the bound then answers without growing
    either wave further.  [should_stop] is the cooperative cancellation
    flag of {!Search.try_step}; when it fires the query stops cleanly
    and returns [None].

    @raise Invalid_argument when [remainder] does not fix zero, its bit
    width does not match the library, or [max_cost < 0]. *)
val synthesize :
  ?max_cost:int ->
  ?lower_bound:int ->
  ?should_stop:(unit -> bool) ->
  t ->
  Reversible.Revfun.t ->
  outcome option
