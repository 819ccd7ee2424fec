(** Gate cost models.

    The paper's experiments charge every 2-qubit gate one unit, but its
    Section 2 notes the method "can be easily modified to take into
    account the precise NMR costs" of Lee et al. [4].  A cost model maps
    each library gate to a non-negative integer cost; {!Weighted} runs
    the synthesis under any such model. *)

type t

(** [make ~name gate_cost] wraps a cost function; every cost must be
    non-negative (checked lazily at lookup).  A cost-0 gate is free, as
    the NOT layer of the paper's Theorem 2. *)
val make : name:string -> (Gate.t -> int) -> t

val name : t -> string

(** [gate_cost t g] is the cost of one gate.
    @raise Invalid_argument when the underlying function returns a
    negative cost. *)
val gate_cost : t -> Gate.t -> int

(** [cascade_cost t cascade] sums the gate costs. *)
val cascade_cost : t -> Cascade.t -> int

(** {1 Canned models} *)

(** Every 2-qubit gate costs 1 — the paper's model. *)
val unit : t

(** Feynman gates cost 1, controlled-V/V{^ +} cost 2 — technologies with
    a native CNOT. *)
val feynman_cheap : t

(** Controlled-V/V{^ +} cost 1, Feynman costs 2 — an NMR-flavoured model
    where partial rotations are cheaper than full ones. *)
val v_cheap : t

(** The quantum cost of a classical gate: the exact cost of its cheapest
    cascade on the paper's library — NOT 0 (the free layer), CNOT and
    controlled-V{^ (+)} 1, SWAP 3, Peres and inverse Peres 4, Toffoli 5,
    Fredkin 7.  Under it {!Weighted.census} gives the quantum-cost
    spectra of the classical libraries (EXPERIMENTS.md E5). *)
val quantum : t

(** [by_kind ~name ~v ~v_dag ~feynman] assigns one cost per gate kind
    (classical kinds cost 1, their literature's gate count). *)
val by_kind : name:string -> v:int -> v_dag:int -> feynman:int -> t
