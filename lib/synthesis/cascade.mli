(** Gate cascades: quantum circuits as sequences of library gates.

    The head of the list is applied {e first}, matching the paper's
    left-to-right products (g = d1 * d2 * ... * dt) and its figures,
    which are read left to right. *)

type t = Gate.t list

(** [cost cascade] is the paper's quantum cost: the number of 2-qubit
    gates (every library gate counts 1). *)
val cost : t -> int

(** [adjoint cascade] is the true Hermitian adjoint: each gate adjointed
    {e and} the order reversed; implements the inverse function. *)
val adjoint : t -> t

(** [swap_v_dag cascade] swaps every V with V{^ +} {e keeping the order} —
    the transformation the paper applies to obtain the second Peres
    implementation (Figure 8) and the (b)/(d) Toffoli variants. *)
val swap_v_dag : t -> t

(** [perm_of library cascade] is the composed action on the encoding's
    points (ignoring the reasonable-product constraint).
    @raise Not_found if a gate is not in the library. *)
val perm_of : Library.t -> t -> Permgroup.Perm.t

(** [is_reasonable library cascade] checks Definition 1 along the whole
    cascade: starting from the identity, every gate's purity wires are
    binary on the image of the binary block when the gate is applied. *)
val is_reasonable : Library.t -> t -> bool

(** [restriction library cascade] is the reversible function computed on
    binary inputs, when the cascade maps binary inputs to binary outputs;
    [None] otherwise. *)
val restriction : Library.t -> t -> Reversible.Revfun.t option

(** [matrices ~qubits cascade] is the list of exact gate unitaries, in
    application order. *)
val matrices : qubits:int -> t -> Qmath.Dmatrix.t list

(** [unitary ~qubits cascade] is the composed exact unitary. *)
val unitary : qubits:int -> t -> Qmath.Dmatrix.t

(** [to_string cascade] renders e.g. ["VCB*FBA*VCA*V+CB"]; the identity
    cascade renders ["()"].  [of_string] parses the same format (also
    accepting spaces around ['*']).
    @raise Invalid_argument on malformed input. *)
val to_string : t -> string

(** [write b cascade] appends [to_string cascade] to [b]. *)
val write : Buffer.t -> t -> unit

val of_string : qubits:int -> string -> t
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
