(** Elementary gates on an n-qubit circuit.

    The paper's quantum library has three kinds — controlled-V,
    controlled-V{^ +} and Feynman (CNOT) — following the paper's
    subscript convention: the {e first} wire of the name is the
    data/target wire and the {e second} is the control; V_BA has data B
    and control A, F_CA XORs A into C.

    NOT gates are deliberately absent from the paper's library: it
    treats them as a free input-side layer (Theorem 2), handled by
    {!Mce}.

    For the pluggable classical census universes ({!Library.Registry})
    six {e classical} kinds exist as well: NOT, Toffoli, SWAP, Fredkin
    (controlled swap), Peres and inverse Peres.  Together with Feynman
    they assemble the NC, NCT, NFT and NCP gate sets of the
    reversible-synthesis literature (Shende et al.; Younes,
    arXiv:1304.5804; the paper's own Peres-family library).  Classical gates are basis
    permutations; they are meant for the {e binary} pattern encoding
    ({!Mvl.Encoding.make_binary}) — on the paper's mixed encoding a bare
    NOT leaves the permutable domain and the library compile rejects
    it. *)

type kind =
  | Controlled_v
  | Controlled_v_dag
  | Feynman
  | Not  (** Pauli X on one wire; no control *)
  | Toffoli  (** CCX: two controls, one target *)
  | Swap  (** exchanges two wires; no control *)
  | Fredkin  (** CSWAP: one control, swaps two wires *)
  | Peres
      (** Peres[abc]: P = a, Q = b XOR a, R = c XOR ab — the Toffoli with
          controls a, b and target c, then the CNOT from a into b *)
  | Peres_dag  (** inverse Peres: the CNOT from a into b, then the Toffoli *)

type t = private {
  kind : kind;
  target : int;
  control : int;  (** -1 for the control-free NOT *)
  control2 : int;
      (** third wire of a 3-wire gate (second Toffoli control, second
          swapped wire of a Fredkin); -1 elsewhere *)
}

(** [make kind ~target ~control] builds a 2-wire gate (controlled-V,
    controlled-V{^ +}, Feynman or Swap; Swap is canonicalized so the
    wire order does not matter).
    @raise Invalid_argument if [target = control], a wire is negative,
    or the kind needs a different arity (use {!make_not},
    {!make_toffoli}, {!make_fredkin}, {!make_peres}). *)
val make : kind -> target:int -> control:int -> t

(** [make_not ~target] is the NOT (Pauli X) on one wire. *)
val make_not : target:int -> t

(** [make_toffoli ~target ~controls:(c1, c2)] is the Toffoli gate;
    the control pair is canonicalized (order does not matter).
    @raise Invalid_argument unless the three wires are distinct. *)
val make_toffoli : target:int -> controls:int * int -> t

(** [make_swap a b] exchanges wires [a] and [b] (canonicalized). *)
val make_swap : int -> int -> t

(** [make_fredkin ~targets:(a, b) ~control] swaps wires [a] and [b] when
    [control] carries 1; the swapped pair is canonicalized.
    @raise Invalid_argument unless the three wires are distinct. *)
val make_fredkin : targets:int * int -> control:int -> t

(** [make_peres ~target:c ~controls:(a, b)] is the Peres gate Peres[abc]
    ({!Peres}); the controls are ordered, [a] being the CNOT's control
    and [b] its target.  {!adjoint} gives the inverse Peres.
    @raise Invalid_argument unless the three wires are distinct. *)
val make_peres : target:int -> controls:int * int -> t

(** [all ~qubits] is the paper's library L for an n-qubit circuit:
    [3 * n * (n-1)] gates (18 when n = 3), ordered V, V{^ +}, F. *)
val all : qubits:int -> t list

(** [nc ~qubits] is NOT + CNOT (Feynman) — 9 gates when n = 3, ordered
    N, F.  It generates exactly the affine-linear functions. *)
val nc : qubits:int -> t list

(** [nct ~qubits] is the classical NCT library: NOT, CNOT (Feynman) and
    Toffoli gates — 12 gates when n = 3 — ordered N, F, T. *)
val nct : qubits:int -> t list

(** [nft ~qubits] is the classical NFT library of Younes
    (arXiv:1304.5804): the generalized-Toffoli family (NOT, CNOT,
    Toffoli) plus the generalized-Fredkin family (SWAP, Fredkin) —
    18 gates when n = 3 — ordered N, F, T, S, FR. *)
val nft : qubits:int -> t list

(** [ncp ~qubits] is NOT + CNOT + every placement of the Peres gate and
    of its inverse — 21 gates when n = 3 — ordered N, F, P, P{^ +}. *)
val ncp : qubits:int -> t list

val kind : t -> kind
val target : t -> int
val control : t -> int

(** [control2 g] is the third wire, or -1 when the gate has only two. *)
val control2 : t -> int

(** [wires g] is every wire the gate touches (2 or 3, no -1 sentinel). *)
val wires : t -> int list

val equal : t -> t -> bool
val compare : t -> t -> int

(** [adjoint g] is the Hermitian adjoint: V and V{^ +} swap, so do Peres
    and inverse Peres; every other kind is self-adjoint. *)
val adjoint : t -> t

(** [purity_wires g] lists the wires that must carry pure binary values
    for the gate to be legally cascaded: the control for controlled-V
    gates, both wires for Feynman (paper, Section 2), and every touched
    wire for the classical kinds (which never bind on the binary
    encoding, where no point is mixed). *)
val purity_wires : t -> int list

(** [purity_mask g] is {!purity_wires} as a bitmask (bit [w] = wire [w]). *)
val purity_mask : t -> int

(** [apply g p] is the multiple-valued semantics on a pattern:
    - controlled-V (V{^ +}): when the control is [One], the data value
      advances along the V (V{^ +}) cycle; when the control is [Zero] or
      mixed, nothing changes (the mixed case is the paper's don't-care,
      fixed as the identity to keep gates permutations);
    - Feynman: when the control is [One] and the target binary, the target
      flips; any other case (including mixed values, again don't-care) is
      the identity;
    - the classical kinds act classically (NOT/Toffoli flip a binary
      target, Swap/Fredkin exchange values, Peres kinds run their
      Toffoli and CNOT in turn) and leave a wire unchanged whenever a
      flip would need a mixed target. *)
val apply : t -> Mvl.Pattern.t -> Mvl.Pattern.t

(** [matrix ~qubits g] is the exact unitary of the gate (a 0/1
    permutation matrix for the classical kinds). *)
val matrix : qubits:int -> t -> Qmath.Dmatrix.t

(** [name g] renders the subscript naming with wires A..Z: ["VBA"],
    ["V+AB"], ["FCA"]; classical gates print ["NA"], ["TCAB"] (target
    then controls), ["SAB"], ["FRBCA"] (swapped pair then control),
    ["PCAB"] and ["P+CAB"] (Peres target, then the CNOT's control and
    target: TCAB followed by FBA). *)
val name : t -> string

(** [write_name b g] appends [name g] to [b]. *)
val write_name : Buffer.t -> t -> unit

(** [of_name ~qubits s] parses {!name} output (case-insensitive;
    longest prefix wins, so ["FR"] is Fredkin and ["F"] Feynman, ["P+"]
    inverse Peres and ["P"] Peres).
    @raise Invalid_argument on malformed names or out-of-range wires. *)
val of_name : qubits:int -> string -> t

val pp : Format.formatter -> t -> unit
