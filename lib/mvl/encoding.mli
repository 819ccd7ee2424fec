(** The paper's label encoding of the permutable pattern domain.

    For [n] qubits there are [4^n] patterns, but a pattern without a [One]
    is fixed by every library gate, so only patterns containing a [One] —
    plus the all-zero pattern, kept so that the binary patterns form a
    complete block — can permute.  For [n = 3] this gives the paper's
    38-point domain: 64 − 27 + 1.

    Points are ordered as in the paper: the [2^n] binary patterns first
    (in numeric order, so point [i < 2^n] {e is} the binary code [i]), then
    the mixed patterns containing a [One] in lexicographic order with
    [Zero < One < V0 < V1].  This exact order is what makes our computed
    permutations reproduce the paper's printed cycles, e.g.
    V_BA = (5,17,7,21)(6,18,8,22)(13,19,15,23)(14,20,16,24).

    Points are 0-based internally; add 1 when comparing with the paper. *)

type t

(** [max_qubits] is the widest supported register, 10. *)
val max_qubits : int

(** [make ~qubits] builds the encoding ([1 <= qubits <= max_qubits]). *)
val make : qubits:int -> t

(** [make_binary ~qubits] is the purely binary pattern domain: the [2^n]
    binary patterns and nothing else, point [i] {e being} binary code
    [i].  This is the natural domain of classical reversible libraries
    (NCT, NFT): every point is pure, so no mixed signatures exist and
    purity/banned-set machinery never binds.  ([1 <= qubits <= max_qubits].) *)
val make_binary : qubits:int -> t

val qubits : t -> int

(** [points ~qubits] is [size (make ~qubits)], 4^n - 3^n + 1, computed
    without building a pattern. *)
val points : qubits:int -> int

(** [size e] is the number of permutable points (38 for 3 qubits). *)
val size : t -> int

(** [num_binary e] is [2^qubits]; points [0 .. num_binary-1] are the
    binary patterns in numeric order. *)
val num_binary : t -> int

(** [pattern e point] is the pattern at a point (do not mutate). *)
val pattern : t -> int -> Pattern.t

(** [point_of_pattern e p] is the point of [p], or [None] when [p] is
    outside the permutable domain (no [One] and not all-zero). *)
val point_of_pattern : t -> Pattern.t -> int option

(** [mixed_signature e point] is the bitmask over wires that carry a mixed
    value at this point (bit [w] = wire [w]). *)
val mixed_signature : t -> int -> int

(** [banned_points e ~wire] lists the points whose pattern is mixed at
    [wire] — the paper's banned set N for that wire (0-based points;
    adding 1 reproduces the paper's N_A, N_B, N_C verbatim). *)
val banned_points : t -> wire:int -> int list

(** [image_signature e points] ORs the mixed signatures of a point list;
    a controlled gate with control wire [c] may legally follow a circuit
    whose binary-block image has signature [s] iff [s land (1 lsl c) = 0]. *)
val image_signature : t -> int list -> int

(** [perm_of_action e action] turns a pattern transformer into a
    permutation of the encoding's points.  The action must map the domain
    onto itself bijectively.
    @raise Invalid_argument when the action leaves the domain or is not a
    bijection. *)
val perm_of_action : t -> (Pattern.t -> Pattern.t) -> Permgroup.Perm.t
