(** A gate library compiled against a pattern encoding.

    Pre-computes, per gate: its permutation of the encoding's points and
    the purity mask implementing the paper's banned sets (a gate may
    follow a circuit [f] iff the image f(S) of the binary block contains
    no pattern that is mixed on one of the gate's purity wires — the
    "reasonable product" condition of Definition 1).

    A library is a first-class census universe: it carries a {e name}
    (resolved through {!Registry}), its encoding, its compiled gates and
    a [coset_reduction] flag saying whether the paper's Theorem-2 free
    NOT-layer trick applies.  Everything downstream — census, synthesis,
    spectra, checkpoints, indexes, the serve daemon — threads the library
    value rather than assuming the paper's 18 gates. *)

type entry = private {
  gate : Gate.t;
  perm : Permgroup.Perm.t;        (** action on the encoding's points *)
  perm_array : int array;          (** same, as a raw image array (hot path) *)
  inverse_array : int array;       (** inverse image array, pre-computed once
                                       at compile time so backward walks
                                       ([Search.all_cascades]) never invert
                                       permutations per node *)
  purity_mask : int;               (** wires that must stay pure, as bits *)
}

type t

(** The name of the default (paper) library: ["paper18"]. *)
val default_name : string

(** [make ?name ?coset_reduction ?gates encoding] compiles a library;
    [gates] defaults to {!Gate.all} for the encoding's width, [name] to
    {!default_name} and [coset_reduction] to [true] (the paper's
    configuration).  Gate lookup ({!entry_of_gate}) is backed by a hash
    table built here, so replay paths pay O(1) per gate.
    @raise Invalid_argument if a gate mentions a wire outside the
    encoding, or acts outside the encoding's pattern domain (e.g. a bare
    NOT on the mixed encoding). *)
val make : ?name:string -> ?coset_reduction:bool -> ?gates:Gate.t list ->
  Mvl.Encoding.t -> t

(** [of_name ?qubits n] instantiates the registered library called [n]
    ([qubits] defaults to 3).
    @raise Invalid_argument for names outside {!Registry.names}. *)
val of_name : ?qubits:int -> string -> t

(** [byte_keys encoding]: at most 255 points, so a search key holds a
    point a byte (paper18 has 176 at 4 wires and 782 at 5). *)
val byte_keys : Mvl.Encoding.t -> bool

(** [searchable ~qubits n] is {!of_name} when its encoding has
    {!byte_keys}; else an error naming the widest width that has (4 for
    paper18, 7 for the binary libraries), decided from the point count
    alone: no pattern is enumerated and no gate compiled. *)
val searchable : qubits:int -> string -> (t, string) result

(** [name t] is the library's registry name (e.g. ["paper18"], ["nft"]). *)
val name : t -> string

(** [coset_reduction t] says whether the free-NOT-layer coset reduction of
    the paper's Theorem 2 is sound for this library: every gate fixes the
    zero pattern and NOT layers are free, so censuses enumerate the
    zero-fixing subgroup and scale counts by [2^n].  Classical libraries
    that price NOT gates (NCT, NFT) set this [false] and census the full
    symmetric group directly. *)
val coset_reduction : t -> bool

val encoding : t -> Mvl.Encoding.t
val entries : t -> entry array
val qubits : t -> int

(** [size t] is the number of gates. *)
val size : t -> int

(** [entry_of_gate t g] finds the entry of a gate — O(1) hash lookup.
    @raise Not_found when the gate is not in the library. *)
val entry_of_gate : t -> Gate.t -> entry

(** [perm_of_gate t g] is the gate's point permutation.
    @raise Not_found when the gate is not in the library. *)
val perm_of_gate : t -> Gate.t -> Permgroup.Perm.t

(** [signature_allows ~signature entry] decides the reasonable-product
    condition given the OR of mixed signatures over the current binary
    block image. *)
val signature_allows : signature:int -> entry -> bool

(** [banned_set t g] is the paper's banned set for gate [g]: the points
    (0-based) whose pattern is mixed on one of [g]'s purity wires.
    Adding 1 to each reproduces the paper's N_A .. N_BC verbatim. *)
val banned_set : t -> Gate.t -> int list

(** [feynman_only t] is the sub-library of Feynman gates (used for the
    linear-circuit classification of the paper's Section 5). *)
val feynman_only : t -> t

(** [unconstrained t] is the same library with every purity mask cleared:
    the reasonable-product constraint of Definition 1 is disabled, so any
    gate can follow any circuit.  {e This makes the search unsound} — it
    finds multiple-valued permutations whose cascades do not implement
    the claimed function as unitaries — and exists purely as the ablation
    that demonstrates why the paper needs the banned sets. *)
val unconstrained : t -> t

(** Named census universes.

    A descriptor bundles everything a universe needs — gate set, pattern
    encoding, purity semantics (via the gates), and whether coset
    reduction applies — behind a stable name that flows through CLI
    flags, request JSON, census headers and error messages.  Checkpoint
    and index files additionally pin the {e structural} fingerprint
    ({!Checkpoint.fingerprint}), so renames cannot silently repoint
    on-disk artifacts at a different universe. *)
module Registry : sig
  type descriptor

  val name : descriptor -> string

  (** One-line human description shown by [qsynth libraries].  It names
      no gate, qubit or point counts: those depend on the instantiated
      width and are printed from the instance itself. *)
  val summary : descriptor -> string

  val coset_reduction : descriptor -> bool

  (** The paper's CV/CV{^ +}/CNOT library — the default. *)
  val paper18 : descriptor

  (** NOT + CNOT + Toffoli on the binary encoding (Shende et al.). *)
  val nct : descriptor

  (** Younes's NFT library (arXiv:1304.5804): NCT plus SWAP and Fredkin. *)
  val nft : descriptor

  (** NOT + CNOT on the binary encoding: the affine-linear functions. *)
  val nc : descriptor

  (** NOT + CNOT + Peres + inverse Peres on the binary encoding: the
      Peres-family library the paper's conclusion advocates. *)
  val ncp : descriptor

  (** Every registered descriptor, [paper18] first. *)
  val all : descriptor list

  (** Registered names, in {!all} order. *)
  val names : string list

  val find : string -> descriptor option

  (** [instantiate ?qubits d] compiles the descriptor's library
      ([qubits] defaults to 3). *)
  val instantiate : ?qubits:int -> descriptor -> t
end
