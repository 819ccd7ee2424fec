(** The wire-relabeling symmetry group of a gate library, and canonical
    forms of binary-image vectors under it — the quotient layer of the
    census engine ([census --quotient]).

    Conjugating a circuit by a permutation [pi] of the wires maps every
    gate of the CV/CV†/CNOT library to another library gate (a CNOT with
    control [a] and target [b] becomes the CNOT with control [pi a] and
    target [pi b], and likewise for the controlled-V family), so the
    reachable-state graph of the BFS has an automorphism for each of the
    [qubits!] wire relabelings.  On the encoding's points the relabeling
    acts as a permutation [q] (built with {!Mvl.Encoding.perm_of_action});
    on a state's binary-image vector [v] (a {!Search} key) the conjugate
    state's image is

    {[ (conj v).(b) = q^-1 (v (q b)) ]}

    — well-defined because [q] preserves the binary block.  {!create}
    verifies all of this against the compiled library: the induced point
    permutations form a group of order [qubits!] (checked with a
    Schreier–Sims chain from {!Permgroup.Schreier}), each one fixes the
    binary block, maps every gate's permutation to another library
    gate's, and transports purity masks and mixed signatures coherently,
    so conjugation preserves the reasonable-product constraint and
    minimal depths are constant on orbits.

    The paper's other symmetry factor — the [2^n] NOT-layer cosets of
    Theorem 2 — is {e not} an arena symmetry: composing with an input
    NOT layer moves a circuit out of the reachable set (every reachable
    state fixes point 0), so it collapses nothing in the BFS.  That
    factor lives at the function level, where {!Fmcf.s8_counts} already
    applies it; {!not_cosets} exposes the factor for reporting.  See
    doc/PERFORMANCE.md, "Symmetry quotient". *)

type t

(** [create library] builds and verifies the wire-relabeling group.
    @raise Invalid_argument if the library is not closed under wire
    relabeling (conjugating some gate leaves the library), or if the
    induced point permutations fail the group/consistency checks —
    quotienting such a search would be unsound. *)
val create : Library.t -> t

val library : t -> Library.t

(** [order t] is the number of wire relabelings, [qubits!]. *)
val order : t -> int

(** [not_cosets t] is the Theorem-2 coset factor [2^qubits] — the part
    of the paper's ~48x symmetry that acts on functions (|S8[k]| =
    2^n |G[k]|), not on arena states. *)
val not_cosets : t -> int

(** [num_binary t] is the length of the image vectors being
    canonicalized. *)
val num_binary : t -> int

(** [wire_perm t i] is element [i]'s wire relabeling (a permutation of
    [0 .. qubits-1]); element 0 is the identity.  Elements are sorted by
    the key of their induced point permutation, so indices are stable
    across runs and processes. *)
val wire_perm : t -> int -> int array

(** [fingerprint t] digests the group (every element's induced point
    permutation): checkpoints record it so a snapshot quotiented under
    one group is never resumed under another (see {!Checkpoint}). *)
val fingerprint : t -> int64

(** [gate_map t i] maps library entry indices through conjugation by
    element [i]: entry [g] of the library conjugates to entry
    [(gate_map t i).(g)]. *)
val gate_map : t -> int -> int array

(** {1 Image conjugation and canonical forms} *)

(** [conjugate_image t i img] is the image vector of the conjugate by
    element [i] of any state whose image vector is [img]. *)
val conjugate_image : t -> int -> string -> string

(** [conjugate_into t i ~src ~soff ~dst ~doff] writes {!conjugate_image}
    of the [num_binary]-byte image at [src.[soff ..]] into
    [dst.[doff ..]], allocating nothing.  [src] and [dst] must not
    overlap. *)
val conjugate_into : t -> int -> src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> unit

(** [canon_into t ~src ~soff ~dst ~doff] writes the canonical form —
    the lexicographically least of the [order t] conjugates — of the
    [num_binary]-byte image at [src.[soff ..]] into [dst.[doff ..]] and
    returns the index of the first element achieving it (0 when [src] is
    already canonical).  Each conjugate is compared with the best so far
    byte by byte as it is generated and dropped at the first byte that
    differs.  [src] is not modified and must not overlap [dst].
    Allocation-free: the BFS hot path calls this once per candidate
    state. *)
val canon_into : t -> src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int -> int

(** [canon t img] is [(canonical form, conjugator index)] of [img].
    Canonicalization is constant on orbits: [canon t (conjugate_image t
    i img) = canon t img] for every [i] — the property QCheck tests
    exercise. *)
val canon : t -> string -> string * int

(** [orbit_size t ~src ~soff] is the size of the orbit of the
    [num_binary]-byte image at [src.[soff ..]] — the number of its
    distinct conjugates, computed as [order t] over the size of the
    image's stabilizer.  Allocation-free: {!Fmcf} counts each quotiented
    level with it, reading images in place from the arena. *)
val orbit_size : t -> src:Bytes.t -> soff:int -> int
