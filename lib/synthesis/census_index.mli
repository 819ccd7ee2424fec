(** Persistent index of a census: func_key -> (cost, witness).

    A census run ({!Fmcf}) proves, for every binary reversible function
    it finds, the {e exact} minimal cost plus one witness cascade — and,
    just as importantly, that any function it does {e not} contain costs
    more than the census depth.  This module freezes both facts into a
    compact on-disk artifact ([QSYNIDX2], reusing the atomic-write and
    CRC-32 machinery of {!Checkpoint}) so that later [qsynth synth]
    invocations answer known functions with an in-place binary search —
    no BFS, no census — and turn misses into a proven cost lower bound
    for the meet-in-the-middle engine ({!Bidir}).

    An index built from a census run to closure is moreover {e
    complete}: it covers the library's whole universe — for 3 qubits
    under the paper's library, all [7! = 5040] zero-fixing functions
    ([census -d 13 --quotient]), which by the Theorem-2 coset
    decomposition answers all [8! = 40320] members of S₈ once
    {!Mce.strip_not_layer} has peeled the NOT layer.  A complete index
    never misses a well-formed query, so a daemon serving one needs no
    search engine at all.  Completeness (plus the full cost histogram
    and a coverage count) is recorded in the header.

    For the 3-qubit depth-7 census: 1260 records of 13 bytes plus a
    ~5.6 kB gate log — about 22 kB; the complete 5040-record index is
    ~100 kB, because the index stores only binary {e functions} (G[k]),
    not every image state of the search. *)

type t

(** How much witness replay {!load} performs beyond the always-on
    integrity checks (CRC-32, fingerprints, record sortedness and
    bounds, histogram/coverage cross-checks): [Sample] replays a
    deterministic ~64-record stride, [Full] replays every record —
    proving the file correct by construction, not merely uncorrupted, at
    O(count·depth) load cost. *)
type verification = Sample | Full

(** [build census] indexes every member of [census] (including the
    identity at cost 0).  The census may be partial; {!depth} then
    reflects the completed horizon.  A census deep enough to cover the
    library's whole universe — the zero-fixing subgroup under coset
    reduction, the full symmetric group for NCT/NFT — yields a complete
    index whose {!depth} is the highest cost present, however far past
    the diameter the census ran.
    Witnesses are read from the census's step table ({!Fmcf.iter_member_ids}),
    so building allocates it if no witness was read before.
    @raise Invalid_argument if the library has more than {!max_gates}
    gates, the members disagree with the level counts or a witness has
    no backward step (engine bug). *)
val build : Fmcf.t -> t

(** [max_gates] is 256, the most gates a library may have for an index:
    the gate log stores one byte per gate. *)
val max_gates : int

(** [depth t] is the cost horizon: every function of cost [<= depth] is
    present, so a miss proves cost [>= depth + 1].  For a complete index
    this is the maximum cost in the universe — 13 for 3 qubits under the
    paper's library: the zero-fixing universe's diameter, whose spectrum
    has a genuine empty level at cost 11 (legality constrains which gate
    may follow which image vector, so minimal-cost levels of the binary
    targets need not be contiguous). *)
val depth : t -> int

(** [size t] is the number of indexed functions. *)
val size : t -> int

(** [is_complete t]: every zero-fixing function of the library's
    universe has a record, so {!find} cannot miss a well-formed query. *)
val is_complete : t -> bool

(** [coverage t] is the number of members of S_{2^q} the index answers:
    [size t * 2^qubits] under coset reduction (the NOT layer is stripped
    first), plain [size t] for a full-group library.  40320 for a
    complete 3-qubit index either way. *)
val coverage : t -> int

(** [histogram t] is the number of records per cost, indices
    [0..depth t].  For a complete index this is the full cost spectrum
    of the zero-fixing universe. *)
val histogram : t -> int array

(** [find t func] is [Some (cost, witness)] with the exact minimal cost
    and a minimal witness cascade, or [None] — which for an in-horizon
    census means {e proven} cost [> depth t], and for a complete index
    cannot happen at all on a zero-fixing function of the right width.
    [None] also for a function whose bit width does not match the
    library.  O(log n), allocation-free until a hit materializes its
    cascade. *)
val find : t -> Reversible.Revfun.t -> (int * Cascade.t) option

(** [save t path] atomically writes the index ({!Checkpoint.write_atomic}
    semantics: a crash never clobbers a previous file at [path]). *)
val save : t -> string -> unit

(** [load ?verify library path] reads the file into the heap and
    validates it: magic and CRC-32, format version, library and
    symmetry fingerprints, shape, record sortedness and bounds, and the
    histogram/coverage cross-checks; witness replay per [verify]
    (default [Sample]).
    @raise Checkpoint.Corrupt on damage (truncation, CRC, structure,
    invalid witness) and on a retired QSYNIDX1 file;
    @raise Checkpoint.Mismatch on a well-formed index for a different
    library or format version. *)
val load : ?verify:verification -> Library.t -> string -> t
