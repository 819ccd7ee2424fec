(** Durable snapshots of a BFS search at a level boundary.

    A checkpoint is a versioned, CRC-checked binary file holding the
    {!State_arena}'s key bytes, shard by shard in index order, with each
    shard's level sizes, plus the completed BFS depth and a fingerprint
    of the compiled gate library.  A state is its key, so that is the
    whole store: loading replays nothing, and the probe tables are
    recomputed from the keys.  A snapshot costs the key length per state
    (8 bytes at 3 qubits, 16 at 4) plus 4 bytes per shard and level.
    Restoring yields a {!Search.t} whose subsequent levels are {e
    byte-identical} to the ones the snapshotted engine would have
    produced: the keys are restored in index order, so every handle
    survives, and the frontier is recomputed in the engine's canonical
    (shard, index) order.  See doc/ROBUSTNESS.md for the format layout
    and the determinism-across-resume argument.

    Writes are atomic and streamed: {!save} writes the snapshot to
    [path ^ ".tmp"] straight from the store's key arenas, keeping a
    running CRC, fsyncs it and renames it over [path] (the directory is
    fsynced best effort), so a crash during {!save} — including an
    injected ["checkpoint"] fault — leaves any previous snapshot at
    [path] intact, and a save allocates no buffer the size of the
    snapshot.

    The format is version 4 of the [QSYNCKP1] magic.  A quotient
    snapshot records the {!Symmetry.fingerprint} of its canonicalizing
    group; loading rebuilds the group from the given library and rejects
    the file with {!Mismatch} if the fingerprint differs.  Loading
    checks the structure, not the search: every key belongs to its
    shard, is unique, holds only points of the encoding and, quotiented,
    is its own canonical form; level 0 is the identity alone; the counts
    agree with the header.  Versions 1 to 3 stored parent chains; loading
    one raises {!Mismatch} naming its version (rerun the census to
    regenerate it). *)

(** Raised on a snapshot that is damaged: truncated, failing its CRC, or
    structurally inconsistent.  The payload names the defect. *)
exception Corrupt of string

(** Raised on a well-formed snapshot that does not belong to this run
    configuration: wrong format version, or a library fingerprint /
    qubit count / key length differing from the library given to
    {!load}.  The payload names the mismatched field and both values. *)
exception Mismatch of string

(** [fingerprint library] digests everything the search outcome depends
    on — encoding size and signatures, and each gate's name, point
    permutation and purity mask — so any library change invalidates old
    snapshots with a {!Mismatch} instead of a silently wrong census. *)
val fingerprint : Library.t -> int64

(** {1 Binary-format primitives}

    Shared by every durable artifact the synthesis layer writes (the
    [QSYNCKP1] snapshots here and the [QSYNIDX2] census indexes of
    {!Census_index}), so all of them get the same integrity and
    crash-safety guarantees from one implementation. *)

(** [crc32 bytes ~off ~len] is the CRC-32 (IEEE, slicing-by-8) of the
    given byte range. *)
val crc32 : Bytes.t -> off:int -> len:int -> int

(** [write_atomic path bytes] writes [bytes] to [path ^ ".tmp"], fsyncs,
    renames over [path], and fsyncs the directory (best effort): a crash
    at any point — including the injected ["checkpoint"] fault between
    fsync and rename — leaves any previous file at [path] intact. *)
val write_atomic : string -> Bytes.t -> unit

(** [read_file path] reads the whole file into a fresh [Bytes.t]. *)
val read_file : string -> Bytes.t

(** [save search path] atomically writes a snapshot of [search] (which
    must sit at a level boundary, as it always does between
    {!Search.step_handles} calls).  A snapshot holds whole levels only:
    levels 0 .. {!Search.whole_depth}, the bounded levels after them
    left out, so resuming it to any depth re-runs those levels as an
    uninterrupted run would.  A snapshot of the same level (the same
    header) as the last one this process wrote to [path] is not written
    again: after a census whose level hook saved every level, the
    snapshot of a bounded level is already on disk. *)
val save : Search.t -> string -> unit

(** [load ?jobs library path] restores a snapshot into a live search — a
    quotiented one for quotient snapshots (the symmetry group is rebuilt
    from [library] and checked against the recorded fingerprint).
    @raise Mismatch when the snapshot belongs to a different library,
    format version or symmetry group (the message names the differing
    field);
    @raise Corrupt when the file is truncated, fails its CRC, or is
    structurally inconsistent — never a crash or a silently wrong
    search.
    The file is read and CRC-checked once; the restored engine carries
    the snapshot's depth ({!Search.depth}) and mode ({!Search.symmetry}). *)
val load : ?jobs:int -> Library.t -> string -> Search.t
