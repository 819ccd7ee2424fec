(** Durable snapshots of a BFS search at a level boundary.

    A checkpoint is a versioned, CRC-checked binary file holding the
    {!State_arena}'s per-state metadata (depth, via gate, parent handle)
    plus the completed BFS depth and a fingerprint of the compiled gate
    library.  Key bytes are {e not} stored: a key (the state's
    binary-image vector) is a pure function of its parent chain, so
    loading replays the recorded gates from the identity root (and
    hashes, signatures and the probe tables are in turn recomputed from
    the keys).  Snapshots are therefore 11 bytes per state whatever the
    qubit count (12 for quotient snapshots, which add a per-state
    conjugator byte).  Restoring yields a
    {!Search.t} whose subsequent levels are {e byte-identical} to the
    ones the snapshotted engine would have produced: the arena columns
    are restored in index order, so every handle survives, and the
    frontier is recomputed in the engine's canonical (shard, index)
    order.  See doc/ROBUSTNESS.md for the format layout and the
    determinism-across-resume argument.

    Writes are atomic: the snapshot is serialized to [path ^ ".tmp"],
    fsynced, and renamed over [path] (the directory is fsynced best
    effort), so a crash during {!save} — including an injected
    ["checkpoint"] fault — leaves any previous snapshot at [path]
    intact.

    Two format versions share the [QSYNCKP1] magic: v3 is an
    unquotiented snapshot ([header.symmetry = None]) and v2 a quotient
    snapshot, which additionally records the {!Symmetry.fingerprint} of
    the canonicalizing group and each state's conjugator index.  Loading
    a v2 file rebuilds the group from the given library and rejects the
    file with {!Mismatch} if the recorded fingerprint differs; the
    replay also re-canonicalizes every parent chain and rejects with
    {!Corrupt} any state whose recorded conjugator disagrees.  v1 files
    held full point permutations, which the engine no longer stores:
    loading one raises {!Mismatch} naming format version 1 (rerun the
    census to regenerate it). *)

(** Raised on a snapshot that is damaged: truncated, failing its CRC, or
    structurally inconsistent.  The payload names the defect. *)
exception Corrupt of string

(** Raised on a well-formed snapshot that does not belong to this run
    configuration: wrong format version, or a library fingerprint /
    qubit count / key length differing from the library given to
    {!load}.  The payload names the mismatched field and both values. *)
exception Mismatch of string

(** Snapshot metadata, stored in the CRC-protected header. *)
type header = {
  fingerprint : int64;  (** {!fingerprint} of the producing library *)
  qubits : int;
  degree : int;  (** stored key length, the library's [num_binary] *)
  num_binary : int;
  num_gates : int;
  depth : int;  (** completed BFS levels *)
  states : int;  (** total stored states *)
  frontier_len : int;  (** states at [depth] *)
  symmetry : int64 option;
      (** [Some fp]: quotient snapshot (format v2), canonicalized under
          the symmetry group fingerprinted [fp]; [None]: unquotiented
          snapshot (format v3). *)
}

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
    {!Search.step_handles} calls).  Any in-flight {!save_async} write is
    drained first (re-raising its failure, if any). *)
val save : Search.t -> string -> unit

(** [save_async search path] captures [search]'s store at the current
    level boundary (zero-copy — see {!State_arena.shard_columns}) and
    writes the snapshot on a background domain, overlapping the write
    with the expansion of the next level.  Concurrent writes from
    successive boundaries each fsync their own uniquely-named temp file
    independently, but rename into [path] strictly in boundary order, so
    an older snapshot never overwrites a newer one; the directory fsync
    is deferred to {!drain}.  The produced file is byte-identical to
    what {!save} would have written at the same boundary. *)
val save_async : Search.t -> string -> unit

(** [drain ()] waits for every in-flight {!save_async} write, fsyncs the
    target directory, and re-raises any exception a writer died with
    ({!exception:Faultsim.Injected}, I/O errors).  Call before exiting
    and before reading back a file a [save_async] may still be writing.
    Idempotent; {!save} drains implicitly. *)
val drain : unit -> unit

(** [peek path] reads and CRC-validates just the snapshot at [path] and
    returns its header.
    @raise Corrupt or {!Mismatch} as {!load} would. *)
val peek : string -> header

(** [load ?jobs library path] restores a snapshot into a live search — a
    quotiented one for v2 files (the symmetry group is rebuilt from
    [library] and checked against the recorded fingerprint).
    @raise Mismatch when the snapshot belongs to a different library,
    format version or symmetry group (the message names the differing
    field);
    @raise Corrupt when the file is truncated, fails its CRC, or is
    structurally inconsistent — never a crash or a silently wrong
    search. *)
val load : ?jobs:int -> Library.t -> string -> Search.t
