(** Wire protocol of the [qsynth serve] daemon: length-prefixed JSON
    frames over a Unix-domain stream socket.

    Each frame is a 4-byte big-endian payload length followed by exactly
    that many bytes of UTF-8 JSON — one {!Synthesis.Mce.Request} per client frame,
    one {!Synthesis.Mce.Response} per server frame, in request order per
    connection.  A connection carries any number of frames; either side
    closes by shutting down its socket.  See doc/API.md for the schema
    and worked byte-level examples. *)

(** Hard ceiling on a frame's payload length (16 MiB): a four-byte
    header can announce up to 2 GiB, and the reader must not trust it
    with an allocation that large.  Both sides enforce it. *)
val default_max_frame : int

type read_error =
  | Closed  (** clean EOF at a frame boundary — the peer hung up *)
  | Truncated  (** EOF in the middle of a frame *)
  | Timed_out
      (** the peer stalled mid-frame: {!read_frame}'s read hit the
          socket's receive timeout, or a {!Reader}'s reads inside one
          frame timed out {!Reader.max_stalled_reads} times *)
  | Oversized of int  (** announced length is negative or beyond the cap *)

val read_error_to_string : read_error -> string

(** [read_frame fd] blocks for one complete frame.  Handles partial
    reads and [EINTR]; never over-reads past the frame, so a client can
    mix it with other reads of the same descriptor. *)
val read_frame : ?max_len:int -> Unix.file_descr -> (string, read_error) Stdlib.result

(** [write_frame fd payload] writes the header and payload, retrying
    partial writes.  @raise Invalid_argument beyond [max_len];
    @raise Unix.Unix_error as [write] does (notably [EPIPE] — the daemon
    ignores [SIGPIPE] so a vanished client surfaces here, not as a
    process kill). *)
val write_frame : ?max_len:int -> Unix.file_descr -> string -> unit

(** Buffered frame reader for the server end of one connection.  Each
    [read] takes as many bytes as the kernel holds, so one syscall
    brings in a frame's header and body together, and frames pipelined
    behind it are returned from the buffer without another syscall.  It
    applies the same header check and end-of-stream verdicts as
    {!read_frame}: an announced length beyond [max_len] is [Oversized],
    EOF at a frame boundary is [Closed] and EOF inside a frame (header
    included) is [Truncated].  The reader owns the descriptor's read
    side: do not mix it with {!read_frame} on the same descriptor. *)
module Reader : sig
  type t

  (** A frame is given up as [Timed_out] once this many reads inside
      it (40) have hit the receive timeout: 10 s at the daemon's
      0.25 s [SO_RCVTIMEO]. *)
  val max_stalled_reads : int

  (** [create ?max_len fd] reads frames from [fd].  [fd]'s
      [SO_RCVTIMEO] sets how often {!next} returns [Idle] while no
      complete frame is in. *)
  val create : ?max_len:int -> Unix.file_descr -> t

  type event =
    | Frame of string  (** one complete payload *)
    | Idle  (** the receive timeout expired before a complete frame was in *)
    | Failed of read_error  (** the connection is unusable; drop it *)

  (** [next t] is the next frame: from the buffer when one is complete
      there, else after as many reads as it takes, returning [Idle] on
      a receive timeout. *)
  val next : t -> event
end

(** {1 Client side} *)

(** [connect path] opens a stream connection to the daemon's socket.
    It sets SIGPIPE to ignored for the process, so a write to a daemon
    that has closed the connection fails with [EPIPE] instead of
    killing the client.
    @raise Unix.Unix_error when nothing is serving there. *)
val connect : string -> Unix.file_descr

(** [call fd request] sends one request frame and blocks for its
    response frame — the simple lock-step client used by
    [qsynth batch --socket].  [Error] covers transport failures and
    undecodable response documents. *)
val call : ?max_len:int -> Unix.file_descr -> Synthesis.Mce.Request.t -> (Synthesis.Mce.Response.t, string) Stdlib.result
