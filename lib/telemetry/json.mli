(** Minimal JSON values: just enough for telemetry snapshots and the
    [BENCH_*.json] perf-trajectory artifacts, with zero dependencies.

    The printer emits standards-compliant JSON (RFC 8259): strings are
    escaped, non-finite floats become [null], and finite integral floats
    keep a [".0"] suffix so a value round-trips to the same constructor.
    The parser accepts any RFC 8259 document (including [\uXXXX] escapes
    and surrogate pairs) and rejects trailing garbage and numbers outside
    RFC 8259's grammar, such as [013], [-.5] and [1.]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(** [to_string ?pretty v] serializes [v]; [pretty] (default false) adds
    two-space indentation. *)
val to_string : ?pretty:bool -> t -> string

(** [write_string b s] appends [s] to [b] as a quoted JSON string
    literal, escaped exactly as {!to_string} escapes it (bytes >= 0x80
    pass through, so UTF-8 stays UTF-8).  A string with nothing to
    escape is copied in one append.  Hand-rolled encoders that skip the
    [t] tree use it to stay byte-identical with {!to_string}. *)
val write_string : Buffer.t -> string -> unit

(** [to_channel ?pretty oc v] serializes straight to a channel. *)
val to_channel : ?pretty:bool -> out_channel -> t -> unit

(** [of_string s] parses one JSON document: {!Cursor.value} then
    {!Cursor.finish}.
    @raise Parse_error on malformed input or trailing garbage. *)
val of_string : string -> t

(** A cursor over one JSON document, for decoders that read a known
    shape without building the whole tree.  Each reader fails exactly as
    {!of_string} does at the same input: the same {!Parse_error}
    message at the same offset. *)
module Cursor : sig
  type json := t
  type t

  val create : string -> t

  (** [source c] is the whole document. *)
  val source : t -> string

  (** [pos c] is the offset of the next unread byte. *)
  val pos : t -> int

  (** [next_is c ch] holds when the next unread byte is [ch]. *)
  val next_is : t -> char -> bool

  (** [advance c] steps over one byte. *)
  val advance : t -> unit

  val skip_ws : t -> unit

  (** [expect c ch] steps over [ch] or fails ["expected 'ch'"]. *)
  val expect : t -> char -> unit

  (** [string_start c] steps over the opening quote and every following
      byte that is neither a quote, a backslash nor a control character,
      and returns the offset of the first content byte.  When
      [next_is c '"'] then holds, the string is the bytes from there to
      [pos c] and needs no decoding (the caller steps over the quote);
      otherwise {!string_rest} decodes it. *)
  val string_start : t -> int

  (** [string_rest c start] finishes the string {!string_start} began
      at [start], decoding escapes, and steps over its closing quote. *)
  val string_rest : t -> int -> string

  (** [value c] skips whitespace and reads one value. *)
  val value : t -> json

  (** [finish c] skips whitespace and fails ["trailing garbage"] unless
      the document ends there. *)
  val finish : t -> unit
end

(** [member key v] is the value bound to [key] when [v] is an object. *)
val member : string -> t -> t option

(** [path keys v] chains {!member} lookups through nested objects. *)
val path : string list -> t -> t option

(** [equal a b] is structural equality ([Int 1] and [Float 1.] differ). *)
val equal : t -> t -> bool
