(** Minimal JSON values: just enough for telemetry snapshots and the
    [BENCH_*.json] perf-trajectory artifacts, with zero dependencies.

    The printer emits standards-compliant JSON (RFC 8259): strings are
    escaped, non-finite floats become [null], and finite integral floats
    keep a [".0"] suffix so a value round-trips to the same constructor.
    The parser accepts any RFC 8259 document (including [\uXXXX] escapes
    and surrogate pairs) and rejects trailing garbage. *)

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

(** [of_string s] parses one JSON document.
    @raise Parse_error on malformed input or trailing garbage. *)
val of_string : string -> t

(** [member key v] is the value bound to [key] when [v] is an object. *)
val member : string -> t -> t option

(** [path keys v] chains {!member} lookups through nested objects. *)
val path : string list -> t -> t option

(** [equal a b] is structural equality ([Int 1] and [Float 1.] differ). *)
val equal : t -> t -> bool
