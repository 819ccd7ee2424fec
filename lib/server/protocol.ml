open Synthesis
module Json = Telemetry.Json

let default_max_frame = 16 * 1024 * 1024

type read_error = Closed | Truncated | Timed_out | Oversized of int

let read_error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "connection closed mid-frame"
  | Timed_out -> "receive timeout expired mid-frame"
  | Oversized n -> Printf.sprintf "frame length %d exceeds the cap" n

(* The one header check both readers apply: the announced payload
   length, or [Oversized] when it is negative or beyond the cap. *)
let frame_length ~max_len hdr ofs =
  let len = Int32.to_int (Bytes.get_int32_be hdr ofs) in
  if len < 0 || len > max_len then Error (Oversized len) else Ok len

(* EOF is a clean close at a frame boundary and a truncation anywhere
   inside a frame, header included. *)
let eof_error ~mid_frame = if mid_frame then Truncated else Closed

(* Read exactly [len] bytes into [buf]; [`Eof] only when the stream
   ended before the first byte. *)
let read_exact fd buf len =
  let rec go ofs =
    if ofs = len then `Ok
    else
      match Unix.read fd buf ofs (len - ofs) with
      | 0 -> if ofs = 0 then `Eof else `Short
      | n -> go (ofs + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Timeout
  in
  go 0

let read_frame ?(max_len = default_max_frame) fd =
  let hdr = Bytes.create 4 in
  match read_exact fd hdr 4 with
  | `Eof -> Error (eof_error ~mid_frame:false)
  | `Short -> Error (eof_error ~mid_frame:true)
  | `Timeout -> Error Timed_out
  | `Ok -> (
      match frame_length ~max_len hdr 0 with
      | Error _ as e -> e
      | Ok 0 -> Ok ""
      | Ok len -> (
          let buf = Bytes.create len in
          match read_exact fd buf len with
          | `Ok -> Ok (Bytes.unsafe_to_string buf)
          | `Eof | `Short -> Error (eof_error ~mid_frame:true)
          | `Timeout -> Error Timed_out))

module Reader = struct
  type t = {
    fd : Unix.file_descr;
    max_len : int;
    mutable buf : Bytes.t;
    mutable pos : int; (* first unconsumed byte *)
    mutable len : int; (* end of the bytes read so far *)
    mutable stalled : int; (* receive timeouts inside the current frame *)
  }

  type event = Frame of string | Idle | Failed of read_error

  let initial_size = 65536
  let max_stalled_reads = 40

  let create ?(max_len = default_max_frame) fd =
    { fd; max_len; buf = Bytes.create initial_size; pos = 0; len = 0;
      stalled = 0 }

  (* A complete frame at [pos] (its payload length), or the byte count
     the frame at [pos] needs in total. *)
  let buffered t =
    let avail = t.len - t.pos in
    if avail < 4 then `Need 4
    else
      match frame_length ~max_len:t.max_len t.buf t.pos with
      | Error e -> `Bad e
      | Ok n -> if avail >= 4 + n then `Frame n else `Need (4 + n)

  let take t n =
    let payload = Bytes.sub_string t.buf (t.pos + 4) n in
    t.pos <- t.pos + 4 + n;
    t.stalled <- 0;
    if t.pos = t.len then begin
      t.pos <- 0;
      t.len <- 0;
      (* a large frame does not pin a large buffer to the connection *)
      if Bytes.length t.buf > initial_size then t.buf <- Bytes.create initial_size
    end;
    payload

  (* Move the partial frame to the front, growing the buffer when the
     frame is larger than it, so the next read can complete the frame. *)
  let make_room t need =
    if t.pos + need > Bytes.length t.buf then begin
      let avail = t.len - t.pos in
      let buf =
        if need > Bytes.length t.buf then Bytes.create need else t.buf
      in
      Bytes.blit t.buf t.pos buf 0 avail;
      t.buf <- buf;
      t.pos <- 0;
      t.len <- avail
    end

  let rec next t =
    match buffered t with
    | `Frame n -> Frame (take t n)
    | `Bad e -> Failed e
    | `Need need -> (
        make_room t need;
        let mid_frame = t.len > t.pos in
        match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
        | 0 -> Failed (eof_error ~mid_frame)
        | n ->
            t.len <- t.len + n;
            next t
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> next t
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
            Failed (eof_error ~mid_frame)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            if mid_frame then t.stalled <- t.stalled + 1;
            if t.stalled >= max_stalled_reads then Failed Timed_out else Idle)
end

let write_frame ?(max_len = default_max_frame) fd payload =
  let n = String.length payload in
  if n > max_len then invalid_arg "Protocol.write_frame: frame exceeds the cap";
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  let total = 4 + n in
  let rec go ofs =
    if ofs < total then
      match Unix.write fd buf ofs (total - ofs) with
      | k -> go (ofs + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
  in
  go 0

let connect path =
  (* A write to a daemon that has gone away must come back as EPIPE —
     [call]'s "send failed" — not kill the client with SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

let call ?max_len fd req =
  match write_frame ?max_len fd (Json.to_string (Mce.Request.to_json req)) with
  | () -> (
      match read_frame ?max_len fd with
      | Ok payload -> Mce.Response.of_string payload
      | Error e -> Error (read_error_to_string e))
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "send failed: %s" (Unix.error_message err))
