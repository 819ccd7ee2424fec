(* Standalone open-loop load generator for a running qsynth daemon.

   Offers a Poisson arrival stream at a fixed rate against the daemon's
   unix socket and prints a JSON summary (percentiles, error and
   overload counts) to stdout — the CLI face of [Server.Loadgen], for
   ad-hoc capacity probing and the CI smoke job. *)

open Cmdliner
module Json = Telemetry.Json
module Mce = Synthesis.Mce

let spec_of target =
  String.concat ","
    (List.map string_of_int (Reversible.Revfun.output_column target))

(* Three distinct well-known gates plus one non-library permutation:
   enough key diversity that the daemon's cache and coalescer both see
   work, without turning every request into a fresh search. *)
let default_mix () =
  List.map
    (fun t -> Mce.Request.make ~qubits:3 ~max_depth:7 (spec_of t))
    [
      Reversible.Gates.toffoli3;
      Reversible.Gates.fredkin3;
      Reversible.Gates.g1;
      Reversible.Spec.parse ~bits:3 "0,1,2,3,4,5,7,6";
    ]

let load_mix path =
  let ic = open_in path in
  let rec loop n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line when String.trim line = "" -> loop (n + 1) acc
    | line -> (
        match Mce.Request.of_string line with
        | Ok req -> loop (n + 1) (req :: acc)
        | Error e ->
            close_in ic;
            failwith (Printf.sprintf "%s:%d: %s" path n e))
  in
  loop 1 []

let main socket rps duration connections seed max_retries mix_file =
  let mix = match mix_file with None -> default_mix () | Some p -> load_mix p in
  match
    Server.Loadgen.run ~connections ~seed ~max_retries ~socket ~rps
      ~duration_s:duration mix
  with
  | results ->
      print_endline (Json.to_string ~pretty:true (Server.Loadgen.results_to_json results));
      if results.Server.Loadgen.answered = 0 then Cmd.Exit.some_error
      else Cmd.Exit.ok
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "loadgen: cannot reach daemon at %s: %s\n" socket
        (Unix.error_message err);
      Cmd.Exit.some_error
  | exception Failure msg | exception Invalid_argument msg ->
      Printf.eprintf "loadgen: %s\n" msg;
      Cmd.Exit.some_error

let socket_arg =
  let doc = "Unix socket path of the running daemon." in
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let rps_arg =
  let doc = "Offered request rate (requests per second)." in
  Arg.(value & opt float 200. & info [ "rps" ] ~docv:"RATE" ~doc)

let duration_arg =
  let doc = "Dispatch window in seconds." in
  Arg.(value & opt float 5. & info [ "duration" ] ~docv:"SECONDS" ~doc)

let connections_arg =
  let doc = "Size of the pipelined connection pool." in
  Arg.(value & opt int 4 & info [ "connections" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Seed for the arrival process and the mix draw." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let max_retries_arg =
  let doc =
    "Re-send a request rejected with 'overloaded' up to $(docv) times, \
     honoring the daemon's retry_after_ms hint with capped exponential \
     backoff and jitter (0, the default, reports every rejection as a \
     final outcome).  Retries are tallied in the 'retried' field."
  in
  Arg.(value & opt int 0 & info [ "max-retries" ] ~docv:"N" ~doc)

let mix_arg =
  let doc =
    "Request mix: one request JSON document per line (the daemon's wire \
     format; weight a request by repeating its line).  Without it a \
     built-in mix of 3-qubit benchmark gates is used."
  in
  Arg.(value & opt (some file) None & info [ "mix" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "open-loop Poisson load generator for qsynth serve" in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      const main $ socket_arg $ rps_arg $ duration_arg $ connections_arg
      $ seed_arg $ max_retries_arg $ mix_arg)

let () = exit (Cmd.eval' cmd)
