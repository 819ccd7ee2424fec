(* qsynth: command-line front end for the exact quantum-circuit synthesis
   library (Yang/Hung/Song/Perkowski, DATE 2005 reproduction). *)

open Cmdliner
open Synthesis

(* {1 Exit-code contract}

   0 success; 1 runtime error; 2 usage error; 124 wall-clock budget
   expired (partial census); 125 state/memory budget reached (partial
   census); 130 interrupted by SIGINT/SIGTERM after the final checkpoint
   was written.  See doc/ROBUSTNESS.md. *)

let exit_ok = 0
let exit_runtime = 1
let exit_usage = 2
let exit_timeout = 124
let exit_budget = 125
let exit_interrupt = 130

let contract_exits =
  [
    Cmd.Exit.info exit_ok ~doc:"on success.";
    Cmd.Exit.info exit_runtime
      ~doc:
        "on runtime errors: corrupt or mismatched snapshots, invalid \
         specifications, I/O failures, injected faults.";
    Cmd.Exit.info exit_usage ~doc:"on command-line parse errors.";
    Cmd.Exit.info exit_timeout
      ~doc:"when $(b,--timeout) expired; the reported census is partial.";
    Cmd.Exit.info exit_budget
      ~doc:
        "when $(b,--max-states) or $(b,--max-mem) was reached; the reported \
         census is partial.";
    Cmd.Exit.info exit_interrupt
      ~doc:
        "when interrupted (SIGINT/SIGTERM); the final checkpoint, if \
         requested, was written first.";
  ]

(* The single error boundary: every subcommand body runs under [guarded],
   which maps known exceptions to [exit_runtime] with a one-line message
   instead of a backtrace, and always runs [finish] (the telemetry
   snapshot writer). *)
let guarded ?(finish = fun () -> ()) f =
  Fun.protect ~finally:finish @@ fun () ->
  let fail fmt = Format.kasprintf (fun m -> Format.eprintf "qsynth: %s@." m; exit_runtime) fmt in
  try f () with
  | Checkpoint.Corrupt msg -> fail "snapshot is corrupt: %s" msg
  | Checkpoint.Mismatch msg -> fail "snapshot mismatch: %s" msg
  | Faultsim.Injected point -> fail "injected fault %S fired (QSYNTH_FAULT)" point
  | Invalid_argument msg | Failure msg | Sys_error msg -> fail "%s" msg
  | Unix.Unix_error (e, fn, arg) ->
      fail "%s: %s(%s)" (Unix.error_message e) fn arg

let setup_logs verbosity =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level
    (match verbosity with
    | 0 -> Some Logs.Warning
    | 1 -> Some Logs.Info
    | _ -> Some Logs.Debug)

let verbose_arg =
  let doc =
    "Increase log verbosity: -v prints per-level progress (info), -vv full \
     search traces (debug)."
  in
  Term.(const List.length $ Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc))

(* telemetry plumbing shared by the search-heavy subcommands *)

let metrics_arg =
  let doc =
    "Enable telemetry and write a JSON snapshot (counters, gauges, \
     histograms, per-level series, span tree) to $(docv) on exit.  The \
     schema is documented in doc/OBSERVABILITY.md."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc = "Enable telemetry and print the live span tree to stderr." in
  Arg.(value & flag & info [ "trace" ] ~doc)

(* [setup_telemetry verbosity metrics trace] configures logs and the
   telemetry switch; returns the snapshot writer to run after the work. *)
let setup_telemetry verbosity metrics trace =
  setup_logs verbosity;
  if metrics <> None || trace then Telemetry.set_enabled true;
  Telemetry.set_trace trace;
  fun () ->
    match metrics with
    | None -> ()
    | Some path -> (
        try
          Telemetry.write_snapshot path;
          Format.eprintf "telemetry snapshot written to %s@." path
        with Sys_error msg ->
          Format.eprintf "error: cannot write telemetry snapshot: %s@." msg)

let telemetry_term = Term.(const setup_telemetry $ verbose_arg $ metrics_arg $ trace_arg)

(* a search command's library: an unsearchable width is a usage error *)
let library_of ~qubits name =
  match Library.searchable ~qubits name with
  | Ok library -> library
  | Error msg -> Format.eprintf "qsynth: %s@." msg; exit exit_usage

(* --library: validated by Cmdliner as an enum over the registry, so an
   unknown name is a usage error (exit 2) listing the alternatives —
   consistent with every other enumerated flag. *)
let library_arg =
  let choices = List.map (fun n -> (n, n)) Library.Registry.names in
  let doc =
    Printf.sprintf
      "Gate library (census universe): %s.  Run $(b,qsynth libraries) for \
       each library's gate count and fingerprint.  Default: %s, the paper's \
       18-gate CV/CV\xe2\x80\xa0/CNOT library."
      (Arg.doc_alts_enum choices) Library.default_name
  in
  Arg.(value & opt (enum choices) Library.default_name
       & info [ "library" ] ~docv:"NAME" ~doc)

(* {1 Cooperative cancellation}

   SIGINT/SIGTERM set an atomic flag that the search polls between
   expansion chunks; nothing happens inside the handler beyond the
   store.  [install_cancel ()] returns the polling closure. *)

let cancel_requested = Atomic.make false

let install_cancel () =
  Atomic.set cancel_requested false;
  let handler = Sys.Signal_handle (fun _ -> Atomic.set cancel_requested true) in
  Sys.set_signal Sys.sigint handler;
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
  fun () -> Atomic.get cancel_requested

(* {1 Argument converters with up-front validation} *)

let int_at_least least ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be at least %d" what least))
    | None -> Error (`Msg (Printf.sprintf "invalid %s value %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1
let nonneg_int = int_at_least 0

let byte_size =
  let parse s =
    let len = String.length s in
    let mult, digits =
      if len = 0 then (1, s)
      else
        match s.[len - 1] with
        | 'k' | 'K' -> (1024, String.sub s 0 (len - 1))
        | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (len - 1))
        | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (len - 1))
        | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some n when n >= 1 -> Ok (n * mult)
    | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "invalid size %S (positive integer with optional K/M/G suffix)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_float ~what =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Ok f
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be positive" what))
    | None -> Error (`Msg (Printf.sprintf "invalid %s value %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Checkpoint destinations are validated at parse time so a doomed run
   fails before the search starts, not hours into it. *)
let checkpoint_path =
  let parse path =
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then
      Error (`Msg (Printf.sprintf "checkpoint directory %s does not exist" dir))
    else if not (Sys.is_directory dir) then
      Error (`Msg (Printf.sprintf "checkpoint directory %s is not a directory" dir))
    else if Sys.file_exists path && Sys.is_directory path then
      Error (`Msg (Printf.sprintf "checkpoint path %s is a directory" path))
    else
      match Unix.access dir [ Unix.W_OK ] with
      | () -> Ok path
      | exception Unix.Unix_error _ ->
          Error (`Msg (Printf.sprintf "checkpoint directory %s is not writable" dir))
  in
  Arg.conv (parse, Format.pp_print_string)

let snapshot_path =
  let parse path =
    if not (Sys.file_exists path) then
      Error (`Msg (Printf.sprintf "snapshot %s does not exist" path))
    else if Sys.is_directory path then
      Error (`Msg (Printf.sprintf "snapshot path %s is a directory" path))
    else Ok path
  in
  Arg.conv (parse, Format.pp_print_string)

(* bounded by Cmdliner, so a width no encoding supports is a usage
   error (exit 2) before any subcommand prints; see also [library_of] *)
let qubits_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= Mvl.Encoding.max_qubits -> Ok n
    | Some _ ->
        Error
          (`Msg (Printf.sprintf "N must be between 1 and %d" Mvl.Encoding.max_qubits))
    | None -> Error (`Msg (Printf.sprintf "invalid N value %S" s))
  in
  let doc =
    Printf.sprintf
      "Number of qubits, 1 to %d.  A search key holds one encoding point a byte, so \
       census, synth, describe, weighted, batch and serve take paper18 up to 4 qubits and \
       nct, nft, nc and ncp up to 7; a wider N is a usage error."
      Mvl.Encoding.max_qubits
  in
  Arg.(value & opt (conv (parse, Format.pp_print_int)) 3
       & info [ "q"; "qubits" ] ~docv:"N" ~doc)

let depth_arg =
  let doc = "Search depth bound (the paper's cb)." in
  Arg.(value & opt (nonneg_int ~what:"K") 7 & info [ "d"; "depth" ] ~docv:"K" ~doc)

let jobs_arg =
  let doc =
    "Number of worker domains for the breadth-first search (default 1).  \
     Every value produces identical results; values above 1 parallelize \
     each level across domains.  The effective value appears as the \
     $(b,search.jobs) gauge in the $(b,--metrics) snapshot."
  in
  Arg.(value & opt (pos_int ~what:"JOBS") 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* census *)

(* [--stats]: the per-depth symmetry-quotient analysis, read straight
   from the quotient arena (and its search.quotient.* telemetry). *)
let print_quotient_stats census =
  let search = Fmcf.search census in
  match Search.symmetry search with
  | None ->
      Format.printf
        "--stats describes the symmetry quotient; run with --quotient to see it@."
  | Some sym ->
      Format.printf
        "Symmetry quotient: group order %d (wire relabelings), x%d NOT cosets \
         at the function level@."
        (Symmetry.order sym) (Symmetry.not_cosets sym);
      Format.printf "  depth    orbits    images  img/orbit@.";
      let tot_orbits = ref 0 and tot_images = ref 0 in
      let store = Search.store search in
      for d = 0 to Search.depth search do
        let orbits = Search.level_size search d and images = ref 0 in
        Search.iter_level search d (fun h ->
            images :=
              !images
              + Symmetry.orbit_size sym
                  ~src:(State_arena.shard_arena store (State_arena.shard_of_handle h))
                  ~soff:(State_arena.key_offset store h));
        let images = !images in
        tot_orbits := !tot_orbits + orbits;
        tot_images := !tot_images + images;
        Format.printf "  %5d %9d %9d %10.2f@." d orbits images
          (float_of_int images /. float_of_int (max 1 orbits))
      done;
      Format.printf "  total %9d %9d %10.2f@." !tot_orbits !tot_images
        (float_of_int !tot_images /. float_of_int (max 1 !tot_orbits));
      (match Search.quotient_collapsed search with
      | Some (news, hits) when news + hits > 0 ->
          Format.printf
            "  canonicalization: %d expansions collapsed onto %d stored \
             representatives@."
            (hits + news) news
      | _ -> (* resumed engines only tally levels run after the resume *) ())

let census_cmd =
  let run finish_telemetry qubits depth jobs library_name paper_variant quotient
      stats save emit_index checkpoint every resume max_states max_mem timeout =
    guarded ~finish:finish_telemetry @@ fun () ->
    let library = library_of ~qubits library_name in
    (* the index's gate log holds one byte per gate: refuse before any
       level is stepped *)
    if emit_index <> None && Library.size library > Census_index.max_gates then begin
      Format.eprintf "qsynth: --emit-index: library %s has %d gates at %d qubits; an index \
                      holds at most %d@."
        library_name (Library.size library) qubits Census_index.max_gates;
      exit exit_usage
    end;
    if paper_variant && not (Library.coset_reduction library) then
      failwith
        (Printf.sprintf
           "--paper-variant reproduces the paper's Table 2 and only applies \
            to its own library (%s); library %s counts a different universe"
           Library.default_name library_name);
    let resume_search =
      match resume with
      | None -> (
          match checkpoint with
          | Some path when not (Sys.file_exists path) ->
              (* Seed the checkpoint at level 0 before searching, so a
                 crash at any point of the run leaves a resumable file. *)
              let symmetry =
                if quotient then Some (Symmetry.create library) else None
              in
              let s = Search.create ~jobs ?symmetry library in
              Checkpoint.save s path;
              Some s
          | Some _ | None -> None)
      | Some path ->
          let s = Checkpoint.load ~jobs library path in
          if Search.depth s > depth then
            failwith
              (Printf.sprintf
                 "snapshot %s is already at level %d, beyond --depth %d; pass a \
                  deeper --depth to continue it"
                 path (Search.depth s) depth);
          (* The snapshot's own mode wins: a quotient snapshot resumes
             quotiented, an unquotiented one unquotiented, whatever
             --quotient says. *)
          (match (Search.symmetry s, quotient) with
          | None, true ->
              Format.eprintf
                "warning: %s is an unquotiented snapshot; resuming unquotiented@." path
          | Some _, false ->
              Format.eprintf "warning: %s is a quotient snapshot; resuming quotiented@." path
          | _ -> ());
          Some s
    in
    let should_stop = install_cancel () in
    let on_level search ~cost =
      match checkpoint with
      | Some path when cost mod every = 0 -> Checkpoint.save search path
      | Some _ | None -> ()
    in
    let t0 = Unix.gettimeofday () in
    let census, reason =
      Fmcf.run_guarded ~max_depth:depth ~jobs ~quotient ?resume:resume_search
        ?max_states ?max_mem ?timeout ~should_stop ~on_level library
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let reached = Search.depth (Fmcf.search census) in
    (* final checkpoint at the boundary we stopped on, whatever the
       reason — interrupted runs keep their progress *)
    Option.iter (Checkpoint.save (Fmcf.search census)) checkpoint;
    let note =
      match reason with
      | Fmcf.Completed -> None
      | r ->
          Some
            (Printf.sprintf
               "PARTIAL census: %s at level %d of %d; deeper levels were not \
                searched"
               (Fmcf.describe_stop r) reached depth)
    in
    (match save with
    | Some path ->
        Census_io.save ?note census path;
        Format.printf "saved census to %s@." path
    | None -> ());
    (match emit_index with
    | Some path ->
        let index = Census_index.build census in
        Census_index.save index path;
        Format.printf "census index: %d functions to cost %d%s -> %s@."
          (Census_index.size index) (Census_index.depth index)
          (if Census_index.is_complete index then " (complete)" else "")
          path
    | None -> ());
    let counts = if paper_variant then Fmcf.paper_counts census else Fmcf.counts census in
    if Library.coset_reduction library then begin
      Format.printf "Table 2: number of circuits with cost k (%d qubits, depth %d%s)@."
        qubits depth
        (if Fmcf.quotiented census then ", symmetry quotient" else "");
      Format.printf "Cost k  :";
      List.iter (fun (k, _) -> Format.printf " %6d" k) counts;
      Format.printf "@.|G[k]|  :";
      List.iter (fun (_, n) -> Format.printf " %6d" n) counts;
      Format.printf "@.|S%d[k]| :" (1 lsl qubits);
      List.iter (fun (_, n) -> Format.printf " %6d" (n * (1 lsl qubits))) counts
    end
    else begin
      (* No free NOT layer: the census counts the full symmetric group
         directly, so the zero-fixing |G[k]| row and its 2^n-scaled coset
         row would both be wrong here. *)
      Format.printf
        "Census: number of circuits with cost k (library %s, %d qubits, \
         depth %d%s)@."
        (Library.name library) qubits depth
        (if Fmcf.quotiented census then ", symmetry quotient" else "");
      Format.printf "Cost k  :";
      List.iter (fun (k, _) -> Format.printf " %6d" k) counts;
      Format.printf "@.|S%d[k]| :" (1 lsl qubits);
      List.iter (fun (_, n) -> Format.printf " %6d" n) counts
    end;
    Format.printf "@.total functions found: %d; search states: %d; %.2fs@."
      (Fmcf.total_found census)
      (Search.size (Fmcf.search census))
      elapsed;
    if stats then print_quotient_stats census;
    (match note with
    | Some n -> Format.printf "*** %s ***@." n
    | None -> ());
    if Telemetry.enabled () then Telemetry.log_summary ();
    match reason with
    | Fmcf.Completed -> exit_ok
    | Fmcf.Timed_out -> exit_timeout
    | Fmcf.Budget_states | Fmcf.Budget_mem -> exit_budget
    | Fmcf.Cancelled -> exit_interrupt
  in
  let paper_flag =
    Arg.(value & flag & info [ "paper-variant" ]
           ~doc:"Report the counts exactly as printed in the paper's Table 2 \
                 (reproducing its two counting artifacts at k = 2, 3).")
  in
  let quotient_flag =
    Arg.(value & flag & info [ "quotient" ]
           ~doc:"Run the BFS over canonical orbit representatives under the \
                 library's wire-relabeling symmetry group (Schreier-verified; \
                 see doc/PERFORMANCE.md, 'Symmetry quotient').  The arena \
                 stores ~6x fewer states and every reported \
                 count, member, witness cascade and emitted index is \
                 byte-identical to the unquotiented run.  Checkpoints record \
                 the symmetry group and resume quotiented.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"After a $(b,--quotient) census, print the per-depth \
                 symmetry-quotient analysis: stored orbits vs the images \
                 they stand for, and the measured reduction factor.  A \
                 census keeps at each level only the states that can still \
                 become functions within --depth, so the rows of those \
                 levels count the orbits it keeps (of G[depth] at the \
                 final level), not of every image first reached there.")
  in
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Save the census (cost, function, witness cascade) as TSV.  \
                 Interrupted or budget-limited runs are marked with a \
                 '# PARTIAL' comment.")
  in
  let emit_index_arg =
    Arg.(value & opt (some checkpoint_path) None & info [ "emit-index" ] ~docv:"FILE"
           ~doc:"Write a persistent census index (function -> exact cost + \
                 witness cascade, QSYNIDX2 format, written atomically) to \
                 $(docv).  Later $(b,qsynth synth --index) runs answer indexed \
                 functions by binary search instead of a BFS, and treat misses \
                 as a proven cost lower bound.  A partial census indexes the \
                 completed horizon only; a census run to closure (e.g. \
                 $(b,-d 13 --quotient) for the paper's library) writes a \
                 complete index covering every function.")
  in
  let checkpoint_arg =
    Arg.(value & opt (some checkpoint_path) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Write a crash-safe snapshot of the search to $(docv) at level \
                 boundaries (atomically: temp file + rename), and a final one \
                 on any early stop.  Resume with $(b,--resume).  A snapshot \
                 holds whole levels only.  A census keeps at each level \
                 only the states that can still become functions within \
                 --depth (the final level holds functions only), so the \
                 last snapshot of a completed run sits at the deepest \
                 whole level: depth-N+1 (or 0) for the paper's library on N \
                 wires, depth-1 for a classical one.  Resumed to the same \
                 or a deeper --depth, it re-runs the levels after it.")
  in
  let every_arg =
    Arg.(value & opt (pos_int ~what:"K") 1 & info [ "checkpoint-every" ] ~docv:"K"
           ~doc:"Snapshot every $(docv)-th level (default 1: every level).")
  in
  let resume_arg =
    Arg.(value & opt (some snapshot_path) None & info [ "resume" ] ~docv:"FILE"
           ~doc:"Restore the search from a snapshot written by $(b,--checkpoint) \
                 and continue to --depth.  The resumed census is identical to an \
                 uninterrupted run's.  The snapshot must come from the same gate \
                 library (checked by fingerprint).")
  in
  let max_states_arg =
    Arg.(value & opt (some (pos_int ~what:"N")) None & info [ "max-states" ] ~docv:"N"
           ~doc:"Stop before expanding the next level once $(docv) search states \
                 are stored; the census is reported as partial (exit 125).  \
                 The count is the 'search states:' figure, which counts at \
                 each level only the states that can still become \
                 functions within --depth.")
  in
  let max_mem_arg =
    Arg.(value & opt (some byte_size) None & info [ "max-mem" ] ~docv:"BYTES"
           ~doc:"Stop before expanding the next level when the state store \
                 (keys and probe tables) would hold more than \
                 $(docv) bytes once room for that level's predicted size is \
                 reserved (K/M/G suffixes accepted); the census is reported as \
                 partial (exit 125).")
  in
  let timeout_arg =
    Arg.(value & opt (some (pos_float ~what:"SECONDS")) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Stop after $(docv) seconds of wall clock, abandoning any \
                   half-expanded level cleanly; the census is reported as \
                   partial (exit 124).")
  in
  Cmd.v
    (Cmd.info "census" ~exits:contract_exits
       ~doc:"Reproduce Table 2: |G[k]| for k = 0..depth.")
    Term.(
      const run $ telemetry_term $ qubits_arg $ depth_arg $ jobs_arg
      $ library_arg $ paper_flag $ quotient_flag $ stats_flag $ save_arg
      $ emit_index_arg $ checkpoint_arg $ every_arg $ resume_arg
      $ max_states_arg $ max_mem_arg $ timeout_arg)

(* {1 The unified query surface}

   synth, batch and serve all speak Mce.Request/Mce.Response; a
   response rendered with --json is byte-identical no matter which
   transport produced it (doc/API.md). *)

let enumerate_limit = 10_000

(* Exit code for a response: Ok bodies (including certified
   Unrealizable) succeed; Cancelled follows the interrupt contract. *)
let response_exit (resp : Mce.Response.t) =
  match resp.Mce.Response.body with
  | Ok _ -> exit_ok
  | Error Mce.Response.Cancelled -> exit_interrupt
  | Error _ -> exit_runtime

(* synth's human rendering; verification runs here, on the client
   side — a response carries cost certificates, not trust. *)
let print_response_human library t0 (resp : Mce.Response.t) =
  let elapsed = Unix.gettimeofday () -. t0 in
  let pp_one (r : Mce.result) =
    Format.printf "cost %d (%.3fs): %s%a  [verified: %b]@." r.Mce.cost elapsed
      (if r.Mce.not_mask = 0 then ""
       else Printf.sprintf "NOT(mask=%d) * " r.Mce.not_mask)
      Cascade.pp r.Mce.cascade
      (Verify.result_valid library r)
  in
  match resp.Mce.Response.body with
  | Ok { payload = Mce.Response.Synthesized { target; not_mask; cascade; cost }; _ }
    ->
      pp_one { Mce.target; not_mask; cascade; cost }
  | Ok { payload = Mce.Response.Unrealizable { max_depth }; _ } ->
      Format.printf "no realization within depth %d@." max_depth
  | Ok { payload = Mce.Response.Witnesses { count }; _ } ->
      Format.printf "distinct minimal witnesses: %d@." count
  | Ok
      {
        payload = Mce.Response.Realizations { target; not_mask; cost; cascades; complete };
        _;
      } ->
      if cascades = [] then
        Format.printf "no realization within the depth bound@."
      else begin
        Format.printf "%d minimal realization(s) of cost %d (%.3fs)%s:@."
          (List.length cascades) cost elapsed
          (if complete then "" else ", truncated at the enumeration limit");
        List.iter
          (fun cascade ->
            Format.printf "  %s%a  [verified: %b]@."
              (if not_mask = 0 then ""
               else Printf.sprintf "NOT(mask=%d) * " not_mask)
              Cascade.pp cascade
              (Verify.result_valid library
                 { Mce.target; not_mask; cascade; cost = List.length cascade }))
          cascades
      end
  | Error Mce.Response.Cancelled -> Format.eprintf "qsynth: search interrupted@."
  | Error (Mce.Response.Bad_request msg) | Error (Mce.Response.Unsupported msg)
  | Error (Mce.Response.Internal msg) ->
      Format.eprintf "qsynth: %s@." msg
  | Error (Mce.Response.Overloaded { retry_after_ms }) ->
      Format.eprintf "qsynth: server overloaded; retry after %d ms@." retry_after_ms
  | Error Mce.Response.Deadline_exceeded ->
      Format.eprintf "qsynth: deadline exceeded@."
  | Error Mce.Response.Shutting_down ->
      Format.eprintf "qsynth: server is shutting down@."

(* [index_arg ~miss] is --index, [miss] saying what a miss does in the
   command's own terms: synth bounds by --depth, batch and serve by each
   request's max_depth. *)
let index_arg ~miss =
  Arg.(value & opt (some snapshot_path) None & info [ "index" ] ~docv:"FILE"
         ~doc:("Answer from a census index written by $(b,qsynth census \
                --emit-index): an indexed function costs one binary search \
                (no BFS at all), and a miss proves the cost exceeds the index \
                depth — " ^ miss ^ "  An index built from a census run to \
                closure never misses: every realizable request is answered \
                from the file.  \
                Integrity (CRC, library and symmetry fingerprints, record \
                structure, cost histogram) is always validated at load, plus \
                a deterministic sample of witness replays; $(b,--verify-index) \
                replays them all."))

let synth_index_arg =
  index_arg
    ~miss:"certifying 'no realization' outright when the index covers \
           $(b,--depth), or priming the bidirectional engine with the bound."

(* batch and serve have no --depth: each request carries its bound *)
let request_index_arg =
  index_arg
    ~miss:"certifying 'no realization' outright when the index covers the \
           request's max_depth, and otherwise leaving the request to the \
           forward search."

let verify_index_arg =
  Arg.(value & flag & info [ "verify-index" ]
         ~doc:"Replay $(i,every) witness of the $(b,--index) file through the \
               library's multiple-valued semantics at load time, proving the \
               file correct by construction rather than merely uncorrupted.  \
               Costs O(functions x cost) once at startup; without it a \
               deterministic ~1/64 sample is replayed on top of the always-on \
               CRC/fingerprint/structure checks.")

(* synth *)

let synth_cmd =
  let run finish_telemetry qubits depth jobs library_name all json index_path
      verify_index use_bidir spec =
    guarded ~finish:finish_telemetry @@ fun () ->
    let library = library_of ~qubits library_name in
    let should_stop = install_cancel () in
    (* the load validates magic/CRC/fingerprints/structure (and witnesses
       per --verify-index) and raises Checkpoint.Corrupt/Mismatch —
       mapped to exit 1 by [guarded] *)
    let verify =
      if verify_index then Census_index.Full else Census_index.Sample
    in
    let index = Option.map (Census_index.load ~verify library) index_path in
    if not json then begin
      let target = Reversible.Spec.parse ~bits:qubits spec in
      Format.printf "target: %a@." Reversible.Revfun.pp target;
      match index with
      | Some idx ->
          Format.printf "index: %d functions, exact to cost %d%s@."
            (Census_index.size idx) (Census_index.depth idx)
            (if Census_index.is_complete idx then " (complete)" else "")
      | None -> ()
    end;
    let bidir = if use_bidir then Some (Bidir.create ~jobs library) else None in
    let task =
      if all then Mce.Request.Enumerate { limit = enumerate_limit }
      else Mce.Request.Synthesize
    in
    let req =
      Mce.Request.make ~qubits ~library:library_name ~task ~max_depth:depth spec
    in
    let t0 = Unix.gettimeofday () in
    let resp = Mce.solve ~jobs ~should_stop ?index ?bidir library req in
    if json then print_endline (Mce.Response.to_string resp)
    else print_response_human library t0 resp;
    response_exit resp
  in
  let all_flag =
    Arg.(value & flag & info [ "a"; "all" ] ~doc:"Enumerate all minimal realizations.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the response as one line of JSON — the exact bytes the \
                 $(b,qsynth serve) daemon would answer for the same request \
                 and engine resources (schema: doc/API.md).  Suppresses the \
                 human report and client-side verification.")
  in
  let bidir_flag =
    Arg.(value & flag & info [ "bidir" ]
           ~doc:"Use the meet-in-the-middle engine: a forward wave from the \
                 identity joins a backward wave from the target, reaching cost \
                 2x the forward depth — functions of cost 8+ that the forward \
                 search cannot touch synthesize in seconds, with the same \
                 exact-minimality guarantee.")
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC"
           ~doc:"Named circuit (toffoli, peres, g2, g3, g4, fredkin), 1-based \
                 cycle notation like '(7,8)', or a truth-table output column \
                 like '0,1,2,3,4,5,7,6'.")
  in
  Cmd.v
    (Cmd.info "synth" ~exits:contract_exits
       ~doc:"Synthesize a minimal-cost quantum cascade for a reversible function \
             (the paper's MCE algorithm).")
    Term.(
      const run $ telemetry_term $ qubits_arg $ depth_arg $ jobs_arg
      $ library_arg $ all_flag $ json_flag $ synth_index_arg $ verify_index_arg
      $ bidir_flag $ spec_arg)

(* serve *)

let socket_arg =
  let doc =
    "Unix-domain socket path of the daemon (the transport endpoint of the \
     length-prefixed JSON protocol, doc/API.md)."
  in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  (* serve needs the --metrics path itself (SIGUSR1 live dump), not just
     the snapshot-writer closure, so it pairs setup_telemetry's result
     with the raw path instead of using [telemetry_term]. *)
  let serve_telemetry_term =
    Term.(
      const (fun v m t -> (setup_telemetry v m t, m))
      $ verbose_arg $ metrics_arg $ trace_arg)
  in
  let run (finish_telemetry, metrics_path) qubits jobs library_name
      also_libraries socket index_path verify_index workers
      queue_capacity cache_capacity metrics_port trace_file slow_ms =
    guarded ~finish:finish_telemetry @@ fun () ->
    let library = library_of ~qubits library_name in
    let secondary =
      List.map (library_of ~qubits)
        (List.filter (( <> ) library_name) (List.sort_uniq String.compare also_libraries))
    in
    (* Readiness: false until the index is loaded and the daemon
       accepting; false again the moment the drain begins —
       scrapers see the flip before the Unix socket unlinks. *)
    let accepting = Atomic.make false in
    let daemon_ref = ref None in
    let service_ref = ref None in
    let ready () =
      match !daemon_ref with
      | Some d -> Atomic.get accepting && not (Server.Daemon.draining d)
      | None -> false
    in
    (* The /readyz body: one line summarizing the published index so a
       deployment can assert completeness without the metrics scrape.
       [Http.start] runs before the index loads, hence the ref. *)
    let describe () =
      match Option.bind !service_ref Server.Service.index_status with
      | Some (size, depth, coverage, complete) ->
          Printf.sprintf "ok functions=%d depth=%d coverage=%d complete=%b\n"
            size depth coverage complete
      | None -> "ok\n"
    in
    let http =
      Option.map
        (fun port ->
          (* an endpoint exporting the registry needs it recording; span
             trees only when --trace-file, --metrics or --trace asks *)
          if not (Telemetry.enabled ()) then
            Telemetry.set_enabled ~spans:false true;
          Server.Http.start ~port ~ready ~describe ())
        metrics_port
    in
    let trace_oc =
      Option.map
        (fun path ->
          let oc = open_out path in
          Telemetry.set_enabled true;
          Telemetry.set_jsonl (Some oc);
          oc)
        trace_file
    in
    let verify =
      if verify_index then Census_index.Full else Census_index.Sample
    in
    let index = Option.map (Census_index.load ~verify library) index_path in
    (match index with
    | Some idx ->
        Format.printf "index: %d functions, exact to cost %d%s@."
          (Census_index.size idx) (Census_index.depth idx)
          (if Census_index.is_complete idx then " (complete)" else "")
    | None -> ());
    let service =
      Server.Service.create ~jobs ?index ~cache_capacity
        ~index_verify:verify ~libraries:secondary library
    in
    if secondary <> [] then
      Format.printf "libraries: %s@."
        (String.concat ", " (Server.Service.libraries service));
    service_ref := Some service;
    (* SIGTERM/SIGINT request the drain; SIGUSR1 dumps a live snapshot to
       the --metrics path, SIGHUP hot-reloads the census index — both
       without restarting.  The handlers go in before the socket is bound
       and "serving on" is logged, so a signal sent the moment the banner
       appears drains the daemon instead of killing it. *)
    let stop_requested = Atomic.make false in
    let usr1 = Atomic.make false in
    let hup = Atomic.make false in
    let previous =
      List.map
        (fun s ->
          ( s,
            Sys.signal s
              (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)) ))
        [ Sys.sigterm; Sys.sigint ]
    in
    (try
       Sys.set_signal Sys.sigusr1
         (Sys.Signal_handle (fun _ -> Atomic.set usr1 true))
     with Invalid_argument _ -> ());
    (try
       Sys.set_signal Sys.sighup
         (Sys.Signal_handle (fun _ -> Atomic.set hup true))
     with Invalid_argument _ -> ());
    let daemon =
      Server.Daemon.start ~workers ~queue_capacity ?slow_ms
        ~trace:(trace_file <> None) ~socket service
    in
    daemon_ref := Some daemon;
    Atomic.set accepting true;
    (* One structured line per reload attempt, success or failure, so
       operators can grep the daemon's stderr for reload outcomes. *)
    let log_reload fields =
      let obj =
        Telemetry.Json.Obj (("type", Telemetry.Json.String "index_reload") :: fields)
      in
      Format.eprintf "%s@." (Telemetry.Json.to_string obj)
    in
    let reload_index () =
      match index_path with
      | None ->
          log_reload
            [ ("ok", Telemetry.Json.Bool false);
              ("error", Telemetry.Json.String "no --index configured") ]
      | Some path -> (
          match Server.Service.reload_index service path with
          | size, depth ->
              let coverage, complete =
                match Server.Service.index_status service with
                | Some (_, _, coverage, complete) -> (coverage, complete)
                | None -> (0, false)
              in
              log_reload
                [ ("ok", Telemetry.Json.Bool true);
                  ("path", Telemetry.Json.String path);
                  ("functions", Telemetry.Json.Int size);
                  ("depth", Telemetry.Json.Int depth);
                  ("coverage", Telemetry.Json.Int coverage);
                  ("complete", Telemetry.Json.Bool complete) ]
          | exception
              (( Checkpoint.Corrupt msg | Checkpoint.Mismatch msg
               | Sys_error msg ) as exn) ->
              let kind =
                match exn with
                | Checkpoint.Corrupt _ -> "corrupt"
                | Checkpoint.Mismatch _ -> "mismatch"
                | _ -> "io"
              in
              log_reload
                [ ("ok", Telemetry.Json.Bool false);
                  ("path", Telemetry.Json.String path);
                  ("kind", Telemetry.Json.String kind);
                  ("error", Telemetry.Json.String msg) ])
    in
    while not (Atomic.get stop_requested) do
      if Atomic.get usr1 then begin
        Atomic.set usr1 false;
        match metrics_path with
        | Some path -> (
            try
              Telemetry.write_snapshot path;
              Format.eprintf "telemetry snapshot written to %s@." path
            with Sys_error msg ->
              Format.eprintf "error: cannot write telemetry snapshot: %s@." msg)
        | None -> Format.eprintf "qsynth: SIGUSR1 ignored (no --metrics FILE)@."
      end;
      if Atomic.get hup then begin
        Atomic.set hup false;
        reload_index ()
      end;
      Thread.delay 0.05
    done;
    Atomic.set accepting false;
    Server.Daemon.stop daemon;
    Server.Daemon.wait daemon;
    Option.iter Server.Http.stop http;
    Option.iter
      (fun oc ->
        Telemetry.set_jsonl None;
        close_out oc)
      trace_oc;
    List.iter
      (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ())
      previous;
    exit_ok
  in
  let workers_arg =
    Arg.(value & opt (pos_int ~what:"WORKERS") 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains evaluating search queries in parallel, \
                 spawned by the first one.  Requests answered from a complete \
                 $(b,--index) run on the connection's reader thread and never \
                 use a worker.")
  in
  let also_library_arg =
    let choices = List.map (fun n -> (n, n)) Library.Registry.names in
    Arg.(value & opt_all (enum choices) [] & info [ "also-library" ] ~docv:"NAME"
           ~doc:(Printf.sprintf
                   "Additionally serve requests for library $(docv) (%s; \
                    repeatable).  Each extra library gets its own \
                    forward-BFS engine, so its answers are byte-identical to \
                    one-shot $(b,qsynth synth --json --library) $(docv); the \
                    $(b,--index) stays bound to the primary $(b,--library).  \
                    Requests naming a library the daemon was not configured \
                    with fail with the 'bad-request' error listing the \
                    configured ones."
                   (Arg.doc_alts_enum choices)))
  in
  let queue_arg =
    Arg.(value & opt (pos_int ~what:"QUEUE") 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Bound on the accepted-but-unstarted search queue; beyond it \
                 requests are rejected immediately with the 'overloaded' error \
                 and a retry-after hint (backpressure, not buffering).  \
                 Complete-index answers are never queued.")
  in
  let cache_arg =
    Arg.(value & opt (nonneg_int ~what:"N") 1024 & info [ "cache" ] ~docv:"N"
           ~doc:"LRU response-cache capacity (0 disables).  Hits and misses \
                 appear as $(b,server.cache.hit)/$(b,server.cache.miss) in \
                 $(b,--metrics) snapshots.")
  in
  let port =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 && n <= 65535 -> Ok n
      | Some _ -> Error (`Msg "PORT must be in 0..65535")
      | None -> Error (`Msg (Printf.sprintf "invalid PORT value %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let metrics_port_arg =
    Arg.(value & opt (some port) None & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Serve observability HTTP endpoints on 127.0.0.1:$(docv): \
                 $(b,/metrics) (Prometheus text exposition of the telemetry \
                 registry), $(b,/healthz) (liveness) and $(b,/readyz) \
                 (readiness: 503 until the index is loaded and the socket \
                 accepts, and again once the drain begins; the 200 body is \
                 a one-line index summary — functions, depth, coverage, \
                 completeness).  0 picks an ephemeral port.")
  in
  let trace_file_arg =
    Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE"
           ~doc:"Enable per-request tracing: every request gets a trace id \
                 (echoed in the response's $(b,trace) field) and its closed \
                 span tree is appended to $(docv) as JSON lines.")
  in
  let slow_arg =
    Arg.(value & opt (some (nonneg_int ~what:"N")) None & info [ "slow-ms" ] ~docv:"N"
           ~doc:"Log every request whose total latency (queueing included) \
                 reaches $(docv) milliseconds as one structured JSON line on \
                 stderr: trace id, request key, plan, per-stage breakdown, \
                 queue depth at admission.  0 logs every request.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits:contract_exits
       ~doc:"Run the synthesis daemon: one engine (the library and its \
             census index), shared by every client over a Unix-domain \
             socket.  Drains gracefully on SIGTERM/SIGINT: stops accepting, answers everything already \
             accepted, unlinks the socket, exits 0.  SIGUSR1 dumps a live \
             telemetry snapshot to the $(b,--metrics) path.  SIGHUP \
             re-reads the $(b,--index) file and hot-swaps it atomically \
             (validated first; kept unchanged on corruption or mismatch) \
             without dropping in-flight requests.")
    Term.(
      const run $ serve_telemetry_term $ qubits_arg $ jobs_arg $ library_arg
      $ also_library_arg $ socket_arg $ request_index_arg $ verify_index_arg
      $ workers_arg $ queue_arg $ cache_arg
      $ metrics_port_arg $ trace_file_arg $ slow_arg)

(* batch *)

let m_client_retries = Telemetry.Counter.create "client.retries"

let batch_cmd =
  let run finish_telemetry qubits jobs library_name socket index_path
      verify_index max_retries file =
    guarded ~finish:finish_telemetry @@ fun () ->
    let ic = if file = "-" then stdin else open_in file in
    Fun.protect ~finally:(fun () -> if file <> "-" then close_in_noerr ic)
    @@ fun () ->
    let answer =
      match socket with
      | Some path ->
          let fd = Server.Protocol.connect path in
          at_exit (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
          let rng = Random.State.make [| 0x0b5e; max_retries |] in
          fun req ->
            (* An Overloaded reply is backpressure, not an answer: honor
               the daemon's retry_after_ms hint with capped exponential
               backoff plus jitter, up to --max-retries, then let the
               last reply through so the output line records the drop. *)
            let rec attempt n =
              let resp =
                match Server.Protocol.call fd req with
                | Ok resp -> resp
                | Error msg -> failwith msg
              in
              match resp.Mce.Response.body with
              | Error (Mce.Response.Overloaded { retry_after_ms })
                when n < max_retries ->
                  let base = float_of_int (max 1 retry_after_ms) /. 1000. in
                  let d = Float.min 2.0 (base *. (2. ** float_of_int n)) in
                  Unix.sleepf (d +. Random.State.float rng (0.25 *. d));
                  Telemetry.Counter.incr m_client_retries;
                  attempt (n + 1)
              | _ -> resp
            in
            attempt 0
      | None ->
          (* no daemon: evaluate locally against one service, so a
             whole file shares one response cache, as a daemon would *)
          let library = library_of ~qubits library_name in
          let verify =
            if verify_index then Census_index.Full else Census_index.Sample
          in
          let index =
            Option.map (Census_index.load ~verify library) index_path
          in
          let service =
            Server.Service.create ~jobs ?index ~index_verify:verify library
          in
          let should_stop = install_cancel () in
          fun req -> Server.Service.answer ~should_stop service req
    in
    let failures = ref 0 in
    let lineno = ref 0 in
    let out = Buffer.create 256 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if String.trim line <> "" then begin
           let resp =
             match Mce.Request.of_string line with
             | Ok req -> answer req
             | Error msg ->
                 incr failures;
                 {
                   Mce.Response.id = None;
                   trace = None;
                   qubits = 0;
                   body =
                     Error
                       (Mce.Response.Bad_request
                          (Printf.sprintf "line %d: %s" !lineno msg));
                 }
           in
           Buffer.clear out;
           Mce.Response.write out resp;
           Buffer.add_char out '\n';
           Buffer.output_buffer stdout out;
           (* a file batch rides the stdout buffer; a stdin batch may
              be a co-process waiting on each answer before it writes
              the next request, so it gets every line as it is made *)
           if file = "-" then flush stdout
         end
       done
     with End_of_file -> ());
    if !failures = 0 then exit_ok else exit_runtime
  in
  let socket_opt_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Send the batch to a running $(b,qsynth serve) daemon \
                 instead of evaluating locally.  $(b,--socket) $(docv) $(b,-) \
                 is the daemon's command-line client: one JSON request per \
                 line in, its response line out (schema: doc/API.md).")
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSONL file of requests, one JSON object per line ('-' for \
                 stdin).  Responses go to stdout in input order, one line \
                 each.  From a file they are written through the stdout \
                 buffer; from stdin ('-') each response is flushed as soon \
                 as it is made, so a co-process can write one request and \
                 read its answer before sending the next.")
  in
  let max_retries_arg =
    Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N"
           ~doc:"With $(b,--socket): retry a request up to $(docv) times when \
                 the daemon replies Overloaded, sleeping its retry_after_ms \
                 hint with capped exponential backoff and jitter between \
                 attempts (0 disables; retries are counted in the \
                 client.retries telemetry counter).")
  in
  Cmd.v
    (Cmd.info "batch" ~exits:contract_exits
       ~doc:"Evaluate a JSONL file of requests — locally against one \
             engine, or through a daemon with $(b,--socket).  Each \
             request's outcome is in-band, in its response's \"ok\" or \
             \"error\" member; the exit status is 1 only when a line fails \
             to decode as a request, or when the daemon connection fails.")
    Term.(
      const run $ telemetry_term $ qubits_arg $ jobs_arg $ library_arg
      $ socket_opt_arg $ request_index_arg $ verify_index_arg $ max_retries_arg
      $ file_arg)

(* simulate *)

let simulate_cmd =
  let simulate qubits cascade_str input =
    guarded @@ fun () ->
    let library = Library.of_name ~qubits Library.default_name in
    let cascade = Cascade.of_string ~qubits cascade_str in
    Format.printf "cascade: %a (cost %d, reasonable: %b)@." Cascade.pp cascade
      (Cascade.cost cascade)
      (Cascade.is_reasonable library cascade);
    let circuit = Automata.Prob_circuit.of_cascade library cascade in
    let inputs =
      match input with
      | Some code -> [ code ]
      | None -> List.init (1 lsl qubits) Fun.id
    in
    List.iter
      (fun input ->
        let pattern = Automata.Prob_circuit.output_pattern circuit ~input in
        Format.printf "input %d -> pattern %a" input Mvl.Pattern.pp pattern;
        if Mvl.Pattern.is_binary pattern then Format.printf " (deterministic)@."
        else begin
          Format.printf " ; measurement:";
          List.iter
            (fun (code, p) -> Format.printf " %d:%a" code Qsim.Prob.pp p)
            (Automata.Measurement.support pattern);
          Format.printf "@."
        end)
      inputs;
    exit_ok
  in
  (* an input code outside the register is a usage error, reported
     before the cascade line is printed *)
  let run qubits cascade_str input =
    match input with
    | Some code when code < 0 || code >= 1 lsl qubits ->
        `Error
          ( true,
            Printf.sprintf "input code %d is outside 0..%d for %d qubits" code
              ((1 lsl qubits) - 1)
              qubits )
    | _ -> `Ok (simulate qubits cascade_str input)
  in
  let cascade_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CASCADE"
           ~doc:"Gate cascade, e.g. 'VCB*FBA*VCA*V+CB'.")
  in
  let input_arg =
    Arg.(value & opt (some int) None & info [ "i"; "input" ] ~docv:"CODE"
           ~doc:"Binary input code, 0 to 2^N - 1 (default: all).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a cascade on binary inputs; print quaternary outputs and exact \
             measurement distributions.")
    Term.(ret (const run $ qubits_arg $ cascade_arg $ input_arg))

(* describe *)

let describe_cmd =
  let run qubits depth spec =
    guarded @@ fun () ->
    let library = library_of ~qubits Library.default_name in
    let target = Reversible.Spec.parse ~bits:qubits spec in
    Format.printf "cycles:   %a@." Reversible.Revfun.pp target;
    Format.printf "formulas: %s@." (Reversible.Anf.describe target);
    Format.printf "linear:   %b@." (Reversible.Anf.is_linear target);
    (match Reversible.Gf2.synthesize target with
    | Some (not_mask, cnots) ->
        Format.printf "affine decomposition: NOT(mask=%d) then %d CNOT(s)@." not_mask
          (List.length cnots)
    | None -> ());
    (match Mce.express ~max_depth:depth library target with
    | Some r ->
        Format.printf "quantum cost: %d@.@.%s@." r.Mce.cost
          (Draw.to_ascii ~qubits ~not_mask:r.Mce.not_mask r.Mce.cascade)
    | None -> Format.printf "no realization within depth %d@." depth);
    exit_ok
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC"
           ~doc:"Circuit to describe (names, cycles, formulas or output lists).")
  in
  Cmd.v
    (Cmd.info "describe"
       ~doc:"Everything about one reversible function: cycle form, per-output \
             formulas (ANF), linearity, minimal quantum cascade and its drawing.")
    Term.(const run $ qubits_arg $ depth_arg $ spec_arg)

(* weighted *)

let weighted_cmd =
  let run qubits max_cost model spec =
    guarded @@ fun () ->
    let library = library_of ~qubits Library.default_name in
    let target = Reversible.Spec.parse ~bits:qubits spec in
    (match Weighted.express ~max_cost library ~model target with
    | None -> Format.printf "no realization within cost %d@." max_cost
    | Some r ->
        Format.printf "model %s: cost %d, cascade %s%a  [verified: %b]@."
          (Cost_model.name model) r.Mce.cost
          (if r.Mce.not_mask = 0 then ""
           else Printf.sprintf "NOT(mask=%d) * " r.Mce.not_mask)
          Cascade.pp r.Mce.cascade
          (Verify.cascade_implements ~qubits ~not_mask:r.Mce.not_mask r.Mce.cascade target));
    exit_ok
  in
  let model_arg =
    (* Cmdliner enum: an unknown model is a usage error (exit 2) listing
       the alternatives, not a runtime failure. *)
    let models =
      [
        ("unit", Cost_model.unit);
        ("v-cheap", Cost_model.v_cheap);
        ("feynman-cheap", Cost_model.feynman_cheap);
      ]
    in
    Arg.(value & opt (enum models) Cost_model.unit & info [ "m"; "model" ] ~docv:"MODEL"
           ~doc:
             (Printf.sprintf "Cost model: %s." (Arg.doc_alts_enum models)))
  in
  let max_cost_arg =
    Arg.(value & opt (nonneg_int ~what:"C") 8 & info [ "c"; "max-cost" ] ~docv:"C"
           ~doc:"Total cost bound for the search.")
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC"
           ~doc:"Circuit to synthesize (same formats as synth).")
  in
  Cmd.v
    (Cmd.info "weighted"
       ~doc:"Minimum-cost synthesis under a non-uniform gate cost model \
             (Dial's bucketed search).")
    Term.(const run $ qubits_arg $ max_cost_arg $ model_arg $ spec_arg)

(* libraries *)

let libraries_cmd =
  let run qubits =
    guarded @@ fun () ->
    Format.printf "%-10s %6s %6s  %-16s  %s@." "name" "qubits" "gates"
      "fingerprint" "summary";
    List.iter
      (fun d ->
        let lib = Library.Registry.instantiate ~qubits d in
        Format.printf "%-10s %6d %6d  %016Lx  %s@."
          (Library.Registry.name d) qubits (Library.size lib)
          (Checkpoint.fingerprint lib)
          (Library.Registry.summary d))
      Library.Registry.all;
    exit_ok
  in
  Cmd.v
    (Cmd.info "libraries"
       ~doc:"List the registered gate libraries: name, gate count and the \
             structural fingerprint that checkpoints and census indexes \
             are validated against.  Any listed name is a valid \
             $(b,--library) argument to census, synth, serve and batch.")
    Term.(const run $ qubits_arg)

(* Known fault-injection points; kept in sync with the Faultsim.hit call
   sites (see doc/ROBUSTNESS.md). *)
let fault_points = [ "checkpoint"; "grow"; "merge" ]

(* QSYNTH_FAULT is validated before any command runs: a typo'd spec is a
   usage error (exit 2) with a diagnostic, never a silently disarmed
   fault plan.  (The Faultsim module itself swallows parse errors at
   link time, since it initializes inside every binary.) *)
let validate_fault_env () =
  match Sys.getenv_opt "QSYNTH_FAULT" with
  | None -> ()
  | Some spec -> (
      match Faultsim.parse_spec spec with
      | pairs ->
          List.iter
            (fun (point, _) ->
              if not (List.mem point fault_points) then begin
                Format.eprintf
                  "qsynth: QSYNTH_FAULT: unknown fault point %S (known: %s)@." point
                  (String.concat ", " fault_points);
                exit exit_usage
              end)
            pairs;
          Faultsim.configure (Some spec)
      | exception Invalid_argument msg ->
          Format.eprintf "qsynth: QSYNTH_FAULT: %s@." msg;
          exit exit_usage)

let () =
  validate_fault_env ();
  let doc = "Exact synthesis of 3-qubit quantum circuits (DATE 2005 reproduction)." in
  let info = Cmd.info "qsynth" ~version:"1.0.0" ~doc ~exits:contract_exits in
  let group =
    Cmd.group info
      [
            census_cmd;
            synth_cmd;
            serve_cmd;
            batch_cmd;
            simulate_cmd;
            weighted_cmd;
            describe_cmd;
            libraries_cmd;
      ]
  in
  (* Cmdliner's stock codes (124/125) collide with the timeout/budget
     contract above, so map evaluation outcomes explicitly: every usage
     problem is 2, an escaped exception is 1. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> exit_ok
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> exit_runtime)
