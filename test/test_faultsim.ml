(* Direct tests for the fault-injection module itself: spec parsing
   (valid, malformed), point:count trigger arithmetic, multi-point
   specs, re-arming semantics, and the disarmed fast path.  Every test
   disarms on exit so the suite-wide QSYNTH_FAULT environment (CI arms
   a never-firing spec) is not clobbered for other binaries — this
   binary runs its own process, but restoring the initial arming keeps
   the tests order-independent. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* Run [f] with [spec] armed, then restore whatever was armed before —
   configure resets all hit counters, so restoration is exact. *)
let with_spec spec f =
  let saved = Faultsim.armed () in
  Faultsim.configure spec;
  Fun.protect ~finally:(fun () -> Faultsim.configure saved) f

let fired point f =
  match f () with
  | () -> false
  | exception Faultsim.Injected p ->
      check Alcotest.string "injected point" point p;
      true

(* {1 Spec parsing} *)

let test_parse_valid () =
  check
    Alcotest.(list (pair string int))
    "single pair" [ ("merge", 3) ]
    (Faultsim.parse_spec "merge:3");
  check
    Alcotest.(list (pair string int))
    "multi pair"
    [ ("checkpoint", 2); ("grow", 1) ]
    (Faultsim.parse_spec "checkpoint:2,grow:1");
  check
    Alcotest.(list (pair string int))
    "pairs trimmed around commas"
    [ ("merge", 3); ("grow", 1) ]
    (Faultsim.parse_spec "merge:3, grow:1");
  (* empty segments are absent, not errors: "", trailing and doubled
     commas all normalize away *)
  List.iter
    (fun (label, spec, expect) ->
      check Alcotest.(list (pair string int)) label expect
        (Faultsim.parse_spec spec))
    [
      ("empty spec", "", []);
      ("trailing comma", "merge:3,", [ ("merge", 3) ]);
      ("doubled comma", "merge:3,,grow:1", [ ("merge", 3); ("grow", 1) ]);
    ]

let test_parse_malformed () =
  let rejected spec =
    match Faultsim.parse_spec spec with
    | _ -> Alcotest.failf "spec %S should have been rejected" spec
    | exception Invalid_argument _ -> ()
  in
  List.iter rejected
    [ "merge"; "merge:"; ":3"; "merge:0"; "merge:-1"; "merge:x"; "merge:1:2" ]

let test_configure_malformed () =
  match with_spec (Some "nope") (fun () -> ()) with
  | () -> Alcotest.fail "configure should reject a malformed spec"
  | exception Invalid_argument _ -> ()

(* {1 Trigger arithmetic} *)

let test_fires_on_exact_count () =
  with_spec (Some "p:3") @@ fun () ->
  checkb "hit 1 silent" false (fired "p" (fun () -> Faultsim.hit "p"));
  checkb "hit 2 silent" false (fired "p" (fun () -> Faultsim.hit "p"));
  checkb "hit 3 fires" true (fired "p" (fun () -> Faultsim.hit "p"))

let test_other_points_ignored () =
  with_spec (Some "p:1") @@ fun () ->
  checkb "unarmed point silent" false (fired "q" (fun () -> Faultsim.hit "q"));
  checkb "armed point fires" true (fired "p" (fun () -> Faultsim.hit "p"))

let test_disarms_after_firing () =
  (* fire-once: the cell disarms before raising, so the same point is
     survivable on retry *)
  with_spec (Some "p:2") @@ fun () ->
  checkb "hit 1 silent" false (fired "p" (fun () -> Faultsim.hit "p"));
  checkb "hit 2 fires" true (fired "p" (fun () -> Faultsim.hit "p"));
  for _ = 1 to 5 do
    checkb "disarmed after firing" false (fired "p" (fun () -> Faultsim.hit "p"))
  done

let test_multi_point_independent_counters () =
  with_spec (Some "a:2,b:1") @@ fun () ->
  checkb "b fires at its own count" true (fired "b" (fun () -> Faultsim.hit "b"));
  checkb "a counter unaffected by b" false (fired "a" (fun () -> Faultsim.hit "a"));
  checkb "a fires at its own count" true (fired "a" (fun () -> Faultsim.hit "a"))

let test_configure_resets_counters () =
  with_spec (Some "p:2") @@ fun () ->
  Faultsim.hit "p";
  (* re-arming the same spec must restart the count from zero *)
  Faultsim.configure (Some "p:2");
  checkb "count restarted" false (fired "p" (fun () -> Faultsim.hit "p"));
  checkb "fires on new count" true (fired "p" (fun () -> Faultsim.hit "p"))

(* {1 Disarmed fast path} *)

let test_disarmed_is_silent () =
  with_spec None @@ fun () ->
  check Alcotest.(option string) "nothing armed" None (Faultsim.armed ());
  for _ = 1 to 1000 do
    Faultsim.hit "p";
    Faultsim.hit "merge";
    Faultsim.hit ""
  done

let test_armed_reports_spec () =
  with_spec (Some "merge:7") @@ fun () ->
  check Alcotest.(option string) "armed spec" (Some "merge:7") (Faultsim.armed ())

let () =
  Alcotest.run "faultsim"
    [
      ( "spec parsing",
        [
          Alcotest.test_case "valid specs" `Quick test_parse_valid;
          Alcotest.test_case "malformed specs" `Quick test_parse_malformed;
          Alcotest.test_case "configure rejects malformed" `Quick
            test_configure_malformed;
        ] );
      ( "trigger arithmetic",
        [
          Alcotest.test_case "fires on exact count" `Quick
            test_fires_on_exact_count;
          Alcotest.test_case "other points ignored" `Quick
            test_other_points_ignored;
          Alcotest.test_case "disarms after firing" `Quick
            test_disarms_after_firing;
          Alcotest.test_case "multi-point counters independent" `Quick
            test_multi_point_independent_counters;
          Alcotest.test_case "configure resets counters" `Quick
            test_configure_resets_counters;
        ] );
      ( "fast path",
        [
          Alcotest.test_case "disarmed is silent" `Quick test_disarmed_is_silent;
          Alcotest.test_case "armed () reports spec" `Quick
            test_armed_reports_spec;
        ] );
    ]
