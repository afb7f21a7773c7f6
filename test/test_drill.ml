(* The one drill runner: every family's failing control leaves the same
   flight mark, every platform renders through the same record, and the
   explorer's two entry points reach the same verdict. *)

open Simkit

let check_bool = Alcotest.(check bool)

let pm = Tp.Drill.Node Tp.System.Pm_audit

let small load =
  match load with
  | Tp.Drill.Closed p ->
      Tp.Drill.Closed { p with Tp.Drill.records_per_driver = 16; settle = Time.ms 50 }
  | open_loop -> open_loop

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Each negative control fails its verdict, so the armed recorder dumps
   and its last word is "<family> gate failed: " plus the oracle's
   summary — the mark CI greps for. *)
let test_failing_controls_mark_flight () =
  List.iter
    (fun family ->
      let s = Test_util.drill_scenario ~defenses:false pm family in
      let path = Filename.temp_file "flight" ".json" in
      Sys.remove path;
      let r =
        match Tp.Drill.run ~flight:path s with
        | Ok r -> r
        | Error e -> Alcotest.fail (family ^ ": " ^ e)
      in
      let v = Tp.Drill.Oracle.of_report r in
      check_bool (family ^ " control fails") false (Tp.Drill.Oracle.pass v);
      check_bool (family ^ " dumped") true (Sys.file_exists path);
      let labels =
        match Json.parse (Test_util.read_file path) with
        | Error e -> Alcotest.fail (family ^ " flight unparseable: " ^ e)
        | Ok doc -> (
            match Json.member "marks" doc with
            | Some (Json.List marks) ->
                List.filter_map
                  (fun m -> Option.bind (Json.member "label" m) Json.to_string_opt)
                  marks
            | _ -> Alcotest.fail (family ^ " flight has no marks"))
      in
      Sys.remove path;
      let mark = family ^ " gate failed: " ^ Tp.Drill.Oracle.summary v in
      check_bool (family ^ " mark: " ^ mark) true (List.mem mark labels);
      check_bool (family ^ " prefix") true
        (List.exists (starts_with ~prefix:(family ^ " gate failed: ")) labels))
    [ "corruption"; "grayfail"; "overload" ]

let keys = function
  | Json.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "report is not an object"

let test_one_renderer () =
  let run platform =
    let s = Test_util.drill_scenario platform "none" in
    Test_util.drill_report { s with Tp.Drill.load = small s.Tp.Drill.load }
  in
  let node = Tp.Drill.report_json (run pm) in
  let cluster = Tp.Drill.report_json (run Tp.Drill.Cluster) in
  Alcotest.(check (list string)) "same top-level keys" (keys node) (keys cluster);
  List.iter
    (fun k -> check_bool ("core key " ^ k) true (List.mem k (keys node)))
    [
      "mode"; "plan"; "seed"; "committed"; "failed_txns"; "lost_rows"; "in_doubt_after";
      "orphaned_locks"; "fence_failures"; "pass"; "oracle"; "response_ms"; "availability";
      "recoveries";
    ];
  let mode j = Option.bind (Json.member "mode" j) Json.to_string_opt in
  Alcotest.(check (option string)) "node mode" (Some "pm") (mode node);
  Alcotest.(check (option string)) "cluster mode" (Some "cluster") (mode cluster);
  let section name j = Json.member name j <> Some Json.Null in
  check_bool "cluster has a partition section" true (section "partition" cluster);
  check_bool "node has none" false (section "partition" node);
  check_bool "node has an integrity audit" true (section "integrity" node)

(* Over the first schedules of the CI corpus (seed 42, all PM-kind):
   running a schedule the explorer's way and replaying its repro reach
   the same verdict.  Each run builds a fresh simulation, so one pass
   over the schedules covers every order. *)
let test_execute_matches_replay () =
  List.iter
    (fun s ->
      let executed =
        match Tp.Explorer.execute ~defenses:true s with
        | Tp.Explorer.Verdict v -> Ok v
        | Tp.Explorer.Harness_error e -> Error e
      in
      let replayed =
        Result.map Tp.Explorer.replay_verdict
          (Tp.Explorer.replay
             {
               Tp.Explorer.rp_kind = s.Tp.Explorer.s_kind;
               rp_seed = s.Tp.Explorer.s_seed;
               rp_defenses = true;
               rp_plan = s.Tp.Explorer.s_plan;
               rp_recovery = s.Tp.Explorer.s_recovery;
             })
      in
      check_bool
        (Printf.sprintf "schedule %d: execute and replay agree" s.Tp.Explorer.s_index)
        true (executed = replayed))
    (Tp.Explorer.corpus ~seed:42 ~budget:8)

let suite =
  [
    ( "drill.runner",
      [
        Alcotest.test_case "failing controls leave a gate-failed flight mark" `Slow
          test_failing_controls_mark_flight;
        Alcotest.test_case "one renderer, same core keys" `Quick test_one_renderer;
        Alcotest.test_case "execute and replay agree on the seed-42 corpus" `Slow
          test_execute_matches_replay;
      ] );
  ]
