(* Tests for the observability layer: spans, the metrics registry, and
   the latency breakdowns built on them. *)

open Simkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Span: nesting, ordering, parents --- *)

(* A hand-cranked clock so span timestamps are exact. *)
let manual_clock () =
  let now = ref 0 in
  ((fun () -> !now), fun t -> now := t)

let test_span_disabled_is_free () =
  let c = Span.create () in
  let sp = Span.start c "op" in
  check_bool "null span" true (Span.is_null sp);
  Span.annotate sp ~key:"k" "v";
  Span.finish c sp;
  check_int "nothing recorded" 0 (Span.count c);
  check_bool "shared null" true (Span.is_null Span.null)

let test_span_nesting_and_order () =
  let clock, set = manual_clock () in
  let c = Span.create ~clock () in
  Span.enable c;
  set 100;
  let outer = Span.start c ~track:"tmf" "commit" in
  set 200;
  let inner = Span.start c ~track:"tmf" ~parent:outer "flush" in
  Span.annotate inner ~key:"records" "8";
  set 350;
  Span.finish c inner;
  set 500;
  Span.finish c outer;
  let recs = Span.records c in
  check_int "two spans" 2 (List.length recs);
  (* Ordered by start time: outer first even though it finished last. *)
  let o = List.nth recs 0 and i = List.nth recs 1 in
  check_string "outer name" "commit" o.Span.r_name;
  check_string "inner name" "flush" i.Span.r_name;
  check_int "outer start" 100 o.Span.r_start;
  check_int "outer end" 500 o.Span.r_end;
  check_int "inner start" 200 i.Span.r_start;
  check_int "inner end" 350 i.Span.r_end;
  check_bool "inner parented on outer" true (i.Span.r_parent = Some o.Span.r_id);
  check_bool "outer has no parent" true (o.Span.r_parent = None);
  check_bool "args kept" true (i.Span.r_args = [ ("records", "8") ])

let test_span_double_finish_and_capacity () =
  let clock, set = manual_clock () in
  let c = Span.create ~clock ~capacity:2 () in
  Span.enable c;
  let spans =
    List.map
      (fun i ->
        set (i * 10);
        Span.start c (Printf.sprintf "s%d" i))
      [ 1; 2; 3 ]
  in
  set 100;
  List.iter (fun sp -> Span.finish c sp) spans;
  List.iter (fun sp -> Span.finish c sp) spans;
  check_int "capacity bounds records" 2 (Span.count c);
  check_int "third span dropped" 1 (Span.dropped c);
  Span.clear c;
  check_int "clear empties" 0 (Span.count c)

let test_span_chrome_json_golden () =
  let clock, set = manual_clock () in
  let c = Span.create ~clock () in
  Span.enable c;
  set 1000;
  let sp = Span.start c ~track:"pm" "pm.write" in
  Span.annotate sp ~key:"len" "64";
  set 3000;
  Span.finish c sp;
  let expected =
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
    ^ "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
    ^ "\"args\":{\"name\":\"pm\"}},"
    ^ "{\"ph\":\"X\",\"name\":\"pm.write\",\"cat\":\"sim\",\"pid\":0,\"tid\":0,"
    ^ "\"ts\":1,\"dur\":2,\"args\":{\"len\":\"64\"}}]}"
  in
  check_string "chrome trace" expected (Span.to_chrome_json c)

let test_span_cross_track_flow () =
  let clock, set = manual_clock () in
  let c = Span.create ~clock () in
  Span.enable c;
  set 0;
  let caller = Span.start c ~track:"client" "txn" in
  set 10;
  let callee = Span.start c ~track:"tmf" ~parent:caller "tmf.commit" in
  set 20;
  Span.finish c callee;
  set 30;
  Span.finish c caller;
  let json = Span.to_chrome_json c in
  (* A cross-track parent must emit a flow arrow pair. *)
  let has sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "flow start" true (has "\"ph\":\"s\"");
  check_bool "flow finish" true (has "\"ph\":\"f\"")

(* --- Stat: total on empty --- *)

let test_stat_empty_total () =
  let st = Stat.create ~name:"empty" () in
  check_bool "percentile nan" true (Float.is_nan (Stat.percentile st 0.99));
  let s = Stat.summary st in
  check_int "n zero" 0 s.Stat.n;
  check_bool "mean zero" true (s.Stat.mean = 0.0);
  (* Must not raise. *)
  let (_ : string) = Format.asprintf "%a" Stat.pp_summary st in
  ()

(* --- Metrics registry --- *)

let test_metrics_find_or_create () =
  let m = Metrics.create () in
  let a = Metrics.stat m "adp.flush_latency" in
  let b = Metrics.stat m "adp.flush_latency" in
  check_bool "same instrument" true (a == b);
  Stat.add a 10.0;
  check_bool "shared samples" true (Stat.count b = 1);
  let c1 = Metrics.counter m "msg.requests" in
  Stat.Counter.incr c1;
  check_int "counter via registry" 1 (Stat.Counter.get (Metrics.counter m "msg.requests"));
  check_bool "kind conflict raises" true
    (match Metrics.stat m "msg.requests" with
    | (_ : Stat.t) -> false
    | exception Invalid_argument _ -> true);
  check_bool "paths sorted" true
    (Metrics.paths m = [ "adp.flush_latency"; "msg.requests" ])

let test_metrics_dump_never_aborts () =
  let m = Metrics.create () in
  let (_ : Stat.t) = Metrics.stat m "never.recorded" in
  Metrics.register_gauge m "a.gauge" (fun () -> 42.0);
  (* pp_table over empty instruments must not raise. *)
  let table = Format.asprintf "%a" Metrics.pp_table m in
  check_bool "table mentions path" true (String.length table > 0);
  let json = Metrics.to_json m in
  let has sub =
    let n = String.length sub and l = String.length json in
    let rec go i = i + n <= l && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "json has stat path" true (has "never.recorded");
  check_bool "json has gauge value" true (has "a.gauge")

(* --- End to end: an instrumented hot-stock cell --- *)

let test_cell_metrics_populate () =
  let obs = Obs.create () in
  let (_ : Workloads.Figures.cell) =
    Workloads.Figures.run_cell ~obs ~mode:Tp.System.Disk_audit ~drivers:1
      ~inserts_per_txn:4 ~records_per_driver:40 ()
  in
  let m = Obs.metrics obs in
  let n path = Stat.count (Metrics.stat m path) in
  check_int "one response per txn" 10 (n "txn.response_ns");
  check_int "one commit span stat per txn" 10 (n "tmf.commit_ns");
  check_bool "audit flushes seen" true (n "adp.flush_latency" > 0);
  check_bool "log writes seen" true (n "log.write_ns" > 0);
  check_bool "disk service seen" true (n "disk.service_ns" > 0);
  check_bool "message hops seen" true (n "msg.hop_ns" > 0)

let test_cell_trace_tree () =
  let obs = Obs.create () in
  Span.enable (Obs.spans obs);
  let (_ : Workloads.Figures.cell) =
    Workloads.Figures.run_cell ~obs ~mode:Tp.System.Disk_audit ~drivers:1
      ~inserts_per_txn:4 ~records_per_driver:20 ()
  in
  let spans = Obs.spans obs in
  check_bool "spans recorded" true (Span.count spans > 0);
  let recs = Span.records spans in
  let by_name name = List.filter (fun r -> r.Span.r_name = name) recs in
  check_int "one root per txn" 5 (List.length (by_name "txn"));
  check_int "one tmf.commit per txn" 5 (List.length (by_name "tmf.commit"));
  (* Every tmf.commit must be parented (via the message envelope) under a
     client-side span of the same trace tree. *)
  let ids = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace ids r.Span.r_id r) recs;
  List.iter
    (fun r ->
      match r.Span.r_parent with
      | None -> Alcotest.fail "tmf.commit without a caller span"
      | Some p ->
          let parent = Hashtbl.find ids p in
          check_string "commit hangs under the client" "client" parent.Span.r_track)
    (by_name "tmf.commit");
  let json = Span.to_chrome_json spans in
  let has sub =
    let n = String.length sub and l = String.length json in
    let rec go i = i + n <= l && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "chrome wrapper" true (has "\"traceEvents\"");
  check_bool "contains commit spans" true (has "\"tmf.commit\"")

let test_breakdown_flush_shares () =
  let b = Workloads.Figures.breakdown ~records_per_driver:300 ~drivers:1 ~boxcar:8 () in
  check_bool "commits happened (disk)" true (b.Workloads.Figures.bd_disk.Workloads.Figures.b_commits > 0);
  check_bool "commits happened (pm)" true (b.Workloads.Figures.bd_pm.Workloads.Figures.b_commits > 0);
  (* The paper's claim as an assertion: waiting on trail durability
     dominates the disk-mode commit but not the PM-mode one. *)
  check_bool "disk flush share dominates" true (b.Workloads.Figures.bd_disk_flush_share > 0.5);
  check_bool "pm flush share is small" true (b.Workloads.Figures.bd_pm_flush_share < 0.2);
  check_bool "disk > pm" true
    (b.Workloads.Figures.bd_disk_flush_share > b.Workloads.Figures.bd_pm_flush_share);
  (* Shares of response time must be sane fractions. *)
  List.iter
    (fun m ->
      List.iter
        (fun st ->
          check_bool "share in [0,1]" true
            (st.Workloads.Figures.stage_share >= 0.0 && st.Workloads.Figures.stage_share <= 1.0))
        m.Workloads.Figures.b_stages)
    [ b.Workloads.Figures.bd_disk; b.Workloads.Figures.bd_pm ]

let suite =
  [
    ( "obs.span",
      [
        Alcotest.test_case "disabled collector is free" `Quick test_span_disabled_is_free;
        Alcotest.test_case "nesting, ordering, parents" `Quick test_span_nesting_and_order;
        Alcotest.test_case "double finish and capacity" `Quick test_span_double_finish_and_capacity;
        Alcotest.test_case "chrome json golden" `Quick test_span_chrome_json_golden;
        Alcotest.test_case "cross-track flow arrows" `Quick test_span_cross_track_flow;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "empty stat never aborts" `Quick test_stat_empty_total;
        Alcotest.test_case "find-or-create shares instruments" `Quick test_metrics_find_or_create;
        Alcotest.test_case "dumps never abort" `Quick test_metrics_dump_never_aborts;
      ] );
    ( "obs.end_to_end",
      [
        Alcotest.test_case "cell populates the registry" `Quick test_cell_metrics_populate;
        Alcotest.test_case "cell produces a span tree" `Quick test_cell_trace_tree;
        Alcotest.test_case "breakdown: flush dominates disk only" `Quick
          test_breakdown_flush_shares;
      ] );
  ]
