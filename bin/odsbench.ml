(* odsbench: run any experiment of the reproduction from the command line.

   Every sub-command prints a small table to stdout.  --records scales the
   per-driver record count down from the paper's 32 000 for quick runs. *)

open Cmdliner
open Simkit
open Workloads

let records_arg default =
  let doc = "Records inserted per driver (paper: 32000)." in
  Arg.(value & opt int default & info [ "records" ] ~docv:"N" ~doc)

let mode_to_string = function
  | Tp.System.Disk_audit -> "disk"
  | Tp.System.Pm_audit -> "pm"

let hr () = print_endline (String.make 72 '-')

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let json_arg =
  let doc = "Emit the table as a JSON document on stdout instead of text." in
  Cmdliner.Arg.(value & flag & info [ "json" ] ~doc)

(* Shared cell setup for the hot-stock/metrics/trace/timeline commands:
   derive a config from mode+device, build a system, run the mix —
   optionally under an observability context with a telemetry sampler
   running from build to workload end. *)
let run_hot_stock_cell ?obs ?sample_interval ?(device = "npmu") ?(seed = 0xF19L) ~mode
    ~drivers ~boxcar ~records () =
  let base =
    if device = "pmp" then
      { Tp.System.pm_config with Tp.System.pm_device_kind = Tp.System.Prototype_pmp }
    else Tp.System.default_config
  in
  let cfg =
    match mode with
    | Tp.System.Disk_audit -> { base with Tp.System.log_mode = Tp.System.Disk_audit }
    | Tp.System.Pm_audit ->
        { base with Tp.System.log_mode = Tp.System.Pm_audit; txn_state_in_pm = true }
  in
  let sim = Sim.create ~seed () in
  let out = ref None in
  let ts = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"cell" (fun () ->
        let system = Tp.System.build ?obs sim cfg in
        (match (sample_interval, obs) with
        | Some interval, Some o ->
            let t = Timeseries.create ~sim ~metrics:(Obs.metrics o) ~interval () in
            Timeseries.start t;
            ts := Some t
        | _ -> ());
        let params =
          { Hot_stock.drivers; records_per_driver = records; record_bytes = 4096;
            inserts_per_txn = boxcar }
        in
        let result = Hot_stock.run system params in
        (match !ts with Some t -> Timeseries.stop t | None -> ());
        out := Some (system, result))
  in
  Sim.run sim;
  match !out with
  | Some (system, result) ->
      (system, { Figures.mode; drivers; inserts_per_txn = boxcar; result }, !ts)
  | None -> failwith "cell incomplete"

let parse_mode = function "pm" -> Tp.System.Pm_audit | _ -> Tp.System.Disk_audit

(* --- fig1 --- *)

let fig1_json points =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [
             ("drivers", Json.Int p.Figures.f1_drivers);
             ("boxcar", Json.Int p.Figures.f1_boxcar);
             ("txn_size", Json.String p.Figures.txn_size);
             ("rt_disk_us", Json.Float p.Figures.rt_disk_us);
             ("rt_pm_us", Json.Float p.Figures.rt_pm_us);
             ("speedup", Json.Float p.Figures.speedup);
           ])
       points)

let fig1 records json =
  let points = Figures.figure1 ~records_per_driver:records () in
  if json then print_endline (Json.to_string (fig1_json points))
  else begin
  Printf.printf "FIGURE 1: response-time speedup with PM vs transaction size\n";
  Printf.printf "(paper: up to 3.5x, best at small boxcars and 1-2 drivers)\n";
  hr ();
  Printf.printf "%8s %8s %12s %12s %10s\n" "drivers" "txnsize" "disk RT(ms)" "PM RT(ms)" "speedup";
  List.iter
    (fun p ->
      Printf.printf "%8d %8s %12.2f %12.2f %10.2f\n" p.Figures.f1_drivers p.Figures.txn_size
        (p.Figures.rt_disk_us /. 1e3) (p.Figures.rt_pm_us /. 1e3) p.Figures.speedup)
    points;
  hr ()
  end

let fig1_cmd =
  Cmd.v
    (Cmd.info "fig1" ~doc:"Reproduce Figure 1 (response-time speedup vs boxcarring)")
    Term.(const fig1 $ records_arg 32_000 $ json_arg)

(* --- fig2 --- *)

let fig2_json points =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [
             ("drivers", Json.Int p.Figures.f2_drivers);
             ("boxcar", Json.Int p.Figures.f2_boxcar);
             ("txn_size", Json.String p.Figures.f2_txn_size);
             ("elapsed_disk_s", Json.Float p.Figures.elapsed_disk_s);
             ("elapsed_pm_s", Json.Float p.Figures.elapsed_pm_s);
           ])
       points)

let fig2 records json =
  let points = Figures.figure2 ~records_per_driver:records () in
  if json then print_endline (Json.to_string (fig2_json points))
  else begin
  Printf.printf "FIGURE 2: elapsed time vs transaction size (PM eliminates boxcarring)\n";
  Printf.printf "(paper: no-PM rises sharply as boxcarring shrinks; PM nearly flat)\n";
  hr ();
  Printf.printf "%8s %8s %16s %14s\n" "drivers" "txnsize" "disk elapsed(s)" "PM elapsed(s)";
  List.iter
    (fun p ->
      Printf.printf "%8d %8s %16.2f %14.2f\n" p.Figures.f2_drivers p.Figures.f2_txn_size
        p.Figures.elapsed_disk_s p.Figures.elapsed_pm_s)
    points;
  hr ()
  end

let fig2_cmd =
  Cmd.v
    (Cmd.info "fig2" ~doc:"Reproduce Figure 2 (elapsed time vs boxcarring)")
    Term.(const fig2 $ records_arg 32_000 $ json_arg)

(* --- breakdown: machine-readable commit-latency attribution --- *)

let breakdown_json b =
  let mode_json m =
    Json.Obj
      [
        ("mode", Json.String (mode_to_string m.Figures.b_mode));
        ("commits", Json.Int m.Figures.b_commits);
        ("rt_mean_ns", Json.Float m.Figures.b_rt_ns);
        ("flush_share", Json.Float m.Figures.b_flush_share);
        ( "stages",
          Json.List
            (List.map
               (fun st ->
                 Json.Obj
                   [
                     ("stage", Json.String st.Figures.stage_name);
                     ("mean_ns", Json.Float st.Figures.stage_ns);
                     ("share", Json.Float st.Figures.stage_share);
                   ])
               m.Figures.b_stages) );
      ]
  in
  Json.Obj
    [
      ("drivers", Json.Int b.Figures.bd_drivers);
      ("boxcar", Json.Int b.Figures.bd_boxcar);
      ("disk", mode_json b.Figures.bd_disk);
      ("pm", mode_json b.Figures.bd_pm);
      ("disk_flush_share", Json.Float b.Figures.bd_disk_flush_share);
      ("pm_flush_share", Json.Float b.Figures.bd_pm_flush_share);
    ]

let breakdown records drivers boxcar json =
  let b = Figures.breakdown ~records_per_driver:records ~drivers ~boxcar () in
  if json then print_endline (Json.to_string (breakdown_json b))
  else begin
    Printf.printf "Commit-latency breakdown (%d drivers, boxcar %d, %d records/driver)\n"
      b.Figures.bd_drivers b.Figures.bd_boxcar records;
    Printf.printf "(where a committed transaction's response time goes, per the registry)\n";
    let one m =
      hr ();
      Printf.printf "mode=%s  commits=%d  mean RT=%.2f ms  flush share=%.0f%%\n"
        (mode_to_string m.Figures.b_mode) m.Figures.b_commits (m.Figures.b_rt_ns /. 1e6)
        (m.Figures.b_flush_share *. 100.);
      List.iter
        (fun st ->
          Printf.printf "  %-40s %10.3f ms %6.1f%%\n" st.Figures.stage_name
            (st.Figures.stage_ns /. 1e6)
            (st.Figures.stage_share *. 100.))
        m.Figures.b_stages
    in
    one b.Figures.bd_disk;
    one b.Figures.bd_pm;
    hr ()
  end

let breakdown_cmd =
  let drivers = Arg.(value & opt int 1 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:"Attribute commit latency to pipeline stages, disk vs PM audit")
    Term.(const breakdown $ records_arg 2_000 $ drivers $ boxcar $ json_arg)

(* --- trace: span capture to a Chrome/Perfetto trace file --- *)

let trace mode drivers boxcar records out =
  let mode = parse_mode mode in
  let obs = Obs.create () in
  Span.enable (Obs.spans obs);
  let _system, (_ : Figures.cell), _ts =
    run_hot_stock_cell ~obs ~mode ~drivers ~boxcar ~records ()
  in
  let spans = Obs.spans obs in
  let oc = open_out out in
  output_string oc (Span.to_chrome_json spans);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %d spans to %s (%d dropped)\n" (Span.count spans) out
    (Span.dropped spans);
  Printf.printf "open in a Chromium browser at chrome://tracing, or https://ui.perfetto.dev\n"

let trace_cmd =
  let mode =
    Arg.(value & opt string "disk" & info [ "mode" ] ~docv:"disk|pm" ~doc:"Audit backend.")
  in
  let drivers = Arg.(value & opt int 1 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a hot-stock cell with span tracing on and write a Chrome trace file")
    Term.(const trace $ mode $ drivers $ boxcar $ records_arg 200 $ out)

(* --- metrics: dump the full registry for one cell --- *)

let metrics_dump mode drivers boxcar records json =
  let mode = parse_mode mode in
  let obs = Obs.create () in
  let _system, (_ : Figures.cell), _ts =
    run_hot_stock_cell ~obs ~mode ~drivers ~boxcar ~records ()
  in
  let m = Obs.metrics obs in
  if json then print_endline (Metrics.to_json m)
  else Format.printf "%a@?" Metrics.pp_table m

let metrics_cmd =
  let mode =
    Arg.(value & opt string "disk" & info [ "mode" ] ~docv:"disk|pm" ~doc:"Audit backend.")
  in
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Run a hot-stock cell and dump the whole metrics registry")
    Term.(const metrics_dump $ mode $ drivers $ boxcar $ records_arg 1_000 $ json_arg)

(* --- single cell --- *)

let cell mode device drivers boxcar records verbose =
  let mode = parse_mode mode in
  let system, c, _ts = run_hot_stock_cell ~device ~mode ~drivers ~boxcar ~records () in
  if verbose then Format.printf "%a" Tp.System.report system;
  let r = c.Figures.result in
  Printf.printf "hot-stock: mode=%s drivers=%d boxcar=%d records=%d\n" (mode_to_string mode)
    drivers boxcar records;
  hr ();
  Printf.printf "elapsed          %.3f s\n" (Time.to_sec r.Hot_stock.elapsed);
  Printf.printf "transactions     %d (committed %d)\n" r.Hot_stock.txns r.Hot_stock.committed;
  Printf.printf "throughput       %.1f txn/s\n" r.Hot_stock.throughput_tps;
  Printf.printf "response mean    %.2f ms\n" (r.Hot_stock.response.Stat.mean /. 1e6);
  Printf.printf "response p50     %.2f ms\n" (r.Hot_stock.response.Stat.p50 /. 1e6);
  Printf.printf "response p99     %.2f ms\n" (r.Hot_stock.response.Stat.p99 /. 1e6);
  Printf.printf "audit bytes      %d\n" r.Hot_stock.audit_bytes;
  Printf.printf "checkpoint bytes %d\n" r.Hot_stock.checkpoint_bytes;
  hr ()

let cell_cmd =
  let mode =
    Arg.(value & opt string "disk" & info [ "mode" ] ~docv:"disk|pm" ~doc:"Audit backend.")
  in
  let device =
    Arg.(
      value & opt string "npmu"
      & info [ "device" ] ~docv:"npmu|pmp" ~doc:"PM device kind (hardware NPMU or prototype PMP).")
  in
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let verbose =
    Arg.(value & flag & info [ "report" ] ~doc:"Print the per-subsystem operator report.")
  in
  Cmd.v
    (Cmd.info "hot-stock" ~doc:"Run one hot-stock configuration and print details")
    Term.(const cell $ mode $ device $ drivers $ boxcar $ records_arg 4_000 $ verbose)

(* --- E3 latency sweep --- *)

let sweep_latency records =
  Printf.printf "E3: PM write-latency sweep (1 driver, boxcar 8)\n";
  Printf.printf "(the PM advantage should die as the device approaches disk speed)\n";
  hr ();
  Printf.printf "%14s %12s %18s\n" "penalty" "RT (ms)" "speedup vs disk";
  List.iter
    (fun p ->
      Printf.printf "%14s %12.2f %18.2f\n" (Time.to_string p.Figures.penalty)
        (p.Figures.rt_us /. 1e3) p.Figures.speedup_vs_disk)
    (Figures.latency_sweep ~records_per_driver:records ());
  hr ()

let sweep_latency_cmd =
  Cmd.v
    (Cmd.info "sweep-latency" ~doc:"E3: sweep extra PM device write latency")
    Term.(const sweep_latency $ records_arg 4_000)

(* --- E4 mirror ablation --- *)

let sweep_mirror records =
  Printf.printf "E4: mirrored vs unmirrored PM writes (2 drivers, boxcar 8)\n";
  hr ();
  Printf.printf "%10s %12s %14s\n" "mirrored" "RT (ms)" "elapsed (s)";
  List.iter
    (fun p ->
      Printf.printf "%10b %12.2f %14.2f\n" p.Figures.mirrored (p.Figures.rt_us /. 1e3)
        p.Figures.elapsed_s)
    (Figures.mirror_ablation ~records_per_driver:records ());
  hr ()

let sweep_mirror_cmd =
  Cmd.v
    (Cmd.info "sweep-mirror" ~doc:"E4: mirroring-cost ablation")
    Term.(const sweep_mirror $ records_arg 4_000)

(* Recovery failures must reach the operator: message on stderr, exit
   non-zero — not a line lost in a table on stdout. *)
let or_die f =
  try f ()
  with Failure msg ->
    prerr_endline ("odsbench: " ^ msg);
    exit 1

(* --- E5 MTTR --- *)

let mttr records =
  or_die @@ fun () ->
  Printf.printf "E5: crash-recovery time (MTTR), disk scan vs PM fine-grained state\n";
  hr ();
  List.iter
    (fun p ->
      Printf.printf "%-5s %s\n" (mode_to_string p.Figures.m_mode)
        (Format.asprintf "%a" Tp.Recovery.pp_report p.Figures.report))
    (Figures.mttr ~records_per_driver:records ());
  hr ()

let mttr_cmd =
  Cmd.v (Cmd.info "mttr" ~doc:"E5: MTTR comparison") Term.(const mttr $ records_arg 2_000)

(* --- E6 ADP scaling --- *)

let scale_adp records =
  Printf.printf "E6: audit throughput vs ADPs per node (4 drivers, boxcar 8)\n";
  hr ();
  Printf.printf "%6s %6s %12s\n" "adps" "mode" "txn/s";
  List.iter
    (fun p ->
      Printf.printf "%6d %6s %12.1f\n" p.Figures.adps (mode_to_string p.Figures.a_mode)
        p.Figures.tps)
    (Figures.adp_scaling ~records_per_driver:records ());
  hr ()

let scale_adp_cmd =
  Cmd.v
    (Cmd.info "scale-adp" ~doc:"E6: multiple ADPs per node")
    Term.(const scale_adp $ records_arg 4_000)

(* --- E7 failover --- *)

let failover records =
  or_die @@ fun () ->
  Printf.printf "E7: ADP process-pair failover under load (disk mode)\n";
  hr ();
  let r = Figures.failover_under_load ~records_per_driver:records () in
  Printf.printf "committed before failure  %d\n" r.Figures.committed_before;
  Printf.printf "committed total           %d\n" r.Figures.committed_total;
  Printf.printf "ADP takeovers             %d\n" r.Figures.adp_takeovers;
  Printf.printf "takeover delay            %s\n" (Time.to_string r.Figures.outage);
  Printf.printf "lost transactions         %d\n" r.Figures.lost_transactions;
  hr ()

let failover_cmd =
  Cmd.v
    (Cmd.info "failover" ~doc:"E7: process-pair takeover under load")
    Term.(const failover $ records_arg 400)

(* --- drill: scenario → report → verdict --- *)

let drill_usage e =
  prerr_endline ("odsbench drill: " ^ e);
  exit 2

(* --plan-file: a full repro document (schema "odsbench-repro", as
   written by the explorer) pins the platform, seed and defenses, so the
   replay is bit-for-bit; a bare JSON array is just a fault plan, run on
   --mode's faultless scenario with the command-line seed and sizing. *)
let scenario_of_file path platform =
  let doc =
    match Json.parse (read_whole_file path) with
    | Ok d -> d
    | Error e -> drill_usage (path ^ ": " ^ e)
  in
  match doc with
  | Json.List _ -> (
      match Tp.Faultplan.of_json doc with
      | Error e -> drill_usage (path ^ ": " ^ e)
      | Ok plan ->
          `Sized
            { (Result.get_ok (Tp.Drill.scenario platform "none")) with Tp.Drill.name = path; plan })
  | _ -> (
      match Tp.Explorer.repro_of_json doc with
      | Error e -> drill_usage (path ^ ": " ^ e)
      | Ok repro -> `Pinned (Tp.Explorer.scenario_of_repro repro))

let drill mode plan_name plan_file drivers boxcar records seed interval_ms flight list_plans
    no_defenses json =
  let platform =
    match mode with
    | "cluster" -> Tp.Drill.Cluster
    | "disk" -> Tp.Drill.Node Tp.System.Disk_audit
    | _ -> Tp.Drill.Node Tp.System.Pm_audit
  in
  if list_plans then List.iter print_endline (Tp.Drill.plan_names platform)
  else
    (* The command-line seed, and any sizing flag given, override the
       scenario's own; an open-loop scenario owns its load shape. *)
    let sized (s : Tp.Drill.scenario) =
      let s = { s with Tp.Drill.seed = Int64.of_int seed } in
      match (s.Tp.Drill.load, drivers, records, boxcar) with
      | _, None, None, None -> s
      | Tp.Drill.Open _, _, _, _ ->
          drill_usage
            (Printf.sprintf
               "plan '%s' owns its open-loop load: --drivers, --records and --boxcar do not \
                apply"
               s.Tp.Drill.name)
      | Tp.Drill.Closed p, _, _, _ ->
          let ( |? ) o d = Option.value o ~default:d in
          {
            s with
            Tp.Drill.load =
              Tp.Drill.Closed
                {
                  p with
                  Tp.Drill.drivers = drivers |? p.Tp.Drill.drivers;
                  records_per_driver = records |? p.Tp.Drill.records_per_driver;
                  inserts_per_txn = boxcar |? p.Tp.Drill.inserts_per_txn;
                };
          }
    in
    let scenario =
      match plan_file with
      | Some path -> (
          match scenario_of_file path platform with `Sized s -> sized s | `Pinned s -> s)
      | None -> (
          match Tp.Drill.scenario ~defenses:(not no_defenses) platform plan_name with
          | Ok s -> sized s
          | Error e -> drill_usage e)
    in
    let obs, sample_interval =
      if interval_ms > 0 then (Some (Obs.create ()), Some (Time.ms interval_ms))
      else (None, None)
    in
    match Tp.Drill.run ?obs ?sample_interval ?flight scenario with
    | Error e ->
        if json then print_endline (Json.to_string (Json.Obj [ ("error", Json.String e) ]));
        prerr_endline ("odsbench drill: " ^ e);
        exit 1
    | Ok r ->
        if json then print_endline (Json.to_string (Tp.Drill.report_json r))
        else print_string (Tp.Drill.report_text r);
        let v = Tp.Drill.Oracle.of_report r in
        if not (Tp.Drill.Oracle.pass v) then begin
          Printf.eprintf "odsbench drill: %s gate failed: %s\n" scenario.Tp.Drill.name
            (Tp.Drill.Oracle.summary v);
          exit 1
        end

let drill_cmd =
  let mode =
    Arg.(
      value & opt string "pm"
      & info [ "mode" ] ~docv:"disk|pm|cluster"
          ~doc:
            "Audit backend, or $(b,cluster) for the multi-node partition drill \
             (distributed 2PC load, WAN partition, in-doubt resolution, epoch-fence \
             audit).")
  in
  let plan =
    Arg.(
      value & opt string "standard"
      & info [ "plan" ] ~docv:"standard|kills|corruption|grayfail|overload|none|partition"
          ~doc:
            "Drill scenario: $(b,standard) is the full drill (PM: PMM kill, NPMU \
             power-cycle, rail flap, CRC noise, resync), $(b,kills) keeps only the \
             process-pair kills, $(b,corruption) (PM mode) injects silent media decay \
             and torn stores with the scrubber and verified reads armed and audits \
             storage integrity, $(b,grayfail) (PM mode) degrades the mirror NPMU, a \
             fabric rail and a data spindle fail-slow with the latency health monitor, \
             hedged reads and slow-mirror demotion armed, gating on commit p99 against a \
             healthy baseline and a completed demotion/re-admission cycle, \
             $(b,overload) (PM mode) offers an open-loop flash crowd (5x the base rate) \
             to impatient clients with admission control, deadlines, retry budgets and \
             breakers armed, gating on spike goodput above a floor and bounded recovery \
             after the spike, $(b,none) runs faultless.  In cluster mode, \
             $(b,partition) (the default) severs the inter-node link mid-2PC, kills the \
             coordinator, heals, takes over the PM manager and probes the epoch fence.  \
             Every scenario is judged by the same invariant oracle.  $(b,--list-plans) \
             prints the names valid for the selected mode.")
  in
  let list_plans =
    Arg.(
      value & flag
      & info [ "list-plans" ]
          ~doc:"Print the $(b,--plan) names valid for the selected mode and exit.")
  in
  let plan_file =
    Arg.(
      value & opt (some string) None
      & info [ "plan-file" ] ~docv:"FILE"
          ~doc:
            "Replay a schedule from $(docv) instead of a named $(b,--plan).  A repro \
             document written by $(b,odsbench explore) pins the platform, seed and \
             defenses, so the drill replays bit-for-bit and is gated by the shared \
             invariant oracle; a bare JSON array of actions runs under $(b,--mode) with \
             the command-line seed and sizing.")
  in
  let no_defenses =
    Arg.(
      value & flag
      & info [ "no-defenses" ]
          ~doc:
            "Corruption, grayfail and overload plans only: run the same fault schedule \
             with the defenses disabled (corruption: scrubber and verified reads; \
             grayfail: health monitor, hedged reads, demotion and adaptive backoff; \
             overload: admission control, deadlines, retry budgets and breakers) — the \
             negative control that shows what the faults cost undefended (expect a \
             non-zero exit).")
  in
  let sizing name docv doc =
    Arg.(
      value & opt (some int) None
      & info [ name ] ~docv
          ~doc:(doc ^ " (default: the scenario's own sizing; closed-loop scenarios only)."))
  in
  let drivers = sizing "drivers" "N" "Driver count" in
  let boxcar = sizing "boxcar" "N" "Inserts per transaction" in
  let records = sizing "records" "N" "Records inserted per driver" in
  let seed =
    Arg.(value & opt int 0xD5177 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")
  in
  let interval_ms =
    Arg.(
      value & opt int 0
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:
            "Record a telemetry timeline on this cadence and print the event-aligned \
             availability overlay (0 disables sampling).")
  in
  let flight =
    Arg.(
      value & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Arm the failure flight recorder: keep a bounded ring of the most recent \
             commit-path spans plus every fault-injection mark, and dump it to $(docv) \
             as JSON automatically if the verdict fails, ending with a \
             \"<plan> gate failed: ...\" mark — the last moments before the failure, \
             already collected.")
  in
  Cmd.v
    (Cmd.info "drill"
       ~doc:
         "Run a drill scenario: load under a fault schedule, crash, recover, audit that \
          no acknowledged commit was lost, and judge the report with the invariant oracle")
    Term.(
      const drill $ mode $ plan $ plan_file $ drivers $ boxcar $ records $ seed
      $ interval_ms $ flight $ list_plans $ no_defenses $ json_arg)

(* --- explore: adversarial fault-schedule search --- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let explore_text (r : Tp.Explorer.report) =
  Printf.printf "explore: budget=%d seed=%d defenses=%s\n" r.Tp.Explorer.x_budget
    r.Tp.Explorer.x_seed
    (if r.Tp.Explorer.x_defenses then "on" else "OFF (weakened platform)");
  hr ();
  let count k =
    List.length (List.filter (fun s -> s.Tp.Explorer.s_kind = k) r.Tp.Explorer.x_schedules)
  in
  Printf.printf "schedules   %d (pm %d, disk %d, cluster %d, overload %d)\n"
    (List.length r.Tp.Explorer.x_schedules)
    (count Tp.Explorer.Pm) (count Tp.Explorer.Disk) (count Tp.Explorer.Cluster)
    (count Tp.Explorer.Overload);
  Printf.printf "drills      %d (shrink replays included)\n" r.Tp.Explorer.x_drills;
  let uniq f =
    List.length (List.sort_uniq compare (List.map f r.Tp.Explorer.x_coverage))
  in
  Printf.printf "coverage    %d families x %d phases x %d layers (%d cells hit)\n"
    (uniq (fun ((f, _, _), _) -> f))
    (uniq (fun ((_, p, _), _) -> p))
    (uniq (fun ((_, _, l), _) -> l))
    (List.length r.Tp.Explorer.x_coverage);
  hr ();
  Printf.printf "%-18s %-9s %-10s %6s\n" "family" "phase" "layer" "events";
  List.iter
    (fun ((family, phase, layer), n) ->
      Printf.printf "%-18s %-9s %-10s %6d\n" family phase layer n)
    r.Tp.Explorer.x_coverage;
  hr ();
  if r.Tp.Explorer.x_violations = [] then
    Printf.printf "violations  none — every schedule satisfied the oracle\n"
  else
    List.iter
      (fun (v : Tp.Explorer.violation) ->
        Printf.printf
          "VIOLATION   schedule %d (%s, seed 0x%Lx): %d actions shrunk to %d in %d \
           replays\n"
          v.Tp.Explorer.vi_index
          (Tp.Explorer.kind_name v.Tp.Explorer.vi_kind)
          v.Tp.Explorer.vi_seed v.Tp.Explorer.vi_actions v.Tp.Explorer.vi_shrunk_actions
          v.Tp.Explorer.vi_replays;
        List.iter
          (fun ev ->
            Printf.printf "              +%s %s\n"
              (Time.to_string ev.Tp.Faultplan.after)
              (Tp.Faultplan.describe ev.Tp.Faultplan.action))
          v.Tp.Explorer.vi_schedule.Tp.Explorer.s_plan;
        List.iter
          (fun ev ->
            Printf.printf "              recovery+%s %s\n"
              (Time.to_string ev.Tp.Faultplan.after)
              (Tp.Faultplan.describe ev.Tp.Faultplan.action))
          v.Tp.Explorer.vi_schedule.Tp.Explorer.s_recovery;
        (match v.Tp.Explorer.vi_verdict with
        | Tp.Explorer.Verdict verdict ->
            Printf.printf "              oracle: %s\n" (Tp.Drill.Oracle.summary verdict)
        | Tp.Explorer.Harness_error e -> Printf.printf "              error: %s\n" e);
        (match v.Tp.Explorer.vi_repro with
        | Some p -> Printf.printf "              repro: %s\n" p
        | None -> ());
        match v.Tp.Explorer.vi_flight with
        | Some p -> Printf.printf "              flight: %s\n" p
        | None -> ())
      r.Tp.Explorer.x_violations;
  hr ()

let explore budget seed out_dir max_replays no_defenses corpus_only json =
  if corpus_only then
    print_endline (Json.to_string (Tp.Explorer.corpus_json ~seed ~budget))
  else begin
    Option.iter mkdir_p out_dir;
    let progress index violated =
      if violated then
        Printf.eprintf "odsbench explore: schedule %d violated the oracle — shrinking\n%!"
          index
    in
    let r =
      Tp.Explorer.run ~defenses:(not no_defenses) ?out_dir ~max_replays ~progress
        ~budget ~seed ()
    in
    if json then print_endline (Json.to_string (Tp.Explorer.to_json r))
    else explore_text r;
    if Tp.Explorer.found r then begin
      Printf.eprintf "odsbench explore: %d schedule(s) violated the invariant oracle\n"
        (List.length r.Tp.Explorer.x_violations);
      exit 1
    end
  end

let explore_cmd =
  let budget =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N" ~doc:"Schedules to generate and run.")
  in
  let seed =
    Arg.(
      value & opt int 0xE5EED
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Corpus seed.  The whole corpus is a pure function of the seed: the same \
             seed generates byte-identical schedules.")
  in
  let out_dir =
    Arg.(
      value & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Write a replayable repro_NNNN.json (for $(b,odsbench drill --plan-file)) \
             and a flight_NNNN.json black-box dump for every violation (created if \
             missing).")
  in
  let max_replays =
    Arg.(
      value & opt int 150
      & info [ "max-replays" ] ~docv:"N"
          ~doc:"Drill replays the shrinker may spend per violation.")
  in
  let no_defenses =
    Arg.(
      value & flag
      & info [ "no-defenses" ]
          ~doc:
            "Run the same corpus on the weakened platform (PM integrity and overload \
             defenses off) — the negative control: the explorer must find the known \
             failures and shrink them (expect a non-zero exit).")
  in
  let corpus_only =
    Arg.(
      value & flag
      & info [ "corpus-only" ]
          ~doc:
            "Generate and print the schedule corpus as JSON without running any drill — \
             the determinism witness.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Adversarial fault-schedule search: generate seeded composite chaos schedules \
          over the whole fault vocabulary (phase-aware: during load, mid-2PC, during \
          recovery, mid-resync), run each as a drill judged by the shared invariant \
          oracle, and delta-debug any violation to a minimal schedule emitted as a \
          bit-for-bit replayable repro file")
    Term.(
      const explore $ budget $ seed $ out_dir $ max_replays $ no_defenses $ corpus_only
      $ json_arg)

(* --- timeline: continuous telemetry + bottleneck attribution --- *)

(* When both modes run against one --csv path, insert the mode name
   before the extension: out.csv -> out-disk.csv / out-pm.csv. *)
let mode_csv_path path mode_str =
  let ext = Filename.extension path in
  if ext = "" then path ^ "-" ^ mode_str
  else Filename.remove_extension path ^ "-" ^ mode_str ^ ext

let timeline mode_str device drivers boxcar records interval_ms csv json =
  let modes =
    match mode_str with
    | "disk" -> [ Tp.System.Disk_audit ]
    | "pm" -> [ Tp.System.Pm_audit ]
    | "both" -> [ Tp.System.Disk_audit; Tp.System.Pm_audit ]
    | other ->
        prerr_endline ("odsbench timeline: unknown mode '" ^ other ^ "' (disk|pm|both)");
        exit 2
  in
  if interval_ms < 1 then begin
    prerr_endline "odsbench timeline: --interval-ms must be at least 1";
    exit 2
  end;
  let interval = Time.ms interval_ms in
  let results =
    List.map
      (fun mode ->
        let obs = Obs.create () in
        let _system, c, ts =
          run_hot_stock_cell ~obs ~sample_interval:interval ~device ~mode ~drivers ~boxcar
            ~records ()
        in
        let ts = match ts with Some t -> t | None -> assert false in
        (mode, c, ts))
      modes
  in
  let both = List.length results > 1 in
  (match csv with
  | Some path ->
      List.iter
        (fun (mode, _, ts) ->
          let p = if both then mode_csv_path path (mode_to_string mode) else path in
          let oc = open_out p in
          output_string oc (Timeseries.to_csv ts);
          close_out oc;
          if not json then
            Printf.printf "wrote %s (%d samples, %d columns)\n" p
              (Timeseries.sample_count ts)
              (List.length (Timeseries.paths ts)))
        results
  | None -> ());
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            (List.map
               (fun (mode, c, ts) ->
                 let r = c.Figures.result in
                 ( mode_to_string mode,
                   Json.Obj
                     [
                       ("elapsed_s", Json.Float (Time.to_sec r.Hot_stock.elapsed));
                       ("committed", Json.Int r.Hot_stock.committed);
                       ("throughput_tps", Json.Float r.Hot_stock.throughput_tps);
                       ("timeline", Timeseries.json ts);
                       ("bottlenecks", Timeseries.attribution_json ts);
                     ] ))
               results)))
  else
    List.iter
      (fun (mode, c, ts) ->
        let r = c.Figures.result in
        Printf.printf
          "timeline: mode=%s drivers=%d boxcar=%d records=%d interval=%d ms\n"
          (mode_to_string mode) drivers boxcar records interval_ms;
        hr ();
        Printf.printf "samples      %d (%d columns, %d evicted)\n"
          (Timeseries.sample_count ts)
          (List.length (Timeseries.paths ts))
          (Timeseries.evicted ts);
        Printf.printf "elapsed      %.3f s   committed %d   throughput %.1f txn/s\n"
          (Time.to_sec r.Hot_stock.elapsed)
          r.Hot_stock.committed r.Hot_stock.throughput_tps;
        hr ();
        Printf.printf "bottleneck attribution (where the time went):\n";
        Format.printf "%a@?" Timeseries.pp_attribution ts;
        hr ())
      results

let timeline_cmd =
  let mode =
    Arg.(
      value & opt string "both"
      & info [ "mode" ] ~docv:"disk|pm|both" ~doc:"Audit backend(s) to sample.")
  in
  let device =
    Arg.(
      value & opt string "npmu"
      & info [ "device" ] ~docv:"npmu|pmp"
          ~doc:"PM device kind (hardware NPMU or prototype PMP).")
  in
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let interval_ms =
    Arg.(
      value & opt int 10
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Sampling interval in sim milliseconds.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Write the full series as CSV.  With --mode both, the mode name is inserted \
             before the extension (out.csv -> out-disk.csv, out-pm.csv).")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run a hot-stock cell with the continuous-telemetry sampler on and print the \
          bottleneck-attribution report (CSV/JSON export of the full series)")
    Term.(
      const timeline $ mode $ device $ drivers $ boxcar $ records_arg 2_000 $ interval_ms
      $ csv $ json_arg)

(* --- critpath: causal tracing + critical-path attribution --- *)

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let critpath_mode_json (r : Causal.mode_run) =
  Json.Obj
    [
      ("mode", Json.String (mode_to_string r.Causal.cp_mode));
      ("committed", Json.Int r.Causal.cp_committed);
      ("elapsed_s", Json.Float (Time.to_sec r.Causal.cp_elapsed));
      ("critpath", Critpath.to_json r.Causal.cp);
    ]

let critpath_mode_text (r : Causal.mode_run) =
  Printf.printf
    "critpath: mode=%s — causal commit tracing, critical-path attribution\n"
    (mode_to_string r.Causal.cp_mode);
  hr ();
  Printf.printf "committed    %d txns in %.3f s\n" r.Causal.cp_committed
    (Time.to_sec r.Causal.cp_elapsed);
  Format.printf "%a@?" Critpath.pp r.Causal.cp;
  hr ()

let critpath_cluster_json (r : Causal.cluster_run) =
  Json.Obj
    [
      ("mode", Json.String "cluster");
      ("nodes", Json.Int r.Causal.cl_nodes);
      ("committed", Json.Int r.Causal.cl_committed);
      ("failed_txns", Json.Int r.Causal.cl_failed);
      ("elapsed_s", Json.Float (Time.to_sec r.Causal.cl_elapsed));
      ("critpath", Critpath.to_json r.Causal.cl_cp);
    ]

let critpath_cluster_text (r : Causal.cluster_run) =
  Printf.printf
    "critpath: mode=cluster nodes=%d — cross-node 2PC commit tracing\n"
    r.Causal.cl_nodes;
  hr ();
  Printf.printf "committed    %d txns (%d failed) in %.3f s\n" r.Causal.cl_committed
    r.Causal.cl_failed
    (Time.to_sec r.Causal.cl_elapsed);
  Format.printf "%a@?" Critpath.pp r.Causal.cl_cp;
  hr ()

let critpath mode_str drivers boxcar records nodes txns seed chrome json =
  let chrome_path m =
    match chrome with
    | None -> None
    | Some path -> Some (if mode_str = "both" then mode_csv_path path m else path)
  in
  let dump_chrome path_opt doc_opt =
    match (path_opt, doc_opt) with
    | Some p, Some doc ->
        write_text_file p doc;
        if not json then Printf.printf "wrote %s\n" p
    | _ -> ()
  in
  let run_one mode =
    let r =
      Causal.run_mode ~seed:(Int64.of_int seed) ~drivers ~inserts_per_txn:boxcar
        ~records_per_driver:records ~chrome:(chrome <> None) ~mode ()
    in
    dump_chrome (chrome_path (mode_to_string mode)) r.Causal.cp_chrome;
    r
  in
  match mode_str with
  | "cluster" ->
      let r =
        Causal.run_cluster ~seed:(Int64.of_int seed) ~nodes ~drivers ~txns_per_driver:txns
          ~inserts_per_txn:boxcar ~chrome:(chrome <> None) ()
      in
      dump_chrome chrome r.Causal.cl_chrome;
      if json then print_endline (Json.to_string (critpath_cluster_json r))
      else critpath_cluster_text r
  | "disk" | "pm" ->
      let r = run_one (parse_mode mode_str) in
      if json then print_endline (Json.to_string (critpath_mode_json r))
      else critpath_mode_text r
  | "both" ->
      let d = run_one Tp.System.Disk_audit in
      let p = run_one Tp.System.Pm_audit in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj [ ("disk", critpath_mode_json d); ("pm", critpath_mode_json p) ]))
      else begin
        critpath_mode_text d;
        print_newline ();
        critpath_mode_text p
      end
  | other ->
      prerr_endline
        ("odsbench critpath: unknown mode '" ^ other ^ "' (disk|pm|both|cluster)");
      exit 2

let critpath_cmd =
  let mode =
    Arg.(
      value & opt string "both"
      & info [ "mode" ] ~docv:"disk|pm|both|cluster"
          ~doc:
            "What to trace: a single-node hot-stock cell on the disk or PM audit \
             backend ($(b,both) runs one of each for comparison), or $(b,cluster), a \
             multi-node 2PC load whose prepare/decide hops cross the interconnect.")
  in
  let drivers = Arg.(value & opt int 2 & info [ "drivers" ] ~docv:"N" ~doc:"Driver count.") in
  let boxcar =
    Arg.(value & opt int 8 & info [ "boxcar" ] ~docv:"N" ~doc:"Inserts per transaction.")
  in
  let nodes =
    Arg.(
      value & opt int 2
      & info [ "nodes" ] ~docv:"N" ~doc:"Cluster mode: node count (at least 2).")
  in
  let txns =
    Arg.(
      value & opt int 60
      & info [ "txns" ] ~docv:"N" ~doc:"Cluster mode: transactions per driver.")
  in
  let seed =
    Arg.(value & opt int 0xCA75A & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")
  in
  let chrome =
    Arg.(
      value & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also export the full span collection as a Chrome trace-event document \
             (load it at chrome://tracing or ui.perfetto.dev; flow arrows link caller \
             to callee across tracks).  With --mode both, the mode name is inserted \
             before the extension (out.json -> out-disk.json, out-pm.json).")
  in
  Cmd.v
    (Cmd.info "critpath"
       ~doc:
         "Trace every committed transaction's cross-node span DAG and print the \
          critical-path report: per-hop queue/service attribution, ranked, with full \
          DAGs kept for the slowest transactions (each exemplar's hop durations sum \
          exactly to its measured ack latency)")
    Term.(
      const critpath $ mode $ drivers $ boxcar $ records_arg 500 $ nodes $ txns $ seed
      $ chrome $ json_arg)

(* --- domain workloads --- *)

let run_in_system cfg seed f =
  let sim = Sim.create ~seed () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = Tp.System.build sim cfg in
        out := Some (f system))
  in
  Sim.run sim;
  match !out with Some v -> v | None -> failwith "run did not complete"

let cfg_of_mode = function
  | "pm" -> Tp.System.pm_config
  | _ -> Tp.System.default_config

let telco mode records rate =
  let params =
    { Telco_cdr.default_params with
      Telco_cdr.cdrs_per_switch = records;
      arrival = (if rate > 0.0 then Telco_cdr.Open_poisson rate else Telco_cdr.Closed) }
  in
  let r = run_in_system (cfg_of_mode mode) 0x7E1C0L (fun s -> Telco_cdr.run s params) in
  Printf.printf "telco CDR ingest: mode=%s switches=%d cdrs/switch=%d\n" mode
    params.Telco_cdr.switches records;
  hr ();
  Printf.printf "elapsed        %.3f s\n" (Time.to_sec r.Telco_cdr.elapsed);
  Printf.printf "ingest rate    %.0f CDR/s\n" r.Telco_cdr.cdrs_per_sec;
  Printf.printf "txn p50        %.2f ms\n" (r.Telco_cdr.txn_response.Stat.p50 /. 1e6);
  Printf.printf "txn p99        %.2f ms\n" (r.Telco_cdr.txn_response.Stat.p99 /. 1e6);
  Printf.printf "fraud lookups  %d (%d hits)\n" r.Telco_cdr.lookups r.Telco_cdr.lookup_hits;
  hr ()

let telco_cmd =
  let mode =
    Arg.(value & opt string "disk" & info [ "mode" ] ~docv:"disk|pm" ~doc:"Audit backend.")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"CDR/s" ~doc:"Open-loop offered load (0 = closed loop).")
  in
  Cmd.v
    (Cmd.info "telco" ~doc:"Telco CDR ingest workload (paper section 1)")
    Term.(const telco $ mode $ records_arg 1_000 $ rate)

let orders mode trades =
  let params = { Order_match.default_params with Order_match.trades_per_stream = trades } in
  let r = run_in_system (cfg_of_mode mode) 0x570CL (fun s -> Order_match.run s params) in
  Printf.printf "order matching: mode=%s streams=%d trades/stream=%d hot-share=%.0f%%\n" mode
    params.Order_match.streams trades (params.Order_match.hot_symbol_share *. 100.);
  hr ();
  Printf.printf "elapsed        %.3f s\n" (Time.to_sec r.Order_match.elapsed);
  Printf.printf "hot symbol     %.1f trades/s (%d trades)\n" r.Order_match.hot_tps
    r.Order_match.hot_trades;
  Printf.printf "cold symbols   %.1f trades/s\n" r.Order_match.cold_tps;
  Printf.printf "trade RT p50   %.2f ms\n" (r.Order_match.trade_response.Stat.p50 /. 1e6);
  Printf.printf "lock conflicts %d\n" r.Order_match.lock_waits;
  hr ()

let orders_cmd =
  let mode =
    Arg.(value & opt string "disk" & info [ "mode" ] ~docv:"disk|pm" ~doc:"Audit backend.")
  in
  let trades =
    Arg.(value & opt int 500 & info [ "trades" ] ~docv:"N" ~doc:"Trades per stream.")
  in
  Cmd.v
    (Cmd.info "orders" ~doc:"Hot-stock order matching workload (paper section 2)")
    Term.(const orders $ mode $ trades)

let dtx_cmd_impl transfers =
  Printf.printf "E10: cross-node transfers under two-phase commit (2 nodes)\n";
  hr ();
  Printf.printf "%6s %14s %14s %16s\n" "mode" "local RT(ms)" "2PC RT(ms)" "protocol(ms)";
  List.iter
    (fun p ->
      Printf.printf "%6s %14.2f %14.2f %16.2f\n"
        (mode_to_string p.Figures.d_mode) p.Figures.local_rt_ms p.Figures.dtx_rt_ms
        p.Figures.protocol_overhead_ms)
    (Figures.dtx_latency ~transfers ());
  hr ()

let dtx_cmd =
  let transfers =
    Arg.(value & opt int 20 & info [ "transfers" ] ~docv:"N" ~doc:"Transfers to average over.")
  in
  Cmd.v (Cmd.info "dtx" ~doc:"E10: distributed-commit latency") Term.(const dtx_cmd_impl $ transfers)

let ckpt_traffic records =
  Printf.printf "E9: process-pair checkpoint traffic (2 drivers, boxcar 8)\n";
  hr ();
  List.iter
    (fun p ->
      Printf.printf "%-5s txns=%-6d audit=%-10d B  checkpoints=%-10d B  (%.0f B/txn)\n"
        (mode_to_string p.Figures.c_mode) p.Figures.committed_txns p.Figures.audit_bytes
        p.Figures.checkpoint_bytes p.Figures.ckpt_bytes_per_txn)
    (Figures.checkpoint_traffic ~records_per_driver:records ());
  hr ()

let ckpt_traffic_cmd =
  Cmd.v
    (Cmd.info "ckpt-traffic" ~doc:"E9: checkpoint traffic, disk vs PM")
    Term.(const ckpt_traffic $ records_arg 2_000)

let scaleout records =
  Printf.printf "E8: shared-nothing scale-out (2 drivers/node, boxcar 8)\n";
  hr ();
  Printf.printf "%6s %6s %16s %14s\n" "nodes" "mode" "aggregate txn/s" "per-node txn/s";
  List.iter
    (fun p ->
      Printf.printf "%6d %6s %16.1f %14.1f\n" p.Figures.s_nodes
        (mode_to_string p.Figures.s_mode) p.Figures.aggregate_tps p.Figures.per_node_tps)
    (Figures.scaleout ~records_per_driver:records ());
  hr ()

let scaleout_cmd =
  Cmd.v
    (Cmd.info "scale-out" ~doc:"E8: aggregate throughput vs node count")
    Term.(const scaleout $ records_arg 2_000)

let bank mode txns =
  let params = { Bank.default_params with Bank.txns_per_client = txns } in
  let r = run_in_system (cfg_of_mode mode) 0xBA22L (fun s -> Bank.run s params) in
  Printf.printf "bank (TPC-B-style): mode=%s clients=%d txns/client=%d\n" mode
    params.Bank.clients txns;
  hr ();
  Printf.printf "elapsed          %.3f s\n" (Time.to_sec r.Bank.elapsed);
  Printf.printf "throughput       %.1f txn/s\n" r.Bank.tps;
  Printf.printf "response p50     %.2f ms\n" (r.Bank.response.Stat.p50 /. 1e6);
  Printf.printf "response p99     %.2f ms\n" (r.Bank.response.Stat.p99 /. 1e6);
  Printf.printf "branch conflicts %d\n" r.Bank.branch_conflicts;
  hr ()

let bank_cmd =
  let mode =
    Arg.(value & opt string "disk" & info [ "mode" ] ~docv:"disk|pm" ~doc:"Audit backend.")
  in
  let txns =
    Arg.(value & opt int 250 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per client.")
  in
  Cmd.v
    (Cmd.info "bank" ~doc:"TPC-B-style update-heavy banking workload")
    Term.(const bank $ mode $ txns)

(* --- perf: the simulator performance observatory --- *)

let perf_text (r : Perf.report) =
  Printf.printf "perf: self-profiled workload matrix (%d records/driver, schema v%d)\n"
    r.Perf.p_records Perf.schema_version;
  hr ();
  Printf.printf "%-15s %10s %11s %14s %11s %9s\n" "workload" "events" "events/s"
    "wall ms/sim s" "minor w/ev" "heap hwm";
  List.iter
    (fun (w : Perf.run_report) ->
      Printf.printf "%-15s %10d %11.0f %14.2f %11.1f %9d\n" w.Perf.r_name w.Perf.r_events
        w.Perf.r_events_per_sec w.Perf.r_wall_ms_per_sim_s w.Perf.r_minor_words_per_event
        w.Perf.r_heap_depth_hwm)
    r.Perf.p_runs;
  hr ();
  List.iter
    (fun (w : Perf.run_report) ->
      Printf.printf "%s: committed=%d envelopes=%d packets=%d pm-writes=%d\n" w.Perf.r_name
        w.Perf.r_committed w.Perf.r_envelopes w.Perf.r_packets w.Perf.r_pm_writes;
      List.iter
        (fun (l : Perf.layer_share) ->
          Printf.printf "  %-8s %8d sections %10.3f ms %5.1f%% wall %14.0f minor words%s\n"
            l.Perf.ls_layer l.Perf.ls_events (l.Perf.ls_wall_s *. 1e3)
            (l.Perf.ls_wall_share *. 100.) l.Perf.ls_minor_words
            (if l.Perf.ls_discarded > 0 then
               Printf.sprintf " (%d discarded)" l.Perf.ls_discarded
             else ""))
        w.Perf.r_layers)
    r.Perf.p_runs;
  hr ();
  let o = r.Perf.p_overhead in
  Printf.printf "telemetry overhead (%s, no profiler installed):\n" o.Perf.o_workload;
  Printf.printf "  wall   enabled %.3f s / disabled %.3f s  (%+.1f%%)\n"
    o.Perf.o_enabled_wall_s o.Perf.o_disabled_wall_s o.Perf.o_overhead_pct;
  Printf.printf "  alloc  enabled %.0f / disabled %.0f minor words  (%+.1f%%)\n"
    o.Perf.o_enabled_minor_words o.Perf.o_disabled_minor_words o.Perf.o_alloc_overhead_pct;
  Printf.printf "  results invariant: sim elapsed %s, committed %s\n"
    (if o.Perf.o_sim_elapsed_equal then "equal" else "DIVERGED")
    (if o.Perf.o_committed_equal then "equal" else "DIVERGED");
  hr ()

let perf_verdicts verdicts regress_pct =
  List.iter
    (fun (v : Perf.verdict) ->
      Printf.eprintf "perf %-15s %11.0f ev/s vs baseline %11.0f — %s\n" v.Perf.v_workload
        v.Perf.v_current v.Perf.v_baseline
        (if v.Perf.v_ok then "ok" else Printf.sprintf "REGRESSION (>%.0f%%)" regress_pct))
    verdicts

let perf records list_workloads baseline regress_pct json =
  if list_workloads then List.iter print_endline Perf.workload_names
  else begin
    let report = or_die (fun () -> Perf.run ~records ()) in
    let doc = Perf.to_json report in
    if json then print_endline (Json.to_string doc) else perf_text report;
    match baseline with
    | None -> ()
    | Some path ->
        let base =
          match Json.parse (read_whole_file path) with
          | Ok b -> b
          | Error e ->
              Printf.eprintf "odsbench perf: baseline %s: %s\n" path e;
              exit 2
        in
        (match Perf.compare_baseline ~baseline:base ~current:doc ~regress_pct with
        | Error e ->
            Printf.eprintf "odsbench perf: %s\n" e;
            exit 2
        | Ok verdicts ->
            perf_verdicts verdicts regress_pct;
            if not (Perf.all_ok verdicts) then begin
              prerr_endline "odsbench perf: events/sec regressed past the baseline gate";
              exit 1
            end)
  end

let perf_cmd =
  let list_workloads =
    Arg.(
      value & flag
      & info [ "list-workloads" ] ~doc:"Print the fixed workload-matrix names and exit.")
  in
  let baseline =
    Arg.(
      value & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare events/sec per workload against a committed BENCH_*.json and exit \
             non-zero if any regresses past $(b,--regress-pct).  Verdicts go to stderr so \
             $(b,--json) output stays clean.")
  in
  let regress_pct =
    Arg.(
      value & opt float 25.0
      & info [ "regress-pct" ] ~docv:"PCT"
          ~doc:"Allowed events/sec regression vs the baseline, percent.")
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Self-profile the simulator on a fixed seed-deterministic workload matrix: \
          per-layer wall/alloc attribution, event-loop vitals, telemetry-overhead \
          delta, and an optional baseline regression gate")
    Term.(const perf $ records_arg 300 $ list_workloads $ baseline $ regress_pct $ json_arg)

(* --- everything at a glance --- *)

let all records =
  Printf.printf "pmods: full experiment sweep at %d records/driver\n\n" records;
  fig1 records false;
  print_newline ();
  fig2 records false;
  print_newline ();
  sweep_latency (min records 4_000);
  print_newline ();
  sweep_mirror (min records 4_000);
  print_newline ();
  mttr (min records 2_000);
  print_newline ();
  scale_adp (min records 4_000);
  print_newline ();
  ckpt_traffic (min records 2_000);
  print_newline ();
  scaleout (min records 1_000);
  print_newline ();
  dtx_cmd_impl 20;
  print_newline ();
  failover 400;
  print_newline ();
  perf (min records 300) false None 25.0 false

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment at reduced scale and print the summary")
    Term.(const all $ records_arg 2_000)

let main_cmd =
  let doc = "Reproduction experiments for 'Fast and Flexible Persistence' (IPDPS 2004)" in
  Cmd.group (Cmd.info "odsbench" ~version:"1.0" ~doc)
    [
      all_cmd;
      fig1_cmd;
      fig2_cmd;
      breakdown_cmd;
      trace_cmd;
      metrics_cmd;
      timeline_cmd;
      cell_cmd;
      sweep_latency_cmd;
      sweep_mirror_cmd;
      mttr_cmd;
      scale_adp_cmd;
      failover_cmd;
      drill_cmd;
      explore_cmd;
      critpath_cmd;
      perf_cmd;
      telco_cmd;
      orders_cmd;
      bank_cmd;
      scaleout_cmd;
      ckpt_traffic_cmd;
      dtx_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
