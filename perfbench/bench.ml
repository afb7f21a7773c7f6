(* One repetition of one benchmark workload, in this process.

   Prints one JSON object on stdout:
   - "sim" and the commit counts and latencies: simulated results, exact
     functions of the seed (run.py checks they repeat across processes
     and with tracing on);
   - "setup_s" and "run_s": host seconds of set-up and of the load phase;
   - "gates": correctness failures (empty when the run is correct);
   - "layers": per-layer metrics, with --trace 1 only;
   - "phases": the repetition's own host-clock spans.

   The layers are driven only through their public functions; every
   host time is taken here, around those calls.  perfbench/run.py runs
   each repetition in a fresh process so one repetition's heap cannot
   bill the next (a second PM System.build in one process costs about
   three times the first). *)

open Simkit

let now = Prof.now_s

let ms_of_ns x = x /. 1e6

let per n x = if n > 0 then x /. float_of_int n else 0.0

(* The benchmark's own spans: each phase of this repetition (set-up,
   load, kernels, one per explorer schedule) as a host-clock interval,
   printed with the result. *)
let epoch = now ()

let phases = ref []

let phase name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  phases := (name, t0 -. epoch, t1 -. t0) :: !phases;
  (r, t1 -. t0)

(* --- workload inputs --- *)

(* The PM platform samples no randomness on a fault-free run, so the
   seed's only way to change a PM run is through its inputs: it picks the
   record size from the 16 bytes below the paper's size.  A wider band
   crosses thresholds that move the PM runs' commit latency by 4% and
   their resident set by 12%. *)
let record_bytes ~seed ~top = top - Int64.to_int (Int64.unsigned_rem seed 16L)

(* Paper section 4.3: 4 drivers, boxcar 8 (32 KiB transactions), records
   of 4,081-4,096 B, closed loop.  2,000 records per driver is 1,000
   commits, so the p99 has ten samples beyond it. *)
let hot_params ~seed =
  {
    Workloads.Hot_stock.drivers = 4;
    records_per_driver = 2_000;
    record_bytes = record_bytes ~seed ~top:4096;
    inserts_per_txn = 8;
  }

(* Paper section 1: CDR ingest, 4 switches x 2 CDRs of 241-256 B per
   transaction, open loop at 1,500 CDR/s (about 70% of the closed-loop
   capacity), 2 fraud readers.  500 CDRs per switch is 1,000 commits. *)
let telco_params ~seed =
  {
    Workloads.Telco_cdr.switches = 4;
    cdrs_per_switch = 500;
    cdr_bytes = record_bytes ~seed ~top:256;
    cdrs_per_txn = 2;
    fraud_readers = 2;
    arrival = Workloads.Telco_cdr.Open_poisson 1500.0;
  }

let explore_seed = 42

(* --- the traced run's instruments --- *)

type tracer = {
  obs : Obs.t;
  prof : Prof.t;
  cp : Critpath.t;
  mutable acks : float list;  (** host time of each commit ack, newest first *)
}

let make_tracer () =
  Obs.set_level Obs.Spans;
  let obs = Obs.create () in
  Span.enable (Obs.spans obs);
  let t = { obs; prof = Prof.create (); cp = Critpath.create (); acks = [] } in
  (* A transaction's root span finishes at its ack: stamp the host
     clock there for the run-length drift, then feed the critical-path
     analyzer. *)
  Span.set_consumer (Obs.spans obs)
    (Some
       (fun r ->
         if r.Span.r_parent = None && r.Span.r_trace >= 0 && r.Span.r_name = "txn" then
           t.acks <- now () :: t.acks;
         Critpath.observe t.cp r));
  t

type snap = {
  s_host : float;
  s_events : int;
  s_packets : int;
  s_pm_writes : int;
  s_minor : float;
  s_major : float;
  s_layers : (string * float) list;
}

let snapshot tr =
  let minor, _, major = Gc.counters () in
  let p = tr.prof in
  {
    s_host = now ();
    s_events = Prof.events p;
    s_packets = Prof.packet_count p;
    s_pm_writes = Prof.pm_write_count p;
    s_minor = minor;
    s_major = major;
    s_layers = List.map (fun r -> (r.Prof.l_name, r.Prof.l_wall)) (Prof.layer_rows p);
  }

(* --- registry readers --- *)

let find tr path = Metrics.find (Obs.metrics tr.obs) path

let value tr path =
  match find tr path with
  | Some (Metrics.Counter c) -> float_of_int (Stat.Counter.get c)
  | Some (Metrics.Gauge g) -> g ()
  | _ -> 0.0

let stat_mean tr path =
  match find tr path with
  | Some (Metrics.Stat s) when Stat.count s > 0 -> Stat.mean s
  | _ -> 0.0

let stat_p99 tr path =
  match find tr path with
  | Some (Metrics.Stat s) when Stat.count s > 0 -> Stat.percentile s 0.99
  | _ -> 0.0

let stat_count tr path =
  match find tr path with Some (Metrics.Stat s) -> Stat.count s | _ -> 0

(* Largest busy fraction among the probes under [prefix].  Probes count
   busy time from System.build on, so [sim_ns] is the whole simulated
   time, set-up included. *)
let probe_util_max tr prefix ~sim_ns =
  List.fold_left
    (fun acc (path, inst) ->
      match inst with
      | Metrics.Probe p when String.starts_with ~prefix path && sim_ns > 0 ->
          Float.max acc (float_of_int (Probe.busy_total p) /. float_of_int sim_ns)
      | _ -> acc)
    0.0
    (Metrics.instruments (Obs.metrics tr.obs))

let gauge_sum tr ~prefix ~suffix =
  List.fold_left
    (fun acc (path, inst) ->
      match inst with
      | Metrics.Gauge g when String.starts_with ~prefix path && String.ends_with ~suffix path ->
          acc +. g ()
      | _ -> acc)
    0.0
    (Metrics.instruments (Obs.metrics tr.obs))

(* Critical-path hops grouped by the layer that owns the span: the
   span name's first component (tracks name instances such as $ADP0 or
   vol:$AUDIT4, so they are folded away).  Hops outside the listed
   layers land in "other", so the shares always sum to 1. *)
let critpath_layers = [ "txn"; "tmf"; "adp"; "dp2"; "disk"; "pm"; "fabric"; "msg"; "lock" ]

let critpath_shares tr =
  let hops = Critpath.hops tr.cp in
  let total =
    List.fold_left (fun a h -> a + h.Critpath.h_queue + h.Critpath.h_service) 0 hops
  in
  let layer_of h =
    let name =
      match String.rindex_opt h.Critpath.h_name ':' with
      | Some i -> String.sub h.Critpath.h_name (i + 1) (String.length h.Critpath.h_name - i - 1)
      | None -> h.Critpath.h_name
    in
    let head = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
    if List.mem head critpath_layers then head else "other"
  in
  List.map
    (fun layer ->
      let ns =
        List.fold_left
          (fun a h ->
            if layer_of h = layer then a + h.Critpath.h_queue + h.Critpath.h_service else a)
          0 hops
      in
      ( Printf.sprintf "critpath.%s_share" layer,
        if total > 0 then float_of_int ns /. float_of_int total else 0.0 ))
    (critpath_layers @ [ "other" ])

(* Host microseconds per commit over the first and last quarter of the
   run's commits, from the ack stamps: growth from q1 to q4 is cost
   that rises with run length. *)
let drift tr ~run_start =
  let acks = Array.of_list (List.rev tr.acks) in
  let n = Array.length acks in
  if n < 8 then (0.0, 0.0)
  else
    let q = n / 4 in
    let q1 = (acks.(q - 1) -. run_start) /. float_of_int q in
    let q4 = (acks.(n - 1) -. acks.(n - 1 - q)) /. float_of_int q in
    (q1 *. 1e6, q4 *. 1e6)

(* Per-layer metrics over the run phase [s0, s1] of a system run. *)
let layer_metrics tr system ~s0 ~s1 ~commits ~sim_ns =
  let run_s = s1.s_host -. s0.s_host in
  let events = s1.s_events - s0.s_events in
  let layer_wall name =
    let at s = Option.value (List.assoc_opt name s.s_layers) ~default:0.0 in
    at s1 -. at s0
  in
  let shares =
    List.map
      (fun (layer, metric) -> (metric, if run_s > 0.0 then layer_wall layer /. run_s else 0.0))
      [
        ("msgsys", "msgsys.host_share");
        ("fabric", "fabric.host_share");
        ("diskio", "diskio.host_share");
        ("pm", "pm.host_share");
        ("adp", "adp.host_share");
      ]
  in
  let attributed = List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
  let q1, q4 = drift tr ~run_start:s0.s_host in
  let flushes = stat_count tr "adp.flush_latency" in
  [
    ("simkit.events_per_commit", per commits (float_of_int events));
    ("simkit.host_ns_per_event", per events (run_s *. 1e9));
    ("simkit.heap_depth_hwm", float_of_int (Prof.heap_depth_hwm tr.prof));
    ("simkit.unattributed_share", 1.0 -. attributed);
    ("gc.minor_words_per_commit", per commits (s1.s_minor -. s0.s_minor));
    ("gc.major_words_per_commit", per commits (s1.s_major -. s0.s_major));
    ("run.host_us_per_commit_q1", q1);
    ("run.host_us_per_commit_q4", q4);
    ("msgsys.requests_per_commit", per commits (value tr "msg.requests"));
    ("msgsys.hop_us", stat_mean tr "msg.hop_ns" /. 1e3);
    ( "procpair.ckpt_bytes_per_commit",
      per commits (float_of_int (Tp.System.checkpoint_message_bytes system)) );
    ("cpu.util_max", probe_util_max tr "cpu." ~sim_ns);
    ("fabric.packets_per_commit", per commits (float_of_int (s1.s_packets - s0.s_packets)));
    ("fabric.xfer_us", stat_mean tr "fabric.xfer_ns" /. 1e3);
    ("fabric.rail_util", probe_util_max tr "fabric.rail" ~sim_ns);
    ("fabric.retries", value tr "fabric.retries" +. value tr "fabric.packet_retries");
    ("disk.ops_per_commit", per commits (value tr "disk.ops"));
    ("disk.service_ms", ms_of_ns (stat_mean tr "disk.service_ns"));
    ("disk.cache_hit_ratio", value tr "disk.cache_hit_ratio");
    ( "npmu.bytes_written_per_commit",
      per commits (gauge_sum tr ~prefix:"npmu." ~suffix:".bytes_written") );
    ("pm.writes_per_commit", per commits (float_of_int (s1.s_pm_writes - s0.s_pm_writes)));
    ("pm.write_us", stat_mean tr "pm.write_ns" /. 1e3);
    ("pm.write_us_p99", stat_p99 tr "pm.write_ns" /. 1e3);
    ("pm.write_retries", float_of_int (Tp.System.pm_write_retries system));
    ("tmf.commit_ms", ms_of_ns (stat_mean tr "tmf.commit_ns"));
    ("tmf.flush_wait_ms", ms_of_ns (stat_mean tr "tmf.flush_wait_ns"));
    ("tmf.mat_write_ms", ms_of_ns (stat_mean tr "tmf.mat_write_ns"));
    ("adp.commits_per_flush", per flushes (float_of_int commits));
    ("log.write_ms", ms_of_ns (stat_mean tr "log.write_ns"));
    ("log.bytes_per_commit", per commits (float_of_int (Tp.System.total_audit_bytes system)));
    ("txn.insert_wait_ms", ms_of_ns (stat_mean tr "txn.insert_wait_ns"));
    ("lock.wait_ms", ms_of_ns (stat_mean tr "lock.wait_ns"));
    ("lock.conflicts", value tr "lock.conflicts");
    ("dp2.lookups", value tr "dp2.lookups");
    ("dp2.hit_ratio", value tr "dp2.hit_ratio");
  ]
  @ shares @ critpath_shares tr

(* --- layer kernels, timed directly through their public functions --- *)

(* Median nanoseconds per call of [f] over [rounds] timed batches. *)
let ns_per_call ?(rounds = 7) ~calls f =
  let samples =
    List.init rounds (fun _ ->
        let t0 = now () in
        for i = 1 to calls do
          ignore (Sys.opaque_identity (f i))
        done;
        (now () -. t0) *. 1e9 /. float_of_int calls)
  in
  List.nth (List.sort compare samples) (rounds / 2)

let kernels () =
  let page = Bytes.init 4096 (fun i -> Char.chr ((i * 131) land 0xff)) in
  let record =
    Tp.Audit.Update
      { txn = 7; file = 1; partition = 3; key = 123_456; payload_len = 4096; payload_crc = 0x5eed;
        before_len = 0 }
  in
  let encoded = Tp.Audit.encode_to_bytes record in
  (* A push and a pop on an event queue holding 1,024 entries. *)
  let heap = Heap.create () in
  for i = 1 to 1024 do
    Heap.push heap ~key:((i * 7919) land 0xffff) ~seq:i ()
  done;
  let heap_ns =
    ns_per_call ~calls:100_000 (fun i ->
        Heap.push heap ~key:((i * 7919) land 0xffff) ~seq:(1024 + i) ();
        Heap.pop heap)
  in
  let btree_ns =
    let tree = ref (Tp.Btree.create ()) in
    ns_per_call ~calls:50_000 (fun i ->
        if i = 1 then tree := Tp.Btree.create ();
        Tp.Btree.insert !tree ~key:((i * 40_503) land 0xfffff) i)
  in
  let npmu_ms =
    let sim = Sim.create () in
    let fabric = Servernet.Fabric.create sim () in
    let capacity = Tp.System.pm_config.Tp.System.pm_capacity in
    let samples =
      List.init 3 (fun i ->
          Gc.full_major ();
          let t0 = now () in
          let d = Pm.Npmu.create sim fabric ~name:(Printf.sprintf "npmu-k%d" i) ~capacity in
          let dt = now () -. t0 in
          ignore (Sys.opaque_identity d);
          dt *. 1e3)
    in
    List.nth (List.sort compare samples) 1
  in
  [
    ("crc32.ns_per_4k", ns_per_call ~calls:200 (fun _ -> Pm.Crc32.bytes page));
    ("audit.encode_ns", ns_per_call ~calls:2_000 (fun _ -> Tp.Audit.encode_to_bytes record));
    ("audit.decode_ns", ns_per_call ~calls:20_000 (fun _ -> Tp.Audit.decode encoded ~pos:0));
    ("heap.ns_per_op", heap_ns /. 2.0);
    ("btree.ns_per_insert", btree_ns);
    ("npmu.create_ms", npmu_ms);
  ]

(* --- workloads --- *)

(* What a workload's load phase produced; the simulated part. *)
type load = {
  sim : (string * Json.t) list;  (** exact functions of the seed *)
  commits : int;
  attempted : int;
  failed : int;
  p50_ms : float;
  p99_ms : float;
  sim_tps : float;
  gates : string list;
}

type outcome = { load : load; setup_s : float; run_s : float; layers : (string * float) list }

(* Build the system on a fresh simulation, then run [load] on it; host
   time of System.build is set-up, host time of [load] is the run. *)
let on_system ~cfg ~seed tracer load =
  let sim = Sim.create ~seed () in
  Option.iter (fun tr -> Prof.install tr.prof sim) tracer;
  let result = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"perfbench" (fun () ->
        let system, setup_s =
          phase "setup" (fun () ->
              Tp.System.build ?obs:(Option.map (fun tr -> tr.obs) tracer) sim cfg)
        in
        let s0 = Option.map snapshot tracer in
        let l, run_s = phase "run" (fun () -> load system) in
        let layers =
          match (tracer, s0) with
          | Some tr, Some s0 ->
              let s1 = snapshot tr in
              layer_metrics tr system ~s0 ~s1 ~commits:l.commits ~sim_ns:(Sim.now sim)
          | _ -> []
        in
        result := Some { load = l; setup_s; run_s; layers })
  in
  Sim.run sim;
  Option.iter (fun tr -> Prof.uninstall tr.prof) tracer;
  match !result with
  | Some r -> r
  | None -> failwith "perfbench: the simulation ended before the workload finished"

let stat_ms (s : Stat.summary) = (ms_of_ns s.Stat.p50, ms_of_ns s.Stat.p99)

let hot_stock ~pm ~seed tracer =
  let base = if pm then Tp.System.pm_config else Tp.System.default_config in
  on_system ~cfg:{ base with Tp.System.seed } ~seed tracer (fun system ->
      let p = hot_params ~seed in
      let r = Workloads.Hot_stock.run system p in
      let expected = p.drivers * p.records_per_driver / p.inserts_per_txn in
      let p50_ms, p99_ms = stat_ms r.response in
      let gates =
        if r.committed < expected then
          [ Printf.sprintf "hot-stock committed %d of %d transactions" r.committed expected ]
        else []
      in
      {
        commits = r.committed;
        attempted = r.txns;
        failed = r.txns - r.committed;
        p50_ms;
        p99_ms;
        sim_tps = r.throughput_tps;
        gates;
        sim =
          [
            ("elapsed_ns", Json.Int r.elapsed);
            ("committed", Json.Int r.committed);
            ("samples", Json.Int r.response.Stat.n);
            ("p50_ns", Json.Float r.response.Stat.p50);
            ("p99_ns", Json.Float r.response.Stat.p99);
            ("mean_ns", Json.Float r.response.Stat.mean);
            ("audit_bytes", Json.Int r.audit_bytes);
            ("checkpoint_bytes", Json.Int r.checkpoint_bytes);
          ];
      })

let telco ~seed tracer =
  on_system ~cfg:{ Tp.System.pm_config with Tp.System.seed } ~seed tracer (fun system ->
      let p = telco_params ~seed in
      let r = Workloads.Telco_cdr.run system p in
      let expected = p.switches * p.cdrs_per_switch in
      let txns = p.switches * ((p.cdrs_per_switch + p.cdrs_per_txn - 1) / p.cdrs_per_txn) in
      let commits = r.txn_response.Stat.n in
      let p50_ms, p99_ms = stat_ms r.txn_response in
      let gates =
        (if r.cdrs_inserted < expected then
           [ Printf.sprintf "telco inserted %d of %d CDRs" r.cdrs_inserted expected ]
         else [])
        @ if r.lookups = 0 then [ "telco fraud readers made no lookups" ] else []
      in
      {
        commits;
        attempted = txns;
        failed = txns - commits;
        p50_ms;
        p99_ms;
        sim_tps = float_of_int commits /. Time.to_sec r.elapsed;
        gates;
        sim =
          [
            ("elapsed_ns", Json.Int r.elapsed);
            ("cdrs_inserted", Json.Int r.cdrs_inserted);
            ("samples", Json.Int commits);
            ("p50_ns", Json.Float r.txn_response.Stat.p50);
            ("p99_ns", Json.Float r.txn_response.Stat.p99);
            ("mean_ns", Json.Float r.txn_response.Stat.mean);
            ("lookups", Json.Int r.lookups);
            ("lookup_hits", Json.Int r.lookup_hits);
          ];
      })

(* The explorer slice the traced run times: the first schedule of each
   kind in the CI explorer corpus (seed 42, which CI runs clean).  Each
   runs through Explorer.replay, the same drill Explorer.execute runs,
   which also hands back the drill's report and so the scrubber's chunk
   count.  Any verdict that fails the oracle fails the run. *)
let explore_slice () =
  let kinds = Tp.Explorer.[ Pm; Disk; Cluster; Overload ] in
  let rec first kind index =
    let s = Tp.Explorer.generate ~seed:explore_seed ~index in
    if s.Tp.Explorer.s_kind = kind then s else first kind (index + 1)
  in
  let gates = ref [] and scrub_chunks = ref 0 in
  let timed =
    List.map
      (fun kind ->
        let s = first kind 0 in
        let repro =
          {
            Tp.Explorer.rp_kind = kind;
            rp_seed = s.s_seed;
            rp_defenses = true;
            rp_plan = s.s_plan;
            rp_recovery = s.s_recovery;
          }
        in
        let r, host_s =
          phase ("explore." ^ Tp.Explorer.kind_name kind) (fun () -> Tp.Explorer.replay repro)
        in
        let fail msg =
          gates :=
            Printf.sprintf "explore schedule %d (%s): %s" s.s_index
              (Tp.Explorer.kind_name kind) msg
            :: !gates
        in
        (match r with
        | Error e -> fail ("harness error: " ^ e)
        | Ok rep ->
            let v = Tp.Explorer.replay_verdict rep in
            if not (Tp.Drill.Oracle.pass v) then fail (Tp.Drill.Oracle.summary v);
            (match rep with
            | Tp.Explorer.Single { integrity = Some i; _ } ->
                scrub_chunks := !scrub_chunks + i.Tp.Drill.scrub_chunks
            | _ -> ()));
        (Printf.sprintf "explore.%s.host_s_per_schedule" (Tp.Explorer.kind_name kind), host_s))
      kinds
  in
  (timed @ [ ("pmm.scrub_chunks", float_of_int !scrub_chunks) ], List.rev !gates)

let workloads =
  [
    ("hotstock-disk", fun seed tr -> hot_stock ~pm:false ~seed tr);
    ("hotstock-pm", fun seed tr -> hot_stock ~pm:true ~seed tr);
    ("telco-pm", fun seed tr -> telco ~seed tr);
  ]

let print_json fields = print_endline (Json.to_string (Json.Obj fields))

let layers_json layers = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) layers)

let gates_json gates = Json.List (List.map (fun g -> Json.String g) gates)

let phases_json () =
  Json.List
    (List.rev_map
       (fun (name, start, dur) ->
         Json.Obj
           [ ("name", Json.String name); ("start_s", Json.Float start); ("dur_s", Json.Float dur) ])
       !phases)

let () =
  let workload = ref "" and seed = ref "" and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or explore-slice (no seed)");
      ("--seed", Arg.Set_string seed, "N workload seed");
      ("--trace", Arg.Set_int trace, "0|1 run untraced (0) or traced (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --trace 0|1";
  if !workload = "explore-slice" then begin
    Obs.set_level Obs.Off;
    let layers, gates = explore_slice () in
    print_json
      [ ("gates", gates_json gates); ("layers", layers_json layers); ("phases", phases_json ()) ];
    exit 0
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline
          ("bench: unknown workload; expected explore-slice or one of "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  let seed =
    match Int64.of_string_opt !seed with
    | Some s -> s
    | None ->
        prerr_endline "bench: --seed needs an integer";
        exit 2
  in
  let tracer =
    if !trace = 1 then Some (make_tracer ())
    else (
      Obs.set_level Obs.Off;
      None)
  in
  let o = run seed tracer in
  let l = o.load in
  let layers =
    match tracer with Some _ -> o.layers @ fst (phase "kernels" kernels) | None -> []
  in
  print_json
    [
      ("workload", Json.String !workload);
      ("seed", Json.String (Int64.to_string seed));
      ("sim", Json.Obj l.sim);
      ("commits", Json.Int l.commits);
      ("attempted", Json.Int l.attempted);
      ("failed", Json.Int l.failed);
      ("commit_p50_ms", Json.Float l.p50_ms);
      ("commit_p99_ms", Json.Float l.p99_ms);
      ("sim_tps", Json.Float l.sim_tps);
      ("setup_s", Json.Float o.setup_s);
      ("run_s", Json.Float o.run_s);
      ("gates", gates_json l.gates);
      ("layers", layers_json layers);
      ("phases", phases_json ());
    ]
