open Simkit
open Nsk

type params = {
  drivers : int;
  records_per_driver : int;
  record_bytes : int;
  inserts_per_txn : int;
  settle : Time.span;
  begin_retries : int;
}

let default_params =
  {
    drivers = 2;
    records_per_driver = 400;
    record_bytes = 4096;
    inserts_per_txn = 8;
    settle = Time.ms 500;
    begin_retries = 8;
  }

(* Cluster drills push fewer, smaller rows: every insert crosses the
   interconnect and every commit runs two-phase, so default-params volume
   would take minutes of simulated time without exercising anything
   new. *)
let cluster_params =
  {
    drivers = 2;
    records_per_driver = 60;
    record_bytes = 1024;
    inserts_per_txn = 4;
    settle = Time.ms 500;
    begin_retries = 8;
  }

type overload_params = {
  ov_record_bytes : int;
  ov_inserts_per_txn : int;
  ov_base_rate : float;
  ov_spike : float;
  ov_warmup : Time.span;
  ov_spike_for : Time.span;
  ov_cooldown : Time.span;
  ov_window : Time.span;
  ov_settle : Time.span;
  ov_client_retries : int;
  ov_spike_floor : float;
  ov_recovery_frac : float;
  ov_recovery_limit : Time.span;
}

(* Base rate ~0.6x of the platform's measured open-loop capacity, spike
   5x base.  Small transactions keep per-arrival client CPU low enough
   that the offered spike really exceeds service capacity at the servers
   rather than serializing at the session pool. *)
let overload_params =
  {
    ov_record_bytes = 1_024;
    ov_inserts_per_txn = 4;
    ov_base_rate = 400.0;
    ov_spike = 5.0;
    ov_warmup = Time.ms 500;
    ov_spike_for = Time.ms 400;
    ov_cooldown = Time.ms 1_500;
    ov_window = Time.ms 100;
    ov_settle = Time.ms 300;
    ov_client_retries = 2;
    ov_spike_floor = 0.5;
    ov_recovery_frac = 0.7;
    ov_recovery_limit = Time.ms 600;
  }

type load = Closed of params | Open of overload_params

type platform = Node of System.log_mode | Cluster

type scenario = {
  name : string;
  platform : platform;
  seed : int64;
  config : System.config;
  load : load;
  plan : Faultplan.t;
  recovery_plan : Faultplan.t;
  crash_decay : (int * int * int) list;
  baseline : bool;
  horizon : Time.span option;
  max_outage : Time.span option;
}

(* The defenses a scenario arms, read off its config so a label can
   never disagree with what ran. *)
let health_monitored (c : System.config) = c.System.pm_health <> None
let admission_controlled (c : System.config) = c.System.tmf.Tmf.admission

let defended (c : System.config) =
  health_monitored c || admission_controlled c || c.System.pm_scrub <> None
  || c.System.pm_verified_reads

type availability = {
  adp_takeovers : int;
  dp2_takeovers : int;
  tmf_takeovers : int;
  pmm_takeovers : int;
  outage : Time.span;
  degraded_writes : int;
  pm_write_retries : int;
  packet_retries : int;
}

type integrity = {
  decay_injected : int;
  torn_injected : int;
  scrub_chunks : int;
  scrub_repairs : int;
  scrub_quarantined : int;
  read_repairs : int;
  verify_unrepaired : int;
  unrepaired_divergence : int;
}

type mitigation = {
  demotions : int;
  readmissions : int;
  mirror_active : bool;
  monitor_probes : int;
  slow_suspects : int;
  hedged_reads : int;
  hedge_wins : int;
  single_copy_writes : int;
}

type partition = { in_doubt_before : int; fenced_writes : int }

type goodput = {
  rejected : int;
  timeouts : int;
  admitted : int;
  tmf_rejected : int;
  tmf_expired : int;
  adp_shed : int;
  retry_denied : int;
  breaker_trips : int;
  warmup_tps : float;
  spike_tps : float;
  cooldown_tps : float;
  recovery_time : Time.span option;
  windows : (Time.t * int) list;
}

type report = {
  scenario : scenario;
  elapsed : Time.span;
  faults : (Time.t * string) list;
  attempted_txns : int;
  committed : int;
  failed_txns : int;
  acked_rows : int;
  recovered_rows : int;
  lost_rows : int;
  in_doubt_after : int;
  orphaned_locks : int;
  fence_checks : int;
  fence_failures : int;
  response : Stat.summary;
  availability : availability;
  recoveries : Recovery.report list;
  integrity : integrity option;
  partition : partition option;
  mitigation : mitigation option;
  baseline : report option;
  goodput : goodput option;
  timeline : Timeseries.t option;
  flight : Flightrec.t option;
}

(* The gray drill's only latency gate: degraded p99 within this multiple
   of the healthy baseline's. *)
let p99_limit = 8.0

let p99_ratio r =
  Option.map
    (fun b ->
      if b.response.Stat.p99 > 0.0 then r.response.Stat.p99 /. b.response.Stat.p99
      else infinity)
    r.baseline

(* --- The shared invariant oracle --- *)

(* One statement of every invariant, each a named check with a
   human-readable detail.  Which checks apply follows from the report's
   sections: the durability core always, bounded unavailability when the
   scenario sets a limit, the latency gate when there is a baseline, the
   goodput gates under open-loop load.  The CLI exit code, the flight
   dump and the explorer all judge by this one verdict. *)
module Oracle = struct
  type check = { ck_name : string; ck_ok : bool; ck_detail : string }

  type verdict = { ok : bool; checks : check list }

  let check ck_name ck_ok ck_detail = { ck_name; ck_ok; ck_detail }

  let make checks = { ok = List.for_all (fun c -> c.ck_ok) checks; checks }

  let pass v = v.ok

  let failures v = List.filter (fun c -> not c.ck_ok) v.checks

  let summary v =
    if v.ok then "all invariants hold"
    else
      String.concat "; "
        (List.map
           (fun c -> Printf.sprintf "%s: %s" c.ck_name c.ck_detail)
           (failures v))

  let to_json v =
    Json.Obj
      [
        ("pass", Json.Bool v.ok);
        ( "checks",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("name", Json.String c.ck_name);
                     ("ok", Json.Bool c.ck_ok);
                     ("detail", Json.String c.ck_detail);
                   ])
               v.checks) );
      ]

  let durability r =
    [
      check "acked_durable" (r.lost_rows = 0)
        (Printf.sprintf "%d of %d acked rows missing after recovery" r.lost_rows
           r.acked_rows);
      check "in_doubt_drained" (r.in_doubt_after = 0)
        (Printf.sprintf "%d branches still in doubt" r.in_doubt_after);
      check "no_orphaned_locks" (r.orphaned_locks = 0)
        (Printf.sprintf "%d locks still held after recovery" r.orphaned_locks);
      check "no_fence_failures" (r.fence_failures = 0)
        (Printf.sprintf "%d of %d fence probes saw a stale write land" r.fence_failures
           r.fence_checks);
      (match r.integrity with
      | Some i ->
          check "integrity_clean" (i.unrepaired_divergence = 0)
            (Printf.sprintf "%d mirrored chunks still divergent" i.unrepaired_divergence)
      | None -> check "integrity_clean" true "no integrity audit on this platform");
    ]

  let unavailability r =
    match r.scenario.max_outage with
    | None -> []
    | Some limit ->
        [
          check "bounded_unavailability"
            (r.availability.outage <= limit)
            (Printf.sprintf "summed outage %s (limit %s)"
               (Time.to_string r.availability.outage)
               (Time.to_string limit));
        ]

  (* Against a healthy baseline: both runs durable, p99 bounded, and —
     when the defenses are armed — proof they engaged. *)
  let latency r =
    match (r.baseline, p99_ratio r) with
    | Some b, Some ratio ->
        let evidence =
          match r.mitigation with
          | Some m when health_monitored r.scenario.config ->
              [
                check "mirror_demoted" (m.demotions >= 1)
                  (Printf.sprintf "%d demotions (expected >= 1)" m.demotions);
                check "mirror_readmitted" (m.readmissions >= 1)
                  (Printf.sprintf "%d readmissions (expected >= 1)" m.readmissions);
                check "mirror_active" m.mirror_active "mirror not active at drill end";
                check "slow_suspects_flagged" (m.slow_suspects >= 1)
                  (Printf.sprintf "%d slow suspects flagged (expected >= 1)"
                     m.slow_suspects);
              ]
          | _ -> []
        in
        [
          check "baseline_durable" (b.lost_rows = 0)
            (Printf.sprintf "%d acked rows missing in the healthy baseline" b.lost_rows);
          check "p99_bounded" (ratio <= p99_limit)
            (Printf.sprintf "p99 ratio %.2f (limit %.2f)" ratio p99_limit);
        ]
        @ evidence
    | _ -> []

  let goodput r =
    match (r.goodput, r.scenario.load) with
    | Some g, Open p ->
        [
          check "warmup_progress" (g.warmup_tps > 0.0)
            (Printf.sprintf "warmup goodput %.1f tps" g.warmup_tps);
          check "spike_goodput_floor"
            (g.spike_tps >= p.ov_spike_floor *. g.warmup_tps)
            (Printf.sprintf "spike goodput %.1f tps (floor %.1f)" g.spike_tps
               (p.ov_spike_floor *. g.warmup_tps));
          check "goodput_recovered"
            (match g.recovery_time with Some t -> t <= p.ov_recovery_limit | None -> false)
            (match g.recovery_time with
            | Some t ->
                Printf.sprintf "goodput back in %s (limit %s)" (Time.to_string t)
                  (Time.to_string p.ov_recovery_limit)
            | None -> "goodput never recovered while load was still arriving");
        ]
        @
        if admission_controlled r.scenario.config then
          [
            check "admission_shed" (g.rejected > 0) "defended run never rejected an arrival";
          ]
        else []
    | _ -> []

  let of_report r = make (durability r @ unavailability r @ latency r @ goodput r)
end

(* --- Fault plans and platforms --- *)

(* Offsets tuned so every fault lands while default-params load is still
   running (PM-mode load is an order of magnitude shorter than disk's,
   hence the compressed schedule); the resync runs last, after the
   cycled mirror is powered again. *)
let standard_plan mode =
  match mode with
  | System.Pm_audit ->
      Faultplan.
        [
          at (Time.ms 20) (Kill_primary Pmm);
          at (Time.ms 40)
            (Npmu_power_cycle { device = 1; off_for = Time.ms 60 });
          at (Time.ms 60) (Rail_down 0);
          at (Time.ms 90) (Rail_up 0);
          at (Time.ms 110) (Crc_noise_burst { rate = 0.02; duration = Time.ms 40 });
          at (Time.ms 200) Pmm_resync;
        ]
  | System.Disk_audit ->
      Faultplan.
        [
          at (Time.ms 200) (Kill_primary (Adp 1));
          at (Time.ms 600) (Kill_primary (Dp2 2));
          at (Time.sec 1) (Rail_down 1);
          at (Time.ms 1_300) (Rail_up 1);
          at (Time.ms 1_500) (Kill_primary Tmf);
          at (Time.sec 2) (Crc_noise_burst { rate = 0.02; duration = Time.ms 300 });
        ]

(* Partition mid-2PC, decapitate the coordinator's monitor while the
   link is down, heal, then take over the PM manager (bumping the volume
   epoch) and verify the fence is armed.

   The short pulses before the long outage each sample a different phase
   of the transaction cycle; the ones that land while a prepare or a
   decide is crossing the interconnect lose the reply leg and strand a
   prepared branch — the in-doubt window {!Cluster.recover}'s resolver
   must drain. *)
let partition_plan =
  Faultplan.
    [
      at (Time.ms 8) Wan_partition;
      at (Time.ms 11) Wan_heal;
      at (Time.ms 16) Wan_partition;
      at (Time.ms 19) Wan_heal;
      at (Time.ms 25) Wan_partition;
      at (Time.ms 28) Wan_heal;
      at (Time.ms 34) Wan_partition;
      at (Time.ms 40) (Kill_primary Tmf);
      at (Time.ms 90) Wan_heal;
      at (Time.ms 110) (Kill_primary Pmm);
      at (Time.ms 130) Fence_check;
    ]

(* --- Corruption: silent decay and torn stores --- *)

(* Small regions keep the scrubber's pass time in the low milliseconds,
   so dozens of passes fit into the settle window; a tight inter-chunk
   interval does the same.  Verified reads are on because the drill's
   point is proving the read path catches what the scrubber has not
   gotten to yet. *)
let corruption_region_bytes = 2 * 1024 * 1024

let corruption_config =
  {
    System.pm_config with
    System.pm_region_bytes = corruption_region_bytes;
    pm_scrub = Some { Pm.Pmm.default_scrub_config with Pm.Pmm.scrub_interval = Time.us 100 };
    pm_verified_reads = true;
  }

(* Trail region [i]'s device offset under [corruption_config]: the PMM
   allocates first-fit behind its metadata reserve, and the system
   creates the 1 MiB transaction-state table first, then the trail
   regions in ADP order (MAT last). *)
let corruption_trail_base i =
  Pm.Pmm.default_config.Pm.Pmm.meta_reserve + (1 lsl 20) + (i * corruption_region_bytes)

(* The early decays and tears land mid-load inside each trail's first
   chunk — a chunk the ring header keeps active, so the scrubber can
   never re-arbitrate it against the checksum table and must quarantine
   it; recovery then leans on verified reads and the mirror-salvage
   replay for those rows.  The late decays land after the load has
   drained, in settled chunks the scrubber has re-scanned clean: those
   it detects, arbitrates, and repairs on the next pass.  Offsets must
   sit inside each trail's {e written} extent (default-params load puts
   ~800 KiB in every trail) or the faults degrade to corrupting padding
   nothing ever reads back. *)
let corruption_plan =
  let base = corruption_trail_base in
  Faultplan.
    [
      at (Time.ms 12) (Torn_write { device = 1 });
      at (Time.ms 22) (Torn_write { device = 0 });
      (* The primary-side decay spans a whole frame (~4.1 KiB): audit
         frames CRC their body but carry the row payload as padding, so
         a narrow flip could land between bodies and corrupt only bytes
         the row-presence audit cannot see.  A frame-wide span
         guarantees the negative control visibly truncates the
         replay. *)
      at (Time.ms 30) (Media_decay { device = 1; off = base 0 + 8_192; bits = 48 });
      at (Time.ms 40) (Media_decay { device = 0; off = base 1 + 8_192; bits = 8 * 4_200 });
      at (Time.ms 950) (Media_decay { device = 1; off = base 2 + (300 * 1024); bits = 16 });
      at (Time.ms 960) (Media_decay { device = 0; off = base 3 + (300 * 1024); bits = 16 });
    ]

(* Decay injected at the crash itself, after the scrubber dies: only a
   verified read during recovery can catch these.  Offsets sit in the
   middle of each trail's written area — chunks the scrubber last saw
   clean, so the read path can arbitrate them against the table. *)
let corruption_crash_decay =
  [
    (0, corruption_trail_base 0 + (300 * 1024), 8 * 4_200);
    (1, corruption_trail_base 1 + (300 * 1024), 24);
  ]

(* --- Gray failure: fail-slow hardware --- *)

(* Small regions keep the re-admission resync in the low hundreds of
   milliseconds, so a demoted mirror provably comes back inside the
   drill's settle window.  The defenses: the PMM mirror-health monitor,
   client latency-health tracking, hedged reads, adaptive backoff. *)
let gray_config ~defenses =
  {
    System.pm_config with
    System.pm_region_bytes = 2 * 1024 * 1024;
    pm_health = (if defenses then Some Pm.Pmm.default_health_config else None);
    pm_slo_budget = (if defenses then Time.us 150 else 0);
    pm_hedged_reads = defenses;
    pm_adaptive_backoff = defenses;
  }

(* Enough commits that the detection window's handful of slow commits
   sits below the p99 index: 2 drivers x 300 txns = 600 samples, so p99
   tolerates ~6 outliers.  The defended run eats 2-4 slow commits before
   demotion; the undefended run eats every commit from the degradation
   to the restore.  Rows are small so the whole load (4800 rows) fits
   the 2 MiB trail rings without wrapping — a wrapped ring sheds old
   records and the durability audit would blame the gray defenses for
   rows the ring geometry lost. *)
let gray_params =
  { default_params with records_per_driver = 2_400; record_bytes = 1_024 }

(* Stage the degradations while the load runs hot: the mirror NPMU goes
   fail-slow first (the mode mirrored writes are most exposed to), then
   a congested rail and a dragging data spindle pile on, then everything
   is restored so the drill can also prove re-admission.

   The mirror factor must dwarf the commit interval: group commit
   pipelines trail flushes behind the CPU-bound insert path, so a
   mirror that is "only" ~10x slower hides in that shadow.  At 200x a
   mirrored append takes ~100 ms per transaction — nothing can hide it — and the 780 ms
   exposure window leaves an undefended run with far more than 1% of
   its commits stalled, so the p99 gate provably separates the two. *)
let gray_plan =
  Faultplan.
    [
      at (Time.ms 20)
        (Slow_device { device = 1; factor = 200.0; jitter = Time.us 200 });
      at (Time.ms 200) (Slow_rail { rail = 0; factor = 2.0 });
      at (Time.ms 300) (Slow_disk { volume = 0; factor = 3.0; jitter = Time.us 100 });
      at (Time.ms 800) Restore_speed;
    ]

(* --- Overload: flash crowd, open loop --- *)

(* The defended platform: admission control at the monitor, deadlines
   minted at arrival, budgeted retries and breakers at every client.
   [client_op_timeout] is the environment, not a defense — clients are
   impatient either way; that impatience is what makes overload
   metastable when nothing contains it. *)
let overload_config ~defenses =
  {
    System.pm_config with
    System.client_deadline = (if defenses then Time.ms 150 else 0);
    client_op_timeout = Time.ms 300;
    client_retry_budget = (if defenses then 12.0 else 0.0);
    client_breakers = defenses;
    pm_retry_budget = (if defenses then 12.0 else 0.0);
    tmf = { Tmf.default_config with Tmf.admission = defenses };
  }

let overload_plan p =
  Faultplan.
    [ at p.ov_warmup (Flash_crowd { spike = p.ov_spike; spike_for = p.ov_spike_for }) ]

let overload_schedule p =
  Arrival.flash_crowd ~base:p.ov_base_rate ~spike:(p.ov_base_rate *. p.ov_spike)
    ~cool:p.ov_base_rate ~warmup:p.ov_warmup ~spike_for:p.ov_spike_for
    ~cooldown:p.ov_cooldown ()

(* --- The scenario catalogue --- *)

let plan_names = function
  | Node System.Pm_audit -> [ "standard"; "kills"; "corruption"; "grayfail"; "overload"; "none" ]
  | Node System.Disk_audit -> [ "standard"; "kills"; "none" ]
  | Cluster -> [ "partition"; "none" ]

let defendable = [ "corruption"; "grayfail"; "overload" ]

let scenario ?(defenses = true) platform name =
  let s =
    {
      name;
      platform;
      seed = 0xD5177L;
      config = (match platform with Cluster -> System.pm_config | Node _ -> System.default_config);
      load = Closed (match platform with Cluster -> cluster_params | Node _ -> default_params);
      plan = [];
      recovery_plan = [];
      crash_decay = [];
      baseline = false;
      horizon = None;
      max_outage = None;
    }
  in
  if (not defenses) && not (List.mem name defendable) then
    Error
      (Printf.sprintf "--no-defenses only applies to plans %s"
         (String.concat ", " defendable))
  else
    match (platform, name) with
    | _, "none" -> Ok s
    | Node mode, "standard" -> Ok { s with plan = standard_plan mode }
    | Node mode, "kills" ->
        (* Process-pair decapitations only. *)
        Ok
          {
            s with
            plan =
              List.filter
                (fun ev ->
                  match ev.Faultplan.action with Faultplan.Kill_primary _ -> true | _ -> false)
                (standard_plan mode);
          }
    | Node System.Pm_audit, "corruption" ->
        Ok
          {
            s with
            config =
              (if defenses then corruption_config
               else { corruption_config with System.pm_scrub = None; pm_verified_reads = false });
            plan = corruption_plan;
            crash_decay = corruption_crash_decay;
          }
    | Node System.Pm_audit, "grayfail" ->
        Ok
          {
            s with
            config = gray_config ~defenses;
            load = Closed gray_params;
            plan = gray_plan;
            baseline = true;
          }
    | Node System.Pm_audit, "overload" ->
        Ok
          {
            s with
            config = overload_config ~defenses;
            load = Open overload_params;
            plan = overload_plan overload_params;
          }
    | Cluster, ("partition" | "standard") -> Ok { s with name = "partition"; plan = partition_plan }
    | Node System.Disk_audit, n when List.mem n defendable ->
        Error (Printf.sprintf "plan '%s' requires --mode pm" n)
    | _ ->
        Error
          (Printf.sprintf "unknown plan '%s' (%s)" name
             (String.concat "|" (plan_names platform)))

(* --- The runner --- *)

(* The black-box dump a failed drill leaves behind: recent spans plus
   the fault-injection marks, one JSON document. *)
let dump_flight path fr =
  let oc = open_out path in
  output_string oc (Json.to_string (Flightrec.to_json fr));
  output_char oc '\n';
  close_out oc

(* Arm a flight recorder: reuse the caller's observability context (or
   grow a private one), make sure spans flow, and stream every finished
   span into the recorder's ring. *)
let arm_flight flight obs =
  match flight with
  | None -> (None, obs)
  | Some _ ->
      let o = match obs with Some o -> o | None -> Obs.create () in
      let fr = Flightrec.create () in
      Span.enable (Obs.spans o);
      Flightrec.attach fr (Obs.spans o);
      (Some fr, Some o)

let mark_faults recorder faults =
  match recorder with
  | Some fr -> List.iter (fun (time, label) -> Flightrec.mark fr ~time label) faults
  | None -> ()

let config_for base mode =
  match mode with
  | System.Disk_audit -> { base with System.log_mode = System.Disk_audit }
  | System.Pm_audit ->
      { base with System.log_mode = System.Pm_audit; txn_state_in_pm = true }

(* What the load drivers share: the acked keys as (node, file, key) —
   the durability contract the auditor checks — and the outcome
   counters. *)
type tally = {
  sim : Sim.t;
  rt : Stat.t;
  mutable acked : (int * int * int) list;
  mutable committed : int;
  mutable failed : int;
  mutable rejected : int;
}

let ack t keys t0 =
  t.committed <- t.committed + 1;
  t.acked <- List.rev_append keys t.acked;
  Stat.add_span t.rt (Sim.now t.sim - t0)

(* The hot-stock insert mix, tolerant of the system dropping out from
   under it: [begin] is retried across takeovers, commit failures are
   counted and the driver moves on.  Only [Ok] commit replies count as
   acked. *)
let node_driver system params ~index t =
  let cfg = System.config system in
  let session = System.session system ~cpu:(index mod cfg.System.worker_cpus) in
  let files = cfg.System.files in
  let key_base = (index + 1) * 100_000_000 in
  let total = params.records_per_driver in
  let per_txn = params.inserts_per_txn in
  let begin_with_retry () =
    let rec go attempts =
      match Txclient.begin_txn session with
      | Ok txn -> Some txn
      | Error _ when attempts > 0 ->
          Sim.sleep (Time.ms 250);
          go (attempts - 1)
      | Error _ -> None
    in
    go params.begin_retries
  in
  let seq = ref 0 in
  while !seq < total do
    let t0 = Sim.now t.sim in
    let in_this_txn = min per_txn (total - !seq) in
    let keys =
      List.init in_this_txn (fun i ->
          let idx = !seq + i in
          (0, idx mod files, key_base + idx + (idx / per_txn)))
    in
    seq := !seq + in_this_txn;
    match begin_with_retry () with
    | None -> t.failed <- t.failed + 1
    | Some txn -> (
        List.iter
          (fun (_, file, key) ->
            Txclient.insert_async session txn ~file ~key ~len:params.record_bytes ())
          keys;
        match Txclient.commit session txn with
        | Ok () -> ack t keys t0
        | Error _ -> t.failed <- t.failed + 1)
  done

(* Distributed hot-stock mix: every transaction spreads its inserts
   across the nodes and commits two-phase.  Failures are data — during
   a partition cross-node calls time out fast and the driver moves on. *)
let cluster_driver cluster params ~index t =
  let nodes = Cluster.node_count cluster in
  let coordinator = index mod nodes in
  let cfg = System.config (Cluster.system cluster coordinator) in
  let files = cfg.System.files in
  let key_base = (index + 1) * 100_000_000 in
  let total = params.records_per_driver in
  let per_txn = params.inserts_per_txn in
  let seq = ref 0 in
  while !seq < total do
    let t0 = Sim.now t.sim in
    let in_this_txn = min per_txn (total - !seq) in
    let keys =
      List.init in_this_txn (fun i ->
          let idx = !seq + i in
          ((coordinator + idx) mod nodes, idx mod files, key_base + idx))
    in
    seq := !seq + in_this_txn;
    let dtx = Dtx.begin_dtx cluster ~coordinator ~cpu:(index mod cfg.System.worker_cpus) in
    let inserted =
      List.fold_left
        (fun acc (node, file, key) ->
          match acc with
          | Error _ as e -> e
          | Ok () -> Dtx.insert dtx ~node ~file ~key ~len:params.record_bytes)
        (Ok ()) keys
    in
    match inserted with
    | Error _ ->
        t.failed <- t.failed + 1;
        ignore (Dtx.abort dtx);
        (* Back off so a dead monitor doesn't turn the loop into a
           zero-work spin. *)
        Sim.sleep (Time.ms 2)
    | Ok () -> (
        match Dtx.commit dtx with
        | Ok () -> ack t keys t0
        | Error _ ->
            t.failed <- t.failed + 1;
            Sim.sleep (Time.ms 2))
  done

(* Open-loop flash crowd: one worker per arrival.  Rejection is
   respected immediately (that is the contract the defended system
   offers); failure is retried a bounded number of times, because real
   clients do — the driver-level half of the retry storm.  Returns the
   arrival count and the session pool, whose counters are harvested
   before the crash. *)
let open_load system p t =
  let cfg = System.config system in
  let node = System.node system in
  let workers = cfg.System.worker_cpus in
  let pool = Array.init workers (fun i -> System.session system ~cpu:i) in
  let files = cfg.System.files in
  let per_txn = p.ov_inserts_per_txn in
  let outstanding = ref 0 in
  let worker index () =
    let session = pool.(index mod workers) in
    let keys =
      List.init per_txn (fun i -> (0, i mod files, 900_000_000 + (index * per_txn) + i))
    in
    let retry_or_fail e retries again =
      if Txclient.is_rejected e then t.rejected <- t.rejected + 1
      else if retries > 0 then begin
        Sim.sleep (Time.ms 100);
        again (retries - 1)
      end
      else t.failed <- t.failed + 1
    in
    let rec attempt retries =
      let t0 = Sim.now t.sim in
      match Txclient.begin_txn session with
      | Error e -> retry_or_fail e retries attempt
      | Ok txn -> (
          List.iter
            (fun (_, file, key) ->
              Txclient.insert_async session txn ~file ~key ~len:p.ov_record_bytes ())
            keys;
          match Txclient.commit session txn with
          | Ok () -> ack t keys t0
          | Error e -> retry_or_fail e retries attempt)
    in
    attempt p.ov_client_retries;
    decr outstanding
  in
  let rng = Rng.split (Sim.rng t.sim) in
  let arrivals =
    Arrival.run ~rng (overload_schedule p) ~f:(fun index ->
        incr outstanding;
        ignore
          (Cpu.spawn
             (Node.cpu node (index mod workers))
             ~name:(Printf.sprintf "ov%d" index)
             (worker index)))
  in
  (* Drain the stragglers — under collapse this tail is long, which the
     windowed series records faithfully. *)
  while !outstanding > 0 do
    Sim.sleep (Time.ms 10)
  done;
  (arrivals, pool)

(* Phase goodput from the per-window commit counts, and the
   metastability measure: the first window inside the cooldown phase
   whose rate is back to the recovery fraction of the warmup rate.  Only
   windows while base-rate load is still arriving count — recovering
   after the offered load stops is exactly what a metastable system
   does. *)
let goodput_of p ~started ~cumulative ~pool system t =
  let windows =
    let prev = ref 0 in
    List.map
      (fun (at, c) ->
        let d = c - !prev in
        prev := c;
        (at, d))
      cumulative
  in
  let spike_start = started + p.ov_warmup in
  let spike_end = spike_start + p.ov_spike_for in
  let sched_end = spike_end + p.ov_cooldown in
  let phase_rate lo hi =
    let commits =
      List.fold_left (fun acc (at, d) -> if at > lo && at <= hi then acc + d else acc) 0 windows
    in
    let dt = Time.to_sec (hi - lo) in
    if dt > 0.0 then float_of_int commits /. dt else 0.0
  in
  let warmup_tps = phase_rate started spike_start in
  let window_sec = Time.to_sec p.ov_window in
  let threshold = p.ov_recovery_frac *. warmup_tps in
  let recovery_time =
    List.find_map
      (fun (at, d) ->
        if at > spike_end && at <= sched_end && float_of_int d /. window_sec >= threshold
        then Some (at - spike_end)
        else None)
      windows
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 pool in
  let tmf = System.tmf system in
  {
    rejected = t.rejected;
    timeouts = sum Txclient.timeouts;
    admitted = Tmf.admitted tmf;
    tmf_rejected = Tmf.rejected tmf;
    tmf_expired = Tmf.expired tmf;
    adp_shed = System.adp_shed_expired system;
    retry_denied =
      sum (fun s ->
          match Txclient.retry_budget s with Some b -> Retry_budget.denied b | None -> 0);
    breaker_trips = sum Txclient.breaker_trips;
    warmup_tps;
    spike_tps = phase_rate spike_start spike_end;
    cooldown_tps = phase_rate spike_end sched_end;
    recovery_time;
    windows;
  }

let availability_of systems =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 systems in
  let sum_arr f arr = Array.fold_left (fun acc x -> acc + f x) 0 arr in
  let pmm f = sum (fun s -> match System.pmm s with Some p -> f p | None -> 0) in
  {
    adp_takeovers =
      sum (fun s -> sum_arr Adp.pair_takeovers (System.adps s) + Adp.pair_takeovers (System.mat s));
    dp2_takeovers = sum (fun s -> sum_arr Dp2.pair_takeovers (System.dp2s s));
    tmf_takeovers = sum (fun s -> Tmf.pair_takeovers (System.tmf s));
    pmm_takeovers = pmm Pm.Pmm.takeovers;
    outage =
      sum (fun s ->
          sum_arr Adp.outage_time (System.adps s)
          + Adp.outage_time (System.mat s)
          + sum_arr Dp2.outage_time (System.dp2s s)
          + Tmf.outage_time (System.tmf s))
      + pmm Pm.Pmm.outage_time;
    degraded_writes = sum System.degraded_pm_writes;
    pm_write_retries = sum System.pm_write_retries;
    packet_retries =
      sum (fun s ->
          (Servernet.Fabric.stats (Node.fabric (System.node s))).Servernet.Fabric.packet_retries);
  }

(* Full-content audit: every mirrored byte of every region compared, not
   just the rows the replay touched.  Anything still divergent that is
   neither repaired nor quarantined is silent corruption the defenses
   missed. *)
let integrity_of system pmm ~plan ~crash_faults =
  let count p = List.length (List.filter (fun ev -> p ev.Faultplan.action) plan) in
  {
    decay_injected =
      count (function Faultplan.Media_decay _ -> true | _ -> false) + List.length crash_faults;
    torn_injected = count (function Faultplan.Torn_write _ -> true | _ -> false);
    scrub_chunks = Pm.Pmm.scrub_chunks_scanned pmm;
    scrub_repairs = Pm.Pmm.scrub_repairs pmm;
    scrub_quarantined = Pm.Pmm.scrub_quarantined pmm;
    read_repairs = System.pm_read_repairs system;
    verify_unrepaired = System.pm_verify_unrepaired system;
    unrepaired_divergence = List.length (Pm.Pmm.divergent_chunks pmm);
  }

let mitigation_of system pmm =
  {
    demotions = Pm.Pmm.demotions pmm;
    readmissions = Pm.Pmm.readmissions pmm;
    mirror_active = Pm.Pmm.mirror_active pmm;
    monitor_probes = Pm.Pmm.monitor_probes pmm;
    slow_suspects = System.pm_slow_suspects system;
    hedged_reads = System.pm_hedged_reads system;
    hedge_wins = System.pm_hedge_wins system;
    single_copy_writes = System.pm_single_copy_writes system;
  }

(* One drill, inside the simulation: build, validate, load under the
   plan, settle, crash, recover under the recovery plan, audit. *)
let drill_body ?obs ?sample_interval ~recorder sim cfg s =
  let cluster, systems =
    match s.platform with
    | Node _ -> (None, [| System.build ?obs sim cfg |])
    | Cluster ->
        (* A fat interconnect latency widens the in-flight window of
           every cross-node call, so a partition pulse reliably catches
           prepares and decides mid-air. *)
        let c = Cluster.build sim ~nodes:2 ~wan_latency:(Time.us 500) ?obs cfg in
        (Some c, Array.init 2 (Cluster.system c))
  in
  let system = systems.(0) in
  (* The scrubber and mirror-health monitor (started by [System.build]
     when the config asks for them) sleep forever between passes; every
     exit from the drill must stop them or the simulation never
     quiesces. *)
  let stop_background () =
    Array.iter
      (fun sys ->
        match System.pmm sys with
        | Some p ->
            Pm.Pmm.stop_scrubber p;
            Pm.Pmm.stop_monitor p
        | None -> ())
      systems
  in
  (* Node-local faults target node 0 — in a cluster, the coordinator
     side of every even driver's transactions.  Only open-loop load may
     carry the flash-crowd marker. *)
  let validate ?horizon plan =
    match (cluster, s.load) with
    | Some c, _ -> Faultplan.validate_cluster ?horizon c ~node:0 plan
    | None, Open _ -> Faultplan.validate_overload ?horizon system plan
    | None, Closed _ -> Faultplan.validate ?horizon system plan
  in
  let launch plan =
    match (cluster, s.load) with
    | Some c, _ -> Faultplan.launch_cluster c ~node:0 plan
    | None, Open _ -> Faultplan.launch_overload system plan
    | None, Closed _ -> Faultplan.launch system plan
  in
  let validated =
    match validate ?horizon:s.horizon s.plan with
    | Error e -> Error ("fault plan: " ^ e)
    | Ok () -> (
        match validate s.recovery_plan with
        | Error e -> Error ("recovery fault plan: " ^ e)
        | Ok () -> Ok ())
  in
  match validated with
  | Error e ->
      stop_background ();
      Error e
  | Ok () -> (
      let t =
        {
          sim;
          rt = Stat.create ~name:"drill-rt" ();
          acked = [];
          committed = 0;
          failed = 0;
          rejected = 0;
        }
      in
      let started = Sim.now sim in
      (* Event-aligned overlay: outcome gauges sampled on the telemetry
         cadence, with fault injections as marks. *)
      let ts =
        match (sample_interval, obs) with
        | Some interval, Some o ->
            let m = Obs.metrics o in
            Metrics.register_gauge m "drill.committed" (fun () -> float_of_int t.committed);
            Metrics.register_gauge m "drill.rejected" (fun () -> float_of_int t.rejected);
            Metrics.register_gauge m "drill.failed" (fun () -> float_of_int t.failed);
            let ts = Timeseries.create ~sim ~metrics:m ~interval () in
            Timeseries.start ts;
            Some ts
        | _ -> None
      in
      (* Open loop: the cumulative committed count at each window
         boundary, from which the goodput series and its gates derive. *)
      let cumulative = ref [] and sampling = ref true in
      (match s.load with
      | Open p ->
          ignore
            (Sim.spawn sim ~name:"goodput-sampler" (fun () ->
                 while !sampling do
                   Sim.sleep p.ov_window;
                   cumulative := (Sim.now sim, t.committed) :: !cumulative
                 done))
      | Closed _ -> ());
      let frun = launch s.plan in
      let opened =
        match s.load with
        | Open p -> Some (open_load system p t)
        | Closed p ->
            let gate = Gate.create p.drivers in
            for index = 0 to p.drivers - 1 do
              let home = systems.(index mod Array.length systems) in
              let cpu = Node.cpu (System.node home) (index mod cfg.System.worker_cpus) in
              ignore
                (Cpu.spawn cpu
                   ~name:(Printf.sprintf "drill-driver%d" index)
                   (fun () ->
                     (match cluster with
                     | None -> node_driver system p ~index t
                     | Some c -> cluster_driver c p ~index t);
                     Gate.arrive gate))
            done;
            Gate.await gate;
            None
      in
      let elapsed = Sim.now sim - started in
      sampling := false;
      Faultplan.await frun;
      mark_faults recorder (Faultplan.injected frun);
      (match ts with
      | Some ts ->
          Timeseries.stop ts;
          List.iter (fun (time, label) -> Timeseries.mark ts ~time label) (Faultplan.injected frun)
      | None -> ());
      let settle = match s.load with Closed p -> p.settle | Open p -> p.ov_settle in
      Sim.sleep settle;
      (* Harvest what the crash makes meaningless: open-loop client and
         server counters, and the in-doubt window entering recovery. *)
      let goodput =
        match (s.load, opened) with
        | Open p, Some (_, pool) ->
            Some (goodput_of p ~started ~cumulative:(List.rev !cumulative) ~pool system t)
        | _ -> None
      in
      let in_doubt () =
        Array.fold_left (fun acc s -> acc + List.length (Tmf.in_doubt (System.tmf s))) 0 systems
      in
      let in_doubt_before = in_doubt () in
      (* Crash: background scans die with the node, every DP2 loses its
         in-memory image, and any crash-time decay lands un-scrubbed;
         the only truth left is the trails and the PM state. *)
      stop_background ();
      let crash_faults =
        List.filter_map
          (fun (device, off, bits) ->
            match List.nth_opt (System.npmus system) device with
            | Some d ->
                Pm.Npmu.decay d ~off ~bits;
                Some
                  ( Sim.now sim,
                    Printf.sprintf "crash media_decay: device %d, %d bits at offset %d" device
                      bits off )
            | None -> None)
          s.crash_decay
      in
      mark_faults recorder crash_faults;
      Array.iter (fun sys -> Array.iter (fun d -> Dp2.load_table d []) (System.dp2s sys)) systems;
      (* Recovery-phase injection: offsets in the recovery plan are
         relative to the instant recovery starts, so its events land
         while the replay and resolvers are still running. *)
      let rrun = match s.recovery_plan with [] -> None | p -> Some (launch p) in
      let recovered =
        match cluster with
        | None -> Result.map (fun r -> [ r ]) (Recovery.run system)
        | Some c -> Cluster.recover c
      in
      let recovery_faults =
        match rrun with
        | None -> []
        | Some r ->
            Faultplan.await r;
            let injected = Faultplan.injected r in
            mark_faults recorder injected;
            injected
      in
      match recovered with
      | Error e -> Error ("recovery failed: " ^ e)
      | Ok recoveries ->
          (* Cluster lock release rides the monitors' finish queues,
             which drain behind the recovery replies. *)
          if cluster <> None then Sim.sleep settle;
          let lost =
            List.filter
              (fun (node, file, key) ->
                let sys = systems.(node) in
                let d = (System.dp2s sys).((System.routing sys).Txclient.dp2_of ~file ~key) in
                Dp2.lookup_direct d ~file ~key = None)
              t.acked
          in
          let single_pm f =
            match (cluster, System.pmm system) with None, Some pmm -> Some (f pmm) | _ -> None
          in
          let fence f = f frun + match rrun with Some r -> f r | None -> 0 in
          Ok
            {
              scenario = s;
              elapsed;
              faults = Faultplan.injected frun @ crash_faults @ recovery_faults;
              attempted_txns =
                (match opened with Some (arrivals, _) -> arrivals | None -> t.committed + t.failed);
              committed = t.committed;
              failed_txns = t.failed;
              acked_rows = List.length t.acked;
              recovered_rows =
                List.fold_left (fun acc r -> acc + r.Recovery.rows_rebuilt) 0 recoveries;
              lost_rows = List.length lost;
              in_doubt_after = in_doubt ();
              orphaned_locks =
                Array.fold_left (fun acc s -> acc + Lockmgr.held_total (System.locks s)) 0 systems;
              fence_checks = fence Faultplan.fence_checks;
              fence_failures = fence Faultplan.fence_failures;
              response = Stat.summary t.rt;
              availability = availability_of systems;
              recoveries;
              integrity =
                single_pm (fun pmm -> integrity_of system pmm ~plan:s.plan ~crash_faults);
              partition =
                Option.map
                  (fun _ ->
                    {
                      in_doubt_before;
                      fenced_writes =
                        Array.fold_left
                          (fun acc sys ->
                            List.fold_left
                              (fun acc d -> acc + Pm.Npmu.fenced_writes d)
                              acc (System.npmus sys))
                          0 systems;
                    })
                  cluster;
              mitigation = single_pm (mitigation_of system);
              baseline = None;
              goodput;
              timeline = ts;
              flight = recorder;
            })

let run_once ?obs ?prof ?sample_interval ~recorder s =
  let mode = match s.platform with Node m -> m | Cluster -> System.Pm_audit in
  let cfg = { (config_for s.config mode) with System.seed = s.seed } in
  let sim = Sim.create ~seed:s.seed () in
  (match prof with Some p -> Prof.install p sim | None -> ());
  let out = ref (Error "drill: simulation did not complete") in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"drill-main" (fun () ->
        out := drill_body ?obs ?sample_interval ~recorder sim cfg s)
  in
  Sim.run sim;
  (match prof with Some p -> Prof.uninstall p | None -> ());
  !out

let run ?obs ?prof ?sample_interval ?flight s =
  (match (sample_interval, obs) with
  | Some _, None -> invalid_arg "Drill.run: sample_interval requires obs"
  | _ -> ());
  let checked =
    match (s.load, s.platform, sample_interval) with
    | Closed p, _, _ when p.drivers < 1 -> Error "need at least one driver"
    | _, Cluster, Some _ -> Error "timeline sampling is single-node only"
    | _ -> Ok ()
  in
  (* The healthy baseline: same platform, same seed, no faults, no
     instrumentation — its p99 is the latency gate's denominator. *)
  let baseline =
    match checked with
    | Error _ as e -> e
    | Ok () when not s.baseline -> Ok None
    | Ok () -> (
        let healthy = { s with plan = []; recovery_plan = []; crash_decay = []; baseline = false } in
        match run_once ~recorder:None healthy with
        | Ok b -> Ok (Some b)
        | Error e -> Error ("baseline: " ^ e))
  in
  match baseline with
  | Error _ as e -> e
  | Ok baseline ->
      let recorder, obs = arm_flight flight obs in
      let out =
        Result.map
          (fun r -> { r with baseline })
          (run_once ?obs ?prof ?sample_interval ~recorder s)
      in
      (* The black box dumps itself whenever the verdict fails — or the
         drill could not even produce a report. *)
      (match (flight, recorder) with
      | Some path, Some fr -> (
          match out with
          | Error e ->
              Flightrec.mark fr ~time:0 (s.name ^ " drill error: " ^ e);
              dump_flight path fr
          | Ok r ->
              let v = Oracle.of_report r in
              if not (Oracle.pass v) then begin
                Flightrec.mark fr ~time:0 (s.name ^ " gate failed: " ^ Oracle.summary v);
                dump_flight path fr
              end)
      | _ -> ());
      out

(* --- The one renderer --- *)

let mode_name = function
  | Node System.Pm_audit -> "pm"
  | Node System.Disk_audit -> "disk"
  | Cluster -> "cluster"

let opt_json f = function Some x -> f x | None -> Json.Null

let ms_json span = Json.Float (Time.to_ms span)

let sum_recoveries f r = List.fold_left (fun acc x -> acc + f x) 0 r.recoveries

let rec report_json r =
  let s = r.scenario in
  let a = r.availability in
  let int n = Json.Int n in
  Json.Obj
    [
      ("mode", Json.String (mode_name s.platform));
      ("plan", Json.String s.name);
      ("seed", Json.String (Printf.sprintf "0x%Lx" s.seed));
      ("defended", Json.Bool (defended s.config));
      ("elapsed_s", Json.Float (Time.to_sec r.elapsed));
      ( "faults",
        Json.List
          (List.map
             (fun (t, desc) -> Json.Obj [ ("at_ms", ms_json t); ("fault", Json.String desc) ])
             r.faults) );
      ("attempted_txns", int r.attempted_txns);
      ("committed", int r.committed);
      ("failed_txns", int r.failed_txns);
      ("acked_rows", int r.acked_rows);
      ("recovered_rows", int r.recovered_rows);
      ("lost_rows", int r.lost_rows);
      ("in_doubt_after", int r.in_doubt_after);
      ("orphaned_locks", int r.orphaned_locks);
      ("fence_checks", int r.fence_checks);
      ("fence_failures", int r.fence_failures);
      ("zero_loss", Json.Bool (r.lost_rows = 0));
      ("pass", Json.Bool (Oracle.pass (Oracle.of_report r)));
      ("oracle", Oracle.to_json (Oracle.of_report r));
      ( "response_ms",
        Json.Obj
          [
            ("mean", Json.Float (r.response.Stat.mean /. 1e6));
            ("p50", Json.Float (r.response.Stat.p50 /. 1e6));
            ("p99", Json.Float (r.response.Stat.p99 /. 1e6));
          ] );
      ( "availability",
        Json.Obj
          [
            ( "takeovers",
              Json.Obj
                [
                  ("adp", int a.adp_takeovers);
                  ("dp2", int a.dp2_takeovers);
                  ("tmf", int a.tmf_takeovers);
                  ("pmm", int a.pmm_takeovers);
                ] );
            ("outage_ms", ms_json a.outage);
            ("degraded_writes", int a.degraded_writes);
            ("pm_write_retries", int a.pm_write_retries);
            ("packet_retries", int a.packet_retries);
          ] );
      ( "recoveries",
        Json.List
          (List.map
             (fun (rr : Recovery.report) ->
               Json.Obj
                 [
                   ("mttr_ms", ms_json rr.Recovery.mttr);
                   ( "outcome_source",
                     Json.String
                       (match rr.Recovery.outcome_source with
                       | Recovery.Mat_scan -> "mat_scan"
                       | Recovery.Pm_txn_table -> "pm_txn_table") );
                   ("committed_txns", int rr.Recovery.committed_txns);
                   ("in_doubt_txns", int rr.Recovery.in_doubt_txns);
                   ("resolved_commit", int rr.Recovery.resolved_commit);
                   ("resolved_abort", int rr.Recovery.resolved_abort);
                   ("rows_rebuilt", int rr.Recovery.rows_rebuilt);
                 ])
             r.recoveries) );
      ( "integrity",
        opt_json
          (fun i ->
            Json.Obj
              [
                ("decay_injected", int i.decay_injected);
                ("torn_injected", int i.torn_injected);
                ("scrub_chunks", int i.scrub_chunks);
                ("scrub_repairs", int i.scrub_repairs);
                ("scrub_quarantined", int i.scrub_quarantined);
                ("read_repairs", int i.read_repairs);
                ("verify_unrepaired", int i.verify_unrepaired);
                ("unrepaired_divergence", int i.unrepaired_divergence);
                ("clean", Json.Bool (r.lost_rows = 0 && i.unrepaired_divergence = 0));
              ])
          r.integrity );
      ( "partition",
        opt_json
          (fun p ->
            Json.Obj
              [
                ("nodes", int (List.length r.recoveries));
                ("in_doubt_before", int p.in_doubt_before);
                ("resolved_commit", int (sum_recoveries (fun x -> x.Recovery.resolved_commit) r));
                ("resolved_abort", int (sum_recoveries (fun x -> x.Recovery.resolved_abort) r));
                ("fenced_writes", int p.fenced_writes);
              ])
          r.partition );
      ( "mitigation",
        opt_json
          (fun m ->
            Json.Obj
              [
                ("demotions", int m.demotions);
                ("readmissions", int m.readmissions);
                ("mirror_active", Json.Bool m.mirror_active);
                ("monitor_probes", int m.monitor_probes);
                ("slow_suspects", int m.slow_suspects);
                ("hedged_reads", int m.hedged_reads);
                ("hedge_wins", int m.hedge_wins);
                ("single_copy_writes", int m.single_copy_writes);
              ])
          r.mitigation );
      ( "latency_ms",
        opt_json
          (fun b ->
            Json.Obj
              [
                ("healthy_p99", Json.Float (b.response.Stat.p99 /. 1e6));
                ("degraded_p99", Json.Float (r.response.Stat.p99 /. 1e6));
                ("p99_ratio", opt_json (fun x -> Json.Float x) (p99_ratio r));
                ("p99_limit", Json.Float p99_limit);
              ])
          r.baseline );
      ("baseline", opt_json report_json r.baseline);
      ( "goodput",
        match (r.goodput, s.load) with
        | Some g, Open p ->
            Json.Obj
              [
                ("rejected", int g.rejected);
                ("client_timeouts", int g.timeouts);
                ( "admission",
                  Json.Obj
                    [
                      ("admitted", int g.admitted);
                      ("rejected", int g.tmf_rejected);
                      ("expired", int g.tmf_expired);
                      ("adp_shed_expired", int g.adp_shed);
                    ] );
                ( "containment",
                  Json.Obj
                    [
                      ("retry_denied", int g.retry_denied);
                      ("breaker_trips", int g.breaker_trips);
                    ] );
                ( "tps",
                  Json.Obj
                    [
                      ("warmup", Json.Float g.warmup_tps);
                      ("spike", Json.Float g.spike_tps);
                      ("cooldown", Json.Float g.cooldown_tps);
                      ("spike_floor", Json.Float p.ov_spike_floor);
                      ("recovery_frac", Json.Float p.ov_recovery_frac);
                    ] );
                ("recovery_ms", opt_json ms_json g.recovery_time);
                ("recovery_limit_ms", ms_json p.ov_recovery_limit);
                ( "windows",
                  Json.List
                    (List.map
                       (fun (t, d) -> Json.Obj [ ("t_ms", ms_json t); ("committed", int d) ])
                       g.windows) );
              ]
        | _ -> Json.Null );
      ( "timeline",
        opt_json
          (fun ts ->
            Json.Obj
              [
                ("samples", int (Timeseries.sample_count ts));
                ("evicted", int (Timeseries.evicted ts));
                ("series", Timeseries.json ts);
                ("bottlenecks", Timeseries.attribution_json ts);
              ])
          r.timeline );
    ]

let report_text r =
  let b = Buffer.create 2048 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let hr () = line "%s" (String.make 72 '-') in
  let ms f = f /. 1e6 in
  let s = r.scenario in
  let a = r.availability in
  line "drill: plan=%s mode=%s seed=0x%Lx defenses=%s" s.name (mode_name s.platform) s.seed
    (if defended s.config then "on" else "off");
  hr ();
  List.iter (fun (t, desc) -> line "%10.1f ms  %s" (Time.to_ms t) desc) r.faults;
  hr ();
  line "load elapsed       %.3f s" (Time.to_sec r.elapsed);
  line "transactions       %d attempted, %d acked, %d failed" r.attempted_txns r.committed
    r.failed_txns;
  line "response mean/p99  %.2f / %.2f ms" (ms r.response.Stat.mean) (ms r.response.Stat.p99);
  line "takeovers          adp=%d dp2=%d tmf=%d pmm=%d (outage %s)" a.adp_takeovers
    a.dp2_takeovers a.tmf_takeovers a.pmm_takeovers (Time.to_string a.outage);
  line "degraded PM writes %d (retried %d, packet retries %d)" a.degraded_writes
    a.pm_write_retries a.packet_retries;
  List.iteri
    (fun i (rr : Recovery.report) ->
      line "recovery node %d    MTTR %s, %d committed txns, %d rows" i
        (Time.to_string rr.Recovery.mttr) rr.Recovery.committed_txns rr.Recovery.rows_rebuilt)
    r.recoveries;
  line "durability         %d acked rows, %d recovered, %d LOST — %s" r.acked_rows
    r.recovered_rows r.lost_rows
    (if r.lost_rows = 0 then "zero loss" else "DATA LOSS");
  Option.iter
    (fun i ->
      line "corruption         %d decay, %d torn injected" i.decay_injected i.torn_injected;
      line "scrubber           %d chunks scanned, %d repaired, %d quarantined" i.scrub_chunks
        i.scrub_repairs i.scrub_quarantined;
      line "verified reads     %d repaired, %d unrepaired" i.read_repairs i.verify_unrepaired;
      line "integrity audit    %d divergent chunks left — %s" i.unrepaired_divergence
        (if i.unrepaired_divergence = 0 then "clean" else "SILENT CORRUPTION"))
    r.integrity;
  Option.iter
    (fun p ->
      line "in-doubt window    %d entering recovery, %d resolved commit, %d resolved abort, %d left"
        p.in_doubt_before
        (sum_recoveries (fun x -> x.Recovery.resolved_commit) r)
        (sum_recoveries (fun x -> x.Recovery.resolved_abort) r)
        r.in_doubt_after;
      line "epoch fence        %d checks, %d failures, %d stale writes rejected" r.fence_checks
        r.fence_failures p.fenced_writes;
      line "orphaned locks     %d" r.orphaned_locks)
    r.partition;
  Option.iter
    (fun m ->
      line "mirror health      %d probes, %d demotions, %d readmissions, mirror %s"
        m.monitor_probes m.demotions m.readmissions
        (if m.mirror_active then "active" else "DEMOTED");
      line "client defenses    %d slow suspects, %d hedged reads (%d won), %d single-copy writes"
        m.slow_suspects m.hedged_reads m.hedge_wins m.single_copy_writes)
    r.mitigation;
  (match (r.baseline, p99_ratio r) with
  | Some h, Some ratio ->
      line "healthy baseline   %d commits, mean/p99 %.2f / %.2f ms" h.committed
        (ms h.response.Stat.mean) (ms h.response.Stat.p99);
      line "p99 ratio          %.2fx (gate: <= %.1fx) — %s" ratio p99_limit
        (if ratio <= p99_limit then "bounded" else "LATENCY COLLAPSE")
  | _ -> ());
  (match (r.goodput, s.load) with
  | Some g, Open p ->
      line "outcomes           %d rejected (backpressure), %d client call timeouts" g.rejected
        g.timeouts;
      line
        "admission          %d admitted, %d rejected at begin, %d expired at commit, %d flush \
         waits shed"
        g.admitted g.tmf_rejected g.tmf_expired g.adp_shed;
      line "containment        %d resends denied by budget, %d breaker trips" g.retry_denied
        g.breaker_trips;
      line "goodput            warmup %.1f tps, spike %.1f tps (floor %.1f), cooldown %.1f tps"
        g.warmup_tps g.spike_tps (p.ov_spike_floor *. g.warmup_tps) g.cooldown_tps;
      line "goodput recovery   %s (limit %s after spike end)"
        (match g.recovery_time with
        | Some t -> Time.to_string t
        | None -> "NEVER — stayed collapsed under base load (metastable)")
        (Time.to_string p.ov_recovery_limit);
      line "goodput over time (%d windows):" (List.length g.windows);
      line "%12s %10s" "t(ms)" "committed";
      List.iter (fun (t, d) -> line "%12.1f %10d" (Time.to_ms t) d) g.windows
  | _ -> ());
  let v = Oracle.of_report r in
  line "verdict            %s — %s" (if Oracle.pass v then "PASS" else "FAIL") (Oracle.summary v);
  hr ();
  Option.iter
    (fun ts ->
      (* Event-aligned availability overlay: the sampled commit/failure
         gauges interleaved, in time order, with the fault marks. *)
      line "availability overlay (sampled every %s, %d samples, %d evicted):"
        (Time.to_string (Timeseries.interval ts))
        (Timeseries.sample_count ts) (Timeseries.evicted ts);
      line "%12s %10s %8s" "t(ms)" "committed" "failed";
      let value smp key =
        Option.value (List.assoc_opt key smp.Timeseries.s_values) ~default:0.0
      in
      let rec go samples marks =
        match (samples, marks) with
        | _, (mt, label) :: rest
          when match samples with [] -> true | smp :: _ -> mt <= smp.Timeseries.s_time ->
            line "%12.1f  >> fault: %s" (Time.to_ms mt) label;
            go samples rest
        | smp :: more, _ ->
            line "%12.1f %10.0f %8.0f"
              (Time.to_ms smp.Timeseries.s_time)
              (value smp "drill.committed") (value smp "drill.failed");
            go more marks
        | [], _ -> ()
      in
      go (Timeseries.samples ts) (Timeseries.marks ts);
      hr ();
      line "bottleneck attribution (load phase):";
      Buffer.add_string b (Format.asprintf "%a@?" Timeseries.pp_attribution ts);
      hr ())
    r.timeline;
  Buffer.contents b
