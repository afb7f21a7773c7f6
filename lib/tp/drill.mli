open Simkit

(** The drill runner: scenario → report → verdict.

    A scenario names a platform (one node in a log mode, or a 2-node
    cluster), a configuration, a load, and the fault plans.  {!run}
    builds a fresh system, drives the load while the plan fires,
    settles, crashes every node (wipes every DP2 image), runs recovery
    while the recovery plan fires, and audits durability: every
    transaction the client saw acknowledged must be present after
    recovery.  Acknowledged-but-lost rows are the one unforgivable
    failure ({!report.lost_rows}); transactions that visibly failed
    during the faults are availability loss, counted separately.

    The report is one record: a durability core every drill fills, plus
    optional sections the platform and load produce — integrity
    (single-node PM), mitigation (single-node PM), partition (cluster),
    a healthy baseline (scenarios that ask for one), goodput (open-loop
    load).  {!Oracle.of_report} is the only pass predicate: the CLI
    exit code, the flight dump and the explorer all derive from it.

    The drivers are deliberately fault-tolerant where
    {!Workloads.Hot_stock} is strict: they retry [begin] across
    takeovers and treat commit errors as data, because a drill's
    subject is the system's behaviour under faults, not the driver's.

    Everything is derived from the simulation seed, so a drill replays
    bit-for-bit: same scenario, same report. *)

(** Closed-loop load: a fixed driver population, each committing its
    share of the hot-stock insert mix back to back. *)
type params = {
  drivers : int;
  records_per_driver : int;
  record_bytes : int;
  inserts_per_txn : int;
  settle : Time.span;
      (** quiet period after the load and the plan finish, before the
          crash — lets lock-release and checkpoint tails drain *)
  begin_retries : int;
      (** driver-side retries of [begin] across a monitor takeover *)
}

val default_params : params
(** 2 drivers x 400 records, 4 KiB rows, boxcar 8, 500 ms settle. *)

val cluster_params : params
(** Cluster sizing: 2 drivers x 60 records, 1 KiB rows, boxcar 4 —
    every insert crosses the interconnect and every commit runs
    two-phase, so the volume is kept small. *)

(** Open-loop load: a flash-crowd arrival schedule offered to an
    impatient client population, one worker per arrival, plus the
    goodput gates it is judged by. *)
type overload_params = {
  ov_record_bytes : int;
  ov_inserts_per_txn : int;
  ov_base_rate : float;  (** offered txns/s before and after the spike *)
  ov_spike : float;  (** spike multiple of the base rate *)
  ov_warmup : Time.span;
  ov_spike_for : Time.span;
  ov_cooldown : Time.span;
  ov_window : Time.span;  (** goodput sampling window *)
  ov_settle : Time.span;
  ov_client_retries : int;
      (** driver-level whole-transaction retries of a failed (not
          rejected) attempt *)
  ov_spike_floor : float;
      (** gate: spike goodput ≥ floor × warmup goodput *)
  ov_recovery_frac : float;
      (** gate: recovered once a cooldown window's rate is back to this
          fraction of the warmup rate *)
  ov_recovery_limit : Time.span;
      (** gate: recovery must happen within this span of the spike end *)
}

val overload_params : overload_params
(** Base 400 txns/s (~0.6x measured open-loop capacity), 5x spike for
    400 ms, 1.5 s of cooldown observation in 100 ms windows. *)

type load = Closed of params | Open of overload_params

type platform =
  | Node of System.log_mode  (** one node in the given audit mode *)
  | Cluster
      (** two PM nodes behind a 500 us interconnect; every transaction
          spreads across both and commits two-phase, and node-local
          faults target node 0 *)

type scenario = {
  name : string;
      (** the plan name: the JSON [plan] key and the flight-recorder mark
          prefix (["<name> gate failed: ..."]) *)
  platform : platform;
  seed : int64;  (** simulation seed; also stamped into the config *)
  config : System.config;  (** the log mode is forced by [platform] *)
  load : load;
  plan : Faultplan.t;  (** load-phase schedule *)
  recovery_plan : Faultplan.t;
      (** offsets relative to the start of recovery: launched the
          instant recovery begins, awaited (and folded into the fault
          log and fence counters) before the audit *)
  crash_decay : (int * int * int) list;
      (** [(device, off, bits)] flipped on that NPMU at the crash itself
          — after the scrubber stops, before recovery — so only a
          verified read can catch it; out-of-range devices are ignored *)
  baseline : bool;
      (** run the same scenario faultless first; its p99 is the
          denominator of the latency gate *)
  horizon : Time.span option;
      (** plan events offset past this are rejected at validation
          instead of silently never firing *)
  max_outage : Time.span option;
      (** adds the bounded-unavailability check *)
}

val scenario : ?defenses:bool -> platform -> string -> (scenario, string) result
(** The named drill families, seed [0xD5177]:
    - ["standard"]: PM — PMM primary kill, mirror-NPMU power cycle, rail
      flap, CRC noise, resync; disk — ADP, DP2 and TMF kills, rail flap,
      noise.  Offsets assume {!default_params}-scale load.
    - ["kills"]: the standard plan's process-pair kills only.
    - ["corruption"] (PM): media decay and torn stores mid-load and in
      settled chunks plus crash-time decay, on a platform with 2 MiB
      trail regions, the background scrubber and verified reads.
    - ["grayfail"] (PM): the mirror NPMU degrades 200x, then a rail and
      a spindle drag, then everything restores — against the
      mirror-health monitor, latency-health tracking, hedged reads and
      adaptive backoff, judged against a healthy baseline.
    - ["overload"] (PM): an open-loop 5x flash crowd against admission
      control, deadlines, retry budgets and breakers.
    - ["partition"] (cluster; ["standard"] is an alias): WAN pulses
      mid-2PC, a coordinator monitor kill during a long outage, heal,
      PMM takeover, then an epoch-fence probe.
    - ["none"]: no faults.

    [~defenses:false] (corruption, grayfail and overload only) strips
    the defenses and keeps the faults: the negative control.  [Error]
    names an unknown plan, a PM-only plan on a disk node, or a
    defenseless plan run undefended. *)

val plan_names : platform -> string list
(** The names {!scenario} accepts for a platform, canonical first. *)

val corruption_trail_base : int -> int
(** Device byte offset where trail region [i] starts on the corruption
    platform's first-fit layout — where a decay or torn store must land
    to hit written frames.  The explorer aims its media faults with
    this. *)

type availability = {
  adp_takeovers : int;
  dp2_takeovers : int;
  tmf_takeovers : int;
  pmm_takeovers : int;
  outage : Time.span;  (** cumulative headless time across all pairs *)
  degraded_writes : int;  (** PM writes that reached one device only *)
  pm_write_retries : int;  (** transient PM data-path errors retried *)
  packet_retries : int;  (** fabric CRC retransmissions *)
}

(** What silent corruption was injected, which defense caught it, and
    whether any divergence survived recovery unaccounted for. *)
type integrity = {
  decay_injected : int;  (** media-decay events, including crash decay *)
  torn_injected : int;  (** torn-store events scheduled *)
  scrub_chunks : int;  (** chunks the scrubber scanned in total *)
  scrub_repairs : int;  (** divergent chunks the scrubber repaired *)
  scrub_quarantined : int;  (** chunks it quarantined as unarbitratable *)
  read_repairs : int;  (** divergent chunks verified reads repaired *)
  verify_unrepaired : int;  (** divergence verified reads could not fix *)
  unrepaired_divergence : int;
      (** mirrored chunks still divergent after recovery, excluding
          quarantined ones — silent corruption nothing caught: must
          be 0 *)
}

(** Fail-slow detection and mitigation counters, harvested after
    recovery. *)
type mitigation = {
  demotions : int;  (** slow-mirror demotions the PMM performed *)
  readmissions : int;  (** demoted mirrors resynced back in *)
  mirror_active : bool;  (** mirror active at the end *)
  monitor_probes : int;
  slow_suspects : int;  (** client-side SLO-breach transitions *)
  hedged_reads : int;
  hedge_wins : int;
  single_copy_writes : int;  (** writes under the degraded-durability contract *)
}

type partition = {
  in_doubt_before : int;
      (** prepared-but-undecided branches entering recovery, across all
          nodes — the partition's wreckage *)
  fenced_writes : int;
      (** stale-epoch writes the devices rejected (includes the probes) *)
}

(** Open-loop outcome: backpressure, containment and goodput over
    time. *)
type goodput = {
  rejected : int;
      (** attempts refused by admission or breakers — backpressure, not
          loss *)
  timeouts : int;  (** client calls abandoned after [op_timeout] *)
  admitted : int;  (** TMF admission verdicts *)
  tmf_rejected : int;
  tmf_expired : int;  (** commits shed server-side past deadline *)
  adp_shed : int;  (** flush waits shed past deadline *)
  retry_denied : int;  (** resends the token buckets refused *)
  breaker_trips : int;
  warmup_tps : float;  (** committed/s during warmup *)
  spike_tps : float;
  cooldown_tps : float;
  recovery_time : Time.span option;
      (** spike end to the first cooldown window back at the recovery
          fraction of warmup goodput; [None] = stayed collapsed while
          load was still arriving — metastability *)
  windows : (Time.t * int) list;
      (** commits per window (window end, count), oldest first *)
}

type report = {
  scenario : scenario;
  elapsed : Time.span;  (** load phase duration (open loop: with the drain) *)
  faults : (Time.t * string) list;  (** injection log, oldest first *)
  attempted_txns : int;  (** closed loop: acked + failed; open loop: arrivals *)
  committed : int;  (** acknowledged commits — the durability contract *)
  failed_txns : int;  (** transactions the client saw fail *)
  acked_rows : int;  (** rows inside acknowledged transactions *)
  recovered_rows : int;  (** rows recovery rebuilt, all nodes *)
  lost_rows : int;  (** acknowledged rows missing after recovery: must be 0 *)
  in_doubt_after : int;
      (** prepared branches still undecided after recovery: must be 0 *)
  orphaned_locks : int;  (** locks still held after recovery: must be 0 *)
  fence_checks : int;  (** epoch-fence probes executed (load + recovery) *)
  fence_failures : int;
      (** probes whose stale write was accepted: must be 0 *)
  response : Stat.summary;  (** response times of acknowledged commits *)
  availability : availability;  (** summed over nodes *)
  recoveries : Recovery.report list;  (** one per node, in node order *)
  integrity : integrity option;
      (** single-node PM: the post-recovery full-content audit of both
          mirrors ({!Pm.Pmm.divergent_chunks}) plus the repair counters *)
  partition : partition option;  (** cluster platforms *)
  mitigation : mitigation option;  (** single-node PM *)
  baseline : report option;  (** the healthy run, when the scenario asks *)
  goodput : goodput option;  (** open-loop load *)
  timeline : Timeseries.t option;
      (** continuous telemetry over the load phase when [sample_interval]
          was given: cumulative [drill.committed]/[drill.rejected]/
          [drill.failed] gauges plus every layer probe, with fault
          injections as marks *)
  flight : Flightrec.t option;
      (** the armed flight recorder when [flight] was given, already
          dumped if the verdict failed *)
}

val p99_limit : float
(** The latency gate: degraded p99 at most 8x the baseline's. *)

val p99_ratio : report -> float option
(** Commit p99 over the baseline's; [None] without a baseline. *)

val run :
  ?obs:Obs.t ->
  ?prof:Prof.t ->
  ?sample_interval:Time.span ->
  ?flight:string ->
  scenario ->
  (report, string) result
(** Run one scenario — after its faultless baseline, when it asks for
    one.  Owns its simulation; safe to call outside process context.
    [Error] carries a plan-validation, recovery or baseline failure.
    The optional arguments instrument the run without changing what it
    simulates (the baseline is never instrumented): [prof] is installed
    for the whole run, [sample_interval] (requires [obs], else
    [Invalid_argument]; single-node only) records {!report.timeline},
    and [flight] arms a {!Simkit.Flightrec} on the observability
    context (growing a private one if no [obs] was passed, and raising
    the global telemetry level to spans).  Recent spans and every fault
    injection are ring-buffered; when the verdict fails the recorder
    appends ["<name> gate failed: "] and {!Oracle.summary}, and dumps
    itself as JSON to that path — or ["<name> drill error: ..."] when
    the drill errors outright. *)

(** {1 The shared invariant oracle} *)
module Oracle : sig
  type check = {
    ck_name : string;  (** stable identifier, e.g. ["acked_durable"] *)
    ck_ok : bool;
    ck_detail : string;  (** human-readable evidence either way *)
  }

  type verdict = { ok : bool; checks : check list }

  val check : string -> bool -> string -> check

  val make : check list -> verdict
  (** [ok] is the conjunction of the checks. *)

  val pass : verdict -> bool

  val failures : verdict -> check list

  val summary : verdict -> string
  (** One line: ["all invariants hold"] or the failed checks' details,
      [";"]-joined. *)

  val to_json : verdict -> Json.t
  (** [{"pass": bool, "checks": [{"name", "ok", "detail"}, ...]}]. *)

  val of_report : report -> verdict
  (** The one pass predicate.  Every report: zero acked-but-lost rows,
      in-doubt window drained, no orphaned locks, no fence failures,
      integrity clean (trivially true without an integrity audit).
      Plus, by section: bounded unavailability when the scenario sets
      [max_outage]; with a baseline, baseline durable and p99 within
      {!p99_limit} — and, when the config arms the mirror-health
      monitor, a demotion, a re-admission, the mirror active again and
      a client slow-suspect transition; under open-loop load, warmup
      progress, spike goodput at the floor, recovery within the limit —
      and, when the config arms admission control, at least one
      rejection. *)
end

val report_json : report -> Json.t
(** The one drill record.  Every report carries the same top-level
    keys: [mode], [plan], [seed], [defended] (the config arms the
    scrubber, verified reads, the mirror-health monitor or admission
    control), the durability core,
    [zero_loss], [pass], [oracle], [response_ms], [availability],
    [recoveries], and the sections [integrity], [partition],
    [mitigation], [latency_ms], [baseline] (a nested record),
    [goodput] and [timeline] — [null] when absent. *)

val report_text : report -> string
(** Human-readable rendering of the same record, ending with the
    verdict and, when sampled, the availability overlay. *)
