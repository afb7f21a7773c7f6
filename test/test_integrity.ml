(* Storage-integrity tests: silent-corruption injection (decay, torn
   stores), the PMM scrubber, verified reads with read-repair, the
   torn-tail recovery contract, and the corruption drill. *)

open Simkit
open Nsk
open Pm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Crc32: known answers and the incremental API --- *)

let test_crc32_known_answers () =
  (* IEEE 802.3 reference vectors. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check int32) "a" 0xE8B7BE43l (Crc32.string "a");
  Alcotest.(check int32) "abc" 0x352441C2l (Crc32.string "abc")

let test_crc32_incremental_matches_oneshot () =
  let b = Bytes.of_string "incremental-crc-over-several-updates" in
  let n = Bytes.length b in
  let st = Crc32.update Crc32.init b ~pos:0 ~len:10 in
  let st = Crc32.update st b ~pos:10 ~len:5 in
  let st = Crc32.update st b ~pos:15 ~len:(n - 15) in
  Alcotest.(check int32) "split in three" (Crc32.bytes b) (Crc32.finish st);
  Alcotest.(check int32)
    "degenerate single piece"
    (Crc32.sub b ~pos:0 ~len:n)
    (Crc32.finish (Crc32.update Crc32.init b ~pos:0 ~len:n))

let prop_crc32_incremental =
  QCheck.Test.make ~name:"crc32 incremental == one-shot at any split" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 200)) (int_bound 1000))
    (fun (s, cut) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let k = cut mod (n + 1) in
      let st = Crc32.update Crc32.init b ~pos:0 ~len:k in
      let st = Crc32.update st b ~pos:k ~len:(n - k) in
      Crc32.finish st = Crc32.bytes b)

(* Bit-at-a-time CRC-32, straight from the polynomial: no table and no
   code shared with [Crc32]. *)
let crc32_reference s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 1 to 8 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"crc32 == bitwise reference" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 300))
    (fun s -> Crc32.string s = crc32_reference s)

(* --- Topology (same shape as test_pm's) --- *)

type topo = {
  sim : Sim.t;
  node : Node.t;
  npmu_a : Npmu.t;
  npmu_b : Npmu.t;
  pmm : Pmm.t;
}

let make_topo ?(capacity = 1 lsl 20) () =
  let sim = Sim.create ~seed:0x517BL () in
  let node = Node.create sim ~cpus:4 () in
  let fabric = Node.fabric node in
  let npmu_a = Npmu.create sim fabric ~name:"npmu-a" ~capacity in
  let npmu_b = Npmu.create sim fabric ~name:"npmu-b" ~capacity in
  let dev_a = Pmm.device_of_npmu npmu_a in
  let dev_b = Pmm.device_of_npmu npmu_b in
  Pmm.format Pmm.default_config dev_a dev_b;
  let pmm =
    Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0)
      ~backup_cpu:(Node.cpu node 1) ~primary_dev:dev_a ~mirror_dev:dev_b ()
  in
  { sim; node; npmu_a; npmu_b; pmm }

let client ?config topo cpu_idx =
  Pm_client.attach ~cpu:(Node.cpu topo.node cpu_idx) ~fabric:(Node.fabric topo.node)
    ~pmm:(Pmm.server topo.pmm) ?config ()

let verified_config =
  { Pm_client.default_config with Pm_client.verified_reads = true }

(* A scrubber cadence fast enough that a few simulated milliseconds
   cover many passes over the small test regions. *)
let fast_scrub =
  { Pmm.default_scrub_config with Pmm.scrub_interval = Time.us 10 }

(* --- Npmu decay and torn stores --- *)

let test_npmu_decay_flips_bits () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 256 'x'));
      let dev_off = info.Pm_types.net_base + 16 in
      Npmu.decay topo.npmu_b ~off:dev_off ~bits:16;
      check_bool "mirror diverged" true
        (Npmu.peek topo.npmu_a ~off:dev_off ~len:2
        <> Npmu.peek topo.npmu_b ~off:dev_off ~len:2);
      check_int "decay events" 1 (Npmu.decay_events topo.npmu_b);
      check_int "bits flipped" 16 (Npmu.bits_flipped topo.npmu_b);
      (* Decay is silent: a plain read still serves the primary fine. *)
      match Pm_client.read c h ~off:0 ~len:256 with
      | Ok data -> check_str "primary intact" (String.make 256 'x') (Bytes.to_string data)
      | Error _ -> Alcotest.fail "read failed")

let test_npmu_decay_validates () =
  let topo = make_topo ~capacity:65536 () in
  Alcotest.check_raises "bits must be positive"
    (Invalid_argument "Npmu.decay: bits must be positive") (fun () ->
      Npmu.decay topo.npmu_a ~off:0 ~bits:0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Npmu.decay: out of range") (fun () ->
      Npmu.decay topo.npmu_a ~off:65530 ~bits:128)

let test_npmu_tear_last_write () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 128 'w'));
      (match Npmu.tear_last_write topo.npmu_b with
      | None -> Alcotest.fail "nothing torn despite a completed write"
      | Some (off, len) ->
          check_int "tears the trailing half" 64 len;
          check_int "at the write's midpoint" (info.Pm_types.net_base + 64) off);
      check_int "torn counter" 1 (Npmu.torn_writes topo.npmu_b);
      (* Primary copy untouched: the pair diverges. *)
      check_bool "pair diverged" true
        (Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:128
        <> Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:128))

let test_npmu_tear_without_write () =
  let sim = Sim.create () in
  let node = Node.create sim ~cpus:2 () in
  let d = Npmu.create sim (Node.fabric node) ~name:"fresh" ~capacity:4096 in
  check_bool "nothing to tear" true (Npmu.tear_last_write d = None);
  check_int "no torn counter" 0 (Npmu.torn_writes d)

(* --- Scrubber: detect, repair, quarantine --- *)

let test_scrubber_repairs_decayed_mirror () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 4096 'd'));
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~config:fast_scrub ();
      (* Let a clean pass record the chunk in the checksum table. *)
      Sim.sleep (Time.ms 5);
      check_bool "table populated" true (Pmm.scrub_table_entries topo.pmm >= 1);
      Npmu.decay topo.npmu_b ~off:(info.Pm_types.net_base + 100) ~bits:24;
      Sim.sleep (Time.ms 5);
      Pmm.stop_scrubber topo.pmm;
      check_bool "repair counted" true (Pmm.scrub_repairs topo.pmm >= 1);
      check_str "mirror healed from primary"
        (Bytes.to_string (Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:4096))
        (Bytes.to_string (Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:4096));
      check_bool "audit clean" true (Pmm.divergent_chunks topo.pmm = []))

let test_scrubber_quarantines_double_corruption () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 4096 'q'));
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~config:fast_scrub ();
      Sim.sleep (Time.ms 5);
      (* Both copies rot differently: no copy matches the table, so the
         scrubber cannot arbitrate and must quarantine after repeated
         strikes rather than guess. *)
      Npmu.decay topo.npmu_a ~off:(info.Pm_types.net_base + 40) ~bits:8;
      Npmu.decay topo.npmu_b ~off:(info.Pm_types.net_base + 80) ~bits:16;
      Sim.sleep (Time.ms 10);
      Pmm.stop_scrubber topo.pmm;
      check_bool "quarantined" true (Pmm.scrub_quarantined topo.pmm >= 1);
      check_bool "surfaced for the operator" true
        (Pmm.scrub_quarantined_chunks topo.pmm <> []);
      check_int "never guessed a repair" 0 (Pmm.scrub_repairs topo.pmm);
      (* The audit excludes quarantined chunks: they are accounted for,
         not silent. *)
      check_bool "audit excludes quarantined" true (Pmm.divergent_chunks topo.pmm = []))

let test_scrubber_restart_rejected () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~config:fast_scrub ();
      Alcotest.check_raises "double start"
        (Invalid_argument "Pmm.start_scrubber: already running") (fun () ->
          Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~config:fast_scrub ());
      Pmm.stop_scrubber topo.pmm;
      Pmm.stop_scrubber topo.pmm (* idempotent *))

(* --- Verified reads --- *)

let test_verified_read_repairs_decayed_primary () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:verified_config topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 4096 'v'));
      (* One scrub pass builds the trusted checksum table, then the
         scrubber stops — read repair must work on its own. *)
      Pmm.start_scrubber topo.pmm ~cpu:(Node.cpu topo.node 0) ~config:fast_scrub ();
      Sim.sleep (Time.ms 5);
      Pmm.stop_scrubber topo.pmm;
      Sim.sleep (Time.ms 2);
      Npmu.decay topo.npmu_a ~off:(info.Pm_types.net_base + 50) ~bits:32;
      (match Pm_client.read c h ~off:0 ~len:4096 with
      | Ok data -> check_str "served repaired contents" (String.make 4096 'v') (Bytes.to_string data)
      | Error _ -> Alcotest.fail "verified read failed");
      check_int "read repair counted" 1 (Pm_client.read_repairs c);
      check_int "nothing unrepairable" 0 (Pm_client.verify_unrepaired c);
      check_str "primary healed from mirror"
        (Bytes.to_string (Npmu.peek topo.npmu_b ~off:info.Pm_types.net_base ~len:4096))
        (Bytes.to_string (Npmu.peek topo.npmu_a ~off:info.Pm_types.net_base ~len:4096)))

let test_verified_read_without_table_serves_primary () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:verified_config topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"r" ~size:8192)
      in
      let info = Pm_client.info h in
      Test_util.check_result_ok "write"
        (Pm_client.write c h ~off:0 ~data:(Bytes.make 256 'p'));
      (* No scrubber has ever run: divergence is detected but cannot be
         arbitrated, so the read counts it and serves the primary. *)
      Npmu.decay topo.npmu_b ~off:(info.Pm_types.net_base + 8) ~bits:8;
      (match Pm_client.read c h ~off:0 ~len:256 with
      | Ok data -> check_str "primary served" (String.make 256 'p') (Bytes.to_string data)
      | Error _ -> Alcotest.fail "read failed");
      check_bool "divergence seen" true (Pm_client.verify_divergences c >= 1);
      check_bool "counted unrepaired" true (Pm_client.verify_unrepaired c >= 1);
      check_int "no repair invented" 0 (Pm_client.read_repairs c))

(* --- Pm_queue: torn record beyond the tail --- *)

let test_pm_queue_ignores_corruption_beyond_tail () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create"
          (Pm_client.create_region c ~name:"q" ~size:32768)
      in
      let info = Pm_client.info h in
      let q = Test_util.ok_or_fail ~msg:"queue" (Pm_queue.create c h) in
      Test_util.check_result_ok "enq alpha" (Pm_queue.enqueue q (Bytes.of_string "alpha"));
      Test_util.check_result_ok "enq beta" (Pm_queue.enqueue q (Bytes.of_string "beta"));
      (* A crash mid-enqueue leaves a torn record past the tail; model
         it as garbage on both devices beyond the committed records. *)
      let beyond = info.Pm_types.net_base + info.Pm_types.length - 256 in
      Npmu.decay topo.npmu_a ~off:beyond ~bits:(8 * 64);
      Npmu.decay topo.npmu_b ~off:beyond ~bits:(8 * 64);
      (* A fresh consumer (as after the crash) drains exactly the
         committed records and never surfaces the garbage. *)
      let c2 = client topo 3 in
      let h2 = Test_util.ok_or_fail ~msg:"open" (Pm_client.open_region c2 ~name:"q") in
      let q2 = Test_util.ok_or_fail ~msg:"attach" (Pm_queue.attach c2 h2) in
      (match Pm_queue.dequeue q2 with
      | Ok (Some b) -> check_str "first" "alpha" (Bytes.to_string b)
      | _ -> Alcotest.fail "expected alpha");
      (match Pm_queue.dequeue q2 with
      | Ok (Some b) -> check_str "second" "beta" (Bytes.to_string b)
      | _ -> Alcotest.fail "expected beta");
      match Pm_queue.dequeue q2 with
      | Ok None -> ()
      | _ -> Alcotest.fail "torn bytes beyond the tail surfaced")

(* --- Log backend: torn tails, torn headers, mirror salvage --- *)

let update_record key =
  Tp.Audit.Update
    { txn = 1; file = 0; partition = 0; key; payload_len = 64; payload_crc = 0; before_len = 0 }

let append_records log n =
  for i = 1 to n do
    Test_util.check_result_ok "append"
      (Tp.Log_backend.write_records log [ (i, update_record (100 + i)) ])
  done

let test_recovery_truncates_torn_tail () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"t" ~size:65536)
      in
      let info = Pm_client.info h in
      let log = Tp.Log_backend.pm c h in
      append_records log 2;
      let b2 = Tp.Log_backend.bytes_written log in
      append_records log 1;
      (* Corrupt the final frame's header bytes on BOTH copies — a true
         torn tail (power cut mid-append).  Recovery must truncate to
         the last valid frame, not error. *)
      let frame3 = info.Pm_types.net_base + 64 + b2 in
      Npmu.decay topo.npmu_a ~off:(frame3 + 10) ~bits:32;
      Npmu.decay topo.npmu_b ~off:(frame3 + 10) ~bits:32;
      match Tp.Log_backend.recovery_read log with
      | Error e -> Alcotest.fail ("recovery errored on a torn tail: " ^ e)
      | Ok records ->
          check_int "truncated to the valid prefix" 2 (List.length records);
          List.iteri
            (fun i (asn, _) -> check_int "asn order" (i + 1) asn)
            records)

let test_recovery_salvages_torn_frame_from_mirror () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client ~config:verified_config topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"t" ~size:65536)
      in
      let info = Pm_client.info h in
      let log = Tp.Log_backend.pm c h in
      append_records log 1;
      let b1 = Tp.Log_backend.bytes_written log in
      append_records log 2;
      (* Frame 2 torn on the primary only: every record reached both
         mirrors before its commit acked, so the replay salvages the
         rest of the trail from the mirror instead of truncating two
         acknowledged records away. *)
      Npmu.decay topo.npmu_a ~off:(info.Pm_types.net_base + 64 + b1 + 10) ~bits:32;
      match Tp.Log_backend.recovery_read log with
      | Error e -> Alcotest.fail ("recovery errored: " ^ e)
      | Ok records -> check_int "all three records recovered" 3 (List.length records))

let test_recovery_scans_past_torn_header () =
  let topo = make_topo () in
  Test_util.run_in topo.sim (fun () ->
      let c = client topo 2 in
      let h =
        Test_util.ok_or_fail ~msg:"create" (Pm_client.create_region c ~name:"t" ~size:65536)
      in
      let info = Pm_client.info h in
      let log = Tp.Log_backend.pm c h in
      append_records log 3;
      (* Garble the ring header's magic: the write frontier cannot be
         trusted, so recovery falls back to a full-area scan and lets the
         per-frame CRCs find the end of the valid prefix. *)
      Npmu.decay topo.npmu_a ~off:info.Pm_types.net_base ~bits:16;
      Npmu.decay topo.npmu_b ~off:info.Pm_types.net_base ~bits:16;
      match Tp.Log_backend.recovery_read log with
      | Error e -> Alcotest.fail ("recovery errored on a torn header: " ^ e)
      | Ok records -> check_int "full scan finds every record" 3 (List.length records))

(* --- Faultplan validation --- *)

let test_faultplan_rejects_pm_faults_on_disk () =
  let sim = Sim.create ~seed:0x11L () in
  Test_util.run_in sim (fun () ->
      let system = Tp.System.build sim Tp.System.default_config in
      (match
         Tp.Faultplan.validate system
           [
             Tp.Faultplan.at (Time.ms 1)
               (Tp.Faultplan.Media_decay { device = 0; off = 0; bits = 8 });
           ]
       with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "media decay accepted on a disk-audit system");
      match
        Tp.Faultplan.validate system
          [ Tp.Faultplan.at (Time.ms 1) (Tp.Faultplan.Torn_write { device = 0 }) ]
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "torn write accepted on a disk-audit system")

(* --- The corruption drill --- *)

let corruption_drill ?defenses ~seed () =
  Test_util.drill_report
    (Test_util.drill_scenario ?defenses ~seed (Tp.Drill.Node Tp.System.Pm_audit) "corruption")

let drill_integrity r =
  match r.Tp.Drill.integrity with
  | Some i -> i
  | None -> Alcotest.fail "PM drill report carries no integrity audit"

let test_corruption_drill_defended () =
  (* Two seeds: the gates must hold on each, not by luck on one. *)
  List.iter
    (fun seed ->
      let r = corruption_drill ~seed () in
      let i = drill_integrity r in
      check_int "zero acked rows lost" 0 r.Tp.Drill.lost_rows;
      check_int "zero unrepaired divergence" 0 i.Tp.Drill.unrepaired_divergence;
      check_bool "scrubber repaired at least one decay" true (i.Tp.Drill.scrub_repairs >= 1);
      check_bool "a verified read repaired at least one decay" true
        (i.Tp.Drill.read_repairs >= 1);
      check_bool "invariant bundle" true (Test_util.drill_pass r))
    [ 0xD5177L; 42L ]

let test_corruption_drill_deterministic () =
  let run () =
    let r = corruption_drill ~seed:7L () in
    let i = drill_integrity r in
    ( r.Tp.Drill.elapsed,
      r.Tp.Drill.acked_rows,
      r.Tp.Drill.lost_rows,
      i.Tp.Drill.scrub_repairs,
      i.Tp.Drill.scrub_quarantined,
      i.Tp.Drill.read_repairs,
      i.Tp.Drill.unrepaired_divergence )
  in
  check_bool "same seed, same report" true (run () = run ())

let test_corruption_drill_negative_control () =
  let r = corruption_drill ~seed:0xD5177L ~defenses:false () in
  let i = drill_integrity r in
  check_bool "undefended run loses acked rows" true (r.Tp.Drill.lost_rows > 0);
  check_bool "divergence left behind" true (i.Tp.Drill.unrepaired_divergence > 0);
  check_int "no scrubber ran" 0 i.Tp.Drill.scrub_chunks;
  check_bool "invariant violated" true (not (Test_util.drill_pass r))

let suite =
  [
    ( "integrity.crc32",
      [
        Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
        Alcotest.test_case "incremental matches one-shot" `Quick
          test_crc32_incremental_matches_oneshot;
        QCheck_alcotest.to_alcotest prop_crc32_incremental;
        QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
      ] );
    ( "integrity.injection",
      [
        Alcotest.test_case "decay flips bits silently" `Quick test_npmu_decay_flips_bits;
        Alcotest.test_case "decay validates arguments" `Quick test_npmu_decay_validates;
        Alcotest.test_case "torn store corrupts trailing half" `Quick
          test_npmu_tear_last_write;
        Alcotest.test_case "nothing to tear before any write" `Quick
          test_npmu_tear_without_write;
        Alcotest.test_case "disk mode rejects PM faults" `Quick
          test_faultplan_rejects_pm_faults_on_disk;
      ] );
    ( "integrity.scrubber",
      [
        Alcotest.test_case "repairs a decayed mirror" `Quick
          test_scrubber_repairs_decayed_mirror;
        Alcotest.test_case "quarantines double corruption" `Quick
          test_scrubber_quarantines_double_corruption;
        Alcotest.test_case "single instance, idempotent stop" `Quick
          test_scrubber_restart_rejected;
      ] );
    ( "integrity.verified_reads",
      [
        Alcotest.test_case "repairs a decayed primary" `Quick
          test_verified_read_repairs_decayed_primary;
        Alcotest.test_case "unarbitratable divergence serves primary" `Quick
          test_verified_read_without_table_serves_primary;
      ] );
    ( "integrity.torn",
      [
        Alcotest.test_case "queue ignores corruption beyond tail" `Quick
          test_pm_queue_ignores_corruption_beyond_tail;
        Alcotest.test_case "recovery truncates a torn tail" `Quick
          test_recovery_truncates_torn_tail;
        Alcotest.test_case "recovery salvages a torn frame from the mirror" `Quick
          test_recovery_salvages_torn_frame_from_mirror;
        Alcotest.test_case "recovery scans past a torn header" `Quick
          test_recovery_scans_past_torn_header;
      ] );
    ( "integrity.drill",
      [
        Alcotest.test_case "defended run holds every gate" `Slow
          test_corruption_drill_defended;
        Alcotest.test_case "bit-deterministic per seed" `Slow
          test_corruption_drill_deterministic;
        Alcotest.test_case "negative control surfaces corruption" `Slow
          test_corruption_drill_negative_control;
      ] );
  ]
