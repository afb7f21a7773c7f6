(* Component-level tests of the transaction stack: ADP group commit and
   takeover, transaction abort/undo, TMF behaviour, log backends. *)

open Simkit
open Nsk
open Tp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A minimal rig: node + one disk-backed ADP pair. *)
let make_adp_rig () =
  let sim = Sim.create ~seed:0xADBL () in
  let node = Node.create sim ~cpus:3 () in
  let vol = Node.add_volume node ~name:"$AUDIT" () in
  let backend = Log_backend.disk vol in
  let adp =
    Adp.start ~fabric:(Node.fabric node) ~name:"$ADP" ~primary:(Node.cpu node 0)
      ~backup:(Node.cpu node 1) ~backend ()
  in
  (sim, node, adp, backend)

let append_one adp ~from i =
  match Msgsys.call (Adp.server adp) ~from (Adp.Append [ Audit.Begin { txn = i } ]) with
  | Ok (Adp.Appended { last_asn }) -> last_asn
  | _ -> Alcotest.fail "append failed"

let flush_through adp ~from asn =
  match Msgsys.call (Adp.server adp) ~from (Adp.Flush { through = asn; deadline = 0 }) with
  | Ok (Adp.Flushed { durable }) -> durable
  | _ -> Alcotest.fail "flush failed"

let test_adp_append_then_flush () =
  let sim, node, adp, backend = make_adp_rig () in
  Test_util.run_in sim (fun () ->
      let from = Node.cpu node 2 in
      let asn1 = append_one adp ~from 1 in
      let asn2 = append_one adp ~from 2 in
      check_bool "asns increase" true (asn2 > asn1);
      check_int "nothing durable yet" 0 (Adp.durable_asn adp);
      let durable = flush_through adp ~from asn2 in
      check_bool "covers request" true (durable >= asn2);
      check_int "one backend write for both" 1 (Log_backend.writes backend))

let test_adp_group_commit () =
  (* Six concurrent append+flush clients: the spinning disk write in
     progress absorbs later requests, so backend writes << flushes. *)
  let sim, node, adp, backend = make_adp_rig () in
  let g = Gate.create 6 in
  for i = 1 to 6 do
    let (_ : Sim.pid) =
      Cpu.spawn (Node.cpu node 2)
        ~name:(Printf.sprintf "committer%d" i)
        (fun () ->
          let from = Node.cpu node 2 in
          let asn = append_one adp ~from i in
          let (_ : int) = flush_through adp ~from asn in
          Gate.arrive g)
    in
    ()
  done;
  let done_ = ref false in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"watcher" (fun () ->
        Gate.await g;
        done_ := true)
  in
  Sim.run sim;
  check_bool "all committed" true !done_;
  check_int "six flush requests" 6 (Adp.flush_requests adp);
  check_bool
    (Printf.sprintf "group commit batches (%d writes for 6 flushes)" (Log_backend.writes backend))
    true
    (Log_backend.writes backend <= 3)

let test_adp_flush_idempotent () =
  let sim, node, adp, _ = make_adp_rig () in
  Test_util.run_in sim (fun () ->
      let from = Node.cpu node 2 in
      let asn = append_one adp ~from 1 in
      let d1 = flush_through adp ~from asn in
      let t0 = Sim.now sim in
      let d2 = flush_through adp ~from asn in
      check_int "same horizon" d1 d2;
      (* The second flush is satisfied without a disk write. *)
      check_bool "instant when already durable" true (Sim.now sim - t0 < Time.ms 1))

let test_adp_takeover_preserves_buffer () =
  (* Buffered-but-unflushed records must survive a primary failure via
     the checkpoint stream. *)
  let sim, node, adp, _ = make_adp_rig () in
  let result = ref 0 in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let from = Node.cpu node 2 in
        let asn = append_one adp ~from 1 in
        let (_ : Audit.asn) = append_one adp ~from 2 in
        Adp.kill_primary adp;
        Sim.sleep (Time.sec 1);
        (* The promoted backup can still flush them. *)
        match
          Rpc.call_retry (Adp.server adp) ~from (Adp.Flush { through = asn + 1; deadline = 0 })
        with
        | Ok (Adp.Flushed { durable }) -> result := durable
        | _ -> Alcotest.fail "post-takeover flush failed")
  in
  Sim.run sim;
  check_bool "durable past both appends" true (!result >= 2);
  check_int "one takeover" 1 (Adp.pair_takeovers adp)

let test_pm_adp_append_is_durable () =
  (* With a PM backend, Append alone advances the durable horizon. *)
  let sim = Sim.create ~seed:0xADCL () in
  let node = Node.create sim ~cpus:3 () in
  let fabric = Node.fabric node in
  let done_ = ref false in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let npmu_a = Pm.Npmu.create sim fabric ~name:"a" ~capacity:(1 lsl 20) in
        let npmu_b = Pm.Npmu.create sim fabric ~name:"b" ~capacity:(1 lsl 20) in
        let dev_a = Pm.Pmm.device_of_npmu npmu_a in
        let dev_b = Pm.Pmm.device_of_npmu npmu_b in
        Pm.Pmm.format Pm.Pmm.default_config dev_a dev_b;
        let pmm =
          Pm.Pmm.start ~fabric ~name:"$PMM" ~primary_cpu:(Node.cpu node 0)
            ~backup_cpu:(Node.cpu node 1) ~primary_dev:dev_a ~mirror_dev:dev_b ()
        in
        let client =
          Pm.Pm_client.attach ~cpu:(Node.cpu node 0) ~fabric ~pmm:(Pm.Pmm.server pmm) ()
        in
        let handle =
          Test_util.ok_or_fail ~msg:"region"
            (Pm.Pm_client.create_region client ~name:"trail" ~size:(1 lsl 18))
        in
        let backend = Log_backend.pm client handle in
        check_bool "pm backend is synchronous" true (Log_backend.synchronous backend);
        let adp =
          Adp.start ~fabric ~name:"$ADP" ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1)
            ~backend ()
        in
        let from = Node.cpu node 2 in
        let asn = append_one adp ~from 1 in
        check_int "durable immediately" asn (Adp.durable_asn adp);
        let t0 = Sim.now sim in
        let (_ : int) = flush_through adp ~from asn in
        check_bool "flush returns without device work" true (Sim.now sim - t0 < Time.ms 1);
        (* And the record really is on the devices. *)
        (match Log_backend.recovery_read backend with
        | Ok [ (a, Audit.Begin { txn = 1 }) ] -> check_int "asn" asn a
        | Ok _ -> Alcotest.fail "unexpected trail contents"
        | Error e -> Alcotest.fail e);
        done_ := true)
  in
  Sim.run sim;
  check_bool "ran" true !done_

(* --- Abort and undo through the full stack --- *)

let build_small mode f =
  let sim = Sim.create ~seed:0x0A0BL () in
  let cfg =
    match mode with
    | `Disk -> System.default_config
    | `Pm ->
        { System.pm_config with System.pm_capacity = 8 * 1024 * 1024; pm_region_bytes = 1024 * 1024 }
  in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim cfg in
        out := Some (f system))
  in
  Sim.run sim;
  match !out with Some v -> v | None -> Alcotest.fail "run did not complete"

let test_abort_undoes_insert () =
  build_small `Disk (fun system ->
      let session = System.session system ~cpu:2 in
      let txn = Test_util.ok_or_fail ~msg:"begin" (Txclient.begin_txn session) in
      Test_util.check_result_ok "insert" (Txclient.insert session txn ~file:0 ~key:77 ~len:512 ());
      Test_util.check_result_ok "abort" (Txclient.abort session txn);
      Sim.sleep (Time.ms 50);
      match Txclient.lookup session ~file:0 ~key:77 with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "aborted insert still visible"
      | Error e -> Alcotest.fail (Txclient.error_to_string e))

let test_abort_restores_before_image () =
  build_small `Disk (fun system ->
      let session = System.session system ~cpu:2 in
      (* Commit version 1... *)
      let t1 = Test_util.ok_or_fail ~msg:"begin1" (Txclient.begin_txn session) in
      Test_util.check_result_ok "insert1" (Txclient.insert session t1 ~file:1 ~key:5 ~len:100 ());
      Test_util.check_result_ok "commit1" (Txclient.commit session t1);
      Sim.sleep (Time.ms 50);
      let v1 =
        match Txclient.lookup session ~file:1 ~key:5 with
        | Ok (Some v) -> v
        | _ -> Alcotest.fail "missing committed row"
      in
      (* ... then overwrite in a transaction that aborts. *)
      let t2 = Test_util.ok_or_fail ~msg:"begin2" (Txclient.begin_txn session) in
      Test_util.check_result_ok "insert2" (Txclient.insert session t2 ~file:1 ~key:5 ~len:999 ());
      Test_util.check_result_ok "abort2" (Txclient.abort session t2);
      Sim.sleep (Time.ms 50);
      match Txclient.lookup session ~file:1 ~key:5 with
      | Ok (Some v) -> check_bool "before-image restored" true (v = v1)
      | _ -> Alcotest.fail "row vanished after abort")

let test_locks_released_after_commit () =
  build_small `Disk (fun system ->
      let s1 = System.session system ~cpu:2 in
      let s2 = System.session system ~cpu:3 in
      let t1 = Test_util.ok_or_fail ~msg:"begin1" (Txclient.begin_txn s1) in
      Test_util.check_result_ok "insert1" (Txclient.insert s1 t1 ~file:2 ~key:9 ~len:64 ());
      Test_util.check_result_ok "commit1" (Txclient.commit s1 t1);
      (* The lock release rides behind the commit reply; a second writer
         must get the key shortly after. *)
      let t2 = Test_util.ok_or_fail ~msg:"begin2" (Txclient.begin_txn s2) in
      Test_util.check_result_ok "insert2 same key" (Txclient.insert s2 t2 ~file:2 ~key:9 ~len:64 ());
      Test_util.check_result_ok "commit2" (Txclient.commit s2 t2))

let test_scan_across_partitions () =
  build_small `Disk (fun system ->
      let session = System.session system ~cpu:2 in
      (* Insert keys 100..131 into file 2: they spread over 4 partitions. *)
      let txn = Test_util.ok_or_fail ~msg:"begin" (Txclient.begin_txn session) in
      for key = 100 to 131 do
        Txclient.insert_async session txn ~file:2 ~key ~len:64 ()
      done;
      Test_util.check_result_ok "commit" (Txclient.commit session txn);
      match Txclient.scan session ~file:2 ~lo:108 ~hi:119 () with
      | Ok rows ->
          check_int "12 rows in window" 12 (List.length rows);
          let keys = List.map (fun (k, _, _) -> k) rows in
          check_bool "merged ascending" true (keys = List.init 12 (fun i -> 108 + i));
          check_bool "other file empty" true
            (Txclient.scan session ~file:3 ~lo:0 ~hi:max_int () = Ok [])
      | Error e -> Alcotest.fail (Txclient.error_to_string e))

let test_index_height_grows () =
  build_small `Disk (fun system ->
      let session = System.session system ~cpu:2 in
      let txn = Test_util.ok_or_fail ~msg:"begin" (Txclient.begin_txn session) in
      (* Everything on one partition: key mod 4 = 0, file 0 -> DP2 0. *)
      for i = 0 to 199 do
        Txclient.insert_async session txn ~file:0 ~key:(i * 4) ~len:16 ()
      done;
      Test_util.check_result_ok "commit" (Txclient.commit session txn);
      check_bool "b-tree grew levels" true (Dp2.index_height (System.dp2s system).(0) >= 2))

let test_tmf_counts () =
  build_small `Disk (fun system ->
      let session = System.session system ~cpu:2 in
      let t1 = Test_util.ok_or_fail ~msg:"b1" (Txclient.begin_txn session) in
      Test_util.check_result_ok "c1" (Txclient.commit session t1);
      let t2 = Test_util.ok_or_fail ~msg:"b2" (Txclient.begin_txn session) in
      Test_util.check_result_ok "a2" (Txclient.abort session t2);
      check_int "begun" 2 (Tmf.begun (System.tmf system));
      check_int "committed" 1 (Tmf.committed (System.tmf system));
      check_int "aborted" 1 (Tmf.aborted (System.tmf system));
      check_int "no active left" 0 (List.length (Tmf.active_txns (System.tmf system))))

let test_dp2_takeover_under_load () =
  (* Kill a DP2 primary mid-benchmark: the run completes and the
     checkpoint-built table on the backup has every row. *)
  let sim = Sim.create ~seed:0xD27L () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim System.default_config in
        Sim.at sim ~after:(Time.ms 100) (fun () -> Dp2.kill_primary (System.dp2s system).(3));
        let params =
          Workloads.Hot_stock.scaled_params ~drivers:2 ~inserts_per_txn:8 ~records_per_driver:200
        in
        let r = Workloads.Hot_stock.run system params in
        Sim.sleep (Time.sec 1);
        let rows = Array.fold_left (fun acc d -> acc + Dp2.table_size d) 0 (System.dp2s system) in
        out := Some (r, rows, Dp2.pair_takeovers (System.dp2s system).(3)))
  in
  Sim.run sim;
  match !out with
  | None -> Alcotest.fail "run did not complete"
  | Some (r, rows, takeovers) ->
      check_int "all transactions committed" 50 r.Workloads.Hot_stock.committed;
      check_int "no rows lost" 400 rows;
      check_int "one takeover" 1 takeovers

let test_tmf_takeover_between_txns () =
  let sim = Sim.create ~seed:0x73FL () in
  let ok = ref false in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim System.default_config in
        let session = System.session system ~cpu:2 in
        let t1 = Test_util.ok_or_fail ~msg:"b1" (Txclient.begin_txn session) in
        Test_util.check_result_ok "c1" (Txclient.commit session t1);
        Tmf.kill_primary (System.tmf system);
        Sim.sleep (Time.sec 1);
        (* The promoted backup knows the txn counter from checkpoints. *)
        let t2 = Test_util.ok_or_fail ~msg:"b2 after takeover" (Txclient.begin_txn session) in
        check_bool "txn ids keep increasing" true (Txclient.txn_id t2 > Txclient.txn_id t1);
        Test_util.check_result_ok "c2" (Txclient.commit session t2);
        ok := true)
  in
  Sim.run sim;
  check_bool "completed" true !ok

let suite =
  [
    ( "tp.adp",
      [
        Alcotest.test_case "append then flush" `Quick test_adp_append_then_flush;
        Alcotest.test_case "group commit batches writes" `Quick test_adp_group_commit;
        Alcotest.test_case "flush of durable asn is instant" `Quick test_adp_flush_idempotent;
        Alcotest.test_case "takeover keeps buffered audit" `Quick test_adp_takeover_preserves_buffer;
        Alcotest.test_case "PM append is immediately durable" `Quick test_pm_adp_append_is_durable;
      ] );
    ( "tp.transactions",
      [
        Alcotest.test_case "abort undoes an insert" `Quick test_abort_undoes_insert;
        Alcotest.test_case "abort restores the before-image" `Quick test_abort_restores_before_image;
        Alcotest.test_case "locks released after commit" `Quick test_locks_released_after_commit;
        Alcotest.test_case "range scan across partitions" `Quick test_scan_across_partitions;
        Alcotest.test_case "index height grows with rows" `Quick test_index_height_grows;
        Alcotest.test_case "TMF bookkeeping" `Quick test_tmf_counts;
      ] );
    ( "tp.failover",
      [
        Alcotest.test_case "DP2 takeover under load" `Quick test_dp2_takeover_under_load;
        Alcotest.test_case "TMF takeover between transactions" `Quick test_tmf_takeover_between_txns;
      ] );
  ]

(* --- Cluster: cross-node sessions --- *)

let test_cluster_remote_transaction () =
  let sim = Sim.create ~seed:0xC105L () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let cfg =
          { System.pm_config with System.pm_capacity = 8 * 1024 * 1024; pm_region_bytes = 1024 * 1024 }
        in
        let cluster = Cluster.build sim ~nodes:2 ~wan_latency:(Time.ms 2) cfg in
        (* A local and a remote session run the same single-insert txn. *)
        let run session =
          let t0 = Sim.now sim in
          let txn = Test_util.ok_or_fail ~msg:"begin" (Txclient.begin_txn session) in
          Test_util.check_result_ok "insert" (Txclient.insert session txn ~file:0 ~key:5 ~len:128 ());
          Test_util.check_result_ok "commit" (Txclient.commit session txn);
          Sim.now sim - t0
        in
        let local = run (Cluster.local_session cluster ~node:1 ~cpu:2) in
        let remote = run (Cluster.remote_session cluster ~from_node:0 ~target:1 ~cpu:2) in
        (* The row landed on node 1 both times; node 0 holds nothing. *)
        let rows n =
          Array.fold_left (fun acc d -> acc + Dp2.table_size d) 0
            (System.dp2s (Cluster.system cluster n))
        in
        out := Some (local, remote, rows 0, rows 1, Cluster.total_committed cluster))
  in
  Sim.run sim;
  match !out with
  | None -> Alcotest.fail "cluster run incomplete"
  | Some (local, remote, rows0, rows1, committed) ->
      check_int "target node holds the row" 1 rows1;
      check_int "origin node untouched" 0 rows0;
      check_int "two commits" 2 committed;
      (* begin + insert + commit each pay 2 x 2 ms of link. *)
      check_bool
        (Printf.sprintf "remote pays the link (local %s, remote %s)" (Time.to_string local)
           (Time.to_string remote))
        true
        (remote > local + Time.ms 10)

let cluster_cases =
  [ Alcotest.test_case "remote session commits across the link" `Quick test_cluster_remote_transaction ]

let suite = suite @ [ ("tp.cluster", cluster_cases) ]

(* --- Isolation (paper section 1.1: strong serializability) --- *)

let test_read_blocks_on_uncommitted_write () =
  (* A transactional read must not see another transaction's uncommitted
     insert: it waits for the exclusive lock and then sees the committed
     value. *)
  let sim = Sim.create ~seed:0x150L () in
  let observed = ref None in
  let observed_at = ref Time.zero in
  let committed_at = ref Time.zero in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim System.default_config in
        let writer = System.session system ~cpu:2 in
        let reader = System.session system ~cpu:3 in
        let node = System.node system in
        let wtxn = Test_util.ok_or_fail ~msg:"w-begin" (Txclient.begin_txn writer) in
        Test_util.check_result_ok "w-insert" (Txclient.insert writer wtxn ~file:1 ~key:33 ~len:777 ());
        (* The reader starts while the writer still holds the lock. *)
        let g = Gate.create 1 in
        ignore
          (Nsk.Cpu.spawn (Nsk.Node.cpu node 3) ~name:"reader" (fun () ->
               let rtxn = Test_util.ok_or_fail ~msg:"r-begin" (Txclient.begin_txn reader) in
               (match Txclient.read reader rtxn ~file:1 ~key:33 with
               | Ok v ->
                   observed := Some v;
                   observed_at := Sim.now sim
               | Error e -> Alcotest.fail (Txclient.error_to_string e));
               Test_util.check_result_ok "r-commit" (Txclient.commit reader rtxn);
               Gate.arrive g));
        (* Hold the lock a while, then commit. *)
        Sim.sleep (Time.ms 50);
        Test_util.check_result_ok "w-commit" (Txclient.commit writer wtxn);
        committed_at := Sim.now sim;
        Gate.await g)
  in
  Sim.run sim;
  (match !observed with
  | Some (Some (777, _)) -> ()
  | Some None -> Alcotest.fail "read saw nothing (lost committed write)"
  | Some (Some (len, _)) -> Alcotest.failf "read saw wrong length %d" len
  | None -> Alcotest.fail "reader never ran");
  check_bool "read completed only after the commit" true (!observed_at >= !committed_at)

let test_read_never_sees_aborted_write () =
  let sim = Sim.create ~seed:0x151L () in
  let observed = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim System.default_config in
        let writer = System.session system ~cpu:2 in
        let reader = System.session system ~cpu:3 in
        let node = System.node system in
        (* Commit a first version. *)
        let t1 = Test_util.ok_or_fail ~msg:"b1" (Txclient.begin_txn writer) in
        Test_util.check_result_ok "i1" (Txclient.insert writer t1 ~file:1 ~key:44 ~len:100 ());
        Test_util.check_result_ok "c1" (Txclient.commit writer t1);
        Sim.sleep (Time.ms 50);
        (* Overwrite but abort, with a concurrent locked read. *)
        let t2 = Test_util.ok_or_fail ~msg:"b2" (Txclient.begin_txn writer) in
        Test_util.check_result_ok "i2" (Txclient.insert writer t2 ~file:1 ~key:44 ~len:999 ());
        let g = Gate.create 1 in
        ignore
          (Nsk.Cpu.spawn (Nsk.Node.cpu node 3) ~name:"reader" (fun () ->
               let rtxn = Test_util.ok_or_fail ~msg:"rb" (Txclient.begin_txn reader) in
               (match Txclient.read reader rtxn ~file:1 ~key:44 with
               | Ok v -> observed := Some v
               | Error e -> Alcotest.fail (Txclient.error_to_string e));
               Test_util.check_result_ok "rc" (Txclient.commit reader rtxn);
               Gate.arrive g));
        Sim.sleep (Time.ms 20);
        Test_util.check_result_ok "abort" (Txclient.abort writer t2);
        Gate.await g)
  in
  Sim.run sim;
  match !observed with
  | Some (Some (100, _)) -> ()
  | Some (Some (len, _)) -> Alcotest.failf "dirty read of aborted length %d" len
  | Some None -> Alcotest.fail "row vanished"
  | None -> Alcotest.fail "reader never ran"

let test_repeatable_read () =
  (* Two reads of the same row inside one transaction return the same
     value even though another writer wants the row: the shared lock
     holds it off until the reader commits. *)
  let sim = Sim.create ~seed:0x152L () in
  let reads = ref [] in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim System.default_config in
        let writer = System.session system ~cpu:2 in
        let reader = System.session system ~cpu:3 in
        let node = System.node system in
        let t1 = Test_util.ok_or_fail ~msg:"b1" (Txclient.begin_txn writer) in
        Test_util.check_result_ok "i1" (Txclient.insert writer t1 ~file:2 ~key:50 ~len:111 ());
        Test_util.check_result_ok "c1" (Txclient.commit writer t1);
        Sim.sleep (Time.ms 50);
        let g = Gate.create 2 in
        ignore
          (Nsk.Cpu.spawn (Nsk.Node.cpu node 3) ~name:"reader" (fun () ->
               let rtxn = Test_util.ok_or_fail ~msg:"rb" (Txclient.begin_txn reader) in
               (match Txclient.read reader rtxn ~file:2 ~key:50 with
               | Ok (Some (len, _)) -> reads := len :: !reads
               | _ -> Alcotest.fail "first read failed");
               Sim.sleep (Time.ms 60);
               (match Txclient.read reader rtxn ~file:2 ~key:50 with
               | Ok (Some (len, _)) -> reads := len :: !reads
               | _ -> Alcotest.fail "second read failed");
               Test_util.check_result_ok "rc" (Txclient.commit reader rtxn);
               Gate.arrive g));
        ignore
          (Nsk.Cpu.spawn (Nsk.Node.cpu node 2) ~name:"writer2" (fun () ->
               Sim.sleep (Time.ms 10);
               (* Tries to overwrite while the reader holds the share. *)
               let t2 = Test_util.ok_or_fail ~msg:"b2" (Txclient.begin_txn writer) in
               Test_util.check_result_ok "i2" (Txclient.insert writer t2 ~file:2 ~key:50 ~len:222 ());
               Test_util.check_result_ok "c2" (Txclient.commit writer t2);
               Gate.arrive g));
        Gate.await g)
  in
  Sim.run sim;
  match !reads with
  | [ second; first ] ->
      check_int "first read" 111 first;
      check_int "repeatable" first second
  | _ -> Alcotest.fail "expected two reads"

let isolation_cases =
  [
    Alcotest.test_case "read blocks on uncommitted write" `Quick
      test_read_blocks_on_uncommitted_write;
    Alcotest.test_case "aborted write never observed" `Quick test_read_never_sees_aborted_write;
    Alcotest.test_case "repeatable read within a transaction" `Quick test_repeatable_read;
  ]

let suite = suite @ [ ("tp.isolation", isolation_cases) ]

(* --- Trail trimming (audit archiving) --- *)

let test_trim_durable_prefix () =
  let sim, node, adp, backend = make_adp_rig () in
  Test_util.run_in sim (fun () ->
      let from = Node.cpu node 2 in
      let a1 = append_one adp ~from 1 in
      let a2 = append_one adp ~from 2 in
      let (_ : int) = flush_through adp ~from a2 in
      (* Trimming beyond the durable horizon is refused. *)
      (match Msgsys.call (Adp.server adp) ~from (Adp.Trim { through = a2 + 5 }) with
      | Ok (Adp.A_failed _) -> ()
      | _ -> Alcotest.fail "over-trim accepted");
      (match Msgsys.call (Adp.server adp) ~from (Adp.Trim { through = a1 }) with
      | Ok (Adp.Trimmed { records }) -> check_int "one record archived" 1 records
      | _ -> Alcotest.fail "trim failed");
      match Log_backend.recovery_read backend with
      | Ok [ (asn, Audit.Begin { txn = 2 }) ] -> check_int "tail kept" a2 asn
      | Ok l -> Alcotest.failf "unexpected trail length %d" (List.length l)
      | Error e -> Alcotest.fail e)

(* --- Whole-system determinism --- *)

let test_system_run_is_deterministic () =
  let run () =
    let c =
      Workloads.Figures.run_cell ~seed:0xD37E2L ~mode:System.Disk_audit ~drivers:2
        ~inserts_per_txn:8 ~records_per_driver:120 ()
    in
    let r = c.Workloads.Figures.result in
    (r.Workloads.Hot_stock.elapsed, r.Workloads.Hot_stock.response.Simkit.Stat.mean,
     r.Workloads.Hot_stock.audit_bytes)
  in
  let a = run () in
  let b = run () in
  check_bool "bit-identical reruns" true (a = b)

(* --- Mixed workloads on one system --- *)

let test_mixed_workloads_coexist () =
  (* Telco ingest and banking share the node concurrently; both finish
     with their own rows intact. *)
  let sim = Sim.create ~seed:0x31EDL () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let system = System.build sim System.default_config in
        let node = System.node system in
        let g = Gate.create 2 in
        let telco = ref None and bank = ref None in
        ignore
          (Nsk.Cpu.spawn (Nsk.Node.cpu node 0) ~name:"telco" (fun () ->
               telco :=
                 Some
                   (Workloads.Telco_cdr.run system
                      { Workloads.Telco_cdr.switches = 2; cdrs_per_switch = 40; cdr_bytes = 256;
                        cdrs_per_txn = 2; fraud_readers = 1;
                        arrival = Workloads.Telco_cdr.Closed });
               Gate.arrive g));
        ignore
          (Nsk.Cpu.spawn (Nsk.Node.cpu node 1) ~name:"bank" (fun () ->
               bank :=
                 Some
                   (Workloads.Bank.run system
                      { Workloads.Bank.clients = 2; txns_per_client = 20; branches = 2;
                        tellers_per_branch = 4; accounts = 400; row_bytes = 128 });
               Gate.arrive g));
        Gate.await g;
        out := Some (!telco, !bank))
  in
  Sim.run sim;
  match !out with
  | Some (Some t, Some b) ->
      check_int "telco all in" 80 t.Workloads.Telco_cdr.cdrs_inserted;
      check_int "bank all committed" 40 b.Workloads.Bank.committed
  | _ -> Alcotest.fail "mixed run incomplete"

let extras_cases =
  [
    Alcotest.test_case "trail trim archives the durable prefix" `Quick test_trim_durable_prefix;
    Alcotest.test_case "system runs are deterministic" `Quick test_system_run_is_deterministic;
    Alcotest.test_case "mixed workloads coexist" `Quick test_mixed_workloads_coexist;
  ]

let suite = suite @ [ ("tp.extras", extras_cases) ]

(* --- Distributed transactions (two-phase commit) --- *)

let small_pm_cluster_cfg =
  { System.pm_config with System.pm_capacity = 8 * 1024 * 1024; pm_region_bytes = 1024 * 1024 }

let in_cluster ?(cfg = System.default_config) ?(wan = Time.us 200) ~seed f =
  let sim = Sim.create ~seed () in
  let out = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        let cluster = Cluster.build sim ~nodes:2 ~wan_latency:wan cfg in
        out := Some (f cluster))
  in
  Sim.run sim;
  match !out with Some v -> v | None -> Alcotest.fail "cluster run incomplete"

let test_dtx_commits_on_both_nodes () =
  in_cluster ~seed:0xD7C1L (fun cluster ->
      let dtx = Dtx.begin_dtx cluster ~coordinator:0 ~cpu:2 in
      (* A funds transfer: debit on node 0, credit on node 1. *)
      Test_util.check_result_ok "debit" (Dtx.insert dtx ~node:0 ~file:0 ~key:100 ~len:64);
      Test_util.check_result_ok "credit" (Dtx.insert dtx ~node:1 ~file:0 ~key:200 ~len:64);
      Alcotest.(check (list int)) "branches" [ 0; 1 ] (Dtx.branches dtx);
      Test_util.check_result_ok "2pc commit" (Dtx.commit dtx);
      Sim.sleep (Time.ms 100);
      let rows n =
        Array.fold_left (fun acc d -> acc + Dp2.table_size d) 0
          (System.dp2s (Cluster.system cluster n))
      in
      check_int "node 0 row" 1 (rows 0);
      check_int "node 1 row" 1 (rows 1);
      (* Every monitor has resolved its branch. *)
      check_int "no prepared left on 0" 0
        (List.length (Tmf.prepared_txns (System.tmf (Cluster.system cluster 0))));
      check_int "no prepared left on 1" 0
        (List.length (Tmf.prepared_txns (System.tmf (Cluster.system cluster 1)))))

let test_dtx_abort_undoes_everywhere () =
  in_cluster ~seed:0xD7C2L (fun cluster ->
      let dtx = Dtx.begin_dtx cluster ~coordinator:0 ~cpu:2 in
      Test_util.check_result_ok "w0" (Dtx.insert dtx ~node:0 ~file:1 ~key:7 ~len:64);
      Test_util.check_result_ok "w1" (Dtx.insert dtx ~node:1 ~file:1 ~key:8 ~len:64);
      Test_util.check_result_ok "abort" (Dtx.abort dtx);
      Sim.sleep (Time.ms 100);
      let rows n =
        Array.fold_left (fun acc d -> acc + Dp2.table_size d) 0
          (System.dp2s (Cluster.system cluster n))
      in
      check_int "node 0 clean" 0 (rows 0);
      check_int "node 1 clean" 0 (rows 1))

let test_dtx_single_branch_short_circuits () =
  in_cluster ~seed:0xD7C3L (fun cluster ->
      let dtx = Dtx.begin_dtx cluster ~coordinator:0 ~cpu:2 in
      Test_util.check_result_ok "local only" (Dtx.insert dtx ~node:0 ~file:0 ~key:1 ~len:64);
      Test_util.check_result_ok "1pc" (Dtx.commit dtx);
      (* No PREPARED record should exist in node 0's master trail. *)
      let mat = System.mat (Cluster.system cluster 0) in
      match Log_backend.recovery_read (Adp.backend mat) with
      | Ok records ->
          check_bool "no prepared record" true
            (List.for_all
               (fun (_, r) -> match r with Audit.Prepared _ -> false | _ -> true)
               records)
      | Error e -> Alcotest.fail e)

let test_dtx_in_doubt_after_crash () =
  (* Crash the cluster between prepare and decide: recovery on the
     participant reports the branch in doubt and discards its updates
     (presumed abort). *)
  in_cluster ~seed:0xD7C4L (fun cluster ->
      let node1 = Cluster.system cluster 1 in
      let session = Cluster.remote_session cluster ~from_node:0 ~target:1 ~cpu:2 in
      let txn = Test_util.ok_or_fail ~msg:"begin" (Txclient.begin_txn session) in
      Test_util.check_result_ok "insert" (Txclient.insert session txn ~file:0 ~key:9 ~len:64 ());
      Test_util.check_result_ok "prepare" (Txclient.prepare session txn);
      check_int "one prepared" 1 (List.length (Tmf.prepared_txns (System.tmf node1)));
      (* The coordinator dies here; node 1 recovers alone. *)
      Array.iter (fun d -> Dp2.load_table d []) (System.dp2s node1);
      match Recovery.run node1 with
      | Ok report ->
          check_int "in doubt" 1 report.Recovery.in_doubt_txns;
          check_int "update discarded" 1 report.Recovery.discarded_updates;
          check_int "nothing rebuilt" 0 report.Recovery.rows_rebuilt
      | Error e -> Alcotest.fail e)

let test_dtx_pm_much_faster () =
  let rt cfg =
    in_cluster ~cfg ~seed:0xD7C5L (fun cluster ->
        let sim = System.sim (Cluster.system cluster 0) in
        (* Warm one transfer, then time one. *)
        let transfer key =
          let dtx = Dtx.begin_dtx cluster ~coordinator:0 ~cpu:2 in
          Test_util.check_result_ok "debit" (Dtx.insert dtx ~node:0 ~file:0 ~key ~len:64);
          Test_util.check_result_ok "credit" (Dtx.insert dtx ~node:1 ~file:0 ~key ~len:64);
          Test_util.check_result_ok "commit" (Dtx.commit dtx)
        in
        transfer 1;
        let t0 = Sim.now sim in
        transfer 2;
        Sim.now sim - t0)
  in
  let disk = rt System.default_config in
  let pm = rt small_pm_cluster_cfg in
  check_bool
    (Printf.sprintf "2PC benefits doubly from PM (disk %s, pm %s)" (Time.to_string disk)
       (Time.to_string pm))
    true
    (pm * 3 < disk)

let dtx_cases =
  [
    Alcotest.test_case "transfer commits on both nodes" `Quick test_dtx_commits_on_both_nodes;
    Alcotest.test_case "abort undoes everywhere" `Quick test_dtx_abort_undoes_everywhere;
    Alcotest.test_case "single branch is one-phase" `Quick test_dtx_single_branch_short_circuits;
    Alcotest.test_case "in-doubt branch after crash" `Quick test_dtx_in_doubt_after_crash;
    Alcotest.test_case "PM compounds across 2PC" `Quick test_dtx_pm_much_faster;
  ]

let suite = suite @ [ ("tp.dtx", dtx_cases) ]

(* --- Drills: seeded deterministic fault schedules under load ---

   One drill per kill target; each runs the hot-stock mix while the
   plan fires, crashes, recovers, and asserts the zero-loss invariant:
   every acknowledged commit survives.  Plans are explicit and the seed
   fixed, so a failure here replays bit-for-bit. *)

let run_drill ?(seed = 0xD211L) ~mode plan =
  Test_util.drill_report
    { (Test_util.drill_scenario ~seed (Drill.Node mode) "none") with Drill.plan }

let custom_drill mode plan =
  Drill.run { (Test_util.drill_scenario (Drill.Node mode) "none") with Drill.plan }

let assert_zero_loss r =
  check_bool
    (Printf.sprintf "zero loss (%d acked rows, %d lost)" r.Drill.acked_rows r.Drill.lost_rows)
    true (r.Drill.lost_rows = 0);
  check_bool
    (Printf.sprintf "made progress (%d committed)" r.Drill.committed)
    true
    (r.Drill.committed > 0)

let test_drill_adp_kills () =
  let r =
    run_drill ~mode:System.Disk_audit
      Faultplan.
        [
          at (Time.ms 300) (Kill_primary (Adp 1));
          at (Time.ms 900) (Kill_primary (Adp 2));
        ]
  in
  assert_zero_loss r;
  check_bool
    (Printf.sprintf "ADP takeovers (%d)" r.Drill.availability.Drill.adp_takeovers)
    true
    (r.Drill.availability.Drill.adp_takeovers >= 2)

let test_drill_dp2_kills () =
  let r =
    run_drill ~mode:System.Disk_audit
      Faultplan.
        [
          at (Time.ms 300) (Kill_primary (Dp2 3));
          at (Time.ms 800) (Kill_primary (Dp2 7));
          at (Time.ms 1_300) (Kill_primary (Dp2 11));
        ]
  in
  assert_zero_loss r;
  check_bool
    (Printf.sprintf "DP2 takeovers (%d)" r.Drill.availability.Drill.dp2_takeovers)
    true
    (r.Drill.availability.Drill.dp2_takeovers >= 3)

let test_drill_tmf_kill () =
  let r =
    run_drill ~mode:System.Disk_audit Faultplan.[ at (Time.ms 800) (Kill_primary Tmf) ]
  in
  assert_zero_loss r;
  check_int "TMF takeover" 1 r.Drill.availability.Drill.tmf_takeovers

let test_drill_pmm_kill () =
  let r = run_drill ~mode:System.Pm_audit Faultplan.[ at (Time.ms 20) (Kill_primary Pmm) ] in
  assert_zero_loss r;
  check_int "PMM takeover" 1 r.Drill.availability.Drill.pmm_takeovers;
  check_bool "recovery read outcomes from PM" true
    ((List.hd r.Drill.recoveries).Recovery.outcome_source = Recovery.Pm_txn_table)

let test_drill_standard_pm_deterministic () =
  (* The full standard schedule, twice with one seed: identical reports. *)
  let plan = (Test_util.drill_scenario (Drill.Node System.Pm_audit) "standard").Drill.plan in
  let a = run_drill ~mode:System.Pm_audit plan in
  let b = run_drill ~mode:System.Pm_audit plan in
  assert_zero_loss a;
  check_bool "faults injected" true (List.length a.Drill.faults >= 5);
  check_int "committed deterministic" a.Drill.committed b.Drill.committed;
  check_int "acked rows deterministic" a.Drill.acked_rows b.Drill.acked_rows;
  check_int "degraded writes deterministic" a.Drill.availability.Drill.degraded_writes
    b.Drill.availability.Drill.degraded_writes;
  check_bool "elapsed deterministic" true (a.Drill.elapsed = b.Drill.elapsed);
  check_bool "fault log deterministic" true (a.Drill.faults = b.Drill.faults)

let test_drill_plan_validation () =
  (* PM-only events are rejected against a disk-mode system, out-of-range
     targets against any. *)
  (match custom_drill System.Disk_audit Faultplan.[ at 0 (Kill_primary Pmm) ] with
  | Error e -> check_bool "pm-only rejected" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "kill_pmm accepted in disk mode");
  match custom_drill System.Disk_audit Faultplan.[ at 0 (Kill_primary (Adp 99)) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range ADP accepted"

let drill_cases =
  [
    Alcotest.test_case "ADP kills, zero loss" `Slow test_drill_adp_kills;
    Alcotest.test_case "DP2 kills, zero loss" `Slow test_drill_dp2_kills;
    Alcotest.test_case "TMF kill, zero loss" `Slow test_drill_tmf_kill;
    Alcotest.test_case "PMM kill, zero loss" `Quick test_drill_pmm_kill;
    Alcotest.test_case "standard PM drill is deterministic" `Quick
      test_drill_standard_pm_deterministic;
    Alcotest.test_case "plans are validated" `Quick test_drill_plan_validation;
  ]

let suite = suite @ [ ("tp.drill", drill_cases) ]

(* --- Dtx locked reads --- *)

let test_dtx_read_across_nodes () =
  in_cluster ~seed:0xD7C6L (fun cluster ->
      (* Seed a row on node 1, then a distributed txn reads it while
         inserting on node 0. *)
      let s1 = Cluster.local_session cluster ~node:1 ~cpu:2 in
      let t = Test_util.ok_or_fail ~msg:"seed begin" (Txclient.begin_txn s1) in
      Test_util.check_result_ok "seed insert" (Txclient.insert s1 t ~file:0 ~key:77 ~len:321 ());
      Test_util.check_result_ok "seed commit" (Txclient.commit s1 t);
      Sim.sleep (Time.ms 50);
      let dtx = Dtx.begin_dtx cluster ~coordinator:0 ~cpu:3 in
      (match Dtx.read dtx ~node:1 ~file:0 ~key:77 with
      | Ok (Some (321, _)) -> ()
      | Ok _ -> Alcotest.fail "wrong read"
      | Error e -> Alcotest.fail (Txclient.error_to_string e));
      Test_util.check_result_ok "write node0" (Dtx.insert dtx ~node:0 ~file:0 ~key:78 ~len:64);
      Test_util.check_result_ok "2pc" (Dtx.commit dtx))

let dtx_read_cases =
  [ Alcotest.test_case "locked read across nodes" `Quick test_dtx_read_across_nodes ]

let suite = suite @ [ ("tp.dtx_read", dtx_read_cases) ]

(* --- Partition tolerance: severed links, in-doubt resolution, fencing --- *)

let test_partition_severs_and_heals () =
  in_cluster ~seed:0xF7A1L (fun cluster ->
      let s1 = Cluster.remote_session cluster ~from_node:0 ~target:1 ~cpu:2 in
      Cluster.partition cluster;
      check_bool "link reported down" false (Cluster.wan_is_up cluster);
      (match Txclient.begin_txn s1 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "call crossed a severed link");
      Cluster.heal cluster;
      check_bool "link reported up" true (Cluster.wan_is_up cluster);
      let t = Test_util.ok_or_fail ~msg:"begin after heal" (Txclient.begin_txn s1) in
      Test_util.check_result_ok "insert after heal"
        (Txclient.insert s1 t ~file:0 ~key:5 ~len:64 ());
      Test_util.check_result_ok "commit after heal" (Txclient.commit s1 t))

let test_resolver_drains_in_doubt_window () =
  (* Two branches stranded prepared on node 1 — their coordinator on
     node 0 decided commit for one and abort for the other, but the
     decides never arrived.  Recovery must ask the coordinator, commit
     the first, abort the second, empty the prepared window, and release
     every lock. *)
  in_cluster ~seed:0xF7A2L (fun cluster ->
      let node1 = Cluster.system cluster 1 in
      let s0 = Cluster.local_session cluster ~node:0 ~cpu:2 in
      (* Coordinator branch A: prepared then durably committed. *)
      let ta = Test_util.ok_or_fail ~msg:"begin A" (Txclient.begin_txn s0) in
      Test_util.check_result_ok "insert A" (Txclient.insert s0 ta ~file:0 ~key:1 ~len:64 ());
      Test_util.check_result_ok "prepare A" (Txclient.prepare s0 ta);
      Test_util.check_result_ok "decide A" (Txclient.decide s0 ta ~commit:true);
      (* Coordinator branch B: prepared then aborted. *)
      let tb = Test_util.ok_or_fail ~msg:"begin B" (Txclient.begin_txn s0) in
      Test_util.check_result_ok "insert B" (Txclient.insert s0 tb ~file:0 ~key:2 ~len:64 ());
      Test_util.check_result_ok "prepare B" (Txclient.prepare s0 tb);
      Test_util.check_result_ok "decide B" (Txclient.decide s0 tb ~commit:false);
      (* Node 1's branches prepare under those global identities; the
         partition eats both phase-2 decides. *)
      let s1 = Cluster.remote_session cluster ~from_node:0 ~target:1 ~cpu:2 in
      let b1 = Test_util.ok_or_fail ~msg:"begin b1" (Txclient.begin_txn s1) in
      Test_util.check_result_ok "insert b1" (Txclient.insert s1 b1 ~file:0 ~key:11 ~len:64 ());
      Test_util.check_result_ok "prepare b1"
        (Txclient.prepare ~gtid:(0, Txclient.txn_id ta) s1 b1);
      let b2 = Test_util.ok_or_fail ~msg:"begin b2" (Txclient.begin_txn s1) in
      Test_util.check_result_ok "insert b2" (Txclient.insert s1 b2 ~file:0 ~key:12 ~len:64 ());
      Test_util.check_result_ok "prepare b2"
        (Txclient.prepare ~gtid:(0, Txclient.txn_id tb) s1 b2);
      Sim.sleep (Time.ms 50);
      check_int "two branches in doubt" 2 (List.length (Tmf.in_doubt (System.tmf node1)));
      check_int "prepared window populated" 2
        (List.length (Tmf.prepared_txns (System.tmf node1)));
      check_bool "locks held under the in-doubt branches" true
        (Lockmgr.held_total (System.locks node1) > 0);
      (* Node 1 crashes; cluster recovery resolves against node 0. *)
      Array.iter (fun d -> Dp2.load_table d []) (System.dp2s node1);
      (match Cluster.recover cluster with
      | Error e -> Alcotest.fail ("recover: " ^ e)
      | Ok reports ->
          let r1 = List.nth reports 1 in
          check_int "resolved to commit" 1 r1.Recovery.resolved_commit;
          check_int "resolved to abort" 1 r1.Recovery.resolved_abort);
      (* Lock release rides the monitor's finish queue. *)
      Sim.sleep (Time.ms 100);
      check_int "in-doubt window empty" 0 (List.length (Tmf.in_doubt (System.tmf node1)));
      check_int "prepared window empty" 0
        (List.length (Tmf.prepared_txns (System.tmf node1)));
      check_int "no orphaned locks" 0 (Lockmgr.held_total (System.locks node1));
      (* The committed branch's row survived the crash; the aborted one
         is gone. *)
      let lookup key =
        let routing = System.routing node1 in
        let d = (System.dp2s node1).(routing.Txclient.dp2_of ~file:0 ~key) in
        Dp2.lookup_direct d ~file:0 ~key
      in
      check_bool "resolved-commit row rebuilt" true (lookup 11 <> None);
      check_bool "resolved-abort row discarded" true (lookup 12 = None))

let test_resolver_presumes_abort_when_unreachable () =
  (* The coordinator is still unreachable when the participant recovers:
     every in-doubt branch resolves to abort (presumed abort), so locks
     release and the window empties even without an answer. *)
  in_cluster ~seed:0xF7A3L (fun cluster ->
      let node1 = Cluster.system cluster 1 in
      let s0 = Cluster.local_session cluster ~node:0 ~cpu:2 in
      let ta = Test_util.ok_or_fail ~msg:"begin A" (Txclient.begin_txn s0) in
      Test_util.check_result_ok "insert A" (Txclient.insert s0 ta ~file:0 ~key:1 ~len:64 ());
      Test_util.check_result_ok "prepare A" (Txclient.prepare s0 ta);
      Test_util.check_result_ok "decide A" (Txclient.decide s0 ta ~commit:true);
      let s1 = Cluster.remote_session cluster ~from_node:0 ~target:1 ~cpu:2 in
      let b1 = Test_util.ok_or_fail ~msg:"begin b1" (Txclient.begin_txn s1) in
      Test_util.check_result_ok "insert b1" (Txclient.insert s1 b1 ~file:0 ~key:21 ~len:64 ());
      Test_util.check_result_ok "prepare b1"
        (Txclient.prepare ~gtid:(0, Txclient.txn_id ta) s1 b1);
      Sim.sleep (Time.ms 50);
      Cluster.partition cluster;
      Array.iter (fun d -> Dp2.load_table d []) (System.dp2s node1);
      (match Recovery.run node1 with
      | Error e -> Alcotest.fail ("recover: " ^ e)
      | Ok r ->
          check_int "presumed abort" 1 r.Recovery.resolved_abort;
          check_int "nothing resolved to commit" 0 r.Recovery.resolved_commit);
      Sim.sleep (Time.ms 100);
      check_int "window drained" 0 (List.length (Tmf.in_doubt (System.tmf node1)));
      check_int "locks released" 0 (Lockmgr.held_total (System.locks node1)))

let test_faultplan_resync_fails_across_power_cycle () =
  (* Regression: a resync that straddles a destination power cycle must
     report failure and leave the volume degraded — the copy's early
     chunks predate the cycle, so acking it would declare a half-stale
     mirror clean.  The resync injection blocks its own scheduler for
     the copy's duration, so the power cycle rides a second plan to
     land inside the window. *)
  let contains s sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  build_small `Pm (fun system ->
      let resync = Faultplan.launch system Faultplan.[ at (Time.ms 10) Pmm_resync ] in
      let cycle =
        Faultplan.launch system
          Faultplan.[ at (Time.ms 12) (Npmu_power_cycle { device = 1; off_for = Time.ms 1 }) ]
      in
      Faultplan.await resync;
      Faultplan.await cycle;
      let log = List.map snd (Faultplan.injected resync) in
      check_bool "resync reported the power cycle" true
        (List.exists (fun d -> contains d "resync" && contains d "failed") log);
      match System.pmm system with
      | Some pmm -> check_bool "volume left degraded" true (Pm.Pmm.degraded pmm)
      | None -> Alcotest.fail "PM system has no PMM")

let test_partition_plan_validation () =
  (* WAN events need a cluster-scoped launch; the fence probe needs PM. *)
  (match custom_drill System.Pm_audit Faultplan.[ at 0 Wan_partition ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wan_partition accepted outside a cluster");
  match custom_drill System.Disk_audit Faultplan.[ at 0 Fence_check ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fence_check accepted in disk mode"

let test_cluster_partition_drill_seeds () =
  List.iter
    (fun seed ->
      match Drill.run (Test_util.drill_scenario ~seed Drill.Cluster "partition") with
      | Error e -> Alcotest.fail (Printf.sprintf "drill seed 0x%Lx: %s" seed e)
      | Ok r ->
          check_bool
            (Printf.sprintf "seed 0x%Lx invariants: %s" seed
               (Drill.Oracle.summary (Drill.Oracle.of_report r)))
            true (Test_util.drill_pass r);
          let p = Option.get r.Drill.partition in
          let resolved =
            List.fold_left
              (fun acc x -> acc + x.Recovery.resolved_commit + x.Recovery.resolved_abort)
              0 r.Drill.recoveries
          in
          check_bool "made progress" true (r.Drill.committed > 0);
          check_bool "partition stranded branches" true (p.Drill.in_doubt_before > 0);
          check_int "every stranded branch resolved" p.Drill.in_doubt_before resolved;
          check_int "fence probed" 1 r.Drill.fence_checks;
          check_bool "stale writes fenced" true (p.Drill.fenced_writes > 0))
    [ 0x7L; 0x2AL; 0xBEEFL ]

let partition_cases =
  [
    Alcotest.test_case "severed link times out, heals clean" `Quick
      test_partition_severs_and_heals;
    Alcotest.test_case "resolver drains the in-doubt window" `Quick
      test_resolver_drains_in_doubt_window;
    Alcotest.test_case "unreachable coordinator presumes abort" `Quick
      test_resolver_presumes_abort_when_unreachable;
    Alcotest.test_case "WAN and fence events are validated" `Quick
      test_partition_plan_validation;
    Alcotest.test_case "resync straddling a power cycle fails degraded" `Quick
      test_faultplan_resync_fails_across_power_cycle;
    Alcotest.test_case "partition drill: three seeds, zero loss" `Slow
      test_cluster_partition_drill_seeds;
  ]

let suite = suite @ [ ("tp.partition", partition_cases) ]
