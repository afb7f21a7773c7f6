(* Tests for the ServerNet fabric simulation. *)

open Simkit
open Servernet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- AVT --- *)

let test_avt_map_translate () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0x1000 ~length:0x1000 ~phys_base:0x8000
       ~access:(Avt.read_write Avt.Any_initiator));
  match Avt.translate avt ~initiator:3 ~op:`Write ~addr:0x1800 ~len:16 with
  | Ok phys -> check_int "translated" 0x8800 phys
  | Error _ -> Alcotest.fail "translate failed"

let test_avt_unmapped () =
  let avt = Avt.create () in
  match Avt.translate avt ~initiator:0 ~op:`Read ~addr:0x10 ~len:4 with
  | Error Avt.Unmapped -> ()
  | _ -> Alcotest.fail "expected Unmapped"

let test_avt_access_control () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0 ~length:256 ~phys_base:0
       ~access:{ Avt.readers = Avt.Any_initiator; writers = Avt.Initiators [ 7 ] });
  (match Avt.translate avt ~initiator:7 ~op:`Write ~addr:0 ~len:8 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "authorized writer rejected");
  (match Avt.translate avt ~initiator:8 ~op:`Write ~addr:0 ~len:8 with
  | Error Avt.Access_denied -> ()
  | _ -> Alcotest.fail "unauthorized writer accepted");
  match Avt.translate avt ~initiator:8 ~op:`Read ~addr:0 ~len:8 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "any-reader rejected"

let test_avt_window_crossing () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0 ~length:64 ~phys_base:0 ~access:(Avt.read_write Avt.Any_initiator));
  match Avt.translate avt ~initiator:0 ~op:`Read ~addr:60 ~len:8 with
  | Error Avt.Crosses_window -> ()
  | _ -> Alcotest.fail "expected Crosses_window"

let test_avt_overlap_rejected () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:100 ~length:100 ~phys_base:0
       ~access:(Avt.read_write Avt.Any_initiator));
  match
    Avt.map avt ~net_base:150 ~length:100 ~phys_base:0
      ~access:(Avt.read_write Avt.Any_initiator)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlapping map accepted"

let test_avt_32bit_bound () =
  let avt = Avt.create () in
  match
    Avt.map avt ~net_base:((1 lsl 32) - 10) ~length:100 ~phys_base:0
      ~access:(Avt.read_write Avt.Any_initiator)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "window past 32-bit space accepted"

let test_avt_unmap_and_set_access () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0 ~length:16 ~phys_base:0 ~access:(Avt.read_write (Avt.Initiators [])));
  check_bool "set_access" true (Avt.set_access avt ~net_base:0 (Avt.read_write Avt.Any_initiator));
  (match Avt.translate avt ~initiator:5 ~op:`Write ~addr:0 ~len:4 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "reprogrammed access not honored");
  check_bool "unmap" true (Avt.unmap avt ~net_base:0);
  check_bool "double unmap" false (Avt.unmap avt ~net_base:0)

(* --- Fabric --- *)

let make_fabric ?config sim =
  let fabric = Fabric.create sim ?config () in
  let host = Fabric.attach fabric ~name:"host" ~store:(Fabric.byte_store 4096) in
  let dev = Fabric.attach fabric ~name:"dev" ~store:(Fabric.byte_store 65536) in
  Test_util.check_result_ok "map dev window"
    (Avt.map (Fabric.avt dev) ~net_base:0 ~length:65536 ~phys_base:0
       ~access:(Avt.read_write Avt.Any_initiator));
  (fabric, host, dev)

let test_rdma_write_read_roundtrip () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      let data = Test_util.bytes_of_string "hello persistent world" in
      Test_util.check_result_ok "write"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0x100 ~data);
      match Fabric.rdma_read fabric ~src:host ~dst:(Fabric.id dev) ~addr:0x100
              ~len:(Bytes.length data)
      with
      | Ok back -> Alcotest.(check string) "payload" (Bytes.to_string data) (Bytes.to_string back)
      | Error _ -> Alcotest.fail "read failed")

let test_rdma_latency_model () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      let t0 = Sim.now sim in
      let data = Bytes.create 4096 in
      Test_util.check_result_ok "write"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data);
      let elapsed = Sim.now sim - t0 in
      let nominal = Fabric.transfer_time fabric ~bytes:4096 in
      check_int "matches nominal time" nominal elapsed;
      (* 4 KB at 125 MB/s plus 12 us latency: within [40, 60] us. *)
      check_bool "tens of microseconds" true (elapsed > Time.us 40 && elapsed < Time.us 60))

let test_rdma_access_enforced () =
  Test_util.run_process (fun sim ->
      let fabric = Fabric.create sim () in
      let host = Fabric.attach fabric ~name:"host" ~store:(Fabric.byte_store 64) in
      let intruder = Fabric.attach fabric ~name:"intruder" ~store:(Fabric.byte_store 64) in
      let dev = Fabric.attach fabric ~name:"dev" ~store:(Fabric.byte_store 4096) in
      Test_util.check_result_ok "map"
        (Avt.map (Fabric.avt dev) ~net_base:0 ~length:4096 ~phys_base:0
           ~access:(Avt.read_write (Avt.Initiators [ Fabric.id host ])));
      (match
         Fabric.rdma_write fabric ~src:intruder ~dst:(Fabric.id dev) ~addr:0
           ~data:(Bytes.create 8)
       with
      | Error (Fabric.Avt_error Avt.Access_denied) -> ()
      | _ -> Alcotest.fail "intruder write not rejected");
      match
        Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 8)
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "authorized write rejected")

let test_rdma_dead_endpoint () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      Fabric.set_alive dev false;
      match Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 8) with
      | Error Fabric.Unreachable -> ()
      | _ -> Alcotest.fail "write to dead endpoint succeeded")

let test_rail_failover () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      Fabric.set_rail fabric 0 false;
      (* Rail X down: traffic flows on Y. *)
      Test_util.check_result_ok "degraded write"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 8));
      Fabric.set_rail fabric 1 false;
      match Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 8) with
      | Error Fabric.No_path -> ()
      | _ -> Alcotest.fail "write with both rails down succeeded")

let test_nic_serialization () =
  (* Two writes from the same NIC must not overlap in time. *)
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      let one_transfer = Fabric.transfer_time fabric ~bytes:4096 in
      let done_at = ref Time.zero in
      let writer () =
        Test_util.check_result_ok "write"
          (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0
             ~data:(Bytes.create 4096));
        done_at := max !done_at (Sim.now sim)
      in
      let g = Gate.create 2 in
      let spawn_writer () =
        ignore
          (Sim.spawn sim ~name:"w" (fun () ->
               writer ();
               Gate.arrive g))
      in
      spawn_writer ();
      spawn_writer ();
      Gate.await g;
      check_bool "serialized" true (!done_at >= 2 * one_transfer))

let test_crc_retries_slow_but_deliver () =
  Test_util.run_process (fun sim ->
      let config = { Fabric.default_config with crc_error_rate = 0.2 } in
      let fabric, host, dev = make_fabric ~config sim in
      let data = Bytes.create 8192 in
      let t0 = Sim.now sim in
      Test_util.check_result_ok "write with noise"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data);
      let noisy = Sim.now sim - t0 in
      let stats = Fabric.stats fabric in
      check_bool "some retries happened" true (stats.Fabric.packet_retries > 0);
      check_bool "slower than nominal" true (noisy > Fabric.transfer_time fabric ~bytes:8192))

let test_fabric_stats () =
  Test_util.run_process (fun sim ->
      let fabric, host, dev = make_fabric sim in
      Test_util.check_result_ok "write"
        (Fabric.rdma_write fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~data:(Bytes.create 100));
      (match Fabric.rdma_read fabric ~src:host ~dst:(Fabric.id dev) ~addr:0 ~len:50 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "read");
      let s = Fabric.stats fabric in
      check_int "writes" 1 s.Fabric.writes;
      check_int "reads" 1 s.Fabric.reads;
      check_int "bytes written" 100 s.Fabric.bytes_written;
      check_int "bytes read" 50 s.Fabric.bytes_read)

let prop_transfer_time_monotone =
  QCheck.Test.make ~name:"transfer time grows with size" ~count:50
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let sim = Sim.create () in
      let fabric = Fabric.create sim () in
      let small = min a b and large = max a b in
      Fabric.transfer_time fabric ~bytes:small <= Fabric.transfer_time fabric ~bytes:large)

let test_avt_epoch_fence () =
  let avt = Avt.create () in
  Test_util.check_result_ok "map"
    (Avt.map avt ~net_base:0 ~length:256 ~phys_base:0
       ~access:(Avt.read_write Avt.Any_initiator));
  check_int "epoch starts at zero" 0 (Avt.epoch avt);
  Avt.set_epoch avt 3;
  (* Epoch-less writes and reads are never fenced — only a descriptor
     that claims an older volume generation is. *)
  Test_util.check_result_ok "epoch-less write"
    (Avt.translate avt ~initiator:0 ~op:`Write ~addr:0 ~len:8);
  Test_util.check_result_ok "current-epoch write"
    (Avt.translate avt ~initiator:0 ~op:`Write ~epoch:3 ~addr:0 ~len:8);
  (match Avt.translate avt ~initiator:0 ~op:`Write ~epoch:2 ~addr:0 ~len:8 with
  | Error Avt.Stale_epoch -> ()
  | _ -> Alcotest.fail "stale-epoch write accepted");
  (match Avt.translate avt ~initiator:0 ~op:`Read ~epoch:2 ~addr:0 ~len:8 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "reads must not be fenced");
  check_int "fenced writes counted" 1 (Avt.fenced avt)

let test_avt_epoch_monotone () =
  let avt = Avt.create () in
  Avt.set_epoch avt 5;
  Avt.set_epoch avt 5;
  check_int "same epoch ok" 5 (Avt.epoch avt);
  match Avt.set_epoch avt 4 with
  | () -> Alcotest.fail "epoch decreased"
  | exception Invalid_argument _ -> ()

(* --- Page_store --- *)

let check_str = Alcotest.(check string)

let test_page_store_straddles_pages () =
  let ps = Page_store.create (3 * Page_store.page_bytes) in
  let off = Page_store.page_bytes - 3 in
  Page_store.write ps ~off ~data:(Bytes.of_string "straddle");
  check_int "both pages allocated" 2 (Page_store.pages ps);
  check_str "read back across the boundary" "straddle"
    (Bytes.to_string (Page_store.read ps ~off ~len:8));
  check_str "zeros either side" "\000straddle\000"
    (Bytes.to_string (Page_store.read ps ~off:(off - 1) ~len:10));
  (* A write spanning a whole page and parts of its neighbours. *)
  let big = Bytes.init (Page_store.page_bytes + 10) (fun i -> Char.chr (i land 0xFF)) in
  Page_store.write ps ~off:(Page_store.page_bytes - 5) ~data:big;
  check_int "three pages" 3 (Page_store.pages ps);
  check_bool "spanning read equals the write" true
    (Bytes.equal big (Page_store.read ps ~off:(Page_store.page_bytes - 5) ~len:(Bytes.length big)))

let test_page_store_untouched_reads_zero () =
  let ps = Page_store.create ((4 * Page_store.page_bytes) + 100) in
  let whole = Page_store.read ps ~off:0 ~len:(Page_store.capacity ps) in
  check_bool "all zeros" true (Bytes.for_all (fun c -> c = '\000') whole);
  check_int "reads allocate no page" 0 (Page_store.pages ps);
  check_bool "get of untouched byte" true (Page_store.get ps 12345 = '\000');
  check_int "get allocates no page" 0 (Page_store.pages ps);
  (* The short last page holds only what the capacity leaves. *)
  let last = Page_store.capacity ps - 1 in
  Page_store.set ps last 'z';
  check_bool "last byte" true (Page_store.get ps last = 'z');
  check_int "one page" 1 (Page_store.pages ps);
  Page_store.clear ps;
  check_int "clear drops every page" 0 (Page_store.pages ps);
  check_bool "cleared byte reads zero" true (Page_store.get ps last = '\000')

let test_page_store_bounds () =
  let ps = Page_store.create 100 in
  let raises = Test_util.check_invalid_arg in
  raises "read past end" (fun () -> ignore (Page_store.read ps ~off:96 ~len:5));
  raises "negative offset" (fun () -> ignore (Page_store.read ps ~off:(-1) ~len:1));
  raises "negative length" (fun () -> ignore (Page_store.read ps ~off:0 ~len:(-1)));
  raises "write past end" (fun () -> Page_store.write ps ~off:99 ~data:(Bytes.make 2 'x'));
  raises "get at capacity" (fun () -> ignore (Page_store.get ps 100));
  raises "set below zero" (fun () -> Page_store.set ps (-1) 'x');
  check_int "failed writes allocate nothing" 0 (Page_store.pages ps);
  check_int "empty read at the end" 0 (Bytes.length (Page_store.read ps ~off:100 ~len:0))

let suite =
  [
    ( "servernet.avt",
      [
        Alcotest.test_case "map and translate" `Quick test_avt_map_translate;
        Alcotest.test_case "unmapped address" `Quick test_avt_unmapped;
        Alcotest.test_case "per-initiator access control" `Quick test_avt_access_control;
        Alcotest.test_case "window crossing rejected" `Quick test_avt_window_crossing;
        Alcotest.test_case "overlapping windows rejected" `Quick test_avt_overlap_rejected;
        Alcotest.test_case "32-bit space enforced" `Quick test_avt_32bit_bound;
        Alcotest.test_case "unmap and set_access" `Quick test_avt_unmap_and_set_access;
        Alcotest.test_case "epoch fences stale writes" `Quick test_avt_epoch_fence;
        Alcotest.test_case "epoch is monotone" `Quick test_avt_epoch_monotone;
      ] );
    ( "servernet.fabric",
      [
        Alcotest.test_case "write/read roundtrip" `Quick test_rdma_write_read_roundtrip;
        Alcotest.test_case "latency in tens of microseconds" `Quick test_rdma_latency_model;
        Alcotest.test_case "AVT enforced on the wire" `Quick test_rdma_access_enforced;
        Alcotest.test_case "dead endpoint unreachable" `Quick test_rdma_dead_endpoint;
        Alcotest.test_case "rail failover then no-path" `Quick test_rail_failover;
        Alcotest.test_case "NIC serializes concurrent transfers" `Quick test_nic_serialization;
        Alcotest.test_case "CRC errors retry and slow down" `Quick test_crc_retries_slow_but_deliver;
        Alcotest.test_case "statistics counters" `Quick test_fabric_stats;
        QCheck_alcotest.to_alcotest prop_transfer_time_monotone;
      ] );
    ( "servernet.page_store",
      [
        Alcotest.test_case "reads and writes straddle pages" `Quick test_page_store_straddles_pages;
        Alcotest.test_case "untouched ranges read as zeros" `Quick
          test_page_store_untouched_reads_zero;
        Alcotest.test_case "out of range raises" `Quick test_page_store_bounds;
      ] );
  ]
