(* Tests for the NSK layer: CPUs, message system, process pairs. *)

open Simkit
open Nsk

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_node ?(cpus = 4) () =
  let sim = Sim.create ~seed:0x42L () in
  let node = Node.create sim ~cpus () in
  (sim, node)

(* --- Cpu --- *)

let test_cpu_execute_serializes () =
  let sim, node = make_node () in
  let cpu = Node.cpu node 0 in
  let finish = ref Time.zero in
  let worker () =
    Cpu.execute cpu (Time.ms 1);
    finish := max !finish (Sim.now sim)
  in
  let (_ : Sim.pid) = Cpu.spawn cpu ~name:"w1" worker in
  let (_ : Sim.pid) = Cpu.spawn cpu ~name:"w2" worker in
  Sim.run sim;
  check_int "two 1ms slices serialize" (Time.ms 2) !finish;
  check_int "busy accounted" (Time.ms 2) (Cpu.busy_time cpu)

let test_cpu_failure_kills_residents () =
  let sim, node = make_node () in
  let cpu = Node.cpu node 1 in
  let survived = ref false in
  let (_ : Sim.pid) =
    Cpu.spawn cpu ~name:"victim" (fun () ->
        Sim.sleep (Time.ms 10);
        survived := true)
  in
  Sim.at sim ~after:(Time.ms 1) (fun () -> Cpu.fail cpu);
  Sim.run sim;
  check_bool "resident killed" false !survived;
  check_bool "cpu down" false (Cpu.is_up cpu)

let test_cpu_failure_hook () =
  let sim, node = make_node () in
  let cpu = Node.cpu node 2 in
  let fired = ref false in
  Cpu.on_failure cpu (fun () -> fired := true);
  Sim.at sim ~after:(Time.us 1) (fun () -> Cpu.fail cpu);
  Sim.run sim;
  check_bool "hook fired" true !fired

let test_cpu_spawn_on_down_cpu () =
  let _, node = make_node () in
  let cpu = Node.cpu node 0 in
  Cpu.fail cpu;
  Alcotest.check_raises "spawn refused" (Invalid_argument "Cpu.spawn: CPU is down") (fun () ->
      ignore (Cpu.spawn cpu ~name:"x" (fun () -> ())))

(* --- Msgsys --- *)

let test_rpc_roundtrip () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"echo" in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 0) ~name:"server" (fun () ->
        while true do
          let req, respond = Msgsys.next_request server in
          respond (req * 2)
        done)
  in
  let got = ref 0 in
  let t0 = ref Time.zero in
  let elapsed = ref Time.zero in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        t0 := Sim.now sim;
        match Msgsys.call server ~from:(Node.cpu node 1) 21 with
        | Ok v ->
            got := v;
            elapsed := Sim.now sim - !t0
        | Error _ -> Alcotest.fail "rpc failed")
  in
  Sim.run sim;
  check_int "doubled" 42 !got;
  check_bool "a message costs 10s of us" true (!elapsed >= Time.us 20 && !elapsed < Time.ms 1)

let test_rpc_server_down () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"dead" in
  Cpu.fail (Node.cpu node 0);
  let result = ref (Ok 0) in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        result := Msgsys.call server ~from:(Node.cpu node 1) 1)
  in
  Sim.run sim;
  match !result with
  | Error Msgsys.Server_down -> ()
  | _ -> Alcotest.fail "expected Server_down"

let test_rpc_fail_outstanding () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"slow" in
  (* Server never answers; failing outstanding calls must release the
     blocked client. *)
  let result = ref None in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        result := Some (Msgsys.call server ~from:(Node.cpu node 1) 7))
  in
  Sim.at sim ~after:(Time.ms 5) (fun () -> Msgsys.fail_outstanding server);
  Sim.run sim;
  match !result with
  | Some (Error Msgsys.Server_down) -> ()
  | _ -> Alcotest.fail "client not released"

(* Boxcarred inserts and group-commit flushes use [call_async] and never
   forget their ivars; the server's outstanding set must still shrink
   back as replies arrive instead of growing with the run. *)
let test_async_replies_leave_outstanding () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"echo" in
  let batch = 4 and rounds = 250 in
  let worst = ref 0 in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 0) ~name:"server" (fun () ->
        while true do
          let req, respond = Msgsys.next_request server in
          worst := max !worst (Msgsys.outstanding server);
          Cpu.execute (Node.cpu node 0) (Time.us 5);
          respond req
        done)
  in
  let answered = ref 0 in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        for r = 1 to rounds do
          let replies =
            List.init batch (fun i -> Msgsys.call_async server ~from:(Node.cpu node 1) (r + i))
          in
          List.iter
            (fun iv -> match Ivar.read iv with Ok _ -> incr answered | Error _ -> ())
            replies;
          check_int "all answered calls left the set" 0 (Msgsys.outstanding server)
        done)
  in
  Sim.run sim;
  check_int "every call answered" (batch * rounds) !answered;
  check_bool "bounded by the calls in flight" true (!worst <= batch);
  check_int "empty at the end" 0 (Msgsys.outstanding server)

let test_fail_outstanding_spares_answered () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"half" in
  (* Answers the first request only; the second stays in flight. *)
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 0) ~name:"server" (fun () ->
        let req, respond = Msgsys.next_request server in
        respond (req * 2);
        let (_ : int * (int -> unit)) = Msgsys.next_request server in
        ())
  in
  let answered = ref (Ivar.create ()) and stuck = ref (Ivar.create ()) in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        answered := Msgsys.call_async server ~from:(Node.cpu node 1) 21;
        ignore (Ivar.read !answered);
        stuck := Msgsys.call_async server ~from:(Node.cpu node 1) 5)
  in
  Sim.at sim ~after:(Time.ms 5) (fun () ->
      check_int "one call in flight" 1 (Msgsys.outstanding server);
      Msgsys.fail_outstanding server);
  Sim.run sim;
  (match Ivar.peek !answered with
  | Some (Ok 42) -> ()
  | _ -> Alcotest.fail "answered call changed");
  (match Ivar.peek !stuck with
  | Some (Error Msgsys.Server_down) -> ()
  | _ -> Alcotest.fail "in-flight call not failed");
  check_int "set empty" 0 (Msgsys.outstanding server)

let test_rpc_timeout () =
  let sim, node = make_node () in
  let server = Msgsys.create_server (Node.fabric node) ~cpu:(Node.cpu node 0) ~name:"mute" in
  let result = ref None in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 1) ~name:"client" (fun () ->
        result := Some (Msgsys.call server ~from:(Node.cpu node 1) ~timeout:(Time.ms 2) 7))
  in
  Sim.run sim;
  match !result with
  | Some (Error Msgsys.Timed_out) -> ()
  | _ -> Alcotest.fail "expected timeout"

(* --- Procpair --- *)

(* A counting service: requests increment a counter; the primary
   checkpoints the counter before replying.  After takeover the backup
   must continue from the checkpointed value. *)
let start_counter_pair node ~primary ~backup =
  let fabric = Node.fabric node in
  let server = Msgsys.create_server fabric ~cpu:primary ~name:"counter" in
  let live = ref 0 in
  let shadow = ref 0 in
  let pair = ref None in
  let serve () =
    (* A promoted primary starts from the checkpointed shadow. *)
    live := !shadow;
    while true do
      let (), respond = Msgsys.next_request server in
      incr live;
      (match !pair with Some p -> Procpair.checkpoint p ~bytes:8 !live | None -> ());
      respond !live
    done
  in
  let p =
    Procpair.start ~fabric ~name:"counter" ~primary ~backup
      ~config:{ Procpair.takeover_delay = Time.ms 100; ack_bytes = 64 }
      ~apply:(fun v -> shadow := v)
      ~serve
      ~on_takeover:(fun () -> Msgsys.move server ~cpu:backup)
      ()
  in
  pair := Some p;
  (server, p)

let test_procpair_checkpointing () =
  let sim, node = make_node () in
  let server, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1) in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 2) ~name:"client" (fun () ->
        for expect = 1 to 5 do
          match Msgsys.call server ~from:(Node.cpu node 2) () with
          | Ok v -> check_int "count" expect v
          | Error _ -> Alcotest.fail "call failed"
        done)
  in
  Sim.run sim;
  check_int "five checkpoints" 5 (Procpair.checkpoints_sent pair)

let test_procpair_takeover_preserves_state () =
  let sim, node = make_node () in
  let server, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1) in
  let final = ref 0 in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 2) ~name:"client" (fun () ->
        for _ = 1 to 3 do
          match Msgsys.call server ~from:(Node.cpu node 2) () with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "pre-failure call failed"
        done;
        (* Kill the primary CPU, then keep calling until the backup
           answers. *)
        Cpu.fail (Node.cpu node 0);
        let rec retry () =
          match Msgsys.call server ~from:(Node.cpu node 2) ~timeout:(Time.ms 500) () with
          | Ok v -> final := v
          | Error _ ->
              Sim.sleep (Time.ms 50);
              retry ()
        in
        retry ())
  in
  Sim.run sim;
  check_int "continues from checkpointed state" 4 !final;
  check_int "one takeover" 1 (Procpair.takeovers pair);
  check_bool "sub-second outage" true (Procpair.outage_time pair < Time.sec 1);
  check_bool "no backup anymore" false (Procpair.has_backup pair)

let test_procpair_halted_when_both_die () =
  let sim, node = make_node () in
  let _, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1) in
  Sim.at sim ~after:(Time.ms 1) (fun () -> Cpu.fail (Node.cpu node 1));
  Sim.at sim ~after:(Time.ms 2) (fun () -> Cpu.fail (Node.cpu node 0));
  Sim.run sim;
  check_bool "pair halted" true (Procpair.is_halted pair)

let test_procpair_checkpoint_degrades_without_backup () =
  let sim, node = make_node () in
  let server, pair = start_counter_pair node ~primary:(Node.cpu node 0) ~backup:(Node.cpu node 1) in
  Cpu.fail (Node.cpu node 1);
  (* Checkpoints silently stop; service continues. *)
  let got = ref 0 in
  let (_ : Sim.pid) =
    Cpu.spawn (Node.cpu node 2) ~name:"client" (fun () ->
        match Msgsys.call server ~from:(Node.cpu node 2) () with
        | Ok v -> got := v
        | Error _ -> Alcotest.fail "call failed")
  in
  Sim.run sim;
  check_int "service alive" 1 !got;
  check_int "no checkpoints shipped" 0 (Procpair.checkpoints_sent pair)

let suite =
  [
    ( "nsk.cpu",
      [
        Alcotest.test_case "execute serializes on one CPU" `Quick test_cpu_execute_serializes;
        Alcotest.test_case "failure kills residents" `Quick test_cpu_failure_kills_residents;
        Alcotest.test_case "failure hooks fire" `Quick test_cpu_failure_hook;
        Alcotest.test_case "spawn on down CPU refused" `Quick test_cpu_spawn_on_down_cpu;
      ] );
    ( "nsk.msgsys",
      [
        Alcotest.test_case "request/reply roundtrip" `Quick test_rpc_roundtrip;
        Alcotest.test_case "dead server reported" `Quick test_rpc_server_down;
        Alcotest.test_case "fail_outstanding releases callers" `Quick test_rpc_fail_outstanding;
        Alcotest.test_case "call timeout" `Quick test_rpc_timeout;
        Alcotest.test_case "async replies leave the outstanding set" `Quick
          test_async_replies_leave_outstanding;
        Alcotest.test_case "fail_outstanding spares answered calls" `Quick
          test_fail_outstanding_spares_answered;
      ] );
    ( "nsk.procpair",
      [
        Alcotest.test_case "checkpoints flow to backup" `Quick test_procpair_checkpointing;
        Alcotest.test_case "takeover preserves checkpointed state" `Quick
          test_procpair_takeover_preserves_state;
        Alcotest.test_case "halted when both sides die" `Quick test_procpair_halted_when_both_die;
        Alcotest.test_case "degrades without backup" `Quick
          test_procpair_checkpoint_degrades_without_backup;
      ] );
  ]

(* --- Duplicate and compare (paper section 1.3) --- *)

let test_dandc_agreement () =
  let sim, node = make_node () in
  let outcome = ref None in
  let t0 = ref Time.zero in
  let elapsed = ref Time.zero in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        t0 := Sim.now sim;
        outcome :=
          Some
            (Dandc.run ~fabric:(Node.fabric node) ~primary:(Node.cpu node 0)
               ~shadow:(Node.cpu node 1) ~work:(Time.ms 2)
               ~compute:(fun ~replica -> ignore replica; 40 + 2)
               ~checksum:(fun v -> v * 31));
        elapsed := Sim.now sim - !t0)
  in
  Sim.run sim;
  (match !outcome with
  | Some (Dandc.Agreed 42) -> ()
  | _ -> Alcotest.fail "expected agreement on 42");
  (* Replicas run in parallel: total is ~one work quantum, not two. *)
  check_bool "parallel execution" true (!elapsed < Time.ms 4)

let test_dandc_detects_corruption () =
  let sim, node = make_node () in
  let outcome = ref None in
  let (_ : Sim.pid) =
    Sim.spawn sim ~name:"main" (fun () ->
        outcome :=
          Some
            (Dandc.run ~fabric:(Node.fabric node) ~primary:(Node.cpu node 0)
               ~shadow:(Node.cpu node 1) ~work:(Time.us 100)
               ~compute:(fun ~replica -> if replica = 1 then 99 (* SDC *) else 42)
               ~checksum:(fun v -> v * 31)))
  in
  Sim.run sim;
  match !outcome with
  | Some (Dandc.Mismatch _) -> ()
  | _ -> Alcotest.fail "silent corruption not detected"

let dandc_cases =
  [
    Alcotest.test_case "replicas agree in parallel" `Quick test_dandc_agreement;
    Alcotest.test_case "detects silent corruption" `Quick test_dandc_detects_corruption;
  ]

let suite = suite @ [ ("nsk.dandc", dandc_cases) ]
