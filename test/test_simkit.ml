(* Tests for the simkit discrete-event engine. *)

open Simkit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time --- *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "sec" 1_000_000_000 (Time.sec 1);
  check_int "us_f rounds" 1_500 (Time.us_f 1.5);
  Alcotest.(check (float 1e-9)) "to_sec" 1.5 (Time.to_sec (Time.ms 1500))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string 500);
  Alcotest.(check string) "us" "12.50us" (Time.to_string 12_500);
  Alcotest.(check string) "ms" "3.20ms" (Time.to_string 3_200_000)

(* --- Heap --- *)

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h ~key:5 ~seq:1 "e";
  Heap.push h ~key:1 ~seq:2 "a";
  Heap.push h ~key:3 ~seq:3 "c";
  Heap.push h ~key:1 ~seq:1 "a0";
  let pop () =
    match Heap.pop h with Some (_, _, v) -> v | None -> Alcotest.fail "empty"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list string)) "sorted" [ "a0"; "a"; "c"; "e" ] [ p1; p2; p3; p4 ];
  check_bool "empty after" true (Heap.is_empty h)

let test_heap_random () =
  let rng = Rng.create 42L in
  let h = Heap.create () in
  let n = 1000 in
  for i = 1 to n do
    Heap.push h ~key:(Rng.int rng 100) ~seq:i i
  done;
  let last = ref min_int in
  let count = ref 0 in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (k, _, _) ->
        check_bool "nondecreasing" true (k >= !last);
        last := k;
        incr count;
        drain ()
  in
  drain ();
  check_int "all popped" n !count

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    check_bool "in range" true (x >= 0 && x < 10);
    let f = Rng.unit_float r in
    check_bool "unit float" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let r = Rng.create 9L in
  let a = Rng.split r in
  let b = Rng.split r in
  check_bool "split streams differ" true (Rng.int64 a <> Rng.int64 b)

(* --- Stat --- *)

let test_stat_moments () =
  let s = Stat.create () in
  List.iter (Stat.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let sum = Stat.summary s in
  check_int "n" 5 sum.n;
  Alcotest.(check (float 1e-9)) "mean" 3.0 sum.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 sum.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 sum.max;
  Alcotest.(check (float 1e-6)) "stdev" (sqrt 2.5) sum.stdev

let test_stat_percentile () =
  let s = Stat.create () in
  for i = 1 to 100 do
    Stat.add s (float_of_int i)
  done;
  Alcotest.(check (float 1.0)) "p50" 50.0 (Stat.percentile s 0.50);
  Alcotest.(check (float 1.0)) "p99" 99.0 (Stat.percentile s 0.99);
  (* Adding after sorting must keep percentiles correct. *)
  Stat.add s 1000.0;
  Alcotest.(check (float 1e-9)) "new max" 1000.0 (Stat.percentile s 1.0)

let test_stat_empty_summary () =
  let s = Stat.create () in
  let sum = Stat.summary s in
  check_int "n" 0 sum.n

(* --- Sim scheduling --- *)

let test_callbacks_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim ~after:(Time.us 30) (fun () -> log := 3 :: !log);
  Sim.at sim ~after:(Time.us 10) (fun () -> log := 1 :: !log);
  Sim.at sim ~after:(Time.us 20) (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" (Time.us 30) (Sim.now sim)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.at sim ~after:(Time.us 10) (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.at sim ~after:(Time.ms 10) (fun () -> fired := true);
  Sim.run ~until:(Time.ms 5) sim;
  check_bool "not fired" false !fired;
  check_int "clock at bound" (Time.ms 5) (Sim.now sim);
  Sim.run sim;
  check_bool "fires later" true !fired

let test_process_sleep () =
  let sim = Sim.create () in
  let wake_time = ref Time.zero in
  let _ =
    Sim.spawn sim ~name:"sleeper" (fun () ->
        Sim.sleep (Time.ms 3);
        wake_time := Sim.now sim)
  in
  Sim.run sim;
  check_int "woke at 3ms" (Time.ms 3) !wake_time

let test_process_exit_hook () =
  let sim = Sim.create () in
  let reason = ref None in
  let pid = Sim.spawn sim ~name:"p" (fun () -> Sim.sleep (Time.us 1)) in
  Sim.on_exit sim pid (fun r -> reason := Some r);
  Sim.run sim;
  (match !reason with
  | Some Sim.Normal -> ()
  | _ -> Alcotest.fail "expected Normal exit");
  check_bool "dead" false (Sim.is_alive sim pid)

let test_kill_blocked_process () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref false in
  let pid =
    Sim.spawn sim ~name:"victim" (fun () ->
        let (_ : int) = Mailbox.recv mb in
        got := true)
  in
  Sim.at sim ~after:(Time.us 5) (fun () -> Sim.kill sim pid);
  (* A message sent after the kill must not resurrect the process. *)
  Sim.at sim ~after:(Time.us 10) (fun () -> Mailbox.send mb 42);
  Sim.run sim;
  check_bool "never ran" false !got;
  check_bool "dead" false (Sim.is_alive sim pid)

let test_kill_hook_runs_immediately () =
  let sim = Sim.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let killed_at = ref Time.zero in
  let pid = Sim.spawn sim ~name:"victim" (fun () -> ignore (Mailbox.recv mb)) in
  Sim.on_exit sim pid (fun _ -> killed_at := Sim.now sim);
  Sim.at sim ~after:(Time.us 7) (fun () -> Sim.kill sim pid);
  Sim.run sim;
  check_int "hook at kill time" (Time.us 7) !killed_at

let test_crash_raises_by_default () =
  let sim = Sim.create () in
  let _ = Sim.spawn sim ~name:"boom" (fun () -> failwith "bang") in
  Alcotest.check_raises "propagates" (Failure "bang") (fun () -> Sim.run sim)

let test_crash_recorded () =
  let sim = Sim.create ~on_crash:`Record () in
  let _ = Sim.spawn sim ~name:"boom" (fun () -> failwith "bang") in
  Sim.run sim;
  match Sim.crashed sim with
  | [ (_, name, Failure msg) ] ->
      Alcotest.(check string) "name" "boom" name;
      Alcotest.(check string) "msg" "bang" msg
  | _ -> Alcotest.fail "expected one recorded crash"

let test_not_in_process () =
  Alcotest.check_raises "sleep outside" Sim.Not_in_process (fun () -> Sim.sleep 5)

let test_yield_interleaving () =
  let sim = Sim.create () in
  let log = ref [] in
  let proc tag () =
    for i = 1 to 2 do
      log := (tag, i) :: !log;
      Sim.yield ()
    done
  in
  let _ = Sim.spawn sim ~name:"a" (proc "a") in
  let _ = Sim.spawn sim ~name:"b" (proc "b") in
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "round robin"
    [ ("a", 1); ("b", 1); ("a", 2); ("b", 2) ]
    (List.rev !log)

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  let _ =
    Sim.spawn sim ~name:"rx" (fun () ->
        for _ = 1 to 3 do
          got := Mailbox.recv mb :: !got
        done)
  in
  let _ =
    Sim.spawn sim ~name:"tx" (fun () ->
        Mailbox.send mb 1;
        Sim.sleep (Time.us 1);
        Mailbox.send mb 2;
        Mailbox.send mb 3)
  in
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_timeout () =
  let sim = Sim.create () in
  let result = ref (Some 0) in
  let mb : int Mailbox.t = Mailbox.create () in
  let _ =
    Sim.spawn sim ~name:"rx" (fun () -> result := Mailbox.recv_timeout mb (Time.ms 1))
  in
  Sim.run sim;
  check_bool "timed out" true (!result = None);
  check_int "clock advanced" (Time.ms 1) (Sim.now sim)

let test_mailbox_timeout_delivery_wins () =
  let sim = Sim.create () in
  let result = ref None in
  let mb = Mailbox.create () in
  let _ =
    Sim.spawn sim ~name:"rx" (fun () -> result := Mailbox.recv_timeout mb (Time.ms 1))
  in
  Sim.at sim ~after:(Time.us 100) (fun () -> Mailbox.send mb 99);
  Sim.run sim;
  check_bool "delivered" true (!result = Some 99)

let test_mailbox_two_receivers () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  let rx name () =
    let v = Mailbox.recv mb in
    got := (name, v) :: !got
  in
  let _ = Sim.spawn sim ~name:"r1" (rx "r1") in
  let _ = Sim.spawn sim ~name:"r2" (rx "r2") in
  Sim.at sim ~after:(Time.us 1) (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2);
  Sim.run sim;
  check_int "both served" 2 (List.length !got)

(* --- Ivar --- *)

let test_ivar_fill_read () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  let _ = Sim.spawn sim ~name:"reader" (fun () -> got := Ivar.read iv) in
  Sim.at sim ~after:(Time.us 3) (fun () -> Ivar.fill iv 17);
  Sim.run sim;
  check_int "value" 17 !got

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  check_bool "try_fill refused" false (Ivar.try_fill iv 2);
  check_bool "peek" true (Ivar.peek iv = Some 1)

let test_ivar_read_timeout () =
  let sim = Sim.create () in
  let out = ref (Some 0) in
  let iv : int Ivar.t = Ivar.create () in
  let _ = Sim.spawn sim ~name:"r" (fun () -> out := Ivar.read_timeout iv (Time.us 50)) in
  Sim.run sim;
  check_bool "timeout" true (!out = None)

(* --- Gate --- *)

let test_gate_fan_in () =
  let sim = Sim.create () in
  let g = Gate.create 3 in
  let opened_at = ref Time.zero in
  let _ =
    Sim.spawn sim ~name:"waiter" (fun () ->
        Gate.await g;
        opened_at := Sim.now sim)
  in
  for i = 1 to 3 do
    Sim.at sim ~after:(Time.us (10 * i)) (fun () -> Gate.arrive g)
  done;
  Sim.run sim;
  check_int "opens at last arrival" (Time.us 30) !opened_at

let test_gate_zero () =
  let g = Gate.create 0 in
  check_bool "already open" true (Gate.is_open g)

(* --- Determinism property --- *)

let run_sample_sim seed =
  let sim = Sim.create ~seed () in
  let rng = Sim.rng sim in
  let log = Buffer.create 256 in
  let mb = Mailbox.create () in
  let _ =
    Sim.spawn sim ~name:"producer" (fun () ->
        for i = 1 to 20 do
          Sim.sleep (Rng.int rng 1000);
          Mailbox.send mb i
        done)
  in
  let _ =
    Sim.spawn sim ~name:"consumer" (fun () ->
        for _ = 1 to 20 do
          let v = Mailbox.recv mb in
          Buffer.add_string log (Printf.sprintf "%d@%d;" v (Sim.now sim))
        done)
  in
  Sim.run sim;
  Buffer.contents log

let prop_determinism =
  QCheck.Test.make ~name:"identical seeds give identical runs" ~count:30 QCheck.int64
    (fun seed -> String.equal (run_sample_sim seed) (run_sample_sim seed))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:100
    QCheck.(list small_nat)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (k, _, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

let prop_stat_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within [min,max]" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stat.create () in
      List.iter (Stat.add s) xs;
      let sum = Stat.summary s in
      sum.p50 >= sum.min && sum.p50 <= sum.max && sum.p99 >= sum.p50)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest
    [ prop_determinism; prop_heap_sorts; prop_stat_percentile_bounds ]

let suite =
  [
    ( "simkit.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "simkit.heap",
      [
        Alcotest.test_case "ordering with ties" `Quick test_heap_order;
        Alcotest.test_case "random keys drain sorted" `Quick test_heap_random;
      ] );
    ( "simkit.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
      ] );
    ( "simkit.stat",
      [
        Alcotest.test_case "moments" `Quick test_stat_moments;
        Alcotest.test_case "percentiles with growth" `Quick test_stat_percentile;
        Alcotest.test_case "empty summary" `Quick test_stat_empty_summary;
      ] );
    ( "simkit.sim",
      [
        Alcotest.test_case "callbacks fire in order" `Quick test_callbacks_in_order;
        Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
        Alcotest.test_case "run ~until stops the clock" `Quick test_run_until;
        Alcotest.test_case "process sleep" `Quick test_process_sleep;
        Alcotest.test_case "exit hook on normal exit" `Quick test_process_exit_hook;
        Alcotest.test_case "killing a blocked process" `Quick test_kill_blocked_process;
        Alcotest.test_case "kill hooks run immediately" `Quick test_kill_hook_runs_immediately;
        Alcotest.test_case "crash raises by default" `Quick test_crash_raises_by_default;
        Alcotest.test_case "crash recorded with `Record" `Quick test_crash_recorded;
        Alcotest.test_case "blocking ops outside process raise" `Quick test_not_in_process;
        Alcotest.test_case "yield interleaves fairly" `Quick test_yield_interleaving;
      ] );
    ( "simkit.mailbox",
      [
        Alcotest.test_case "fifo delivery" `Quick test_mailbox_fifo;
        Alcotest.test_case "recv timeout expires" `Quick test_mailbox_timeout;
        Alcotest.test_case "delivery beats timeout" `Quick test_mailbox_timeout_delivery_wins;
        Alcotest.test_case "two receivers both served" `Quick test_mailbox_two_receivers;
      ] );
    ( "simkit.ivar",
      [
        Alcotest.test_case "fill then read" `Quick test_ivar_fill_read;
        Alcotest.test_case "double fill refused" `Quick test_ivar_double_fill;
        Alcotest.test_case "read timeout" `Quick test_ivar_read_timeout;
      ] );
    ( "simkit.gate",
      [
        Alcotest.test_case "fan-in" `Quick test_gate_fan_in;
        Alcotest.test_case "zero gate open" `Quick test_gate_zero;
      ] );
    ("simkit.properties", qcheck_cases);
  ]
