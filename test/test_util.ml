(* Shared helpers for the test suites. *)

open Simkit

(* Run [f] inside a spawned process and return its result once the
   simulation quiesces.  Fails the test if the process never finished
   (deadlock or starvation). *)
let run_process ?(seed = 0xABCDL) f =
  let sim = Sim.create ~seed () in
  let result = ref None in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"test-driver" (fun () -> result := Some (f sim)) in
  Sim.run sim;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process did not run to completion"

(* Same, but the caller supplies the simulation (e.g. to pre-build
   topology before entering process context). *)
let run_in sim f =
  let result = ref None in
  let (_ : Sim.pid) = Sim.spawn sim ~name:"test-driver" (fun () -> result := Some (f ())) in
  Sim.run sim;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process did not run to completion"

let ok_or_fail ~msg = function
  | Ok v -> v
  | Error _ -> Alcotest.fail msg

let bytes_of_string = Bytes.of_string

let check_result_ok msg = function
  | Ok _ -> ()
  | Error _ -> Alcotest.fail msg

(* Fail unless [f] rejects its arguments with [Invalid_argument]. *)
let check_invalid_arg name f =
  match f () with
  | () -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument _ -> ()

(* A named drill scenario (see [Tp.Drill.scenario]), optionally
   re-seeded; an unknown name fails the test. *)
let drill_scenario ?defenses ?seed platform name =
  match Tp.Drill.scenario ?defenses platform name with
  | Error e -> Alcotest.fail ("drill scenario: " ^ e)
  | Ok s -> ( match seed with Some seed -> { s with Tp.Drill.seed } | None -> s)

let drill_report s =
  match Tp.Drill.run s with
  | Ok r -> r
  | Error e -> Alcotest.fail ("drill " ^ s.Tp.Drill.name ^ ": " ^ e)

let drill_pass r = Tp.Drill.Oracle.pass (Tp.Drill.Oracle.of_report r)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
