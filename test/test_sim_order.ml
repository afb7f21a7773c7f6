(* Dispatch order of Sim's event queue against a reference.

   The reference is a small event loop over [Simkit.Heap] keyed by each
   event's [(time, seq)], with processes written in continuation-passing
   style: a blocking operation registers a waker that resumes the
   process through a same-instant event, exactly as [Sim.suspend]
   documents.  One random script runs on both engines; the logs of what
   ran when, and the live queue depth after every [run], must agree. *)

open Simkit

(* --- Scripts --- *)

type action =
  | Call of { via_at_time : bool; delay : int; label : int; body : action list }
  | Timer of { delay : int; label : int; slot : int; body : action list }
      (** [at_time_cancel]; its cancel thunk goes to [slot] *)
  | Cancel of int
  | Stop
  | Spawn of { label : int; steps : step list }

and step =
  | Sleep of int
  | Yield
  | Read of { span : int; fill : int option }
      (** [Ivar.read_timeout], the ivar filled [fill] ns after the read
          starts, if at all *)
  | Do of action

type segment = { actions : action list; until : int option  (** relative to [now] *) }

let slots = 6

let gen_script =
  let open QCheck.Gen in
  (* Mostly zero delays, so same-instant ties and ring traffic dominate. *)
  let delay = frequency [ (5, return 0); (3, int_range 1 4); (1, int_range 5 40) ] in
  let label = int_bound 999 in
  let rec action depth =
    let leaf =
      [ (2, map (fun s -> Cancel s) (int_bound (slots - 1))); (1, return Stop) ]
    in
    let nested =
      if depth = 0 then []
      else
        let body = list_size (int_bound 3) (action (depth - 1)) in
        [
          ( 4,
            map
              (fun (via_at_time, delay, label, body) -> Call { via_at_time; delay; label; body })
              (quad bool delay label body) );
          ( 3,
            map
              (fun (delay, label, slot, body) -> Timer { delay; label; slot; body })
              (quad delay label (int_bound (slots - 1)) body) );
          ( 2,
            map
              (fun (label, steps) -> Spawn { label; steps })
              (pair label (list_size (int_range 1 4) (step (depth - 1)))) );
        ]
    in
    frequency (leaf @ nested)
  and step depth =
    frequency
      [
        (3, map (fun d -> Sleep d) delay);
        (2, return Yield);
        (3, map (fun (span, fill) -> Read { span; fill }) (pair delay (opt delay)));
        (2, map (fun a -> Do a) (action depth));
      ]
  in
  let segment =
    map
      (fun (actions, until) -> { actions; until })
      (pair (list_size (int_range 1 4) (action 3)) (opt (int_range (-10) 30)))
  in
  list_size (int_range 1 5) segment

(* --- Engines --- *)

(* What a script may do; every blocking operation takes its
   continuation, which the real engine simply calls on return. *)
type engine = {
  now : unit -> int;
  at : after:int -> (unit -> unit) -> unit;
  at_time : time:int -> (unit -> unit) -> unit;
  at_time_cancel : time:int -> (unit -> unit) -> unit -> unit;
  stop : unit -> unit;
  spawn : (unit -> unit) -> unit;
  sleep : int -> (unit -> unit) -> unit;
  yield : (unit -> unit) -> unit;
  ivar : unit -> (unit -> unit) * (int -> (bool -> unit) -> unit);  (** fill, read_timeout *)
  run : ?until:int -> unit -> unit;
  queue_depth : unit -> int;
}

let real_engine () =
  let sim = Sim.create () in
  {
    now = (fun () -> Sim.now sim);
    at = (fun ~after f -> Sim.at sim ~after f);
    at_time = (fun ~time f -> Sim.at_time sim ~time f);
    at_time_cancel = (fun ~time f -> Sim.at_time_cancel sim ~time f);
    stop = (fun () -> Sim.stop sim);
    spawn = (fun body -> ignore (Sim.spawn sim ~name:"script" body : Sim.pid));
    sleep =
      (fun d k ->
        Sim.sleep d;
        k ());
    yield =
      (fun k ->
        Sim.yield ();
        k ());
    ivar =
      (fun () ->
        let iv = Ivar.create () in
        ((fun () -> Ivar.fill iv ()), fun span k -> k (Ivar.read_timeout iv span <> None)));
    run = (fun ?until () -> Sim.run ?until sim);
    queue_depth = (fun () -> Sim.queue_depth sim);
  }

type ref_event = { thunk : unit -> unit; mutable live : bool }

let reference_engine () =
  let now = ref 0 and seq = ref 0 and live = ref 0 and stopping = ref false in
  let q : ref_event Heap.t = Heap.create () in
  let schedule time thunk =
    if time < !now then invalid_arg "reference: scheduling in the past";
    incr seq;
    incr live;
    let e = { thunk; live = true } in
    Heap.push q ~key:time ~seq:!seq e;
    e
  in
  let cancel e =
    if e.live then begin
      e.live <- false;
      decr live
    end
  in
  (* A parked process resumes through a fresh event at the instant its
     waker is first called. *)
  let suspend register k =
    let fired = ref false in
    register (fun () ->
        if not !fired then begin
          fired := true;
          ignore (schedule !now k : ref_event)
        end)
  in
  let run ?until () =
    stopping := false;
    let continue = ref true in
    while !continue && not !stopping do
      let next = match until with None -> Heap.pop q | Some u -> Heap.pop_le q ~max:u in
      match next with
      | None ->
          (match until with Some u when !live > 0 -> now := u | _ -> ());
          continue := false
      | Some (time, _, e) ->
          if e.live then begin
            cancel e;
            now := time;
            e.thunk ()
          end
    done
  in
  let ivar () =
    let filled = ref false and waiters = ref [] in
    let fill () =
      filled := true;
      let ws = !waiters in
      waiters := [];
      List.iter (fun w -> w ()) ws
    in
    (* Mirrors [Ivar.read_timeout]: wait on both the ivar and a
       cancellable deadline, then retire whichever did not fire. *)
    let read_timeout span k =
      let deadline = !now + span in
      let rec loop () =
        if !filled then k true
        else if !now >= deadline then k false
        else begin
          let retire = ref ignore and me = ref ignore in
          suspend
            (fun w ->
              me := w;
              waiters := w :: !waiters;
              let e = schedule deadline w in
              retire := fun () -> cancel e)
            (fun () ->
              !retire ();
              waiters := List.filter (fun w -> w != !me) !waiters;
              loop ())
        end
      in
      loop ()
    in
    (fill, read_timeout)
  in
  {
    now = (fun () -> !now);
    at = (fun ~after f -> ignore (schedule (!now + after) f : ref_event));
    at_time = (fun ~time f -> ignore (schedule time f : ref_event));
    at_time_cancel =
      (fun ~time f ->
        let e = schedule time f in
        fun () -> cancel e);
    stop = (fun () -> stopping := true);
    spawn = (fun body -> ignore (schedule !now body : ref_event));
    sleep = (fun d k -> suspend (fun w -> ignore (schedule (!now + d) w : ref_event)) k);
    yield = (fun k -> suspend (fun w -> ignore (schedule !now w : ref_event)) k);
    ivar;
    run;
    queue_depth = (fun () -> !live);
  }

(* --- Interpreter --- *)

(* Run [script] on [eng] and return the log: one line per callback,
   process step and read result, stamped with the clock, plus the clock
   and live queue depth after every [run]. *)
let interpret eng script =
  let log = Buffer.create 1024 in
  let note fmt = Printf.bprintf log ("%d " ^^ fmt ^^ "\n") (eng.now ()) in
  let cancels = Array.make slots ignore in
  let rec act = function
    | Call { via_at_time; delay; label; body } ->
        let f () =
          note "call %d" label;
          List.iter act body
        in
        if via_at_time then eng.at_time ~time:(eng.now () + delay) f else eng.at ~after:delay f
    | Timer { delay; label; slot; body } ->
        cancels.(slot) <-
          eng.at_time_cancel ~time:(eng.now () + delay) (fun () ->
              note "timer %d" label;
              List.iter act body)
    | Cancel slot -> cancels.(slot) ()
    | Stop -> eng.stop ()
    | Spawn { label; steps } -> eng.spawn (fun () -> proc label 0 steps)
  and proc label i steps =
    match steps with
    | [] -> note "proc %d exits" label
    | step :: rest -> (
        note "proc %d step %d" label i;
        let next () = proc label (i + 1) rest in
        match step with
        | Sleep d -> eng.sleep d next
        | Yield -> eng.yield next
        | Read { span; fill } ->
            let fill_iv, read = eng.ivar () in
            Option.iter (fun after -> eng.at ~after fill_iv) fill;
            read span (fun got ->
                note "proc %d read %b" label got;
                next ())
        | Do a ->
            act a;
            next ())
  in
  List.iter
    (fun { actions; until } ->
      List.iter act actions;
      let until = Option.map (fun d -> max 0 (eng.now () + d)) until in
      eng.run ?until ();
      note "run ends, %d live" (eng.queue_depth ()))
    script;
  eng.run ();
  note "drained, %d live" (eng.queue_depth ());
  Buffer.contents log

let print_script script =
  Printf.sprintf "%d segments, %d top-level actions" (List.length script)
    (List.fold_left (fun n s -> n + List.length s.actions) 0 script)

let prop_matches_reference =
  QCheck.Test.make ~name:"dispatch order matches a (time, seq) heap" ~count:1000
    (QCheck.make ~print:print_script gen_script)
    (fun script ->
      let real = interpret (real_engine ()) script in
      let reference = interpret (reference_engine ()) script in
      if real <> reference then
        QCheck.Test.fail_reportf "real:\n%s\nreference:\n%s" real reference
      else true)

(* --- Cancellation is in place --- *)

let test_cancel_shrinks_queue () =
  let sim = Sim.create () in
  let cancels = List.init 10 (fun i -> Sim.at_time_cancel sim ~time:(100 + i) ignore) in
  Alcotest.(check int) "ten queued" 10 (Sim.heap_size sim);
  (List.nth cancels 3) ();
  Alcotest.(check int) "future cancel shrinks the queue at once" 9 (Sim.heap_size sim);
  Alcotest.(check int) "live" 9 (Sim.queue_depth sim);
  (List.nth cancels 3) ();
  Alcotest.(check int) "second cancel is a no-op" 9 (Sim.heap_size sim);
  (* A same-instant entry is only marked; the loop drops it this instant. *)
  let now_cancel = Sim.at_time_cancel sim ~time:(Sim.now sim) ignore in
  now_cancel ();
  Alcotest.(check int) "same-instant cancel is lazy" 10 (Sim.heap_size sim);
  Alcotest.(check int) "but not live" 9 (Sim.queue_depth sim);
  Sim.run ~until:0 sim;
  Alcotest.(check int) "dropped within the instant" 9 (Sim.heap_size sim);
  Alcotest.(check int) "clock unmoved" 0 (Sim.now sim);
  List.iter (fun c -> c ()) cancels;
  Alcotest.(check int) "all cancelled" 0 (Sim.heap_size sim);
  Sim.run sim;
  Alcotest.(check int) "nothing ran" 0 (Sim.now sim)

(* After [stop] leaves a same-instant entry queued and [run ~until]
   moves the clock back below it, cancelled entries must still never
   move the clock. *)
let test_cancelled_never_moves_clock () =
  let sim = Sim.create () in
  let cancel_ready = ref ignore in
  Sim.at sim ~after:10 (fun () ->
      cancel_ready := Sim.at_time_cancel sim ~time:10 ignore;
      Sim.stop sim);
  let cancel_later = Sim.at_time_cancel sim ~time:20 ignore in
  Sim.run sim;
  Alcotest.(check int) "stopped at 10" 10 (Sim.now sim);
  !cancel_ready ();
  Sim.run ~until:5 sim;
  Alcotest.(check int) "clock moved back to the bound" 5 (Sim.now sim);
  cancel_later ();
  Sim.run sim;
  Alcotest.(check int) "cancelled entries left the clock alone" 5 (Sim.now sim);
  Alcotest.(check int) "queue empty" 0 (Sim.heap_size sim)

let suite =
  [
    ( "simkit.sim_order",
      [
        Alcotest.test_case "cancel shrinks heap_size at once" `Quick test_cancel_shrinks_queue;
        Alcotest.test_case "cancelled entries never move the clock" `Quick
          test_cancelled_never_moves_clock;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
