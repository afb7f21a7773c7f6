type pid = int

type exit_reason = Normal | Killed | Crashed of exn

type proc = {
  pid : pid;
  pname : string;
  mutable alive : bool;
  mutable reason : exit_reason option;
  mutable exit_hooks : (exit_reason -> unit) list;
}

type hooks = { h_before : int -> unit; h_after : unit -> unit }

(* The event queue has two lanes.  Events due at the current instant go
   to the ready ring, a FIFO with no per-push allocation; later events go
   to the future heap, a binary min-heap on [(time, seq)].  The loop pops
   whichever head is smaller by [(time, seq)], so dispatch order is the
   same as one heap over every event.  [pos] says where an event is:
   its heap index when [>= 0], [in_ring] while armed in the ring, and
   [retired] once it fired or was cancelled.  A cancelled heap entry is
   removed at once; a cancelled ring entry stays until the ring drains
   past it, which happens within the instant. *)
type event = { time : Time.t; seq : int; mutable pos : int; ev_thunk : unit -> unit }

let in_ring = -1

let retired = -2

(* Fills unused slots of both lanes, so a popped event's closure is not
   kept alive by the array it left. *)
let vacant = { time = max_int; seq = max_int; pos = retired; ev_thunk = ignore }

type t = {
  mutable now : Time.t;
  mutable ring : event array;  (** power-of-two capacity *)
  mutable r_head : int;
  mutable r_len : int;
  mutable r_stale : int;  (** cancelled entries still in the ring *)
  mutable heap : event array;
  mutable h_len : int;
  mutable seq : int;
  root_rng : Rng.t;
  procs : (pid, proc) Hashtbl.t;
  mutable next_pid : int;
  mutable live : int;
  mutable stopping : bool;
  on_crash : [ `Raise | `Record ];
  mutable crash_log : (pid * string * exn) list;
  mutable hooks : hooks option;
}

exception Not_in_process
exception Killed_exn

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Self_eff : (t * proc) Effect.t

let create ?(seed = 0x5EEDL) ?(on_crash = `Raise) () =
  {
    now = Time.zero;
    ring = Array.make 64 vacant;
    r_head = 0;
    r_len = 0;
    r_stale = 0;
    heap = Array.make 64 vacant;
    h_len = 0;
    seq = 0;
    root_rng = Rng.create seed;
    procs = Hashtbl.create 64;
    next_pid = 1;
    live = 0;
    stopping = false;
    on_crash;
    crash_log = [];
    hooks = None;
  }

let set_dispatch_hooks t ~before ~after =
  t.hooks <- Some { h_before = before; h_after = after }

let clear_dispatch_hooks t = t.hooks <- None

let queue_depth t = t.h_len + t.r_len - t.r_stale

let heap_size t = t.h_len + t.r_len

let now t = t.now

let rng t = t.root_rng

let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* --- Ready ring --- *)

let ring_push t e =
  let cap = Array.length t.ring in
  if t.r_len = cap then begin
    let bigger = Array.make (2 * cap) vacant in
    for i = 0 to cap - 1 do
      bigger.(i) <- t.ring.((t.r_head + i) land (cap - 1))
    done;
    t.ring <- bigger;
    t.r_head <- 0
  end;
  t.ring.((t.r_head + t.r_len) land (Array.length t.ring - 1)) <- e;
  t.r_len <- t.r_len + 1

let[@inline] ring_tail t = t.ring.((t.r_head + t.r_len - 1) land (Array.length t.ring - 1))

let[@inline] ring_drop_head t =
  t.ring.(t.r_head) <- vacant;
  t.r_head <- (t.r_head + 1) land (Array.length t.ring - 1);
  t.r_len <- t.r_len - 1

(* --- Future heap --- *)

(* Move [e] from hole [i] towards the root until its parent is smaller. *)
let sift_up t e i =
  let a = t.heap in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let pi = (!i - 1) / 2 in
    let p = a.(pi) in
    if before e p then begin
      a.(!i) <- p;
      p.pos <- !i;
      i := pi
    end
    else continue := false
  done;
  a.(!i) <- e;
  e.pos <- !i

(* Move [e] from hole [i] towards the leaves until both children are larger. *)
let sift_down t e i =
  let a = t.heap and n = t.h_len in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c = if l + 1 < n && before a.(l + 1) a.(l) then l + 1 else l in
      let ce = a.(c) in
      if before ce e then begin
        a.(!i) <- ce;
        ce.pos <- !i;
        i := c
      end
      else continue := false
    end
  done;
  a.(!i) <- e;
  e.pos <- !i

let heap_push t e =
  if t.h_len = Array.length t.heap then begin
    let bigger = Array.make (2 * t.h_len) vacant in
    Array.blit t.heap 0 bigger 0 t.h_len;
    t.heap <- bigger
  end;
  t.h_len <- t.h_len + 1;
  sift_up t e (t.h_len - 1)

(* Remove the entry at index [i] and retire it. *)
let heap_remove t i =
  let e = t.heap.(i) in
  let n = t.h_len - 1 in
  t.h_len <- n;
  let last = t.heap.(n) in
  t.heap.(n) <- vacant;
  if i < n then begin
    if i > 0 && before last t.heap.((i - 1) / 2) then sift_up t last i
    else sift_down t last i
  end;
  e.pos <- retired

let schedule_event t ~time thunk =
  if time < t.now then invalid_arg "Sim: scheduling in the past";
  t.seq <- t.seq + 1;
  let e = { time; seq = t.seq; pos = in_ring; ev_thunk = thunk } in
  (* The ring only ever holds one instant, so its head is its minimum;
     after [run ~until] moves the clock back it may hold a later instant
     than [now], and new events then take the heap. *)
  if time = t.now && (t.r_len = 0 || (ring_tail t).time = time) then ring_push t e
  else heap_push t e;
  e

let schedule t ~time thunk = ignore (schedule_event t ~time thunk : event)

let cancel_event t e =
  if e.pos >= 0 then heap_remove t e.pos
  else if e.pos = in_ring then begin
    e.pos <- retired;
    t.r_stale <- t.r_stale + 1
  end

let at t ~after thunk =
  if after < 0 then invalid_arg "Sim.at: negative span";
  schedule t ~time:(t.now + after) thunk

let at_time t ~time thunk = schedule t ~time thunk

let at_time_cancel t ~time thunk =
  let e = schedule_event t ~time thunk in
  fun () -> cancel_event t e

let finish t p reason =
  if p.alive then begin
    p.alive <- false;
    p.reason <- Some reason;
    t.live <- t.live - 1;
    let hooks = p.exit_hooks in
    p.exit_hooks <- [];
    List.iter (fun h -> h reason) hooks
  end

let exec t p body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> finish t p Normal);
      exnc =
        (fun e ->
          match e with
          | Killed_exn -> finish t p Killed
          | e -> (
              finish t p (Crashed e);
              match t.on_crash with
              | `Raise -> raise e
              | `Record -> t.crash_log <- (p.pid, p.pname, e) :: t.crash_log));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let fired = ref false in
                  let waker () =
                    if not !fired then begin
                      fired := true;
                      schedule t ~time:t.now (fun () ->
                          if p.alive then continue k ()
                          else
                            (* The process was killed while parked: unwind
                               the fiber so its handler records the exit. *)
                            discontinue k Killed_exn)
                    end
                  in
                  register waker)
          | Self_eff -> Some (fun (k : (a, unit) continuation) -> continue k (t, p))
          | _ -> None);
    }

let spawn t ~name body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let p = { pid; pname = name; alive = true; reason = None; exit_hooks = [] } in
  Hashtbl.replace t.procs pid p;
  t.live <- t.live + 1;
  schedule t ~time:t.now (fun () -> if p.alive then exec t p body);
  pid

let proc_exn t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg "Sim: unknown pid"

let kill t pid =
  let p = proc_exn t pid in
  if p.alive then finish t p Killed

let on_exit t pid hook =
  let p = proc_exn t pid in
  match p.reason with
  | Some r -> hook r
  | None -> p.exit_hooks <- hook :: p.exit_hooks

let is_alive t pid = (proc_exn t pid).alive

let process_name t pid = (proc_exn t pid).pname

let crashed t = t.crash_log

let live_processes t = t.live

let stop t = t.stopping <- true

(* The loop body is hoisted so the hooked and unhooked paths share it;
   the unhooked path pays one mutable-field check per event. *)
let[@inline] dispatch t e =
  t.now <- e.time;
  match t.hooks with
  | None -> e.ev_thunk ()
  | Some h ->
      h.h_before (queue_depth t);
      e.ev_thunk ();
      h.h_after ()

let run ?until t =
  t.stopping <- false;
  let limit = match until with None -> max_int | Some u -> u in
  let continue = ref true in
  while !continue && not t.stopping do
    let from_ring = t.r_len > 0 && (t.h_len = 0 || before t.ring.(t.r_head) t.heap.(0)) in
    if (not from_ring) && t.h_len = 0 then continue := false
    else begin
      let e = if from_ring then t.ring.(t.r_head) else t.heap.(0) in
      if e.time > limit then begin
        (* Past-the-bound events stay queued; the clock advances to the
           bound only if something live remains to run later. *)
        if queue_depth t > 0 then t.now <- limit;
        continue := false
      end
      else if from_ring then begin
        ring_drop_head t;
        (* A cancelled entry is skipped without advancing the clock. *)
        if e.pos = in_ring then begin
          e.pos <- retired;
          dispatch t e
        end
        else t.r_stale <- t.r_stale - 1
      end
      else begin
        heap_remove t 0;
        dispatch t e
      end
    end
  done

(* Process-context operations. *)

let self_full () =
  try Effect.perform Self_eff with Effect.Unhandled _ -> raise Not_in_process

let self () =
  let _, p = self_full () in
  p.pid

let current () =
  let t, _ = self_full () in
  t

let suspend register =
  try Effect.perform (Suspend register) with Effect.Unhandled _ -> raise Not_in_process

let sleep span =
  if span < 0 then invalid_arg "Sim.sleep: negative span";
  let t, _ = self_full () in
  suspend (fun waker -> schedule t ~time:(t.now + span) waker)

let wait_until time =
  let t, _ = self_full () in
  if time > t.now then suspend (fun waker -> schedule t ~time waker)

let yield () =
  let t, _ = self_full () in
  suspend (fun waker -> schedule t ~time:t.now waker)
