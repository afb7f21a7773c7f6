open Simkit

type error = Server_down | Timed_out

let pp_error ppf = function
  | Server_down -> Format.pp_print_string ppf "server down"
  | Timed_out -> Format.pp_print_string ppf "timed out"

type ('req, 'resp) envelope = {
  payload : 'req;
  resp_bytes : int;
  reply : ('resp, error) result Ivar.t;
  env_span : Span.span;
  env_sent : Time.t;  (** delivery into the inbox; dequeue minus this = queue wait *)
}

type ('req, 'resp) server = {
  fabric : Servernet.Fabric.t;
  name : string;
  mutable cpu : Cpu.t;
  mutable inbox : ('req, 'resp) envelope Mailbox.t;
  mutable outstanding : ('resp, error) result Ivar.t list;
  mutable epoch : int;
  mutable extra_latency : Time.span;
  mutable last_span : Span.span;
  mutable last_wait : Time.span;
  mutable hop_stat : Stat.t option;
  mutable req_counter : Stat.Counter.t option;
  mutable inbox_probe : Probe.t option;
}

let create_server fabric ~cpu ~name =
  {
    fabric;
    name;
    cpu;
    inbox = Mailbox.create ~name ();
    outstanding = [];
    epoch = 0;
    extra_latency = 0;
    last_span = Span.null;
    last_wait = 0;
    hop_stat = None;
    req_counter = None;
    inbox_probe = None;
  }

let set_obs s obs =
  let m = Obs.metrics obs in
  s.hop_stat <- Some (Metrics.stat m "msg.hop_ns");
  s.req_counter <- Some (Metrics.counter m "msg.requests");
  (* One aggregate probe across every server: depth = total queued
     requests, busy = wire time spent moving envelopes. *)
  let p = Metrics.probe m "msgsys.inbox" in
  Probe.set_clock p (fun () -> Sim.now (Cpu.sim s.cpu));
  s.inbox_probe <- Some p

let note_hop s dt =
  if Level.counters_on () then begin
    (match s.hop_stat with Some st -> Stat.add_span st dt | None -> ());
    match s.inbox_probe with Some p -> Probe.busy_span p dt | None -> ()
  end

let probe_enqueue s =
  match s.inbox_probe with Some p -> Probe.enqueue p | None -> ()

let probe_dequeue s =
  match s.inbox_probe with Some p -> Probe.dequeue p | None -> ()

let set_extra_latency s span =
  if span < 0 then invalid_arg "Msgsys.set_extra_latency: negative span";
  s.extra_latency <- span

let server_name s = s.name

let server_cpu s = s.cpu

(* [outstanding] holds exactly the delivered calls not yet answered:
   each reply drops every filled ivar (keeping the order
   [fail_outstanding] fails them in), so the set stays bounded by the
   calls in flight even when callers of [call_async] never [forget]. *)
let prune s = s.outstanding <- List.filter (fun iv -> not (Ivar.is_filled iv)) s.outstanding

let forget s iv =
  if not (Ivar.is_filled iv) then s.outstanding <- List.filter (fun i -> i != iv) s.outstanding

let outstanding s = List.length s.outstanding

let call_async s ~from ?(req_bytes = 256) ?(resp_bytes = 256) ?span payload =
  let reply = Ivar.create () in
  if not (Cpu.is_up from) then Ivar.fill reply (Error Server_down)
  else begin
    let sect = Prof.section_begin () in
    let sim = Cpu.sim from in
    (* Request wire time, then delivery (if the target is still up). *)
    let dt = Servernet.Fabric.transfer_time s.fabric ~bytes:req_bytes + s.extra_latency in
    note_hop s dt;
    (match s.req_counter with
    | Some c when Level.counters_on () -> Stat.Counter.incr c
    | _ -> ());
    let env_span = match span with Some sp -> sp | None -> Span.null in
    Sim.at sim ~after:dt (fun () ->
        if not (Cpu.is_up s.cpu) then ignore (Ivar.try_fill reply (Error Server_down))
        else begin
          s.outstanding <- reply :: s.outstanding;
          probe_enqueue s;
          Prof.bump_envelope ();
          Mailbox.send s.inbox
            { payload; resp_bytes; reply; env_span; env_sent = Sim.now sim }
        end);
    Prof.section_end sect "msgsys"
  end;
  reply

let call s ~from ?req_bytes ?resp_bytes ?timeout ?span payload =
  let reply = call_async s ~from ?req_bytes ?resp_bytes ?span payload in
  let result =
    match timeout with
    | None -> Ivar.read reply
    | Some span -> (
        match Ivar.read_timeout reply span with Some r -> r | None -> Error Timed_out)
  in
  forget s reply;
  result

let caller_span s = s.last_span

let caller_wait s = s.last_wait

(* Accept a dequeued envelope: returns its payload and the closure that
   answers it. *)
let accept s env =
  probe_dequeue s;
  s.last_span <- env.env_span;
  s.last_wait <- Sim.now (Cpu.sim s.cpu) - env.env_sent;
  let epoch = s.epoch in
  let respond resp =
    if s.epoch = epoch then begin
      (* Reply wire time, paid off the server's critical path. *)
      let dt =
        Servernet.Fabric.transfer_time s.fabric ~bytes:env.resp_bytes + s.extra_latency
      in
      note_hop s dt;
      Sim.at (Cpu.sim s.cpu) ~after:dt (fun () ->
          if Ivar.try_fill env.reply (Ok resp) then prune s)
    end
  in
  (env.payload, respond)

let next_request s = accept s (Mailbox.recv s.inbox)

let next_request_timeout s span =
  Option.map (accept s) (Mailbox.recv_timeout s.inbox span)

let pending s = Mailbox.length s.inbox

let fail_outstanding s =
  s.epoch <- s.epoch + 1;
  (* Drain messages still queued... *)
  let rec drain () =
    match Mailbox.try_recv s.inbox with
    | None -> ()
    | Some env ->
        probe_dequeue s;
        ignore (Ivar.try_fill env.reply (Error Server_down));
        drain ()
  in
  drain ();
  (* ... and fail calls whose requests were already dequeued. *)
  let out = s.outstanding in
  s.outstanding <- [];
  List.iter (fun iv -> ignore (Ivar.try_fill iv (Error Server_down))) out

let move s ~cpu =
  fail_outstanding s;
  s.cpu <- cpu;
  s.inbox <- Mailbox.create ~name:s.name ()
