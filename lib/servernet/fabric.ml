open Simkit

type error = Unreachable | No_path | Avt_error of Avt.error | Crc_failure

let pp_error ppf = function
  | Unreachable -> Format.pp_print_string ppf "target endpoint unreachable"
  | No_path -> Format.pp_print_string ppf "no rail up between endpoints"
  | Avt_error e -> Format.fprintf ppf "AVT: %a" Avt.pp_error e
  | Crc_failure -> Format.pp_print_string ppf "CRC retries exhausted"

let error_to_string e = Format.asprintf "%a" pp_error e

type config = {
  sw_latency : Time.span;
  bytes_per_ns : float;
  packet_bytes : int;
  per_packet_overhead : Time.span;
  crc_error_rate : float;
  max_retries : int;
  rails : int;
}

let default_config =
  {
    sw_latency = Time.us 12;
    bytes_per_ns = 0.125 (* 125 MB/s *);
    packet_bytes = 512;
    per_packet_overhead = Time.ns 200;
    crc_error_rate = 0.0;
    max_retries = 8;
    rails = 2;
  }

type store = {
  size : int;
  read : off:int -> len:int -> Bytes.t;
  write : off:int -> data:Bytes.t -> unit;
}

let byte_store size =
  let mem = Page_store.create size in
  { size; read = Page_store.read mem; write = Page_store.write mem }

type endpoint = {
  ep_id : int;
  ep_name : string;
  ep_store : store;
  ep_avt : Avt.t;
  mutable ep_alive : bool;
  mutable nic_free_at : Time.t;
  mutable ep_probe : Probe.t option;
  mutable ep_slow : float;  (** fail-slow latency multiplier, >= 1.0 *)
  mutable ep_jitter : Time.span;  (** max extra seeded jitter per transfer *)
}

type stats = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
  packet_retries : int;
  failures : int;
}

type t = {
  sim : Sim.t;
  cfg : config;
  rng : Rng.t;
  mutable endpoints : endpoint list;
  mutable next_id : int;
  rail_up : bool array;
  rail_slow : float array;  (** per-rail latency multiplier, >= 1.0 *)
  mutable crc_rate : float;
  mutable st_writes : int;
  mutable st_reads : int;
  mutable st_bytes_written : int;
  mutable st_bytes_read : int;
  mutable st_retries : int;
  mutable st_failures : int;
  mutable obs : Obs.t option;
  mutable xfer_stat : Stat.t option;
  mutable rail_probe : Probe.t option;
  mutable retry_counter : Stat.Counter.t option;
}

let create sim ?(config = default_config) () =
  if config.rails <= 0 then invalid_arg "Fabric.create: need at least one rail";
  {
    sim;
    cfg = config;
    rng = Rng.split (Sim.rng sim);
    endpoints = [];
    next_id = 0;
    rail_up = Array.make config.rails true;
    rail_slow = Array.make config.rails 1.0;
    crc_rate = config.crc_error_rate;
    st_writes = 0;
    st_reads = 0;
    st_bytes_written = 0;
    st_bytes_read = 0;
    st_retries = 0;
    st_failures = 0;
    obs = None;
    xfer_stat = None;
    rail_probe = None;
    retry_counter = None;
  }

let set_obs t obs =
  t.obs <- Some obs;
  let m = Obs.metrics obs in
  t.xfer_stat <- Some (Metrics.stat m "fabric.xfer_ns");
  Metrics.register_gauge m "fabric.rdma_writes" (fun () -> float_of_int t.st_writes);
  Metrics.register_gauge m "fabric.rdma_reads" (fun () -> float_of_int t.st_reads);
  Metrics.register_gauge m "fabric.bytes_written" (fun () ->
      float_of_int t.st_bytes_written);
  Metrics.register_gauge m "fabric.bytes_read" (fun () -> float_of_int t.st_bytes_read);
  Metrics.register_gauge m "fabric.packet_retries" (fun () -> float_of_int t.st_retries);
  Metrics.register_gauge m "fabric.failures" (fun () -> float_of_int t.st_failures);
  (* In-flight RDMA operations across the whole fabric; busy time is the
     initiator-observed duration, so an aggregate util above 1.0 means
     concurrent transfers. *)
  let p = Metrics.probe m "fabric.rail" in
  Probe.set_clock p (fun () -> Sim.now t.sim);
  t.rail_probe <- Some p;
  t.retry_counter <- Some (Metrics.counter m "fabric.retries")

let set_endpoint_probe ep p = ep.ep_probe <- Some p

let start_span t ?parent name ~bytes =
  match t.obs with
  | None -> Span.null
  | Some o ->
      let sp = Span.start (Obs.spans o) ~track:"fabric" ?parent name in
      if not (Span.is_null sp) then
        Span.annotate sp ~key:"bytes" (string_of_int bytes);
      sp

let op_begin t = match t.rail_probe with Some p -> Probe.enqueue p | None -> ()

let finish_op t sp ~t0 =
  let dt = Sim.now t.sim - t0 in
  (match t.xfer_stat with
  | Some st when Level.counters_on () -> Stat.add_span st dt
  | _ -> ());
  (match t.rail_probe with
  | Some p ->
      Probe.busy_span p dt;
      Probe.dequeue p
  | None -> ());
  match t.obs with Some o -> Span.finish (Obs.spans o) sp | None -> ()

let target_probe_begin target =
  match target.ep_probe with Some p -> Probe.enqueue p | None -> ()

let target_probe_end t target ~t0 =
  match target.ep_probe with
  | Some p ->
      Probe.busy_span p (Sim.now t.sim - t0);
      Probe.dequeue p
  | None -> ()

let config t = t.cfg

let attach t ~name ~store =
  let ep =
    {
      ep_id = t.next_id;
      ep_name = name;
      ep_store = store;
      ep_avt = Avt.create ();
      ep_alive = true;
      nic_free_at = Time.zero;
      ep_probe = None;
      ep_slow = 1.0;
      ep_jitter = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.endpoints <- ep :: t.endpoints;
  ep

let id ep = ep.ep_id

let name ep = ep.ep_name

let avt ep = ep.ep_avt

let endpoint_store ep = ep.ep_store

let find t i = List.find_opt (fun ep -> ep.ep_id = i) t.endpoints

let set_alive ep alive = ep.ep_alive <- alive

let is_alive ep = ep.ep_alive

let set_rail t rail up =
  if rail < 0 || rail >= Array.length t.rail_up then invalid_arg "Fabric.set_rail: bad rail";
  t.rail_up.(rail) <- up

let rail_is_up t rail = t.rail_up.(rail)

let set_endpoint_slow ep ~factor ~jitter =
  if factor < 1.0 then invalid_arg "Fabric.set_endpoint_slow: factor >= 1.0";
  if jitter < 0 then invalid_arg "Fabric.set_endpoint_slow: negative jitter";
  ep.ep_slow <- factor;
  ep.ep_jitter <- jitter

let clear_endpoint_slow ep =
  ep.ep_slow <- 1.0;
  ep.ep_jitter <- 0

let endpoint_slow ep = ep.ep_slow

let set_rail_slow t rail factor =
  if rail < 0 || rail >= Array.length t.rail_slow then
    invalid_arg "Fabric.set_rail_slow: bad rail";
  if factor < 1.0 then invalid_arg "Fabric.set_rail_slow: factor >= 1.0";
  t.rail_slow.(rail) <- factor

let rail_slow t rail = t.rail_slow.(rail)

let set_crc_error_rate t rate =
  if rate < 0.0 || rate >= 1.0 then invalid_arg "Fabric.set_crc_error_rate: rate in [0,1)";
  t.crc_rate <- rate

let crc_error_rate t = t.crc_rate

let pick_rail t =
  let n = Array.length t.rail_up in
  let rec go i = if i >= n then None else if t.rail_up.(i) then Some i else go (i + 1) in
  go 0

let packets_of t len = max 1 ((len + t.cfg.packet_bytes - 1) / t.cfg.packet_bytes)

let transfer_time t ~bytes =
  let packets = packets_of t bytes in
  t.cfg.sw_latency
  + (packets * t.cfg.per_packet_overhead)
  + int_of_float (float_of_int bytes /. t.cfg.bytes_per_ns)

(* Sample the number of CRC retransmissions needed for [packets] packets;
   [None] means some packet exceeded max_retries. *)
let sample_retries t packets =
  if t.crc_rate <= 0.0 then Some 0
  else
    let total = ref 0 in
    let failed = ref false in
    for _ = 1 to packets do
      let tries = ref 0 in
      while (not !failed) && Rng.bool t.rng t.crc_rate do
        incr tries;
        if !tries > t.cfg.max_retries then failed := true
      done;
      total := !total + !tries
    done;
    if !failed then None else Some !total

(* Occupy both NICs and advance simulated time for one attempt over a rail;
   returns the chosen rail, or None if no rail was up. *)
let do_transfer t src dst bytes =
  match pick_rail t with
  | None -> Error No_path
  | Some rail ->
      let sect = Prof.section_begin () in
      let start = max (Sim.now t.sim) (max src.nic_free_at dst.nic_free_at) in
      let packets = packets_of t bytes in
      Prof.bump_packets packets;
      let retries = sample_retries t packets in
      let retry_count, ok =
        match retries with Some r -> (r, true) | None -> (t.cfg.max_retries, false)
      in
      t.st_retries <- t.st_retries + retry_count;
      (match t.retry_counter with
      | Some c when Level.counters_on () -> Stat.Counter.add c retry_count
      | _ -> ());
      let duration =
        transfer_time t ~bytes
        + (retry_count * (t.cfg.per_packet_overhead + Time.ns 4096))
      in
      (* Gray-failure injection: a degraded endpoint or rail stretches
         the whole attempt, plus seeded jitter so tails are noisy rather
         than a clean multiple.  The healthy path (all factors 1.0, no
         jitter) never touches the RNG, keeping event streams stable.
         A fail-slow *far end* stretches only the completion: the
         initiator's NIC issued the op and is free to pipeline others
         (hedged reads depend on this), while a slow rail or a slow
         local NIC holds the initiator for the whole attempt. *)
      let slow_src = src.ep_slow *. t.rail_slow.(rail) in
      let slow = slow_src *. dst.ep_slow in
      let src_hold =
        if slow_src > 1.0 then int_of_float (float_of_int duration *. slow_src) else duration
      in
      let duration =
        if slow > 1.0 then int_of_float (float_of_int duration *. slow) else duration
      in
      let jmax = src.ep_jitter + dst.ep_jitter in
      let duration = if jmax > 0 then duration + Rng.uniform_span t.rng jmax else duration in
      let finish = start + duration in
      src.nic_free_at <- start + src_hold;
      dst.nic_free_at <- finish;
      (* The section ends before the wait: [Sim.wait_until] suspends, and
         a section crossing an event boundary would be discarded. *)
      Prof.section_end sect "fabric";
      Sim.wait_until finish;
      if not ok then Error Crc_failure
      else if not (rail_is_up t rail) then
        (* The rail failed mid-transfer: hardware acks never arrived. *)
        Error No_path
      else Ok rail

let rec transfer_with_failover t src dst bytes ~attempts =
  match do_transfer t src dst bytes with
  | Ok _ -> Ok ()
  | Error No_path when attempts > 0 && pick_rail t <> None ->
      (* Another rail is up: the NIC retries the operation on it. *)
      transfer_with_failover t src dst bytes ~attempts:(attempts - 1)
  | Error e -> Error e

let fail t e =
  t.st_failures <- t.st_failures + 1;
  Error e

let resolve_target t dst =
  match find t dst with
  | None -> Error Unreachable
  | Some ep -> if ep.ep_alive then Ok ep else Error Unreachable

let rdma_write ?span ?epoch t ~src ~dst ~addr ~data =
  let len = Bytes.length data in
  let t0 = Sim.now t.sim in
  let sp = start_span t ?parent:span "fabric.rdma_write" ~bytes:len in
  op_begin t;
  let result =
    match resolve_target t dst with
    | Error e -> fail t e
    | Ok target ->
        target_probe_begin target;
        let r =
          if not src.ep_alive then fail t Unreachable
          else
            match transfer_with_failover t src target len ~attempts:t.cfg.rails with
            | Error e -> fail t e
            | Ok () -> (
                let sect = Prof.section_begin () in
                (* Address validation happens in the target NIC on arrival. *)
                match
                  Avt.translate ?epoch target.ep_avt ~initiator:src.ep_id ~op:`Write
                    ~addr ~len
                with
                | Error e ->
                    Prof.section_end sect "fabric";
                    fail t (Avt_error e)
                | Ok phys ->
                    target.ep_store.write ~off:phys ~data;
                    t.st_writes <- t.st_writes + 1;
                    t.st_bytes_written <- t.st_bytes_written + len;
                    Prof.section_end sect "fabric";
                    Ok ())
        in
        target_probe_end t target ~t0;
        r
  in
  (match result with
  | Ok () -> ()
  | Error e ->
      if not (Span.is_null sp) then Span.annotate sp ~key:"error" (error_to_string e));
  finish_op t sp ~t0;
  result

let rdma_read ?span t ~src ~dst ~addr ~len =
  let t0 = Sim.now t.sim in
  let sp = start_span t ?parent:span "fabric.rdma_read" ~bytes:len in
  op_begin t;
  let result =
    match resolve_target t dst with
    | Error e -> fail t e
    | Ok target ->
        target_probe_begin target;
        let r =
          if not src.ep_alive then fail t Unreachable
          else
            match
              Avt.translate target.ep_avt ~initiator:src.ep_id ~op:`Read ~addr ~len
            with
            | Error e -> fail t (Avt_error e)
            | Ok phys -> (
                match transfer_with_failover t src target len ~attempts:t.cfg.rails with
                | Error e -> fail t e
                | Ok () ->
                    let data = target.ep_store.read ~off:phys ~len in
                    t.st_reads <- t.st_reads + 1;
                    t.st_bytes_read <- t.st_bytes_read + len;
                    Ok data)
        in
        target_probe_end t target ~t0;
        r
  in
  (match result with
  | Ok _ -> ()
  | Error e ->
      if not (Span.is_null sp) then Span.annotate sp ~key:"error" (error_to_string e));
  finish_op t sp ~t0;
  result

let stats t =
  {
    writes = t.st_writes;
    reads = t.st_reads;
    bytes_written = t.st_bytes_written;
    bytes_read = t.st_bytes_read;
    packet_retries = t.st_retries;
    failures = t.st_failures;
  }
