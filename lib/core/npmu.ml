type t = {
  npmu_name : string;
  npmu_sim : Simkit.Sim.t;
  capacity : int;
  mem : Servernet.Page_store.t;
  ep : Servernet.Fabric.endpoint;
  mutable powered : bool;
  mutable st_power_cycles : int;
  st_writes : int ref;
  st_reads : int ref;
  st_bytes_written : int ref;
  last_write : (int * int) option ref;
  mutable st_decay_events : int;
  mutable st_bits_flipped : int;
  mutable st_torn_writes : int;
  mutable st_degrade_events : int;
}

let create sim fabric ~name ~capacity =
  if capacity <= 0 then invalid_arg "Npmu.create: capacity must be positive";
  let mem = Servernet.Page_store.create capacity in
  let st_writes = ref 0 and st_reads = ref 0 and st_bytes_written = ref 0 in
  let last_write = ref None in
  let store =
    {
      Servernet.Fabric.size = capacity;
      read =
        (fun ~off ~len ->
          incr st_reads;
          Servernet.Page_store.read mem ~off ~len);
      write =
        (fun ~off ~data ->
          incr st_writes;
          st_bytes_written := !st_bytes_written + Bytes.length data;
          last_write := Some (off, Bytes.length data);
          Servernet.Page_store.write mem ~off ~data);
    }
  in
  let ep = Servernet.Fabric.attach fabric ~name ~store in
  { npmu_name = name; npmu_sim = sim; capacity; mem; ep; powered = true;
    st_power_cycles = 0; st_writes; st_reads; st_bytes_written; last_write;
    st_decay_events = 0; st_bits_flipped = 0; st_torn_writes = 0;
    st_degrade_events = 0 }

let instrument t metrics =
  let prefix = "npmu." ^ t.npmu_name in
  Simkit.Metrics.register_gauge metrics (prefix ^ ".writes") (fun () ->
      float_of_int !(t.st_writes));
  Simkit.Metrics.register_gauge metrics (prefix ^ ".reads") (fun () ->
      float_of_int !(t.st_reads));
  Simkit.Metrics.register_gauge metrics (prefix ^ ".bytes_written") (fun () ->
      float_of_int !(t.st_bytes_written));
  Simkit.Metrics.register_gauge metrics (prefix ^ ".fenced_writes") (fun () ->
      float_of_int (Servernet.Avt.fenced (Servernet.Fabric.avt t.ep)));
  Simkit.Metrics.register_gauge metrics (prefix ^ ".decay_events") (fun () ->
      float_of_int t.st_decay_events);
  Simkit.Metrics.register_gauge metrics (prefix ^ ".torn_writes") (fun () ->
      float_of_int t.st_torn_writes);
  (* Outstanding RDMA operations targeting this NPMU, accounted by the
     fabric at the target side. *)
  let p = Simkit.Metrics.probe metrics ("npmu." ^ t.npmu_name) in
  Simkit.Probe.set_clock p (fun () -> Simkit.Sim.now t.npmu_sim);
  Servernet.Fabric.set_endpoint_probe t.ep p

let writes t = !(t.st_writes)

let reads t = !(t.st_reads)

let bytes_written t = !(t.st_bytes_written)

let name t = t.npmu_name

let capacity t = t.capacity

let endpoint t = t.ep

let id t = Servernet.Fabric.id t.ep

let avt t = Servernet.Fabric.avt t.ep

let is_powered t = t.powered

let power_loss t =
  if t.powered then begin
    t.powered <- false;
    t.st_power_cycles <- t.st_power_cycles + 1;
    Servernet.Fabric.set_alive t.ep false
  end

let power_cycles t = t.st_power_cycles

let fenced_writes t = Servernet.Avt.fenced (Servernet.Fabric.avt t.ep)

let power_restore t =
  if not t.powered then begin
    t.powered <- true;
    Servernet.Fabric.set_alive t.ep true
  end

let peek t ~off ~len =
  if off < 0 || len < 0 || off + len > t.capacity then invalid_arg "Npmu.peek: out of range";
  Servernet.Page_store.read t.mem ~off ~len

let poke t ~off ~data =
  let len = Bytes.length data in
  if off < 0 || off + len > t.capacity then invalid_arg "Npmu.poke: out of range";
  Servernet.Page_store.write t.mem ~off ~data

let decay t ~off ~bits =
  if bits <= 0 then invalid_arg "Npmu.decay: bits must be positive";
  let span = (bits + 7) / 8 in
  if off < 0 || off + span > t.capacity then invalid_arg "Npmu.decay: out of range";
  for i = 0 to bits - 1 do
    let byte = off + (i / 8) and bit = i mod 8 in
    let v = Char.code (Servernet.Page_store.get t.mem byte) in
    Servernet.Page_store.set t.mem byte (Char.chr (v lxor (1 lsl bit)))
  done;
  t.st_decay_events <- t.st_decay_events + 1;
  t.st_bits_flipped <- t.st_bits_flipped + bits

let decay_events t = t.st_decay_events

let bits_flipped t = t.st_bits_flipped

let tear_last_write t =
  match !(t.last_write) with
  | None -> None
  | Some (_, len) when len < 2 -> None
  | Some (off, len) ->
      (* A power cut mid-store leaves the leading words of the last RDMA
         write intact and the trailing half garbled: the NIC pushes the
         payload in order, so the tear is always a suffix. *)
      let tear_off = off + (len / 2) in
      let tear_len = len - (len / 2) in
      for i = tear_off to tear_off + tear_len - 1 do
        let v = Char.code (Servernet.Page_store.get t.mem i) in
        Servernet.Page_store.set t.mem i (Char.chr (v lxor 0x5A))
      done;
      t.st_torn_writes <- t.st_torn_writes + 1;
      Some (tear_off, tear_len)

let torn_writes t = t.st_torn_writes

let degrade t ~factor ?(jitter = 0) () =
  Servernet.Fabric.set_endpoint_slow t.ep ~factor ~jitter;
  t.st_degrade_events <- t.st_degrade_events + 1

let restore_speed t = Servernet.Fabric.clear_endpoint_slow t.ep

let slow_factor t = Servernet.Fabric.endpoint_slow t.ep

let is_degraded t = slow_factor t > 1.0

let degrade_events t = t.st_degrade_events
