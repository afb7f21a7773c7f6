open Simkit
open Nsk

type device = {
  dev_name : string;
  dev_id : int;
  dev_capacity : int;
  dev_avt : Servernet.Avt.t;
  dev_peek : off:int -> len:int -> Bytes.t;
  dev_poke : off:int -> data:Bytes.t -> unit;
  dev_power_cycles : unit -> int;
  dev_alive : unit -> bool;
}

let device_of_npmu npmu =
  {
    dev_name = Npmu.name npmu;
    dev_id = Npmu.id npmu;
    dev_capacity = Npmu.capacity npmu;
    dev_avt = Npmu.avt npmu;
    dev_peek = (fun ~off ~len -> Npmu.peek npmu ~off ~len);
    dev_poke = (fun ~off ~data -> Npmu.poke npmu ~off ~data);
    dev_power_cycles = (fun () -> Npmu.power_cycles npmu);
    dev_alive = (fun () -> Npmu.is_powered npmu);
  }

let device_of_pmp pmp =
  {
    dev_name = Pmp.name pmp;
    dev_id = Pmp.id pmp;
    dev_capacity = Pmp.capacity pmp;
    dev_avt = Pmp.avt pmp;
    dev_peek = (fun ~off ~len -> Pmp.peek pmp ~off ~len);
    dev_poke = (fun ~off ~data -> Pmp.poke pmp ~off ~data);
    (* A PMP's power loss is terminal; "has it ever died" is the whole
       cycle history. *)
    dev_power_cycles = (fun () -> if Pmp.is_alive pmp then 0 else 1);
    dev_alive = (fun () -> Pmp.is_alive pmp);
  }

type request =
  | Create of { rname : string; size : int; client : int }
  | Open of { rname : string; client : int }
  | Close of { rname : string; client : int }
  | Delete of { rname : string }
  | List_regions
  | Stat
  | Resync of { from_primary : bool }
  | Chunk_crc of { addr : int }

type stat_info = {
  capacity : int;
  allocated : int;
  region_count : int;
  degraded : bool;
  generation : int;
}

type response =
  | R_region of Pm_types.region_info
  | R_regions of Pm_types.region_info list
  | R_stat of stat_info
  | R_ok
  | R_resynced of { bytes : int }
  | R_chunk_crc of {
      chunk_off : int;
      chunk_len : int;
      crc : int32 option;
      quarantined : bool;
    }
  | R_error of Pm_types.error

type server = (request, response) Msgsys.server

type config = { meta_reserve : int; op_cpu_cost : Time.span; mgmt_bytes : int }

let default_config = { meta_reserve = 64 * 1024; op_cpu_cost = Time.us 10; mgmt_bytes = 128 }

type scrub_config = {
  scrub_chunk_bytes : int;
  scrub_interval : Time.span;
  scrub_recheck : Time.span;
  scrub_quarantine_after : int;
}

let default_scrub_config =
  {
    scrub_chunk_bytes = 256 * 1024;
    scrub_interval = Time.us 100;
    scrub_recheck = Time.us 50;
    scrub_quarantine_after = 3;
  }

type health_config = {
  probe_interval : Time.span;
  probe_bytes : int;
  health_slo : Time.span;
  health_alpha : float;
  demote_after : int;
  readmit_after : int;
}

let default_health_config =
  {
    probe_interval = Time.us 250;
    probe_bytes = 64;
    health_slo = Time.us 100;
    health_alpha = 0.5;
    demote_after = 2;
    readmit_after = 8;
  }

(* --- Metadata representation --- *)

type region = { rname : string; offset : int; length : int; mutable openers : int list }

type meta = { mutable generation : int; mutable epoch : int; mutable regions : region list }

let magic = 0x504D4D31 (* "PMM1" *)

let header_bytes = 4 + 8 + 4 + 4

let encode_meta meta =
  let enc = Codec.Enc.create () in
  Codec.Enc.u32 enc (List.length meta.regions);
  let encode_region r =
    Codec.Enc.str enc r.rname;
    Codec.Enc.u32 enc r.offset;
    Codec.Enc.u32 enc r.length;
    Codec.Enc.u16 enc (List.length r.openers);
    List.iter (Codec.Enc.u16 enc) r.openers
  in
  List.iter encode_region meta.regions;
  Codec.Enc.u64 enc meta.generation;
  Codec.Enc.u64 enc meta.epoch;
  Codec.Enc.to_bytes enc

let decode_meta blob =
  let dec = Codec.Dec.of_bytes blob in
  let count = Codec.Dec.u32 dec in
  let decode_region () =
    let rname = Codec.Dec.str dec in
    let offset = Codec.Dec.u32 dec in
    let length = Codec.Dec.u32 dec in
    let nopen = Codec.Dec.u16 dec in
    let openers = List.init nopen (fun _ -> Codec.Dec.u16 dec) in
    { rname; offset; length; openers }
  in
  let regions = List.init count (fun _ -> decode_region ()) in
  let generation = Codec.Dec.u64 dec in
  let epoch = Codec.Dec.u64 dec in
  { generation; epoch; regions }

(* A slot image: header (magic, generation, length, crc) then payload. *)
let slot_image meta =
  let payload = encode_meta meta in
  let hdr = Codec.Enc.create () in
  Codec.Enc.u32 hdr magic;
  Codec.Enc.u64 hdr meta.generation;
  Codec.Enc.u32 hdr (Bytes.length payload);
  Codec.Enc.u32 hdr (Int32.to_int (Crc32.bytes payload) land 0xFFFFFFFF);
  let out = Bytes.create (header_bytes + Bytes.length payload) in
  Bytes.blit (Codec.Enc.to_bytes hdr) 0 out 0 header_bytes;
  Bytes.blit payload 0 out header_bytes (Bytes.length payload);
  out

let parse_slot bytes_ =
  try
    let dec = Codec.Dec.of_bytes bytes_ in
    let m = Codec.Dec.u32 dec in
    if m <> magic then None
    else
      let generation = Codec.Dec.u64 dec in
      let len = Codec.Dec.u32 dec in
      let crc = Codec.Dec.u32 dec in
      if len > Bytes.length bytes_ - header_bytes then None
      else
        let payload = Bytes.sub bytes_ header_bytes len in
        if Int32.to_int (Crc32.bytes payload) land 0xFFFFFFFF <> crc then None
        else
          let meta = decode_meta payload in
          if meta.generation <> generation then None else Some meta
  with Codec.Dec.Truncated -> None

(* --- The manager --- *)

(* Scrubber state.  The chunk-checksum table maps the absolute device
   offset of a chunk (chunked per region, from the region base) to the
   CRC32 of the chunk's last known-good contents. *)
type scrub = {
  s_cfg : scrub_config;
  s_cpu : Cpu.t;
  s_table : (int, int32) Hashtbl.t;
  s_clean_cycles : (int, int * int) Hashtbl.t;
      (** chunk offset -> (primary, mirror) power-cycle counts when the
          entry was last marked clean.  A copy that matches the table but
          whose device has power-cycled since may have {e rolled back} to
          the blessed contents — the match no longer proves integrity, so
          arbitration must not repair the peer from it.  Deliberately not
          persisted: after a manager restart the history is unknown, and
          an absent snapshot disables arbitration (strike, never repair)
          until the next clean scan re-records it. *)
  s_strikes : (int, int) Hashtbl.t;  (** consecutive unresolvable passes *)
  s_quar : (int, int) Hashtbl.t;  (** chunk offset -> chunk length *)
  mutable s_generation : int;
  mutable s_running : bool;
  mutable s_passes : int;
  mutable s_chunks : int;  (** chunks compared, cumulative *)
  mutable s_repairs : int;
  mutable s_quarantined : int;
  s_probe : Probe.t option;
}

(* Mirror-health monitor state: tiny timed RDMA probes of both devices,
   EWMA-smoothed, driving slow-mirror demotion and re-admission. *)
type monitor = {
  m_cfg : health_config;
  m_cpu : Cpu.t;
  mutable m_running : bool;
  mutable m_probes : int;
  mutable m_prim_ewma : float;
  mutable m_mirr_ewma : float;
  mutable m_mirr_breaches : int;  (** consecutive over-budget mirror probes *)
  mutable m_mirr_healthy : int;  (** consecutive in-budget mirror probes *)
}

type t = {
  fabric : Servernet.Fabric.t;
  pmm_name : string;
  cfg : config;
  prim_dev : device;
  mirr_dev : device;
  srv : server;
  mutable pair : Bytes.t Procpair.t option;
  mutable live : meta option;
  mutable shadow : Bytes.t option;
  mutable prim_ok : bool;
  mutable mirr_ok : bool;
  mutable mgmt_initiators : int list;  (** the PMM pair's own endpoints *)
  mutable recovery_time : Time.span option;
  mutable scrub : scrub option;
  mutable mirror_active : bool;
      (** false while a persistently slow mirror is demoted: clients
          write single-copy under the degraded-durability contract *)
  mutable mirror_rebuilding : bool;
      (** a re-admitted mirror back on the write path but still being
          copied: clients write both copies, read the primary only *)
  mutable demotions : int;
  mutable readmissions : int;
  mutable monitor : monitor option;
}

let slot_offset cfg slot = slot * (cfg.meta_reserve / 2)

let format cfg prim mirr =
  let meta = { generation = 1; epoch = 1; regions = [] } in
  let image = slot_image meta in
  let write_device dev =
    dev.dev_poke ~off:(slot_offset cfg 0) ~data:image;
    dev.dev_poke ~off:(slot_offset cfg 1) ~data:image;
    (* Leave the metadata window open for management until a PMM claims
       the volume and narrows access to its own CPUs. *)
    (match
       Servernet.Avt.map dev.dev_avt ~net_base:0 ~length:cfg.meta_reserve ~phys_base:0
         ~access:(Servernet.Avt.read_write Servernet.Avt.Any_initiator)
     with
    | Ok () | Error _ -> ());
    Servernet.Avt.set_epoch dev.dev_avt meta.epoch
  in
  write_device prim;
  write_device mirr

let server t = t.srv

let config t = t.cfg

let degraded t = not (t.prim_ok && t.mirr_ok)

let last_recovery_time t = t.recovery_time

let pair_exn t =
  match t.pair with Some p -> p | None -> invalid_arg "Pmm: pair not started"

let takeovers t = Procpair.takeovers (pair_exn t)

let kill_primary t = Procpair.kill_primary (pair_exn t)

let outage_time t = Procpair.outage_time (pair_exn t)

let halt t = Procpair.halt (pair_exn t)

let live_exn t =
  match t.live with Some m -> m | None -> invalid_arg "Pmm: no live metadata"

(* Program (or reprogram) the AVT window of a region on one device.  The
   manager's own CPUs stay on the list: they need the data path for
   mirror resynchronization. *)
let program_window t dev region =
  let access =
    Servernet.Avt.read_write (Servernet.Avt.Initiators (t.mgmt_initiators @ region.openers))
  in
  match
    Servernet.Avt.map dev.dev_avt ~net_base:region.offset ~length:region.length
      ~phys_base:region.offset ~access
  with
  | Ok () -> ()
  | Error _ -> ignore (Servernet.Avt.set_access dev.dev_avt ~net_base:region.offset access)

let unmap_window dev region = ignore (Servernet.Avt.unmap dev.dev_avt ~net_base:region.offset)

(* The management path to a device: a small command exchange on the
   fabric.  We model its wire time without moving payload. *)
let mgmt_delay t = Sim.sleep (Servernet.Fabric.transfer_time t.fabric ~bytes:t.cfg.mgmt_bytes)

let current_cpu t = Procpair.primary_cpu (pair_exn t)

let src_endpoint t = Cpu.endpoint (current_cpu t)

(* Persist the table to both devices (new generation, alternating slot).
   Returns false when neither device accepted the write.  Metadata writes
   carry the table's own epoch, so a deposed primary that lost a takeover
   race is fenced off the volume like any other stale writer. *)
let persist t meta =
  meta.generation <- meta.generation + 1;
  let image = slot_image meta in
  let slot = meta.generation mod 2 in
  let addr = slot_offset t.cfg slot in
  let write_dev dev =
    match
      Servernet.Fabric.rdma_write ~epoch:meta.epoch t.fabric ~src:(src_endpoint t)
        ~dst:dev.dev_id ~addr ~data:image
    with
    | Ok () -> true
    | Error _ -> false
  in
  t.prim_ok <- write_dev t.prim_dev;
  t.mirr_ok <- write_dev t.mirr_dev;
  t.prim_ok || t.mirr_ok

let checkpoint_meta t meta =
  let blob = encode_meta meta in
  match t.pair with
  | Some pair -> Procpair.checkpoint pair ~bytes:(Bytes.length blob) blob
  | None -> ()

(* Fence the volume: advance the epoch past anything either device has
   seen, persist it durably, then arm both AVTs.  The persist happens
   {e before} the AVTs move so the metadata write itself is never fenced;
   from the set_epoch on, every write descriptor stamped with an older
   grant bounces with [Stale_epoch]. *)
let bump_epoch t meta =
  let armed =
    max
      (Servernet.Avt.epoch t.prim_dev.dev_avt)
      (Servernet.Avt.epoch t.mirr_dev.dev_avt)
  in
  meta.epoch <- max (meta.epoch + 1) (armed + 1);
  ignore (persist t meta);
  Servernet.Avt.set_epoch t.prim_dev.dev_avt meta.epoch;
  Servernet.Avt.set_epoch t.mirr_dev.dev_avt meta.epoch;
  checkpoint_meta t meta

(* Narrow the metadata windows to this PMM's CPUs. *)
let claim_metadata_windows t ~primary_cpu ~backup_cpu =
  let who =
    Servernet.Avt.Initiators [ Cpu.endpoint_id primary_cpu; Cpu.endpoint_id backup_cpu ]
  in
  let claim dev =
    ignore (Servernet.Avt.set_access dev.dev_avt ~net_base:0 (Servernet.Avt.read_write who))
  in
  claim t.prim_dev;
  claim t.mirr_dev

(* Cold-boot recovery: RDMA-read every slot of both devices and adopt the
   newest CRC-valid table. *)
let recover t =
  let started = Sim.now (Cpu.sim (current_cpu t)) in
  let read_slot dev slot =
    let addr = slot_offset t.cfg slot in
    let len = t.cfg.meta_reserve / 2 in
    match
      Servernet.Fabric.rdma_read t.fabric ~src:(src_endpoint t) ~dst:dev.dev_id ~addr ~len
    with
    | Ok data -> parse_slot data
    | Error _ -> None
  in
  let candidates =
    [
      read_slot t.prim_dev 0;
      read_slot t.prim_dev 1;
      read_slot t.mirr_dev 0;
      read_slot t.mirr_dev 1;
    ]
  in
  let best =
    List.fold_left
      (fun acc c ->
        match (acc, c) with
        | None, c -> c
        | Some a, Some b -> if b.generation > a.generation then Some b else Some a
        | Some a, None -> Some a)
      None candidates
  in
  let meta =
    match best with Some m -> m | None -> { generation = 1; epoch = 1; regions = [] }
  in
  (* Re-assert data windows (idempotent on devices that kept their AVT). *)
  let assert_windows dev = List.iter (program_window t dev) meta.regions in
  assert_windows t.prim_dev;
  assert_windows t.mirr_dev;
  t.recovery_time <- Some (Sim.now (Cpu.sim (current_cpu t)) - started);
  meta

(* --- Request handling (primary only) --- *)

let find_region meta rname = List.find_opt (fun r -> String.equal r.rname rname) meta.regions

let data_capacity t = min t.prim_dev.dev_capacity t.mirr_dev.dev_capacity - t.cfg.meta_reserve

(* First-fit allocation in [meta_reserve, capacity). *)
let allocate t meta size =
  let limit = t.cfg.meta_reserve + data_capacity t in
  let sorted = List.sort (fun a b -> compare a.offset b.offset) meta.regions in
  let rec fit cursor = function
    | [] -> if cursor + size <= limit then Some cursor else None
    | r :: rest -> if cursor + size <= r.offset then Some cursor else fit (r.offset + r.length) rest
  in
  fit t.cfg.meta_reserve sorted

let region_info t r =
  {
    Pm_types.region_name = r.rname;
    net_base = r.offset;
    length = r.length;
    primary_npmu = t.prim_dev.dev_id;
    mirror_npmu = t.mirr_dev.dev_id;
    epoch = (live_exn t).epoch;
    mirror_active = t.mirror_active;
    mirror_readable = t.mirror_active && not t.mirror_rebuilding;
  }

let epoch t = match t.live with Some m -> m.epoch | None -> 0

let apply_mutation t meta =
  if persist t meta then begin
    checkpoint_meta t meta;
    true
  end
  else begin
    (* Roll the generation back: nothing durable changed. *)
    meta.generation <- meta.generation - 1;
    false
  end

(* Copy every durable byte from one device of the pair onto the other:
   the metadata reserve plus every allocated extent, in 64 KiB RDMA
   transfers through the manager's CPU.  Shared by the Resync management
   request and the health monitor's re-admission path.  On success the
   rebuilt device gets its AVT windows back, a rebuilding mirror is
   re-admitted for reads, and the volume is fenced so clients re-open
   against the fresh pair.

   Clients keep writing both copies while the copy runs, so each chunk
   is verified: after writing it to the destination, re-read the source
   chunk and copy it again if it changed.  Clients write the primary
   before the mirror, so a write that lands on the source after the
   chunk was read either shows up in the re-read or reaches the
   destination itself after the copy did. *)
let do_resync t meta ~from_primary =
  let src_dev, dst_dev =
    if from_primary then (t.prim_dev, t.mirr_dev) else (t.mirr_dev, t.prim_dev)
  in
  let mark_dst_failed () = if from_primary then t.mirr_ok <- false else t.prim_ok <- false in
  (* A power cycle entirely inside one chunk transfer is invisible to
     the RDMA completion (the NIC only checks liveness at initiation),
     so snapshot the devices' cycle counters and compare after the
     copy: any blip means the rebuilt image cannot be trusted. *)
  let cycles () = src_dev.dev_power_cycles () + dst_dev.dev_power_cycles () in
  let cycles_before = cycles () in
  let chunk = 64 * 1024 in
  let copied = ref 0 in
  let copy_extent ~off ~len =
    let read pos n =
      Result.map_error Servernet.Fabric.error_to_string
        (Servernet.Fabric.rdma_read t.fabric ~src:(src_endpoint t) ~dst:src_dev.dev_id
           ~addr:(off + pos) ~len:n)
    in
    (* A chunk still changing after this many copies fails the resync
       rather than chasing a writer forever. *)
    let max_copies = 16 in
    let rec go pos data copies =
      let n = Bytes.length data in
      match
        Servernet.Fabric.rdma_write t.fabric ~src:(src_endpoint t) ~dst:dst_dev.dev_id
          ~addr:(off + pos) ~data
      with
      | Error e -> Error (Servernet.Fabric.error_to_string e)
      | Ok () -> (
          copied := !copied + n;
          match read pos n with
          | Error e -> Error e
          | Ok fresh when not (Bytes.equal fresh data) ->
              if copies >= max_copies then
                Error (Printf.sprintf "chunk at 0x%x kept changing" (off + pos))
              else go pos fresh (copies + 1)
          | Ok _ -> next (pos + n))
    and next pos =
      if pos >= len then Ok ()
      else
        match read pos (min chunk (len - pos)) with
        | Error e -> Error e
        | Ok data -> go pos data 1
    in
    next 0
  in
  let extents =
    (0, t.cfg.meta_reserve) :: List.map (fun r -> (r.offset, r.length)) meta.regions
  in
  let rec copy_all = function
    | [] -> Ok ()
    | (off, len) :: rest -> (
        match copy_extent ~off ~len with Ok () -> copy_all rest | Error e -> Error e)
  in
  let result =
    match copy_all extents with
    | Error e -> Error e
    | Ok () when cycles () <> cycles_before -> Error "device power-cycled during copy"
    | Ok () -> Ok ()
  in
  match result with
  | Ok () ->
      (* The rebuilt device also needs the AVT windows. *)
      List.iter (program_window t dst_dev) meta.regions;
      t.prim_ok <- true;
      t.mirr_ok <- true;
      (* A fresh copy also re-admits a demoted (persistently slow)
         mirror: full-durability mirrored writes resume at the fence. *)
      if (not t.mirror_active) || t.mirror_rebuilding then begin
        t.mirror_active <- true;
        t.mirror_rebuilding <- false;
        t.readmissions <- t.readmissions + 1
      end;
      (* A rebuilt mirror is a new incarnation of the volume: fence
         grants issued while it was degraded so clients re-open and
         resume mirrored writes against the fresh pair. *)
      bump_epoch t meta;
      Ok !copied
  | Error e ->
      (* The destination holds a half-built image: the volume stays
         degraded until a clean resync completes. *)
      mark_dst_failed ();
      Error e

(* Demote a persistently slow mirror: clients stop writing to (and
   reading from) it under the explicit degraded-durability contract.
   The epoch bump fences every outstanding grant, so clients re-open,
   see [mirror_active = false] in the refreshed region info, and switch
   to single-copy writes.  Re-admission is a resync. *)
let demote_mirror t =
  match t.live with
  | None -> false
  | Some meta ->
      if t.mirror_active then begin
        t.mirror_active <- false;
        t.demotions <- t.demotions + 1;
        bump_epoch t meta;
        true
      end
      else false

(* Re-admit a demoted mirror into a live volume.  Writers keep appending
   while the copy runs, and a chunk copied before their single-copy
   write landed would stay stale for good — so the mirror first rejoins
   the write path (the epoch bump bounces every single-copy grant and
   clients re-open writing both copies, still reading the primary only),
   then a verified copy rebuilds it.  A failed copy demotes it again. *)
let readmit_mirror t =
  match t.live with
  | Some meta when not t.mirror_active -> (
      t.mirror_active <- true;
      t.mirror_rebuilding <- true;
      bump_epoch t meta;
      match do_resync t meta ~from_primary:true with
      | Ok _ -> true
      | Error _ ->
          t.mirror_active <- false;
          t.mirror_rebuilding <- false;
          bump_epoch t meta;
          false)
  | _ -> false

let handle_request t req =
  let meta = live_exn t in
  match req with
  | Create { rname; size; client } -> (
      if size <= 0 then R_error (Pm_types.Bad_request "size must be positive")
      else if find_region meta rname <> None then R_error Pm_types.Region_exists
      else
        match allocate t meta size with
        | None -> R_error Pm_types.Out_of_space
        | Some offset ->
            let region = { rname; offset; length = size; openers = [ client ] } in
            let saved = meta.regions in
            meta.regions <- region :: meta.regions;
            if apply_mutation t meta then begin
              program_window t t.prim_dev region;
              program_window t t.mirr_dev region;
              mgmt_delay t;
              R_region (region_info t region)
            end
            else begin
              meta.regions <- saved;
              R_error Pm_types.Device_failed
            end)
  | Open { rname; client } -> (
      match find_region meta rname with
      | None -> R_error Pm_types.No_such_region
      | Some region ->
          if List.mem client region.openers then R_region (region_info t region)
          else begin
            let saved = region.openers in
            region.openers <- client :: region.openers;
            if apply_mutation t meta then begin
              program_window t t.prim_dev region;
              program_window t t.mirr_dev region;
              mgmt_delay t;
              R_region (region_info t region)
            end
            else begin
              region.openers <- saved;
              R_error Pm_types.Device_failed
            end
          end)
  | Close { rname; client } -> (
      match find_region meta rname with
      | None -> R_error Pm_types.No_such_region
      | Some region ->
          if not (List.mem client region.openers) then R_ok
          else begin
            let saved = region.openers in
            region.openers <- List.filter (fun c -> c <> client) region.openers;
            if apply_mutation t meta then begin
              program_window t t.prim_dev region;
              program_window t t.mirr_dev region;
              mgmt_delay t;
              R_ok
            end
            else begin
              region.openers <- saved;
              R_error Pm_types.Device_failed
            end
          end)
  | Delete { rname } -> (
      match find_region meta rname with
      | None -> R_error Pm_types.No_such_region
      | Some region ->
          if region.openers <> [] then R_error Pm_types.Region_busy
          else begin
            let saved = meta.regions in
            meta.regions <- List.filter (fun r -> r != region) meta.regions;
            if apply_mutation t meta then begin
              unmap_window t.prim_dev region;
              unmap_window t.mirr_dev region;
              mgmt_delay t;
              R_ok
            end
            else begin
              meta.regions <- saved;
              R_error Pm_types.Device_failed
            end
          end)
  | List_regions ->
      R_regions (List.map (region_info t) (List.sort (fun a b -> compare a.offset b.offset) meta.regions))
  | Resync { from_primary } -> (
      match do_resync t meta ~from_primary with
      | Ok bytes -> R_resynced { bytes }
      | Error e -> R_error (Pm_types.Bad_request ("resync: " ^ e)))
  | Chunk_crc { addr } -> (
      match
        List.find_opt (fun r -> addr >= r.offset && addr < r.offset + r.length) meta.regions
      with
      | None -> R_error Pm_types.No_such_region
      | Some r ->
          let chunk =
            match t.scrub with
            | Some st -> st.s_cfg.scrub_chunk_bytes
            | None -> default_scrub_config.scrub_chunk_bytes
          in
          let chunk_off = r.offset + ((addr - r.offset) / chunk * chunk) in
          let chunk_len = min chunk (r.offset + r.length - chunk_off) in
          let crc =
            match t.scrub with
            | Some st -> Hashtbl.find_opt st.s_table chunk_off
            | None -> None
          in
          let quarantined =
            match t.scrub with Some st -> Hashtbl.mem st.s_quar chunk_off | None -> false
          in
          R_chunk_crc { chunk_off; chunk_len; crc; quarantined })
  | Stat ->
      let allocated = List.fold_left (fun acc r -> acc + r.length) 0 meta.regions in
      R_stat
        {
          capacity = data_capacity t;
          allocated;
          region_count = List.length meta.regions;
          degraded = degraded t;
          generation = meta.generation;
        }

let serve t () =
  (match t.live with
  | Some _ -> ()
  | None -> (
      match t.shadow with
      | Some blob ->
          (* Takeover: the checkpoint stream already built our state.
             The promotion fences the volume — the deposed primary and
             every client granted under it must re-open before writing. *)
          let meta = decode_meta blob in
          t.live <- Some meta;
          bump_epoch t meta
      | None ->
          (* Boot/cold-boot: adopt the durable table and realign with
             whatever epoch the devices already enforce (they may be
             ahead if a previous incarnation's epoch persist was lost). *)
          let meta = recover t in
          let armed =
            max
              (Servernet.Avt.epoch t.prim_dev.dev_avt)
              (Servernet.Avt.epoch t.mirr_dev.dev_avt)
          in
          meta.epoch <- max meta.epoch armed;
          Servernet.Avt.set_epoch t.prim_dev.dev_avt meta.epoch;
          Servernet.Avt.set_epoch t.mirr_dev.dev_avt meta.epoch;
          t.live <- Some meta));
  while true do
    let req, respond = Msgsys.next_request t.srv in
    Cpu.execute (current_cpu t) t.cfg.op_cpu_cost;
    respond (handle_request t req)
  done

let start ~fabric ~name ~primary_cpu ~backup_cpu ~primary_dev ~mirror_dev
    ?(config = default_config) () =
  let srv = Msgsys.create_server fabric ~cpu:primary_cpu ~name in
  let t =
    {
      fabric;
      pmm_name = name;
      cfg = config;
      prim_dev = primary_dev;
      mirr_dev = mirror_dev;
      srv;
      pair = None;
      live = None;
      shadow = None;
      prim_ok = true;
      mirr_ok = true;
      mgmt_initiators = [ Cpu.endpoint_id primary_cpu; Cpu.endpoint_id backup_cpu ];
      recovery_time = None;
      scrub = None;
      mirror_active = true;
      mirror_rebuilding = false;
      demotions = 0;
      readmissions = 0;
      monitor = None;
    }
  in
  claim_metadata_windows t ~primary_cpu ~backup_cpu;
  let pair =
    Procpair.start ~fabric ~name ~primary:primary_cpu ~backup:backup_cpu
      ~apply:(fun blob -> t.shadow <- Some blob)
      ~serve:(fun () -> serve t ())
      ~on_takeover:(fun () ->
        (* The primary's in-memory table died with it; the promoted side
           parses its checkpointed copy when its serve loop starts. *)
        t.live <- None;
        Msgsys.move t.srv ~cpu:backup_cpu)
      ()
  in
  t.pair <- Some pair;
  t

(* --- Background scrubber --- *)

(* The chunk-checksum table lives in the back of each metadata slot: the
   region table's image occupies the front [meta_reserve/8] bytes of a
   slot, the scrub table the rest.  Both are dual-slotted,
   generation-stamped and CRC-framed, so a crash mid-persist always
   leaves a valid copy — the same discipline as the region table. *)
let scrub_slot_gap cfg = cfg.meta_reserve / 8

let scrub_magic = 0x53435242 (* "SCRB" *)

let encode_scrub st =
  let enc = Codec.Enc.create () in
  Codec.Enc.u32 enc st.s_cfg.scrub_chunk_bytes;
  let entries =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.s_table [])
  in
  Codec.Enc.u32 enc (List.length entries);
  List.iter
    (fun (addr, crc) ->
      Codec.Enc.u32 enc addr;
      Codec.Enc.u32 enc (Int32.to_int crc land 0xFFFFFFFF))
    entries;
  let quar = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.s_quar []) in
  Codec.Enc.u32 enc (List.length quar);
  List.iter
    (fun (addr, len) ->
      Codec.Enc.u32 enc addr;
      Codec.Enc.u32 enc len)
    quar;
  Codec.Enc.to_bytes enc

let scrub_image st =
  let payload = encode_scrub st in
  let hdr = Codec.Enc.create () in
  Codec.Enc.u32 hdr scrub_magic;
  Codec.Enc.u64 hdr st.s_generation;
  Codec.Enc.u32 hdr (Bytes.length payload);
  Codec.Enc.u32 hdr (Int32.to_int (Crc32.bytes payload) land 0xFFFFFFFF);
  let out = Bytes.create (header_bytes + Bytes.length payload) in
  Bytes.blit (Codec.Enc.to_bytes hdr) 0 out 0 header_bytes;
  Bytes.blit payload 0 out header_bytes (Bytes.length payload);
  out

(* Returns (generation, chunk_bytes, entries, quarantined). *)
let parse_scrub_slot bytes_ =
  try
    let dec = Codec.Dec.of_bytes bytes_ in
    let m = Codec.Dec.u32 dec in
    if m <> scrub_magic then None
    else
      let generation = Codec.Dec.u64 dec in
      let len = Codec.Dec.u32 dec in
      let crc = Codec.Dec.u32 dec in
      if len > Bytes.length bytes_ - header_bytes then None
      else
        let payload = Bytes.sub bytes_ header_bytes len in
        if Int32.to_int (Crc32.bytes payload) land 0xFFFFFFFF <> crc then None
        else
          let pd = Codec.Dec.of_bytes payload in
          let chunk_bytes = Codec.Dec.u32 pd in
          let n = Codec.Dec.u32 pd in
          let entries =
            List.init n (fun _ ->
                let addr = Codec.Dec.u32 pd in
                let c = Codec.Dec.u32 pd in
                (addr, Int32.of_int c))
          in
          let nq = Codec.Dec.u32 pd in
          let quar =
            List.init nq (fun _ ->
                let addr = Codec.Dec.u32 pd in
                let len = Codec.Dec.u32 pd in
                (addr, len))
          in
          Some (generation, chunk_bytes, entries, quar)
  with Codec.Dec.Truncated -> None

let scrub_epoch t =
  match t.live with
  | Some m -> m.epoch
  | None -> max (Servernet.Avt.epoch t.prim_dev.dev_avt) (Servernet.Avt.epoch t.mirr_dev.dev_avt)

(* Persist the table to both devices (new generation, alternating slot).
   Written {e after} a pass's repairs: a table older than the data is
   merely conservative (the stale chunk strikes toward quarantine
   instead of auto-repairing), a table newer than the data could bless a
   write that never landed. *)
let persist_scrub t st =
  st.s_generation <- st.s_generation + 1;
  let image = scrub_image st in
  let gap = scrub_slot_gap t.cfg in
  if Bytes.length image > (t.cfg.meta_reserve / 2) - gap then begin
    st.s_generation <- st.s_generation - 1;
    false
  end
  else begin
    let slot = st.s_generation mod 2 in
    let addr = slot_offset t.cfg slot + gap in
    let epoch = scrub_epoch t in
    let write dev =
      match
        Servernet.Fabric.rdma_write ~epoch t.fabric ~src:(Cpu.endpoint st.s_cpu)
          ~dst:dev.dev_id ~addr ~data:image
      with
      | Ok () -> true
      | Error _ -> false
    in
    let p = write t.prim_dev in
    let m = write t.mirr_dev in
    if p || m then true
    else begin
      st.s_generation <- st.s_generation - 1;
      false
    end
  end

let load_scrub t st =
  let gap = scrub_slot_gap t.cfg in
  let len = (t.cfg.meta_reserve / 2) - gap in
  let read_slot dev slot =
    let addr = slot_offset t.cfg slot + gap in
    match
      Servernet.Fabric.rdma_read t.fabric ~src:(Cpu.endpoint st.s_cpu) ~dst:dev.dev_id ~addr
        ~len
    with
    | Ok data -> parse_scrub_slot data
    | Error _ -> None
  in
  let candidates =
    [
      read_slot t.prim_dev 0;
      read_slot t.prim_dev 1;
      read_slot t.mirr_dev 0;
      read_slot t.mirr_dev 1;
    ]
  in
  let best =
    List.fold_left
      (fun acc c ->
        match (acc, c) with
        | None, c -> c
        | Some (ga, _, _, _), Some (gb, _, _, _) when gb > ga -> c
        | acc, _ -> acc)
      None candidates
  in
  match best with
  | Some (generation, chunk_bytes, entries, quar)
    when chunk_bytes = st.s_cfg.scrub_chunk_bytes ->
      st.s_generation <- generation;
      List.iter (fun (addr, crc) -> Hashtbl.replace st.s_table addr crc) entries;
      List.iter (fun (addr, len) -> Hashtbl.replace st.s_quar addr len) quar
  | Some (generation, _, _, _) ->
      (* Geometry changed: the stored table is useless, but keep the
         generation monotone so the next persist supersedes it. *)
      st.s_generation <- generation
  | None -> ()

(* Read one chunk in 64 KiB RDMA slices, folding the incremental CRC as
   the slices land.  [None] when the device is unreachable. *)
let scrub_read_chunk t st dev ~addr ~len =
  let buf = Bytes.create len in
  let slice = 64 * 1024 in
  let rec go pos acc =
    if pos >= len then Some (buf, Crc32.finish acc)
    else
      let n = min slice (len - pos) in
      match
        Servernet.Fabric.rdma_read t.fabric ~src:(Cpu.endpoint st.s_cpu) ~dst:dev.dev_id
          ~addr:(addr + pos) ~len:n
      with
      | Error _ -> None
      | Ok data ->
          Bytes.blit data 0 buf pos n;
          go (pos + n) (Crc32.update acc data ~pos:0 ~len:n)
  in
  go 0 Crc32.init

let scrub_strike st ~addr ~len =
  let n = (match Hashtbl.find_opt st.s_strikes addr with Some n -> n | None -> 0) + 1 in
  if n >= st.s_cfg.scrub_quarantine_after then begin
    Hashtbl.replace st.s_quar addr len;
    Hashtbl.remove st.s_table addr;
    Hashtbl.remove st.s_clean_cycles addr;
    Hashtbl.remove st.s_strikes addr;
    st.s_quarantined <- st.s_quarantined + 1
  end
  else Hashtbl.replace st.s_strikes addr n

(* Record a chunk whose copies compared equal.  The entry only feeds
   future arbitration when both devices are reachable at mark time: a
   chunk read can straddle a power-off — the first copy snapshotted just
   before the device went dark, the second just after — and blessing
   that straddled state would later let the dark device's (unchanged)
   copy win an arbitration against acked single-copy writes the survivor
   absorbed during the outage.  Strikes still reset either way: the
   copies did agree. *)
let scrub_mark_clean t st ~addr crc =
  if t.prim_dev.dev_alive () && t.mirr_dev.dev_alive () then begin
    Hashtbl.replace st.s_table addr crc;
    Hashtbl.replace st.s_clean_cycles addr
      (t.prim_dev.dev_power_cycles (), t.mirr_dev.dev_power_cycles ())
  end;
  Hashtbl.remove st.s_strikes addr

let scrub_repair t st ~dst_dev ~addr ~data ~crc ~len =
  match
    Servernet.Fabric.rdma_write ~epoch:(scrub_epoch t) t.fabric ~src:(Cpu.endpoint st.s_cpu)
      ~dst:dst_dev.dev_id ~addr ~data
  with
  | Ok () ->
      scrub_mark_clean t st ~addr crc;
      st.s_repairs <- st.s_repairs + 1
  | Error _ -> scrub_strike st ~addr ~len

(* Scan one chunk: compare the copies, and on divergence let the durable
   checksum table arbitrate which copy is truth.  A transient divergence
   (a mirrored write in flight between the two reads) is filtered by a
   settle-and-recheck; a chunk where neither copy matches the table —
   legitimate writes landed since the last clean scan, plus corruption —
   cannot be arbitrated and strikes toward quarantine. *)
let scrub_chunk t st ~addr ~len =
  match
    (scrub_read_chunk t st t.prim_dev ~addr ~len, scrub_read_chunk t st t.mirr_dev ~addr ~len)
  with
  | Some (p, cp), Some (m, _) when Bytes.equal p m ->
      st.s_chunks <- st.s_chunks + 1;
      scrub_mark_clean t st ~addr cp
  | Some _, Some _ -> (
      st.s_chunks <- st.s_chunks + 1;
      Sim.sleep st.s_cfg.scrub_recheck;
      match
        ( scrub_read_chunk t st t.prim_dev ~addr ~len,
          scrub_read_chunk t st t.mirr_dev ~addr ~len )
      with
      | Some (p, cp), Some (m, _) when Bytes.equal p m -> scrub_mark_clean t st ~addr cp
      | Some (p, cp), Some (m, cm) -> (
          (* A table match only arbitrates if the matching device has not
             power-cycled since the entry was recorded: a cycle can roll
             the chunk back to exactly the blessed contents, and repairing
             the peer from the rollback would destroy the only copy of
             writes acked since the last clean scan. *)
          let snap = Hashtbl.find_opt st.s_clean_cycles addr in
          let steady dev since =
            match since with
            | Some c -> dev.dev_power_cycles () = c
            | None -> false
          in
          match Hashtbl.find_opt st.s_table addr with
          | Some e when Int32.equal e cp && steady t.prim_dev (Option.map fst snap) ->
              scrub_repair t st ~dst_dev:t.mirr_dev ~addr ~data:p ~crc:cp ~len
          | Some e when Int32.equal e cm && steady t.mirr_dev (Option.map snd snap) ->
              scrub_repair t st ~dst_dev:t.prim_dev ~addr ~data:m ~crc:cm ~len
          | _ -> scrub_strike st ~addr ~len)
      | _ -> ())
  | _ ->
      (* One copy unreachable: nothing to compare against.  The scrubber
         resumes the chunk when the device returns. *)
      ()

let scrub_pass t st =
  match t.live with
  | None -> ()
  | Some meta ->
      let extents =
        List.sort compare (List.map (fun r -> (r.offset, r.length)) meta.regions)
      in
      List.iter
        (fun (off, len) ->
          let rec go addr =
            if addr < off + len && st.s_running then begin
              let clen = min st.s_cfg.scrub_chunk_bytes (off + len - addr) in
              if not (Hashtbl.mem st.s_quar addr) then begin
                let started = Sim.now (Cpu.sim st.s_cpu) in
                (match st.s_probe with Some p -> Probe.enqueue p | None -> ());
                scrub_chunk t st ~addr ~len:clen;
                (match st.s_probe with
                | Some p ->
                    Probe.busy_span p (Sim.now (Cpu.sim st.s_cpu) - started);
                    Probe.dequeue p
                | None -> ())
              end;
              Sim.sleep st.s_cfg.scrub_interval;
              go (addr + clen)
            end
          in
          go off)
        extents;
      st.s_passes <- st.s_passes + 1;
      ignore (persist_scrub t st)

let start_scrubber t ~cpu ?(config = default_scrub_config) ?metrics () =
  (match t.scrub with
  | Some _ -> invalid_arg "Pmm.start_scrubber: already running"
  | None -> ());
  let probe =
    Option.map
      (fun m ->
        let p = Metrics.probe m "pmm.scrub" in
        Probe.set_clock p (fun () -> Sim.now (Cpu.sim cpu));
        p)
      metrics
  in
  let st =
    {
      s_cfg = config;
      s_cpu = cpu;
      s_table = Hashtbl.create 64;
      s_clean_cycles = Hashtbl.create 64;
      s_strikes = Hashtbl.create 8;
      s_quar = Hashtbl.create 8;
      s_generation = 0;
      s_running = true;
      s_passes = 0;
      s_chunks = 0;
      s_repairs = 0;
      s_quarantined = 0;
      s_probe = probe;
    }
  in
  t.scrub <- Some st;
  (match metrics with
  | Some m ->
      Metrics.register_gauge m "pmm.scrub.regions" (fun () -> float_of_int st.s_chunks);
      Metrics.register_gauge m "pmm.scrub.repaired" (fun () -> float_of_int st.s_repairs);
      Metrics.register_gauge m "pmm.scrub.quarantined" (fun () ->
          float_of_int st.s_quarantined);
      Metrics.register_gauge m "pmm.scrub.passes" (fun () -> float_of_int st.s_passes)
  | None -> ());
  ignore
    (Cpu.spawn cpu ~name:(t.pmm_name ^ "-scrubber") (fun () ->
         (* Wait for the serve loop to adopt metadata before the first
            pass (and before loading the durable table: the epoch realign
            happens there too). *)
         while st.s_running && t.live = None do
           Sim.sleep (Time.ms 1)
         done;
         if st.s_running then load_scrub t st;
         while st.s_running do
           scrub_pass t st;
           Sim.sleep st.s_cfg.scrub_interval
         done))

let stop_scrubber t = match t.scrub with Some st -> st.s_running <- false | None -> ()

let scrub_chunks_scanned t = match t.scrub with Some st -> st.s_chunks | None -> 0

let scrub_repairs t = match t.scrub with Some st -> st.s_repairs | None -> 0

let scrub_quarantined t = match t.scrub with Some st -> st.s_quarantined | None -> 0

let scrub_passes t = match t.scrub with Some st -> st.s_passes | None -> 0

let scrub_table_entries t =
  match t.scrub with Some st -> Hashtbl.length st.s_table | None -> 0

let scrub_quarantined_chunks t =
  match t.scrub with
  | Some st -> List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.s_quar [])
  | None -> []

(* Maintenance-path full-content audit: peek-compare every allocated
   extent across the pair, in scrub-chunk geometry, skipping quarantined
   chunks.  Drills call this after recovery to prove no divergence
   survived unnoticed. *)
let divergent_chunks ?chunk_bytes t =
  let chunk =
    match (chunk_bytes, t.scrub) with
    | Some c, _ -> c
    | None, Some st -> st.s_cfg.scrub_chunk_bytes
    | None, None -> default_scrub_config.scrub_chunk_bytes
  in
  match t.live with
  | None -> []
  | Some meta ->
      let quarantined addr =
        match t.scrub with Some st -> Hashtbl.mem st.s_quar addr | None -> false
      in
      List.concat_map
        (fun r ->
          let rec go addr acc =
            if addr >= r.offset + r.length then List.rev acc
            else
              let len = min chunk (r.offset + r.length - addr) in
              let p = t.prim_dev.dev_peek ~off:addr ~len in
              let m = t.mirr_dev.dev_peek ~off:addr ~len in
              let acc =
                if (not (Bytes.equal p m)) && not (quarantined addr) then (addr, len) :: acc
                else acc
              in
              go (addr + len) acc
          in
          go r.offset [])
        (List.sort (fun a b -> compare a.offset b.offset) meta.regions)

(* --- Mirror-health monitor --- *)

(* Time one tiny RDMA read of the device's metadata window.  [None] when
   the device did not answer at all (a fail-stop, handled elsewhere —
   the monitor only tracks fail-slow). *)
let monitor_probe t m dev =
  let sim = Cpu.sim m.m_cpu in
  let t0 = Sim.now sim in
  match
    Servernet.Fabric.rdma_read t.fabric ~src:(Cpu.endpoint m.m_cpu) ~dst:dev.dev_id ~addr:0
      ~len:m.m_cfg.probe_bytes
  with
  | Ok _ -> Some (Sim.now sim - t0)
  | Error _ -> None

let monitor_ewma m prev dt =
  if prev = 0.0 then float_of_int dt
  else (m.m_cfg.health_alpha *. float_of_int dt) +. ((1.0 -. m.m_cfg.health_alpha) *. prev)

(* One monitoring round: probe both devices, update the smoothed view,
   and act on the mirror's trend — demote after [demote_after]
   consecutive over-budget probes, re-admit (via a full resync) after
   [readmit_after] consecutive in-budget probes while demoted. *)
let monitor_round t m =
  (match monitor_probe t m t.prim_dev with
  | Some dt -> m.m_prim_ewma <- monitor_ewma m m.m_prim_ewma dt
  | None -> ());
  match monitor_probe t m t.mirr_dev with
  | None -> ()
  | Some dt ->
      m.m_probes <- m.m_probes + 1;
      m.m_mirr_ewma <- monitor_ewma m m.m_mirr_ewma dt;
      let budget = float_of_int m.m_cfg.health_slo in
      if m.m_mirr_ewma > budget then begin
        m.m_mirr_breaches <- m.m_mirr_breaches + 1;
        m.m_mirr_healthy <- 0
      end
      else begin
        m.m_mirr_healthy <- m.m_mirr_healthy + 1;
        m.m_mirr_breaches <- 0
      end;
      if t.mirror_active then begin
        if m.m_mirr_breaches >= m.m_cfg.demote_after then ignore (demote_mirror t)
      end
      else if m.m_mirr_healthy >= m.m_cfg.readmit_after then
        (* A failed resync leaves the mirror demoted; the healthy
           streak keeps growing and the next round retries. *)
        ignore (readmit_mirror t)

let start_monitor t ~cpu ?(config = default_health_config) ?metrics () =
  (match t.monitor with
  | Some _ -> invalid_arg "Pmm.start_monitor: already running"
  | None -> ());
  let m =
    {
      m_cfg = config;
      m_cpu = cpu;
      m_running = true;
      m_probes = 0;
      m_prim_ewma = 0.0;
      m_mirr_ewma = 0.0;
      m_mirr_breaches = 0;
      m_mirr_healthy = 0;
    }
  in
  t.monitor <- Some m;
  (match metrics with
  | Some mx ->
      Metrics.register_gauge mx "pmm.mirror_health" (fun () ->
          if t.mirror_active then 1.0 else 0.0);
      Metrics.register_gauge mx "pmm.mirror_ewma_ns" (fun () -> m.m_mirr_ewma);
      Metrics.register_gauge mx "pmm.primary_ewma_ns" (fun () -> m.m_prim_ewma);
      Metrics.register_gauge mx "pmm.demotions" (fun () -> float_of_int t.demotions);
      Metrics.register_gauge mx "pmm.readmissions" (fun () -> float_of_int t.readmissions)
  | None -> ());
  ignore
    (Cpu.spawn cpu ~name:(t.pmm_name ^ "-monitor") (fun () ->
         (* Wait for the serve loop to adopt metadata: probes read the
            metadata window, and demotion needs a live table to fence. *)
         while m.m_running && t.live = None do
           Sim.sleep (Time.ms 1)
         done;
         while m.m_running do
           monitor_round t m;
           Sim.sleep m.m_cfg.probe_interval
         done))

let stop_monitor t = match t.monitor with Some m -> m.m_running <- false | None -> ()

let mirror_active t = t.mirror_active

let demotions t = t.demotions

let readmissions t = t.readmissions

let monitor_probes t = match t.monitor with Some m -> m.m_probes | None -> 0

let monitor_ewma_ns t ~mirror =
  match t.monitor with
  | Some m -> if mirror then m.m_mirr_ewma else m.m_prim_ewma
  | None -> 0.0
