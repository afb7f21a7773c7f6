open Simkit

(** Simulated ServerNet: a dual-rail, RDMA-capable system-area network.

    Endpoints attach to the fabric with a byte store and an {!Avt.t}.
    Initiators perform host-initiated RDMA read/write against a target's
    network virtual addresses; packets are CRC-protected and acknowledged
    in hardware, so a completed operation guarantees the data arrived
    intact at the remote NIC (paper §4.1).  Timing follows a simple
    serialization model: per-operation software latency, per-packet
    overhead, and payload time at link bandwidth, with the initiator and
    target NICs each busy for the transfer's duration. *)

type error =
  | Unreachable  (** target endpoint is dead or unknown *)
  | No_path  (** every rail between the endpoints is down *)
  | Avt_error of Avt.error  (** target NIC rejected the address or rights *)
  | Crc_failure  (** retries exhausted on a corrupted link *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

type config = {
  sw_latency : Time.span;
      (** one-way software+hardware latency per operation; the paper
          reports 10-20 µs for ServerNet *)
  bytes_per_ns : float;  (** link bandwidth *)
  packet_bytes : int;  (** maximum payload carried per packet *)
  per_packet_overhead : Time.span;
  crc_error_rate : float;  (** per-packet corruption probability *)
  max_retries : int;  (** per-packet retransmissions before giving up *)
  rails : int;  (** redundant fabrics; NonStop uses X and Y *)
}

val default_config : config
(** ServerNet II-class: 12 µs, 125 MB/s links, 512-byte packets, 2 rails,
    no corruption. *)

(** A device's memory as seen from its NIC.  {!byte_store} gives a plain
    RAM-backed store; the persistent-memory library wraps stores to model
    non-volatility. *)
type store = {
  size : int;
  read : off:int -> len:int -> Bytes.t;
  write : off:int -> data:Bytes.t -> unit;
}

val byte_store : int -> store
(** A store over a fresh {!Page_store}: zeros until written, with host
    memory only for the pages written. *)

type t

type endpoint

val create : Sim.t -> ?config:config -> unit -> t

val set_obs : t -> Obs.t -> unit
(** Observe the fabric: operation durations feed [fabric.xfer_ns], each
    RDMA op gets a span on track ["fabric"] (parented under the caller's
    [?span]), the cumulative counters below double as gauges
    ([fabric.rdma_writes], [fabric.bytes_written], ...), a [fabric.rail]
    probe tracks in-flight RDMA operations, and [fabric.retries] counts
    CRC retransmissions as a counter the sampler can turn into a rate. *)

val set_endpoint_probe : endpoint -> Probe.t -> unit
(** Account RDMA operations {e targeting} this endpoint (outstanding ops
    and target-observed service time) to [p] — used by NPMUs to expose
    outstanding persistent-memory operations. *)

val config : t -> config

val attach : t -> name:string -> store:store -> endpoint
(** Attach an endpoint; it starts alive, with an empty AVT. *)

val id : endpoint -> int

val name : endpoint -> string

val avt : endpoint -> Avt.t

val endpoint_store : endpoint -> store

val find : t -> int -> endpoint option

val set_alive : endpoint -> bool -> unit
(** Dead endpoints fail all RDMA directed at them with [Unreachable]. *)

val is_alive : endpoint -> bool

val set_rail : t -> int -> bool -> unit
(** Bring a rail up or down.  Operations in flight on a rail that goes
    down are retried on a surviving rail at completion time. *)

val rail_is_up : t -> int -> bool

(** {1 Gray-failure (fail-slow) injection}

    A degraded endpoint or rail answers late instead of never: every
    transfer touching it is stretched by the multiplier, plus uniform
    seeded jitter so the tail is noisy rather than a clean multiple.
    Healthy paths (factor 1.0, no jitter) never sample the RNG, so
    enabling the machinery costs nothing when unused. *)

val set_endpoint_slow : endpoint -> factor:float -> jitter:Time.span -> unit
(** Degrade an endpoint: transfers to or from it take [factor]x as long
    ([factor >= 1.0]) plus up to [jitter] extra per transfer. *)

val clear_endpoint_slow : endpoint -> unit
(** Restore full speed (factor 1.0, no jitter). *)

val endpoint_slow : endpoint -> float
(** The latency multiplier currently in force (1.0 when healthy). *)

val set_rail_slow : t -> int -> float -> unit
(** Degrade a rail: every transfer routed over it is stretched by the
    factor ([>= 1.0]; 1.0 restores full speed). *)

val rail_slow : t -> int -> float

val set_crc_error_rate : t -> float -> unit
(** Change the per-packet corruption probability at runtime — fault
    plans use this to model a noisy-link window ([Crc_noise_burst]).
    Starts at the config's [crc_error_rate].  Raises [Invalid_argument]
    outside [0, 1). *)

val crc_error_rate : t -> float
(** The corruption probability currently in force. *)

(** {1 RDMA operations}

    Both calls block the calling process for the operation's duration and
    must run in process context. *)

val rdma_write :
  ?span:Span.span ->
  ?epoch:int ->
  t ->
  src:endpoint ->
  dst:int ->
  addr:int ->
  data:Bytes.t ->
  (unit, error) result
(** [?epoch] stamps the write descriptor with the initiator's view of
    the target volume's epoch; the target AVT rejects it with
    [Avt_error Stale_epoch] if the volume has since been fenced to a
    newer epoch (takeover/resync). *)

val rdma_read :
  ?span:Span.span ->
  t ->
  src:endpoint ->
  dst:int ->
  addr:int ->
  len:int ->
  (Bytes.t, error) result

val transfer_time : t -> bytes:int -> Time.span
(** Nominal duration of a transfer of [bytes], without queueing or
    retries.  Used by the message system for datagram delivery. *)

(** {1 Statistics} *)

type stats = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
  packet_retries : int;
  failures : int;
}

val stats : t -> stats
