open Simkit

(** The hot-stock benchmark (paper §4.3, Denzinger).

    Up to 4 driver processes, each representing one hotly traded stock,
    insert [records_per_driver] records of [record_bytes] into [files]
    partitioned files.  A transaction boxcars [inserts_per_txn]
    asynchronous inserts (spread round-robin over the files) and commits
    before the next iteration begins — the regulatory ordering constraint
    that makes the workload response-time-critical.  Transaction size in
    the paper's axes is [inserts_per_txn × record_bytes]: 8→32K, 16→64K,
    32→128K. *)

type params = {
  drivers : int;
  records_per_driver : int;
  record_bytes : int;
  inserts_per_txn : int;
}

val paper_params : drivers:int -> inserts_per_txn:int -> params
(** 32 000 records of 4 KB, as §4.3 specifies. *)

val scaled_params : drivers:int -> inserts_per_txn:int -> records_per_driver:int -> params
(** Same shape, fewer records — for tests and quick runs. *)

type result = {
  elapsed : Time.span;  (** first driver start to last commit (Figure 2's axis) *)
  txns : int;
  committed : int;
  response : Stat.summary;  (** per-transaction response times (Figure 1's input) *)
  throughput_tps : float;
  audit_bytes : int;
  checkpoint_bytes : int;
}

val run : Tp.System.t -> params -> result
(** Drive the benchmark to completion.  Process context only; drivers run
    on worker CPUs round-robin. *)

val txn_size_label : params -> string
(** "32k" / "64k" / "128k" as the paper labels its x-axis. *)

(** {1 Open-loop variant}

    {!run} is closed-loop: each driver waits for its commit before the
    next transaction, so offered load self-limits to service capacity
    and overload is unobservable.  {!run_open} instead dispatches
    transactions on an {!Simkit.Arrival} schedule — arrivals do not wait for
    earlier transactions, so in-flight work is unbounded unless the
    system's admission control bounds it. *)

type open_result = {
  o_arrivals : int;
  o_committed : int;
  o_rejected : int;
      (** begins refused by admission control or client breakers —
          back-pressure, not failures: nothing was acknowledged *)
  o_failed : int;  (** transactions that began but did not commit *)
  o_elapsed : Time.span;  (** first arrival to last straggler *)
  o_response : Stat.summary;  (** per-committed-transaction latency *)
  o_goodput_tps : float;  (** committed transactions per elapsed second *)
}

val run_open :
  ?sessions:int ->
  Tp.System.t ->
  Simkit.Arrival.schedule ->
  record_bytes:int ->
  inserts_per_txn:int ->
  open_result
(** Drive the schedule to completion and drain stragglers.  Each arrival
    runs one transaction over a session pool ([sessions] defaults to one
    per worker CPU).  Process context only. *)
