(** Deterministic discrete-event simulation with green processes.

    A simulation owns a virtual clock and an event queue.  Code runs
    either as plain scheduled callbacks ({!at}) or as {e processes}:
    OCaml-5 effect-based fibers that can block ({!sleep}, {!suspend},
    {!Mailbox.recv}, {!Ivar.read}) without tying up the host thread.
    Events at equal timestamps fire in scheduling order, so a run is a
    pure function of its inputs and seed. *)

type t

type pid = private int
(** Process identifier, unique within one simulation. *)

type exit_reason =
  | Normal  (** the process body returned *)
  | Killed  (** {!kill} was called, e.g. by fault injection *)
  | Crashed of exn  (** the body raised *)

val create : ?seed:int64 -> ?on_crash:[ `Raise | `Record ] -> unit -> t
(** Fresh simulation at time 0.  [on_crash] selects whether an uncaught
    exception in a process aborts the run (default) or is only recorded
    (see {!crashed}). *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The simulation's root PRNG.  Subsystems should {!Rng.split} it. *)

val at : t -> after:Time.span -> (unit -> unit) -> unit
(** Schedule a plain callback [after] nanoseconds from now.  The callback
    must not block; use {!spawn} for blocking code. *)

val at_time : t -> time:Time.t -> (unit -> unit) -> unit

val at_time_cancel : t -> time:Time.t -> (unit -> unit) -> unit -> unit
(** Like {!at_time}, but returns a cancel thunk.  Cancelling an event
    that already fired (or was already cancelled) is a no-op.  A future
    event is removed from the queue at once, in O(log n); an event due at
    the current instant is only marked and is dropped when the loop
    reaches it within that instant.  So heavy timeout use cannot bloat
    the event queue.  This is the primitive under {!Ivar.read_timeout}
    and {!Mailbox.recv_timeout}. *)

(** {1 Processes} *)

val spawn : t -> name:string -> (unit -> unit) -> pid
(** Start a process.  Its body begins at the current simulated time, after
    already-queued events for this instant. *)

val kill : t -> pid -> unit
(** Terminate a process.  Exit hooks run immediately with {!Killed}; if
    the victim is parked on a suspension its resumption is dropped.
    Killing a dead process is a no-op. *)

val on_exit : t -> pid -> (exit_reason -> unit) -> unit
(** Register a hook called when the process terminates for any reason.
    If it is already dead the hook runs immediately with its reason. *)

val is_alive : t -> pid -> bool

val process_name : t -> pid -> string

val crashed : t -> (pid * string * exn) list
(** Processes that died from uncaught exceptions (only populated with
    [~on_crash:`Record]). *)

(** {1 Running} *)

val run : ?until:Time.t -> t -> unit
(** Execute events until the queue drains, [until] is reached, or
    {!stop}.  Returns with [now t] at the last executed event (or at
    [until]).  Blocked processes do not keep the run alive. *)

val stop : t -> unit
(** Make {!run} return after the current event. *)

val live_processes : t -> int

val queue_depth : t -> int
(** Number of live (non-cancelled) pending events in the queue. *)

val heap_size : t -> int
(** Physical size of the event queue: every queued entry, including
    cancelled same-instant entries the loop has not reached yet — for
    diagnostics and regression tests. *)

(** {1 Dispatch hooks}

    A profiler (see {!Prof}) can observe every event the loop executes.
    [before] receives the queue depth after the event was popped;
    [after] runs once the thunk returns (to completion or suspension —
    with effect-based processes every blocking operation returns control
    to the loop, so the pair brackets exactly one execution slice).
    At most one hook pair is installed; installing replaces the previous
    one.  The unhooked loop pays a single mutable-field check. *)

val set_dispatch_hooks : t -> before:(int -> unit) -> after:(unit -> unit) -> unit

val clear_dispatch_hooks : t -> unit

(** {1 Inside a process}

    These operations perform effects and must be called from process
    context (inside a {!spawn}ed body), otherwise they raise
    [Not_in_process]. *)

exception Not_in_process

val self : unit -> pid

val current : unit -> t
(** The simulation the calling process belongs to. *)

val sleep : Time.span -> unit

val wait_until : Time.t -> unit
(** Sleep until an absolute time (no-op if already past). *)

val yield : unit -> unit
(** Let other events scheduled for this instant run first. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process and calls
    [register waker].  Calling [waker] (once; later calls are ignored)
    schedules the process to resume at the then-current simulated time.
    This is the primitive under mailboxes, I/O completions and timers. *)
