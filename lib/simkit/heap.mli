(** Binary min-heap keyed by [(time, sequence)] pairs.

    The sequence number breaks ties so that entries pushed for the same
    key pop in insertion order.  {!Sim}'s event queue must dispatch in
    exactly this order; the tests use this heap as its reference. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> key:int -> seq:int -> 'a -> unit

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum element as [(key, seq, value)]. *)

val peek_key : 'a t -> int option
(** Key of the minimum element, without removing it. *)

val pop_le : 'a t -> max:int -> (int * int * 'a) option
(** Like {!pop}, but leaves the heap untouched and returns [None] when
    the minimum key exceeds [max].  Lets a bounded event loop pop in one
    heap access instead of a peek-then-pop pair. *)
