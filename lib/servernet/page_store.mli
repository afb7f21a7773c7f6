(** Sparse, zero-initialised device memory.

    A store of [capacity] bytes kept as a table of fixed-size pages.  A
    page is allocated on its first write; a page never written reads as
    zeros and costs one table slot.  Device simulations touch a few
    kilobytes of memories that are hundreds of megabytes long, so host
    memory follows what a run writes, not the modelled capacity.

    Offsets and bounds behave as for one [capacity]-byte [Bytes.t]:
    every access outside [\[0, capacity)] raises [Invalid_argument]. *)

type t

val page_bytes : int
(** Size of one page (64 KiB).  The last page of a store whose capacity
    is not a multiple is only as long as the capacity leaves it. *)

val create : int -> t
(** A store of the given capacity, all zeros, with no page allocated.
    Raises [Invalid_argument] on a negative capacity. *)

val capacity : t -> int

val read : t -> off:int -> len:int -> Bytes.t
(** A fresh copy of [len] bytes at [off].  Never allocates a page. *)

val write : t -> off:int -> data:Bytes.t -> unit
(** Copy [data] to [off], allocating the pages it lands on. *)

val get : t -> int -> char

val set : t -> int -> char -> unit
(** Single-byte access for fault injection (bit flips, torn stores).
    [set] allocates the page it lands on. *)

val clear : t -> unit
(** Drop every page: the whole store reads as zeros again. *)

val pages : t -> int
(** Pages currently allocated. *)
