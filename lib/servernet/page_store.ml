let page_shift = 16

let page_bytes = 1 lsl page_shift

(* An unallocated slot holds [Bytes.empty], so the table is a flat array
   of pointers with no option boxes. *)
type t = { capacity : int; table : Bytes.t array }

let create capacity =
  if capacity < 0 then invalid_arg "Page_store.create: negative capacity";
  { capacity; table = Array.make ((capacity + page_bytes - 1) lsr page_shift) Bytes.empty }

let capacity t = t.capacity

let check t name ~off ~len =
  if off < 0 || len < 0 || off > t.capacity - len then
    invalid_arg ("Page_store." ^ name ^ ": out of range")

let page_for_write t i =
  let p = t.table.(i) in
  if p != Bytes.empty then p
  else begin
    let p = Bytes.make (min page_bytes (t.capacity - (i lsl page_shift))) '\000' in
    t.table.(i) <- p;
    p
  end

(* Call [f page_index page_off buf_off n] for each page-sized piece of
   the range [off, off + len). *)
let iter_pieces ~off ~len f =
  let rec go pos =
    if pos < len then begin
      let a = off + pos in
      let page_off = a land (page_bytes - 1) in
      let n = min (len - pos) (page_bytes - page_off) in
      f (a lsr page_shift) page_off pos n;
      go (pos + n)
    end
  in
  go 0

let read t ~off ~len =
  check t "read" ~off ~len;
  let out = Bytes.create len in
  iter_pieces ~off ~len (fun i page_off pos n ->
      let p = t.table.(i) in
      if p == Bytes.empty then Bytes.fill out pos n '\000'
      else Bytes.blit p page_off out pos n);
  out

let write t ~off ~data =
  let len = Bytes.length data in
  check t "write" ~off ~len;
  iter_pieces ~off ~len (fun i page_off pos n ->
      Bytes.blit data pos (page_for_write t i) page_off n)

let get t a =
  check t "get" ~off:a ~len:1;
  let p = t.table.(a lsr page_shift) in
  if p == Bytes.empty then '\000' else Bytes.get p (a land (page_bytes - 1))

let set t a c =
  check t "set" ~off:a ~len:1;
  Bytes.set (page_for_write t (a lsr page_shift)) (a land (page_bytes - 1)) c

let clear t = Array.fill t.table 0 (Array.length t.table) Bytes.empty

let pages t = Array.fold_left (fun n p -> if p == Bytes.empty then n else n + 1) 0 t.table
