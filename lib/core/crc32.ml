(* The table and the running CRC live in native ints: a 32-bit value
   fits unboxed in OCaml's 63-bit int, so the byte loop allocates
   nothing.  Only the [int32] interface boxes. *)
let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
         done;
         !c))

type state = int32

let init : state = 0xFFFFFFFFl

let to_int (x : int32) = Int32.to_int x land 0xFFFFFFFF

let update (st : state) buf ~pos ~len : state =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32.update: out of range";
  let table = Lazy.force table in
  let crc = ref (to_int st) in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get buf i) in
    crc := Array.unsafe_get table ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int !crc

let finish (st : state) = Int32.logxor st 0xFFFFFFFFl

let sub buf ~pos ~len = finish (update init buf ~pos ~len)

let bytes buf = sub buf ~pos:0 ~len:(Bytes.length buf)

let string s = bytes (Bytes.of_string s)
