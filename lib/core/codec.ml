module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  let u64 t v =
    u32 t v;
    u32 t (v lsr 32)

  let str t s =
    let n = String.length s in
    if n > 0xFFFF then invalid_arg "Codec.Enc.str: too long";
    u16 t n;
    Buffer.add_string t s

  let blob t b =
    u32 t (Bytes.length b);
    Buffer.add_bytes t b

  let raw t b = Buffer.add_bytes t b

  let zeros = String.make 4096 '\000'

  let rec pad t n =
    if n > 0 then begin
      let k = min n (String.length zeros) in
      Buffer.add_substring t zeros 0 k;
      pad t (n - k)
    end

  let length t = Buffer.length t

  let to_bytes t = Buffer.to_bytes t
end

module Dec = struct
  type t = { buf : Bytes.t; limit : int; mutable cursor : int }

  exception Truncated

  let of_sub buf ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then raise Truncated;
    { buf; limit = pos + len; cursor = pos }

  let of_bytes buf = of_sub buf ~pos:0 ~len:(Bytes.length buf)

  let need t n = if t.cursor + n > t.limit then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.buf t.cursor) in
    t.cursor <- t.cursor + 1;
    v

  let u16 t =
    let lo = u8 t in
    let hi = u8 t in
    lo lor (hi lsl 8)

  let u32 t =
    let lo = u16 t in
    let hi = u16 t in
    lo lor (hi lsl 16)

  let u64 t =
    let lo = u32 t in
    let hi = u32 t in
    lo lor (hi lsl 32)

  let str t =
    let n = u16 t in
    need t n;
    let s = Bytes.sub_string t.buf t.cursor n in
    t.cursor <- t.cursor + n;
    s

  let blob t =
    let n = u32 t in
    need t n;
    let b = Bytes.sub t.buf t.cursor n in
    t.cursor <- t.cursor + n;
    b

  let remaining t = t.limit - t.cursor

  let pos t = t.cursor
end
