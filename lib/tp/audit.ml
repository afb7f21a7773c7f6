open Pm

type txn_id = int

type asn = int

type record =
  | Begin of { txn : txn_id }
  | Update of {
      txn : txn_id;
      file : int;
      partition : int;
      key : int;
      payload_len : int;
      payload_crc : int;
      before_len : int;
    }
  | Commit of { txn : txn_id }
  | Abort of { txn : txn_id }
  | Prepared of { txn : txn_id }
  | Control_point of { active : txn_id list }

let txn_of = function
  | Begin { txn } | Commit { txn } | Abort { txn } | Prepared { txn } -> Some txn
  | Update u -> Some u.txn
  | Control_point _ -> None

let magic = 0xAD17

let tag_of = function
  | Begin _ -> 1
  | Update _ -> 2
  | Commit _ -> 3
  | Abort _ -> 4
  | Control_point _ -> 5
  | Prepared _ -> 6

let encode_body record =
  let enc = Codec.Enc.create () in
  Codec.Enc.u8 enc (tag_of record);
  (match record with
  | Begin { txn } | Commit { txn } | Abort { txn } | Prepared { txn } -> Codec.Enc.u64 enc txn
  | Update { txn; file; partition; key; payload_len; payload_crc; before_len } ->
      Codec.Enc.u64 enc txn;
      Codec.Enc.u16 enc file;
      Codec.Enc.u16 enc partition;
      Codec.Enc.u64 enc key;
      Codec.Enc.u32 enc payload_len;
      Codec.Enc.u32 enc payload_crc;
      Codec.Enc.u32 enc before_len
  | Control_point { active } ->
      Codec.Enc.u32 enc (List.length active);
      List.iter (Codec.Enc.u64 enc) active);
  Codec.Enc.to_bytes enc

let payload_padding = function
  | Update { payload_len; before_len; _ } -> payload_len + before_len
  | Begin _ | Commit _ | Abort _ | Prepared _ | Control_point _ -> 0

let frame_overhead = 2 (* magic *) + 2 (* body length *) + 4 (* crc *)

(* Body bytes [encode_body] writes: a 1-byte tag, then the fields. *)
let body_size = function
  | Begin _ | Commit _ | Abort _ | Prepared _ -> 1 + 8
  | Update _ -> 1 + 8 + 2 + 2 + 8 + 4 + 4 + 4
  | Control_point { active } -> 1 + 4 + (8 * List.length active)

let wire_size record = frame_overhead + body_size record + payload_padding record

let encode enc record =
  let body = encode_body record in
  Codec.Enc.u16 enc magic;
  Codec.Enc.u16 enc (Bytes.length body);
  Codec.Enc.raw enc body;
  Codec.Enc.u32 enc (Int32.to_int (Crc32.bytes body) land 0xFFFFFFFF);
  (* Payload bytes travel with the record; the simulator carries their
     length as zero padding. *)
  Codec.Enc.pad enc (payload_padding record)

let encode_to_bytes record =
  let enc = Codec.Enc.create () in
  encode enc record;
  Codec.Enc.to_bytes enc

let decode buf ~pos =
  try
    let dec = Codec.Dec.of_sub buf ~pos ~len:(Bytes.length buf - pos) in
    let m = Codec.Dec.u16 dec in
    if m <> magic then None
    else
      let body_len = Codec.Dec.u16 dec in
      if body_len = 0 then None
      else begin
        let body_pos = Codec.Dec.pos dec in
        if body_pos + body_len + 4 > Bytes.length buf then None
        else begin
          let body = Bytes.sub buf body_pos body_len in
          let bdec = Codec.Dec.of_bytes body in
          let crc_pos = body_pos + body_len in
          let cdec = Codec.Dec.of_sub buf ~pos:crc_pos ~len:4 in
          let crc = Codec.Dec.u32 cdec in
          if Int32.to_int (Crc32.bytes body) land 0xFFFFFFFF <> crc then None
          else
            let record =
              match Codec.Dec.u8 bdec with
              | 1 -> Some (Begin { txn = Codec.Dec.u64 bdec })
              | 2 ->
                  let txn = Codec.Dec.u64 bdec in
                  let file = Codec.Dec.u16 bdec in
                  let partition = Codec.Dec.u16 bdec in
                  let key = Codec.Dec.u64 bdec in
                  let payload_len = Codec.Dec.u32 bdec in
                  let payload_crc = Codec.Dec.u32 bdec in
                  let before_len = Codec.Dec.u32 bdec in
                  Some (Update { txn; file; partition; key; payload_len; payload_crc; before_len })
              | 3 -> Some (Commit { txn = Codec.Dec.u64 bdec })
              | 4 -> Some (Abort { txn = Codec.Dec.u64 bdec })
              | 5 ->
                  let n = Codec.Dec.u32 bdec in
                  Some (Control_point { active = List.init n (fun _ -> Codec.Dec.u64 bdec) })
              | 6 -> Some (Prepared { txn = Codec.Dec.u64 bdec })
              | _ -> None
            in
            match record with
            | None -> None
            | Some r ->
                let next = crc_pos + 4 + payload_padding r in
                if next > Bytes.length buf then None else Some (r, next)
        end
      end
  with Codec.Dec.Truncated -> None

let pp ppf = function
  | Begin { txn } -> Format.fprintf ppf "BEGIN txn=%d" txn
  | Update { txn; file; partition; key; payload_len; _ } ->
      Format.fprintf ppf "UPDATE txn=%d file=%d part=%d key=%d len=%d" txn file partition key
        payload_len
  | Commit { txn } -> Format.fprintf ppf "COMMIT txn=%d" txn
  | Abort { txn } -> Format.fprintf ppf "ABORT txn=%d" txn
  | Prepared { txn } -> Format.fprintf ppf "PREPARED txn=%d" txn
  | Control_point { active } ->
      Format.fprintf ppf "CONTROL-POINT active=[%s]"
        (String.concat ";" (List.map string_of_int active))
