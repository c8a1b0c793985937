(* WAL record framing (codec-v2 style, self-delimiting, checksummed).

   Each record is framed as

     [4-byte BE body length] [4-byte BE CRC-32 of body] [body]

   with body = varint idx ‖ varint aux ‖ varint hash ‖ varint payload
   length ‖ payload, written and read with {!Bytefmt.Bin} (zigzag LEB128,
   so negative sentinels and full-range state hashes round-trip). [idx] is
   the record's position in the replicated total order, [aux] a
   caller-owned companion counter (ShadowDB stores the replica's
   delivered-entry count), [hash] the state fingerprint after applying
   the record, [payload] opaque bytes (this layer never interprets them,
   which keeps the dependency direction durable ← shadowdb acyclic).

   [scan] walks a raw log image and stops at the first frame that is
   short, oversized, or fails its CRC: everything before is the valid
   prefix, everything after is a torn tail for recovery to truncate.
   Because the length prefix is checked against the remaining bytes and
   the CRC covers the whole body, no proper prefix of a record is ever
   accepted (the qcheck suite proves this for every cut point). *)

open Bytefmt.Bin

type record = { idx : int; aux : int; hash : int; payload : string }

let max_body = 256 * 1024 * 1024

let read_body c =
  let idx = read_varint c in
  let aux = read_varint c in
  let hash = read_varint c in
  let payload = read_str c in
  { idx; aux; hash; payload }

let encode_record r =
  let body = Buffer.create (String.length r.payload + 24) in
  add_varint body r.idx;
  add_varint body r.aux;
  add_varint body r.hash;
  add_str body r.payload;
  let body = Buffer.contents body in
  let buf = Buffer.create (String.length body + 8) in
  Buffer.add_int32_be buf (Int32.of_int (String.length body));
  Buffer.add_int32_be buf (Int32.of_int (Crc32.string body));
  Buffer.add_string buf body;
  Buffer.contents buf

let be32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xffff_ffff

type scan_result = {
  records : record list;  (* oldest first *)
  valid_bytes : int;  (* log prefix covered by accepted records *)
  torn_bytes : int;  (* trailing bytes rejected (short/corrupt frame) *)
}

let scan s =
  let n = String.length s in
  let records = ref [] in
  let pos = ref 0 in
  let stop = ref false in
  while not !stop do
    if n - !pos < 8 then stop := true
    else begin
      let len = be32 s !pos in
      if len < 0 || len > max_body || n - !pos - 8 < len then stop := true
      else begin
        let crc_stored = be32 s (!pos + 4) in
        let crc = Crc32.update 0 s ~pos:(!pos + 8) ~len in
        if crc <> crc_stored then stop := true
        else
          let c = cur ~pos:(!pos + 8) s in
          match read_body c with
          | r when c.pos = !pos + 8 + len ->
              records := r :: !records;
              pos := c.pos
          | _ | (exception Bad _) -> stop := true
      end
    end
  done;
  { records = List.rev !records; valid_bytes = !pos; torn_bytes = n - !pos }
