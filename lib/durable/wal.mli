(** WAL record framing: length-prefixed, CRC-checked, self-delimiting
    records over opaque payloads ({!Bytefmt.Bin} varint body).

    [idx] is the record's position in the replicated total order, [aux]
    a caller-owned companion counter, [hash] the state fingerprint after
    applying the record. *)

type record = { idx : int; aux : int; hash : int; payload : string }

val encode_record : record -> string

type scan_result = {
  records : record list;  (** oldest first *)
  valid_bytes : int;  (** log prefix covered by accepted records *)
  torn_bytes : int;  (** trailing bytes rejected (short/corrupt frame) *)
}

val scan : string -> scan_result
(** Walk a raw log image, stopping at the first short, oversized, or
    CRC-failing frame. No proper prefix of a record is ever accepted. *)
