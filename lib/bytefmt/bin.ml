(* The one binary format every byte ShadowDB writes is built from: wire
   messages (Shadowdb.Codec), WAL records (Durable.Wal) and conformance
   traces (Conform.Trace_file).

   Encoding appends to a single [Buffer] threaded through every encoder:
   no intermediate per-field strings. Decoding walks a cursor (immutable
   string + mutable position): no per-field tail copies, so decoding a
   batch is O(bytes), not O(bytes²).

   Primitives:
   - ints: zigzag-mapped LEB128 varints (1 byte for small magnitudes,
     self-delimiting, so any truncation mid-int is detected);
   - strings: varint byte-length followed by the raw bytes;
   - floats: 8-byte little-endian IEEE 754 bit patterns (exact);
   - lists: varint count followed by the elements.

   Every read is bounds-checked against the bytes that remain, never by
   adding a decoded length to the position (a hostile length near
   [max_int] would overflow that sum). A failed read raises [Bad] with
   the byte offset; [whole] and [streaming] turn it into [Error]. *)

exception Bad of { pos : int; msg : string }

type cur = { s : string; mutable pos : int }

let cur ?(pos = 0) s = { s; pos }
let remaining c = String.length c.s - c.pos
let bad c msg = raise (Bad { pos = c.pos; msg })

let read_char c =
  if c.pos >= String.length c.s then bad c "truncated input"
  else begin
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    ch
  end

(* Zigzag folds the sign into the low bit so small negative ints stay
   short; [asr 62] is the sign fill of OCaml's 63-bit native int. *)
let add_varint buf n =
  let u = ref ((n lsl 1) lxor (n asr 62)) in
  while !u lsr 7 <> 0 do
    Buffer.add_char buf (Char.chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7
  done;
  Buffer.add_char buf (Char.chr !u)

let read_varint c =
  let acc = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    if !shift >= 63 then bad c "varint too long";
    let b = Char.code (read_char c) in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then cont := false
  done;
  (!acc lsr 1) lxor - (!acc land 1)

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let read_str c =
  let len = read_varint c in
  if len < 0 then bad c "negative string length";
  if remaining c < len then bad c "truncated string";
  let s = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  s

let add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let read_float c =
  if remaining c < 8 then bad c "truncated float";
  let bits = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits bits

let add_list add buf l =
  add_varint buf (List.length l);
  List.iter (add buf) l

let read_list read c =
  let n = read_varint c in
  if n < 0 then bad c "negative list length";
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      let v = read c in
      go (n - 1) (v :: acc)
  in
  go n []

let message pos msg = Printf.sprintf "%s at byte %d" msg pos

let whole ?pos name read s =
  let c = cur ?pos s in
  try
    let v = read c in
    if remaining c <> 0 then bad c ("trailing bytes after " ^ name);
    Ok v
  with Bad { pos; msg } -> Error (message pos msg)

let streaming ?pos read s =
  let c = cur ?pos s in
  try
    let v = read c in
    Ok (v, String.sub c.s c.pos (remaining c))
  with Bad { pos; msg } -> Error (message pos msg)
