(* The on-disk trace format.

   Written and read with {!Bytefmt.Bin}, the codec v2 primitives: zigzag
   LEB128 varints for every integer, length-prefixed strings, floats as
   8-byte little-endian IEEE bits, plus one tag byte per event kind. The
   decoder is total: every read is bounds-checked, varints reject overlong
   encodings, counts reject negatives, and a buffer with trailing bytes
   after the declared event count is corrupt — so any truncation or
   bit-flip of a valid trace fails to decode rather than decoding to a
   different trace.

   Layout:  magic "SDTR1" | meta count | (key, value)* | event count |
            (node, step, at, tag, fields)*                             *)

open Bytefmt.Bin

let magic = "SDTR1"

(* -------------------------------- encode ------------------------------ *)

let add_event b (e : Event.t) =
  add_varint b e.Event.node;
  add_varint b e.Event.step;
  add_float b e.Event.at;
  match e.Event.kind with
  | Event.Init -> Buffer.add_char b 'I'
  | Event.Recv { src; bytes } ->
      Buffer.add_char b 'R';
      add_varint b src;
      add_str b bytes
  | Event.Timer { id; tag } ->
      Buffer.add_char b 'T';
      add_varint b id;
      add_str b tag
  | Event.Send { dst; bytes } ->
      Buffer.add_char b 'S';
      add_varint b dst;
      add_str b bytes
  | Event.Deliver { seqno; origin; id; payload } ->
      Buffer.add_char b 'D';
      add_varint b seqno;
      add_varint b origin;
      add_varint b id;
      add_str b payload
  | Event.Checkpoint { gseq; seqno; hash } ->
      Buffer.add_char b 'C';
      add_varint b gseq;
      add_varint b seqno;
      add_varint b hash
  | Event.Crash -> Buffer.add_char b 'X'
  | Event.Restart -> Buffer.add_char b 'B'

let add_meta b (k, v) =
  add_str b k;
  add_str b v

let encode ~meta events =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_list add_meta b meta;
  add_list add_event b events;
  Buffer.contents b

(* -------------------------------- decode ------------------------------ *)

let read_event c =
  let node = read_varint c in
  let step = read_varint c in
  let at = read_float c in
  let kind =
    match read_char c with
    | 'I' -> Event.Init
    | 'R' ->
        let src = read_varint c in
        let bytes = read_str c in
        Event.Recv { src; bytes }
    | 'T' ->
        let id = read_varint c in
        let tag = read_str c in
        Event.Timer { id; tag }
    | 'S' ->
        let dst = read_varint c in
        let bytes = read_str c in
        Event.Send { dst; bytes }
    | 'D' ->
        let seqno = read_varint c in
        let origin = read_varint c in
        let id = read_varint c in
        let payload = read_str c in
        Event.Deliver { seqno; origin; id; payload }
    | 'C' ->
        let gseq = read_varint c in
        let seqno = read_varint c in
        let hash = read_varint c in
        Event.Checkpoint { gseq; seqno; hash }
    | 'X' -> Event.Crash
    | 'B' -> Event.Restart
    | ch -> bad c (Printf.sprintf "unknown event tag %C" ch)
  in
  { Event.node; step; at; kind }

let read_meta c =
  let k = read_str c in
  let v = read_str c in
  (k, v)

let decode s =
  if not (String.starts_with ~prefix:magic s) then Error "bad magic"
  else
    whole ~pos:(String.length magic) "trace"
      (fun c ->
        let meta = read_list read_meta c in
        let events = read_list read_event c in
        (meta, events))
      s

(* --------------------------------- files ------------------------------ *)

let save ~path ~meta events =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode ~meta events))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error m -> Error m
