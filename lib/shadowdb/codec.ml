module Value = Storage.Value

(* v2 wire format (binary).

   Encoding appends to a single [Buffer] threaded through every encoder:
   no intermediate per-field strings. Decoding walks a cursor (immutable
   string + mutable position): no per-field tail copies, so decoding a
   batch is O(bytes), not O(bytes²).

   Primitives:
   - ints: zigzag-mapped LEB128 varints (1 byte for small magnitudes,
     self-delimiting, so any truncation mid-int is detected);
   - strings: varint byte-length followed by the raw bytes;
   - floats: 8-byte little-endian IEEE 754 bit patterns (exact);
   - constructors: one ASCII tag byte, kept from v1 for debuggability.

   Decode errors are a private exception caught at the public API
   boundary, where the remaining input is either returned (streaming
   decoders) or required to be empty (whole-buffer decoders). *)

exception Bad of string

let bad msg = raise (Bad msg)

type cur = { s : string; mutable pos : int }

let cur s = { s; pos = 0 }
let remaining c = String.length c.s - c.pos
let rest_of c = String.sub c.s c.pos (remaining c)

let read_char c =
  if c.pos >= String.length c.s then bad "truncated input"
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
    if !shift >= 63 then bad "varint too long";
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
  if len < 0 then bad "negative string length";
  if remaining c < len then bad "truncated string";
  let s = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  s

let add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let read_float c =
  if remaining c < 8 then bad "truncated float";
  let bits = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits bits

let add_list add buf l =
  add_varint buf (List.length l);
  List.iter (add buf) l

let read_list read c =
  let n = read_varint c in
  if n < 0 then bad "negative list length";
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      let v = read c in
      go (n - 1) (v :: acc)
  in
  go n []

(* Wraps a cursor reader into a whole-buffer decoder: all bytes must be
   consumed, errors become [Error _]. *)
let whole name read s =
  try
    let c = cur s in
    let v = read c in
    if remaining c <> 0 then bad ("trailing bytes after " ^ name);
    Ok v
  with Bad e -> Error e

(* Wraps a cursor reader into a streaming decoder returning the unread
   tail. *)
let streaming read s =
  try
    let c = cur s in
    let v = read c in
    Ok (v, rest_of c)
  with Bad e -> Error e

(* ------------------------------------------------------------------ *)
(* Values, transactions, configurations                                *)
(* ------------------------------------------------------------------ *)

let add_value buf = function
  | Value.Null -> Buffer.add_char buf 'N'
  | Value.Bool true -> Buffer.add_char buf 'T'
  | Value.Bool false -> Buffer.add_char buf 'U'
  | Value.Int i ->
      Buffer.add_char buf 'I';
      add_varint buf i
  | Value.Float f ->
      Buffer.add_char buf 'F';
      add_float buf f
  | Value.Text s ->
      Buffer.add_char buf 'S';
      add_str buf s

let read_value c =
  match read_char c with
  | 'N' -> Value.Null
  | 'T' -> Value.Bool true
  | 'U' -> Value.Bool false
  | 'I' -> Value.Int (read_varint c)
  | 'F' -> Value.Float (read_float c)
  | 'S' -> Value.Text (read_str c)
  | ch -> bad (Printf.sprintf "bad value tag %C" ch)

let encode_value v =
  let buf = Buffer.create 16 in
  add_value buf v;
  Buffer.contents buf

let decode_value s = streaming read_value s

let add_txn buf (t : Txn.t) =
  add_varint buf t.Txn.client;
  add_varint buf t.Txn.seq;
  add_str buf t.Txn.kind;
  add_list add_value buf t.Txn.params

let read_txn c =
  let client = read_varint c in
  let seq = read_varint c in
  let kind = read_str c in
  let params = read_list read_value c in
  { Txn.client; seq; kind; params }

let encode_txn t =
  let buf = Buffer.create 64 in
  add_txn buf t;
  Buffer.contents buf

let decode_txn s = whole "txn" read_txn s

let add_config buf (cf : Config.t) =
  add_varint buf cf.Config.seq;
  add_list add_varint buf cf.Config.members

let read_config c =
  let seq = read_varint c in
  let members = read_list read_varint c in
  { Config.seq; members }

let encode_config cf =
  let buf = Buffer.create 16 in
  add_config buf cf;
  Buffer.contents buf

let decode_config s = whole "config" read_config s

let encode_reconfig cf ~last_seq ~proposer =
  let buf = Buffer.create 32 in
  add_varint buf last_seq;
  add_varint buf proposer;
  add_config buf cf;
  Buffer.contents buf

let decode_reconfig s =
  whole "reconfig"
    (fun c ->
      let last_seq = read_varint c in
      let proposer = read_varint c in
      let cf = read_config c in
      (cf, last_seq, proposer))
    s

(* ------------------------------------------------------------------ *)
(* Socket-runtime wire codecs                                          *)
(*                                                                     *)
(* Once a ShadowDB node runs behind a real socket, every message the   *)
(* simulator used to pass by reference has to cross the wire: TOB      *)
(* entries and delivery notifications, the Paxos core's protocol       *)
(* messages (carrying entry batches), and the database replication     *)
(* traffic of Db_msg. Every decoder rejects truncated buffers.         *)
(* ------------------------------------------------------------------ *)

let add_entry buf (e : Broadcast.Tob.entry) =
  add_varint buf e.Broadcast.Tob.origin;
  add_varint buf e.Broadcast.Tob.id;
  add_str buf e.Broadcast.Tob.payload

let read_entry c =
  let origin = read_varint c in
  let id = read_varint c in
  let payload = read_str c in
  { Broadcast.Tob.origin; id; payload }

let encode_entry e =
  let buf = Buffer.create 32 in
  add_entry buf e;
  Buffer.contents buf

let decode_entry s = streaming read_entry s

let add_batch buf (b : Broadcast.Tob.batch) = add_list add_entry buf b
let read_batch c = read_list read_entry c

let encode_batch b =
  let buf = Buffer.create 64 in
  add_batch buf b;
  Buffer.contents buf

let decode_batch s = streaming read_batch s
let decode_batch_all s = whole "batch" read_batch s

let encode_deliver (d : Broadcast.Tob.deliver) =
  let buf = Buffer.create 32 in
  add_varint buf d.Broadcast.Tob.seqno;
  add_entry buf d.Broadcast.Tob.entry;
  Buffer.contents buf

let decode_deliver s =
  whole "deliver"
    (fun c ->
      let seqno = read_varint c in
      let entry = read_entry c in
      { Broadcast.Tob.seqno; entry })
    s

module PM = Consensus.Paxos_msg

let add_ballot buf (b : PM.ballot) =
  add_varint buf b.PM.round;
  add_varint buf b.PM.leader

let read_ballot c =
  let round = read_varint c in
  let leader = read_varint c in
  { PM.round; leader }

(* The command writer/reader is abstract so the core instantiation can
   inline batches straight into the shared buffer, while the generic
   string-codec interface wraps commands in a length-prefixed blob. *)
let add_pvalue add_c buf (pv : 'c PM.pvalue) =
  add_ballot buf pv.PM.b;
  add_varint buf pv.PM.s;
  add_c buf pv.PM.c

let read_pvalue read_c c =
  let b = read_ballot c in
  let slot = read_varint c in
  let cmd = read_c c in
  { PM.b; s = slot; c = cmd }

let add_paxos add_c buf (m : 'c PM.t) =
  match m with
  | PM.P1a { src; b } ->
      Buffer.add_char buf 'A';
      add_varint buf src;
      add_ballot buf b
  | PM.P1b { src; b; accepted } ->
      Buffer.add_char buf 'B';
      add_varint buf src;
      add_ballot buf b;
      add_list (add_pvalue add_c) buf accepted
  | PM.P2a { src; pv } ->
      Buffer.add_char buf 'C';
      add_varint buf src;
      add_pvalue add_c buf pv
  | PM.P2b { src; b; s } ->
      Buffer.add_char buf 'D';
      add_varint buf src;
      add_ballot buf b;
      add_varint buf s
  | PM.Propose { s; c } ->
      Buffer.add_char buf 'P';
      add_varint buf s;
      add_c buf c
  | PM.Decision { s; c } ->
      Buffer.add_char buf 'E';
      add_varint buf s;
      add_c buf c

let read_paxos read_c c =
  match read_char c with
  | 'A' ->
      let src = read_varint c in
      let b = read_ballot c in
      PM.P1a { src; b }
  | 'B' ->
      let src = read_varint c in
      let b = read_ballot c in
      let accepted = read_list (read_pvalue read_c) c in
      PM.P1b { src; b; accepted }
  | 'C' ->
      let src = read_varint c in
      let pv = read_pvalue read_c c in
      PM.P2a { src; pv }
  | 'D' ->
      let src = read_varint c in
      let b = read_ballot c in
      let slot = read_varint c in
      PM.P2b { src; b; s = slot }
  | 'P' ->
      let slot = read_varint c in
      let cmd = read_c c in
      PM.Propose { s = slot; c = cmd }
  | 'E' ->
      let slot = read_varint c in
      let cmd = read_c c in
      PM.Decision { s = slot; c = cmd }
  | ch -> bad (Printf.sprintf "bad paxos tag %C" ch)

let encode_paxos enc_c m =
  let buf = Buffer.create 64 in
  add_paxos (fun buf cmd -> add_str buf (enc_c cmd)) buf m;
  Buffer.contents buf

let decode_paxos dec_c s =
  whole "paxos message"
    (read_paxos (fun c ->
         match dec_c (read_str c) with Ok v -> v | Error e -> bad e))
    s

let encode_core_paxos (m : Broadcast.Tob.batch PM.t) =
  let buf = Buffer.create 64 in
  add_paxos add_batch buf m;
  Buffer.contents buf

let decode_core_paxos s = whole "paxos message" (read_paxos read_batch) s

(* Database replication messages. *)

let add_varray buf (a : Value.t array) =
  add_varint buf (Array.length a);
  Array.iter (add_value buf) a

let read_varray c =
  let n = read_varint c in
  if n < 0 then bad "negative array length";
  Array.init n (fun _ -> read_value c)

let add_row buf ((key, a) : string * Value.t array) =
  add_str buf key;
  add_varray buf a

let read_row c =
  let key = read_str c in
  let a = read_varray c in
  (key, a)

let add_reply buf (r : Txn.reply) =
  add_varint buf r.Txn.client;
  add_varint buf r.Txn.seq;
  match r.Txn.outcome with
  | Ok rows ->
      Buffer.add_char buf 'O';
      add_list add_varray buf rows
  | Error e ->
      Buffer.add_char buf 'X';
      add_str buf e

let read_reply c =
  let client = read_varint c in
  let seq = read_varint c in
  match read_char c with
  | 'O' ->
      let rows = read_list read_varray c in
      { Txn.client; seq; outcome = Ok rows }
  | 'X' ->
      let e = read_str c in
      { Txn.client; seq; outcome = Error e }
  | ch -> bad (Printf.sprintf "bad reply tag %C" ch)

let add_catchup_item buf ((g, t) : int * Txn.t) =
  add_varint buf g;
  add_txn buf t

let read_catchup_item c =
  let g = read_varint c in
  let t = read_txn c in
  (g, t)

let add_db_msg buf (m : Db_msg.t) =
  match m with
  | Db_msg.Client_txn t ->
      Buffer.add_char buf 'C';
      add_txn buf t
  | Db_msg.Forward { cfg; gseq; txn } ->
      Buffer.add_char buf 'F';
      add_varint buf cfg;
      add_varint buf gseq;
      add_txn buf txn
  | Db_msg.Ack { cfg; gseq } ->
      Buffer.add_char buf 'A';
      add_varint buf cfg;
      add_varint buf gseq
  | Db_msg.Reply r ->
      Buffer.add_char buf 'R';
      add_reply buf r
  | Db_msg.Heartbeat { cfg } ->
      Buffer.add_char buf 'H';
      add_varint buf cfg
  | Db_msg.Elect { cfg; last_seq } ->
      Buffer.add_char buf 'E';
      add_varint buf cfg;
      add_varint buf last_seq
  | Db_msg.Catchup { cfg; txns; upto } ->
      Buffer.add_char buf 'U';
      add_varint buf cfg;
      add_varint buf upto;
      add_list add_catchup_item buf txns
  | Db_msg.Snapshot { cfg; rows; upto; last; clients } ->
      Buffer.add_char buf 'S';
      add_varint buf cfg;
      add_varint buf upto;
      Buffer.add_char buf (if last then '\001' else '\000');
      add_list add_row buf rows;
      add_list add_reply buf clients
  | Db_msg.Recovered { cfg } ->
      Buffer.add_char buf 'V';
      add_varint buf cfg
  | Db_msg.Snapshot_req { cfg; from_seq } ->
      Buffer.add_char buf 'Q';
      add_varint buf cfg;
      add_varint buf from_seq
  | Db_msg.Vote { shard; participants; vote; vtxn } ->
      Buffer.add_char buf 'T';
      add_varint buf shard;
      add_list add_varint buf participants;
      add_reply buf vote;
      add_txn buf vtxn

let read_db_msg c =
  match read_char c with
  | 'C' ->
      let t = read_txn c in
      Db_msg.Client_txn t
  | 'F' ->
      let cfg = read_varint c in
      let gseq = read_varint c in
      let txn = read_txn c in
      Db_msg.Forward { cfg; gseq; txn }
  | 'A' ->
      let cfg = read_varint c in
      let gseq = read_varint c in
      Db_msg.Ack { cfg; gseq }
  | 'R' ->
      let r = read_reply c in
      Db_msg.Reply r
  | 'H' ->
      let cfg = read_varint c in
      Db_msg.Heartbeat { cfg }
  | 'E' ->
      let cfg = read_varint c in
      let last_seq = read_varint c in
      Db_msg.Elect { cfg; last_seq }
  | 'U' ->
      let cfg = read_varint c in
      let upto = read_varint c in
      let txns = read_list read_catchup_item c in
      Db_msg.Catchup { cfg; txns; upto }
  | 'S' ->
      let cfg = read_varint c in
      let upto = read_varint c in
      let last = read_char c <> '\000' in
      let rows = read_list read_row c in
      let clients = read_list read_reply c in
      Db_msg.Snapshot { cfg; rows; upto; last; clients }
  | 'V' ->
      let cfg = read_varint c in
      Db_msg.Recovered { cfg }
  | 'Q' ->
      let cfg = read_varint c in
      let from_seq = read_varint c in
      Db_msg.Snapshot_req { cfg; from_seq }
  | 'T' ->
      let shard = read_varint c in
      let participants = read_list read_varint c in
      let vote = read_reply c in
      let vtxn = read_txn c in
      Db_msg.Vote { shard; participants; vote; vtxn }
  | ch -> bad (Printf.sprintf "bad db message tag %C" ch)

let encode_db_msg m =
  let buf = Buffer.create 64 in
  add_db_msg buf m;
  Buffer.contents buf

let decode_db_msg s = whole "db message" read_db_msg s

(* Sharded 2PC broadcast payloads. These travel inside each participant
   shard's own TOB stream (payload tags 'P' / 'D' at the System layer),
   so they are encoded bare here and framed by the caller. *)

let encode_prepare ~coord ~shard ~participants ~ptxn =
  let buf = Buffer.create 64 in
  add_varint buf coord;
  add_varint buf shard;
  add_list add_varint buf participants;
  add_txn buf ptxn;
  Buffer.contents buf

let decode_prepare s =
  whole "2pc prepare"
    (fun c ->
      let coord = read_varint c in
      let shard = read_varint c in
      let participants = read_list read_varint c in
      let ptxn = read_txn c in
      (coord, shard, participants, ptxn))
    s

let encode_decision ~shard ~commit ~dtxn =
  let buf = Buffer.create 64 in
  add_varint buf shard;
  Buffer.add_char buf (if commit then '\001' else '\000');
  add_txn buf dtxn;
  Buffer.contents buf

let decode_decision s =
  whole "2pc decision"
    (fun c ->
      let shard = read_varint c in
      let commit = read_char c <> '\000' in
      let dtxn = read_txn c in
      (shard, commit, dtxn))
    s

(* Bare row dumps: the durability layer's snapshot payload (a whole
   [Database.dump] image, no message framing around it). *)

let encode_rows (rows : (string * Value.t array) list) =
  let buf = Buffer.create 256 in
  add_list add_row buf rows;
  Buffer.contents buf

let decode_rows s = whole "row dump" (read_list read_row) s
