module Value = Storage.Value
open Bytefmt.Bin

(* v2 wire format (binary). The varint, string, float and list primitives,
   the cursor and its truncation rules are {!Bytefmt.Bin}'s; this module
   adds one ASCII tag byte per constructor, kept from v1 for
   debuggability. *)

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
  | ch -> bad c (Printf.sprintf "bad value tag %C" ch)

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

let decode_entry ?pos s = streaming ?pos read_entry s

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

let decode_deliver ?pos s =
  whole ?pos "deliver"
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

(* Commands are TOB batches, inlined straight into the shared buffer. *)
let add_pvalue buf (pv : Broadcast.Tob.batch PM.pvalue) =
  add_ballot buf pv.PM.b;
  add_varint buf pv.PM.s;
  add_batch buf pv.PM.c

let read_pvalue c =
  let b = read_ballot c in
  let slot = read_varint c in
  let cmd = read_batch c in
  { PM.b; s = slot; c = cmd }

let add_paxos buf (m : Broadcast.Tob.batch PM.t) =
  match m with
  | PM.P1a { src; b } ->
      Buffer.add_char buf 'A';
      add_varint buf src;
      add_ballot buf b
  | PM.P1b { src; b; accepted } ->
      Buffer.add_char buf 'B';
      add_varint buf src;
      add_ballot buf b;
      add_list add_pvalue buf accepted
  | PM.P2a { src; pv } ->
      Buffer.add_char buf 'C';
      add_varint buf src;
      add_pvalue buf pv
  | PM.P2b { src; b; s } ->
      Buffer.add_char buf 'D';
      add_varint buf src;
      add_ballot buf b;
      add_varint buf s
  | PM.Propose { s; c } ->
      Buffer.add_char buf 'P';
      add_varint buf s;
      add_batch buf c
  | PM.Decision { s; c } ->
      Buffer.add_char buf 'E';
      add_varint buf s;
      add_batch buf c

let read_paxos c =
  match read_char c with
  | 'A' ->
      let src = read_varint c in
      let b = read_ballot c in
      PM.P1a { src; b }
  | 'B' ->
      let src = read_varint c in
      let b = read_ballot c in
      let accepted = read_list read_pvalue c in
      PM.P1b { src; b; accepted }
  | 'C' ->
      let src = read_varint c in
      let pv = read_pvalue c in
      PM.P2a { src; pv }
  | 'D' ->
      let src = read_varint c in
      let b = read_ballot c in
      let slot = read_varint c in
      PM.P2b { src; b; s = slot }
  | 'P' ->
      let slot = read_varint c in
      let cmd = read_batch c in
      PM.Propose { s = slot; c = cmd }
  | 'E' ->
      let slot = read_varint c in
      let cmd = read_batch c in
      PM.Decision { s = slot; c = cmd }
  | ch -> bad c (Printf.sprintf "bad paxos tag %C" ch)

let encode_core_paxos m =
  let buf = Buffer.create 64 in
  add_paxos buf m;
  Buffer.contents buf

let decode_core_paxos ?pos s = whole ?pos "paxos message" read_paxos s

(* Database replication messages. *)

let add_varray buf (a : Value.t array) =
  add_varint buf (Array.length a);
  Array.iter (add_value buf) a

let read_varray c =
  let n = read_varint c in
  if n < 0 then bad c "negative array length";
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
  | ch -> bad c (Printf.sprintf "bad reply tag %C" ch)

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
  | ch -> bad c (Printf.sprintf "bad db message tag %C" ch)

let encode_db_msg m =
  let buf = Buffer.create 64 in
  add_db_msg buf m;
  Buffer.contents buf

let decode_db_msg ?pos s = whole ?pos "db message" read_db_msg s

(* TOB entry payloads: the one place their tag bytes are known. A payload
   is written into the buffer behind its tag and decoded from the cursor
   right after it, so nothing copies the body. *)

type payload =
  | P_txn of Txn.t
  | P_reconfig of Config.t * int * int
  | P_prepare of int * int * int list * Txn.t
  | P_decision of int * bool * Txn.t
  | P_bytes of string

let add_payload buf = function
  | P_txn t ->
      Buffer.add_char buf 'T';
      add_txn buf t
  | P_reconfig (cf, last_seq, proposer) ->
      Buffer.add_char buf 'R';
      add_varint buf last_seq;
      add_varint buf proposer;
      add_config buf cf
  | P_prepare (coord, shard, participants, ptxn) ->
      Buffer.add_char buf 'P';
      add_varint buf coord;
      add_varint buf shard;
      add_list add_varint buf participants;
      add_txn buf ptxn
  | P_decision (shard, commit, dtxn) ->
      Buffer.add_char buf 'D';
      add_varint buf shard;
      Buffer.add_char buf (if commit then '\001' else '\000');
      add_txn buf dtxn
  | P_bytes s -> Buffer.add_string buf s

let read_payload c =
  match read_char c with
  | 'T' -> P_txn (read_txn c)
  | 'R' ->
      let last_seq = read_varint c in
      let proposer = read_varint c in
      let cf = read_config c in
      P_reconfig (cf, last_seq, proposer)
  | 'P' ->
      let coord = read_varint c in
      let shard = read_varint c in
      let participants = read_list read_varint c in
      let ptxn = read_txn c in
      P_prepare (coord, shard, participants, ptxn)
  | 'D' ->
      let shard = read_varint c in
      let commit = read_char c <> '\000' in
      let dtxn = read_txn c in
      P_decision (shard, commit, dtxn)
  | ch -> bad c (Printf.sprintf "bad payload tag %C" ch)

let encode_payload p =
  let buf = Buffer.create 64 in
  add_payload buf p;
  Buffer.contents buf

let decode_payload s =
  match whole "payload" read_payload s with Ok p -> p | Error _ -> P_bytes s

(* Bare row dumps: the durability layer's snapshot payload (a whole
   [Database.dump] image, no message framing around it). *)

let encode_rows (rows : (string * Value.t array) list) =
  let buf = Buffer.create 256 in
  add_list add_row buf rows;
  Buffer.contents buf

let decode_rows s = whole "row dump" (read_list read_row) s
