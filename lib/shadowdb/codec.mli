(** Wire codecs: values, transactions, messages and TOB payloads to and
    from strings (the broadcast service carries opaque string payloads).

    v2 binary format: one ASCII tag byte per constructor over
    {!Bytefmt.Bin}'s primitives (zigzag LEB128 varints, varint-length-
    prefixed raw bytes, 8-byte little-endian IEEE 754 floats). Encoders
    share one [Buffer]; decoders walk a cursor with no tail copies. See
    DESIGN.md for the format and its truncation-rejection argument. *)

val encode_value : Storage.Value.t -> string
val decode_value : string -> (Storage.Value.t * string, string) result
(** Returns the value and the remaining input. *)

val encode_txn : Txn.t -> string
val decode_txn : string -> (Txn.t, string) result

(** {1 Socket-runtime wire codecs}

    Full message codecs for running ShadowDB nodes over real sockets:
    broadcast entries and delivery notifications, Paxos protocol messages
    over TOB batches, and database replication messages. All decoders
    reject truncated or trailing bytes, and read from byte [pos] (default
    0), so a caller that has consumed a prefix of the message decodes the
    rest without copying it. *)

val encode_entry : Broadcast.Tob.entry -> string

val decode_entry :
  ?pos:int -> string -> (Broadcast.Tob.entry * string, string) result
(** Streaming: returns the entry and the remaining input. *)

val encode_batch : Broadcast.Tob.batch -> string

val decode_batch :
  string -> (Broadcast.Tob.batch * string, string) result
(** Streaming: returns the batch and the remaining input. *)

val decode_batch_all : string -> (Broadcast.Tob.batch, string) result
(** Whole-buffer variant: fails on trailing bytes. *)

val encode_deliver : Broadcast.Tob.deliver -> string
val decode_deliver :
  ?pos:int -> string -> (Broadcast.Tob.deliver, string) result

val encode_core_paxos : Broadcast.Tob.batch Consensus.Paxos_msg.t -> string
(** Paxos messages whose commands are TOB batches — the consensus core
    the paper's broadcast service actually runs. *)

val decode_core_paxos :
  ?pos:int -> string ->
  (Broadcast.Tob.batch Consensus.Paxos_msg.t, string) result

val encode_db_msg : Db_msg.t -> string
val decode_db_msg : ?pos:int -> string -> (Db_msg.t, string) result

(** {1 TOB entry payloads}

    What a TOB entry carries: a client transaction, an SMR
    reconfiguration proposal, or a sharded 2PC prepare or decision. One
    tag byte (['T'], ['R'], ['P'], ['D']) followed by the body. *)

type payload =
  | P_txn of Txn.t
  | P_reconfig of Config.t * int * int
      (** configuration, proposer's last executed seq, proposer *)
  | P_prepare of int * int * int list * Txn.t
      (** coordinator, shard, participants, sub-transaction *)
  | P_decision of int * bool * Txn.t
      (** shard, commit?, sub-transaction — the decision carries the
          sub-transaction so a replica that missed the prepare can still
          apply a commit *)
  | P_bytes of string
      (** unrecognized or corrupt; encodes as the raw bytes *)

val encode_payload : payload -> string

val decode_payload : string -> payload
(** Total: anything that is not a well-formed tagged payload comes back
    as [P_bytes]. *)

val encode_rows : (string * Storage.Value.t array) list -> string
val decode_rows :
  string -> ((string * Storage.Value.t array) list, string) result
(** Bare row dumps — the durability layer's snapshot payload (a whole
    [Database.dump] image with no message framing). *)
