(** Total-order broadcast service (pure state machine).

    The paper's core verified artifact: participating processes deliver
    the same messages in the same order (uniform total order, no creation,
    no duplication). Built modularly over a consensus core — instantiate
    {!Make} with {!Consensus.Paxos} or {!Consensus.Twothird_multi}.

    Messages submitted by clients are accumulated and proposed as batches
    (the paper's batching optimization); decided batches are unfolded into
    individually sequence-numbered deliveries, deduplicated by
    (origin, id). A member keeps up to [window] batches in flight through
    consensus at once (default 1 — the paper's one-outstanding-batch
    regime); pipelining is safe because both consensus cores decide
    per-slot and release decisions strictly in slot order, so total order
    is fixed by slot assignment regardless of how many proposals any
    member has outstanding. *)

type loc = int

type entry = { origin : loc; id : int; payload : string }
(** One broadcast message: submitting client, client-local id, payload. *)

type batch = entry list
(** The unit of consensus. *)

type deliver = { seqno : int; entry : entry }
(** A delivery notification: global sequence number plus the message. *)

module Make (C : Consensus.Consensus_intf.S) : sig
  type msg =
    | Broadcast of entry  (** Client → service member. *)
    | Core of batch C.msg  (** Service member ↔ service member. *)

  type action =
    | Send of loc * msg
    | Notify of loc * deliver  (** Delivery notification to a subscriber. *)
    | Set_timer of float

  type t

  val create :
    ?batch_cap:int ->
    ?window:int ->
    self:loc ->
    members:loc list ->
    subscribers:loc list ->
    unit ->
    t
  (** [subscribers] receive a [Notify] for every delivered message.
      [batch_cap] bounds entries per proposal (default 64).
      [window] is the number of batches this member may have in flight
      through consensus simultaneously (default 1; clamped to [>= 1]).
      A member that makes no progress for 0.5 s prods the consensus core
      (leader re-election / retransmission). *)

  val start : t -> now:float -> t * action list
  val recv : t -> now:float -> src:loc -> msg -> t * action list
  val tick : t -> now:float -> t * action list

  val delivered : t -> int
  (** Number of messages this member has delivered so far. *)

  val log : t -> entry list
  (** Delivered messages in delivery order (the agreed sequence). *)
end
