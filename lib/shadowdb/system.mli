(** ShadowDB: replicated databases over the verified total-order broadcast.

    The broadcast service runs Paxos, as in the paper's evaluation (the
    consensus core is swappable inside {!Broadcast.Shell.Make}; the
    ablations run it on TwoThird). Three replication styles share the
    substrate:

    - {b primary-backup} (paper Sec. III-A): a hand-coded normal case —
      the primary executes, forwards to the backups, waits for all
      acknowledgements, answers the client — with TOB-ordered
      reconfiguration, election by largest executed sequence number, and
      transaction-cache or full-snapshot state transfer (including the
      paper's overlapped variant);
    - {b state machine replication} (paper Sec. III-B): clients broadcast
      transactions through the TOB, every active replica executes in
      delivery order and answers, the client keeps the first answer; each
      replica co-hosts its broadcast-service member (the co-located CPU is
      what caps SMR throughput in Fig. 9(a));
    - {b chain replication} (extension; one of the protocols the paper
      names as buildable on its broadcast service): updates enter at the
      head and flow down the chain, the tail's reply is the commit point,
      and read-only transactions are served by the tail. *)

type loc = int

type decoded_payload = Codec.payload =
  | P_txn of Txn.t
  | P_reconfig of Config.t * int * loc
      (** configuration, proposer's last executed seq, proposer *)
  | P_prepare of loc * int * int list * Txn.t
      (** coordinator, shard, participants, sub-transaction *)
  | P_decision of int * bool * Txn.t  (** shard, commit?, sub-transaction *)
  | P_bytes of string  (** unrecognized or corrupt *)

val decode_payload : string -> decoded_payload
(** {!Codec.decode_payload}. Total: anything unrecognized comes back as
    {!P_bytes}. The conformance checker uses this to re-execute recorded
    deliveries against a shadow database. *)

type tuning = {
  hb_interval : float;  (** Heartbeat period between replicas. *)
  detect_timeout : float;
      (** Silence after which a replica is suspected (the paper's
          configurable 10 s in Fig. 10(a)). *)
  cache_cap : int;
      (** Executed-transaction cache size; a lagging replica within the
          cache catches up by replay, otherwise by full snapshot. *)
  chunk_rows : int;  (** Rows per state-transfer chunk (≈50 kB). *)
  exec_overhead : float;  (** Fixed CPU per transaction besides DB work. *)
  fwd_overhead : float;  (** Per-backup forward/ack handling CPU. *)
}

val default_tuning : tuning

module Shell : module type of Broadcast.Shell.Make (Consensus.Paxos)

module TM = Shell.T

type wire =
  | Svc of TM.msg  (** Broadcast-service traffic. *)
  | Note of Broadcast.Tob.deliver  (** TOB delivery notification. *)
  | Db of Db_msg.t  (** Database replication traffic. *)
(** Wire type of a ShadowDB world — simulated or live. *)

val wire_codec : wire Runtime.codec
(** Byte codec for {!wire}, required by the socket runtime. The core's
    Paxos messages go through {!Codec.encode_core_paxos} and
    {!Codec.decode_core_paxos}. *)

type replication_style = Primary_backup | Chain

(** {1 Primary-backup / chain clusters} *)

type pbr_cluster = {
  pbr_replicas : loc list;  (** Actives first, then spares. *)
  pbr_tob : loc list;  (** The three broadcast-service members. *)
  pbr_initial_primary : loc;
  pbr_primary_of : loc -> loc;
      (** A replica's current view of the primary (introspection). *)
  pbr_cfg_of : loc -> int;
      (** A replica's current configuration sequence number (state
          agreement only holds within a configuration: a deposed
          primary legitimately diverges until it rejoins). *)
  pbr_gseq_of : loc -> int;  (** Executed-transaction count. *)
  pbr_hash_of : loc -> int;
      (** Backend-independent content digest, for state-agreement
          checks. *)
}

val spawn_pbr :
  ?style:replication_style ->
  ?read_kinds:string list ->
  ?tun:tuning ->
  ?backends:Storage.Store.kind list ->
  ?tob_window:int ->
  world:wire Runtime.t ->
  registry:(unit -> Txn.registry) ->
  setup:(Storage.Database.t -> unit) ->
  n_active:int ->
  n_spare:int ->
  unit ->
  pbr_cluster
(** Spawn [n_active] replicas (the initial configuration) plus
    [n_spare] spares, and the 3-member broadcast service used for
    reconfiguration. [backends] assigns diverse storage engines
    round-robin (default all "hazel"); [setup] loads the initial data
    identically at every replica; the broadcast service runs on the
    interpreted-over-optimizer engine, as the paper runs PBR's service
    interpreted; [tob_window] is the service's consensus pipelining
    window (batches in flight per member, default 1).

    [style:Chain] spawns a chain-replication cluster: the configuration
    order is the chain order (head first); [read_kinds] lists the
    transaction kinds served read-only at the tail. *)

(** {1 State-machine-replication clusters} *)

type durability = {
  dur_backend : int -> Durable.Backend.t;
      (** Node [i]'s persistent backend (file-backed live, in-memory
          deterministic under the sim). *)
  dur_policy : int -> Durable.Manager.policy;
  dur_on_recover : int -> Durable.Manager.report -> state_hash:int -> unit;
      (** Observes the recovery report and post-recovery state
          fingerprint each time node [i] (re)initializes — monitors and
          the chaos drill hang off it. *)
}
(** Per-node durability hooks for SMR clusters: applied transactions are
    written to a write-ahead log (group-committed per the policy),
    snapshots are taken at the policy's cadence, and a restarted node
    recovers deterministically (snapshot install + torn-tail truncation
    + WAL replay) before processing its first event. *)

type smr_cluster = {
  smr_nodes : loc list;
      (** The three machines, each co-hosting a broadcast member and a
          database replica. *)
  smr_active_of : loc -> bool;  (** Whether the replica executes. *)
  smr_cfg_of : loc -> int;  (** Configuration sequence number. *)
  smr_gseq_of : loc -> int;
  smr_hash_of : loc -> int;
  smr_db_view : 'a. loc -> (Storage.Database.t -> 'a) -> default:'a -> 'a;
      (** Read-only introspection of a replica's database (e.g.
          conservation sums in the checker); [default] if the node
          never initialized. *)
}

val spawn_smr :
  ?tun:tuning ->
  ?backends:Storage.Store.kind list ->
  ?durability:durability ->
  ?tob_window:int ->
  world:wire Runtime.t ->
  registry:(unit -> Txn.registry) ->
  setup:(Storage.Database.t -> unit) ->
  n_active:int ->
  unit ->
  smr_cluster
(** Three co-located nodes; the first [n_active] databases execute, the
    rest are spares activated by TOB-ordered reconfiguration (with
    snapshot sync from the proposer). [tob_window] is the co-hosted
    broadcast member's consensus pipelining window (default 1). *)

(** {1 Sharded clusters}

    N independent shards, each a full 3-replica SMR group with its own
    TOB instance, plus one 2PC coordinator for cross-shard
    transactions. Single-shard transactions enter the owning shard's
    TOB directly; cross-shard ones are split by the {!Shard.router},
    prepared (trial-executed and locked) at every participant, and
    decided by the coordinator — prepare and decision records are
    totally ordered {e within each participant shard's own TOB}, which
    together with the journaled decision gives atomicity (see
    DESIGN.md). *)

type sharded_cluster = {
  sh_router : Shard.router;
  sh_coord : loc;  (** The 2PC coordinator node. *)
  sh_groups : smr_cluster array;  (** One SMR group per shard. *)
  sh_nodes : loc list;  (** Coordinator first, then every replica. *)
  sh_committed : unit -> int;
      (** Cross-shard transactions decided commit. *)
  sh_aborted : unit -> int;  (** Decided abort (incl. timeouts). *)
}

val spawn_sharded :
  ?tun:tuning ->
  ?backends:Storage.Store.kind list ->
  ?durability:(int -> durability option) ->
  ?tob_window:int ->
  ?coord_journal:bool ->
  ?pending_timeout:float ->
  ?pump_interval:float ->
  ?on_apply:
    (shard:int ->
    node:loc ->
    client:loc ->
    seq:int ->
    commit:bool ->
    keys:Shard.key list ->
    unit) ->
  ?on_decide:(client:loc -> seq:int -> commit:bool -> unit) ->
  world:wire Runtime.t ->
  registry:(unit -> Txn.registry) ->
  setup:(int -> Storage.Database.t -> unit) ->
  router:Shard.router ->
  unit ->
  sharded_cluster
(** Spawn [router.shards] SMR groups (3 replicas each, all active —
    reconfiguration is disabled in sharded mode) and the coordinator.
    [setup shard db] loads shard-local initial data; [durability shard]
    optionally makes that shard's replicas crash-durable (recovery
    replays the full WAL through the 2PC participant step, rebuilding
    locks and staged votes). [coord_journal:false] deliberately drops
    the coordinator's decision journal — the checker's broken-2PC
    fixture. [pump_interval] paces decision broadcasts (one per tick —
    the crash window the checker explores; re-requests triggered by
    resent votes dedup against the queue, so it stays bounded by the
    number of in-flight decisions); [pending_timeout] is the
    presumed-abort deadline for undecided transactions. [on_apply]
    observes every decision application at every replica, [on_decide]
    every coordinator decision — the cross-shard monitors hang off
    both. *)

(** {1 Clients} *)

type client_target =
  | To_pbr of pbr_cluster
  | To_smr of smr_cluster
  | To_sharded of sharded_cluster
(** Chain clusters are addressed with [To_pbr] (replicas forward
    misrouted transactions to the head or tail themselves).
    [To_sharded] clients route per transaction: single-shard straight
    into the owning shard's TOB, cross-shard to the coordinator. *)

(** {1 The cluster view}

    A deployment is one or more replica groups, each delivering one total
    order; agreement is per group. *)

type group = {
  members : loc list;
  executes : loc -> bool;  (** An SMR spare only tracks seqnos. *)
  cfg_of : loc -> int;
  gseq_of : loc -> int;
  hash_of : loc -> int;
}

val groups : client_target -> group list
(** [To_pbr] and [To_smr] are one group; [To_sharded] is one group per
    shard, in shard order. The 2PC coordinator is in no group. *)

val current : group -> alive:(loc -> bool) -> loc list
(** The members that are alive and at the newest configuration any of
    them reached. *)

val disagreement : client_target -> alive:(loc -> bool) -> string option
(** The end-state agreement check: per group, two {!current} members
    that execute, with equal [gseq_of] and different [hash_of], are
    reported, naming both. *)

val spawn_clients :
  world:wire Runtime.t ->
  target:client_target ->
  n:int ->
  count:int ->
  make_txn:(client:loc -> seq:int -> string * Storage.Value.t list) ->
  ?retry_timeout:float ->
  ?on_commit:(float -> float -> unit) ->
  unit ->
  loc list * (unit -> int)
(** [n] closed-loop clients submitting [count] transactions each.
    [make_txn ~client ~seq] must be deterministic (timeouts resend the
    same transaction with the same sequence number; duplicates are
    suppressed downstream). [on_commit time latency] fires once per
    committed transaction (deterministic aborts are answered but not
    counted). Returns the client node ids and a completion counter. *)
