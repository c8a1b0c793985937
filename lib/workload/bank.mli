(** The paper's micro-benchmark: a bank-accounts database.

    50,000 rows of 16 bytes (id, owner, balance); update transactions
    deposit money on a randomly selected account (Sec. IV-B). Rows can be
    padded to 1 KB with a fourth column for the state-transfer experiment
    of Fig. 10(b). *)

val table : string
(** "ACCOUNTS" *)

val schema : ?wide:bool -> unit -> Storage.Schema.t
(** 3 columns (id, owner, balance); [wide] adds a 4th padding column. *)

val setup : ?rows:int -> ?wide:bool -> Storage.Database.t -> unit
(** Create and populate the table (default 50,000 rows). *)

val registry : unit -> Shadowdb.Txn.registry
(** Procedures: ["deposit"] (id, amount), ["balance"] (id), ["transfer"]
    (src, dst, amount — aborts on insufficient funds), ["withdraw"]
    (id, amount — the 2PC debit leg, aborts on insufficient funds), and
    ["audit"] (ids… — one [|id; balance|] row per existing account). *)

val deposit : account:int -> amount:int -> string * Storage.Value.t list
(** Transaction descriptor for {!Shadowdb.System.spawn_clients}. *)

val balance : account:int -> string * Storage.Value.t list
val transfer : src:int -> dst:int -> amount:int -> string * Storage.Value.t list
val withdraw : account:int -> amount:int -> string * Storage.Value.t list
val audit : accounts:int list -> string * Storage.Value.t list

val random_deposit : Sim.Prng.t -> rows:int -> string * Storage.Value.t list
(** A deposit on a uniformly random account (the paper's workload). *)

val total_balance : Storage.Database.t -> int
(** Sum of all balances (conservation checks in tests). *)

(** {1 Sharding} *)

val shard_keys : Shadowdb.Txn.t -> Shadowdb.Shard.key list
(** Every account row the transaction may touch. *)

val shard_split :
  shards:int -> Shadowdb.Txn.t -> (int * Shadowdb.Txn.t) list
(** Per-shard sub-transactions carrying the parent's (client, seq)
    identity: a transfer becomes a withdraw on the source shard plus a
    deposit on the destination shard; an audit is partitioned by owning
    shard. *)

val router : shards:int -> Shadowdb.Shard.router
(** The bank's shard router over [shard_keys]/[shard_split]. *)

val setup_shard : rows:int -> shards:int -> int -> Storage.Database.t -> unit
(** [setup_shard ~rows ~shards s db] populates shard [s] with exactly
    its partition of the [rows] accounts (each with balance 100): the
    union over all shards equals the unsharded {!setup}, and the global
    sum is [rows * 100]. *)
