(** Sharded SMR weak scaling on the simulator: 4 closed-loop clients and
    one 3-replica TOB group per shard, a Zipf-skewed (theta = 0.9)
    deposit stream over a 1,000-account bank with a 5% transfer mix whose
    cross-shard fraction rides through the 2PC coordinator. Virtual
    committed/s measures how much total transaction throughput the extra
    independent total orders buy. *)

type point = {
  shards : int;
  txns_s : float;  (** Committed transactions per virtual second. *)
  speedup : float;  (** [txns_s] over the 1-shard figure. *)
  x_committed : int;  (** Cross-shard transactions decided commit. *)
  x_aborted : int;  (** Cross-shard transactions decided abort. *)
}

val curve : ?quick:bool -> unit -> point list
(** 1, 2 and 4 shards. [quick] (default true) runs 100 transactions per
    client instead of 400. *)

val print : point list -> unit
(** One row per shard count: committed/s, speedup over 1 shard, and 2PC
    commits over decided cross-shard transactions. *)
