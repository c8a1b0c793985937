(** An embedded in-memory relational database.

    Tables live in a pluggable {!Store.t}; operations account virtual CPU
    cost against the backend's {!Cost.profile} (read with {!take_cost} by
    the hosting simulator node). Transactions are sequential (one at a
    time, as ShadowDB executes them) with an undo log for rollback. *)

type t

val create : Store.kind -> t
val kind : t -> Store.kind

val create_table : t -> Schema.t -> (unit, string) result
val drop_table : t -> string -> bool
val schema : t -> string -> Schema.t option
val tables : t -> string list
(** Sorted table names. *)

val row_count : t -> string -> int
(** 0 for unknown tables. *)

(** {1 Row operations} — all return [Error] on unknown table, schema
    violation, or (for [insert]) duplicate key. *)

val insert : t -> string -> Value.t array -> (unit, string) result
val upsert : t -> string -> Value.t array -> (unit, string) result
val get : t -> string -> Store.key -> Value.t array option

val update :
  t -> string -> Store.key -> (Value.t array -> Value.t array) ->
  (bool, string) result
(** Apply [f] to the row at the key; [Ok false] if absent. [f] must not
    change the primary key (checked). *)

val delete : t -> string -> Store.key -> (bool, string) result

val scan :
  t -> string -> pred:(Value.t array -> bool) -> (Value.t array list, string) result
(** Full-table scan in key order; charges per-row scan cost. *)

val scan_update :
  t -> string -> pred:(Value.t array -> bool) ->
  f:(Value.t array -> Value.t array) -> (int, string) result
(** Update every matching row; returns the match count. *)

val scan_delete :
  t -> string -> pred:(Value.t array -> bool) -> (int, string) result

(** {1 Transactions} *)

val begin_txn : t -> unit
(** Starts the undo log; nested calls raise a structured
    [Sim.Invariant.Violation] for the ["database"] layer. *)

val in_txn : t -> bool
val commit : t -> unit
val rollback : t -> unit
(** Undo every change since {!begin_txn}. *)

(** {1 Cost accounting} *)

val take_cost : t -> float
(** Virtual CPU seconds accumulated since the last call, and reset. *)

val charge : t -> float -> unit
(** Add an externally computed cost (e.g. serialization). *)

(** {1 Snapshots (state transfer)} *)

val dump : t -> (string * Value.t array) list
(** Every row as [(table, row)], tables sorted, rows in key order; charges
    serialization cost per row. *)

val load_rows : t -> (string * Value.t array) list -> (unit, string) result
(** Bulk-insert rows (state-transfer receive path); charges bulk-insert
    cost per row. Tables must already exist. *)

val clear_data : t -> unit
(** Drop every row from every table, keeping schemas — a receiving replica
    clears before installing a snapshot. *)

(** {1 Secondary indexes} *)

val create_index : t -> string -> string -> (unit, string) result
(** [create_index db table column] builds an ordered secondary index and
    keeps it maintained by every write (including rollback and
    state-transfer loads). *)

val drop_index : t -> string -> string -> bool
val indexed_columns : t -> string -> string list

val index_walk :
  t -> string -> column:string -> prefix:Value.t list -> ?lo:Value.t list ->
  (Value.t array -> bool) -> (unit, string) result
(** [index_walk db table ~column ~prefix ?lo f] visits, in ascending
    order, the rows whose entry in the secondary index on [column] — the
    key [value :: primary key] — starts with [prefix]. It begins at the
    first entry [≥ lo] (default [prefix]; a [lo] below [prefix] counts as
    [prefix]) and stops when [f] returns [false] or the prefix ends.
    Charges a few sequential reads per entry visited plus one point read,
    so the cost is O(entries visited), not O(table). [Error] when no such
    index exists. *)

val lookup_eq :
  t -> string -> column:string -> value:Value.t -> (Value.t array list, string) result
(** Every row whose [column] equals [value], in primary-key order: the
    {!index_walk} over prefix [[value]]. *)

val content_hash : t -> int
(** Order-insensitive digest of schemas and rows — used by the
    state-agreement tests to compare replicas across diverse backends. *)
