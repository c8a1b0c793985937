(* ShadowDB wire-table pass.

   The replication layer (lib/shadowdb: replica.ml, pbr.ml, smr.ml,
   sharded.ml) is an engine-level implementation, not a class term, so
   header coverage cannot be observed the way {!Exec} observes
   specifications. Instead the message
   flow is *declared* here — which role produces and which role handles
   each {!Shadowdb.Db_msg} constructor — and the pass keeps the
   declaration total and well-formed against the actual message type:
   every constructor tagged, no stale entries, no producer-less or
   handler-less traffic, no unknown roles. The table doubles as reviewed
   documentation of the replication protocol's communication structure
   (the paper's Fig. 3/4 arrows). *)

type entry = { tag : string; producers : string list; handlers : string list }

let roles =
  [ "client"; "primary"; "backup"; "spare"; "replica"; "coordinator" ]
(* [replica] is the symmetric SMR role; primary/backup/spare are PBR;
   [coordinator] is the sharded deployment's 2PC coordinator. *)

let table =
  [
    (* Clients retry against every replica, so any role may receive a
       transaction; non-primaries forward it. Sharded clients send
       cross-shard transactions to the 2PC coordinator instead. *)
    {
      tag = "client-txn";
      producers = [ "client" ];
      handlers = [ "primary"; "backup"; "replica"; "coordinator" ];
    };
    { tag = "forward"; producers = [ "primary" ]; handlers = [ "backup" ] };
    { tag = "ack"; producers = [ "backup" ]; handlers = [ "primary" ] };
    {
      tag = "reply";
      producers = [ "primary"; "replica"; "coordinator" ];
      handlers = [ "client" ];
    };
    {
      tag = "heartbeat";
      producers = [ "primary" ];
      handlers = [ "backup"; "spare" ];
    };
    (* Members of a proposed configuration exchange their last executed
       sequence numbers to elect the new primary. *)
    {
      tag = "elect";
      producers = [ "primary"; "backup"; "spare" ];
      handlers = [ "primary"; "backup"; "spare" ];
    };
    {
      tag = "catchup";
      producers = [ "primary" ];
      handlers = [ "backup"; "spare" ];
    };
    {
      tag = "snapshot";
      producers = [ "primary"; "replica" ];
      handlers = [ "backup"; "spare" ];
    };
    {
      tag = "recovered";
      producers = [ "backup"; "spare" ];
      handlers = [ "primary" ];
    };
    {
      tag = "snapshot-req";
      producers = [ "spare" ];
      handlers = [ "replica" ];
    };
    (* Sharded 2PC: a participant replica's vote on a prepared
       cross-shard transaction, resent periodically until the decision
       is delivered through its shard's TOB. *)
    {
      tag = "vote";
      producers = [ "replica" ];
      handlers = [ "coordinator" ];
    };
  ]

let check ~target ~all_tags entries =
  let diag = Diag.v ~pass:"wire-table" ~target in
  let missing =
    List.filter_map
      (fun t ->
        if List.exists (fun e -> e.tag = t) entries then None
        else
          Some
            (diag ~code:"missing-wire-entry" ~site:t
               "message tag %S has no wire-table entry: who sends it, who \
                handles it?"
               t))
      all_tags
  in
  let per_entry e =
    let stale =
      if List.mem e.tag all_tags then []
      else
        [
          diag ~code:"stale-wire-entry" ~site:e.tag
            "wire-table entry %S matches no message constructor" e.tag;
        ]
    in
    let dup =
      if List.length (List.filter (fun e' -> e'.tag = e.tag) entries) > 1 then
        [
          diag ~code:"duplicate-wire-entry" ~site:e.tag
            "message tag %S is declared more than once" e.tag;
        ]
      else []
    in
    let empty =
      (if e.producers = [] then
         [
           diag ~code:"no-producer" ~site:e.tag
             "message tag %S has handlers but no declared producer" e.tag;
         ]
       else [])
      @
      if e.handlers = [] then
        [
          diag ~code:"no-handler" ~site:e.tag
            "message tag %S is produced but no role handles it — a dead \
             letter"
            e.tag;
        ]
      else []
    in
    let bad_roles =
      List.filter_map
        (fun r ->
          if List.mem r roles then None
          else
            Some
              (diag ~code:"unknown-role" ~site:e.tag
                 "wire-table entry %S names unknown role %S" e.tag r))
        (e.producers @ e.handlers)
    in
    stale @ dup @ empty @ bad_roles
  in
  missing @ List.concat_map per_entry entries

let pass () =
  check ~target:"shadowdb-wire" ~all_tags:Shadowdb.Db_msg.all_tags table
