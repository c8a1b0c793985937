(* ShadowDB: replicated databases over the verified total-order broadcast
   (Paxos, as in the paper's evaluation). This module assembles the
   parts: the shared replica core ({!Replica}: the TOB payload type,
   tuning, wire format, heartbeats and suspicion, snapshot transfer),
   primary-backup and chain replication ({!Pbr}), state-machine
   replication with durability and the 2PC participant ({!Smr}), and the
   sharded deployment's 2PC coordinator ({!Sharded}). The clients that
   drive all of them are here. *)

include Replica
include Pbr
include Smr
include Sharded

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type client_target =
  | To_pbr of pbr_cluster
  | To_smr of smr_cluster
  | To_sharded of sharded_cluster

type group = {
  members : loc list;
  executes : loc -> bool;  (* an SMR spare tracks seqnos only *)
  cfg_of : loc -> int;
  gseq_of : loc -> int;
  hash_of : loc -> int;
}

let smr_group c =
  {
    members = c.smr_nodes;
    executes = c.smr_active_of;
    cfg_of = c.smr_cfg_of;
    gseq_of = c.smr_gseq_of;
    hash_of = c.smr_hash_of;
  }

let groups = function
  | To_pbr c ->
      [
        {
          members = c.pbr_replicas;
          executes = (fun _ -> true);
          cfg_of = c.pbr_cfg_of;
          gseq_of = c.pbr_gseq_of;
          hash_of = c.pbr_hash_of;
        };
      ]
  | To_smr c -> [ smr_group c ]
  | To_sharded sc -> Array.to_list (Array.map smr_group sc.sh_groups)

(* A deposed primary or an unsynced spare legitimately lags. *)
let current grp ~alive =
  let alive = List.filter alive grp.members in
  let maxcfg = List.fold_left (fun m l -> max m (grp.cfg_of l)) (-1) alive in
  List.filter (fun l -> grp.cfg_of l = maxcfg) alive

let disagreement target ~alive =
  let who, did, what =
    match target with
    | To_sharded _ -> ("shard replicas", "delivered", "entries")
    | To_pbr _ | To_smr _ -> ("replicas", "executed", "transactions")
  in
  let check grp =
    let seen = Hashtbl.create 8 in
    List.find_map
      (fun l ->
        if not (grp.executes l) then None
        else
          let g = grp.gseq_of l and h = grp.hash_of l in
          match Hashtbl.find_opt seen g with
          | Some (l0, h0) when h0 <> h ->
              Some
                (Printf.sprintf "%s %d and %d %s %d %s but their databases differ"
                   who l0 l did g what)
          | Some _ -> None
          | None ->
              Hashtbl.replace seen g (l, h);
              None)
      (current grp ~alive)
  in
  List.find_map check (groups target)

(* A closed-loop client: submits [count] transactions one at a time,
   resending (same sequence number — duplicates are suppressed
   downstream) with contact rotation on timeout. [on_commit time latency]
   fires per committed transaction; [make_txn ~client ~seq] supplies the
   procedure name and parameters. *)
let spawn_clients ~world ~target ~n ~count ~make_txn
    ?(retry_timeout = 4.0) ?(on_commit = fun _ _ -> ()) () =
  let completed = Atomic.make 0 in
  let rotate contacts attempt =
    List.nth contacts (attempt mod List.length contacts)
  in
  let smr_entry (txn : Txn.t) =
    {
      Tob.origin = txn.Txn.client;
      id = txn.Txn.seq;
      payload = Codec.encode_payload (P_txn txn);
    }
  in
  (* [dispatch ctx ~attempt txn] routes one submission; [attempt]
     rotates contacts on retry. *)
  let dispatch =
    match target with
    | To_pbr c ->
        let all = c.pbr_replicas in
        (* Start at the initial primary; rotate over replicas on retry. *)
        let ordered =
          c.pbr_initial_primary
          :: List.filter (fun l -> l <> c.pbr_initial_primary) all
        in
        fun ctx ~attempt txn ->
          R.send ctx ~size:(Txn.size txn) (rotate ordered attempt)
            (Db (Db_msg.Client_txn txn))
    | To_smr c ->
        fun ctx ~attempt txn ->
          R.send ctx ~size:(Txn.size txn) (rotate c.smr_nodes attempt)
            (Svc (TM.Broadcast (smr_entry txn)))
    | To_sharded sc -> (
        fun ctx ~attempt txn ->
          match Shard.route sc.sh_router txn with
          | Shard.Local s ->
              (* Single-shard: straight into the owning shard's TOB,
                 bypassing the coordinator entirely. *)
              R.send ctx ~size:(Txn.size txn)
                (rotate sc.sh_groups.(s).smr_nodes attempt)
                (Svc (TM.Broadcast (smr_entry txn)))
          | Shard.Distributed _ ->
              (* Cross-shard: the 2PC coordinator owns it. *)
              R.send ctx ~size:(Txn.size txn) sc.sh_coord
                (Db (Db_msg.Client_txn txn)))
  in
  let spawn_one _i =
    R.spawn world ~name:"db-client" (fun () ->
        let seq = ref 0 in
        let attempt = ref 0 in
        let sent_at = ref 0.0 in
        let timer = ref (-1) in
        let send ctx =
          let a = !attempt in
          incr attempt;
          sent_at := R.time ctx;
          let client = R.self ctx in
          let kind, params = make_txn ~client ~seq:!seq in
          let txn = { Txn.client; seq = !seq; kind; params } in
          dispatch ctx ~attempt:a txn;
          timer := R.set_timer ctx retry_timeout "retry"
        in
        fun ctx -> function
          | R.Init -> if count > 0 then send ctx
          | R.Recv { msg = Db (Db_msg.Reply reply); _ } ->
              if reply.Txn.seq = !seq then begin
                R.cancel_timer ctx !timer;
                let now = R.time ctx in
                (* Deterministic aborts (e.g. TPC-C's 1% rollbacks) are
                   answered but not counted as commits. *)
                (match reply.Txn.outcome with
                | Ok _ -> on_commit now (now -. !sent_at)
                | Error _ -> ());
                incr seq;
                (* Successful contact: stick with it next time. *)
                attempt := !attempt - 1;
                if !seq < count then send ctx
                else Atomic.incr completed
              end
          | R.Recv _ -> ()
          | R.Timer { tag = "retry"; _ } ->
              (* Timeout: resend the same transaction; [send] advances
                 the rotation, so a dead contact is skipped. *)
              if !seq < count then send ctx
          | R.Timer _ -> ())
  in
  let ids = List.init n spawn_one in
  (ids, fun () -> Atomic.get completed)
