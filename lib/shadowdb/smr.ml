(* State-machine replication (paper Sec. III-B): clients broadcast
   transactions through the TOB; every active replica executes in
   delivery order and answers; the client keeps the first answer. Each
   replica co-hosts its broadcast-service member (the paper co-locates
   databases with the Paxos processes, and the shared CPU is what caps
   SMR throughput in Fig. 9(a)). Also here: write-ahead durability with
   deterministic recovery, and the 2PC participant step a replica runs
   in a sharded deployment. *)

open Replica
module Value = Storage.Value

(* ---- Cross-shard 2PC participant state -------------------------- *)

(* In a sharded deployment every replica of a shard additionally acts
   as a 2PC participant: prepares trial-execute and lock, decisions
   unlock and (on commit) really execute. All of this state is
   reconstructed after a crash by replaying the WAL through the same
   [x2pc_apply] used live (with sends suppressed), so it needs no
   snapshotting of its own. *)

type x2pc_config = {
  xc_shard : int;
  xc_coord : loc;
  xc_keys_of : Txn.t -> Shard.key list;
  xc_on_apply :
    shard:int ->
    node:loc ->
    client:loc ->
    seq:int ->
    commit:bool ->
    keys:Shard.key list ->
    unit;
}

type x2pc_staged = {
  g_txn : Txn.t;
  g_keys : Shard.key list;
  g_participants : int list;
  g_vote : Txn.reply;
}

type x2pc = {
  xcfg : x2pc_config;
  x_self : loc;
  staged : (loc * int, x2pc_staged) Hashtbl.t;  (* xid = (client, seq) *)
  locks : (Shard.key, loc * int) Hashtbl.t;  (* key -> locking xid *)
  mutable deferred : Txn.t list;
      (* single-shard transactions delivered while a key they touch was
         locked by an undecided prepare; drained in order at decision
         application *)
  applied : (loc * int, bool) Hashtbl.t;
      (* every decided xid — dedups re-broadcast decisions *)
}

let xid_of (t : Txn.t) = (t.Txn.client, t.Txn.seq)

let x2pc_locked x keys = List.exists (fun k -> Hashtbl.mem x.locks k) keys

(* Deterministic 2PC participant step, shared verbatim by live TOB
   delivery and WAL-replay recovery: the effects ([exec_reply] for
   single-shard transactions, [exec] for committed sub-transactions,
   [send_vote] toward the coordinator) are the only difference between
   the two callers — recovery suppresses the sends and re-executes
   silently, leaving locks/staged/deferred/applied exactly as the
   pre-crash replica had them. *)
let x2pc_apply ~sreg ~db x payload ~exec_reply ~exec ~send_vote =
  let drain () =
    let still =
      List.filter
        (fun t ->
          if x2pc_locked x (x.xcfg.xc_keys_of t) then true
          else begin
            exec_reply t;
            false
          end)
        x.deferred
    in
    x.deferred <- still
  in
  match payload with
  | P_txn txn ->
      (* Single-shard transaction ordered by this shard's own TOB. If a
         key is locked by an undecided prepare it must wait for the
         decision — executing now would read uncommitted 2PC state. *)
      if x2pc_locked x (x.xcfg.xc_keys_of txn) then
        x.deferred <- x.deferred @ [ txn ]
      else exec_reply txn
  | P_prepare (_coord, shard, participants, ptxn) ->
      if shard = x.xcfg.xc_shard then begin
        let xid = xid_of ptxn in
        if not (Hashtbl.mem x.applied xid || Hashtbl.mem x.staged xid)
        then begin
          let keys = x.xcfg.xc_keys_of ptxn in
          if x2pc_locked x keys then
            (* No-vote: not staged, no locks taken, never resent — a
               lost no-vote is covered by the coordinator's timeout
               abort. Sinfonia-style: never wait for a lock, so there
               is no distributed deadlock. *)
            send_vote ~participants
              ~vote:
                {
                  Txn.client = ptxn.Txn.client;
                  seq = ptxn.Txn.seq;
                  outcome = Error "locked";
                }
              ~vtxn:ptxn
          else begin
            let vote = Txn.execute_trial sreg db ptxn in
            (match vote.Txn.outcome with
            | Ok _ ->
                List.iter (fun k -> Hashtbl.replace x.locks k xid) keys;
                Hashtbl.replace x.staged xid
                  {
                    g_txn = ptxn;
                    g_keys = keys;
                    g_participants = participants;
                    g_vote = vote;
                  }
            | Error _ -> ());
            send_vote ~participants ~vote ~vtxn:ptxn
          end
        end
        (* Duplicate prepare of a staged xid: ignored — the periodic
           vote-resend timer already covers a lost yes-vote. *)
      end
  | P_decision (shard, commit, dtxn) ->
      if shard = x.xcfg.xc_shard then begin
        let xid = xid_of dtxn in
        if not (Hashtbl.mem x.applied xid) then begin
          Hashtbl.replace x.applied xid commit;
          let keys =
            match Hashtbl.find_opt x.staged xid with
            | Some g ->
                Hashtbl.remove x.staged xid;
                g.g_keys
            | None ->
                (* Never staged (missed the prepare, or no-voted): the
                   decision carries the sub-transaction, so a commit
                   still applies. *)
                x.xcfg.xc_keys_of dtxn
          in
          List.iter
            (fun k ->
              match Hashtbl.find_opt x.locks k with
              | Some owner when owner = xid -> Hashtbl.remove x.locks k
              | _ -> ())
            keys;
          if commit then exec dtxn;
          x.xcfg.xc_on_apply ~shard ~node:x.x_self ~client:(fst xid)
            ~seq:(snd xid) ~commit ~keys;
          drain ()
        end
      end
  | P_reconfig _ | P_bytes _ ->
      (* Reconfiguration is disabled in sharded mode: a spare activated
         mid-2PC would lack lock/stage state. *)
      ()

(* Per-node durability hooks: [dur_backend i] supplies node [i]'s
   persistent backend (file-backed live, in-memory under the sim),
   [dur_policy i] its group-commit/snapshot cadence, and
   [dur_on_recover] observes the recovery report each time node [i]
   (re)initializes — the monitors and the chaos drill hang off it. *)
type durability = {
  dur_backend : int -> Durable.Backend.t;
  dur_policy : int -> Durable.Manager.policy;
  dur_on_recover : int -> Durable.Manager.report -> state_hash:int -> unit;
}

(* Deterministic recovery, run on the node's first event after every
   (re)start: install the latest valid snapshot, truncate any torn WAL
   tail, replay the remaining records through the normal transaction
   engine. A fresh node recovers from an empty backend to the initial
   state. *)
let recover n ~xstate (i, dur) =
  let install (w : Durable.Wal.record) =
    match Codec.decode_rows w.Durable.Wal.payload with
    | Ok rows -> (
        Database.clear_data n.db;
        match Database.load_rows n.db rows with
        | Ok () -> ()
        | Error e ->
            Sim.Invariant.fail "durable"
              "node %d: snapshot install failed: %s" i e)
    | Error e ->
        Sim.Invariant.fail "durable"
          "node %d: snapshot payload undecodable: %s" i e
  in
  let apply (w : Durable.Wal.record) =
    match xstate with
    | Some x ->
        (* Replay the identical participant step with sends suppressed:
           database, locks, staged votes, deferred queue and
           applied-decision set all come back exactly as logged. Votes
           flow again via the periodic resend timer, not here. *)
        let silent txn = ignore (Txn.execute n.reg n.db txn) in
        x2pc_apply ~sreg:n.reg ~db:n.db x
          (decode_payload w.Durable.Wal.payload)
          ~exec_reply:silent ~exec:silent
          ~send_vote:(fun ~participants:_ ~vote:_ ~vtxn:_ -> ())
    | None -> (
        match decode_payload w.Durable.Wal.payload with
        | P_txn txn -> ignore (Txn.execute n.reg n.db txn)
        | P_reconfig _ | P_prepare _ | P_decision _ | P_bytes _ -> ())
  in
  let mgr, report =
    Durable.Manager.recover (dur.dur_backend i) (dur.dur_policy i) ~install
      ~apply
  in
  dur.dur_on_recover i report ~state_hash:(Database.content_hash n.db);
  (mgr, report)

type smr_role = Active | Sparing | Syncing

type smr_replica = {
  n : node;  (* [gseq]: delivered entries counted by every node *)
  mutable tob : TM.t;
  mutable role : smr_role;
  mutable buffered : Txn.t list;  (* delivered while syncing, oldest first *)
  mutable pending_snapshot : ((string * Value.t array) list * int) option;
      (* proposer-side snapshot taken at reconfig delivery *)
  mutable sync_proposer : loc option;
      (* who to (re-)request the snapshot from while Syncing *)
  sx2pc : x2pc option;  (* 2PC participant state, sharded mode only *)
  sdur : Durable.Manager.t option;  (* write-ahead durability, if on *)
  mutable sdur_floor : int;
      (* highest TOB seqno already applied (recovered or live): a
         restarted broadcast member re-delivers the total order from
         where its peers re-learn it, so deliveries at or below the
         floor are duplicates of recovered state and must be skipped *)
}

type smr_cluster = {
  smr_nodes : loc list;
  smr_active_of : loc -> bool;
  smr_cfg_of : loc -> int;
  smr_gseq_of : loc -> int;
  smr_hash_of : loc -> int;
  smr_db_view : 'a. loc -> (Database.t -> 'a) -> default:'a -> 'a;
      (* read-only view of a replica's database (e.g. conservation
         sums in the checker); [default] when the node never
         initialized *)
}

let smr_exec ctx r txn =
  let reply = Txn.execute r.n.reg r.n.db txn in
  R.charge ctx (r.n.tun.exec_overhead +. Database.take_cost r.n.db);
  send_db ctx txn.Txn.client (Db_msg.Reply reply)

let request_snapshot ctx r proposer =
  send_db ctx proposer
    (Db_msg.Snapshot_req { cfg = r.n.cfg.Config.seq; from_seq = r.n.gseq })

let smr_adopt ctx r proposal ~proposer =
  r.n.cfg <- proposal;
  reset_hb r.n ~now:(R.time ctx);
  let member = Config.contains proposal r.n.self in
  match (r.role, member) with
  | Active, true -> ()
  | Active, false ->
      r.role <- Sparing;
      r.buffered <- []
  | Sparing, true ->
      (* Activated: buffer subsequent transactions and fetch the
         snapshot corresponding to this point of the total order. *)
      r.role <- Syncing;
      r.buffered <- [];
      r.n.installing <- false;
      r.sync_proposer <- Some proposer;
      request_snapshot ctx r proposer
  | Sparing, false -> ()
  | Syncing, true -> ()
  | Syncing, false ->
      r.role <- Sparing;
      r.buffered <- []

(* One WAL record per applied transaction: [idx] is the TOB delivery
   seqno (the position in the total order), [aux] the replica's
   delivered-entry count, [hash] the state fingerprint after applying,
   [payload] the delivered entry's payload verbatim (so replay decodes
   it with the same codec as delivery). *)
let smr_durable_record r (d : Tob.deliver) =
  {
    Durable.Wal.idx = d.Tob.seqno;
    aux = r.n.gseq;
    hash = Database.content_hash r.n.db;
    payload = d.Tob.entry.Tob.payload;
  }

let smr_durable_image ctx r =
  let rows = Database.dump r.n.db in
  R.charge ctx (Database.take_cost r.n.db);
  Codec.encode_rows rows

(* Apply one delivered entry at an active replica: [exec] runs it, the
   WAL logs it (and may snapshot, if [snapshot]), and the runtime tap
   sees the delivery and the resulting state fingerprint. *)
let smr_apply ctx r (d : Tob.deliver) ~snapshot exec =
  if R.observing ctx then
    R.observe ctx
      (R.Ob_deliver
         {
           seqno = d.Tob.seqno;
           origin = d.Tob.entry.Tob.origin;
           id = d.Tob.entry.Tob.id;
           payload = d.Tob.entry.Tob.payload;
         });
  exec ();
  (match r.sdur with
  | None -> ()
  | Some mgr ->
      Durable.Manager.append mgr (smr_durable_record r d);
      if snapshot then
        Durable.Manager.maybe_snapshot mgr ~payload:(fun () ->
            smr_durable_image ctx r));
  if R.observing ctx then
    R.observe ctx
      (R.Ob_checkpoint
         {
           group =
             (match r.sx2pc with Some x -> x.xcfg.xc_shard | None -> 0);
           gseq = r.n.gseq;
           seqno = d.Tob.seqno;
           hash = Database.content_hash r.n.db;
         })

let smr_deliver ctx r (d : Tob.deliver) =
  if r.sdur <> None && d.Tob.seqno <= r.sdur_floor then
    (* Duplicate of recovered state: a restarted broadcast member
       re-delivers entries the WAL already covers. Skip entirely — the
       recovered [gseq] already counted them. *)
    ()
  else begin
    r.sdur_floor <- max r.sdur_floor d.Tob.seqno;
    R.charge ctx Broadcast.Shell.default_costs.per_entry;
    r.n.gseq <- r.n.gseq + 1;
    match r.sx2pc with
    | Some x ->
        (* Sharded mode: every delivery (transaction, prepare or
           decision) flows through the 2PC participant step, and every
           delivery is WAL-logged so recovery replays the identical
           sequence. No snapshots here — a snapshot would capture the
           database but not the lock/stage tables, so sharded replicas
           recover by full-log replay. *)
        if r.role = Active then
          smr_apply ctx r d ~snapshot:false (fun () ->
              x2pc_apply ~sreg:r.n.reg ~db:r.n.db x
                (decode_payload d.Tob.entry.Tob.payload)
                ~exec_reply:(fun txn -> smr_exec ctx r txn)
                ~exec:(fun txn ->
                  ignore (Txn.execute r.n.reg r.n.db txn);
                  R.charge ctx
                    (r.n.tun.exec_overhead +. Database.take_cost r.n.db))
                ~send_vote:(fun ~participants ~vote ~vtxn ->
                  send_db ctx x.xcfg.xc_coord
                    (Db_msg.Vote
                       { shard = x.xcfg.xc_shard; participants; vote; vtxn })))
    | None -> (
        match decode_payload d.Tob.entry.Tob.payload with
        | P_txn txn -> (
            match r.role with
            | Active ->
                smr_apply ctx r d ~snapshot:true (fun () -> smr_exec ctx r txn)
            | Syncing -> r.buffered <- r.buffered @ [ txn ]
            | Sparing -> ())
        | P_reconfig (proposal, _, proposer) ->
            if proposal.Config.seq = r.n.cfg.Config.seq + 1 then begin
              (* The proposer snapshots its database at this exact point
                 of the delivery order, so the spare can take over from
                 here. *)
              if r.n.self = proposer && r.role = Active then begin
                r.pending_snapshot <- Some (Database.dump r.n.db, r.n.gseq);
                R.charge ctx (Database.take_cost r.n.db)
              end;
              smr_adopt ctx r proposal ~proposer
            end
        | P_prepare _ | P_decision _ -> ()  (* sharded records, plain group *)
        | P_bytes _ -> ())
  end

let smr_feed_tob ctx r (t, acts) =
  r.tob <- t;
  List.iter
    (function
      | TM.Send (dst, m) -> R.send ctx ~size:256 dst (Svc m)
      | TM.Notify (dst, d) ->
          if dst = r.n.self then smr_deliver ctx r d
          else R.send ctx dst (Note d)
      | TM.Set_timer delay -> ignore (R.set_timer ctx delay "tob"))
    acts

let smr_check_suspicion ctx r =
  (* A syncing spare re-requests the snapshot until it arrives (the
     proposer may deliver the reconfiguration after we did). *)
  (match (r.role, r.sync_proposer) with
  | Syncing, Some proposer when not r.n.installing ->
      request_snapshot ctx r proposer
  | _ -> ());
  if r.role = Active then
    check_suspicion ctx r.n ~submit:(fun entry ->
        smr_feed_tob ctx r
          (TM.recv r.tob ~now:(R.time ctx) ~src:r.n.self (TM.Broadcast entry)))

(* Resend the yes-votes of every still-staged xid (sorted for
   determinism): a vote sent before the coordinator crashed — or lost
   with a crashed shard replica — must keep flowing until the decision
   arrives. Runs on the same periodic timer as failure detection. *)
let x2pc_resend_votes ctx x =
  let entries = Hashtbl.fold (fun xid g acc -> (xid, g) :: acc) x.staged [] in
  List.iter
    (fun (_, g) ->
      send_db ctx x.xcfg.xc_coord
        (Db_msg.Vote
           {
             shard = x.xcfg.xc_shard;
             participants = g.g_participants;
             vote = g.g_vote;
             vtxn = g.g_txn;
           }))
    (List.sort (fun (a, _) (b, _) -> compare a b) entries)

let handle ctx r = function
  | R.Init ->
      smr_feed_tob ctx r (TM.start r.tob ~now:(R.time ctx));
      start_timers ctx r.n
  | R.Timer { tag = "tob"; _ } ->
      smr_feed_tob ctx r (TM.tick r.tob ~now:(R.time ctx))
  | R.Timer { tag = "hb"; _ } -> heartbeat ctx r.n ~live:(r.role = Active)
  | R.Timer { tag = "detect"; _ } ->
      (match r.sx2pc with
      | Some x ->
          (* Sharded mode: no suspicion/reconfiguration (spares can't
             inherit 2PC state); the timer drives vote resends
             instead. *)
          if r.role = Active then x2pc_resend_votes ctx x
      | None -> smr_check_suspicion ctx r);
      rearm_detect ctx r.n
  | R.Timer _ -> ()
  | R.Recv { src; msg } -> (
      match msg with
      | Svc m ->
          (match m with
          | TM.Broadcast _ ->
              R.charge ctx Broadcast.Shell.default_costs.client_msg
          | TM.Core _ -> R.charge ctx Broadcast.Shell.default_costs.core_msg);
          smr_feed_tob ctx r (TM.recv r.tob ~now:(R.time ctx) ~src m)
      | Note d -> smr_deliver ctx r d
      | Db (Db_msg.Heartbeat _) -> heard ctx r.n src
      | Db (Db_msg.Snapshot_req { cfg; _ }) -> (
          if cfg = r.n.cfg.Config.seq then
            match r.pending_snapshot with
            | None -> ()
            | Some (rows, upto) ->
                List.iter (send_db ctx src)
                  (snapshot_chunks r.n ~cfg ~upto ~clients:[] rows))
      | Db (Db_msg.Snapshot { cfg; rows; upto = _; last; clients = _ }) ->
          if cfg = r.n.cfg.Config.seq && r.role = Syncing then begin
            install_chunk ctx r.n ~layer:"smr" ~halt:ignore rows ~last;
            if last then begin
              r.role <- Active;
              r.sync_proposer <- None;
              let todo = r.buffered in
              r.buffered <- [];
              List.iter (smr_exec ctx r) todo;
              (* The installed state supersedes whatever the WAL
                 described: pin the transferred position and snapshot
                 it so a crash right after state transfer recovers to
                 here, not to the stale pre-transfer log. *)
              match r.sdur with
              | None -> ()
              | Some mgr ->
                  Durable.Manager.install_state mgr
                    {
                      Durable.Wal.idx = r.sdur_floor;
                      aux = r.n.gseq;
                      hash = Database.content_hash r.n.db;
                      payload = smr_durable_image ctx r;
                    }
            end
          end
      | Db _ -> ())

let spawn_smr_group ?(name_prefix = "") ?x2pc ?(tun = default_tuning)
    ?(backends : Storage.Store.kind list option) ?durability ?tob_window
    ~world ~registry ~setup ~n_active () =
  let shared : smr_replica Registry.t = Registry.create () in
  let nodes_ref = ref [] in
  let init i ~self ~now =
    let nodes = !nodes_ref in
    let members = List.filteri (fun i _ -> i < n_active) nodes in
    let n =
      create_node ~self ~now ~nodes ~members
        ~backend:(backend_of backends i) ~setup ~registry ~tun
    in
    (* 2PC participant state precedes recovery so WAL replay can
       repopulate it. *)
    let xstate =
      Option.map
        (fun xcfg ->
          {
            xcfg;
            x_self = self;
            staged = Hashtbl.create 16;
            locks = Hashtbl.create 64;
            deferred = [];
            applied = Hashtbl.create 64;
          })
        x2pc
    in
    let recovery =
      Option.map (fun d -> recover n ~xstate (i, d)) durability
    in
    let r =
      {
        n;
        tob =
          TM.create ?window:tob_window ~self ~members:nodes
            ~subscribers:[ self ] ();
        role = (if List.mem self members then Active else Sparing);
        buffered = [];
        pending_snapshot = None;
        sync_proposer = None;
        sx2pc = xstate;
        sdur = Option.map fst recovery;
        sdur_floor =
          (match recovery with
          | Some (_, rep) -> rep.Durable.Manager.recovered_idx
          | None -> -1);
      }
    in
    Option.iter
      (fun (_, rep) -> n.gseq <- rep.Durable.Manager.recovered_aux)
      recovery;
    Registry.set shared self r;
    r
  in
  let nodes =
    List.init 3 (fun i ->
        R.spawn world
          ~name:(Printf.sprintf "%ssmr%d" name_prefix i)
          (R.Proc.stateful_handler ~init:(init i) ~handle))
  in
  nodes_ref := nodes;
  let view l f ~default = Registry.view shared l f ~default in
  {
    smr_nodes = nodes;
    smr_active_of = (fun l -> view l (fun r -> r.role = Active) ~default:false);
    smr_cfg_of = (fun l -> view l (fun r -> r.n.cfg.Config.seq) ~default:(-1));
    smr_gseq_of = (fun l -> view l (fun r -> r.n.gseq) ~default:0);
    smr_hash_of =
      (fun l -> view l (fun r -> Database.content_hash r.n.db) ~default:0);
    smr_db_view = (fun l f ~default -> view l (fun r -> f r.n.db) ~default);
  }

let spawn_smr ?tun ?backends ?durability ?tob_window ~world ~registry
    ~setup ~n_active () =
  spawn_smr_group ?tun ?backends ?durability ?tob_window ~world ~registry
    ~setup ~n_active ()
