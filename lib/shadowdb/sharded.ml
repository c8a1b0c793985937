(* Sharded deployment: N independent SMR groups, each with its own TOB,
   plus one 2PC coordinator whose prepare and decision records are
   ordered inside each participant shard's own TOB (see DESIGN.md). The
   participant side lives in {!Smr}. *)

open Replica
open Smr

type coord_pending = {
  mutable cp_votes : (int * Txn.reply) list;  (* shard -> vote *)
  mutable cp_parts : (int * Txn.t) list;  (* shard -> sub-txn *)
  mutable cp_participants : int list;
  cp_created : float;
}

type coord_decision = {
  cd_commit : bool;
  cd_reply : Txn.reply;
  cd_parts : (int * Txn.t) list;
}

type coord_journal =
  (loc * int, coord_decision) Hashtbl.t * (loc * int) list ref
(* Decisions in decision order, newest first. Allocated by
   [spawn_sharded] (so it survives coordinator restarts — the
   "persisted prepare decision" of the safety argument) unless
   [coord_journal:false] deliberately breaks it for the checker's
   broken-2PC fixture. *)

(* The 2PC coordinator. Deliberately NOT a TOB member: it injects
   prepare and decision records into each participant shard's own TOB
   (via any shard member, like a client would), so the records are
   totally ordered against that shard's transactions. All soft state
   (pending votes) reconstructs after a crash from the participants'
   periodic vote resends; decided outcomes come from the journal.

   Decisions are broadcast one per "pump" tick rather than all at
   once: a handler runs atomically under the sim, so the pump is what
   makes "coordinator crashed after informing some but not all
   participants" a schedulable state the checker can actually reach. *)
let coord_handler ~router ~members_of ~journal ~pending_timeout
    ~pump_interval ~committed ~aborted ~on_decide () =
  let decided, decided_order =
    match (journal : coord_journal option) with
    | Some (tbl, order) -> (tbl, order)
    | None -> (Hashtbl.create 32, ref [])
    (* fresh per incarnation: decisions forgotten on crash *)
  in
  let pendings : (loc * int, coord_pending) Hashtbl.t = Hashtbl.create 32 in
  let pump : (int * bool * Txn.t) Queue.t = Queue.create () in
  (* (shard, xid) entries currently sitting in [pump]: periodic vote
     resends from still-staged replicas re-request their shard's
     decision faster than the one-per-tick pump drains, so without
     dedup the queue grows without bound and every decision falls
     further behind the resend rate. *)
  let queued : (int * (loc * int), unit) Hashtbl.t = Hashtbl.create 32 in
  let pump_armed = ref false in
  let rot = ref 0 in
  let bcast ctx ~shard entry =
    match members_of shard with
    | [] -> ()
    | members ->
        let contact = List.nth members (!rot mod List.length members) in
        incr rot;
        R.send ctx ~size:256 contact (Svc (TM.Broadcast entry))
  in
  let send_prepare ctx ~self ~shard ~participants ~ptxn:(ptxn : Txn.t) =
    bcast ctx ~shard
      {
        Tob.origin = self;
        id =
          Shard.entry_id ~phase:`Prepare ~client:ptxn.Txn.client
            ~seq:ptxn.Txn.seq ~shard;
        payload =
          Codec.encode_payload (P_prepare (self, shard, participants, ptxn));
      }
  in
  let arm_pump ctx =
    if (not !pump_armed) && not (Queue.is_empty pump) then begin
      pump_armed := true;
      ignore (R.set_timer ctx pump_interval "pump")
    end
  in
  let enqueue_decision ((shard, _, dtxn) as d : int * bool * Txn.t) =
    let k = (shard, (dtxn.Txn.client, dtxn.Txn.seq)) in
    if not (Hashtbl.mem queued k) then begin
      Hashtbl.replace queued k ();
      Queue.add d pump
    end
  in
  let decide ctx xid p ~commit =
    let parts =
      List.sort (fun (a, _) (b, _) -> compare a b) p.cp_parts
    in
    let votes =
      List.sort (fun (a, _) (b, _) -> compare a b) p.cp_votes
    in
    let outcome =
      if commit then
        (* Merged cross-shard result: each participant's trial rows,
           concatenated in shard order. *)
        Ok
          (List.concat_map
             (fun (_, v) ->
               match v.Txn.outcome with Ok rows -> rows | Error _ -> [])
             votes)
      else
        Error
          (match
             List.find_opt
               (fun (_, v) ->
                 match v.Txn.outcome with Error _ -> true | Ok _ -> false)
               votes
           with
          | Some (_, v) -> (
              match v.Txn.outcome with Error e -> e | Ok _ -> "aborted")
          | None -> "2pc timeout")
    in
    let reply = { Txn.client = fst xid; seq = snd xid; outcome } in
    Hashtbl.replace decided xid
      { cd_commit = commit; cd_reply = reply; cd_parts = parts };
    decided_order := xid :: !decided_order;
    Hashtbl.remove pendings xid;
    Atomic.incr (if commit then committed else aborted);
    on_decide ~client:(fst xid) ~seq:(snd xid) ~commit;
    send_db ctx (fst xid) (Db_msg.Reply reply);
    List.iter (fun (s, dtxn) -> enqueue_decision (s, commit, dtxn)) parts;
    arm_pump ctx
  in
  fun ctx input ->
    let self = R.self ctx in
    match input with
    | R.Init ->
        (* A restarted coordinator re-broadcasts every journaled
           decision: participants still staged unlock, TOB dedup (the
           stable [Shard.entry_id]) absorbs the rest. Without a journal
           this is a no-op and staged participants hang until the
           timeout abort — the divergence the broken fixture exists to
           exhibit. *)
        List.iter
          (fun xid ->
            match Hashtbl.find_opt decided xid with
            | None -> ()
            | Some d ->
                List.iter
                  (fun (s, dtxn) ->
                    enqueue_decision (s, d.cd_commit, dtxn))
                  d.cd_parts)
          (List.rev !decided_order);
        arm_pump ctx;
        ignore (R.set_timer ctx (pending_timeout /. 2.0) "expire")
    | R.Timer { tag = "pump"; _ } ->
        pump_armed := false;
        (match Queue.take_opt pump with
        | None -> ()
        | Some (shard, commit, dtxn) ->
            Hashtbl.remove queued (shard, (dtxn.Txn.client, dtxn.Txn.seq));
            bcast ctx ~shard
              {
                Tob.origin = self;
                id =
                  Shard.entry_id ~phase:`Decision ~client:dtxn.Txn.client
                    ~seq:dtxn.Txn.seq ~shard;
                payload =
                  Codec.encode_payload (P_decision (shard, commit, dtxn));
              });
        arm_pump ctx
    | R.Timer { tag = "expire"; _ } ->
        (* Abort pendings that outlived the timeout. Always safe: no
           decision exists for them yet, so no participant can have
           committed. Covers lost prepares and lost no-votes. *)
        let now = R.time ctx in
        let stale =
          Hashtbl.fold
            (fun xid p acc ->
              if now -. p.cp_created > pending_timeout then (xid, p) :: acc
              else acc)
            pendings []
        in
        List.iter
          (fun (xid, p) -> decide ctx xid p ~commit:false)
          (List.sort (fun (a, _) (b, _) -> compare a b) stale);
        ignore (R.set_timer ctx (pending_timeout /. 2.0) "expire")
    | R.Timer _ -> ()
    | R.Recv { msg = Db (Db_msg.Client_txn txn); _ } -> (
        let xid = (txn.Txn.client, txn.Txn.seq) in
        match Hashtbl.find_opt decided xid with
        | Some d -> send_db ctx txn.Txn.client (Db_msg.Reply d.cd_reply)
        | None ->
            if not (Hashtbl.mem pendings xid) then (
              match Shard.route router txn with
              | Shard.Local s ->
                  (* Single-shard after all: inject into the owning
                     shard's TOB with the client's own entry identity,
                     so a direct client broadcast of the same
                     transaction dedups against it. *)
                  bcast ctx ~shard:s
                    {
                      Tob.origin = txn.Txn.client;
                      id = txn.Txn.seq;
                      payload = Codec.encode_payload (P_txn txn);
                    }
              | Shard.Distributed parts ->
                  let participants = List.map fst parts in
                  Hashtbl.replace pendings xid
                    {
                      cp_votes = [];
                      cp_parts = parts;
                      cp_participants = participants;
                      cp_created = R.time ctx;
                    };
                  List.iter
                    (fun (s, ptxn) ->
                      send_prepare ctx ~self ~shard:s ~participants ~ptxn)
                    parts))
    | R.Recv { msg = Db (Db_msg.Vote { shard; participants; vote; vtxn }); _ }
      -> (
        let xid = (vote.Txn.client, vote.Txn.seq) in
        match Hashtbl.find_opt decided xid with
        | Some d -> (
            (* The voter is still staged, waiting: re-send just that
               shard's decision. *)
            match List.find_opt (fun (s, _) -> s = shard) d.cd_parts with
            | Some (s, dtxn) ->
                enqueue_decision (s, d.cd_commit, dtxn);
                arm_pump ctx
            | None -> ())
        | None ->
            let p =
              match Hashtbl.find_opt pendings xid with
              | Some p -> p
              | None ->
                  (* Unknown xid: a resent vote reaching a restarted
                     coordinator. The vote carries enough (participants
                     and the sub-transaction) to rebuild the pending
                     entry from scratch. *)
                  let p =
                    {
                      cp_votes = [];
                      cp_parts = [];
                      cp_participants = participants;
                      cp_created = R.time ctx;
                    }
                  in
                  Hashtbl.replace pendings xid p;
                  p
            in
            if not (List.mem_assoc shard p.cp_votes) then
              p.cp_votes <- (shard, vote) :: p.cp_votes;
            if not (List.mem_assoc shard p.cp_parts) then
              p.cp_parts <- (shard, vtxn) :: p.cp_parts;
            if p.cp_participants = [] then p.cp_participants <- participants;
            if
              p.cp_participants <> []
              && List.length p.cp_votes >= List.length p.cp_participants
            then
              let commit =
                List.for_all
                  (fun (_, v) ->
                    match v.Txn.outcome with Ok _ -> true | Error _ -> false)
                  p.cp_votes
              in
              decide ctx xid p ~commit)
    | R.Recv _ -> ()

type sharded_cluster = {
  sh_router : Shard.router;
  sh_coord : loc;
  sh_groups : smr_cluster array;
  sh_nodes : loc list;  (* coordinator first, then every replica *)
  sh_committed : unit -> int;
  sh_aborted : unit -> int;
}

let spawn_sharded ?(tun = default_tuning) ?backends
    ?(durability : (int -> durability option) = fun _ -> None) ?tob_window
    ?(coord_journal = true) ?(pending_timeout = 1.5) ?(pump_interval = 0.005)
    ?(on_apply =
      fun ~shard:_ ~node:_ ~client:_ ~seq:_ ~commit:_ ~keys:_ -> ())
    ?(on_decide = fun ~client:_ ~seq:_ ~commit:_ -> ()) ~world ~registry
    ~setup ~router () =
  let shards = router.Shard.shards in
  if shards <= 0 then
    Sim.Invariant.fail "shard" "spawn_sharded: router.shards <= 0 (%d)" shards;
  let groups_ref = ref [||] in
  let members_of s =
    let gs = !groups_ref in
    if Array.length gs = 0 then [] else gs.(s).smr_nodes
  in
  let journal : coord_journal option =
    if coord_journal then Some (Hashtbl.create 64, ref []) else None
  in
  let committed = Atomic.make 0 and aborted = Atomic.make 0 in
  (* The coordinator spawns first so each shard group can close over
     its concrete location. *)
  let coord =
    R.spawn world ~name:"coord"
      (coord_handler ~router ~members_of ~journal ~pending_timeout
         ~pump_interval ~committed ~aborted ~on_decide)
  in
  let groups =
    Array.init shards (fun s ->
        spawn_smr_group ~name_prefix:(Printf.sprintf "sh%d-" s)
          ~x2pc:
            {
              xc_shard = s;
              xc_coord = coord;
              xc_keys_of = router.Shard.keys_of;
              xc_on_apply = on_apply;
            }
          ~tun ?backends ?durability:(durability s) ?tob_window
          ~world ~registry ~setup:(setup s) ~n_active:3 ())
  in
  groups_ref := groups;
  {
    sh_router = router;
    sh_coord = coord;
    sh_groups = groups;
    sh_nodes =
      coord :: List.concat_map (fun g -> g.smr_nodes) (Array.to_list groups);
    sh_committed = (fun () -> Atomic.get committed);
    sh_aborted = (fun () -> Atomic.get aborted);
  }
