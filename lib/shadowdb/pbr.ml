(* Primary-backup replication (paper Sec. III-A) and chain replication
   over the same substrate.

   PBR: a hand-coded normal case — the primary executes, forwards to the
   backups, waits for all acknowledgements and answers the client — with
   TOB-ordered reconfiguration, election by largest executed sequence
   number, and transaction-cache or full-snapshot state transfer. Chain
   replication reuses all of it but routes updates head → tail. *)

open Replica

(* Bounded cache of recently executed transactions (for catch-up): a
   ring indexed by [gseq mod cap], so a push is O(1) and a range costs
   its length. A slot holds the last transaction pushed in its residue
   class; a range is served only if every slot holds exactly the number
   asked for, so a gap (after a snapshot install) or an overwritten
   number gives [None]. *)
module Cache = struct
  type t = { cap : int; slots : (int * Txn.t) option array }

  let create cap = { cap; slots = Array.make cap None }

  let push t gseq txn =
    if t.cap > 0 then t.slots.(gseq mod t.cap) <- Some (gseq, txn)

  (* Transactions with global number in (from, upto], oldest first;
     [None] if the cache no longer spans that range. *)
  let range t ~from ~upto =
    let rec go g acc =
      if g <= from then Some acc
      else
        match t.slots.(g mod t.cap) with
        | Some ((g', _) as e) when g' = g -> go (g - 1) (e :: acc)
        | Some _ | None -> None
    in
    if upto < from || upto - from > t.cap then None else go upto []
end

type pbr_cluster = {
  pbr_replicas : loc list;  (* actives first, then spares *)
  pbr_tob : loc list;
  pbr_initial_primary : loc;
  pbr_primary_of : loc -> loc;  (* current primary, per replica view *)
  pbr_cfg_of : loc -> int;  (* configuration seqno, per replica view *)
  pbr_gseq_of : loc -> int;
  pbr_hash_of : loc -> int;  (* database content hash (tests) *)
}

type replication_style = Primary_backup | Chain

type pbr_replica = {
  n : node;  (* [gseq] counts executed transactions *)
  style : replication_style;
  read_kinds : string list;
      (* Chain: transaction kinds served read-only at the tail *)
  p_tob : loc list;
  mutable primary : loc;
  mutable running : bool;
  cache : Cache.t;
  client_tbl : (loc, Txn.reply) Hashtbl.t;  (* latest reply per client *)
  pending : (int, Txn.t * Sim.Node_id.Set.t ref) Hashtbl.t;
  mutable elect_votes : (loc * int) list;
  mutable elected : bool;  (* election resolved for current cfg *)
  mutable awaiting_recovered : Sim.Node_id.Set.t;
  mutable recovered_set : Sim.Node_id.Set.t;
      (* primary-side: members known up to date; transactions wait only
         for acknowledgments from these (the paper's overlapped state
         transfer: normal processing resumes once at least one backup
         caught up, snapshots stream to the rest in parallel) *)
  mutable fwd_buffer : (int * Txn.t) list;
      (* backup-side: forwards arriving while a snapshot installs *)
}

let cfg_seq r = r.n.cfg.Config.seq
let backups r = List.filter (fun m -> m <> r.primary) r.n.cfg.Config.members

let chain_head r =
  match r.n.cfg.Config.members with m :: _ -> m | [] -> r.n.self

let chain_tail r =
  match List.rev r.n.cfg.Config.members with m :: _ -> m | [] -> r.n.self

let chain_successor r =
  let rec go = function
    | a :: b :: _ when a = r.n.self -> Some b
    | _ :: rest -> go rest
    | [] -> None
  in
  go r.n.cfg.Config.members

let charge_db ctx r = R.charge ctx (Database.take_cost r.n.db)

let exec_and_record ctx r txn =
  let reply = Txn.execute r.n.reg r.n.db txn in
  R.charge ctx r.n.tun.exec_overhead;
  charge_db ctx r;
  r.n.gseq <- r.n.gseq + 1;
  Cache.push r.cache r.n.gseq txn;
  Hashtbl.replace r.client_tbl txn.Txn.client reply;
  reply

(* Per-client exactly-once: re-answer the latest request from the reply
   cache, drop stale ones, run [fresh] for a new one. *)
let dedup ctx r (txn : Txn.t) fresh =
  match Hashtbl.find_opt r.client_tbl txn.Txn.client with
  | Some old when old.Txn.seq = txn.Txn.seq ->
      send_db ctx txn.Txn.client (Db_msg.Reply old)
  | Some old when old.Txn.seq > txn.Txn.seq -> ()
  | Some _ | None -> fresh ()

(* Step 3: adopt the first proposal for the successor configuration and
   start the election. *)
let adopt_config ctx r proposal =
  r.n.cfg <- proposal;
  r.running <- false;
  r.elected <- false;
  r.elect_votes <- [];
  r.awaiting_recovered <- Sim.Node_id.Set.empty;
  r.recovered_set <- Sim.Node_id.Set.empty;
  r.n.installing <- false;
  r.fwd_buffer <- [];
  Hashtbl.reset r.pending;
  reset_hb r.n ~now:(R.time ctx);
  if in_cfg r.n then begin
    let msg =
      Db_msg.Elect { cfg = proposal.Config.seq; last_seq = r.n.gseq }
    in
    List.iter
      (fun m ->
        if m = r.n.self then
          r.elect_votes <- (r.n.self, r.n.gseq) :: r.elect_votes
        else send_db ctx m msg)
      proposal.Config.members
  end

(* Steps 4–5: the member with the largest sequence number becomes
   primary (ties to the smallest identifier) and brings the others up
   to date from its cache, or with a full snapshot. *)
let conclude_election ctx r =
  let best =
    List.fold_left
      (fun (bl, bs) (l, s) ->
        if s > bs || (s = bs && l < bl) then (l, s) else (bl, bs))
      (max_int, min_int) r.elect_votes
  in
  let primary = fst best in
  r.primary <- primary;
  r.elected <- true;
  if r.n.self = primary then begin
    let others = backups r in
    r.recovered_set <- Sim.Node_id.Set.singleton r.n.self;
    (* Every backup voted (the election only concludes on a full vote
       set), so a missing vote here is a broken internal contract. *)
    let vote_of b =
      Sim.Invariant.assoc ~layer:"pbr"
        ~what:
          (Printf.sprintf "primary %d concluding election: vote of %d"
             r.n.self b)
        b r.elect_votes
    in
    let cached b = Cache.range r.cache ~from:(vote_of b) ~upto:r.n.gseq in
    let fast = List.filter (fun b -> cached b <> None) others in
    (* The paper's overlapped state transfer: wait only for the backups
       that can catch up from the cache; backups needing a full snapshot
       recover in parallel while normal processing resumes (they are
       added to the acknowledgment set when their Recovered arrives). *)
    r.awaiting_recovered <-
      Sim.Node_id.Set.of_list (if fast = [] then others else fast);
    if others = [] then r.running <- true
    else
      List.iter
        (fun b ->
          match cached b with
          | Some txns ->
              send_db ctx b
                (Db_msg.Catchup { cfg = cfg_seq r; txns; upto = r.n.gseq })
          | None ->
              charge_db ctx r;
              let clients =
                Hashtbl.fold (fun _ reply acc -> reply :: acc) r.client_tbl []
              in
              List.iter (send_db ctx b)
                (snapshot_chunks r.n ~cfg:(cfg_seq r) ~upto:r.n.gseq ~clients
                   (Database.dump r.n.db)))
        others
  end

let handle_elect ctx r ~src ~cfg ~last_seq =
  if cfg = cfg_seq r && in_cfg r.n && not r.elected then begin
    if not (List.mem_assoc src r.elect_votes) then
      r.elect_votes <- (src, last_seq) :: r.elect_votes;
    if List.length r.elect_votes = List.length r.n.cfg.Config.members then
      conclude_election ctx r
  end

(* Step 6–7: backups acknowledge recovery; the primary resumes. *)
let handle_recovered r ~src ~cfg =
  if cfg = cfg_seq r && r.n.self = r.primary then begin
    r.awaiting_recovered <- Sim.Node_id.Set.remove src r.awaiting_recovered;
    r.recovered_set <- Sim.Node_id.Set.add src r.recovered_set;
    if Sim.Node_id.Set.is_empty r.awaiting_recovered then r.running <- true
  end

let handle_catchup ctx r ~src ~cfg ~txns ~upto =
  if cfg = cfg_seq r && in_cfg r.n then begin
    (* The sender is the elected primary (we may have missed votes). *)
    r.primary <- src;
    r.elected <- true;
    List.iter
      (fun (g, txn) ->
        if g > r.n.gseq then begin
          r.n.gseq <- g - 1;
          ignore (exec_and_record ctx r txn)
        end)
      txns;
    r.n.gseq <- max r.n.gseq upto;
    r.running <- true;
    send_db ctx r.primary (Db_msg.Recovered { cfg })
  end

let handle_forward ctx r ~cfg ~gseq ~txn =
  if r.style = Chain then begin
    if cfg = cfg_seq r && in_cfg r.n then
      if gseq = r.n.gseq + 1 then begin
        let reply = exec_and_record ctx r txn in
        match chain_successor r with
        | Some next ->
            R.charge ctx r.n.tun.fwd_overhead;
            send_db ctx next (Db_msg.Forward { cfg; gseq = r.n.gseq; txn })
        | None ->
            (* Tail: this transaction has now executed at every replica;
               answer the client. *)
            send_db ctx txn.Txn.client (Db_msg.Reply reply)
      end
      else if gseq > r.n.gseq + 1 then
        r.fwd_buffer <- (gseq, txn) :: r.fwd_buffer
  end
  else if
    (* Backups only accept transactions tagged with their configuration
       (paper Sec. III-A). *)
    cfg = cfg_seq r && in_cfg r.n && r.n.self <> r.primary
  then
    if gseq = r.n.gseq + 1 then begin
      ignore (exec_and_record ctx r txn);
      send_db ctx r.primary (Db_msg.Ack { cfg; gseq })
    end
    else if gseq <= r.n.gseq then
      (* Duplicate (already executed): just re-acknowledge. *)
      send_db ctx r.primary (Db_msg.Ack { cfg; gseq })
    else
      (* Ahead of us: normal processing resumed while our snapshot is
         still installing — buffer and replay once it lands. *)
      r.fwd_buffer <- (gseq, txn) :: r.fwd_buffer

let drain_fwd_buffer ctx r =
  let buffered = List.sort compare (List.rev r.fwd_buffer) in
  r.fwd_buffer <- [];
  List.iter
    (fun (gseq, txn) -> handle_forward ctx r ~cfg:(cfg_seq r) ~gseq ~txn)
    buffered

let handle_snapshot ctx r ~src ~cfg ~rows ~upto ~last ~clients =
  if cfg = cfg_seq r && in_cfg r.n then begin
    r.primary <- src;
    r.elected <- true;
    if not r.n.installing then Hashtbl.reset r.client_tbl;
    install_chunk ctx r.n ~layer:"pbr"
      ~halt:(fun () -> r.running <- false)
      rows ~last;
    if last then begin
      List.iter
        (fun (reply : Txn.reply) ->
          Hashtbl.replace r.client_tbl reply.Txn.client reply)
        clients;
      r.n.gseq <- upto;
      r.running <- true;
      send_db ctx r.primary (Db_msg.Recovered { cfg });
      drain_fwd_buffer ctx r
    end
  end

(* Chain replication (van Renesse & Schneider), the other classic
   protocol the paper's broadcast service supports: updates enter at the
   head, flow down the chain, and the tail answers — its reply proves
   every replica executed. Read-only transactions are served directly by
   the tail. *)
let handle_chain_client_txn ctx r txn =
  if not (r.running && in_cfg r.n) then ()
  else if List.mem txn.Txn.kind r.read_kinds then
    if r.n.self = chain_tail r then
      dedup ctx r txn (fun () ->
          (* Reads execute at the tail only; they do not advance the
             chain's update sequence. *)
          let reply = Txn.execute r.n.reg r.n.db txn in
          R.charge ctx (r.n.tun.exec_overhead +. Database.take_cost r.n.db);
          Hashtbl.replace r.client_tbl txn.Txn.client reply;
          send_db ctx txn.Txn.client (Db_msg.Reply reply))
    else send_db ctx (chain_tail r) (Db_msg.Client_txn txn)
  else if r.n.self = chain_head r then
    dedup ctx r txn (fun () ->
        let reply = exec_and_record ctx r txn in
        match chain_successor r with
        | Some next ->
            R.charge ctx r.n.tun.fwd_overhead;
            send_db ctx next
              (Db_msg.Forward { cfg = cfg_seq r; gseq = r.n.gseq; txn })
        | None -> send_db ctx txn.Txn.client (Db_msg.Reply reply))
  else send_db ctx (chain_head r) (Db_msg.Client_txn txn)

let handle_client_txn ctx r txn =
  if r.style = Chain then handle_chain_client_txn ctx r txn
  else if not (r.running && in_cfg r.n) then ()
  else if r.n.self <> r.primary then
    (* Misrouted: pass it on (the reply goes straight to the client). *)
    send_db ctx r.primary (Db_msg.Client_txn txn)
  else
    dedup ctx r txn (fun () ->
        let reply = exec_and_record ctx r txn in
        let bs = backups r in
        (* Forward to every backup, but wait only for the recovered ones
           (a snapshotting backup buffers and acknowledges later). *)
        let awaited =
          if Sim.Node_id.Set.is_empty r.recovered_set then bs
          else List.filter (fun b -> Sim.Node_id.Set.mem b r.recovered_set) bs
        in
        if awaited = [] && bs = [] then
          send_db ctx txn.Txn.client (Db_msg.Reply reply)
        else begin
          let awaited = if awaited = [] then bs else awaited in
          Hashtbl.replace r.pending r.n.gseq
            (txn, ref (Sim.Node_id.Set.of_list awaited));
          let fwd = Db_msg.Forward { cfg = cfg_seq r; gseq = r.n.gseq; txn } in
          List.iter
            (fun b ->
              R.charge ctx r.n.tun.fwd_overhead;
              send_db ctx b fwd)
            bs
        end)

let handle_ack ctx r ~cfg ~gseq ~src =
  if cfg = cfg_seq r && r.n.self = r.primary then
    match Hashtbl.find_opt r.pending gseq with
    | None -> ()
    | Some (txn, missing) ->
        missing := Sim.Node_id.Set.remove src !missing;
        R.charge ctx (r.n.tun.fwd_overhead /. 2.0);
        if Sim.Node_id.Set.is_empty !missing then begin
          Hashtbl.remove r.pending gseq;
          match Hashtbl.find_opt r.client_tbl txn.Txn.client with
          | Some reply when reply.Txn.seq = txn.Txn.seq ->
              send_db ctx txn.Txn.client (Db_msg.Reply reply)
          | Some _ | None -> ()
        end

let handle_note ctx r (d : Tob.deliver) =
  match decode_payload d.Tob.entry.Tob.payload with
  | P_reconfig (proposal, _, _) ->
      if proposal.Config.seq = cfg_seq r + 1 then adopt_config ctx r proposal
  | P_txn _ | P_prepare _ | P_decision _ | P_bytes _ -> ()

(* A replica stops serving and proposes through the broadcast service
   (reached via its first member, like a client would). *)
let submit_reconfig ctx r entry =
  r.running <- false;
  let tob_contact =
    Sim.Invariant.head ~layer:"pbr"
      ~what:
        (Printf.sprintf "replica %d proposing reconfiguration: TOB members"
           r.n.self)
      r.p_tob
  in
  R.send ctx
    ~size:(String.length entry.Tob.payload + 24)
    tob_contact
    (Svc (TM.Broadcast entry))

let handle ctx r = function
  | R.Init -> start_timers ctx r.n
  | R.Timer { tag = "hb"; _ } -> heartbeat ctx r.n ~live:(in_cfg r.n)
  | R.Timer { tag = "detect"; _ } ->
      if in_cfg r.n then
        check_suspicion ctx r.n ~submit:(submit_reconfig ctx r);
      (* Re-send election votes until the election concludes: a vote
         sent before a peer adopted the configuration is lost. *)
      if in_cfg r.n && not r.elected then begin
        let msg = Db_msg.Elect { cfg = cfg_seq r; last_seq = r.n.gseq } in
        List.iter
          (fun m -> if m <> r.n.self then send_db ctx m msg)
          r.n.cfg.Config.members
      end;
      rearm_detect ctx r.n
  | R.Timer _ -> ()
  | R.Recv { src; msg } -> (
      match msg with
      | Note d -> handle_note ctx r d
      | Svc _ -> ()
      | Db m -> (
          match m with
          | Db_msg.Client_txn txn -> handle_client_txn ctx r txn
          | Db_msg.Forward { cfg; gseq; txn } ->
              handle_forward ctx r ~cfg ~gseq ~txn
          | Db_msg.Ack { cfg; gseq } -> handle_ack ctx r ~cfg ~gseq ~src
          | Db_msg.Reply _ -> ()
          | Db_msg.Heartbeat _ -> heard ctx r.n src
          | Db_msg.Elect { cfg; last_seq } ->
              handle_elect ctx r ~src ~cfg ~last_seq
          | Db_msg.Catchup { cfg; txns; upto } ->
              handle_catchup ctx r ~src ~cfg ~txns ~upto
          | Db_msg.Snapshot { cfg; rows; upto; last; clients } ->
              handle_snapshot ctx r ~src ~cfg ~rows ~upto ~last ~clients
          | Db_msg.Recovered { cfg } -> handle_recovered r ~src ~cfg
          | Db_msg.Snapshot_req _ | Db_msg.Vote _ -> ()))

let spawn_pbr ?(style = Primary_backup) ?(read_kinds = [])
    ?(tun = default_tuning) ?(backends : Storage.Store.kind list option)
    ?tob_window ~world ~registry ~setup ~n_active ~n_spare () =
  let shared : pbr_replica Registry.t = Registry.create () in
  let all_ref = ref [] in
  let tob_ref = ref [] in
  let initial_members () = List.filteri (fun i _ -> i < n_active) !all_ref in
  let init i ~self ~now =
    let members = initial_members () in
    let n =
      create_node ~self ~now ~nodes:!all_ref ~members
        ~backend:(backend_of backends i) ~setup ~registry ~tun
    in
    let r =
      {
        n;
        style;
        read_kinds;
        p_tob = !tob_ref;
        primary = List.fold_left min max_int members;
        running = in_cfg n;
        cache = Cache.create tun.cache_cap;
        client_tbl = Hashtbl.create 64;
        pending = Hashtbl.create 64;
        elect_votes = [];
        elected = true;
        awaiting_recovered = Sim.Node_id.Set.empty;
        recovered_set = Sim.Node_id.Set.empty;
        fwd_buffer = [];
      }
    in
    Registry.set shared self r;
    r
  in
  let replicas =
    List.init (n_active + n_spare) (fun i ->
        R.spawn world
          ~name:(Printf.sprintf "pbr%d" i)
          (R.Proc.stateful_handler ~init:(init i) ~handle))
  in
  all_ref := replicas;
  let tob =
    (* The paper runs PBR's broadcast service interpreted. *)
    Shell.spawn ~profile:Gpm.Engine_profile.Interpreted_opt
      ?window:tob_window ~world
      ~inj:(fun m -> Svc m)
      ~prj:(function Svc m -> Some m | Note _ | Db _ -> None)
      ~inj_notify:(fun d -> Note d)
      ~n:3
      ~subscribers:(fun () -> replicas)
      ()
  in
  tob_ref := tob;
  let view l f ~default = Registry.view shared l f ~default in
  {
    pbr_replicas = replicas;
    pbr_tob = tob;
    pbr_initial_primary = List.fold_left min max_int (initial_members ());
    pbr_primary_of = (fun l -> view l (fun r -> r.primary) ~default:(-1));
    pbr_cfg_of = (fun l -> view l (fun r -> cfg_seq r) ~default:(-1));
    pbr_gseq_of = (fun l -> view l (fun r -> r.n.gseq) ~default:0);
    pbr_hash_of =
      (fun l -> view l (fun r -> Database.content_hash r.n.db) ~default:0);
  }
