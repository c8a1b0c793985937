type loc = int

type entry = { origin : loc; id : int; payload : string }

type batch = entry list

type deliver = { seqno : int; entry : entry }

module Entry_key = struct
  type t = loc * int

  let compare = compare
end

module Key_set = Set.Make (Entry_key)

module Make (C : Consensus.Consensus_intf.S) = struct
  type msg = Broadcast of entry | Core of batch C.msg

  type action = Send of loc * msg | Notify of loc * deliver | Set_timer of float

  type t = {
    self : loc;
    members : loc list;
    subscribers : loc list;
    batch_cap : int;
    window : int;  (* max batches in flight through consensus at once *)
    core : batch C.t;
    pending : entry list;  (* accumulated, newest last *)
    awaiting : batch list;  (* our batches in flight, oldest first *)
    seqno : int;
    seen : Key_set.t;  (* (origin, id) of delivered entries *)
    delivered_log : entry list;  (* reverse delivery order *)
    last_progress : float;
  }

  (* No-progress interval after which a member prods its consensus core. *)
  let suspect_timeout = 0.5

  let create ?(batch_cap = 64) ?(window = 1) ~self ~members ~subscribers () =
    {
      self;
      members;
      subscribers;
      batch_cap;
      window = max 1 window;
      core = C.create ~self ~members;
      pending = [];
      awaiting = [];
      seqno = 0;
      seen = Key_set.empty;
      delivered_log = [];
      last_progress = 0.0;
    }

  let delivered t = t.seqno

  let log t = List.rev t.delivered_log

  let take n l =
    let rec go n acc = function
      | [] -> (List.rev acc, [])
      | rest when n = 0 -> (List.rev acc, rest)
      | x :: rest -> go (n - 1) (x :: acc) rest
    in
    go n [] l

  (* Unfold one decided batch into sequence-numbered notifications,
     skipping entries already delivered (duplicate suppression). *)
  let deliver_batch t batch =
    List.fold_left
      (fun (t, acts) entry ->
        let key = (entry.origin, entry.id) in
        if Key_set.mem key t.seen then (t, acts)
        else
          let d = { seqno = t.seqno; entry } in
          let t =
            {
              t with
              seqno = t.seqno + 1;
              seen = Key_set.add key t.seen;
              delivered_log = entry :: t.delivered_log;
            }
          in
          (t, acts @ List.map (fun s -> Notify (s, d)) t.subscribers))
      (t, []) batch

  (* Drop the first occurrence of [batch] from the in-flight list, if
     present. Decisions arrive in slot order and our proposals take slots
     in propose order, so a decided batch of ours is normally the head —
     but a proposal that lost its slot is re-proposed by the core and may
     decide later, so we scan the whole list. *)
  let rec remove_awaiting batch = function
    | [] -> []
    | b :: rest -> if b = batch then rest else b :: remove_awaiting batch rest

  let rec integrate t now core_acts acts =
    match core_acts with
    | [] -> maybe_propose t acts
    | Consensus.Consensus_intf.Send (dst, m) :: rest ->
        integrate t now rest (acts @ [ Send (dst, Core m) ])
    | Consensus.Consensus_intf.Set_timer d :: rest ->
        integrate t now rest (acts @ [ Set_timer d ])
    | Consensus.Consensus_intf.Deliver { s = _; c = batch } :: rest ->
        let t = { t with last_progress = now } in
        let t = { t with awaiting = remove_awaiting batch t.awaiting } in
        let t, notifies = deliver_batch t batch in
        integrate t now rest (acts @ notifies)

  (* Propose batches while the pipeline window has room. Each propose
     recurses through [integrate], which lands back here, so a window of k
     opens up to k slots in one step. *)
  and maybe_propose t acts =
    if t.pending = [] || List.length t.awaiting >= t.window then (t, acts)
    else begin
      let batch, rest = take t.batch_cap t.pending in
      let t = { t with awaiting = t.awaiting @ [ batch ]; pending = rest } in
      let core, core_acts = C.propose t.core batch in
      (* Proposing cannot itself deliver our fresh batch synchronously in
         any sensible core, but integrate handles it uniformly anyway. *)
      integrate { t with core } t.last_progress core_acts acts
    end

  let start t ~now =
    let core, core_acts = C.start t.core in
    let t, acts = integrate { t with core; last_progress = now } now core_acts [] in
    (t, acts @ [ Set_timer suspect_timeout ])

  let recv t ~now ~src msg =
    match msg with
    | Broadcast entry ->
        let t = { t with pending = t.pending @ [ entry ] } in
        maybe_propose t []
    | Core m ->
        let core, core_acts = C.recv t.core ~src m in
        integrate { t with core } now core_acts []

  (* Periodic tick: prod the consensus core if an in-flight proposal has
     made no progress for [suspect_timeout] (crash suspicion → leader
     takeover / retransmission), then re-arm the heartbeat. *)
  let tick t ~now =
    let stuck =
      t.awaiting <> [] && now -. t.last_progress > suspect_timeout
    in
    let t, acts =
      if stuck then begin
        let core, core_acts = C.tick t.core in
        integrate { t with core; last_progress = now } now core_acts []
      end
      else (t, [])
    in
    (t, acts @ [ Set_timer (suspect_timeout /. 2.0) ])
end
