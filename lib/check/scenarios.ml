(* Checkable scenarios over the repo's protocol stack.

   Each scenario builds a small fixed workload (a handful of commands /
   transactions) so that a single schedule runs in well under a second and
   thousands of schedules fit in a test budget. Network profiles are
   chosen so that protocol message cascades land within the scheduler's
   slack window, giving the explorer real choice points. *)

module Engine = Sim.Engine

(* Shared scaffolding -------------------------------------------------- *)

let running ~world ~sched ~step ~fingerprint ~apply_fault ~check ~finish =
  {
    Scenario.step;
    depth = (fun () -> Sched.depth sched);
    decisions = (fun () -> Sched.decisions sched);
    widths = (fun () -> Sched.widths sched);
    fingerprint;
    events = (fun () -> Engine.events_processed world);
    apply_fault;
    check;
    finalize =
      (fun () ->
        finish ();
        check ());
  }

let check_of monitors () =
  match Monitor.first_violation monitors with
  | Some (monitor, detail) -> Some { Scenario.monitor; detail }
  | None -> None

(* Map scenario-relative fault indices onto engine node ids, guarding
   against out-of-range indices and double crash/restart. *)
let fault_applier world ids op =
  let node i = if i >= 0 && i < Array.length ids then Some ids.(i) else None in
  match op with
  | Fault.Crash i ->
      Option.iter
        (fun n -> if Engine.is_alive world n then Engine.crash world n)
        (node i)
  | Fault.Restart i ->
      Option.iter
        (fun n -> if not (Engine.is_alive world n) then Engine.restart world n)
        (node i)
  | Fault.Partition (a, b) -> (
      match (node a, node b) with
      | Some a, Some b when a <> b -> Engine.partition world a b
      | _ -> ())
  | Fault.Heal (a, b) -> (
      match (node a, node b) with
      | Some a, Some b when a <> b -> Engine.heal world a b
      | _ -> ())

let bounded_step world ~horizon ~max_events ~done_ () =
  if
    Engine.now world > horizon
    || Engine.events_processed world >= max_events
    || done_ ()
  then false
  else Engine.step world

(* ---------------------------------------------------------------------- *)
(* Paxos: three co-located Synod members ordering four client commands.   *)
(* ---------------------------------------------------------------------- *)

type pax_wire = P_client of string | P_core of string Consensus.Paxos_msg.t

let paxos : Scenario.t =
  let nodes = 3 in
  let make ~seed ~sched =
    let world : pax_wire Engine.t = Engine.create ~seed () in
    Sched.install sched world;
    let cmds = [ "alpha"; "bravo"; "charlie"; "delta" ] in
    let proposed = Hashtbl.create 8 in
    List.iter (fun c -> Hashtbl.replace proposed c ()) cmds;
    let monitors =
      [
        Monitor.paxos_agreement ();
        Monitor.paxos_validity ~proposed;
        Monitor.paxos_unique ();
      ]
    in
    let states : string Consensus.Paxos.t option array = Array.make nodes None in
    (* Deep-hashing a member's consensus state is the expensive part of a
       fingerprint; between choice points at most a couple of members
       change, so cache each member's digest and re-hash lazily. *)
    let state_h = Array.make nodes 0 in
    let state_dirty = Array.make nodes true in
    let n_decided = ref 0 in
    let observe d =
      incr n_decided;
      List.iter (fun m -> Monitor.observe m d) monitors
    in
    let members = List.init nodes Fun.id in
    let member_ids =
      List.map
        (fun i ->
          Engine.spawn world ~name:(Printf.sprintf "pax%d" i) (fun () ->
              let st = ref None in
              fun ctx input ->
                let self = Engine.self ctx in
                let apply (t, acts) =
                  st := Some t;
                  states.(self) <- Some t;
                  state_dirty.(self) <- true;
                  List.iter
                    (function
                      | Consensus.Consensus_intf.Send (dst, m) ->
                          Engine.send ctx dst (P_core m)
                      | Consensus.Consensus_intf.Deliver { s; c } ->
                          observe { Monitor.member = self; slot = s; cmd = c }
                      | Consensus.Consensus_intf.Set_timer d ->
                          ignore (Engine.set_timer ctx d "core"))
                    acts
                in
                match input with
                | Engine.Init ->
                    apply
                      (Consensus.Paxos.start
                         (Consensus.Paxos.create ~self ~members));
                    (* Staggered liveness kicks: recover leadership after a
                       crash or partition without perturbing fault-free runs
                       (Paxos.tick only re-scouts when leaderless). *)
                    ignore
                      (Engine.set_timer ctx
                         (0.6 +. (0.2 *. float_of_int self))
                         "kick")
                | Engine.Recv { msg = P_core m; src } ->
                    Option.iter
                      (fun t -> apply (Consensus.Paxos.recv t ~src m))
                      !st
                | Engine.Recv { msg = P_client c; _ } ->
                    Option.iter
                      (fun t -> apply (Consensus.Paxos.propose t c))
                      !st
                | Engine.Timer { tag; _ } ->
                    Option.iter (fun t -> apply (Consensus.Paxos.tick t)) !st;
                    if tag = "kick" then
                      ignore (Engine.set_timer ctx 1.0 "kick")))
        members
    in
    let member_arr = Array.of_list member_ids in
    let _client =
      Engine.spawn world ~name:"client" (fun () ->
          fun ctx -> function
            | Engine.Init ->
                List.iteri
                  (fun i _ ->
                    ignore
                      (Engine.set_timer ctx
                         (0.05 *. float_of_int (i + 1))
                         (string_of_int i)))
                  cmds
            | Engine.Timer { tag; _ } ->
                let i = int_of_string tag in
                Engine.send ctx
                  member_arr.(i mod nodes)
                  (P_client (List.nth cmds i))
            | Engine.Recv _ -> ())
    in
    let fingerprint () =
      let h = ref Fingerprint.empty in
      for i = 0 to nodes - 1 do
        if state_dirty.(i) then begin
          state_h.(i) <- Fingerprint.value 0 states.(i);
          state_dirty.(i) <- false
        end;
        h := Fingerprint.int !h state_h.(i)
      done;
      Fingerprint.int !h (Engine.in_flight_fingerprint world)
    in
    let done_ () = !n_decided >= nodes * List.length cmds in
    running ~world ~sched
      ~step:(bounded_step world ~horizon:3.0 ~max_events:5_000 ~done_)
      ~fingerprint
      ~apply_fault:(fault_applier world member_arr)
      ~check:(check_of monitors)
      ~finish:(fun () -> List.iter Monitor.finish monitors)
  in
  { Scenario.name = "paxos"; nodes; make }

(* ---------------------------------------------------------------------- *)
(* TOB: the verified broadcast service (over Paxos) with two closed-loop  *)
(* clients; an observer taps every member's delivery notifications.       *)
(* ---------------------------------------------------------------------- *)

module Sh = Broadcast.Shell.Make (Consensus.Paxos)

type tob_wire = T_svc of Sh.T.msg | T_note of Broadcast.Tob.deliver

(* [window] is the broadcast service's consensus pipelining window; the
   w2/w4 variants check that the total-order monitors still hold when
   members keep several batches in flight through consensus at once. *)
let tob_scenario ~name ~window : Scenario.t =
  let nodes = 3 in
  let n_clients = 2 and per_client = 3 in
  let total = n_clients * per_client in
  let make ~seed ~sched =
    let world : tob_wire Engine.t = Engine.create ~seed () in
    Sched.install sched world;
    let monitors =
      [
        Monitor.tob_total_order ();
        Monitor.tob_gap_free ();
        Monitor.tob_no_dup ();
      ]
    in
    (* Order-independent running digest of all observations: fingerprints
       are taken at every choice point, so they must not re-walk the
       observation history (Fingerprint.unordered over a sum is O(1) to
       maintain per observation). *)
    let obs_digest = ref 0 in
    let delivered_by : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let subs = ref [] in
    let members =
      Sh.spawn ~window ~world:(Runtime.Of_sim.of_engine world)
        ~inj:(fun m -> T_svc m)
        ~prj:(function T_svc m -> Some m | T_note _ -> None)
        ~inj_notify:(fun d -> T_note d)
        ~n:nodes
        ~subscribers:(fun () -> !subs)
        ()
    in
    let member_arr = Array.of_list members in
    let observer =
      Engine.spawn world ~name:"observer" (fun () ->
          fun _ctx -> function
            | Engine.Recv { src; msg = T_note d } ->
                let e = d.Broadcast.Tob.entry in
                obs_digest :=
                  (!obs_digest
                  + Hashtbl.hash
                      (src, d.Broadcast.Tob.seqno, e.Broadcast.Tob.origin, e.id)
                  )
                  land max_int;
                Hashtbl.replace delivered_by src
                  (1 + Option.value (Hashtbl.find_opt delivered_by src) ~default:0);
                List.iter (fun m -> Monitor.observe m (src, d)) monitors
            | _ -> ())
    in
    let clients =
      List.init n_clients (fun c ->
          Engine.spawn world ~name:(Printf.sprintf "cli%d" c) (fun () ->
              let seq = ref 0 in
              let contact = ref c in
              let timer = ref (-1) in
              let submit ctx =
                if !seq < per_client then begin
                  let e =
                    {
                      Broadcast.Tob.origin = Engine.self ctx;
                      id = !seq;
                      payload = Printf.sprintf "c%d-%d" c !seq;
                    }
                  in
                  Engine.send ctx
                    member_arr.(!contact mod nodes)
                    (T_svc (Sh.T.Broadcast e));
                  timer := Engine.set_timer ctx 1.0 "retry"
                end
              in
              fun ctx -> function
                | Engine.Init -> submit ctx
                | Engine.Recv { msg = T_note d; _ } ->
                    let e = d.Broadcast.Tob.entry in
                    if e.Broadcast.Tob.origin = Engine.self ctx && e.id = !seq
                    then begin
                      Engine.cancel_timer ctx !timer;
                      incr seq;
                      submit ctx
                    end
                | Engine.Recv _ -> ()
                | Engine.Timer _ ->
                    (* Resend the same entry to the next member; dedup by
                       (origin, id) keeps delivery exactly-once. *)
                    incr contact;
                    submit ctx))
    in
    subs := observer :: clients;
    let fingerprint () =
      Fingerprint.int
        (Fingerprint.int Fingerprint.empty !obs_digest)
        (Engine.in_flight_fingerprint world)
    in
    let done_ () =
      List.exists (Engine.is_alive world) members
      && List.for_all
           (fun m ->
             (not (Engine.is_alive world m))
             || Option.value (Hashtbl.find_opt delivered_by m) ~default:0
                >= total)
           members
    in
    running ~world ~sched
      ~step:(bounded_step world ~horizon:30.0 ~max_events:50_000 ~done_)
      ~fingerprint
      ~apply_fault:(fault_applier world member_arr)
      ~check:(check_of monitors)
      ~finish:(fun () -> List.iter Monitor.finish monitors)
  in
  { Scenario.name = name; nodes; make }

let tob = tob_scenario ~name:"tob" ~window:1
let tob_w2 = tob_scenario ~name:"tob-w2" ~window:2
let tob_w4 = tob_scenario ~name:"tob-w4" ~window:4

(* ---------------------------------------------------------------------- *)
(* ShadowDB primary-backup and SMR clusters running the bank workload.    *)
(* Monitors here are end-of-run checks over replica state: agreement      *)
(* (within the latest configuration, equal execution counts imply equal   *)
(* content hashes across diverse backends) and durability (every          *)
(* transaction acknowledged to a client survives in the latest            *)
(* configuration).                                                        *)
(* ---------------------------------------------------------------------- *)

module Sdb = Shadowdb.System

let bank_rows = 32

let fast_tun =
  {
    Shadowdb.System.default_tuning with
    hb_interval = 0.05;
    detect_timeout = 0.4;
  }

(* Deterministic per (client, seq): retries resend the same transaction. *)
let make_deposit ~client ~seq =
  let account = abs (Hashtbl.hash (client, seq)) mod bank_rows in
  Workload.Bank.deposit ~account ~amount:1

(* The database part of a scenario's state fingerprint: the committed
   count, then every replica's executed count and content hash in view
   order. *)
let replicas_fingerprint target ~commits =
  List.fold_left
    (fun h g ->
      List.fold_left
        (fun h l ->
          Fingerprint.int (Fingerprint.int h (g.Sdb.gseq_of l)) (g.Sdb.hash_of l))
        h g.Sdb.members)
    (Fingerprint.int Fingerprint.empty commits)
    (Sdb.groups target)

let db_scenario ~name ~spawn nodes : Scenario.t =
  let n_clients = 2 and per_client = 3 in
  let make ~seed ~sched =
    let world : Sdb.wire Engine.t = Engine.create ~seed () in
    Sched.install sched world;
    let rworld = Runtime.Of_sim.of_engine world in
    let target = spawn rworld in
    let g =
      match Sdb.groups target with
      | [ g ] -> g
      | _ -> Sim.Invariant.fail "scenario" "%s: not a single-group cluster" name
    in
    let replica_arr = Array.of_list g.Sdb.members in
    let commits = ref 0 in
    let _, completed =
      Sdb.spawn_clients ~world:rworld ~target ~n:n_clients ~count:per_client
        ~make_txn:make_deposit ~retry_timeout:1.0
        ~on_commit:(fun _ _ -> incr commits)
        ()
    in
    let agreement : unit Monitor.t =
      Monitor.finish_check ~name:(name ^ "-state-agreement") (fun () ->
          Sdb.disagreement target ~alive:(Engine.is_alive world))
    in
    let durability : unit Monitor.t =
      Monitor.finish_check ~name:(name ^ "-durability") (fun () ->
          match Sdb.current g ~alive:(Engine.is_alive world) with
          | [] -> None (* whole latest configuration down: nothing to say *)
          | cur ->
              let maxg =
                List.fold_left (fun acc l -> max acc (g.Sdb.gseq_of l)) 0 cur
              in
              if maxg < !commits then
                Some
                  (Printf.sprintf
                     "%d transactions acknowledged to clients but the \
                      latest configuration only executed %d"
                     !commits maxg)
              else None)
    in
    let monitors = [ agreement; durability ] in
    let done_at = ref nan in
    let done_ () =
      if completed () >= n_clients && Float.is_nan !done_at then
        done_at := Engine.now world;
      (not (Float.is_nan !done_at)) && Engine.now world > !done_at +. 2.0
    in
    let fingerprint () =
      Fingerprint.int
        (replicas_fingerprint target ~commits:!commits)
        (Engine.in_flight_fingerprint world)
    in
    running ~world ~sched
      ~step:(bounded_step world ~horizon:20.0 ~max_events:300_000 ~done_)
      ~fingerprint
      ~apply_fault:(fault_applier world replica_arr)
      ~check:(check_of monitors)
      ~finish:(fun () -> List.iter Monitor.finish monitors)
  in
  { Scenario.name; nodes; make }

let pbr : Scenario.t =
  db_scenario ~name:"pbr"
    ~spawn:(fun world ->
      let c =
        Sdb.spawn_pbr ~tun:fast_tun ~world ~registry:Workload.Bank.registry
          ~setup:(Workload.Bank.setup ~rows:bank_rows)
          ~n_active:2 ~n_spare:1 ()
      in
      Sdb.To_pbr c)
    3

let smr_scenario ~name ~window : Scenario.t =
  db_scenario ~name
    ~spawn:(fun world ->
      let c =
        Sdb.spawn_smr ~tun:fast_tun ~tob_window:window ~world
          ~registry:Workload.Bank.registry
          ~setup:(Workload.Bank.setup ~rows:bank_rows)
          ~n_active:2 ()
      in
      Sdb.To_smr c)
    3

let smr = smr_scenario ~name:"smr" ~window:1
let smr_w2 = smr_scenario ~name:"smr-w2" ~window:2
let smr_w4 = smr_scenario ~name:"smr-w4" ~window:4

(* ---------------------------------------------------------------------- *)
(* Durable SMR: the [smr] cluster and workload, plus a write-ahead log    *)
(* and snapshots on the deterministic in-memory backend. A crash fault    *)
(* tears the victim's unsynced write cache at a random byte boundary      *)
(* before the engine kills it; a restart runs the real recovery path      *)
(* (snapshot install + torn-tail truncation + WAL replay) on the node's   *)
(* first event back. Two monitors check the recovery contract:           *)
(* no-committed-loss (recovery reaches every position the crash left      *)
(* durable) and recovery-agreement (the recovered state fingerprint       *)
(* matches the logged one, and any other durable image retaining that     *)
(* total-order position agrees).                                          *)
(* ---------------------------------------------------------------------- *)

let durable_scenario ~name ~(policy : Durable.Manager.policy) : Scenario.t =
  let nodes = 3 in
  let n_clients = 2 and per_client = 3 in
  let make ~seed ~sched =
    let world : Sdb.wire Engine.t = Engine.create ~seed () in
    Sched.install sched world;
    let rworld = Runtime.Of_sim.of_engine world in
    let mems = Array.init nodes (fun _ -> Durable.Backend.mem_create ()) in
    let torn_rng = Sim.Prng.create ((seed * 7919) + 11) in
    (* Per node: the latest recovery observation (report + state
       fingerprint at recovery time), how many recoveries ran, and — set
       at fault-injection time — the durable position the crash left
       behind, which recovery must reach again. *)
    let recovered = Array.make nodes None in
    let recovers = Array.make nodes 0 in
    let restarted = Array.make nodes false in
    let restart_marker = Array.make nodes 0 in
    let expected_durable = Array.make nodes (-1) in
    let durability =
      {
        Sdb.dur_backend = (fun i -> Durable.Backend.mem_backend mems.(i));
        dur_policy = (fun _ -> policy);
        dur_on_recover =
          (fun i report ~state_hash ->
            recovered.(i) <- Some (report, state_hash);
            recovers.(i) <- recovers.(i) + 1);
      }
    in
    let cluster =
      Sdb.spawn_smr ~tun:fast_tun ~durability ~world:rworld
        ~registry:Workload.Bank.registry
        ~setup:(Workload.Bank.setup ~rows:bank_rows)
        ~n_active:2 ()
    in
    let replica_arr = Array.of_list cluster.Sdb.smr_nodes in
    let commits = ref 0 in
    let _, completed =
      Sdb.spawn_clients ~world:rworld ~target:(Sdb.To_smr cluster)
        ~n:n_clients ~count:per_client ~make_txn:make_deposit
        ~retry_timeout:1.0
        ~on_commit:(fun _ _ -> incr commits)
        ()
    in
    let durable_image i =
      Durable.Manager.inspect
        ~snap:(Durable.Backend.mem_durable_snap mems.(i))
        ~log:(Durable.Backend.mem_durable_log mems.(i))
    in
    let apply_fault op =
      (match op with
      | Fault.Crash i when i >= 0 && i < nodes ->
          if Engine.is_alive world replica_arr.(i) then begin
            Durable.Backend.mem_crash ~keep:(Sim.Prng.int torn_rng 5) mems.(i);
            expected_durable.(i) <-
              (durable_image i).Durable.Manager.i_durable_idx
          end
      | Fault.Restart i when i >= 0 && i < nodes ->
          if not (Engine.is_alive world replica_arr.(i)) then begin
            restarted.(i) <- true;
            restart_marker.(i) <- recovers.(i)
          end
      | _ -> ());
      fault_applier world replica_arr op
    in
    (* Latest recovery observation for node [i], provided a recovery
       actually ran after its restart (the restarted node's Init may
       still be queued when the run ends). *)
    let judge i k =
      if restarted.(i) && recovers.(i) > restart_marker.(i) then
        match recovered.(i) with Some o -> k o | None -> None
      else None
    in
    let each_node k =
      let rec go i =
        if i >= nodes then None
        else match k i with Some v -> Some v | None -> go (i + 1)
      in
      go 0
    in
    let no_loss : unit Monitor.t =
      Monitor.finish_check ~name:(name ^ "-no-committed-loss") (fun () ->
          each_node (fun i ->
              judge i (fun ((rep : Durable.Manager.report), _) ->
                  if rep.Durable.Manager.recovered_idx < expected_durable.(i)
                  then
                    Some
                      (Printf.sprintf
                         "node %d: the crash left records durable up to \
                          total-order position %d but recovery only reached \
                          %d (snapshot %s, %d records replayed, %d stale)"
                         i expected_durable.(i)
                         rep.Durable.Manager.recovered_idx
                         (if rep.Durable.Manager.snapshot_valid then "valid"
                          else "absent")
                         rep.Durable.Manager.wal_replayed
                         rep.Durable.Manager.wal_stale)
                  else None)))
    in
    let recovery_agreement : unit Monitor.t =
      Monitor.finish_check ~name:(name ^ "-recovery-agreement") (fun () ->
          each_node (fun i ->
              judge i (fun ((rep : Durable.Manager.report), state_hash) ->
                  let ridx = rep.Durable.Manager.recovered_idx in
                  if ridx < 0 then None
                  else if state_hash <> rep.Durable.Manager.recovered_hash
                  then
                    Some
                      (Printf.sprintf
                         "node %d: recovered state fingerprint %d differs \
                          from the logged fingerprint %d at position %d"
                         i state_hash rep.Durable.Manager.recovered_hash ridx)
                  else
                    (* Any other durable image retaining position [ridx]
                       must agree on its state fingerprint (all replicas
                       run the same backend kind, so fingerprints are
                       comparable). *)
                    each_node (fun j ->
                        if j = i then None
                        else
                          match
                            Durable.Manager.hash_at (durable_image j) ridx
                          with
                          | Some h
                            when h <> rep.Durable.Manager.recovered_hash ->
                              Some
                                (Printf.sprintf
                                   "nodes %d and %d disagree on the state \
                                    fingerprint at total-order position %d"
                                   i j ridx)
                          | _ -> None))))
    in
    let monitors = [ no_loss; recovery_agreement ] in
    let done_at = ref nan in
    let done_ () =
      if completed () >= n_clients && Float.is_nan !done_at then
        done_at := Engine.now world;
      (not (Float.is_nan !done_at)) && Engine.now world > !done_at +. 2.0
    in
    let fingerprint () =
      let h =
        Array.fold_left
          (fun h m ->
            Fingerprint.int h
              (Hashtbl.hash
                 ( Durable.Backend.mem_durable_log m,
                   Durable.Backend.mem_durable_snap m )))
          (replicas_fingerprint (Sdb.To_smr cluster) ~commits:!commits)
          mems
      in
      Fingerprint.int h (Engine.in_flight_fingerprint world)
    in
    running ~world ~sched
      ~step:(bounded_step world ~horizon:20.0 ~max_events:300_000 ~done_)
      ~fingerprint ~apply_fault
      ~check:(check_of monitors)
      ~finish:(fun () -> List.iter Monitor.finish monitors)
  in
  { Scenario.name; nodes; make }

let smr_durable =
  durable_scenario ~name:"smr-durable"
    ~policy:
      { Durable.Manager.group_commit = 2; snapshot_every = 4; replay_tail = true }

(* Deliberately-broken fixture: per-commit sync but no WAL replay on
   recovery — committed transactions past the (absent) snapshot are
   silently dropped, which the no-committed-loss monitor must catch. *)
let smr_noreplay =
  durable_scenario ~name:"smr-noreplay"
    ~policy:
      {
        Durable.Manager.group_commit = 1;
        snapshot_every = 0;
        replay_tail = false;
      }

(* ---------------------------------------------------------------------- *)
(* Sharded ShadowDB: two 3-replica SMR shards, each with its own TOB,    *)
(* plus the 2PC coordinator; a transfers-only bank workload where about  *)
(* half the transfers span both shards. Shard replicas are crash-durable *)
(* (in-memory WAL, torn on crash like the durable scenario) so the       *)
(* random crash-and-recover fault plans may pick any of the 7 nodes —    *)
(* coordinator included. The cross-shard monitors check atomicity (one   *)
(* decision direction per transaction, everywhere) and conflict-         *)
(* serializability; finish checks add per-shard state agreement and,     *)
(* once every decided commit has reached the freshest replica of every   *)
(* participant shard, global conservation of money.                      *)
(*                                                                       *)
(* [sharded-nopersist] is the same system with the coordinator's         *)
(* decision journal deliberately dropped ("2PC without prepare/decision  *)
(* persistence"): a coordinator crash between informing the first and    *)
(* the last participant of a commit forgets the decision, the still-     *)
(* staged participant times out into a presumed abort, and the atomicity *)
(* monitor fires — the counterexample the checker must find and shrink.  *)
(* ---------------------------------------------------------------------- *)

let shard_count = 2
let shard_replicas = 3

(* Deterministic per (client, seq); src <> dst always, and with 32 rows
   over 2 shards roughly half the transfers cross shards. *)
let make_transfer ~client ~seq =
  let h0 = abs (Hashtbl.hash (client, seq, 0)) in
  let h1 = abs (Hashtbl.hash (client, seq, 1)) in
  let src = h0 mod bank_rows in
  let dst = (src + 1 + (h1 mod (bank_rows - 1))) mod bank_rows in
  Workload.Bank.transfer ~src ~dst ~amount:1

let sharded_scenario ~name ~coord_journal : Scenario.t =
  let nodes = 1 + (shard_count * shard_replicas) in
  let n_clients = 2 and per_client = 3 in
  let router = Workload.Bank.router ~shards:shard_count in
  let make ~seed ~sched =
    let world : Sdb.wire Engine.t = Engine.create ~seed () in
    Sched.install sched world;
    let rworld = Runtime.Of_sim.of_engine world in
    let mems =
      Array.init (shard_count * shard_replicas) (fun _ ->
          Durable.Backend.mem_create ())
    in
    let torn_rng = Sim.Prng.create ((seed * 7919) + 13) in
    let atomicity = Monitor.xshard_atomicity () in
    let serializable = Monitor.xshard_serializable () in
    (* (client, seq, shard, node) -> the decision reached this replica.
       Cleared when the node crashes; WAL replay re-fires on_apply during
       recovery, so the set tracks the *current incarnation*. *)
    let applied_obs : (int * int * int * int, unit) Hashtbl.t =
      Hashtbl.create 64
    in
    (* (client, seq) -> latest coordinator decision direction *)
    let decided_tbl : (int * int, bool) Hashtbl.t = Hashtbl.create 32 in
    let on_apply ~shard ~node ~client ~seq ~commit ~keys =
      let obs =
        {
          Monitor.xnode = node;
          xshard = shard;
          xclient = client;
          xseq = seq;
          xcommit = commit;
          xkeys =
            List.map
              (fun (k : Shadowdb.Shard.key) -> (k.Shadowdb.Shard.table, k.Shadowdb.Shard.id))
              keys;
        }
      in
      Monitor.observe atomicity obs;
      Monitor.observe serializable obs;
      Hashtbl.replace applied_obs (client, seq, shard, node) ()
    in
    let on_decide ~client ~seq ~commit =
      Hashtbl.replace decided_tbl (client, seq) commit
    in
    (* Per-shard durability: shard [s]'s replica [i] gets backend
       [mems.(s*3 + i)]. *)
    let durability s =
      Some
        {
          Sdb.dur_backend =
            (fun i -> Durable.Backend.mem_backend mems.((s * shard_replicas) + i));
          dur_policy =
            (fun _ ->
              {
                Durable.Manager.group_commit = 1;
                snapshot_every = 0;
                replay_tail = true;
              });
          dur_on_recover = (fun _ _ ~state_hash:_ -> ());
        }
    in
    let cluster =
      Sdb.spawn_sharded ~tun:fast_tun ~durability ~coord_journal
        ~pending_timeout:0.9 ~pump_interval:0.25 ~on_apply ~on_decide
        ~world:rworld ~registry:Workload.Bank.registry
        ~setup:(fun s db ->
          Workload.Bank.setup_shard ~rows:bank_rows ~shards:shard_count s db)
        ~router ()
    in
    let fault_surface = Array.of_list cluster.Sdb.sh_nodes in
    let commits = ref 0 in
    let _, completed =
      Sdb.spawn_clients ~world:rworld ~target:(Sdb.To_sharded cluster)
        ~n:n_clients ~count:per_client ~make_txn:make_transfer
        ~retry_timeout:1.0
        ~on_commit:(fun _ _ -> incr commits)
        ()
    in
    let apply_fault op =
      (match op with
      | Fault.Crash i when i >= 0 && i < nodes ->
          if Engine.is_alive world fault_surface.(i) then begin
            (* Shard replicas (indices 1..) lose their unsynced write
               cache at a random byte boundary, like the durable
               scenario; the coordinator (index 0) holds its journal on
               modelled stable storage. *)
            if i >= 1 then
              Durable.Backend.mem_crash
                ~keep:(Sim.Prng.int torn_rng 5)
                mems.(i - 1);
            (* Drop the crashed incarnation's apply observations; WAL
               replay re-records whatever recovery reconstructs. *)
            let node = fault_surface.(i) in
            let stale =
              Hashtbl.fold
                (fun ((_, _, _, n) as k) () acc ->
                  if n = node then k :: acc else acc)
                applied_obs []
            in
            List.iter (Hashtbl.remove applied_obs) stale
          end
      | _ -> ());
      fault_applier world fault_surface op
    in
    (* Freshest alive replica of each shard (max delivered prefix):
       per-shard total order makes its state a superset of any other
       alive replica's. *)
    let chosen_of (g : Sdb.smr_cluster) =
      let alive = List.filter (Engine.is_alive world) g.Sdb.smr_nodes in
      List.fold_left
        (fun best l ->
          match best with
          | None -> Some l
          | Some b ->
              if g.Sdb.smr_gseq_of l > g.Sdb.smr_gseq_of b then Some l
              else best)
        None alive
    in
    let agreement : Monitor.xshard_obs Monitor.t =
      Monitor.finish_check ~name:(name ^ "-state-agreement") (fun () ->
          Sdb.disagreement (Sdb.To_sharded cluster)
            ~alive:(Engine.is_alive world))
    in
    let conservation : Monitor.xshard_obs Monitor.t =
      Monitor.finish_check ~name:(name ^ "-conservation") (fun () ->
          let chosen = Array.map chosen_of cluster.Sdb.sh_groups in
          let chosen_node s =
            match chosen.(s) with
            | Some n -> n
            | None ->
                Sim.Invariant.fail "scenario" "no chosen replica for shard %d" s
          in
          if Array.exists Option.is_none chosen then None
          else
            (* Quiescent iff every decided COMMIT has reached the chosen
               replica of every participant shard (participants recomputed
               by re-routing the deterministic workload); a half-applied
               transfer legitimately unbalances the books. Aborts and
               single-shard transfers never move money across shards. *)
            let quiescent =
              Hashtbl.fold
                (fun (client, seq) commit ok ->
                  ok
                  && ((not commit)
                     ||
                     let kind, params = make_transfer ~client ~seq in
                     let txn =
                       { Shadowdb.Txn.client; seq; kind; params }
                     in
                     match Shadowdb.Shard.route router txn with
                     | Shadowdb.Shard.Local _ -> true
                     | Shadowdb.Shard.Distributed parts ->
                         List.for_all
                           (fun (s, _) ->
                             Hashtbl.mem applied_obs
                               (client, seq, s, chosen_node s))
                           parts))
                decided_tbl true
            in
            if not quiescent then None
            else
              let total =
                Array.fold_left
                  (fun acc (i, g) ->
                    ignore i;
                    acc
                    + (g : Sdb.smr_cluster).Sdb.smr_db_view
                        (chosen_node i)
                        Workload.Bank.total_balance ~default:0)
                  0
                  (Array.mapi (fun i g -> (i, g)) cluster.Sdb.sh_groups)
              in
              let expect = bank_rows * 100 in
              if total <> expect then
                Some
                  (Printf.sprintf
                     "money not conserved: freshest replicas sum to %d, \
                      expected %d"
                     total expect)
              else None)
    in
    let monitors =
      [
        atomicity;
        serializable;
        conservation;
        agreement;
      ]
    in
    let done_at = ref nan in
    let done_ () =
      if completed () >= n_clients && Float.is_nan !done_at then
        done_at := Engine.now world;
      (* Long drain: a coordinator crash-recovery resolves stuck
         participants via vote resend + pending timeout + decision pump —
         about 2.5 s of timer traffic after the restart. The drain must
         outlive it or the divergence the broken fixture plants would
         never be observed. *)
      (not (Float.is_nan !done_at)) && Engine.now world > !done_at +. 6.0
    in
    let fingerprint () =
      let h =
        replicas_fingerprint (Sdb.To_sharded cluster) ~commits:!commits
      in
      let h = Fingerprint.int h (cluster.Sdb.sh_committed ()) in
      let h = Fingerprint.int h (cluster.Sdb.sh_aborted ()) in
      Fingerprint.int h (Engine.in_flight_fingerprint world)
    in
    running ~world ~sched
      ~step:(bounded_step world ~horizon:20.0 ~max_events:400_000 ~done_)
      ~fingerprint ~apply_fault
      ~check:(check_of monitors)
      ~finish:(fun () -> List.iter Monitor.finish monitors)
  in
  { Scenario.name; nodes; make }

let sharded = sharded_scenario ~name:"sharded" ~coord_journal:true

(* Deliberately-broken fixture: the coordinator forgets its decisions on
   crash. Clean fault-free; diverges under crash-and-recover plans. *)
let sharded_nopersist =
  sharded_scenario ~name:"sharded-nopersist" ~coord_journal:false

(* ---------------------------------------------------------------------- *)
(* Buggy: a deliberately broken "broadcast" (clients send to each member  *)
(* individually; members deliver in arrival order, so there is no total   *)
(* order). Correct under the default FIFO schedule of this workload, it   *)
(* violates total order only when the scheduler reorders concurrent       *)
(* arrivals — the counterexample pipeline's test double.                  *)
(* ---------------------------------------------------------------------- *)

type buggy_wire = B_submit of Broadcast.Tob.entry

let buggy : Scenario.t =
  let nodes = 2 in
  let n_clients = 2 in
  let make ~seed ~sched =
    let net = { Sim.Net.local with jitter = 0.0 } in
    let world : buggy_wire Engine.t = Engine.create ~seed ~net () in
    Sched.install sched world;
    let monitors = [ Monitor.tob_total_order () ] in
    let n_obs = ref 0 in
    let obs_digest = ref 0 in
    let member_ids =
      List.init nodes (fun i ->
          Engine.spawn world ~name:(Printf.sprintf "mem%d" i) (fun () ->
              let counter = ref 0 in
              fun ctx -> function
                | Engine.Recv { msg = B_submit e; _ } ->
                    let d =
                      { Broadcast.Tob.seqno = !counter; entry = e }
                    in
                    incr counter;
                    incr n_obs;
                    obs_digest :=
                      (!obs_digest
                      + Hashtbl.hash (Engine.self ctx, d.Broadcast.Tob.seqno))
                      land max_int;
                    List.iter
                      (fun m -> Monitor.observe m (Engine.self ctx, d))
                      monitors
                | _ -> ()))
    in
    let member_arr = Array.of_list member_ids in
    let _clients =
      List.init n_clients (fun c ->
          Engine.spawn world ~name:(Printf.sprintf "bcli%d" c) (fun () ->
              fun ctx -> function
                | Engine.Init ->
                    let e =
                      {
                        Broadcast.Tob.origin = Engine.self ctx;
                        id = 0;
                        payload = Printf.sprintf "b%d" c;
                      }
                    in
                    List.iter
                      (fun m -> Engine.send ctx m (B_submit e))
                      member_ids
                | _ -> ()))
    in
    let fingerprint () =
      Fingerprint.int
        (Fingerprint.int Fingerprint.empty !obs_digest)
        (Engine.in_flight_fingerprint world)
    in
    let done_ () = !n_obs >= nodes * n_clients in
    running ~world ~sched
      ~step:(bounded_step world ~horizon:1.0 ~max_events:200 ~done_)
      ~fingerprint
      ~apply_fault:(fault_applier world member_arr)
      ~check:(check_of monitors)
      ~finish:(fun () -> List.iter Monitor.finish monitors)
  in
  { Scenario.name = "buggy"; nodes; make }

(* ---------------------------------------------------------------------- *)

let all =
  [
    paxos;
    tob;
    tob_w2;
    tob_w4;
    pbr;
    smr;
    smr_w2;
    smr_w4;
    smr_durable;
    smr_noreplay;
    sharded;
    sharded_nopersist;
    buggy;
  ]
let find name = List.find_opt (fun s -> s.Scenario.name = name) all
let names = List.map (fun s -> s.Scenario.name) all
