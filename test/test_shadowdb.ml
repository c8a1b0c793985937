(* End-to-end tests for ShadowDB on the simulator: PBR normal case and
   recovery (catch-up and snapshot paths), SMR normal case, crash
   transparency and spare activation, exactly-once under client retries,
   durability, and state agreement across diverse backends. *)

module Engine = Sim.Engine
module Store = Storage.Store
module S = Shadowdb.System
module Txn = Shadowdb.Txn
module Value = Storage.Value

let rows = 200 (* scaled-down accounts table for fast tests *)

let fast_tun =
  {
    Shadowdb.System.default_tuning with
    hb_interval = 0.05;
    detect_timeout = 0.4;
  }

(* Deterministic per (client, seq): retries resend the same transaction. *)
let make_deposit ~client ~seq =
  let account = abs (Hashtbl.hash (client, seq)) mod rows in
  Workload.Bank.deposit ~account ~amount:1

let setup db = Workload.Bank.setup ~rows db

let pbr_world ?(backends = [ Store.Hazel ]) ?(tun = fast_tun) ?cache_cap
    ?(n_active = 2) ?(n_spare = 1) ?(setup = setup) () =
  let tun =
    match cache_cap with
    | Some cap -> { tun with cache_cap = cap }
    | None -> tun
  in
  let world : S.wire Engine.t = Engine.create ~seed:3 () in
  let cluster =
    S.spawn_pbr ~tun ~backends ~world:(Runtime.Of_sim.of_engine world) ~registry:Workload.Bank.registry ~setup
      ~n_active ~n_spare ()
  in
  (world, cluster)

let run_pbr ?backends ?cache_cap ?crash_at ~n_clients ~count () =
  let world, cluster = pbr_world ?backends ?cache_cap () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:n_clients ~count
      ~make_txn:make_deposit ~retry_timeout:1.0
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  (match crash_at with
  | Some t ->
      Engine.at world t (fun () ->
          Engine.crash world cluster.S.pbr_initial_primary)
  | None -> ());
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  (world, cluster, completed (), !commits)

(* Among alive replicas, those in the final configuration agree
   ({!S.disagreement}); those that reached the primary's executed count
   are all in that configuration, so the check covers them. *)
let check_pbr_agreement world cluster =
  let alive =
    List.filter (Engine.is_alive world) cluster.S.pbr_replicas
  in
  let primary = cluster.S.pbr_primary_of (List.hd alive) in
  let in_final =
    List.filter (fun l -> cluster.S.pbr_gseq_of l = cluster.S.pbr_gseq_of primary) alive
  in
  let final_cfg =
    List.fold_left (fun c l -> max c (cluster.S.pbr_cfg_of l)) (-1) alive
  in
  Alcotest.(check (list int))
    "replicas at the primary's gseq are in the final configuration"
    (List.map (fun _ -> final_cfg) in_final)
    (List.map cluster.S.pbr_cfg_of in_final);
  Alcotest.(check (option string))
    "state agreement" None
    (S.disagreement (S.To_pbr cluster) ~alive:(Engine.is_alive world))

let test_pbr_normal_case () =
  let world, cluster, completed, commits = run_pbr ~n_clients:3 ~count:20 () in
  Alcotest.(check int) "all clients completed" 3 completed;
  Alcotest.(check int) "every txn committed exactly once" 60 commits;
  Alcotest.(check int) "primary executed 60 txns" 60
    (cluster.S.pbr_gseq_of cluster.S.pbr_initial_primary);
  check_pbr_agreement world cluster

let test_pbr_diverse_backends_agree () =
  let world, cluster, completed, _ =
    run_pbr ~backends:[ Store.Hazel; Store.Hickory; Store.Dogwood ]
      ~n_clients:2 ~count:15 ()
  in
  Alcotest.(check int) "completed" 2 completed;
  check_pbr_agreement world cluster

let test_pbr_exactly_once_under_retries () =
  (* An aggressive client retry timeout forces duplicate submissions; the
     per-client dedup table must keep execution exactly-once. *)
  let world, cluster = pbr_world () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:2 ~count:25
      ~make_txn:make_deposit ~retry_timeout:0.002
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "completed" 2 (completed ());
  Alcotest.(check int) "commits" 50 !commits;
  Alcotest.(check int) "executed exactly 50 despite duplicates" 50
    (cluster.S.pbr_gseq_of cluster.S.pbr_initial_primary);
  check_pbr_agreement world cluster

let test_pbr_failover_catchup () =
  (* Crash the primary mid-run: the backup (largest sequence number) takes
     over, the spare joins via the transaction cache, clients finish. *)
  let world, cluster, completed, commits =
    run_pbr ~crash_at:1.0 ~n_clients:3 ~count:30 ()
  in
  Alcotest.(check int) "all clients completed despite crash" 3 completed;
  Alcotest.(check int) "all commits observed" 90 commits;
  let survivor = List.nth cluster.S.pbr_replicas 1 in
  let new_primary = cluster.S.pbr_primary_of survivor in
  Alcotest.(check bool) "primary moved off the crashed node" true
    (new_primary <> cluster.S.pbr_initial_primary);
  Alcotest.(check bool) "new primary alive" true
    (Engine.is_alive world new_primary);
  check_pbr_agreement world cluster

let test_pbr_failover_snapshot_path () =
  (* A tiny transaction cache forces the full-snapshot state transfer. *)
  let world, cluster, completed, _ =
    run_pbr ~cache_cap:2 ~crash_at:1.0 ~n_clients:3 ~count:30 ()
  in
  Alcotest.(check int) "completed via snapshot recovery" 3 completed;
  check_pbr_agreement world cluster

let test_pbr_failover_snapshot_empty_db () =
  (* A full snapshot of an empty database is still one (empty) last
     chunk: without it the spare never reports Recovered and the new
     primary never resumes. *)
  let world, cluster =
    pbr_world ~cache_cap:2 ~setup:(Workload.Bank.setup ~rows:0) ()
  in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world)
      ~target:(S.To_pbr cluster) ~n:3 ~count:1000 ~make_txn:make_deposit
      ~retry_timeout:1.0 ()
  in
  Engine.at world 0.2 (fun () ->
      Engine.crash world cluster.S.pbr_initial_primary);
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "all clients completed" 3 (completed ());
  let survivor = List.nth cluster.S.pbr_replicas 1 in
  let spare = List.nth cluster.S.pbr_replicas 2 in
  Alcotest.(check int) "spare caught up with the new primary"
    (cluster.S.pbr_gseq_of survivor)
    (cluster.S.pbr_gseq_of spare);
  check_pbr_agreement world cluster

let test_pbr_snapshot_rejected_rows () =
  (* A snapshot chunk the schema rejects must stop the replica loudly,
     not leave it serving an emptied database as caught up. *)
  let world, cluster = pbr_world () in
  let rworld = Runtime.Of_sim.of_engine world in
  let backup = List.nth cluster.S.pbr_replicas 1 in
  let bogus =
    Shadowdb.Db_msg.Snapshot
      {
        cfg = 0;
        rows = [ ("no_such_table", [| Value.Int 1 |]) ];
        upto = 0;
        last = true;
        clients = [];
      }
  in
  ignore
    (Runtime.spawn rworld ~name:"rogue" (fun () ctx -> function
       | Runtime.Init ->
           Runtime.send ctx ~size:(Shadowdb.Db_msg.size bogus) backup
             (S.Db bogus)
       | Runtime.Recv _ | Runtime.Timer _ -> ()));
  match Engine.run ~until:5.0 ~max_events:1_000_000 world with
  | () -> Alcotest.fail "rejected snapshot rows went unnoticed"
  | exception Sim.Invariant.Violation { layer; _ } ->
      Alcotest.(check string) "raised by the PBR layer" "pbr" layer

let test_pbr_durability () =
  (* Every answered deposit survives the crash: final total balance =
     initial + #commits (deposits are +1 each). *)
  let world, cluster, completed, commits =
    run_pbr ~crash_at:1.0 ~n_clients:2 ~count:40 ()
  in
  Alcotest.(check int) "completed" 2 completed;
  ignore world;
  let survivor = List.nth cluster.S.pbr_replicas 1 in
  Alcotest.(check int) "gseq reflects every commit" commits
    (cluster.S.pbr_gseq_of survivor)

let test_pbr_overlapped_state_transfer () =
  (* Three actives + spare, tiny cache: after the primary crash the
     up-to-date backup catches up from the cache and normal processing
     resumes immediately, while the spare's full snapshot streams in
     parallel (paper Sec. III-A last paragraph). *)
  let world, cluster = pbr_world ~cache_cap:10 ~n_active:3 ~n_spare:1 () in
  let commits = ref 0 in
  let first_post_crash = ref infinity in
  let crash_at = 0.2 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:3 ~count:5000
      ~make_txn:make_deposit ~retry_timeout:0.5
      ~on_commit:(fun now _ ->
        incr commits;
        if now > crash_at && now < !first_post_crash then
          first_post_crash := now)
      ()
  in
  Engine.at world crash_at (fun () ->
      Engine.crash world cluster.S.pbr_initial_primary);
  (* Track when the spare (last replica) finishes its snapshot. *)
  let spare = List.nth cluster.S.pbr_replicas 3 in
  let spare_synced_at = ref infinity in
  let rec poll t =
    if t < 60.0 then
      Engine.at world t (fun () ->
          let survivor = List.nth cluster.S.pbr_replicas 1 in
          if
            !spare_synced_at = infinity
            && cluster.S.pbr_gseq_of spare > 0
            && cluster.S.pbr_gseq_of spare
               >= cluster.S.pbr_gseq_of survivor - 5
          then spare_synced_at := Engine.now world;
          poll (t +. 0.02))
  in
  poll (crash_at +. 0.05);
  Engine.run ~until:60.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "all clients completed" 3 (completed ());
  Alcotest.(check int) "commits" 15_000 !commits;
  Alcotest.(check bool) "normal processing resumed" true
    (!first_post_crash < infinity);
  Alcotest.(check bool) "spare eventually synced" true
    (!spare_synced_at < infinity);
  check_pbr_agreement world cluster

(* ---------- Chain replication ---------- *)

let chain_world ?(n_active = 3) () =
  let world : S.wire Engine.t = Engine.create ~seed:9 () in
  let cluster =
    S.spawn_pbr ~style:S.Chain ~read_kinds:[ "balance" ] ~tun:fast_tun ~world:(Runtime.Of_sim.of_engine world)
      ~registry:Workload.Bank.registry ~setup ~n_active ~n_spare:1 ()
  in
  (world, cluster)

(* Clients alternate deposits and balance reads; reads are answered by the
   tail, writes traverse the whole chain. *)
let make_mixed ~client ~seq =
  if seq mod 3 = 2 then
    Workload.Bank.balance ~account:(abs (Hashtbl.hash (client, seq)) mod rows)
  else make_deposit ~client ~seq

let test_chain_normal_case () =
  let world, cluster = chain_world () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:3 ~count:30
      ~make_txn:make_mixed ~retry_timeout:1.0
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "all clients completed" 3 (completed ());
  Alcotest.(check int) "all answered" 90 !commits;
  (* Writes executed at every chain member (reads don't advance gseq). *)
  let writes = 3 * 30 * 2 / 3 in
  List.iteri
    (fun i l ->
      if i < 3 then
        Alcotest.(check int)
          (Printf.sprintf "chain member %d executed all writes" i)
          writes (cluster.S.pbr_gseq_of l))
    cluster.S.pbr_replicas;
  check_pbr_agreement world cluster

let test_chain_tail_reply_implies_all_executed () =
  (* The tail's reply is the commit point: when a client has an answer for
     write seq s, every member's database already reflects it. A quiescent
     run ending in agreement across all three members demonstrates it
     (stronger interleaved checks poll below). *)
  let world, cluster = chain_world () in
  let max_seen = ref 0 in
  let violated = ref false in
  let head = List.hd cluster.S.pbr_replicas in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:2 ~count:25
      ~make_txn:make_deposit ~retry_timeout:1.0
      ~on_commit:(fun _ _ ->
        incr max_seen;
        (* At every commit, the head must have executed at least as many
           writes as have been answered. *)
        if cluster.S.pbr_gseq_of head < !max_seen then violated := true)
      ()
  in
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  Alcotest.(check int) "completed" 2 (completed ());
  Alcotest.(check bool) "head never behind the commit point" false !violated

let test_chain_head_crash_recovery () =
  let world, cluster = chain_world () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:3 ~count:2000
      ~make_txn:make_deposit ~retry_timeout:0.5
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.at world 0.2 (fun () ->
      Engine.crash world (List.hd cluster.S.pbr_replicas));
  Engine.run ~until:120.0 ~max_events:20_000_000 world;
  Alcotest.(check int) "all clients completed despite head crash" 3
    (completed ());
  Alcotest.(check int) "every txn answered exactly once" 6000 !commits;
  check_pbr_agreement world cluster

(* ---------- SMR ---------- *)

let smr_world ?(tun = fast_tun) () =
  let world : S.wire Engine.t = Engine.create ~seed:5 () in
  let cluster =
    S.spawn_smr ~tun ~world:(Runtime.Of_sim.of_engine world) ~registry:Workload.Bank.registry ~setup
      ~n_active:2 ()
  in
  (world, cluster)

let run_smr ?crash_at ~n_clients ~count () =
  let world, cluster = smr_world () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_smr cluster) ~n:n_clients ~count
      ~make_txn:make_deposit ~retry_timeout:1.0
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  (match crash_at with
  | Some t ->
      Engine.at world t (fun () ->
          Engine.crash world (List.hd cluster.S.smr_nodes))
  | None -> ());
  Engine.run ~until:120.0 ~max_events:10_000_000 world;
  (world, cluster, completed (), !commits)

let smr_active_hashes world cluster =
  cluster.S.smr_nodes
  |> List.filter (fun l ->
         Engine.is_alive world l && cluster.S.smr_active_of l)
  |> List.map cluster.S.smr_hash_of

let test_smr_normal_case () =
  let world, cluster, completed, commits = run_smr ~n_clients:3 ~count:20 () in
  Alcotest.(check int) "completed" 3 completed;
  Alcotest.(check int) "commits" 60 commits;
  (match smr_active_hashes world cluster with
  | h :: rest ->
      Alcotest.(check int) "two active replicas" 1 (List.length rest);
      List.iter (fun h' -> Alcotest.(check int) "states agree" h h') rest
  | [] -> Alcotest.fail "no active replicas")

let test_smr_crash_transparent () =
  (* Crash one active replica: the survivor answers; clients never stall
     (the paper: "a crash of a replica is transparent"). *)
  let world, cluster, completed, commits =
    run_smr ~crash_at:0.5 ~n_clients:3 ~count:25 ()
  in
  Alcotest.(check int) "completed through crash" 3 completed;
  Alcotest.(check int) "commits" 75 commits;
  ignore (world, cluster)

let test_smr_spare_activation () =
  (* After the crash the survivor reconfigures: the third machine's spare
     database syncs a snapshot and becomes active with an equal state. *)
  let world, cluster, completed, _ =
    run_smr ~crash_at:0.5 ~n_clients:2 ~count:40 ()
  in
  Alcotest.(check int) "completed" 2 completed;
  (* Drain any in-flight sync after the last client finished. *)
  Engine.run ~until:200.0 ~max_events:10_000_000 world;
  let actives =
    List.filter
      (fun l -> Engine.is_alive world l && cluster.S.smr_active_of l)
      cluster.S.smr_nodes
  in
  Alcotest.(check int) "spare activated: two active replicas" 2
    (List.length actives);
  match List.map cluster.S.smr_hash_of actives with
  | [ a; b ] -> Alcotest.(check int) "synced spare agrees" a b
  | _ -> Alcotest.fail "unexpected active set"

(* ---------- Randomized failure injection ---------- *)

(* Crash one arbitrary node (any replica, the spare, or a broadcast-service
   member) at an arbitrary time: clients must still finish with every
   transaction committed exactly once, and the surviving replicas of the
   final configuration must agree. *)
let prop_pbr_random_crash =
  QCheck.Test.make ~name:"PBR survives any single crash (random schedule)"
    ~count:12
    QCheck.(pair (int_bound 5) (float_bound_exclusive 1.5))
    (fun (victim_idx, crash_at) ->
      let world, cluster = pbr_world () in
      let commits = ref 0 in
      let _, completed =
        S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_pbr cluster) ~n:2 ~count:2500
          ~make_txn:make_deposit ~retry_timeout:0.5
          ~on_commit:(fun _ _ -> incr commits)
          ()
      in
      let victims = cluster.S.pbr_replicas @ cluster.S.pbr_tob in
      let victim = List.nth victims (victim_idx mod List.length victims) in
      Engine.at world (0.05 +. crash_at) (fun () -> Engine.crash world victim);
      Engine.run ~until:300.0 ~max_events:20_000_000 world;
      if completed () <> 2 || !commits <> 5000 then
        QCheck.Test.fail_reportf
          "victim node %d at %.3f s: completed=%d commits=%d" victim
          (0.05 +. crash_at) (completed ()) !commits;
      check_pbr_agreement world cluster;
      true)

let prop_smr_random_crash =
  QCheck.Test.make ~name:"SMR survives any single crash (random schedule)"
    ~count:10
    QCheck.(pair (int_bound 2) (float_bound_exclusive 1.0))
    (fun (victim_idx, crash_at) ->
      let world, cluster = smr_world () in
      let commits = ref 0 in
      let _, completed =
        S.spawn_clients ~world:(Runtime.Of_sim.of_engine world) ~target:(S.To_smr cluster) ~n:2 ~count:150
          ~make_txn:make_deposit ~retry_timeout:0.5
          ~on_commit:(fun _ _ -> incr commits)
          ()
      in
      let victim = List.nth cluster.S.smr_nodes victim_idx in
      Engine.at world (0.02 +. crash_at) (fun () -> Engine.crash world victim);
      Engine.run ~until:300.0 ~max_events:20_000_000 world;
      if completed () <> 2 || !commits <> 300 then
        QCheck.Test.fail_reportf
          "victim node %d at %.3f s: completed=%d commits=%d" victim
          (0.02 +. crash_at) (completed ()) !commits;
      true)

(* ---------- Txn / codec units ---------- *)

let test_txn_execute_rollback () =
  let db = Storage.Database.create Store.Hazel in
  Workload.Bank.setup ~rows:10 db;
  let reg = Workload.Bank.registry () in
  let before = Workload.Bank.total_balance db in
  let bad =
    Txn.execute reg db
      { Txn.client = 1; seq = 0; kind = "transfer";
        params = [ Value.Int 0; Value.Int 1; Value.Int 1_000_000 ] }
  in
  (match bad.Txn.outcome with
  | Error m -> Alcotest.(check string) "abort reason" "insufficient funds" m
  | Ok _ -> Alcotest.fail "expected abort");
  Alcotest.(check int) "state rolled back" before (Workload.Bank.total_balance db);
  let unknown =
    Txn.execute reg db { Txn.client = 1; seq = 1; kind = "nope"; params = [] }
  in
  Alcotest.(check bool) "unknown kind aborts" true
    (Result.is_error unknown.Txn.outcome)

let prop_txn_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      map2
        (fun (client, seq) params ->
          {
            Txn.client;
            seq;
            kind = "deposit";
            params = List.map (fun i -> Value.Int i) params;
          })
        (pair small_nat small_nat)
        (list_size (0 -- 5) int))
  in
  QCheck.Test.make ~name:"txn codec round-trips" ~count:200 (QCheck.make gen)
    (fun txn ->
      match Shadowdb.Codec.decode_txn (Shadowdb.Codec.encode_txn txn) with
      | Ok txn' -> txn = txn'
      | Error _ -> false)

let prop_config_codec_roundtrip =
  QCheck.Test.make ~name:"config codec round-trips" ~count:200
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 6) small_nat))
    (fun (seq, members) ->
      let c = { Shadowdb.Config.seq; members } in
      match
        Shadowdb.Codec.(decode_payload (encode_payload (P_reconfig (c, 42, 7))))
      with
      | Shadowdb.Codec.P_reconfig (c', 42, 7) -> Shadowdb.Config.equal c c'
      | _ -> false)

(* Pbr.Cache against the list it replaced (the last [cap] pushes, newest
   first) on random runs of executions, snapshot-install jumps and
   catch-up queries up to the current number. *)
module List_cache = struct
  type t = { cap : int; mutable items : (int * Txn.t) list }

  let create cap = { cap; items = [] }

  let push t gseq txn =
    t.items <- (gseq, txn) :: t.items;
    if List.length t.items > t.cap then
      t.items <- List.filteri (fun i _ -> i < t.cap) t.items

  let range t ~from ~upto =
    let hits = List.filter (fun (g, _) -> g > from && g <= upto) t.items in
    if List.length hits = upto - from then
      Some (List.sort (fun (a, _) (b, _) -> compare a b) hits)
    else None
end

type cache_op = Exec | Jump of int | Query of int

let prop_pbr_cache_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, return Exec);
          (1, map (fun k -> Jump k) (1 -- 6));
          (3, map (fun k -> Query k) (0 -- 12));
        ])
  in
  let print = function
    | Exec -> "exec"
    | Jump k -> Printf.sprintf "jump %d" k
    | Query k -> Printf.sprintf "query -%d" k
  in
  QCheck.Test.make ~name:"Pbr.Cache ring = list reference" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print))
       QCheck.Gen.(pair (0 -- 8) (list_size (0 -- 80) op)))
    (fun (cap, ops) ->
      let ring = Shadowdb.Pbr.Cache.create cap and model = List_cache.create cap in
      let gseq = ref 0 in
      List.for_all
        (function
          | Exec ->
              incr gseq;
              let txn =
                { Txn.client = 1; seq = !gseq; kind = "deposit"; params = [] }
              in
              Shadowdb.Pbr.Cache.push ring !gseq txn;
              List_cache.push model !gseq txn;
              true
          | Jump k ->
              gseq := !gseq + k;
              true
          | Query k ->
              let from = max 0 (!gseq - k) and upto = !gseq in
              Shadowdb.Pbr.Cache.range ring ~from ~upto
              = List_cache.range model ~from ~upto)
        ops)

let test_config_next () =
  let c = Shadowdb.Config.initial [ 1; 2; 3 ] in
  let c' = Shadowdb.Config.next c ~remove:[ 2 ] ~add:[ 9 ] in
  Alcotest.(check int) "seq bumped" 1 c'.Shadowdb.Config.seq;
  Alcotest.(check (list int)) "members" [ 1; 3; 9 ] c'.Shadowdb.Config.members

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "shadowdb"
    [
      ( "units",
        [
          Alcotest.test_case "txn execute/rollback" `Quick
            test_txn_execute_rollback;
          qt prop_txn_codec_roundtrip;
          qt prop_config_codec_roundtrip;
          qt prop_pbr_cache_model;
          Alcotest.test_case "config next" `Quick test_config_next;
        ] );
      ( "pbr",
        [
          Alcotest.test_case "normal case" `Quick test_pbr_normal_case;
          Alcotest.test_case "diverse backends agree" `Quick
            test_pbr_diverse_backends_agree;
          Alcotest.test_case "exactly-once under retries" `Quick
            test_pbr_exactly_once_under_retries;
          Alcotest.test_case "failover (catch-up)" `Quick
            test_pbr_failover_catchup;
          Alcotest.test_case "failover (snapshot)" `Quick
            test_pbr_failover_snapshot_path;
          Alcotest.test_case "failover (snapshot, empty database)" `Quick
            test_pbr_failover_snapshot_empty_db;
          Alcotest.test_case "snapshot with rejected rows" `Quick
            test_pbr_snapshot_rejected_rows;
          Alcotest.test_case "durability" `Quick test_pbr_durability;
          Alcotest.test_case "overlapped state transfer" `Quick
            test_pbr_overlapped_state_transfer;
          qt prop_pbr_random_crash;
        ] );
      ( "chain",
        [
          Alcotest.test_case "normal case" `Quick test_chain_normal_case;
          Alcotest.test_case "tail reply = commit point" `Quick
            test_chain_tail_reply_implies_all_executed;
          Alcotest.test_case "head crash recovery" `Quick
            test_chain_head_crash_recovery;
        ] );
      ( "smr",
        [
          Alcotest.test_case "normal case" `Quick test_smr_normal_case;
          Alcotest.test_case "crash transparent" `Quick
            test_smr_crash_transparent;
          Alcotest.test_case "spare activation" `Quick
            test_smr_spare_activation;
          qt prop_smr_random_crash;
        ] );
    ]
