(* Tests for the sharding layer: the partition function and router, the
   bank's transaction decomposition, the Zipf workload generator, and an
   end-to-end sharded-cluster smoke run on the simulator. *)

module Engine = Sim.Engine
module Database = Storage.Database
module Store = Storage.Store
module Value = Storage.Value
module Txn = Shadowdb.Txn
module Shard = Shadowdb.Shard
module Codec = Shadowdb.Codec
module Bank = Workload.Bank
module Zipf = Workload.Zipf
module Sdb = Shadowdb.System

(* ---- partition function / router ---------------------------------- *)

let key_gen =
  QCheck.Gen.(
    map2
      (fun table id -> { Shard.table; id })
      (oneofl [ "ACCOUNTS"; "T"; "EVENTS"; "" ])
      (int_bound 100_000))

let key_arb =
  QCheck.make key_gen ~print:(fun k ->
      Printf.sprintf "{table=%S; id=%d}" k.Shard.table k.Shard.id)

let prop_every_key_has_one_shard =
  QCheck.Test.make ~name:"every key maps to exactly one shard in range"
    ~count:500
    QCheck.(pair key_arb (QCheck.make QCheck.Gen.(1 -- 16)))
    (fun (k, shards) ->
      let s = Shard.shard_of_key ~shards k in
      s >= 0 && s < shards && Shard.shard_of_key ~shards k = s)

(* Well-formed bank transactions, as the workload's descriptors shape
   them (a malformed arity is never submitted, so it's out of scope). *)
let txn_gen =
  QCheck.Gen.(
    let id = int_bound 1_000 in
    let kp =
      oneof
        [
          map2 (fun a m -> ("deposit", [ Value.Int a; Value.Int (1 + m) ])) id (int_bound 50);
          map2 (fun a m -> ("withdraw", [ Value.Int a; Value.Int (1 + m) ])) id (int_bound 50);
          map (fun a -> ("balance", [ Value.Int a ])) id;
          map3
            (fun s d m -> ("transfer", [ Value.Int s; Value.Int d; Value.Int (1 + m) ]))
            id id (int_bound 50);
          map
            (fun ids -> ("audit", List.map (fun i -> Value.Int i) ids))
            (list_size (1 -- 6) id);
        ]
    in
    map2
      (fun (client, seq) (kind, params) : Txn.t -> { Txn.client; seq; kind; params })
      (pair (int_bound 50) (int_bound 50))
      kp)

let txn_arb =
  QCheck.make txn_gen ~print:(fun (t : Txn.t) ->
      Printf.sprintf "%s(client=%d,seq=%d,%d params)" t.Txn.kind t.Txn.client
        t.Txn.seq
        (List.length t.Txn.params))

(* Routing is a pure function of the transaction's wire image: a decoded
   re-encoding routes identically (the coordinator and every replica
   route from their own copies). *)
let prop_route_stable_across_codec =
  QCheck.Test.make ~name:"routing stable across re-encoding" ~count:500
    txn_arb (fun txn ->
      let router = Bank.router ~shards:4 in
      match Codec.decode_txn (Codec.encode_txn txn) with
      | Error _ -> false
      | Ok txn' -> Shard.route router txn' = Shard.route router txn)

(* Distinct 2PC records never collide on their TOB entry id — the
   coordinator's re-broadcast dedup depends on injectivity. *)
let entry_tup =
  QCheck.make
    QCheck.Gen.(pair (pair bool (0 -- 500)) (pair (0 -- 500) (0 -- 7)))

let prop_entry_id_injective =
  QCheck.Test.make ~name:"2pc entry ids are injective" ~count:1000
    QCheck.(pair entry_tup entry_tup)
    (fun (((pa, ca), (sa, ha)), ((pb, cb), (sb, hb))) ->
      let phase b = if b then `Prepare else `Decision in
      let ida = Shard.entry_id ~phase:(phase pa) ~client:ca ~seq:sa ~shard:ha in
      let idb = Shard.entry_id ~phase:(phase pb) ~client:cb ~seq:sb ~shard:hb in
      (ida = idb) = ((pa, ca, sa, ha) = (pb, cb, sb, hb)))

(* The bank split: sub-transactions keep the parent xid, land on their
   own shard, and jointly cover the parent's keys. *)
let prop_bank_split_covers =
  QCheck.Test.make ~name:"bank split partitions the parent's keys" ~count:300
    txn_arb (fun txn ->
      let shards = 3 in
      let parts = Bank.shard_split ~shards txn in
      parts <> []
      && List.for_all
           (fun ((s : int), (sub : Txn.t)) ->
             sub.Txn.client = txn.Txn.client
             && sub.Txn.seq = txn.Txn.seq
             && List.for_all
                  (fun k -> Shard.shard_of_key ~shards k = s)
                  (Bank.shard_keys sub))
           parts)

(* ---- merged cross-shard reads equal an unsharded run --------------- *)

(* Drive the same deposit history into (a) one unsharded bank and (b) a
   per-shard family of banks, then compare a cross-shard audit: the
   per-shard results merged in shard order must equal the unsharded
   audit over the same shard-ordered ids. *)
let test_sharded_audit_matches_unsharded () =
  let rows = 64 and shards = 3 in
  let reg = Bank.registry () in
  let whole = Database.create Store.Hazel in
  Bank.setup ~rows whole;
  let parts_db =
    Array.init shards (fun s ->
        let db = Database.create Store.Hazel in
        Bank.setup_shard ~rows ~shards s db;
        db)
  in
  let exec db ~seq kp =
    let kind, params = kp in
    (Txn.execute reg db { Txn.client = 1; seq; kind; params }).Txn.outcome
  in
  (* identical deposit history on both deployments *)
  for i = 0 to 40 do
    let account = i * 7 mod rows and amount = 1 + (i mod 9) in
    let d = Bank.deposit ~account ~amount in
    ignore (exec whole ~seq:i d);
    let s = Shard.shard_of_key ~shards { Shard.table = Bank.table; id = account } in
    ignore (exec parts_db.(s) ~seq:i d)
  done;
  let ids = [ 3; 17; 42; 8; 21; 63; 0 ] in
  let audit : Txn.t =
    let kind, params = Bank.audit ~accounts:ids in
    { Txn.client = 9; seq = 0; kind; params }
  in
  let split = Bank.shard_split ~shards audit in
  (* merged per-shard rows, shard order *)
  let merged =
    List.concat_map
      (fun ((s : int), (sub : Txn.t)) ->
        match
          (Txn.execute reg parts_db.(s) sub).Txn.outcome
        with
        | Ok rows -> rows
        | Error e -> Alcotest.fail ("shard audit failed: " ^ e))
      split
  in
  (* unsharded audit over the same shard-ordered id sequence *)
  let shard_ordered_params =
    List.concat_map (fun ((_ : int), (sub : Txn.t)) -> sub.Txn.params) split
  in
  let reference =
    match
      (Txn.execute reg whole
         { Txn.client = 9; seq = 1; kind = "audit"; params = shard_ordered_params })
        .Txn.outcome
    with
    | Ok rows -> rows
    | Error e -> Alcotest.fail ("unsharded audit failed: " ^ e)
  in
  Alcotest.(check bool) "merged = unsharded" true (merged = reference);
  (* and the shard family partitions the account space exactly *)
  let total =
    Array.fold_left (fun acc db -> acc + Database.row_count db Bank.table) 0 parts_db
  in
  Alcotest.(check int) "rows partitioned" rows total;
  Alcotest.(check int) "money partitioned"
    (Bank.total_balance whole)
    (Array.fold_left (fun acc db -> acc + Bank.total_balance db) 0 parts_db)

(* ---- Zipf generator ------------------------------------------------ *)

let prop_zipf_range =
  QCheck.Test.make ~name:"zipf samples stay in [0, n)" ~count:500
    QCheck.(
      triple (QCheck.make Gen.(1 -- 500)) (QCheck.make Gen.(float_bound_inclusive 0.99))
        (QCheck.make Gen.(float_bound_inclusive 1.0)))
    (fun (n, theta, u) ->
      let z = Zipf.create ~n ~theta in
      let i = Zipf.sample z ~u in
      i >= 0 && i < n)

let test_zipf_deterministic () =
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  for client = 0 to 5 do
    for seq = 0 to 20 do
      Alcotest.(check int) "sample_id deterministic"
        (Zipf.sample_id z ~client ~seq)
        (Zipf.sample_id z ~client ~seq)
    done
  done

let test_zipf_skew_monotone () =
  (* Higher theta concentrates more mass on the head items. *)
  let hits theta =
    let z = Zipf.create ~n:1000 ~theta in
    let c = ref 0 in
    for i = 0 to 9_999 do
      let u = (float_of_int i +. 0.5) /. 10_000.0 in
      if Zipf.sample z ~u < 10 then incr c
    done;
    !c
  in
  let flat = hits 0.0 and skewed = hits 0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "hot-10 mass grows with theta (%d -> %d)" flat skewed)
    true
    (skewed > 2 * flat)

(* ---- end-to-end sharded cluster on the simulator ------------------- *)

let test_sharded_sim_smoke () =
  let rows = 32 and shards = 2 in
  let world : Sdb.wire Engine.t = Engine.create ~seed:11 () in
  let rworld = Runtime.Of_sim.of_engine world in
  let commits = ref 0 in
  let cluster =
    Sdb.spawn_sharded ~world:rworld ~registry:Bank.registry
      ~setup:(fun s db -> Bank.setup_shard ~rows ~shards s db)
      ~router:(Bank.router ~shards) ()
  in
  let make_txn ~client ~seq =
    let src = (client + (seq * 7)) mod rows in
    let dst = (src + 1 + (seq mod (rows - 1))) mod rows in
    Bank.transfer ~src ~dst ~amount:1
  in
  let n = 3 and count = 8 in
  let _, completed =
    Sdb.spawn_clients ~world:rworld ~target:(Sdb.To_sharded cluster) ~n ~count
      ~make_txn ~retry_timeout:2.0
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.run ~until:60.0 ~max_events:5_000_000 world;
  Alcotest.(check int) "all clients completed" n (completed ());
  Alcotest.(check bool) "some transfers crossed shards" true
    (cluster.Sdb.sh_committed () > 0);
  (* Per-shard replicas agree and reached one executed count, and the
     freshest replicas conserve money. *)
  let target = Sdb.To_sharded cluster in
  Alcotest.(check (option string))
    "shard replicas agree" None
    (Sdb.disagreement target ~alive:(Engine.is_alive world));
  List.iter
    (fun g ->
      let counts = List.sort_uniq compare (List.map g.Sdb.gseq_of g.Sdb.members) in
      Alcotest.(check int) "shard replicas reached one gseq" 1
        (List.length counts))
    (Sdb.groups target);
  let total =
    Array.fold_left
      (fun acc (g : Sdb.smr_cluster) ->
        let best =
          List.fold_left
            (fun best l ->
              match best with
              | Some b when g.Sdb.smr_gseq_of b >= g.Sdb.smr_gseq_of l -> best
              | _ -> Some l)
            None g.Sdb.smr_nodes
        in
        acc
        + g.Sdb.smr_db_view (Option.get best) Bank.total_balance ~default:0)
      0 cluster.Sdb.sh_groups
  in
  Alcotest.(check int) "money conserved across shards" (rows * 100) total

(* The weak-scaling claim: four independent total orders must buy at
   least 1.5x the one-shard virtual throughput (the reference curve gives
   about 2.5x). *)
let test_sharding_speedup () =
  let pts = Harness.Sharding.curve () in
  let at n =
    match List.find_opt (fun p -> p.Harness.Sharding.shards = n) pts with
    | Some p -> p.Harness.Sharding.txns_s
    | None -> Alcotest.failf "no %d-shard point" n
  in
  let speedup = at 4 /. at 1 in
  if not (speedup >= 1.5) then
    Alcotest.failf "4-shard speedup regressed: %.2fx (1 shard %.1f, 4 shards %.1f txns/s)"
      speedup (at 1) (at 4)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "shard"
    [
      ( "partition",
        [
          qt prop_every_key_has_one_shard;
          qt prop_route_stable_across_codec;
          qt prop_entry_id_injective;
          qt prop_bank_split_covers;
        ] );
      ( "reads",
        [
          Alcotest.test_case "sharded audit = unsharded" `Quick
            test_sharded_audit_matches_unsharded;
        ] );
      ( "zipf",
        [
          qt prop_zipf_range;
          Alcotest.test_case "deterministic" `Quick test_zipf_deterministic;
          Alcotest.test_case "skew monotone" `Quick test_zipf_skew_monotone;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "sharded sim smoke" `Quick test_sharded_sim_smoke;
          Alcotest.test_case "4 shards >= 1.5x 1 shard" `Quick
            test_sharding_speedup;
        ] );
    ]
