(* TPC-C on state machine replication.

   Runs the five-transaction TPC-C mix through the replicated database
   (every transaction totally ordered by the Paxos-based broadcast
   service, executed deterministically at each replica), then verifies
   the TPC-C consistency conditions on a local copy replayed from
   scratch — the same determinism argument that keeps the replicas
   identical.

   Run with: dune exec examples/tpcc_demo.exe *)

module Engine = Sim.Engine
module S = Shadowdb.System
module Tpcc = Workload.Tpcc

let scale = Tpcc.small_scale

let () =
  print_endline "== TPC-C (1 warehouse) on ShadowDB-SMR ==\n";
  let world : S.wire Engine.t = Engine.create ~seed:13 () in
  let rworld = Runtime.Of_sim.of_engine world in
  let cluster =
    S.spawn_smr ~world:rworld
      ~registry:(fun () -> Tpcc.registry ~scale ())
      ~setup:(fun db -> Tpcc.setup ~scale db)
      ~n_active:2 ()
  in
  let commits = ref 0 in
  let aborts = ref 0 in
  let by_kind : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let make_txn ~client ~seq =
    let rng = Sim.Prng.create (Hashtbl.hash (client, seq, "demo")) in
    let kind, params = Tpcc.make_txn ~scale rng ~h_id:((client * 100_000) + seq) in
    Hashtbl.replace by_kind kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind kind));
    (kind, params)
  in
  let _, completed =
    S.spawn_clients ~world:rworld ~target:(S.To_smr cluster) ~n:4 ~count:150 ~make_txn
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.run ~until:600.0 world;
  aborts := (4 * 150) - !commits;
  Printf.printf "clients completed : %d/4\n" (completed ());
  Printf.printf "committed         : %d\n" !commits;
  Printf.printf "aborted (1%% rule) : %d\n" !aborts;
  Printf.printf "mix               : %s\n"
    (String.concat ", "
       (List.sort compare
          (Hashtbl.fold
             (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc)
             by_kind [])));
  let actives =
    List.filter (fun l -> cluster.S.smr_active_of l) cluster.S.smr_nodes
  in
  let hashes = List.map cluster.S.smr_hash_of actives in
  Printf.printf "replica agreement : %b\n"
    (match hashes with h :: t -> List.for_all (( = ) h) t | [] -> false);

  (* Replay the same transactions locally (determinism) and check the
     TPC-C consistency conditions. *)
  print_endline "\nTPC-C consistency conditions on the replicated state:";
  let db = Storage.Database.create Storage.Store.Hickory in
  Tpcc.setup ~scale db;
  let reg = Tpcc.registry ~scale () in
  for client = 0 to 3 do
    for seq = 0 to 149 do
      let rng = Sim.Prng.create (Hashtbl.hash (client, seq, "demo")) in
      let kind, params =
        Tpcc.make_txn ~scale rng ~h_id:((client * 100_000) + seq)
      in
      ignore
        (Shadowdb.Txn.execute reg db { Shadowdb.Txn.client; seq; kind; params })
    done
  done;
  List.iter
    (fun (name, check) ->
      match check db with
      | Ok () -> Printf.printf "  %-40s ok\n" name
      | Error e -> Printf.printf "  %-40s VIOLATED: %s\n" name e)
    [
      ("1: W_YTD = sum(D_YTD)", Tpcc.consistency_1);
      ("2: D_NEXT_O_ID - 1 = max(O_ID)", Tpcc.consistency_2);
      ("3: NEW_ORDER ids contiguous", Tpcc.consistency_3);
      ("4: sum(O_OL_CNT) = #ORDER_LINE", Tpcc.consistency_4);
    ];
  Printf.printf "\nrow counts: %s\n"
    (String.concat ", "
       (List.map
          (fun (t, n) -> Printf.sprintf "%s=%d" t n)
          (Tpcc.row_counts db)))
