(* Quickstart: a replicated bank in a few lines.

   Builds a ShadowDB state-machine-replication cluster (three machines,
   each co-hosting a Paxos-based broadcast member and a database replica)
   on the simulator, runs a few transactions from two clients, and prints
   the replies and the replicas' agreement. Also shows the SQL surface of
   the embedded storage engine.

   Run with: dune exec examples/quickstart.exe *)

module Engine = Sim.Engine
module S = Shadowdb.System
module Value = Storage.Value

let () =
  print_endline "== ShadowDB quickstart ==";

  (* 1. The embedded SQL database (what each replica runs underneath). *)
  let db = Storage.Database.create Storage.Store.Hickory in
  let exec sql =
    match Storage.Sql_exec.exec_sql db sql with
    | Ok r -> r
    | Error e -> failwith (sql ^ ": " ^ e)
  in
  ignore (exec "CREATE TABLE accounts (id INT, owner TEXT, balance INT)");
  ignore (exec "INSERT INTO accounts VALUES (1, 'ada', 100), (2, 'bob', 40)");
  ignore (exec "UPDATE accounts SET balance = balance + 10 WHERE id = 2");
  (match exec "SELECT owner, balance FROM accounts ORDER BY balance DESC" with
  | Storage.Sql_exec.Rows { rows; _ } ->
      List.iter
        (fun row ->
          match row with
          | [| Value.Text owner; Value.Int balance |] ->
              Printf.printf "   %-4s has %d\n" owner balance
          | _ -> ())
        rows
  | _ -> ());

  (* 2. A replicated deployment of the same engine. *)
  let world : S.wire Engine.t = Engine.create ~seed:1 () in
  let rworld = Runtime.Of_sim.of_engine world in
  let cluster =
    S.spawn_smr ~world:rworld ~registry:Workload.Bank.registry
      ~setup:(fun db -> Workload.Bank.setup ~rows:1000 db)
      ~n_active:2 ()
  in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:rworld ~target:(S.To_smr cluster) ~n:2 ~count:10
      ~make_txn:(fun ~client ~seq ->
        Workload.Bank.deposit
          ~account:((client + seq) mod 1000)
          ~amount:(1 + (seq mod 5)))
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.run ~until:30.0 world;
  Printf.printf "\n   clients completed : %d/2\n" (completed ());
  Printf.printf "   transactions done : %d\n" !commits;
  let active =
    List.filter (fun l -> cluster.S.smr_active_of l) cluster.S.smr_nodes
  in
  let hashes = List.map cluster.S.smr_hash_of active in
  Printf.printf "   active replicas   : %d\n" (List.length active);
  Printf.printf "   states agree      : %b\n"
    (match hashes with h :: t -> List.for_all (( = ) h) t | [] -> false);
  Printf.printf "   virtual duration  : %.3f s\n" (Engine.now world)
