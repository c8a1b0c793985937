(* Primary-backup replication surviving a primary crash, with the paper's
   diversity deployment: H2-like ("hazel") at the primary, HSQLDB-like
   ("hickory") at the backup, Derby-like ("dogwood") at the spare
   (Sec. III-C and Fig. 10(a)).

   The example crashes the primary mid-run and narrates the recovery:
   suspicion, total-order-broadcast reconfiguration, election by largest
   executed sequence number, snapshot state transfer, resumption — then
   checks that the diverse replicas agree bit-for-bit on the database
   content.

   Run with: dune exec examples/bank_failover.exe *)

module Engine = Sim.Engine
module Store = Storage.Store
module S = Shadowdb.System

let rows = 5_000

let () =
  print_endline "== ShadowDB-PBR failover with diverse backends ==\n";
  let world : S.wire Engine.t = Engine.create ~seed:7 () in
  let rworld = Runtime.Of_sim.of_engine world in
  let tun =
    {
      Shadowdb.System.default_tuning with
      hb_interval = 0.2;
      detect_timeout = 2.0;
      cache_cap = 50 (* force a full-snapshot state transfer *);
    }
  in
  let cluster =
    S.spawn_pbr ~tun
      ~backends:[ Store.Hazel; Store.Hickory; Store.Dogwood ]
      ~world:rworld ~registry:Workload.Bank.registry
      ~setup:(fun db -> Workload.Bank.setup ~rows db)
      ~n_active:2 ~n_spare:1 ()
  in
  let commits = ref 0 in
  let last_commit = ref 0.0 in
  let _, completed =
    S.spawn_clients ~world:rworld ~target:(S.To_pbr cluster) ~n:4 ~count:3000
      ~make_txn:(fun ~client ~seq ->
        Workload.Bank.deposit
          ~account:(abs (Hashtbl.hash (client, seq)) mod rows)
          ~amount:1)
      ~retry_timeout:1.0
      ~on_commit:(fun now _ ->
        incr commits;
        last_commit := now)
      ()
  in
  let primary = cluster.S.pbr_initial_primary in
  Printf.printf "replicas: %s (primary: node %d; backends hazel/hickory/dogwood)\n"
    (String.concat ", " (List.map string_of_int cluster.S.pbr_replicas))
    primary;
  Engine.at world 0.3 (fun () ->
      Printf.printf "t=0.30s  crashing the primary (node %d); %d commits so far\n"
        primary !commits;
      Engine.crash world primary);
  Engine.at world 0.4 (fun () ->
      Printf.printf "t=0.40s  clients stall; surviving replicas heartbeat...\n");
  let announced = ref false in
  let rec watch t =
    if t < 30.0 then
      Engine.at world t (fun () ->
          let survivor = List.nth cluster.S.pbr_replicas 1 in
          if (not !announced) && cluster.S.pbr_primary_of survivor <> primary
          then begin
            announced := true;
            Printf.printf
              "t=%.2fs  new configuration adopted: node %d elected primary \
               (largest executed seq)\n"
              (Engine.now world)
              (cluster.S.pbr_primary_of survivor)
          end;
          watch (t +. 0.05))
  in
  watch 0.5;
  Engine.run ~until:120.0 world;
  Printf.printf "t=%.2fs  all %d clients finished: %d/12000 commits\n"
    !last_commit (completed ()) !commits;
  let in_final =
    List.filter
      (fun l -> Engine.is_alive world l)
      cluster.S.pbr_replicas
  in
  let gseqs = List.map cluster.S.pbr_gseq_of in_final in
  let hashes = List.map cluster.S.pbr_hash_of in_final in
  Printf.printf "\nsurvivors executed %s transactions\n"
    (String.concat " / " (List.map string_of_int gseqs));
  Printf.printf "diverse replicas agree on the database content: %b\n"
    (match hashes with h :: t -> List.for_all (( = ) h) t | [] -> false);
  Printf.printf "every answered deposit survived the crash (durability): %b\n"
    (List.for_all (fun g -> g = !commits) gseqs)
