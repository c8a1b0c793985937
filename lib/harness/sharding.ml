module Engine = Sim.Engine
module Sdb = Shadowdb.System

type point = {
  shards : int;
  txns_s : float;
  speedup : float;
  x_committed : int;
  x_aborted : int;
}

let rows = 1_000

(* One run at [shards] shards: virtual committed/s and the coordinator's
   commit/abort counts. *)
let measure ~quick ~shards =
  let world : Sdb.wire Engine.t = Engine.create ~seed:(300 + shards) () in
  let rworld = Runtime.Of_sim.of_engine world in
  let zipf = Workload.Zipf.create ~n:rows ~theta:0.9 in
  let commits = ref 0 in
  let last = ref 0.0 in
  let cluster =
    Sdb.spawn_sharded ~world:rworld ~registry:Workload.Bank.registry
      ~setup:(fun s db -> Workload.Bank.setup_shard ~rows ~shards s db)
      ~router:(Workload.Bank.router ~shards)
      ()
  in
  let make_txn ~client ~seq =
    if seq mod 20 = 19 then
      let src = Workload.Zipf.sample_id zipf ~client ~seq in
      let dst =
        (src + 1 + (abs (Hashtbl.hash (client, seq, 1)) mod (rows - 1)))
        mod rows
      in
      Workload.Bank.transfer ~src ~dst ~amount:1
    else
      Workload.Bank.deposit
        ~account:(Workload.Zipf.sample_id zipf ~client ~seq)
        ~amount:1
  in
  let n_clients = 4 * shards and count = if quick then 100 else 400 in
  let _, _ =
    Sdb.spawn_clients ~world:rworld ~target:(Sdb.To_sharded cluster)
      ~n:n_clients ~count ~make_txn ~retry_timeout:4.0
      ~on_commit:(fun now _ ->
        incr commits;
        last := now)
      ()
  in
  Engine.run ~until:3600.0 ~max_events:100_000_000 world;
  let txns_s = if !last > 0.0 then float_of_int !commits /. !last else nan in
  (txns_s, cluster.Sdb.sh_committed (), cluster.Sdb.sh_aborted ())

let curve ?(quick = true) () =
  let pts =
    List.map
      (fun shards -> (shards, measure ~quick ~shards))
      [ 1; 2; 4 ]
  in
  let base = match pts with (_, (t, _, _)) :: _ -> t | [] -> nan in
  List.map
    (fun (shards, (txns_s, x_committed, x_aborted)) ->
      { shards; txns_s; speedup = txns_s /. base; x_committed; x_aborted })
    pts

let print pts =
  Stats.Table.print_table ~title:"sharding — weak scaling (virtual time)"
    ~header:[ "measure"; "value" ]
    (List.map
       (fun { shards; txns_s; speedup; x_committed = xc; x_aborted = xa } ->
         [
           Printf.sprintf "sharded txns/s (sim, %d shard%s)" shards
             (if shards = 1 then "" else "s");
           Printf.sprintf "%s (%.2fx, 2pc %d/%d)" (Stats.Table.fmt_f txns_s)
             speedup xc (xc + xa);
         ])
       pts)
