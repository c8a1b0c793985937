module Engine = Sim.Engine

type point = { label : string; throughput : float; latency_ms : float }

module Paxos_load = Fig8.Load (Consensus.Paxos)
module Twothird_load = Fig8.Load (Consensus.Twothird_multi)

(* The Fig. 8 load driver with the ablations' own seed and payload. *)
let paxos_load = Paxos_load.run ~seed:47 ~payload:"abl"
let twothird_load = Twothird_load.run ~seed:47 ~payload:"abl"

let batching ?(clients = 24) ?(msgs_per_client = 80) () =
  let t1, l1 = paxos_load ~n_members:3 ~n_clients:clients ~msgs_per_client () in
  let t2, l2 =
    paxos_load ~batch_cap:1 ~n_members:3 ~n_clients:clients ~msgs_per_client ()
  in
  [
    { label = "batching on (cap 64)"; throughput = t1; latency_ms = l1 };
    { label = "batching off (cap 1)"; throughput = t2; latency_ms = l2 };
  ]

(* Consensus pipelining: batches a member may have in flight at once.
   Batching is forced off (cap 1) so every entry is its own consensus
   instance — the backlog that a window > 1 can overlap. *)
let pipelining ?(clients = 24) ?(msgs_per_client = 80) () =
  List.map
    (fun w ->
      let t, l =
        paxos_load ~batch_cap:1 ~window:w ~n_members:3 ~n_clients:clients
          ~msgs_per_client ()
      in
      {
        label = Printf.sprintf "pipelining window %d" w;
        throughput = t;
        latency_ms = l;
      })
    [ 1; 2; 4 ]

let consensus_modules ?(clients = 16) ?(msgs_per_client = 80) () =
  let t1, l1 = paxos_load ~n_members:3 ~n_clients:clients ~msgs_per_client () in
  let t2, l2 =
    twothird_load ~n_members:4 ~n_clients:clients ~msgs_per_client ()
  in
  [
    { label = "paxos-synod (3 members)"; throughput = t1; latency_ms = l1 };
    { label = "twothird (4 members)"; throughput = t2; latency_ms = l2 };
  ]

let lock_granularity ?(clients = 16) ?(count = 150) () =
  let module B = Baselines.Server in
  let run granularity =
    let world : B.wire Engine.t = Engine.create ~seed:53 () in
    let rworld = Runtime.Of_sim.of_engine world in
    let latencies = Stats.Sample.create () in
    let last = ref 0.0 in
    let cluster =
      (* Locks are held across a 1 ms multi-statement transaction body, so
         hold time exceeds CPU time and granularity becomes visible. *)
      B.spawn ~world:rworld ~stmt_delay:(fun _ -> 1.0e-3)
        ~registry:Workload.Bank.registry
        ~setup:(fun db -> Workload.Bank.setup ~rows:1000 db)
        (B.Semisync_repl granularity)
    in
    let (_ : unit -> int) =
      B.spawn_clients ~world:rworld ~cluster ~n:clients ~count
        ~make_txn:(fun ~client ~seq ->
          (* Half the clients hammer one hot row. *)
          let account =
            if client mod 2 = 0 then 0
            else abs (Hashtbl.hash (client, seq)) mod 1000
          in
          Workload.Bank.deposit ~account ~amount:1)
        ~on_commit:(fun now l ->
          Stats.Sample.add latencies l;
          last := now)
        ()
    in
    Engine.run ~until:3600.0 ~max_events:50_000_000 world;
    ( float_of_int (cluster.B.commits ()) /. !last,
      Stats.Sample.mean latencies *. 1e3 )
  in
  let t1, l1 = run Storage.Lock.Table_level in
  let t2, l2 = run Storage.Lock.Row_level in
  [
    { label = "table-level locks"; throughput = t1; latency_ms = l1 };
    { label = "row-level locks"; throughput = t2; latency_ms = l2 };
  ]

(* ShadowDB's three replication styles over the same bank workload: the
   hand-coded primary-backup normal case, chain replication (the other
   protocol the paper names as buildable on the TOB), and state machine
   replication through the broadcast service. *)
let replication_styles ?(clients = 24) ?(count = 400) () =
  let module S = Shadowdb.System in
  let rows = 10_000 in
  let run label target_of =
    let world : S.wire Sim.Engine.t = Engine.create ~seed:59 () in
    let rworld = Runtime.Of_sim.of_engine world in
    let latencies = Stats.Sample.create () in
    let last = ref 0.0 in
    let commits = ref 0 in
    let target = target_of rworld in
    let _, _ =
      S.spawn_clients ~world:rworld ~target ~n:clients ~count
        ~make_txn:(fun ~client ~seq ->
          Workload.Bank.deposit
            ~account:(abs (Hashtbl.hash (client, seq)) mod rows)
            ~amount:1)
        ~retry_timeout:30.0
        ~on_commit:(fun now l ->
          incr commits;
          last := now;
          Stats.Sample.add latencies l)
        ()
    in
    Engine.run ~until:36_000.0 ~max_events:100_000_000 world;
    {
      label;
      throughput = float_of_int !commits /. !last;
      latency_ms = Stats.Sample.mean latencies *. 1e3;
    }
  in
  let registry = Workload.Bank.registry in
  let setup db = Workload.Bank.setup ~rows db in
  [
    run "primary-backup (2+1)" (fun world ->
        S.To_pbr (S.spawn_pbr ~world ~registry ~setup ~n_active:2 ~n_spare:1 ()));
    run "chain (3+1)" (fun world ->
        S.To_pbr
          (S.spawn_pbr ~style:S.Chain ~read_kinds:[ "balance" ] ~world ~registry ~setup
             ~n_active:3 ~n_spare:1 ()));
    run "state machine (2 of 3)" (fun world ->
        S.To_smr (S.spawn_smr ~world ~registry ~setup ~n_active:2 ()));
  ]

let print ~title points =
  Stats.Table.print_table ~title
    ~header:[ "variant"; "throughput/s"; "latency (ms)" ]
    (List.map
       (fun p ->
         [ p.label; Stats.Table.fmt_f p.throughput; Stats.Table.fmt_f p.latency_ms ])
       points)
