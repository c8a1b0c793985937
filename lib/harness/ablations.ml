module Engine = Sim.Engine
module Tob = Broadcast.Tob

type point = { label : string; throughput : float; latency_ms : float }

(* A generic TOB load point over any consensus core. *)
module Tob_load (C : Consensus.Consensus_intf.S) = struct
  module Shell = Broadcast.Shell.Make (C)

  type wire = Svc of Shell.T.msg | Note of Tob.deliver

  let run ?batch_cap ?window ~n_members ~n_clients ~msgs_per_client () =
    let world : wire Engine.t = Engine.create ~seed:47 () in
    let latencies = Stats.Sample.create () in
    let last = ref 0.0 in
    let client_ids = ref [] in
    let members = ref [] in
    let mk_client () =
      let locref = ref (-1) in
      let id =
        Engine.spawn world ~name:"abl-client" (fun () ->
            let next_id = ref 0 in
            let sent_at = ref 0.0 in
            let send ctx =
              sent_at := Engine.time ctx;
              Engine.send ctx ~size:164 (List.hd !members)
                (Svc
                   (Shell.T.Broadcast
                      { Tob.origin = !locref; id = !next_id; payload = "abl" }))
            in
            fun ctx -> function
              | Engine.Init -> send ctx
              | Engine.Recv { msg = Note d; _ } ->
                  if
                    d.Tob.entry.Tob.origin = !locref
                    && d.Tob.entry.Tob.id = !next_id
                  then begin
                    let now = Engine.time ctx in
                    Stats.Sample.add latencies (now -. !sent_at);
                    last := now;
                    incr next_id;
                    if !next_id < msgs_per_client then send ctx
                  end
              | Engine.Recv _ | Engine.Timer _ -> ())
      in
      locref := id;
      id
    in
    let svc =
      Shell.spawn ?batch_cap ?window ~world:(Runtime.Of_sim.of_engine world)
        ~inj:(fun m -> Svc m)
        ~prj:(function Svc m -> Some m | Note _ -> None)
        ~inj_notify:(fun d -> Note d)
        ~n:n_members
        ~subscribers:(fun () -> !client_ids)
        ()
    in
    members := svc;
    client_ids := List.init n_clients (fun _ -> mk_client ());
    Engine.run ~until:3600.0 ~max_events:50_000_000 world;
    ( float_of_int (n_clients * msgs_per_client) /. !last,
      Stats.Sample.mean latencies *. 1e3 )
end

module Paxos_load = Tob_load (Consensus.Paxos)
module Twothird_load = Tob_load (Consensus.Twothird_multi)

let batching ?(clients = 24) ?(msgs_per_client = 80) () =
  let t1, l1 =
    Paxos_load.run ~n_members:3 ~n_clients:clients ~msgs_per_client ()
  in
  let t2, l2 =
    Paxos_load.run ~batch_cap:1 ~n_members:3 ~n_clients:clients
      ~msgs_per_client ()
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
        Paxos_load.run ~batch_cap:1 ~window:w ~n_members:3 ~n_clients:clients
          ~msgs_per_client ()
      in
      {
        label = Printf.sprintf "pipelining window %d" w;
        throughput = t;
        latency_ms = l;
      })
    [ 1; 2; 4 ]

let consensus_modules ?(clients = 16) ?(msgs_per_client = 80) () =
  let t1, l1 =
    Paxos_load.run ~n_members:3 ~n_clients:clients ~msgs_per_client ()
  in
  let t2, l2 =
    Twothird_load.run ~n_members:4 ~n_clients:clients ~msgs_per_client ()
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
  let module S = Shadowdb.System.Make (Consensus.Paxos) in
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
