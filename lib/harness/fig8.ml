module Engine = Sim.Engine
module Tob = Broadcast.Tob

type point = { clients : int; throughput : float; latency_ms : float }

module Load (C : Consensus.Consensus_intf.S) = struct
  module Shell = Broadcast.Shell.Make (C)

  type wire = Svc of Shell.T.msg | Note of Tob.deliver

  let run ~seed ~payload ?profile ?batch_cap ?window ~n_members ~n_clients
      ~msgs_per_client () =
    let world : wire Engine.t = Engine.create ~seed () in
    let latencies = Stats.Sample.create () in
    let last_commit = ref 0.0 in
    let completed = ref 0 in
    let client_ids = ref [] in
    let members = ref [] in
    let mk_client () =
      let locref = ref (-1) in
      let id =
        Engine.spawn world ~name:"tob-client" (fun () ->
            let next_id = ref 0 in
            let sent_at = ref 0.0 in
            let send ctx =
              sent_at := Engine.time ctx;
              Engine.send ctx ~size:164
                (Sim.Invariant.head ~layer:"harness" ~what:"tob load members"
                   !members)
                (Svc
                   (Shell.T.Broadcast
                      { Tob.origin = !locref; id = !next_id; payload }))
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
                    last_commit := now;
                    incr next_id;
                    if !next_id < msgs_per_client then send ctx
                    else incr completed
                  end
              | Engine.Recv _ | Engine.Timer _ -> ())
      in
      locref := id;
      id
    in
    let svc =
      Shell.spawn ?profile ?batch_cap ?window
        ~world:(Runtime.Of_sim.of_engine world)
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
    if !completed < n_clients then
      Printf.eprintf "tob load: warning: only %d/%d clients completed\n%!"
        !completed n_clients;
    ( float_of_int (n_clients * msgs_per_client) /. !last_commit,
      Stats.Sample.mean latencies *. 1e3 )
end

module Paxos_load = Load (Consensus.Paxos)

let payload = String.make 140 'p' (* the paper's 140-byte payload *)

let default_clients = [ 1; 2; 4; 8; 16; 24; 32; 43 ]

let run_engine ?(msgs_per_client = 60) ?(clients = default_clients) profile =
  List.map
    (fun n_clients ->
      let throughput, latency_ms =
        Paxos_load.run ~seed:42 ~payload ~profile ~n_members:3 ~n_clients
          ~msgs_per_client ()
      in
      { clients = n_clients; throughput; latency_ms })
    clients

let run ?(quick = true) () =
  let msgs_per_client = if quick then 60 else 400 in
  List.map
    (fun profile -> (profile, run_engine ~msgs_per_client profile))
    Gpm.Engine_profile.all

let print results =
  List.iter
    (fun (profile, points) ->
      Stats.Table.print_table
        ~title:
          (Printf.sprintf "Fig. 8 — broadcast service, %s engine"
             (Gpm.Engine_profile.name profile))
        ~header:[ "clients"; "delivered msgs/s"; "latency (ms)" ]
        (List.map
           (fun p ->
             [
               string_of_int p.clients;
               Stats.Table.fmt_f p.throughput;
               Stats.Table.fmt_f p.latency_ms;
             ])
           points))
    results
