(* The ShadowDB command-line tool.

   `shadowdb run` deploys a replicated database and drives a workload
   against it — on the deterministic simulator (`--runtime sim`, the
   default, optionally crashing a replica mid-run) or as a real cluster
   of socket-connected nodes on the local machine (`--runtime loop`: the
   single-reactor event loop with batched sends and backpressure);
   `shadowdb sql` is a small SQL shell over the embedded storage engine
   (reads statements from stdin, one per line). *)

open Cmdliner
module Engine = Sim.Engine
module S = Shadowdb.System

type mode = Pbr | Smr | Chain

let mode_conv =
  Arg.enum [ ("pbr", Pbr); ("smr", Smr); ("chain", Chain) ]

type wl = Bank | Tpcc

let wl_conv = Arg.enum [ ("bank", Bank); ("tpcc", Tpcc) ]

type rt = Rt_sim | Rt_loop

let rt_conv = Arg.enum [ ("sim", Rt_sim); ("loop", Rt_loop) ]

let bank_rows = 10_000

let workload_parts = function
  | Bank ->
      let rows = bank_rows in
      ( Workload.Bank.registry,
        (fun db -> Workload.Bank.setup ~rows db),
        (fun ~client ~seq ->
          if seq mod 4 = 3 then
            Workload.Bank.balance
              ~account:(abs (Hashtbl.hash (client, seq)) mod rows)
          else
            Workload.Bank.deposit
              ~account:(abs (Hashtbl.hash (client, seq)) mod rows)
              ~amount:(1 + (seq mod 9))),
        [ "balance" ] )
  | Tpcc ->
      let scale = Workload.Tpcc.small_scale in
      ( (fun () -> Workload.Tpcc.registry ~scale ()),
        (fun db -> Workload.Tpcc.setup ~scale db),
        (fun ~client ~seq ->
          let rng = Sim.Prng.create (Hashtbl.hash (client, seq)) in
          Workload.Tpcc.make_txn ~scale rng
            ~h_id:((client * 1_000_000) + seq)),
        [ "order_status"; "stock_level" ] )

(* What [spawn_cluster] hands back to the runners: how to describe the
   deployment, the client target (which is also its cluster view,
   {!S.groups}), and extra report lines. *)
type deployed = {
  describe : string;
  target : S.client_target;
  extra : unit -> (string * string) list;
}

(* Every replica with its group, in spawn order. *)
let replicas d =
  List.concat_map (fun g -> List.map (fun l -> (l, g)) g.S.members)
    (S.groups d.target)

(* End-of-run agreement: no two replicas of a group that executed the
   same prefix differ ({!S.disagreement}), and a group's executing
   replicas that executed anything reached one configuration and count. *)
let agreement d ~alive =
  S.disagreement d.target ~alive = None
  && List.for_all
       (fun g ->
         List.filter
           (fun l -> alive l && g.S.executes l && g.S.gseq_of l > 0)
           g.S.members
         |> List.map (fun l -> (g.S.cfg_of l, g.S.gseq_of l))
         |> List.sort_uniq compare |> List.length <= 1)
       (S.groups d.target)

let spawn_cluster mode ~window ~read_kinds ~backends ~world ~registry ~setup =
  match mode with
  | Pbr | Chain ->
      (* [read_kinds] is served at a chain's tail; primary-backup ignores
         it. *)
      let style, n_active, describe =
        match mode with
        | Chain -> (S.Chain, 3, "chain (3 links + 1 spare)")
        | _ -> (S.Primary_backup, 2, "primary-backup (2 active + 1 spare)")
      in
      let c =
        S.spawn_pbr ~style ~read_kinds ~backends ~tob_window:window ~world
          ~registry ~setup ~n_active ~n_spare:1 ()
      in
      { describe; target = S.To_pbr c; extra = (fun () -> []) }
  | Smr ->
      let c =
        S.spawn_smr ~backends ~tob_window:window ~world ~registry ~setup
          ~n_active:2 ()
      in
      {
        describe = "state machine replication (2 of 3)";
        target = S.To_smr c;
        extra = (fun () -> []);
      }

(* A sharded deployment: one 3-replica SMR group (its own TOB instance)
   per shard plus the 2PC coordinator; single-shard transactions go
   straight to the owning shard, cross-shard ones through
   prepare/commit records totally ordered within each participant's
   TOB. Bank only: the transfer mix is what exercises 2PC. *)
let shard_rows = 10_000

let spawn_sharded_cluster ~shards ~window ~backends ~world =
  let router = Workload.Bank.router ~shards in
  let c =
    S.spawn_sharded ~backends ~tob_window:window ~world
      ~registry:Workload.Bank.registry
      ~setup:(fun s db ->
        Workload.Bank.setup_shard ~rows:shard_rows ~shards s db)
      ~router ()
  in
  {
    describe =
      Printf.sprintf "%d shards x 3 SMR replicas + 2PC coordinator" shards;
    target = S.To_sharded c;
    extra =
      (fun () ->
        [
          ( "cross-shard",
            Printf.sprintf "%d committed, %d aborted via 2PC"
              (c.S.sh_committed ()) (c.S.sh_aborted ()) );
        ]);
  }

(* Mixed sharded workload: alternating transfers (the 2PC traffic; with
   k shards, a fraction (k-1)/k of them cross shards) and single-shard
   deposits. *)
let make_sharded_txn ~client ~seq =
  let h = abs (Hashtbl.hash (client, seq)) in
  if seq mod 2 = 0 then
    let src = h mod shard_rows in
    let dst =
      (src + 1 + (abs (Hashtbl.hash (client, seq, 1)) mod (shard_rows - 1)))
      mod shard_rows
    in
    Workload.Bank.transfer ~src ~dst ~amount:1
  else Workload.Bank.deposit ~account:(h mod shard_rows) ~amount:(1 + (seq mod 9))

(* --------------------- conformance instrumentation -------------------- *)

(* Trace meta lets the offline checker rebuild the shadow execution
   environment (workload + seeding) and pick the right monitor set. *)
let conform_meta ~rt ~wl ~shards ~seed ~clients ~count =
  let rt_name = match rt with Rt_sim -> "sim" | Rt_loop -> "loop" in
  let wl_meta =
    match (wl, shards) with
    | Bank, 1 -> [ ("workload", "bank"); ("rows", string_of_int bank_rows) ]
    | Bank, _ -> [ ("workload", "bank") ]
    | Tpcc, _ -> [ ("workload", "tpcc") ]
  in
  wl_meta
  @ [
      ("runtime", rt_name);
      ("shards", string_of_int shards);
      ("seed", string_of_int seed);
      ("clients", string_of_int clients);
      ("count", string_of_int count);
    ]

(* The recorder (for --trace) and the online monitor (for --monitor),
   combined into the single tap the runtime accepts. *)
let conform_taps ~meta ~trace ~monitor =
  let recorder =
    match trace with
    | None -> None
    | Some _ -> Some (Conform.Recorder.create ~meta ())
  in
  let online = if monitor then Some (Conform.Online.create ()) else None in
  let taps =
    (match recorder with
    | Some r ->
        [ Conform.Recorder.tap r ~enc:S.wire_codec.Runtime.enc ]
    | None -> [])
    @ match online with Some o -> [ Conform.Online.tap o ] | None -> []
  in
  let tap = match taps with [] -> None | l -> Some (Runtime.tap_all l) in
  (recorder, online, tap)

(* Saves the trace, with the deployment's replica groups in its meta
   when there is more than one. Returns true when the online monitor saw
   a violation. *)
let conform_finish ~trace ~d recorder online =
  (match (trace, recorder) with
  | Some path, Some r ->
      Conform.Recorder.add_meta r (Conform.Monitors.groups_meta d.target);
      Conform.Recorder.save r path;
      Printf.printf "trace      : %d events to %s%s\n"
        (Conform.Recorder.recorded r)
        path
        (let d = Conform.Recorder.dropped r in
         if d > 0 then Printf.sprintf " (%d oldest dropped)" d else "")
  | _ -> ());
  match online with
  | None -> false
  | Some o ->
      Printf.printf "%s\n" (Conform.Online.summary o);
      List.iter
        (fun m -> Printf.printf "monitor    : %s\n" m)
        (Conform.Online.messages o);
      Conform.Online.violations o > 0

let backends_of diverse =
  if diverse then
    [ Storage.Store.Hazel; Storage.Store.Hickory; Storage.Store.Dogwood ]
  else [ Storage.Store.Hazel ]

let report ~clients ~completed ~commits ~elapsed ~latencies ~alive ~d
    ~unit_label =
  Printf.printf "completed  : %d/%d clients\n" completed clients;
  Printf.printf "committed  : %d txns in %.3f s %s\n" commits elapsed
    unit_label;
  if elapsed > 0.0 then
    Printf.printf "throughput : %.0f txns/s\n" (float_of_int commits /. elapsed);
  Printf.printf "latency    : mean %.2f ms, p50 %.2f ms, p99 %.2f ms\n"
    (Stats.Sample.mean latencies *. 1e3)
    (Stats.Sample.percentile latencies 50.0 *. 1e3)
    (Stats.Sample.percentile latencies 99.0 *. 1e3);
  let live = List.filter (fun (l, _) -> alive l) (replicas d) in
  Printf.printf "replicas   : %s executed %s txns\n"
    (String.concat "," (List.map (fun (l, _) -> string_of_int l) live))
    (String.concat "/"
       (List.map (fun (l, g) -> string_of_int (g.S.gseq_of l)) live));
  List.iter (fun (k, v) -> Printf.printf "%-11s: %s\n" k v) (d.extra ());
  Printf.printf "agreement  : %b\n" (agreement d ~alive)

let deploy mode wl shards ~window ~diverse ~world =
  let backends = backends_of diverse in
  if shards > 1 then begin
    (match wl with
    | Bank -> ()
    | Tpcc ->
        prerr_endline "shadowdb: --shards currently supports the bank workload";
        exit 2);
    (spawn_sharded_cluster ~shards ~window ~backends ~world, make_sharded_txn)
  end
  else
    let registry, setup, make_txn, read_kinds = workload_parts wl in
    ( spawn_cluster mode ~window ~read_kinds ~backends ~world ~registry ~setup,
      make_txn )

let run_sim mode wl shards clients count crash_at seed diverse window trace
    monitor =
  let world : S.wire Engine.t = Engine.create ~seed () in
  let meta = conform_meta ~rt:Rt_sim ~wl ~shards ~seed ~clients ~count in
  let recorder, online, tap = conform_taps ~meta ~trace ~monitor in
  let rworld = Runtime.Of_sim.of_engine ?tap world in
  let d, make_txn = deploy mode wl shards ~window ~diverse ~world:rworld in
  let latencies = Stats.Sample.create () in
  let commits = ref 0 in
  let last = ref 0.0 in
  let _, completed =
    S.spawn_clients ~world:rworld ~target:d.target ~n:clients ~count ~make_txn
      ~retry_timeout:2.0
      ~on_commit:(fun now l ->
        incr commits;
        last := now;
        Stats.Sample.add latencies l)
      ()
  in
  (match (crash_at, replicas d) with
  | Some t, (victim, _) :: _ ->
      Engine.at world t (fun () ->
          Printf.printf "t=%-8.2f crashing node %d\n" t victim;
          Engine.crash world victim)
  | Some _, [] | None, _ -> ());
  Printf.printf "deployment : %s%s\n" d.describe
    (if diverse then ", diverse backends (hazel/hickory/dogwood)" else "");
  Printf.printf "workload   : %d clients x %d txns\n%!" clients count;
  Engine.run ~until:3600.0 ~max_events:500_000_000 world;
  report ~clients ~completed:(completed ()) ~commits:!commits ~elapsed:!last
    ~latencies ~alive:(Engine.is_alive world) ~d ~unit_label:"virtual";
  let violated = conform_finish ~trace ~d recorder online in
  if completed () <> clients || violated then exit 1

(* A real cluster on the local machine: messages are framed Codec bytes
   over loopback sockets, timers run on the wall clock, and the whole
   deployment is multiplexed over one event-loop reactor. Same protocol
   code as the simulation — only the runtime underneath changes. *)
let run_socket mode wl shards clients count crash_at diverse window trace
    monitor =
  (match crash_at with
  | Some _ ->
      Printf.eprintf "shadowdb: --crash-at is simulator-only; ignoring\n%!"
  | None -> ());
  let codec = S.wire_codec in
  let meta = conform_meta ~rt:Rt_loop ~wl ~shards ~seed:0 ~clients ~count in
  let recorder, online, tap = conform_taps ~meta ~trace ~monitor in
  let loop =
    Runtime.Loop.create
      ~on_backpressure:(fun ~dst ~bytes ->
        Printf.eprintf "backpressure: outbox to node %d engaged at %d bytes\n%!"
          dst bytes)
      ?tap ~codec ()
  in
  let world = Runtime.Loop.runtime loop in
  let d, make_txn = deploy mode wl shards ~window ~diverse ~world in
  let latencies = Stats.Sample.create () in
  let mu = Mutex.create () in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world ~target:d.target ~n:clients ~count ~make_txn
      ~retry_timeout:2.0
      ~on_commit:(fun _now l ->
        Mutex.protect mu (fun () ->
            incr commits;
            Stats.Sample.add latencies l))
      ()
  in
  Printf.printf "deployment : %s%s, live over loopback TCP (event-loop reactor)\n"
    d.describe
    (if diverse then ", diverse backends (hazel/hickory/dogwood)" else "");
  List.iter
    (fun (l, _) ->
      Printf.printf "node       : replica %d on 127.0.0.1:%d\n" l
        (Option.value ~default:0 (Runtime.Loop.port_of loop l)))
    (replicas d);
  Printf.printf "workload   : %d clients x %d txns\n%!" clients count;
  let t0 = Unix.gettimeofday () in
  Runtime.Loop.start loop;
  let finished =
    Runtime.Loop.await ~timeout:300.0 loop (fun () -> completed () >= clients)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Runtime.Loop.stop loop;
  List.iter
    (fun e -> Printf.eprintf "loop runtime error: %s\n%!" e)
    (Runtime.Loop.errors loop);
  report ~clients ~completed:(completed ()) ~commits:!commits ~elapsed
    ~latencies ~alive:(fun _ -> true) ~d ~unit_label:"wall-clock";
  Printf.printf "backpressure: %d outbox engagements\n"
    (Runtime.Loop.stats loop).Runtime.Loop.s_backpressure;
  let violated = conform_finish ~trace ~d recorder online in
  if not finished || violated then exit 1

let run_cluster runtime mode wl shards clients count crash_at seed diverse
    window trace monitor =
  match runtime with
  | Rt_sim ->
      run_sim mode wl shards clients count crash_at seed diverse window trace
        monitor
  | Rt_loop ->
      run_socket mode wl shards clients count crash_at diverse window trace
        monitor

let sql_shell backend =
  let kind =
    Option.value ~default:Storage.Store.Hazel
      (Storage.Store.kind_of_string backend)
  in
  let db = Storage.Database.create kind in
  Printf.printf "shadowdb sql shell (%s backend); one statement per line.\n%!"
    (Storage.Store.kind_name kind);
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then
         match Storage.Sql_exec.exec_sql db line with
         | Error e -> Printf.printf "error: %s\n%!" e
         | Ok Storage.Sql_exec.Done -> Printf.printf "ok\n%!"
         | Ok (Storage.Sql_exec.Affected n) -> Printf.printf "ok, %d rows\n%!" n
         | Ok (Storage.Sql_exec.Rows { columns; rows }) ->
             Printf.printf "%s\n" (String.concat " | " columns);
             List.iter
               (fun row ->
                 Printf.printf "%s\n"
                   (String.concat " | "
                      (Array.to_list (Array.map Storage.Value.to_string row))))
               rows;
             Printf.printf "(%d rows)\n%!" (List.length rows)
     done
   with End_of_file -> ())

let run_cmd =
  let runtime =
    Arg.(
      value & opt rt_conv Rt_sim
      & info [ "runtime" ]
          ~doc:
            "sim (deterministic simulator) or loop (single-process \
             event-loop reactor over loopback sockets, with batched sends \
             and backpressure).")
  in
  let mode =
    Arg.(value & opt mode_conv Pbr & info [ "mode" ] ~doc:"pbr, smr or chain.")
  in
  let wl =
    Arg.(value & opt wl_conv Bank & info [ "workload" ] ~doc:"bank or tpcc.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Deploy N independent shards (one TOB-replicated SMR group \
             each) behind a 2PC coordinator; transfers spanning shards \
             commit atomically via prepare/commit records in each \
             participant's total order. N=1 keeps the classic \
             single-group deployment selected by --mode.")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Closed-loop clients.")
  in
  let count =
    Arg.(value & opt int 1000 & info [ "count" ] ~doc:"Transactions per client.")
  in
  let crash =
    Arg.(
      value
      & opt (some float) None
      & info [ "crash-at" ] ~doc:"Crash the first replica at this virtual time.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let diverse =
    Arg.(value & flag & info [ "diverse" ] ~doc:"Deploy diverse storage backends.")
  in
  let window =
    Arg.(
      value & opt int 1
      & info [ "window" ]
          ~doc:
            "Broadcast-service pipelining window: batches a member may \
             have in flight through consensus at once.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the cluster's event trace (deliveries, fingerprint \
             checkpoints, messages) to this file for offline conformance \
             checking with $(b,shadowdb_check conform).")
  in
  let monitor =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:
            "Run the in-process conformance monitor while the cluster \
             executes: per-link FIFO and state-fingerprint agreement; a \
             violation fails the run.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Deploy a replicated database and drive a workload.")
    Term.(
      const run_cluster $ runtime $ mode $ wl $ shards $ clients $ count
      $ crash $ seed $ diverse $ window $ trace $ monitor)

let sql_cmd =
  let backend =
    Arg.(
      value & opt string "hazel"
      & info [ "backend" ] ~doc:"hazel (hash), hickory (B+-tree) or dogwood (AVL).")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"SQL shell over the embedded storage engine (stdin).")
    Term.(const sql_shell $ backend)

let () =
  let info =
    Cmd.info "shadowdb"
      ~doc:"Replicated databases on a simulated or live local cluster."
  in
  exit (Cmd.eval (Cmd.group info [ run_cmd; sql_cmd ]))
