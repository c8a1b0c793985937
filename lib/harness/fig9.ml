module Engine = Sim.Engine
module Store = Storage.Store
module Value = Storage.Value
module S = Shadowdb.System
module B = Baselines.Server

type system = Shadow_pbr | Shadow_smr | H2_standalone | H2_repl | Mysql_repl

let system_name = function
  | Shadow_pbr -> "ShadowDB-PBR"
  | Shadow_smr -> "ShadowDB-SMR"
  | H2_standalone -> "H2-stdalone"
  | H2_repl -> "H2-repl"
  | Mysql_repl -> "MySQL-repl"

type point = { clients : int; throughput : float; latency_ms : float }

type bench = Micro | Tpcc

(* Workload descriptions. Transaction parameters are deterministic per
   (client, seq) so client retries resend identical transactions. *)

type workload = {
  registry : unit -> Shadowdb.Txn.registry;
  setup : Storage.Database.t -> unit;
  make_txn : client:int -> seq:int -> string * Value.t list;
  lock_of : Shadowdb.Txn.t -> string * Store.key option;
  stmt_delay : Shadowdb.Txn.t -> float;
      (* client↔server statement round trips at the conventional
         (JDBC-driven) databases; ShadowDB executes transactions
         co-located with the database and avoids them (paper Sec. IV-B) *)
  mysql_row_locks : bool;
  count : int;  (* transactions per client per point *)
}

let micro_workload ~quick =
  let rows = if quick then 10_000 else 50_000 in
  {
    registry = Workload.Bank.registry;
    setup = (fun db -> Workload.Bank.setup ~rows db);
    make_txn =
      (fun ~client ~seq ->
        let account = abs (Hashtbl.hash (client, seq, "acct")) mod rows in
        Workload.Bank.deposit ~account ~amount:1);
    lock_of =
      (fun txn ->
        match txn.Shadowdb.Txn.params with
        | v :: _ -> ("ACCOUNTS", Some [ v ])
        | [] -> ("ACCOUNTS", None));
    (* The deposit is a single auto-committed UPDATE: locks are only held
       within the statement, so there is no cross-round-trip hold. *)
    stmt_delay = (fun _ -> 0.0);
    mysql_row_locks = false;
    count = (if quick then 250 else 1500);
  }

let tpcc_workload ~quick =
  let scale =
    if quick then Workload.Tpcc.small_scale
    else
      {
        Workload.Tpcc.small_scale with
        Workload.Tpcc.customers_per_district = 300;
        items = 5000;
        initial_orders_per_district = 100;
      }
  in
  {
    registry = (fun () -> Workload.Tpcc.registry ~scale ());
    setup = (fun db -> Workload.Tpcc.setup ~scale db);
    make_txn =
      (fun ~client ~seq ->
        let rng = Sim.Prng.create (Hashtbl.hash (client, seq, "tpcc")) in
        Workload.Tpcc.make_txn ~scale rng ~h_id:((client * 1_000_000) + seq));
    lock_of =
      (fun txn ->
        match (txn.Shadowdb.Txn.kind, txn.Shadowdb.Txn.params) with
        | ("new_order" | "payment"), Value.Int d :: _ ->
            ("DISTRICT", Some [ Value.Int 1; Value.Int d ])
        | "delivery", _ -> ("NEW_ORDER", None)
        | _, _ -> ("DISTRICT", None));
    stmt_delay =
      (fun txn ->
        let rtt = 3.0e-4 in
        let stmts =
          match txn.Shadowdb.Txn.kind with
          | "new_order" -> 6 + List.length txn.Shadowdb.Txn.params - 2
          | "payment" -> 6
          | "order_status" -> 4
          | "delivery" -> 12
          | "stock_level" -> 3
          | _ -> 2
        in
        float_of_int stmts *. rtt);
    mysql_row_locks = true;
    count = (if quick then 120 else 400);
  }

let workload_of ~quick = function
  | Micro -> micro_workload ~quick
  | Tpcc -> tpcc_workload ~quick

(* Measurement: commits and latencies from the on_commit callback;
   throughput = commits / time of last commit. *)
type meter = {
  latencies : Stats.Sample.t;
  mutable last : float;
  mutable commits : int;
}

let meter () = { latencies = Stats.Sample.create (); last = 0.0; commits = 0 }

let on_commit m now latency =
  Stats.Sample.add m.latencies latency;
  m.last <- now;
  m.commits <- m.commits + 1

let point_of m ~clients =
  {
    clients;
    throughput = (if m.last > 0.0 then float_of_int m.commits /. m.last else 0.0);
    latency_ms = Stats.Sample.mean m.latencies *. 1e3;
  }

let run_shadow mode w ~n_clients =
  let world : S.wire Engine.t = Engine.create ~seed:17 () in
  let rworld = Runtime.Of_sim.of_engine world in
  let m = meter () in
  let target =
    match mode with
    | `Pbr ->
        S.To_pbr
          (S.spawn_pbr ~world:rworld ~registry:w.registry ~setup:w.setup
             ~n_active:2 ~n_spare:1 ())
    | `Smr ->
        S.To_smr
          (S.spawn_smr ~world:rworld ~registry:w.registry ~setup:w.setup
             ~n_active:2 ())
  in
  let _, completed =
    S.spawn_clients ~world:rworld ~target ~n:n_clients ~count:w.count
      ~make_txn:w.make_txn ~retry_timeout:30.0 ~on_commit:(on_commit m) ()
  in
  Engine.run ~until:36_000.0 ~max_events:200_000_000 world;
  if completed () < n_clients then
    Printf.eprintf "fig9: warning: %d/%d clients completed\n%!" (completed ())
      n_clients;
  point_of m ~clients:n_clients

let run_baseline ?(embedded = false) mode w ~exec_factor ~n_clients =
  let world : B.wire Engine.t = Engine.create ~seed:19 () in
  let rworld = Runtime.Of_sim.of_engine world in
  let m = meter () in
  (* The paper's standalone H2 is embedded (in-process): no client↔server
     statement round trips; the replicated baselines are driven over
     JDBC. *)
  let stmt_delay = if embedded then fun _ -> 0.0 else w.stmt_delay in
  let cluster =
    B.spawn ~exec_factor ~lock_of:w.lock_of ~stmt_delay ~world:rworld
      ~registry:w.registry ~setup:w.setup mode
  in
  let _completed =
    B.spawn_clients ~world:rworld ~cluster ~n:n_clients ~count:w.count
      ~make_txn:w.make_txn ~on_commit:(on_commit m) ()
  in
  Engine.run ~until:36_000.0 ~max_events:200_000_000 world;
  point_of m ~clients:n_clients

let run_system ?(quick = true) bench system ~clients =
  let w = workload_of ~quick bench in
  let one n_clients =
    match system with
    | Shadow_pbr -> run_shadow `Pbr w ~n_clients
    | Shadow_smr -> run_shadow `Smr w ~n_clients
    | H2_standalone ->
        run_baseline ~embedded:true B.Standalone w ~exec_factor:1.0 ~n_clients
    | H2_repl -> run_baseline B.Lockstep_repl w ~exec_factor:1.0 ~n_clients
    | Mysql_repl ->
        (* MySQL's engine is slower than H2's; the memory engine uses table
           locks (micro-benchmark), InnoDB uses row locks (TPC-C). *)
        let granularity =
          if w.mysql_row_locks then Storage.Lock.Row_level
          else Storage.Lock.Table_level
        in
        run_baseline (B.Semisync_repl granularity) w ~exec_factor:1.75 ~n_clients
  in
  List.map one clients

let micro_clients = [ 1; 2; 4; 8; 16; 24; 32 ]
let tpcc_clients = [ 1; 2; 4; 6; 8; 10 ]

let run ?(quick = true) bench =
  let clients = match bench with Micro -> micro_clients | Tpcc -> tpcc_clients in
  let systems =
    [ H2_standalone; Shadow_pbr; Mysql_repl; H2_repl; Shadow_smr ]
  in
  List.map (fun sys -> (sys, run_system ~quick bench sys ~clients)) systems

let print bench results =
  let bench_name =
    match bench with Micro -> "micro-benchmark (a)" | Tpcc -> "TPC-C (b)"
  in
  List.iter
    (fun (sys, points) ->
      Stats.Table.print_table
        ~title:(Printf.sprintf "Fig. 9 %s — %s" bench_name (system_name sys))
        ~header:[ "clients"; "committed txns/s"; "latency (ms)" ]
        (List.map
           (fun p ->
             [
               string_of_int p.clients;
               Stats.Table.fmt_f p.throughput;
               Stats.Table.fmt_f p.latency_ms;
             ])
           points))
    results
