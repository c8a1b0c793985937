(* Bechamel micro-benchmarks: real-time cost of the core operations behind
   the design choices in DESIGN.md (optimizer on/off, storage backend
   diversity, SQL front end, codec and Paxos step costs) and of the hot
   paths the end-to-end suite in perfbench/ does not isolate (simulator
   engine, model-checker schedules, WAL recovery, trace codec, wire
   framing). Each is fitted by OLS over many runs; the result is one
   ns/run table.

   `dune exec bench/main.exe` runs it. The paper's tables and figures are
   virtual-time and printed by bin/shadowdb_bench.exe instead. *)

open Bechamel
open Toolkit

module Message = Loe.Message
module Cls = Loe.Cls

(* Ablation 1: the program optimizer (tree-walking interpreter vs fused
   machine with common-subexpression sharing). CLK is tiny, so the gain is
   modest there; on a wide specification (many composed classes over a
   shared base, like the Paxos node spec) the fused machine avoids
   rebuilding the whole instance tree per event. *)
let bench_gpm_backends =
  let h : int Message.hdr = Message.declare "bench" in
  let base = Cls.base h in
  (* A wide spec: 24 state classes over the same (shared) base class,
     paired through composition — CSE collapses the shared base. *)
  let wide =
    let cell i =
      Cls.state (Printf.sprintf "s%d" i)
        ~init:(fun _ -> i)
        ~upd:(fun _ v s -> s + v)
        base
    in
    let rec build i =
      if i = 0 then Cls.map (fun v -> v) base
      else Cls.( ||| ) (Cls.o2 (fun _ v s -> [ v + s ]) base (cell i)) (build (i - 1))
    in
    build 24
  in
  let msgs = Array.init 64 (fun i -> Message.make h i) in
  let tree () =
    let proc = ref (Gpm.Compile.compile 0 wide) in
    Array.iter
      (fun m ->
        let p, _ = Gpm.Proc.step !proc m in
        proc := p)
      msgs
  in
  let fused () =
    let machine = Gpm.Opt.compile 0 wide in
    Array.iter (fun m -> ignore (Gpm.Opt.step machine m)) msgs
  in
  Test.make_grouped ~name:"gpm(wide spec,64 events)"
    [
      Test.make ~name:"interpreted-tree" (Staged.stage tree);
      Test.make ~name:"optimized-fused" (Staged.stage fused);
    ]

(* Ablation 3: point operations across the three diverse backends. *)
let bench_backends =
  let mk kind () =
    let s = Storage.Store.create kind in
    for i = 0 to 999 do
      s.Storage.Store.insert
        [ Storage.Value.Int ((i * 7919) mod 1000) ]
        [| Storage.Value.Int i; Storage.Value.Int (i * 2) |]
    done;
    for i = 0 to 999 do
      ignore (s.Storage.Store.find [ Storage.Value.Int i ])
    done
  in
  Test.make_grouped ~name:"store(1k ins + 1k find)"
    [
      Test.make ~name:"hazel-hash" (Staged.stage (mk Storage.Store.Hazel));
      Test.make ~name:"hickory-btree" (Staged.stage (mk Storage.Store.Hickory));
      Test.make ~name:"dogwood-avl" (Staged.stage (mk Storage.Store.Dogwood));
    ]

let bench_sql =
  let sql =
    "SELECT a, b FROM t WHERE (a = 1) AND (b < 'x') ORDER BY a ASC LIMIT 5"
  in
  Test.make ~name:"sql-parse" (Staged.stage (fun () -> Storage.Sql_parser.parse sql))

let bench_codec =
  let txn =
    {
      Shadowdb.Txn.client = 3;
      seq = 42;
      kind = "deposit";
      params = [ Storage.Value.Int 17; Storage.Value.Int 100 ];
    }
  in
  let batch =
    List.init 64 (fun i ->
        {
          Broadcast.Tob.origin = i mod 5;
          id = i;
          payload = Shadowdb.Codec.encode_txn txn;
        })
  in
  let batch_bytes = Shadowdb.Codec.encode_batch batch in
  Test.make_grouped ~name:"codec"
    [
      Test.make ~name:"txn-codec-roundtrip"
        (Staged.stage (fun () ->
             Shadowdb.Codec.decode_txn (Shadowdb.Codec.encode_txn txn)));
      Test.make ~name:"batch-codec-roundtrip"
        (Staged.stage (fun () ->
             Shadowdb.Codec.decode_batch
               (Shadowdb.Codec.encode_batch batch)));
      Test.make ~name:"batch-decode"
        (Staged.stage (fun () -> Shadowdb.Codec.decode_batch batch_bytes));
    ]

let bench_paxos_step =
  Test.make ~name:"paxos-acceptor-step"
    (Staged.stage (fun () ->
         let a = Consensus.Acceptor.create ~self:1 in
         let b = { Consensus.Paxos_msg.round = 1; leader = 0 } in
         ignore (Consensus.Acceptor.step a (Consensus.Paxos_msg.P1a { src = 0; b }))))

let bench_btree_bulk =
  Test.make ~name:"btree-1k-inserts"
    (Staged.stage (fun () ->
         let t = ref (Storage.Btree.create ~cmp:Int.compare) in
         for i = 0 to 999 do
           t := Storage.Btree.insert !t ((i * 2654435761) land 0xFFFF) i
         done))

(* A correctness check a timed closure depends on: a failure exits
   non-zero, naming the check, instead of timing a broken path. *)
let require name ok =
  if not ok then begin
    Printf.eprintf "bench: check failed: %s\n" name;
    exit 1
  end

module Sdb = Shadowdb.System

let bank_rows = 1_000

let make_deposit ~client ~seq =
  Workload.Bank.deposit
    ~account:(abs (Hashtbl.hash (client, seq)) mod bank_rows)
    ~amount:1

(* The simulator engine end to end: one fixed SMR bank run (2 active
   replicas, 4 clients x 20 deposits) from spawn to quiescence. *)
let bench_sim =
  let run () =
    let world : Sdb.wire Sim.Engine.t = Sim.Engine.create ~seed:101 () in
    let rworld = Runtime.Of_sim.of_engine world in
    let cluster =
      Sdb.spawn_smr ~world:rworld ~registry:Workload.Bank.registry
        ~setup:(Workload.Bank.setup ~rows:bank_rows)
        ~n_active:2 ()
    in
    let _, completed =
      Sdb.spawn_clients ~world:rworld ~target:(Sdb.To_smr cluster) ~n:4
        ~count:20 ~make_txn:make_deposit ~retry_timeout:4.0 ()
    in
    Sim.Engine.run ~until:3600.0 ~max_events:100_000_000 world;
    completed ()
  in
  require "sim: every bank client completes" (run () = 4);
  Test.make ~name:"sim-smr-bank(4x20)" (Staged.stage run)

(* Model-checker cost per schedule: one random walk of budget 1, a fresh
   seed each run so the fit averages over schedules. *)
let bench_check =
  let walk scenario =
    let seed = ref 0 in
    Staged.stage (fun () ->
        incr seed;
        Check.Explore.random_walk scenario ~seed:!seed ~budget:1 ())
  in
  Test.make_grouped ~name:"check(1 schedule)"
    [
      Test.make ~name:"paxos" (walk Check.Scenarios.paxos);
      Test.make ~name:"tob" (walk Check.Scenarios.tob);
    ]

(* Recovery: 2,000 bank deposits journaled once through the in-memory
   WAL backend; each run replays the whole log (scan, decode, execute)
   into the same 1k-row bank, where a deposit costs the same whatever
   the balance. *)
let bench_recovery =
  let n = 2_000 in
  let policy =
    { Durable.Manager.group_commit = 256; snapshot_every = 0; replay_tail = true }
  in
  let mem = Durable.Backend.mem_create () in
  let mgr, _ =
    Durable.Manager.recover (Durable.Backend.mem_backend mem) policy
      ~install:ignore ~apply:ignore
  in
  for i = 0 to n - 1 do
    let kind, params = make_deposit ~client:0 ~seq:i in
    Durable.Manager.append mgr
      {
        Durable.Wal.idx = i;
        aux = i + 1;
        hash = 0;
        payload =
          Shadowdb.Codec.encode_txn
            { Shadowdb.Txn.client = 0; seq = i; kind; params };
      }
  done;
  Durable.Manager.flush mgr;
  let reg = Workload.Bank.registry () in
  let db = Storage.Database.create Storage.Store.Hazel in
  Workload.Bank.setup ~rows:bank_rows db;
  let apply (r : Durable.Wal.record) =
    match Shadowdb.Codec.decode_txn r.Durable.Wal.payload with
    | Ok txn -> ignore (Shadowdb.Txn.execute reg db txn)
    | Error _ -> ()
  in
  let replay () =
    snd
      (Durable.Manager.recover (Durable.Backend.mem_backend mem) policy
         ~install:ignore ~apply)
  in
  require "recovery: replay reaches the last journaled record"
    ((replay ()).Durable.Manager.recovered_idx = n - 1);
  Test.make ~name:"recovery(2k wal records)" (Staged.stage replay)

(* The conformance trace codec on a recorded sim bank trace (2 clients x
   20 deposits): encode, then decode. The trace must pass LoE replay and
   the invariant monitors, and round-trip, before anything is timed. *)
let bench_trace_codec =
  let run = Conform.Record.sim_bank ~seed:7 ~clients:2 ~count:20 ~rows:512 () in
  let events = Conform.Recorder.events run.Conform.Record.recorder in
  let meta = Conform.Recorder.meta run.Conform.Record.recorder in
  let replay, monitors = Conform.Record.check_trace ~meta events in
  require "conform: LoE replay accepts the recorded trace"
    (Conform.Replay.ok replay);
  require "conform: monitors accept the recorded trace"
    (Conform.Monitors.ok monitors);
  let roundtrip () =
    Conform.Trace_file.decode (Conform.Trace_file.encode ~meta events)
  in
  require "conform: trace codec round-trips" (Result.is_ok (roundtrip ()));
  Test.make ~name:"trace-codec-roundtrip(2x20 bank)" (Staged.stage roundtrip)

(* 200-byte frames through the wire framing: append into a reused buffer
   and drain it back out, the per-message data-plane work the socket
   runtime does besides the syscall. A thousand per run, so bechamel's
   per-sample overhead does not swamp a ~70 ns operation. *)
let bench_frame =
  let payload = String.make 200 'p' in
  let buf = Runtime.Frame.create 65536 in
  let drained = ref 0 in
  let roundtrip () =
    Runtime.Frame.append buf ~src:1 ~payload;
    Runtime.Frame.drain buf
      ~frame:(fun ~src:_ p -> drained := String.length p)
      ~bad:(fun _ -> ())
  in
  roundtrip ();
  require "frame: drain returns the appended payload" (!drained = 200);
  Test.make ~name:"frame-append+drain(1k x 200B)"
    (Staged.stage (fun () ->
         for _ = 1 to 1_000 do
           roundtrip ()
         done))

let () =
  let tests =
    Test.make_grouped ~name:"micro"
      [
        bench_gpm_backends;
        bench_backends;
        bench_sql;
        bench_codec;
        bench_paxos_step;
        bench_btree_bulk;
        bench_sim;
        bench_check;
        bench_recovery;
        bench_trace_codec;
        bench_frame;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:true ~quota:(Time.second 0.4) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    (* Numeric order, cheapest first; failed fits (no estimate) last. *)
    |> List.sort (fun (n1, v1) (n2, v2) ->
           match (Float.is_nan v1, Float.is_nan v2) with
           | true, true -> compare n1 n2
           | true, false -> 1
           | false, true -> -1
           | false, false ->
               let c = Float.compare v1 v2 in
               if c <> 0 then c else compare n1 n2)
  in
  Stats.Table.print_table ~title:"micro-benchmarks (monotonic clock)"
    ~header:[ "benchmark"; "ns/run" ]
    (List.map
       (fun (n, v) ->
         [ n; (if Float.is_nan v then "n/a" else Stats.Table.fmt_f v) ])
       rows)
