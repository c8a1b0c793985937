(* The five benchmark workloads. Each deploys a real event-loop cluster
   ([Runtime.Loop], in-process direct sinks, no injected delay), derives
   every transaction from (seed, client, seq), and knows how to check the
   cluster's final state once the clients have finished.

   Every workload runs 4 closed-loop clients: each sends its next
   transaction only after the previous one was answered. *)

module Sdb = Probe.Sdb
module Loop = Runtime.Loop
module Value = Storage.Value
module Bank = Workload.Bank
module Tpcc = Workload.Tpcc

type txn = string * Value.t list

type env = {
  seed : int;
  traced : bool;  (* wrap codec and procedures with the layer probes *)
  dir : string;  (* this deployment's data directory *)
  on_ready : unit -> unit;
      (* called by each replica once its data is loaded and, with a WAL,
         recovered: on its first event, on the reactor thread *)
}

type check = string * (unit, string) result

type deployed = {
  loop : Sdb.wire Loop.t;
  target : Sdb.client_target;
  replicas : int;  (** How many replicas call [env.on_ready]. *)
  settle : txn list -> unit -> bool;
      (** Given every transaction submitted, a predicate that holds once
          all replicas have applied everything. *)
  checks : txn list -> check list;  (** Run after the loop has stopped. *)
  decided : unit -> int * int;  (** 2PC commits and aborts so far. *)
  wals : unit -> Probe.wal list;
  recorder : (Conform.Recorder.t * (string * string) list) option;
  close : unit -> unit;
}

type t = {
  name : string;
  rate : float;
      (** Reference throughput, txn/s, on the 2-core development host: a
          run of S seconds executes S * rate transactions. *)
  make_txn : seed:int -> client:int -> seq:int -> txn;
  expected_abort : (txn -> bool) option;
      (** Aborts the workload's own rules mandate (TPC-C's invalid-item
          New-Orders): answered, correct, and not counted as failures. *)
  deploy : env -> deployed;
}

let clients = 4
let pick ~seed ~client ~seq salt bound = Hashtbl.hash (seed, client, seq, salt) mod bound

let codec env =
  if env.traced then Probe.wrap_codec Conform.Sys_wire.codec
  else Conform.Sys_wire.codec

let registry env base =
  if env.traced then fun () -> Probe.timed_registry (base ()) else base

let ok_if cond msg = if cond then Ok () else Error (Lazy.force msg)

let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

let deposits txns =
  List.fold_left
    (fun acc (kind, params) ->
      match (kind, params) with
      | "deposit", [ _; Value.Int amount ] -> acc + amount
      | _ -> acc)
    0 txns

let no_2pc () = (0, 0)
let no_wals () = []

(* ---- state machine replication (3 nodes, 2 active) ---------------- *)

let actives (c : Sdb.smr_cluster) = List.filteri (fun i _ -> i < 2) c.Sdb.smr_nodes

let ready_after env setup db =
  setup db;
  env.on_ready ()

(* Each submitted transaction is delivered exactly once, so a settled
   active replica has delivered exactly as many entries as were sent. *)
let smr_settle (c : Sdb.smr_cluster) txns =
  let total = List.length txns in
  fun () -> List.for_all (fun l -> c.Sdb.smr_gseq_of l = total) (actives c)

let smr_agreement (c : Sdb.smr_cluster) : check =
  let hashes = List.map c.Sdb.smr_hash_of (actives c) in
  ( "replicas agree",
    ok_if (all_equal hashes)
      (lazy
        (String.concat " vs " (List.map (Printf.sprintf "%x") hashes))) )

let bank_conservation (c : Sdb.smr_cluster) ~rows txns : check list =
  let expected = (rows * 100) + deposits txns in
  List.map
    (fun l ->
      let total = c.Sdb.smr_db_view l Bank.total_balance ~default:(-1) in
      ( Printf.sprintf "node %d balance = rows*100 + deposits" l,
        ok_if (total = expected)
          (lazy (Printf.sprintf "%d, expected %d" total expected)) ))
    (actives c)

let deposit_txn ~rows ~seed ~client ~seq =
  Bank.deposit ~account:(pick ~seed ~client ~seq 0 rows) ~amount:1

let smr_deployed ?tap ?durability env ~registry ~setup =
  let loop = Loop.create ?tap ~codec:(codec env) () in
  let c =
    Sdb.spawn_smr ?durability ~world:(Loop.runtime loop) ~registry ~setup
      ~n_active:2 ()
  in
  (loop, c)

let bank ~name ~rows ~rate ~deploy =
  {
    name;
    rate;
    make_txn = deposit_txn ~rows;
    expected_abort = None;
    deploy;
  }

(* bank_smr: the reactor, codec and TOB/Paxos path do nearly all the
   work; storage is a hash point-update. *)
let bank_smr =
  let rows = 50_000 in
  bank ~name:"bank_smr" ~rows ~rate:50_000.0 ~deploy:(fun env ->
      let loop, c =
        smr_deployed env
          ~registry:(registry env Bank.registry)
          ~setup:(ready_after env (Bank.setup ~rows))
      in
      {
        loop;
        target = Sdb.To_smr c;
        replicas = 3;
        settle = smr_settle c;
        checks =
          (fun txns -> smr_agreement c :: bank_conservation c ~rows txns);
        decided = no_2pc;
        wals = no_wals;
        recorder = None;
        close = ignore;
      })

(* ---- bank_durable: bank_smr plus a file WAL per node ---------------- *)

let policy =
  { Durable.Manager.group_commit = 8; snapshot_every = 0; replay_tail = true }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Recover a copy of one node's log, cut where the backend last synced,
   into a fresh database — what a crash right now would leave — and check
   DESIGN.md's recovery invariants 1 (no committed loss) and 3
   (fingerprint agreement with the journal and with the other replica). *)
let recovery_checks ~rows ~node ~(wal : Probe.wal) ~dir ~other_dir : check list
    =
  let _, log = Durable.File.read_dir dir in
  let name what = Printf.sprintf "node %d WAL cut at sync: %s" node what in
  if wal.Probe.synced > String.length log then
    [ (name "log holds the synced prefix", Error "log shorter than synced offset") ]
  else
    let cut = String.sub log 0 wal.Probe.synced in
    let synced_idx =
      match List.rev (Durable.Wal.scan cut).Durable.Wal.records with
      | r :: _ -> r.Durable.Wal.idx
      | [] -> -1
    in
    let mem = Durable.Backend.mem_create () in
    let b = Durable.Backend.mem_backend mem in
    b.Durable.Backend.log_append cut;
    b.Durable.Backend.log_sync ();
    let db = Storage.Database.create Storage.Store.Hazel in
    Bank.setup ~rows db;
    let reg = Bank.registry () in
    let apply (r : Durable.Wal.record) =
      match Shadowdb.System.decode_payload r.Durable.Wal.payload with
      | Shadowdb.System.P_txn txn -> ignore (Shadowdb.Txn.execute reg db txn)
      | _ -> ()
    in
    let _, rep = Durable.Manager.recover b policy ~install:ignore ~apply in
    let idx = rep.Durable.Manager.recovered_idx in
    let hash = Storage.Database.content_hash db in
    let snap, other_log = Durable.File.read_dir other_dir in
    let other =
      Durable.Manager.hash_at
        (Durable.Manager.inspect ~snap ~log:other_log)
        idx
    in
    [
      ( name "no committed loss",
        ok_if
          (synced_idx >= 0 && idx >= synced_idx)
          (lazy (Printf.sprintf "recovered to %d, synced %d" idx synced_idx)) );
      ( name "fingerprint = journal",
        ok_if
          (hash = rep.Durable.Manager.recovered_hash)
          (lazy (Printf.sprintf "%x vs journaled %x" hash rep.recovered_hash)) );
      ( name "fingerprint = other replica",
        ok_if (other = Some hash)
          (lazy
            (Printf.sprintf "%x vs %s" hash
               (match other with
               | Some h -> Printf.sprintf "%x" h
               | None -> "no record at that position"))) );
    ]

(* 1,000 rows, not bank_smr's 50,000: every WAL record carries the
   replica's full-database fingerprint, so each delivery hashes every row,
   and at 50,000 rows the workload commits about 16 transactions a second,
   too few for tail percentiles. The flush policy is group commit every 8 records,
   no snapshots, on both replicas. *)
let bank_durable =
  let rows = 1_000 in
  bank ~name:"bank_durable" ~rows ~rate:1_700.0 ~deploy:(fun env ->
      let dir i = Filename.concat env.dir (Printf.sprintf "node%d" i) in
      let opened = Array.make 3 None in
      let durability =
        {
          Sdb.dur_backend =
            (fun i ->
              let b = Durable.File.create ~dir:(dir i) () in
              let b', wal = Probe.wrap_backend b in
              opened.(i) <- Some (b, wal);
              b');
          dur_policy = (fun _ -> policy);
          dur_on_recover = (fun _ _ ~state_hash:_ -> env.on_ready ());
        }
      in
      let loop, c =
        smr_deployed ~durability env
          ~registry:(registry env Bank.registry)
          ~setup:(Bank.setup ~rows)
      in
      let wal i = Option.map snd opened.(i) in
      {
        loop;
        target = Sdb.To_smr c;
        replicas = 3;
        settle = smr_settle c;
        checks =
          (fun txns ->
            (smr_agreement c :: bank_conservation c ~rows txns)
            @ List.concat_map
                (fun (i, other) ->
                  match wal i with
                  | Some wal ->
                      recovery_checks ~rows ~node:i ~wal ~dir:(dir i)
                        ~other_dir:(dir other)
                  | None -> [ ("node opened its WAL", Error (dir i)) ])
                [ (0, 1); (1, 0) ]);
        decided = no_2pc;
        wals = (fun () -> List.filter_map wal [ 0; 1; 2 ]);
        recorder = None;
        close =
          (fun () ->
            Array.iter
              (Option.iter (fun (b, _) -> b.Durable.Backend.close ()))
              opened;
            rm_rf env.dir);
      })

(* ---- tpcc: storage and SQL execution dominate ---------------------- *)

let tpcc_scale =
  {
    Tpcc.districts = 10;
    customers_per_district = 300;
    items = 10_000;
    initial_orders_per_district = 300;
  }

(* The standard mix dealt from a shuffled deck of 100 cards per client
   (TPC-C clause 5.2.4.2 allows a deck): every 100 transactions of a
   client hold exactly 45 New-Order, 43 Payment and 4 each of the rest.
   Delivery is 4% of the mix but about half of the work, so drawing the
   kind independently per transaction would let a run's work vary with
   the seed by more than the bound. Each transaction's parameters are
   then drawn by [Tpcc.make_txn] until it yields the dealt kind. *)
let tpcc_deck =
  Array.concat
    (List.map
       (fun (kind, n) -> Array.make n kind)
       [
         ("new_order", 45);
         ("payment", 43);
         ("order_status", 4);
         ("delivery", 4);
         ("stock_level", 4);
       ])

let tpcc =
  let scale = tpcc_scale in
  let n = Array.length tpcc_deck in
  {
    name = "tpcc";
    rate = 1_300.0;
    make_txn =
      (fun ~seed ~client ~seq ->
        let deck = Array.copy tpcc_deck in
        Sim.Prng.shuffle (Sim.Prng.create (Hashtbl.hash (seed, client, seq / n))) deck;
        let kind = deck.(seq mod n) in
        let rec draw k =
          let rng = Sim.Prng.create (Hashtbl.hash (seed, client, seq, k)) in
          let ((drawn, _) as txn) =
            Tpcc.make_txn ~scale rng ~h_id:((client * 1_000_000) + seq)
          in
          if drawn = kind then txn else draw (k + 1)
        in
        draw 0);
    expected_abort =
      Some
        (fun (kind, params) ->
          kind = "new_order"
          &&
          let rec bad = function
            | Value.Int item :: _ :: rest -> item > scale.Tpcc.items || bad rest
            | _ -> false
          in
          match params with _ :: _ :: items -> bad items | _ -> false);
    deploy =
      (fun env ->
        let loop, c =
          smr_deployed env
            ~registry:(registry env (fun () -> Tpcc.registry ~scale ()))
            ~setup:(ready_after env (Tpcc.setup ~scale))
        in
        let consistency =
          [
            ("1", Tpcc.consistency_1);
            ("2", Tpcc.consistency_2);
            ("3", Tpcc.consistency_3);
            ("4", Tpcc.consistency_4);
          ]
        in
        {
          loop;
          target = Sdb.To_smr c;
          replicas = 3;
          settle = smr_settle c;
          checks =
            (fun _ ->
              smr_agreement c
              :: List.concat_map
                   (fun l ->
                     List.map
                       (fun (n, f) ->
                         ( Printf.sprintf "node %d TPC-C consistency %s" l n,
                           c.Sdb.smr_db_view l f ~default:(Error "no database")
                         ))
                       consistency)
                   (actives c));
          decided = no_2pc;
          wals = no_wals;
          recorder = None;
          close = ignore;
        });
  }

(* ---- bank_sharded: the only workload through the 2PC layer ---------- *)

(* Every 10th transaction is a transfer forced across the two shards;
   the rest are uniform deposits. A prepare that finds a key locked by
   another undecided transfer votes no, so transfers are laid out never
   to share an account while in flight: client c draws only accounts
   congruent to c mod 4 (the 4 clients of a wave have consecutive ids),
   and its successive transfers walk forward through that class's
   accounts on each shard, alternating direction.

   The coordinator's decision pump runs unpaced (interval 0). At the
   default 5 ms pacing the pump, not 2PC, caps the workload at about 100
   transfers/s; its backlog holds locks for seconds, which both aborts
   transfers and defers deposits, so runs would fail operations and
   scatter by seconds. *)
let bank_sharded =
  let rows = 50_000 and shards = 2 in
  let shard_of id =
    Shadowdb.Shard.shard_of_key ~shards { Shadowdb.Shard.table = Bank.table; id }
  in
  (* accounts.(r).(s): the accounts congruent to r mod 4 living on shard s. *)
  let accounts =
    Array.init clients (fun r ->
        Array.init shards (fun s ->
            Array.of_seq
              (Seq.filter
                 (fun id -> id mod clients = r && shard_of id = s)
                 (Seq.init rows Fun.id))))
  in
  {
    name = "bank_sharded";
    rate = 28_000.0;
    make_txn =
      (fun ~seed ~client ~seq ->
        if seq mod 10 <> 9 then
          Bank.deposit ~account:(pick ~seed ~client ~seq 0 rows) ~amount:1
        else
          let i = Hashtbl.hash (seed, client) + (seq / 10) in
          let on_shard s =
            let a = accounts.(client mod clients).(s) in
            a.(i mod Array.length a)
          in
          let from = i mod shards in
          Bank.transfer ~src:(on_shard from)
            ~dst:(on_shard ((from + 1) mod shards))
            ~amount:1);
    expected_abort = None;
    deploy =
      (fun env ->
        let loop = Loop.create ~codec:(codec env) () in
        let applied = Atomic.make 0 in
        let c =
          Sdb.spawn_sharded ~world:(Loop.runtime loop) ~pump_interval:0.0
            ~registry:(registry env Bank.registry)
            ~setup:(fun s -> ready_after env (Bank.setup_shard ~rows ~shards s))
            ~router:(Bank.router ~shards)
            ~on_apply:(fun ~shard:_ ~node:_ ~client:_ ~seq:_ ~commit:_ ~keys:_ ->
              Atomic.incr applied)
            ()
        in
        let groups = Array.to_list c.Sdb.sh_groups in
        let gseqs () =
          List.map
            (fun g -> List.map g.Sdb.smr_gseq_of g.Sdb.smr_nodes)
            groups
        in
        let decided () = (c.Sdb.sh_committed (), c.Sdb.sh_aborted ()) in
        {
          loop;
          target = Sdb.To_sharded c;
          replicas = 3 * shards;
          settle =
            (fun txns ->
              let xfers =
                List.length (List.filter (fun (k, _) -> k = "transfer") txns)
              in
              let last = ref [] in
              (* Every transfer decided, each decision applied by the 3
                 replicas of both shards, and every shard's replicas level
                 and unchanged since the previous poll. *)
              fun () ->
                let committed, aborted = decided () in
                let now = gseqs () in
                let stable = now = !last in
                last := now;
                committed + aborted = xfers
                && Atomic.get applied = 6 * xfers
                && List.for_all all_equal now && stable);
          checks =
            (fun txns ->
              let expected = (rows * 100) + deposits txns in
              let total =
                List.fold_left
                  (fun acc g ->
                    acc
                    + g.Sdb.smr_db_view (List.hd g.Sdb.smr_nodes)
                        Bank.total_balance ~default:0)
                  0 groups
              in
              ( "balance over shards = rows*100 + deposits",
                ok_if (total = expected)
                  (lazy (Printf.sprintf "%d, expected %d" total expected)) )
              :: List.mapi
                   (fun s g ->
                     let hashes = List.map g.Sdb.smr_hash_of g.Sdb.smr_nodes in
                     ( Printf.sprintf "shard %d replicas agree" s,
                       ok_if (all_equal hashes) (lazy "hashes differ") ))
                   groups);
          decided;
          wals = no_wals;
          recorder = None;
          close = ignore;
        });
  }

(* ---- bank_conform: always-on conformance recording and monitoring --- *)

let bank_conform =
  let rows = 1_000 in
  bank ~name:"bank_conform" ~rows ~rate:1_900.0 ~deploy:(fun env ->
      (* Attached exactly as [shadowdb run --trace --monitor] attaches
         them: recorder and online monitor behind one runtime tap. *)
      let meta =
        [
          ("workload", "bank");
          ("rows", string_of_int rows);
          ("runtime", "loop");
          ("seed", string_of_int env.seed);
        ]
      in
      let recorder = Conform.Recorder.create ~cap:(1 lsl 22) ~meta () in
      let online = Conform.Online.create () in
      let tap =
        Runtime.tap_all
          [
            Conform.Recorder.tap recorder ~enc:Conform.Sys_wire.codec.Runtime.enc;
            Conform.Online.tap online;
          ]
      in
      let loop, c =
        smr_deployed ~tap env
          ~registry:(registry env Bank.registry)
          ~setup:(ready_after env (Bank.setup ~rows))
      in
      {
        loop;
        target = Sdb.To_smr c;
        replicas = 3;
        settle = smr_settle c;
        checks =
          (fun txns ->
            (smr_agreement c :: bank_conservation c ~rows txns)
            @ [
                ( "online monitor: no violations",
                  ok_if
                    (Conform.Online.violations online = 0)
                    (lazy
                      (String.concat "; " (Conform.Online.messages online))) );
                ( "recorder: no drops",
                  let d = Conform.Recorder.dropped recorder in
                  ok_if (d = 0) (lazy (Printf.sprintf "%d dropped" d)) );
              ]);
        decided = no_2pc;
        wals = no_wals;
        recorder = Some (recorder, meta);
        close = ignore;
      })

let all = [ bank_smr; bank_durable; tpcc; bank_sharded; bank_conform ]
let find name = List.find_opt (fun w -> w.name = name) all
