(* Durability subsystem: WAL framing, snapshots, the two backends, and
   deterministic crash recovery through the manager. *)

module Wal = Durable.Wal
module Backend = Durable.Backend
module Manager = Durable.Manager
module Snapshot = Durable.Snapshot
module Database = Storage.Database
module Value = Storage.Value

(* ---- crc32 ------------------------------------------------------------ *)

let test_crc_known () =
  (* IEEE 802.3 test vector. *)
  Alcotest.(check int)
    "check value" 0xCBF43926
    (Durable.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Durable.Crc32.string "");
  Alcotest.(check bool)
    "incremental = whole" true
    (let s = "hello, durable world" in
     let mid = 7 in
     let c1 = Durable.Crc32.update 0 s ~pos:0 ~len:mid in
     Durable.Crc32.update c1 s ~pos:mid ~len:(String.length s - mid)
     = Durable.Crc32.string s)

(* ---- WAL framing ------------------------------------------------------- *)

let record i =
  {
    Wal.idx = i * 3;
    aux = i + 1;
    hash = Hashtbl.hash (i, "h");
    payload = Printf.sprintf "payload-%d-%s" i (String.make (i mod 17) 'x');
  }

let test_wal_roundtrip_basic () =
  let rs = List.init 5 record in
  let stream = String.concat "" (List.map Wal.encode_record rs) in
  let scan = Wal.scan stream in
  Alcotest.(check bool) "all records" true (scan.Wal.records = rs);
  Alcotest.(check int) "no torn bytes" 0 scan.Wal.torn_bytes;
  Alcotest.(check int) "all bytes valid" (String.length stream)
    scan.Wal.valid_bytes

(* Golden vectors pinning the on-disk bytes: 4-byte BE body length, 4-byte
   BE CRC-32 of the body, then zigzag-LEB128 idx/aux/hash and the
   length-prefixed payload. The snapshot's CRC has its top bit set, so it
   also pins the unsigned 32-bit header encoding. *)
let golden_record = { Wal.idx = 5; aux = -1; hash = 300; payload = "ab" }

let golden_record_bytes =
  "\x00\x00\x00\x07\x1c\xf4\x02\x14\x0a\x01\xd8\x04\x04\x61\x62"

let golden_snapshot = { Wal.idx = 12; aux = 3; hash = -42; payload = "\x00rows" }

let golden_snapshot_bytes =
  "SDBSNAP2\x00\x00\x00\x09\xaf\x17\x06\xb1\x18\x06\x53\x0a\x00\x72\x6f\x77\x73"

let test_golden_bytes () =
  Alcotest.(check string)
    "wal record golden bytes" golden_record_bytes
    (Wal.encode_record golden_record);
  Alcotest.(check bool)
    "wal record golden decodes" true
    ((Wal.scan golden_record_bytes).Wal.records = [ golden_record ]);
  Alcotest.(check string)
    "snapshot golden bytes" golden_snapshot_bytes
    (Snapshot.encode golden_snapshot);
  Alcotest.(check bool)
    "snapshot golden decodes" true
    (Snapshot.decode golden_snapshot_bytes = Ok golden_snapshot)

(* Every proper prefix of the byte stream yields exactly the records that
   fit whole in it — a cut mid-record is torn tail, never a record. *)
let test_wal_every_prefix () =
  let rs = List.init 4 record in
  let encoded = List.map Wal.encode_record rs in
  let stream = String.concat "" encoded in
  (* Byte offset at which each record ends. *)
  let ends =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, off) e ->
              let off = off + String.length e in
              (off :: acc, off))
            ([], 0) encoded))
  in
  for cut = 0 to String.length stream do
    let scan = Wal.scan (String.sub stream 0 cut) in
    let whole = List.length (List.filter (fun e -> e <= cut) ends) in
    Alcotest.(check int)
      (Printf.sprintf "whole records at cut %d" cut)
      whole
      (List.length scan.Wal.records);
    Alcotest.(check bool)
      (Printf.sprintf "records are the prefix at cut %d" cut)
      true
      (scan.Wal.records = List.filteri (fun i _ -> i < whole) rs);
    Alcotest.(check int)
      (Printf.sprintf "torn accounts for the rest at cut %d" cut)
      (cut - scan.Wal.valid_bytes)
      scan.Wal.torn_bytes
  done

let test_wal_crc_rejects_corruption () =
  let r = record 2 in
  let e = Wal.encode_record r in
  (* Flip one bit of every byte in turn: no corrupted image may yield a
     record (header corruption changes length/CRC; body corruption fails
     the CRC). *)
  for i = 0 to String.length e - 1 do
    let b = Bytes.of_string e in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    let scan = Wal.scan (Bytes.to_string b) in
    Alcotest.(check bool)
      (Printf.sprintf "corrupt byte %d yields no record" i)
      true
      (scan.Wal.records = [] || scan.Wal.records = [ r ]);
    (* A flipped length byte could still describe a shorter valid frame
       only if the CRC matched by chance; with one record that cannot
       produce the original. *)
    Alcotest.(check bool)
      (Printf.sprintf "corrupt byte %d never equals original" i)
      true
      (scan.Wal.records <> [ r ])
  done

let prop_wal_record_roundtrip =
  QCheck.Test.make ~count:500 ~name:"WAL record round-trip"
    QCheck.(triple int int (string_of_size (QCheck.Gen.int_bound 64)))
    (fun (idx, aux, payload) ->
      let r = { Wal.idx; aux; hash = Hashtbl.hash (idx, aux); payload } in
      let scan = Wal.scan (Wal.encode_record r) in
      scan.Wal.records = [ r ] && scan.Wal.torn_bytes = 0)

let prop_wal_truncation_rejected =
  QCheck.Test.make ~count:300 ~name:"every WAL prefix cut is torn, not data"
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, cut_raw) ->
      let rng = Sim.Prng.create seed in
      let rs =
        List.init
          (1 + Sim.Prng.int rng 6)
          (fun i ->
            {
              Wal.idx = i;
              aux = Sim.Prng.int rng 1000;
              hash = Sim.Prng.int rng max_int;
              payload = String.make (Sim.Prng.int rng 40) 'p';
            })
      in
      let stream = String.concat "" (List.map Wal.encode_record rs) in
      let cut = cut_raw mod (String.length stream + 1) in
      let scan = Wal.scan (String.sub stream 0 cut) in
      let n = List.length scan.Wal.records in
      scan.Wal.records = List.filteri (fun i _ -> i < n) rs
      && scan.Wal.valid_bytes + scan.Wal.torn_bytes = cut)

(* ---- snapshots --------------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let r = record 3 in
  (match Snapshot.decode (Snapshot.encode r) with
  | Ok r' -> Alcotest.(check bool) "round-trip" true (r = r')
  | Error e -> Alcotest.fail e);
  (match Snapshot.decode "BADMAGIC" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  let enc = Snapshot.encode r in
  match Snapshot.decode (String.sub enc 0 (String.length enc - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot accepted"

(* ---- in-memory backend ------------------------------------------------- *)

let test_mem_crash_semantics () =
  let m = Backend.mem_create () in
  let b = Backend.mem_backend m in
  b.Backend.log_append "aaaa";
  b.Backend.log_sync ();
  b.Backend.log_append "bbbb";
  Alcotest.(check string) "read sees everything" "aaaabbbb"
    (b.Backend.log_read ());
  Alcotest.(check string) "durable only synced" "aaaa"
    (Backend.mem_durable_log m);
  Backend.mem_crash ~keep:2 m;
  Alcotest.(check string) "torn prefix survives" "aaaabb"
    (Backend.mem_durable_log m);
  Alcotest.(check string) "post-crash read = durable" "aaaabb"
    (b.Backend.log_read ());
  Alcotest.(check int) "syncs counted" 1 (b.Backend.sync_count ())

(* ---- file backend ------------------------------------------------------ *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "durable-test-%d-%d" (Unix.getpid ()) !n)

let test_file_backend_roundtrip () =
  let dir = fresh_dir () in
  let b = Durable.File.create ~dir () in
  let r0 = record 0 and r1 = record 1 in
  b.Backend.log_append (Wal.encode_record r0);
  b.Backend.log_append (Wal.encode_record r1);
  b.Backend.log_sync ();
  b.Backend.snap_write (Snapshot.encode r0);
  b.Backend.close ();
  (* A second backend instance (a restarted process) sees the same
     bytes; so does the read-only observer. *)
  let b2 = Durable.File.create ~dir () in
  let scan = Wal.scan (b2.Backend.log_read ()) in
  Alcotest.(check bool) "records survive reopen" true
    (scan.Wal.records = [ r0; r1 ]);
  (match b2.Backend.snap_read () with
  | Some s -> (
      match Snapshot.decode s with
      | Ok r -> Alcotest.(check bool) "snapshot survives" true (r = r0)
      | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "snapshot missing after reopen");
  let snap, log = Durable.File.read_dir dir in
  Alcotest.(check bool) "observer sees the same log" true
    (log = b2.Backend.log_read ());
  Alcotest.(check bool) "observer sees the snapshot" true (snap <> None);
  (* Torn tail on disk: truncation through the backend removes it. *)
  b2.Backend.log_append "torn-garbage";
  let scan2 = Wal.scan (b2.Backend.log_read ()) in
  Alcotest.(check bool) "garbage is torn" true (scan2.Wal.torn_bytes > 0);
  b2.Backend.log_truncate scan2.Wal.valid_bytes;
  Alcotest.(check bool) "truncated clean" true
    ((Wal.scan (b2.Backend.log_read ())).Wal.torn_bytes = 0);
  b2.Backend.close ()

(* ---- manager: deterministic crash recovery ----------------------------- *)

let bank_rows = 16

let deposit_txn i =
  let kind, params =
    Workload.Bank.deposit ~account:(i mod bank_rows) ~amount:(1 + (i mod 7))
  in
  { Shadowdb.Txn.client = 0; seq = i; kind; params }

let fresh_bank () =
  let db = Database.create Storage.Store.Hazel in
  Workload.Bank.setup ~rows:bank_rows db;
  db

(* Apply [n] deposits while journaling through a manager on [mem], then
   crash with [keep] torn bytes. Returns the per-position reference
   fingerprints and the pre-crash synced position. *)
let run_until_crash mem ~policy ~n ~keep =
  let reg = Workload.Bank.registry () in
  let db = fresh_bank () in
  let backend = Backend.mem_backend mem in
  let mgr, rep0 =
    Manager.recover backend policy ~install:(fun _ -> ()) ~apply:(fun _ -> ())
  in
  Alcotest.(check int) "fresh backend recovers to nothing" (-1)
    rep0.Manager.recovered_idx;
  let hashes = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let txn = deposit_txn i in
    (match (Shadowdb.Txn.execute reg db txn).Shadowdb.Txn.outcome with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    hashes.(i) <- Database.content_hash db;
    Manager.append mgr
      {
        Wal.idx = i;
        aux = i + 1;
        hash = hashes.(i);
        payload = Shadowdb.Codec.encode_txn txn;
      };
    Manager.maybe_snapshot mgr ~payload:(fun () ->
        Shadowdb.Codec.encode_rows (Database.dump db))
  done;
  let synced = Manager.durable_idx mgr in
  Backend.mem_crash ~keep mem;
  (hashes, synced)

let recover_into_fresh mem ~policy =
  let reg = Workload.Bank.registry () in
  let db = fresh_bank () in
  let install (r : Wal.record) =
    match Shadowdb.Codec.decode_rows r.Wal.payload with
    | Ok rows -> (
        Database.clear_data db;
        match Database.load_rows db rows with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
    | Error e -> Alcotest.fail e
  in
  let apply (r : Wal.record) =
    match Shadowdb.Codec.decode_txn r.Wal.payload with
    | Ok txn -> ignore (Shadowdb.Txn.execute reg db txn)
    | Error e -> Alcotest.fail e
  in
  let _, rep = Manager.recover (Backend.mem_backend mem) policy ~install ~apply in
  (db, rep)

let prop_crash_replay =
  QCheck.Test.make ~count:120
    ~name:"crash at any point, recover, state equals the no-crash run"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sim.Prng.create (seed + 1) in
      let n = 1 + Sim.Prng.int rng 24 in
      let policy =
        {
          Manager.group_commit = 1 + Sim.Prng.int rng 4;
          snapshot_every = Sim.Prng.int rng 7;  (* 0 = never *)
          replay_tail = true;
        }
      in
      let keep = Sim.Prng.int rng 5 in
      let mem = Backend.mem_create () in
      let hashes, synced = run_until_crash mem ~policy ~n ~keep in
      let durable_frontier =
        (Manager.inspect
           ~snap:(Backend.mem_durable_snap mem)
           ~log:(Backend.mem_durable_log mem))
          .Manager.i_durable_idx
      in
      let db, rep = recover_into_fresh mem ~policy in
      (* No committed loss: everything synced before the crash is
         recovered; replay reaches exactly the durable frontier. *)
      rep.Manager.recovered_idx >= synced
      && rep.Manager.recovered_idx = durable_frontier
      &&
      (* The recovered state is byte-for-byte the state of a run that
         stopped at the recovered position — crash and replay are
         invisible. *)
      match rep.Manager.recovered_idx with
      | -1 -> Database.content_hash db = Database.content_hash (fresh_bank ())
      | k ->
          Database.content_hash db = hashes.(k)
          && rep.Manager.recovered_hash = hashes.(k))

let prop_noreplay_fixture_loses_data =
  QCheck.Test.make ~count:40
    ~name:"replay_tail=false fixture provably loses committed records"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sim.Prng.create (seed + 1) in
      let n = 2 + Sim.Prng.int rng 10 in
      let policy =
        { Manager.group_commit = 1; snapshot_every = 0; replay_tail = false }
      in
      let mem = Backend.mem_create () in
      let _, synced = run_until_crash mem ~policy ~n ~keep:0 in
      let _, rep = recover_into_fresh mem ~policy in
      (* Every record was synced (group_commit = 1), yet the broken
         recovery comes back empty-handed. *)
      synced = n - 1 && rep.Manager.recovered_idx = -1)

let test_manager_snapshot_resets_log () =
  let mem = Backend.mem_create () in
  let policy =
    { Manager.group_commit = 1; snapshot_every = 3; replay_tail = true }
  in
  let _ = run_until_crash mem ~policy ~n:7 ~keep:0 in
  let scan = Wal.scan (Backend.mem_durable_log mem) in
  Alcotest.(check bool) "log holds only the post-snapshot suffix" true
    (List.length scan.Wal.records < 7);
  Alcotest.(check bool) "snapshot present" true
    (Backend.mem_durable_snap mem <> None);
  let db, rep = recover_into_fresh mem ~policy in
  Alcotest.(check int) "recovered to the last applied position" 6
    rep.Manager.recovered_idx;
  Alcotest.(check bool) "snapshot was used" true rep.Manager.snapshot_valid;
  Alcotest.(check bool) "stale records skipped, fresh replayed" true
    (rep.Manager.wal_replayed = List.length scan.Wal.records);
  ignore db

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "durable"
    [
      ("crc32", [ Alcotest.test_case "known vectors" `Quick test_crc_known ]);
      ( "wal",
        [
          Alcotest.test_case "round-trip" `Quick test_wal_roundtrip_basic;
          Alcotest.test_case "golden bytes (record, snapshot)" `Quick
            test_golden_bytes;
          Alcotest.test_case "every prefix cut is torn" `Quick
            test_wal_every_prefix;
          Alcotest.test_case "corruption rejected" `Quick
            test_wal_crc_rejects_corruption;
          qt prop_wal_record_roundtrip;
          qt prop_wal_truncation_rejected;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "round-trip and rejection" `Quick
            test_snapshot_roundtrip ] );
      ( "backends",
        [
          Alcotest.test_case "mem crash semantics" `Quick
            test_mem_crash_semantics;
          Alcotest.test_case "file backend round-trip" `Quick
            test_file_backend_roundtrip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "snapshot + suffix replay" `Quick
            test_manager_snapshot_resets_log;
          qt prop_crash_replay;
          qt prop_noreplay_fixture_loses_data;
        ] );
    ]
