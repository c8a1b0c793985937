(* Deliberately defective sources proving each impl-pass code fires.

   Same contract as the spec fixtures (fixtures.ml): each fixture
   promises the codes it must fire, and [Lint.selftest] checks promised
   ⊆ fired. Sources are in-memory strings parsed with {!Ast_load} — they
   only need to parse, not typecheck, and the dune sandbox needs no
   source files, so these run inside `dune runtest` and the bin selftest
   rule unchanged. *)

let parse name src =
  match Ast_load.parse_string ~path:(Printf.sprintf "fixture/%s.ml" name) src with
  | Ok s -> Ok s
  | Error d -> Error [ d ]

let with_graph name src f =
  match parse name src with
  | Ok s -> f (Callgraph.build [ s ]) s
  | Error ds -> ds

(* --- reactor-blocking ------------------------------------------------ *)

(* A reactor whose dispatch path hides a blocking Unix.read behind one
   level of indirection; only its select is blessed. *)
let bad_reactor_src =
  {|
let log_line msg = print_string msg

let fetch fd buf = Unix.read fd buf 0 4096

let dispatch fd input =
  let n = fetch fd (Bytes.create 16) in
  log_line input;
  ignore n

let reactor t =
  match Unix.select [ t ] [] [] 1.0 with
  | rds, _, _ -> List.iter (fun fd -> dispatch fd "frame") rds
|}

let bad_reactor () =
  with_graph "bad_reactor" bad_reactor_src (fun g _ ->
      Impl_blocking.pass ~target:"fixture" g
        {
          Impl_blocking.entries = [ "Fixture.Bad_reactor.reactor" ];
          blessed =
            [ ("Fixture.Bad_reactor.reactor", "Unix.select", "the mux wait") ];
        })

(* --- lock discipline ------------------------------------------------- *)

let raw_lock_src =
  {|
let stats t =
  Mutex.lock t;
  let s = 1 in
  Mutex.unlock t;
  s
|}

let locks ?(dispatchers = []) name src () =
  with_graph name src (fun g _ ->
      Impl_locks.pass ~target:"fixture" g { Impl_locks.dispatchers })

(* A hand-rolled copy of [Mutex.protect]: exception-safe, but a second
   lock primitive the pass would have to be told about. *)
let hand_rolled_src =
  {|
let with_lock t f =
  Mutex.lock t;
  Fun.protect ~finally:(fun () -> Mutex.unlock t) f

let bump t r = with_lock t (fun () -> incr r)
|}

let lock_blocking_src =
  {|
let read_all fd buf = Unix.read fd buf 0 4096

let poll t fd buf = Mutex.protect t (fun () -> read_all fd buf)
|}

let lock_order_src =
  {|
let push q v = Mutex.protect q (fun () -> ignore v)

let transfer a b v = Mutex.protect a (fun () -> push b v)
|}

let lock_dispatch_src =
  {|
let dispatch handler input = handler input

let deliver t handler payload =
  Mutex.protect t (fun () -> dispatch handler payload)
|}

(* --- durability ordering --------------------------------------------- *)

(* Snapshot path that syncs the directory after rename but never the
   data file before it: the torn-snapshot defect. *)
let torn_snapshot_src =
  {|
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Unix.fsync fd;
  Unix.close fd

let snap_write dir s =
  let tmp = Filename.concat dir "snapshot.tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.write_substring fd s 0 (String.length s));
  Unix.close fd;
  Unix.rename tmp (Filename.concat dir "snapshot.bin");
  fsync_dir dir
|}

let durable_cfg ?(require_wal = false) file_module =
  {
    Impl_durable.file_module;
    append_callers = [];
    sync_field = "log_sync";
    require_wal;
  }

let torn_snapshot () =
  with_graph "torn_snapshot" torn_snapshot_src (fun g s ->
      Impl_durable.pass ~target:"fixture" g ~sources:[ s ]
        (durable_cfg "Fixture.Torn_snapshot"))

(* WAL backend whose sync closure is a no-op: acks without durability. *)
let noack_wal_src =
  {|
let create dir =
  let path = Filename.concat dir "wal.log" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  {
    log_append = (fun s -> ignore (Unix.write_substring fd s 0 (String.length s)));
    log_sync = (fun () -> ());
    close = (fun () -> Unix.close fd);
  }
|}

let noack_wal () =
  with_graph "noack_wal" noack_wal_src (fun g s ->
      Impl_durable.pass ~target:"fixture" g ~sources:[ s ]
        (durable_cfg ~require_wal:true "Fixture.Noack_wal"))

let swallowed_sync_src =
  {|
let sync fd = try Unix.fsync fd with Unix.Unix_error _ -> ()
|}

let swallowed_sync () =
  with_graph "swallowed_sync" swallowed_sync_src (fun g s ->
      Impl_durable.pass ~target:"fixture" g ~sources:[ s ]
        (durable_cfg "Fixture.Swallowed_sync"))

(* --- sweep v2 -------------------------------------------------------- *)

(* Exactly one real banned site; the comment and string mentions must
   stay silent (they are what v1 used to flag). *)
let sweep_precision_src =
  {|
(* a comment may mention failwith, Option.get and even assert false *)
let banner = "failwith lives in a string literal here"

let boom () = failwith banner
|}

let sweep_precision () =
  match parse "sweep_precision" sweep_precision_src with
  | Ok s ->
      Sweep.scan_structure ~path:s.Ast_load.src_path s.Ast_load.src_str
  | Error ds -> ds

let all : Fixtures.t list =
  [
    { Fixtures.name = "impl-bad-reactor"; expect = [ "reactor-blocking" ]; run = bad_reactor };
    { Fixtures.name = "impl-raw-lock"; expect = [ "raw-mutex" ]; run = locks "raw_lock" raw_lock_src };
    { Fixtures.name = "impl-hand-rolled-lock"; expect = [ "raw-mutex" ]; run = locks "hand_rolled" hand_rolled_src };
    { Fixtures.name = "impl-lock-blocking"; expect = [ "blocking-under-lock" ]; run = locks "lock_blocking" lock_blocking_src };
    { Fixtures.name = "impl-lock-order"; expect = [ "lock-order" ]; run = locks "lock_order" lock_order_src };
    {
      Fixtures.name = "impl-dispatch-under-lock";
      expect = [ "dispatch-under-lock" ];
      run =
        locks ~dispatchers:[ "Fixture.Lock_dispatch.dispatch" ] "lock_dispatch"
          lock_dispatch_src;
    };
    { Fixtures.name = "impl-torn-snapshot"; expect = [ "rename-before-fsync" ]; run = torn_snapshot };
    { Fixtures.name = "impl-noack-wal"; expect = [ "append-no-sync" ]; run = noack_wal };
    { Fixtures.name = "impl-swallowed-sync"; expect = [ "sync-swallowed" ]; run = swallowed_sync };
    { Fixtures.name = "impl-sweep-precision"; expect = [ "failwith" ]; run = sweep_precision };
  ]
