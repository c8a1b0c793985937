(* Per-layer instruments, wrapped around the calls the benchmark makes
   into each layer: the wire codec the runtime encodes and decodes with,
   the transaction procedures the replicas execute, and the WAL backend
   the durability manager writes through. Nothing inside lib/ changes.

   Timers run only while [on] is set, so one traced run can alternate
   timed and untimed waves and measure its own overhead. Counters that
   cost nothing run always. *)

module Sdb = Conform.Sys_wire.S

let on = ref false
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- codec and wire classification ------------------------------- *)

type codec = {
  mutable enc_calls : int;
  mutable enc_ns : int;
  mutable dec_calls : int;
  mutable dec_ns : int;
  mutable svc_msgs : int;  (* broadcast-service and Paxos traffic *)
  mutable svc_bytes : int;
  mutable note_msgs : int;  (* TOB delivery notifications *)
  mutable db_msgs : int;  (* replies, 2PC, replication *)
}

let codec =
  {
    enc_calls = 0;
    enc_ns = 0;
    dec_calls = 0;
    dec_ns = 0;
    svc_msgs = 0;
    svc_bytes = 0;
    note_msgs = 0;
    db_msgs = 0;
  }

let classify (m : Sdb.wire) bytes =
  match m with
  | Sdb.Svc _ ->
      codec.svc_msgs <- codec.svc_msgs + 1;
      codec.svc_bytes <- codec.svc_bytes + bytes
  | Sdb.Note _ -> codec.note_msgs <- codec.note_msgs + 1
  | Sdb.Db _ -> codec.db_msgs <- codec.db_msgs + 1

let wrap_codec (c : Sdb.wire Runtime.codec) : Sdb.wire Runtime.codec =
  {
    Runtime.enc =
      (fun m ->
        if not !on then c.Runtime.enc m
        else begin
          let t0 = now_ns () in
          let s = c.Runtime.enc m in
          codec.enc_ns <- codec.enc_ns + (now_ns () - t0);
          codec.enc_calls <- codec.enc_calls + 1;
          classify m (String.length s);
          s
        end);
    dec =
      (fun s ->
        if not !on then c.Runtime.dec s
        else begin
          let t0 = now_ns () in
          let r = c.Runtime.dec s in
          codec.dec_ns <- codec.dec_ns + (now_ns () - t0);
          codec.dec_calls <- codec.dec_calls + 1;
          r
        end);
  }

(* ---- storage: timed transaction procedures ----------------------- *)

let tpcc_kinds =
  [ "new_order"; "payment"; "order_status"; "delivery"; "stock_level" ]

let bank_kinds = [ "deposit"; "balance"; "transfer"; "withdraw"; "audit" ]

type storage = {
  exec_us : Stats.Sample.t;  (* every timed procedure execution *)
  by_kind : (string, int ref * int ref) Hashtbl.t;  (* calls, ns *)
}

let storage = { exec_us = Stats.Sample.create (); by_kind = Hashtbl.create 16 }

let timed_proc kind (p : Shadowdb.Txn.proc) : Shadowdb.Txn.proc =
  let calls, ns =
    match Hashtbl.find_opt storage.by_kind kind with
    | Some slot -> slot
    | None ->
        let slot = (ref 0, ref 0) in
        Hashtbl.replace storage.by_kind kind slot;
        slot
  in
  fun db params ->
    if not !on then p db params
    else begin
      let t0 = now_ns () in
      let r = p db params in
      let dt = now_ns () - t0 in
      incr calls;
      ns := !ns + dt;
      Stats.Sample.add storage.exec_us (float_of_int dt /. 1e3);
      r
    end

(* Rebuild a registry with every known procedure timed. *)
let timed_registry reg =
  Shadowdb.Txn.registry
    (List.filter_map
       (fun kind ->
         Option.map
           (fun p -> (kind, timed_proc kind p))
           (Shadowdb.Txn.lookup reg kind))
       (tpcc_kinds @ bank_kinds))

(* ---- durability: the WAL backend ---------------------------------- *)

type wal = {
  mutable appended : int;  (* log length in bytes *)
  mutable synced : int;  (* log length at the last sync *)
  mutable syncs : int;
  mutable append_bytes : int;
}

type durable = { sync_ms : Stats.Sample.t; mutable io_ns : int }

let durable = { sync_ms = Stats.Sample.create (); io_ns = 0 }

(* [wal] tracks the synced prefix on every run: the durability check
   cuts each node's log copy there. Timing happens only while [on]. *)
let wrap_backend (b : Durable.Backend.t) =
  let existing = String.length (b.Durable.Backend.log_read ()) in
  let w = { appended = existing; synced = existing; syncs = 0; append_bytes = 0 } in
  (* Runs [f], returning its duration in ns when timing, else 0. *)
  let timed f =
    if not !on then begin
      f ();
      0
    end
    else begin
      let t0 = now_ns () in
      f ();
      let dt = now_ns () - t0 in
      durable.io_ns <- durable.io_ns + dt;
      dt
    end
  in
  let b' =
    {
      b with
      Durable.Backend.log_append =
        (fun s ->
          ignore (timed (fun () -> b.Durable.Backend.log_append s));
          w.appended <- w.appended + String.length s;
          w.append_bytes <- w.append_bytes + String.length s);
      log_sync =
        (fun () ->
          let dt = timed b.Durable.Backend.log_sync in
          if !on then Stats.Sample.add durable.sync_ms (float_of_int dt /. 1e6);
          w.synced <- w.appended;
          w.syncs <- w.syncs + 1);
      log_truncate =
        (fun n ->
          b.Durable.Backend.log_truncate n;
          w.appended <- n;
          w.synced <- min w.synced n);
      log_reset =
        (fun () ->
          b.Durable.Backend.log_reset ();
          w.appended <- 0;
          w.synced <- 0);
    }
  in
  (b', w)
