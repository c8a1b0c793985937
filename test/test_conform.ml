(* Tests for the runtime conformance layer (lib/conform).

   The trace codec gets the same treatment as the wire codec suite: a
   golden vector pinning the on-disk format, round-trips, rejection of
   every strict prefix (truncation) and of header corruption. The replay
   checker and monitor bridge are exercised on small synthetic traces
   where the expected verdict is known by construction — in-order
   streams accepted, reordering/skips/fingerprint-mismatch pinpointed,
   crash/restart incarnations handled — and the online monitor and
   divergent-fixture mutators on the same. End-to-end recorded-run
   properties live in test_runtime.ml and test_check.ml. *)

module E = Conform.Event
module TF = Conform.Trace_file

let ev node step kind = { E.node; step; at = 0.25 *. float_of_int step; kind }

let deliver ?(payload = "p") node step seqno =
  ev node step (E.Deliver { seqno; origin = 1; id = seqno; payload })

let checkpoint node step ~gseq ~seqno ~hash =
  ev node step (E.Checkpoint { gseq; seqno; hash })

let sample_meta = [ ("workload", "bank"); ("rows", "8") ]

let sample_events =
  [
    ev 0 0 E.Init;
    ev 0 1 (E.Recv { src = 1; bytes = "hi" });
    ev 0 2 (E.Timer { id = 3; tag = "tick" });
    ev 0 2 (E.Send { dst = 1; bytes = "yo" });
    ev 0 3 (E.Deliver { seqno = 0; origin = 1; id = 7; payload = "pay" });
    ev 0 3 (E.Checkpoint { gseq = 1; seqno = 0; hash = 0x5a5a });
    ev 1 0 E.Crash;
    ev 1 1 E.Restart;
  ]

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

(* Every event tag, meta, and field width pinned: any codec change that
   silently alters the on-disk format fails here first. *)
let golden =
  "53445452310410776f726b6c6f61640862616e6b08726f7773023810000000000000\
   00000000490002000000000000d03f52020468690004000000000000e03f54060874\
   69636b0004000000000000e03f530204796f0006000000000000e83f4400020e0670\
   61790006000000000000e83f430200b4e90202000000000000000000580202000000\
   000000d03f42"

let test_codec_golden () =
  Alcotest.(check string)
    "encoding matches the golden vector" golden
    (hex (TF.encode ~meta:sample_meta sample_events))

let test_codec_roundtrip () =
  let enc = TF.encode ~meta:sample_meta sample_events in
  match TF.decode enc with
  | Ok (meta, events) ->
      Alcotest.(check bool) "meta round-trips" true (meta = sample_meta);
      Alcotest.(check bool) "events round-trip" true (events = sample_events)
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e)

let test_codec_empty_roundtrip () =
  match TF.decode (TF.encode ~meta:[] []) with
  | Ok (meta, events) ->
      Alcotest.(check bool) "empty trace round-trips" true
        (meta = [] && events = [])
  | Error e -> Alcotest.fail ("empty round-trip failed: " ^ e)

(* Every strict prefix of a valid encoding must be rejected: the format
   has no trailing-garbage tolerance and no silent truncation. *)
let test_codec_truncation () =
  let enc = TF.encode ~meta:sample_meta sample_events in
  for len = 0 to String.length enc - 1 do
    match TF.decode (String.sub enc 0 len) with
    | Ok _ ->
        Alcotest.failf "truncation to %d of %d bytes decoded" len
          (String.length enc)
    | Error _ -> ()
  done

let test_codec_trailing_rejected () =
  let enc = TF.encode ~meta:sample_meta sample_events in
  match TF.decode (enc ^ "\x00") with
  | Ok _ -> Alcotest.fail "trailing byte accepted"
  | Error _ -> ()

let test_codec_corrupt_header () =
  let enc = TF.encode ~meta:sample_meta sample_events in
  (* Magic *)
  let bad = Bytes.of_string enc in
  Bytes.set bad 0 'X';
  (match TF.decode (Bytes.to_string bad) with
  | Ok _ -> Alcotest.fail "corrupted magic accepted"
  | Error _ -> ());
  (* Unknown event tag: the final byte of this encoding is the trailing
     Restart event's tag ('B' carries no fields). *)
  let flipped = Bytes.of_string enc in
  Bytes.set flipped (String.length enc - 1) 'Z';
  match TF.decode (Bytes.to_string flipped) with
  | Ok _ -> Alcotest.fail "unknown event tag accepted"
  | Error _ -> ()

(* A hostile length prefix: magic, one meta pair whose key claims
   [max_int] bytes. [pos + max_int] overflows, so a naive bounds check
   passes and the substring read raises instead of failing to decode. *)
let test_codec_overflowing_length () =
  let b = Buffer.create 16 in
  Buffer.add_string b "SDTR1";
  Buffer.add_char b '\x02';
  Buffer.add_string b "\xfe\xff\xff\xff\xff\xff\xff\xff\x7f";
  match TF.decode (Buffer.contents b) with
  | Ok _ -> Alcotest.fail "overflowing key length decoded"
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "decode raised %s" (Printexc.to_string e)

(* Hostile bytes: every decoder that reads bytes from outside the process
   (trace files, wire messages, TOB payloads, WAL images) is total — it
   returns an error or an opaque value and never raises. Inputs are
   arbitrary strings and valid encodings with a cut, a flipped byte, or a
   maximal varint spliced in. The socket codec decodes each body in place
   behind its tag byte, so the decoders are also driven from byte 1. *)
let hostile_txn =
  { Shadowdb.Txn.client = 3; seq = 9; kind = "deposit"; params = [] }

(* One socket message per wire tag: 'D', 'B', 'N' and 'C'. *)
let wire_samples =
  let module W = Shadowdb.System in
  let entry = { Broadcast.Tob.origin = 1; id = 2; payload = "p" } in
  [
    W.Db (Shadowdb.Db_msg.Client_txn hostile_txn);
    W.Svc (W.TM.Broadcast entry);
    W.Note { Broadcast.Tob.seqno = 5; entry };
    W.Svc (W.TM.Core (Consensus.Paxos_msg.Decision { s = 4; c = [ entry ] }));
  ]

let test_wire_codec_in_place () =
  let { Runtime.enc; dec } = Shadowdb.System.wire_codec in
  List.iter
    (fun m ->
      let s = enc m in
      Alcotest.(check bool) "round-trips" true (dec s = Ok m);
      Alcotest.(check bool) "trailing byte rejected" true
        (Result.is_error (dec (s ^ "x")));
      Alcotest.(check bool) "truncation rejected" true
        (Result.is_error (dec (String.sub s 0 (String.length s - 1)))))
    wire_samples

let hostile_seeds =
  let txn = hostile_txn in
  List.map Shadowdb.System.wire_codec.Runtime.enc wire_samples
  @ [
    TF.encode ~meta:sample_meta sample_events;
    Shadowdb.Codec.encode_db_msg (Shadowdb.Db_msg.Client_txn txn);
    Shadowdb.Codec.encode_core_paxos
      (Consensus.Paxos_msg.Propose
         { s = 4; c = [ { Broadcast.Tob.origin = 1; id = 2; payload = "p" } ]
         });
    Shadowdb.Codec.encode_payload
      (Shadowdb.Codec.P_prepare (0, 1, [ 0; 1 ], txn));
    Durable.Wal.encode_record
      { Durable.Wal.idx = 1; aux = 2; hash = 3; payload = "wal" };
  ]

let gen_hostile =
  let open QCheck.Gen in
  let splice s =
    int_bound (String.length s) >>= fun i ->
    oneof
      [
        return (String.sub s 0 i);
        map (fun ch -> String.mapi (fun j c -> if j = i then ch else c) s) char;
        return
          (String.sub s 0 i ^ "\xfe\xff\xff\xff\xff\xff\xff\xff\x7f"
          ^ String.sub s i (String.length s - i));
      ]
  in
  oneof [ string; oneofl hostile_seeds >>= splice ]

let prop_hostile_bytes =
  QCheck.Test.make ~name:"hostile bytes never raise" ~count:2000
    (QCheck.make ~print:String.escaped gen_hostile)
    (fun s ->
      ignore (TF.decode s);
      ignore (Shadowdb.Codec.decode_db_msg s);
      ignore (Shadowdb.Codec.decode_core_paxos s);
      ignore (Shadowdb.Codec.decode_payload s);
      ignore (Durable.Wal.scan s);
      ignore (Shadowdb.System.wire_codec.Runtime.dec s);
      if s <> "" then begin
        ignore (Shadowdb.Codec.decode_entry ~pos:1 s);
        ignore (Shadowdb.Codec.decode_deliver ~pos:1 s);
        ignore (Shadowdb.Codec.decode_db_msg ~pos:1 s);
        ignore (Shadowdb.Codec.decode_core_paxos ~pos:1 s)
      end;
      true)

(* ------------------------------ replay ------------------------------- *)

let divergences events =
  (Conform.Replay.check events).Conform.Replay.r_divergences

let test_replay_in_order () =
  let events =
    [
      deliver 0 1 0;
      checkpoint 0 1 ~gseq:1 ~seqno:0 ~hash:10;
      deliver 0 2 1;
      checkpoint 0 2 ~gseq:2 ~seqno:1 ~hash:11;
      deliver 1 1 0;
      checkpoint 1 1 ~gseq:1 ~seqno:0 ~hash:10;
    ]
  in
  Alcotest.(check int) "conformant" 0 (List.length (divergences events))

let test_replay_reorder_flagged () =
  let events = [ deliver 0 1 0; deliver 0 2 2; deliver 0 3 1 ] in
  match divergences events with
  | [] -> Alcotest.fail "reordered stream accepted"
  | d :: _ ->
      Alcotest.(check bool) "pinpoints the out-of-order delivery" true
        (d.Conform.Replay.dv_node = 0
        && String.length d.Conform.Replay.dv_what > 0)

let test_replay_checkpoint_mismatch () =
  let events = [ deliver 0 1 0; checkpoint 0 1 ~gseq:1 ~seqno:4 ~hash:0 ] in
  Alcotest.(check bool) "checkpoint/delivery mismatch flagged" true
    (divergences events <> [])

let test_replay_restart_incarnations () =
  (* Apply 0..2, crash, recover and re-apply 1..3 (a group-commit-lost
     suffix re-executed): legitimate, two incarnations. *)
  let events =
    [
      deliver 0 1 0;
      deliver 0 2 1;
      deliver 0 3 2;
      ev 0 3 E.Crash;
      ev 0 4 E.Restart;
      deliver 0 5 1;
      deliver 0 6 2;
      deliver 0 7 3;
    ]
  in
  Alcotest.(check int) "recovery replay accepted" 0
    (List.length (divergences events))

let test_replay_restart_forward_gap () =
  (* Recovery resuming past what was applied skipped state. *)
  let events =
    [ deliver 0 1 0; ev 0 1 E.Crash; ev 0 2 E.Restart; deliver 0 3 5 ]
  in
  match divergences events with
  | [] -> Alcotest.fail "post-restart gap accepted"
  | d :: _ ->
      Alcotest.(check bool) "reported as a post-restart gap" true
        (String.length d.Conform.Replay.dv_what > 0)

(* ----------------------------- monitors ------------------------------ *)

let test_monitors_agreement_violation () =
  let agreement_flagged ?meta events =
    List.exists
      (fun (n, _) -> n = "conform-agreement")
      (Conform.Monitors.check ?meta events).Conform.Monitors.m_violations
  in
  let events =
    [
      deliver 0 1 0;
      checkpoint 0 1 ~gseq:1 ~seqno:0 ~hash:10;
      deliver 1 1 0;
      checkpoint 1 1 ~gseq:1 ~seqno:0 ~hash:99;
    ]
  in
  Alcotest.(check bool) "fingerprint disagreement caught" true
    (agreement_flagged events);
  (* Nodes 0 and 1 in different groups: two total orders, each with its
     own seqno 0, so different hashes there are no disagreement. *)
  let two_groups = [ ("groups", "0;1") ] in
  let r = Conform.Monitors.check ~meta:two_groups events in
  Alcotest.(check (list (pair string string)))
    "two groups' seqno 0 are different positions" []
    r.Conform.Monitors.m_violations;
  Alcotest.(check bool) "same group still caught" true
    (agreement_flagged ~meta:[ ("groups", "0,1;2") ] events)

let test_monitors_no_loss_violation () =
  let events = [ deliver 0 1 0; deliver 0 2 2 ] in
  let r = Conform.Monitors.check events in
  Alcotest.(check bool) "hole below the maximum caught" true
    (List.exists
       (fun (n, _) -> n = "conform-no-loss")
       r.Conform.Monitors.m_violations)

let test_monitors_clean () =
  let events =
    [
      deliver 0 1 0;
      checkpoint 0 1 ~gseq:1 ~seqno:0 ~hash:10;
      deliver 0 2 1;
      deliver 1 1 0;
      checkpoint 1 1 ~gseq:1 ~seqno:0 ~hash:10;
    ]
  in
  let r = Conform.Monitors.check events in
  Alcotest.(check bool) "clean trace passes all monitors" true
    (Conform.Monitors.ok r)

(* -------------------------- online monitor --------------------------- *)

let test_online_fifo () =
  let o = Conform.Online.create () in
  let tap = Conform.Online.tap o in
  (* node 0 sends "a" then "b" to node 1; node 1 receives in order. *)
  tap ~self:0 ~now:0.0 (Runtime.Ob_send { dst = 1; msg = "a" });
  tap ~self:0 ~now:0.0 (Runtime.Ob_send { dst = 1; msg = "b" });
  tap ~self:1 ~now:0.1 (Runtime.Ob_input (Runtime.Recv { src = 0; msg = "a" }));
  tap ~self:1 ~now:0.1 (Runtime.Ob_input (Runtime.Recv { src = 0; msg = "b" }));
  Alcotest.(check int) "in-order link is clean" 0 (Conform.Online.violations o);
  let o2 = Conform.Online.create () in
  let tap2 = Conform.Online.tap o2 in
  tap2 ~self:0 ~now:0.0 (Runtime.Ob_send { dst = 1; msg = "a" });
  tap2 ~self:0 ~now:0.0 (Runtime.Ob_send { dst = 1; msg = "b" });
  tap2 ~self:1 ~now:0.1
    (Runtime.Ob_input (Runtime.Recv { src = 0; msg = "b" }));
  Alcotest.(check bool) "reordered link is flagged" true
    (Conform.Online.violations o2 > 0)

(* Sends are observed before the runtime drops those aimed at a dead
   node, so "b" (sent while node 1 is down) is lost, not reordered. *)
let test_online_crash_restart () =
  let o = Conform.Online.create () in
  let tap = Conform.Online.tap o in
  let send msg = tap ~self:0 ~now:0.0 (Runtime.Ob_send { dst = 1; msg }) in
  send "a";
  tap ~self:1 ~now:0.1 Runtime.Ob_crash;
  send "b";
  tap ~self:1 ~now:0.2 Runtime.Ob_restart;
  send "c";
  tap ~self:1 ~now:0.3 (Runtime.Ob_input (Runtime.Recv { src = 0; msg = "c" }));
  Alcotest.(check (list string)) "sends lost to a dead node are not violations"
    [] (Conform.Online.messages o)

let test_online_agreement () =
  let o = Conform.Online.create () in
  let tap : string Runtime.tap = Conform.Online.tap o in
  let checkpoint ~self ~group hash =
    tap ~self ~now:0.0
      (Runtime.Ob_checkpoint { group; gseq = 1; seqno = 0; hash })
  in
  checkpoint ~self:0 ~group:0 5;
  checkpoint ~self:1 ~group:0 5;
  Alcotest.(check int) "agreeing fingerprints clean" 0
    (Conform.Online.violations o);
  (* A second group's total order has its own seqno 0. *)
  checkpoint ~self:3 ~group:1 7;
  checkpoint ~self:4 ~group:1 7;
  Alcotest.(check int) "another group's seqno 0 is its own" 0
    (Conform.Online.violations o);
  checkpoint ~self:2 ~group:0 6;
  Alcotest.(check bool) "disagreeing fingerprint flagged" true
    (Conform.Online.violations o > 0)

(* ----------------------------- mutators ------------------------------ *)

let mutable_trace =
  [
    deliver 0 1 0;
    checkpoint 0 1 ~gseq:1 ~seqno:0 ~hash:10;
    deliver 0 2 1;
    checkpoint 0 2 ~gseq:2 ~seqno:1 ~hash:11;
    deliver 1 1 0;
    (* The tamper-hash fixture mutates node 0's first checkpoint; node 1
       attesting the same position is what convicts it. *)
    checkpoint 1 1 ~gseq:1 ~seqno:0 ~hash:10;
  ]

let test_mutate_fixtures_diverge () =
  List.iter
    (fun name ->
      match Conform.Mutate.apply name mutable_trace with
      | Error e -> Alcotest.failf "fixture %s not applicable: %s" name e
      | Ok mutated ->
          let replay = Conform.Replay.check mutated in
          let monitors = Conform.Monitors.check mutated in
          Alcotest.(check bool)
            (Printf.sprintf "fixture %s diverges" name)
            true
            (not
               (Conform.Replay.ok replay && Conform.Monitors.ok monitors)))
    Conform.Mutate.fixtures

let test_mutate_droppable () =
  (* Only node 0's first delivery has a later same-node delivery. *)
  Alcotest.(check (list int)) "droppable indices" [ 0 ]
    (Conform.Mutate.droppable mutable_trace);
  Alcotest.(check int) "drop_at removes one event"
    (List.length mutable_trace - 1)
    (List.length (Conform.Mutate.drop_at 0 mutable_trace))

let () =
  Alcotest.run "conform"
    [
      ( "trace-codec",
        [
          Alcotest.test_case "golden vector" `Quick test_codec_golden;
          Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "empty round-trip" `Quick
            test_codec_empty_roundtrip;
          Alcotest.test_case "every truncation rejected" `Quick
            test_codec_truncation;
          Alcotest.test_case "trailing bytes rejected" `Quick
            test_codec_trailing_rejected;
          Alcotest.test_case "corrupt header rejected" `Quick
            test_codec_corrupt_header;
          Alcotest.test_case "overflowing length rejected" `Quick
            test_codec_overflowing_length;
          Alcotest.test_case "wire codec decodes in place" `Quick
            test_wire_codec_in_place;
          QCheck_alcotest.to_alcotest prop_hostile_bytes;
        ] );
      ( "replay",
        [
          Alcotest.test_case "in-order stream conformant" `Quick
            test_replay_in_order;
          Alcotest.test_case "reordering flagged" `Quick
            test_replay_reorder_flagged;
          Alcotest.test_case "checkpoint mismatch flagged" `Quick
            test_replay_checkpoint_mismatch;
          Alcotest.test_case "crash/restart incarnations" `Quick
            test_replay_restart_incarnations;
          Alcotest.test_case "post-restart forward gap flagged" `Quick
            test_replay_restart_forward_gap;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "clean trace passes" `Quick test_monitors_clean;
          Alcotest.test_case "fingerprint disagreement" `Quick
            test_monitors_agreement_violation;
          Alcotest.test_case "lost entry (hole)" `Quick
            test_monitors_no_loss_violation;
        ] );
      ( "online",
        [
          Alcotest.test_case "per-link FIFO" `Quick test_online_fifo;
          Alcotest.test_case "per-link FIFO across crash/restart" `Quick
            test_online_crash_restart;
          Alcotest.test_case "fingerprint agreement" `Quick
            test_online_agreement;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "all fixtures diverge" `Quick
            test_mutate_fixtures_diverge;
          Alcotest.test_case "droppable eligibility" `Quick
            test_mutate_droppable;
        ] );
    ]
