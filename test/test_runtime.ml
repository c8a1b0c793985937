(* Tests for the runtime-polymorphic process layer.

   The same handlers — written once against the Runtime capability
   records — must behave identically whether hosted on the deterministic
   simulator (Of_sim) or on the single-reactor event-loop runtime (Loop),
   with direct in-process sinks or over loopback sockets. The suite
   exercises the generic process shell on both substrates, checks Of_sim
   keeps the simulator deterministic, runs the acceptance scenario — a
   3-node Paxos-backed SMR bank cluster with ≥100 transactions
   end-to-end, wall-clock p50/p99 — drills crash/restart and outbox
   saturation (backpressure, bounded memory, no loss, per-link FIFO
   checked by the online conformance monitor), and finishes with the
   recorded differential: the same workload on the simulator, loop-direct
   and loop-socket must replay clean and agree on the final fingerprint. *)

module R = Runtime
module Engine = Sim.Engine
module S = Shadowdb.System

(* ------------------------------------------------------------------ *)
(* A tiny protocol over int messages: a driver bounces a counter off an
   echo machine until it reaches [limit]. The echo side is a pure
   Proc.machine; the driver is an imperative Proc.stateful_handler that
   starts the exchange from a timer (so Init, Recv and Timer inputs are
   all exercised on each runtime).                                      *)
(* ------------------------------------------------------------------ *)

type act = Send_to of Sim.Node_id.t * int

let echo_machine () =
  {
    R.Proc.init = (fun ~self:_ ~now:_ -> 0);
    start = (fun s ~now:_ -> (s, []));
    recv = (fun s ~now:_ ~src n -> (s + 1, [ Send_to (src, n + 1) ]));
    tick = (fun s ~now:_ ~tag:_ -> (s, []));
  }

let spawn_pingpong world ~limit ~on_reply ~echo_count =
  let echo =
    R.spawn world ~name:"echo" (fun () ->
        R.Proc.node_handler ~machine:(echo_machine ())
          ~prj:(fun n -> Some n)
          ~on_step:(fun _ ~before:_ ~after -> Atomic.set echo_count after)
          ~interp:(fun ctx (Send_to (dst, n)) -> R.send ctx dst n)
          ())
  in
  R.spawn world ~name:"driver" (fun () ->
      R.Proc.stateful_handler
        ~init:(fun ~self:_ ~now:_ -> ())
        ~handle:(fun ctx () -> function
          | R.Init -> ignore (R.set_timer ctx 0.01 "go")
          | R.Timer _ -> R.send ctx echo 0
          | R.Recv { msg = n; _ } ->
              on_reply ctx n;
              if n < limit then R.send ctx echo n)
        ())

let run_pingpong_sim ~seed =
  let world = Engine.create ~seed () in
  let rworld = R.Of_sim.of_engine world in
  let echo_count = Atomic.make 0 in
  let replies = ref [] in
  let _ =
    spawn_pingpong rworld ~limit:10 ~echo_count ~on_reply:(fun ctx n ->
        replies := (R.time ctx, n) :: !replies)
  in
  Engine.run ~until:60.0 world;
  (Atomic.get echo_count, List.rev !replies)

let test_proc_pingpong_sim () =
  let echoed, replies = run_pingpong_sim ~seed:7 in
  Alcotest.(check int) "echo handled every message" 10 echoed;
  Alcotest.(check int) "driver saw every reply" 10 (List.length replies);
  Alcotest.(check (list int))
    "replies in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.map snd replies)

(* Of_sim is pure plumbing over the engine: the same seed must give the
   same virtual-time trace, to the last bit. *)
let test_of_sim_deterministic () =
  let a = run_pingpong_sim ~seed:42 in
  let b = run_pingpong_sim ~seed:42 in
  Alcotest.(check bool) "identical traces" true (a = b)

let int_codec =
  {
    R.enc = string_of_int;
    dec =
      (fun s ->
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error ("bad int frame: " ^ s));
  }

(* The same exchange again, on the event-loop runtime. [~direct:false]
   forces socket sinks for every destination, covering the reactor's TCP
   flush/accept/read path (the other loop tests mostly run the default
   direct local delivery). *)
let test_proc_pingpong_loop () =
  let online = Conform.Online.create () in
  let loop =
    R.Loop.create ~direct:false ~tap:(Conform.Online.tap online)
      ~codec:int_codec ()
  in
  let echo_count = Atomic.make 0 in
  let final = Atomic.make (-1) in
  let _ =
    spawn_pingpong (R.Loop.runtime loop) ~limit:10 ~echo_count
      ~on_reply:(fun _ n -> if n >= 10 then Atomic.set final n)
  in
  R.Loop.start loop;
  let ok = R.Loop.await ~timeout:30.0 loop (fun () -> Atomic.get final >= 0) in
  R.Loop.stop loop;
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check bool) "exchange finished" true ok;
  Alcotest.(check int) "final reply" 10 (Atomic.get final);
  Alcotest.(check int) "echo handled every message" 10 (Atomic.get echo_count);
  Alcotest.(check int) "per-link FIFO clean" 0 (Conform.Online.violations online)

(* ------------------------------------------------------------------ *)
(* Acceptance: a 3-node Paxos-backed SMR bank cluster on the event-loop
   runtime — ≥100 transactions end-to-end, state agreement across the
   executing replicas, wall-clock p50/p99.                              *)
(* ------------------------------------------------------------------ *)

(* The bank mix every loop cluster test drives: one balance read in
   four, deposits otherwise, deterministic per (client, seq). *)
let bank_mix ~rows ~client ~seq =
  let account = abs (Hashtbl.hash (client, seq)) mod rows in
  if seq mod 4 = 3 then Workload.Bank.balance ~account
  else Workload.Bank.deposit ~account ~amount:(1 + (seq mod 9))

(* End-of-run state agreement with every node alive: no two replicas of
   a group that executed the same prefix differ ({!S.disagreement}), and
   the executing replicas of each group all reached one executed count.
   Returns the replicas that executed. *)
let check_agreement target =
  Alcotest.(check (option string))
    "state agreement" None
    (S.disagreement target ~alive:(fun _ -> true));
  List.concat_map
    (fun g ->
      let executed =
        List.filter (fun l -> g.S.executes l && g.S.gseq_of l > 0) g.S.members
      in
      let counts = List.sort_uniq compare (List.map g.S.gseq_of executed) in
      Alcotest.(check bool)
        (Printf.sprintf "executing replicas reached one gseq (%s)"
           (String.concat "/" (List.map string_of_int counts)))
        true
        (List.length counts <= 1);
      executed)
    (S.groups target)

(* Run the bank workload on [loop] and return the commit count. Asserts
   completion, no runtime errors, and replica state agreement. *)
let run_smr_bank loop ~label ~clients ~count =
  let rows = 1_000 in
  let world = R.Loop.runtime loop in
  let cluster =
    S.spawn_smr ~world ~registry:Workload.Bank.registry
      ~setup:(fun db -> Workload.Bank.setup ~rows db)
      ~n_active:2 ()
  in
  Alcotest.(check int) "three nodes" 3 (List.length cluster.S.smr_nodes);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d has a bound port" l)
        true
        (R.Loop.port_of loop l <> None))
    cluster.S.smr_nodes;
  let mu = Mutex.create () in
  let commits = ref 0 in
  let latencies = Stats.Sample.create () in
  let _, completed =
    S.spawn_clients ~world ~target:(S.To_smr cluster) ~n:clients ~count
      ~make_txn:(bank_mix ~rows) ~retry_timeout:2.0
      ~on_commit:(fun _now l ->
        Mutex.protect mu (fun () ->
            incr commits;
            Stats.Sample.add latencies l))
      ()
  in
  let t0 = Unix.gettimeofday () in
  R.Loop.start loop;
  let finished =
    R.Loop.await ~timeout:120.0 loop (fun () -> completed () >= clients)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  R.Loop.stop loop;
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check bool) "all clients finished" true finished;
  Alcotest.(check int) "clients completed" clients (completed ());
  Printf.printf
    "%s smr: %d txns in %.3f s wall-clock — latency p50 %.2f ms, p99 %.2f ms\n%!"
    label !commits elapsed
    (Stats.Sample.percentile latencies 50.0 *. 1e3)
    (Stats.Sample.percentile latencies 99.0 *. 1e3);
  (* The inactive spare tracks delivery sequence numbers but does not
     execute, so state agreement is defined over the active replicas. *)
  Alcotest.(check bool)
    "at least two replicas executed" true
    (List.length (check_agreement (S.To_smr cluster)) >= 2);
  !commits

let test_loop_smr_bank () =
  let loop = R.Loop.create ~codec:S.wire_codec () in
  let clients = 4 and count = 30 in
  let commits = run_smr_bank loop ~label:"loop" ~clients ~count in
  Alcotest.(check bool)
    (Printf.sprintf "at least 100 transactions committed (got %d)" commits)
    true
    (commits >= 100 && commits <= clients * count)

(* PBR and chain replication over loopback sockets: every Forward, Ack
   and Heartbeat goes through [S.wire_codec] on a real socket, with the
   online per-link FIFO monitor on the tap (a chain has no Acks: the
   tail answers the client). The heartbeat period is short enough that
   heartbeats flow during the run. *)
let test_loop_pbr_socket ~style ~read_kinds () =
  let rows = 1_000 and clients = 3 and count = 30 in
  let online = Conform.Online.create () in
  let forwards = Atomic.make 0
  and acks = Atomic.make 0
  and heartbeats = Atomic.make 0 in
  let count_db ~self:_ ~now:_ = function
    | R.Ob_send { msg = S.Db m; _ } -> (
        match m with
        | Shadowdb.Db_msg.Forward _ -> Atomic.incr forwards
        | Shadowdb.Db_msg.Ack _ -> Atomic.incr acks
        | Shadowdb.Db_msg.Heartbeat _ -> Atomic.incr heartbeats
        | _ -> ())
    | _ -> ()
  in
  let loop =
    R.Loop.create ~direct:false
      ~tap:(R.tap_all [ Conform.Online.tap online; count_db ])
      ~codec:S.wire_codec ()
  in
  let world = R.Loop.runtime loop in
  let n_active = match style with S.Primary_backup -> 2 | S.Chain -> 3 in
  let cluster =
    S.spawn_pbr ~style ~read_kinds
      ~tun:{ S.default_tuning with hb_interval = 0.01 }
      ~world ~registry:Workload.Bank.registry
      ~setup:(fun db -> Workload.Bank.setup ~rows db)
      ~n_active ~n_spare:1 ()
  in
  let _, completed =
    S.spawn_clients ~world ~target:(S.To_pbr cluster) ~n:clients ~count
      ~make_txn:(bank_mix ~rows) ~retry_timeout:2.0 ()
  in
  R.Loop.start loop;
  let finished =
    R.Loop.await ~timeout:120.0 loop (fun () ->
        completed () >= clients && Atomic.get heartbeats > 0)
  in
  R.Loop.stop loop;
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check bool) "all clients finished" true finished;
  Alcotest.(check int) "clients completed" clients (completed ());
  let sent =
    [ ("Forward", forwards); ("Heartbeat", heartbeats) ]
    @ match style with S.Primary_backup -> [ ("Ack", acks) ] | S.Chain -> []
  in
  List.iter
    (fun (name, n) ->
      Alcotest.(check bool) (name ^ " sent over the socket") true
        (Atomic.get n > 0))
    sent;
  Alcotest.(check bool)
    "a replica executed" true
    (check_agreement (S.To_pbr cluster) <> []);
  Alcotest.(check int)
    (Conform.Online.summary online)
    0
    (Conform.Online.violations online)

(* Two shards over loopback sockets, with the online monitor and the
   recorder on the tap. Each shard delivers its own total order, so
   seqnos repeat across shards: agreement is per group, live (the
   checkpoint names its shard) and offline (the trace's "groups" meta).
   Every other transaction is a transfer, about half of them across
   shards. *)
let test_loop_sharded_socket () =
  let rows = 1_000 and shards = 2 and clients = 4 and count = 50 in
  let online = Conform.Online.create () in
  let recorder =
    Conform.Recorder.create
      ~meta:[ ("workload", "bank"); ("runtime", "loop") ]
      ()
  in
  let loop =
    R.Loop.create ~direct:false
      ~tap:
        (R.tap_all
           [
             Conform.Recorder.tap recorder ~enc:S.wire_codec.R.enc;
             Conform.Online.tap online;
           ])
      ~codec:S.wire_codec ()
  in
  let world = R.Loop.runtime loop in
  let cluster =
    S.spawn_sharded ~world ~registry:Workload.Bank.registry
      ~setup:(fun s db -> Workload.Bank.setup_shard ~rows ~shards s db)
      ~router:(Workload.Bank.router ~shards)
      ()
  in
  let target = S.To_sharded cluster in
  let make_txn ~client ~seq =
    if seq mod 2 = 0 then
      let src = abs (Hashtbl.hash (client, seq)) mod rows in
      Workload.Bank.transfer ~src ~dst:((src + 1 + seq) mod rows) ~amount:1
    else bank_mix ~rows ~client ~seq
  in
  let _, completed =
    S.spawn_clients ~world ~target ~n:clients ~count ~make_txn
      ~retry_timeout:2.0 ()
  in
  R.Loop.start loop;
  let finished =
    R.Loop.await ~timeout:120.0 loop (fun () -> completed () >= clients)
  in
  R.Loop.stop loop;
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check bool) "all clients finished" true finished;
  Alcotest.(check bool) "some transfers crossed shards" true
    (cluster.S.sh_committed () > 0);
  Alcotest.(check int)
    (Conform.Online.summary online)
    0
    (Conform.Online.violations online);
  Alcotest.(check (option string))
    "state agreement" None
    (S.disagreement target ~alive:(fun _ -> true));
  Conform.Recorder.add_meta recorder (Conform.Monitors.groups_meta target);
  Alcotest.(check bool) "trace conformant" true
    (Conform.Record.conformant
       ~meta:(Conform.Recorder.meta recorder)
       (Conform.Recorder.events recorder))

(* ------------------------------------------------------------------ *)
(* Loop runtime: crash/restart, outbox saturation.                     *)
(* ------------------------------------------------------------------ *)

(* A driver that survives the death of its peer: a heartbeat timer
   resends the current counter until the echo answers, so progress stalls
   across the crash window and resumes after restart. The online monitor
   checks per-link FIFO across the crash, on direct and on socket sinks. *)
let test_loop_crash_restart ~direct () =
  let online = Conform.Online.create () in
  let loop =
    R.Loop.create ~direct ~tap:(Conform.Online.tap online) ~codec:int_codec ()
  in
  let world = R.Loop.runtime loop in
  let limit = 40 in
  let progress = Atomic.make 0 in
  let echo =
    R.spawn world ~name:"echo" (fun () ->
        R.Proc.node_handler ~machine:(echo_machine ())
          ~prj:(fun n -> Some n)
          ~interp:(fun ctx (Send_to (dst, n)) -> R.send ctx dst n)
          ())
  in
  let _driver =
    R.spawn world ~name:"driver" (fun () ->
        let next = ref 0 in
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun ctx () -> function
            | R.Init -> ignore (R.set_timer ctx 0.01 "kick")
            | R.Timer _ ->
                if !next < limit then begin
                  R.send ctx echo !next;
                  ignore (R.set_timer ctx 0.1 "kick")
                end
            | R.Recv { msg = n; _ } ->
                if n > !next then begin
                  next := n;
                  Atomic.set progress n
                end;
                if !next < limit then R.send ctx echo !next)
          ())
  in
  R.Loop.start loop;
  let warmed =
    R.Loop.await ~timeout:30.0 loop (fun () -> Atomic.get progress >= 10)
  in
  Alcotest.(check bool) "progress before crash" true warmed;
  R.Loop.crash loop echo;
  let before = Atomic.get progress in
  Thread.delay 0.25;  (* driver heartbeats into the void *)
  R.Loop.restart loop echo;
  let finished =
    R.Loop.await ~timeout:30.0 loop (fun () -> Atomic.get progress >= limit)
  in
  R.Loop.stop loop;
  Alcotest.(check bool) "finished after restart" true finished;
  Alcotest.(check bool)
    (Printf.sprintf "crash did not rewind progress (%d -> %d)" before
       (Atomic.get progress))
    true
    (Atomic.get progress >= before);
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check (list string)) "per-link FIFO clean across crash" []
    (Conform.Online.messages online)

(* Reactor timers: the earliest deadline fires first, equal delays fire
   in arm order, a cancelled timer never fires, and the timers of a
   crashed node are dropped. Every timer of [clock] is armed in one Init
   dispatch, so the firing order is the heap order however late the
   reactor runs. *)
let test_loop_timers () =
  let loop = R.Loop.create ~codec:int_codec () in
  let world = R.Loop.runtime loop in
  let fired = ref [] and victim_up = Atomic.make false in
  let finished = Atomic.make false in
  let _clock =
    R.spawn world ~name:"clock" (fun () ->
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun ctx () -> function
            | R.Init ->
                List.iter
                  (fun (delay, tag) -> ignore (R.set_timer ctx delay tag))
                  [ (0.9, "end"); (0.04, "b1"); (0.02, "a"); (0.04, "b2") ];
                R.cancel_timer ctx (R.set_timer ctx 0.03 "cancelled");
                ignore (R.set_timer ctx 0.04 "b3")
            | R.Timer { tag; _ } ->
                fired := tag :: !fired;
                if tag = "end" then Atomic.set finished true
            | R.Recv _ -> ())
          ())
  in
  let victim =
    R.spawn world ~name:"victim" (fun () ->
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun ctx () -> function
            | R.Init ->
                ignore (R.set_timer ctx 0.5 "doomed");
                Atomic.set victim_up true
            | R.Timer { tag; _ } -> fired := tag :: !fired
            | R.Recv _ -> ())
          ())
  in
  R.Loop.start loop;
  let up = R.Loop.await ~timeout:30.0 loop (fun () -> Atomic.get victim_up) in
  R.Loop.crash loop victim;
  let ok = R.Loop.await ~timeout:30.0 loop (fun () -> Atomic.get finished) in
  R.Loop.stop loop;
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check bool) "victim initialised before the crash" true up;
  Alcotest.(check bool) "last timer fired" true ok;
  Alcotest.(check (list string))
    "deadline order, ties in arm order, cancelled and crashed dropped"
    [ "a"; "b1"; "b2"; "b3"; "end" ]
    (List.rev !fired)

(* A restart starts a new incarnation: a timer armed before the crash
   must not fire into the restarted handler, as on the simulator. The
   [keep] timer of a live node sits at the heap's root while [node] is
   down, so the stale timer is still pending when [node] comes back. *)
let test_loop_timers_restart () =
  let loop = R.Loop.create ~codec:int_codec () in
  let world = R.Loop.runtime loop in
  let fired = ref [] and inits = Atomic.make 0 in
  let _keeper =
    R.spawn world ~name:"keeper" (fun () ->
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun ctx () -> function
            | R.Init -> ignore (R.set_timer ctx 0.4 "keep")
            | R.Timer { tag; _ } -> fired := tag :: !fired
            | R.Recv _ -> ())
          ())
  in
  let node =
    R.spawn world ~name:"node" (fun () ->
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun ctx () -> function
            | R.Init ->
                if Atomic.get inits = 0 then
                  ignore (R.set_timer ctx 0.5 "stale")
                else ignore (R.set_timer ctx 0.8 "fresh");
                Atomic.incr inits
            | R.Timer { tag; _ } -> fired := tag :: !fired
            | R.Recv _ -> ())
          ())
  in
  R.Loop.start loop;
  let up = R.Loop.await ~timeout:30.0 loop (fun () -> Atomic.get inits = 1) in
  R.Loop.crash loop node;
  R.Loop.restart loop node;
  let ok =
    R.Loop.await ~timeout:30.0 loop (fun () -> List.length !fired >= 2)
  in
  R.Loop.stop loop;
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check bool) "first incarnation initialised" true up;
  Alcotest.(check bool) "two timers fired" true ok;
  Alcotest.(check (list string))
    "no timer of the crashed incarnation" [ "keep"; "fresh" ]
    (List.rev !fired)

(* Saturate one outbox with tiny watermarks: a producer bursts far more
   bytes per dispatch than the high watermark, so backpressure must
   engage (parking the producer's next burst timer), memory must stay
   bounded by one burst of overshoot, and every message must still reach
   the consumer exactly once, in order. *)
let test_loop_outbox_saturation () =
  let high = 8 * 1024 and low = 2 * 1024 in
  let burst = 2_000 and bursts = 10 in
  let total = burst * bursts in
  let signalled = Atomic.make 0 in
  let online = Conform.Online.create () in
  let loop =
    R.Loop.create ~high ~low ~tap:(Conform.Online.tap online)
      ~on_backpressure:(fun ~dst:_ ~bytes:_ -> Atomic.incr signalled)
      ~codec:int_codec ()
  in
  let world = R.Loop.runtime loop in
  let received = Atomic.make 0 in
  let disorder = Atomic.make 0 in
  let consumer =
    R.spawn world ~name:"consumer" (fun () ->
        let expected = ref 0 in
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun _ctx () -> function
            | R.Recv { msg = n; _ } ->
                if n <> !expected then Atomic.incr disorder;
                incr expected;
                Atomic.set received !expected
            | R.Init | R.Timer _ -> ())
          ())
  in
  let _producer =
    R.spawn world ~name:"producer" (fun () ->
        let sent = ref 0 in
        R.Proc.stateful_handler
          ~init:(fun ~self:_ ~now:_ -> ())
          ~handle:(fun ctx () -> function
            | R.Init -> ignore (R.set_timer ctx 0.0 "burst")
            | R.Timer _ ->
                if !sent < total then begin
                  for i = !sent to !sent + burst - 1 do
                    R.send ctx consumer i
                  done;
                  sent := !sent + burst;
                  ignore (R.set_timer ctx 0.0 "burst")
                end
            | R.Recv _ -> ())
          ())
  in
  R.Loop.start loop;
  let finished =
    R.Loop.await ~timeout:60.0 loop (fun () -> Atomic.get received >= total)
  in
  R.Loop.stop loop;
  let st = R.Loop.stats loop in
  Alcotest.(check (list string)) "no runtime errors" [] (R.Loop.errors loop);
  Alcotest.(check bool) "all messages delivered" true finished;
  Alcotest.(check int) "no loss, no duplication" total (Atomic.get received);
  Alcotest.(check int) "delivered in order" 0 (Atomic.get disorder);
  Alcotest.(check int) "per-link FIFO clean" 0 (Conform.Online.violations online);
  Alcotest.(check bool)
    (Printf.sprintf "backpressure engaged (%d times)" st.R.Loop.s_backpressure)
    true
    (st.R.Loop.s_backpressure >= 1);
  Alcotest.(check bool) "harness saw the Backpressure signal" true
    (Atomic.get signalled >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "producer was parked (%d times)" st.R.Loop.s_parked)
    true (st.R.Loop.s_parked >= 1);
  (* A producer can overshoot the watermark only by what one dispatch
     emits: one burst of ~12-byte frames. *)
  let bound = high + (burst * 32) in
  Alcotest.(check bool)
    (Printf.sprintf "outbox memory bounded (peak %d <= %d)"
       st.R.Loop.s_peak_outbox_bytes bound)
    true
    (st.R.Loop.s_peak_outbox_bytes <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "sends were coalesced (%d frames in %d writes)"
       st.R.Loop.s_sent_msgs st.R.Loop.s_flush_writes)
    true
    (st.R.Loop.s_flush_writes * 2 <= st.R.Loop.s_sent_msgs)

(* Recorded cross-runtime differential: the same seeded bank workload on
   the simulator and on the event loop — once with direct in-process
   sinks, once with every frame through a loopback socket — each run
   recorded through the conformance tap; every trace must replay clean
   through the LoE spec and the invariant monitors, the online monitor
   must stay clean, and the most-advanced replica's final state
   fingerprint must be identical across the three legs (the deposit set
   is determined by (client, seq), so the committed state is
   schedule-independent). *)

let final_fingerprint events =
  List.fold_left
    (fun acc (e : Conform.Event.t) ->
      match (e.Conform.Event.kind, acc) with
      | Conform.Event.Checkpoint { seqno; hash; _ }, Some (s, _) when seqno > s
        ->
          Some (seqno, hash)
      | Conform.Event.Checkpoint { seqno; hash; _ }, None -> Some (seqno, hash)
      | _ -> acc)
    None events

let test_recorded_differential () =
  let clients = 3 and count = 20 and rows = 1_000 in
  (* Sim leg: the shared recorded-reference-run helper (same workload
     formula as run_smr_bank). *)
  let sim = Conform.Record.sim_bank ~seed:11 ~clients ~count ~rows () in
  Alcotest.(check int)
    "sim clients completed" clients sim.Conform.Record.completed;
  let sim_events = Conform.Recorder.events sim.Conform.Record.recorder in
  let sim_meta = Conform.Recorder.meta sim.Conform.Record.recorder in
  Alcotest.(check bool) "sim trace conformant" true
    (Conform.Record.conformant ~meta:sim_meta sim_events);
  (* Loop legs: the acceptance harness with a recorder and the online
     monitor tapped into the runtime. *)
  let record_leg name ~direct =
    let meta =
      [ ("workload", "bank"); ("rows", string_of_int rows); ("runtime", "loop") ]
    in
    let r = Conform.Recorder.create ~meta () in
    let online = Conform.Online.create () in
    let tap =
      R.tap_all
        [
          Conform.Recorder.tap r ~enc:S.wire_codec.R.enc;
          Conform.Online.tap online;
        ]
    in
    let loop = R.Loop.create ~direct ~tap ~codec:S.wire_codec () in
    let _ = run_smr_bank loop ~label:("differential/" ^ name) ~clients ~count in
    let events = Conform.Recorder.events r in
    Alcotest.(check bool)
      (name ^ " trace conformant")
      true
      (Conform.Record.conformant ~meta events);
    Alcotest.(check (list string))
      (name ^ " online monitor clean")
      [] (Conform.Online.messages online);
    events
  in
  let direct_events = record_leg "loop-direct" ~direct:true in
  let socket_events = record_leg "loop-socket" ~direct:false in
  match
    ( final_fingerprint sim_events,
      final_fingerprint direct_events,
      final_fingerprint socket_events )
  with
  | Some (_, a), Some (_, b), Some (_, c) ->
      Alcotest.(check bool)
        (Printf.sprintf "final fingerprints agree across runtimes (%x %x %x)"
           a b c)
        true
        (a = b && b = c)
  | _ -> Alcotest.fail "a recorded trace has no state checkpoints"

let () =
  Alcotest.run "runtime"
    [
      ( "proc",
        [
          Alcotest.test_case "ping-pong on the simulator" `Quick
            test_proc_pingpong_sim;
          Alcotest.test_case "Of_sim is deterministic" `Quick
            test_of_sim_deterministic;
        ] );
      ( "loop",
        [
          Alcotest.test_case "ping-pong on the event loop" `Quick
            test_proc_pingpong_loop;
          Alcotest.test_case "3-node SMR bank cluster, 120 txns" `Slow
            test_loop_smr_bank;
          Alcotest.test_case "PBR over loopback sockets" `Quick
            (test_loop_pbr_socket ~style:S.Primary_backup ~read_kinds:[]);
          Alcotest.test_case "chain over loopback sockets" `Quick
            (test_loop_pbr_socket ~style:S.Chain ~read_kinds:[ "balance" ]);
          Alcotest.test_case
            "sharded over loopback sockets with the online monitor" `Quick
            test_loop_sharded_socket;
          Alcotest.test_case "crash/restart under the event loop" `Quick
            (test_loop_crash_restart ~direct:true);
          Alcotest.test_case "crash/restart over loopback sockets" `Quick
            (test_loop_crash_restart ~direct:false);
          Alcotest.test_case "timers: deadline order, cancel, crash" `Quick
            test_loop_timers;
          Alcotest.test_case "timers: dropped across restart" `Quick
            test_loop_timers_restart;
          Alcotest.test_case "outbox saturation: backpressure, no loss"
            `Quick test_loop_outbox_saturation;
        ] );
      ( "conform",
        [
          Alcotest.test_case "recorded sim/loop/socket traces agree" `Slow
            test_recorded_differential;
        ] );
    ]
