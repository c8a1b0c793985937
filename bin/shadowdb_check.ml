(* Schedule-exploring model checker for the replicated protocols.

   `shadowdb_check explore` runs thousands of alternative event schedules
   of a protocol scenario under the simulator's scheduler hook, checking
   runtime invariant monitors on every run and reporting distinct-state
   coverage; on a violation it saves a shrunk, replayable counterexample
   trace. `shadowdb_check replay` re-executes a saved trace exactly.

   `shadowdb_check conform` is the runtime conformance checker: it loads
   a recorded event trace (from any of the three runtimes) and replays
   it through the Logic-of-Events delivery spec and the invariant
   monitors. `conform-record` produces reference traces — optionally
   run through a deliberately-divergent mutator — and
   `conform-selftest` proves in-process that a clean trace passes and
   every divergent fixture is rejected. *)

open Cmdliner

let protocol_conv =
  Arg.enum (List.map (fun s -> (s.Check.Scenario.name, s)) Check.Scenarios.all)

type mode = Random | Dfs

let mode_conv = Arg.enum [ ("random", Random); ("dfs", Dfs) ]

let explore scenario mode budget seed slack width max_depth faults
    random_faults recovery_faults out =
  let faults =
    match Check.Fault.parse faults with
    | Ok plan -> plan
    | Error msg ->
        prerr_endline msg;
        exit 64
  in
  let fault_gen =
    if recovery_faults then Some Check.Fault.random_recovery else None
  in
  let report =
    match mode with
    | Random ->
        Check.Explore.random_walk ~slack ~width ~faults ~random_faults
          ?fault_gen ~max_depth scenario ~seed ~budget ()
    | Dfs ->
        Check.Explore.dfs ~slack ~width ~faults ~max_depth scenario ~seed
          ~budget ()
  in
  Fmt.pr "%a@." Check.Explore.pp_report report;
  match report.Check.Explore.violation with
  | None -> 0
  | Some trace ->
      (match out with
      | Some file ->
          Check.Trace.save file trace;
          Fmt.pr "counterexample written to %s@." file
      | None -> ());
      2

let replay file =
  match (try Check.Trace.load file with Sys_error msg -> Error msg) with
  | Error msg ->
      prerr_endline msg;
      64
  | Ok trace -> (
      match Check.Scenarios.find trace.Check.Trace.protocol with
      | None ->
          Fmt.epr "unknown protocol %S in trace@." trace.Check.Trace.protocol;
          64
      | Some scenario -> (
          let out = Check.Explore.replay scenario trace in
          match out.Check.Scenario.violation with
          | Some v ->
              Fmt.pr "violation reproduced: %s: %s@." v.Check.Scenario.monitor
                v.Check.Scenario.detail;
              2
          | None ->
              Fmt.pr "no violation on replay (%d events, depth %d)@."
                out.Check.Scenario.events out.Check.Scenario.depth;
              0))

(* ------------------------ conformance checking ------------------------ *)

let conform file max_delivers =
  match Conform.Trace_file.load file with
  | Error msg ->
      Fmt.epr "cannot load trace %s: %s@." file msg;
      64
  | Ok (meta, events) ->
      let replay, monitors =
        Conform.Record.check_trace ~max_delivers ~meta events
      in
      Fmt.pr "%a@." Conform.Replay.pp_report replay;
      Fmt.pr "%a@." Conform.Monitors.pp_report monitors;
      if Conform.Replay.ok replay && Conform.Monitors.ok monitors then 0 else 2

let conform_record seed clients count rows fixture out =
  let run = Conform.Record.sim_bank ~seed ~clients ~count ~rows () in
  let recorder = run.Conform.Record.recorder in
  let events = Conform.Recorder.events recorder in
  let meta = Conform.Recorder.meta recorder in
  let events =
    match fixture with
    | None -> Ok events
    | Some name -> Conform.Mutate.apply name events
  in
  match events with
  | Error msg ->
      Fmt.epr "fixture failed: %s@." msg;
      64
  | Ok events -> (
      match Conform.Trace_file.save ~path:out ~meta events with
      | () ->
          Fmt.pr "recorded %d events (%d commits) to %s%s@."
            (List.length events) run.Conform.Record.commits out
            (match fixture with
            | None -> ""
            | Some f -> Printf.sprintf " [divergent fixture: %s]" f);
          0)

let conform_selftest seed =
  let run = Conform.Record.sim_bank ~seed ~clients:2 ~count:20 ~rows:64 () in
  let recorder = run.Conform.Record.recorder in
  let events = Conform.Recorder.events recorder in
  let meta = Conform.Recorder.meta recorder in
  let failures = ref 0 in
  let expect what cond =
    if cond then Fmt.pr "ok: %s@." what
    else begin
      Fmt.pr "FAIL: %s@." what;
      incr failures
    end
  in
  expect "recorded run completed"
    (run.Conform.Record.completed = run.Conform.Record.clients
    && run.Conform.Record.commits > 0);
  expect "clean trace is conformant" (Conform.Record.conformant ~meta events);
  (match Conform.Trace_file.decode (Conform.Trace_file.encode ~meta events) with
  | Ok (m2, ev2) -> expect "trace codec round-trips" (m2 = meta && ev2 = events)
  | Error e -> expect (Printf.sprintf "trace codec round-trips (%s)" e) false);
  List.iter
    (fun name ->
      match Conform.Mutate.apply name events with
      | Error msg ->
          expect (Printf.sprintf "fixture %s applies (%s)" name msg) false
      | Ok mutated ->
          expect
            (Printf.sprintf "divergent fixture %s is rejected" name)
            (not (Conform.Record.conformant ~meta mutated)))
    Conform.Mutate.fixtures;
  if !failures = 0 then 0 else 1

let explore_term =
  let protocol =
    Arg.(
      required
      & opt (some protocol_conv) None
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:"Scenario to check: paxos, tob, pbr, smr, or buggy.")
  in
  let mode =
    Arg.(
      value & opt mode_conv Random
      & info [ "mode" ] ~doc:"Exploration strategy: random or dfs.")
  in
  let budget =
    Arg.(
      value & opt int 2000
      & info [ "budget" ] ~doc:"Maximum number of schedules to run.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ]
          ~doc:"Exploration seed; runs are deterministic per seed.")
  in
  let slack =
    Arg.(
      value
      & opt float Check.Sched.default_slack
      & info [ "slack" ]
          ~doc:
            "Events within this window (seconds) of the earliest pending \
             one are considered concurrent.")
  in
  let width =
    Arg.(
      value
      & opt int Check.Sched.default_width
      & info [ "width" ] ~doc:"Maximum candidates offered per choice point.")
  in
  let max_depth =
    Arg.(
      value & opt int 12
      & info [ "max-depth" ]
          ~doc:
            "DFS: deepest choice point to branch at. Random with \
             $(b,--random-faults): latest fault injection depth.")
  in
  let faults =
    Arg.(
      value & opt string ""
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Fault plan, e.g. 'crash:0@3,part:0:1@2,heal:0:1@6' \
             (node indices are scenario-relative; depths count scheduling \
             decisions).")
  in
  let random_faults =
    Arg.(
      value & flag
      & info [ "random-faults" ]
          ~doc:
            "Random mode: draw a fresh crash-stop fault plan per schedule \
             (crashes and transient partitions, never amnesia restarts).")
  in
  let recovery_faults =
    Arg.(
      value & flag
      & info [ "recovery-faults" ]
          ~doc:
            "Random mode: draw a fresh crash-and-recover plan per schedule \
             (one node crashed, then restarted strictly later) — for \
             durable scenarios whose nodes recover from a write-ahead \
             log.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the (shrunk) counterexample trace to this file.")
  in
  Term.(
    const explore $ protocol $ mode $ budget $ seed $ slack $ width
    $ max_depth $ faults $ random_faults $ recovery_faults $ out)

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Explore alternative schedules and check invariant monitors.")
    explore_term

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Trace file saved by explore --out.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Re-execute a saved counterexample trace exactly.")
    Term.(const replay $ file)

let conform_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"Event trace recorded by a runtime or conform-record.")
  in
  let max_delivers =
    Arg.(
      value
      & opt int Conform.Replay.default_max_delivers
      & info [ "max-delivers" ]
          ~doc:
            "Per-incarnation cap on deliveries replayed through the LoE \
             spec machine (its denotational evaluation is quadratic).")
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Replay a recorded event trace through the LoE delivery spec and \
          the invariant monitors; exit 2 on divergence.")
    Term.(const conform $ file $ max_delivers)

let conform_record_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")
  in
  let clients =
    Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Closed-loop clients.")
  in
  let count =
    Arg.(
      value & opt int 40
      & info [ "count" ] ~doc:"Transactions per client.")
  in
  let rows =
    Arg.(value & opt int 512 & info [ "rows" ] ~doc:"Bank accounts.")
  in
  let fixture =
    Arg.(
      value
      & opt (some (enum (List.map (fun f -> (f, f)) Conform.Mutate.fixtures)))
          None
      & info [ "fixture" ] ~docv:"NAME"
          ~doc:
            "Apply a deliberately-divergent mutation before saving: \
             skip-batch, reorder, or tamper-hash.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the trace to this file.")
  in
  Cmd.v
    (Cmd.info "conform-record"
       ~doc:
         "Record a seeded bank workload on the simulator and save its event \
          trace (optionally mutated into a divergent fixture).")
    Term.(
      const conform_record $ seed $ clients $ count $ rows $ fixture $ out)

let conform_selftest_cmd =
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Simulation seed.")
  in
  Cmd.v
    (Cmd.info "conform-selftest"
       ~doc:
         "Record a reference trace in-process, check it passes, and check \
          every divergent fixture is rejected.")
    Term.(const conform_selftest $ seed)

let () =
  let info =
    Cmd.info "shadowdb_check"
      ~doc:"Model checking and runtime monitoring for ShadowDB protocols."
  in
  (* [explore] is also the default command, so
     [shadowdb_check --protocol paxos --budget 2000] works bare. *)
  exit
    (Cmd.eval'
       (Cmd.group ~default:explore_term info
          [
            explore_cmd;
            replay_cmd;
            conform_cmd;
            conform_record_cmd;
            conform_selftest_cmd;
          ]))
