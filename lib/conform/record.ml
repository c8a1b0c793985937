(* Recorded reference runs.

   One place that knows how to run the seeded bank workload on the
   deterministic simulator with a recorder attached — shared by the
   `shadowdb_check conform-record` CLI, the qcheck soundness/sensitivity
   properties, and the bench's conformance metrics. The recorded trace
   carries enough meta (workload, rows) for {!Replay.spec_exec_of_meta}
   to rebuild the shadow execution environment. *)

module Engine = Sim.Engine
module S = Shadowdb.System

type run = {
  recorder : Recorder.t;
  commits : int;
  completed : int;  (* clients that finished *)
  clients : int;
}

let sim_bank ?(seed = 1) ?(clients = 3) ?(count = 40) ?(rows = 512) ?cap () =
  let meta =
    [
      ("workload", "bank");
      ("rows", string_of_int rows);
      ("runtime", "sim");
      ("seed", string_of_int seed);
      ("clients", string_of_int clients);
      ("count", string_of_int count);
    ]
  in
  let recorder = Recorder.create ?cap ~meta () in
  let world : S.wire Engine.t = Engine.create ~seed () in
  let tap = Recorder.tap recorder ~enc:S.wire_codec.Runtime.enc in
  let rworld = Runtime.Of_sim.of_engine ~tap world in
  let cluster =
    S.spawn_smr ~world:rworld ~registry:Workload.Bank.registry
      ~setup:(fun db -> Workload.Bank.setup ~rows db)
      ~n_active:2 ()
  in
  let commits = ref 0 in
  let _, completed =
    S.spawn_clients ~world:rworld ~target:(S.To_smr cluster) ~n:clients ~count
      ~make_txn:(fun ~client ~seq ->
        if seq mod 4 = 3 then
          Workload.Bank.balance
            ~account:(abs (Hashtbl.hash (client, seq)) mod rows)
        else
          Workload.Bank.deposit
            ~account:(abs (Hashtbl.hash (client, seq)) mod rows)
            ~amount:(1 + (seq mod 9)))
      ~retry_timeout:2.0
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  Engine.run ~until:3600.0 ~max_events:100_000_000 world;
  { recorder; commits = !commits; completed = completed (); clients }

(* Check a trace end to end: LoE replay plus the invariant monitors.
   [max_delivers] caps the spec leg per node ({!Replay.check}). *)
let check_trace ?max_delivers ~meta events =
  let spec_exec = Replay.spec_exec_of_meta meta in
  let replay = Replay.check ?spec_exec ?max_delivers events in
  let monitors = Monitors.check ~meta events in
  (replay, monitors)

let conformant ~meta events =
  let replay, monitors = check_trace ~meta events in
  Replay.ok replay && Monitors.ok monitors
