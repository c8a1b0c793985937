(* The ShadowDB benchmark.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1   one run
     perf.exe [--trials N] [--seed N] [--seconds S] [--out FILE] suite
     perf.exe --smoke                                             smoke

   A run executes S seconds' worth of one workload at its reference rate
   (about S seconds on the 2-core development host), split over
   [segments] deployments. Each segment is a fresh child process: it
   deploys the workload's event-loop cluster (timing the set-up), warms it
   up, runs closed-loop client waves, waits for the replicas to settle and
   checks the final state. Fresh processes keep segments from inheriting
   each other's heap — the broadcast log grows with every transaction —
   and bound the memory a run holds. Every metric is the median over the
   segments; the run prints each by name with its unit and ends with one
   JSON line {correct, attempted, failed, metrics}.

   With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
   timed waves alternate between probes off and on; the metrics are the
   per-layer ones, counters taken from the probe-off waves and timings
   from the probe-on waves, plus the throughput lost to probing.

   The suite runs every workload N times untraced and once traced, each
   run in its own process, round-robin across workloads, and writes
   medians, quartiles and every raw value to FILE, stamped with commit,
   core count, OCaml version, seed and trials. The smoke run is one tiny
   traced segment per workload with every check on. *)

module Sdb = Probe.Sdb
module Loop = Runtime.Loop
module W = Workloads

let mono () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let segments = 10

(* ---- counters ------------------------------------------------------- *)

let proc_status_kb field =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line (field ^^ ": %d kB") Fun.id)
        (String.split_on_char '\n' status)
      |> Option.value ~default:0
  | exception Sys_error _ -> 0

(* Counters that cost nothing to read, snapshotted around every wave. *)
let counter_names =
  [|
    "msgs"; "bytes"; "writes"; "backpressure"; "parked"; "minor"; "promoted";
    "majors"; "cpu"; "syncs"; "wal_bytes"; "x_committed"; "x_aborted"; "events";
  |]

let snapshot (d : W.deployed) =
  let s = Loop.stats d.W.loop in
  let g = Gc.quick_stat () in
  let t = Unix.times () in
  let wals = d.W.wals () in
  let sum f = float_of_int (List.fold_left (fun a w -> a + f w) 0 wals) in
  let xc, xa = d.W.decided () in
  let events =
    match d.W.recorder with
    | Some (r, _) -> Conform.Recorder.recorded r
    | None -> 0
  in
  [|
    float_of_int s.Loop.s_sent_msgs;
    float_of_int s.Loop.s_sent_bytes;
    float_of_int s.Loop.s_flush_writes;
    float_of_int s.Loop.s_backpressure;
    float_of_int s.Loop.s_parked;
    g.Gc.minor_words;
    g.Gc.promoted_words;
    float_of_int g.Gc.major_collections;
    t.Unix.tms_utime +. t.Unix.tms_stime;
    sum (fun w -> w.Probe.syncs);
    sum (fun w -> w.Probe.append_bytes);
    float_of_int xc;
    float_of_int xa;
    float_of_int events;
  |]

(* The timed waves of one segment with probes off, or with them on. *)
type side = {
  mutable secs : float;
  mutable commits : int;
  mutable attempted : int;
  lat_ms : Stats.Sample.t;
  delta : float array;  (* summed counter deltas *)
}

let side () =
  {
    secs = 0.0;
    commits = 0;
    attempted = 0;
    lat_ms = Stats.Sample.create ();
    delta = Array.make (Array.length counter_names) 0.0;
  }

let counter s name =
  let rec idx i = if counter_names.(i) = name then i else idx (i + 1) in
  s.delta.(idx 0)

(* ---- one segment ---------------------------------------------------- *)

type run_args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let data_root = "perfbench-data"

(* The reactor thread wakes the main thread through this pipe when what
   it waits for has happened. Waiting costs the reactor nothing: no
   polling thread competes with it for the OCaml runtime lock while a
   wave runs. [cond] is also re-checked every 50 ms. *)
let wake_r, wake_w = Unix.pipe ~cloexec:true ()
let wake () = ignore (Unix.write_substring wake_w "!" 0 1)

let wait_until ~timeout cond =
  let deadline = mono () +. timeout in
  let buf = Bytes.create 64 in
  let rec go () =
    cond ()
    || mono () <= deadline
       && begin
            (match Unix.select [ wake_r ] [] [] 0.05 with
            | [], _, _ -> ()
            | _ -> ignore (Unix.read wake_r buf 0 64)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            go ()
          end
  in
  go ()

(* Closed-loop waves: each spawns the workload's clients with a fixed
   per-client count and ends when all of them have been answered, so a
   wave never straddles a change of probes. Finished clients are crashed
   so idle nodes do not pile up in the reactor's select set. *)
type wave = {
  ids : int list;
  count : int;
  committed : int;
  mandated : int;  (* aborts the workload's rules require *)
  timed : bool;
}

let run_waves (a : run_args) ~seed (d : W.deployed) =
  let w = a.workload in
  let waves = ref [] in
  let run_wave ~count ~into ~traced =
    let commits = Atomic.make 0 and expected = Atomic.make max_int in
    let before = snapshot d in
    Probe.on := traced;
    let t0 = mono () in
    let ids, completed =
      Sdb.spawn_clients ~world:(Loop.runtime d.W.loop) ~target:d.W.target
        ~n:W.clients ~count
        ~make_txn:(fun ~client ~seq -> w.W.make_txn ~seed ~client ~seq)
        ~on_commit:(fun _ l ->
          Option.iter (fun s -> Stats.Sample.add s.lat_ms (l *. 1e3)) into;
          if 1 + Atomic.fetch_and_add commits 1 = Atomic.get expected then wake ())
        ()
    in
    (* The wave ends with its last commit; [completed] covers a wave in
       which some transaction failed. *)
    let mandated =
      match w.W.expected_abort with
      | None -> 0
      | Some aborts ->
          List.fold_left
            (fun acc client ->
              acc
              + List.length
                  (List.filter aborts
                     (List.init count (fun seq -> w.W.make_txn ~seed ~client ~seq))))
            0 ids
    in
    Atomic.set expected ((count * W.clients) - mandated);
    let finished =
      wait_until ~timeout:120.0 (fun () ->
          Atomic.get commits >= Atomic.get expected || completed () >= W.clients)
    in
    let secs = mono () -. t0 in
    Probe.on := false;
    let after = snapshot d in
    if not finished then failwith (w.W.name ^ ": a wave did not finish in 120 s");
    List.iter (Loop.crash d.W.loop) ids;
    let committed = Atomic.get commits in
    waves := { ids; count; committed; mandated; timed = into <> None } :: !waves;
    Option.iter
      (fun s ->
        s.secs <- s.secs +. secs;
        s.commits <- s.commits + committed;
        s.attempted <- s.attempted + (count * W.clients);
        Array.iteri (fun i v -> s.delta.(i) <- s.delta.(i) +. v -. before.(i)) after)
      into
  in
  (* Work, not time, fixes what a segment measures: [seconds] times the
     workload's reference rate, in four equal timed waves after a warm-up
     of a tenth of that. Every run of a seed then executes the same
     transactions — TPC-C slows as its tables grow, so a time-fixed
     window would measure a different stretch of that growth on every
     run. Traced runs order the waves off, on, on, off, giving both sides
     the same mean position in the segment. *)
  let per_wave share =
    if a.smoke then 10
    else
      max 1
        (int_of_float (w.W.rate *. a.seconds *. share /. float_of_int W.clients))
  in
  let off = side () and on = side () in
  run_wave ~count:(per_wave 0.1) ~into:None ~traced:false;
  List.iter
    (fun traced ->
      run_wave ~count:(per_wave 0.25) ~into:(Some (if traced then on else off)) ~traced)
    (if a.trace then [ false; true; true; false ] else [ false; false; false; false ]);
  (off, on, List.rev !waves)

let ratio x y = if y > 0.0 then x /. y else 0.0
let pct s p = if Stats.Sample.is_empty s then 0.0 else Stats.Sample.percentile s p

let rate side = ratio (float_of_int side.commits) side.secs

(* Per-layer metrics of one segment. A layer the workload does not reach
   reports 0. *)
let layer_metrics (d : W.deployed) off on ~replay_events_s =
  let fi = float_of_int in
  let cm = fi off.commits and cb = fi on.commits in
  let c = counter off in
  let pc = Probe.codec and st = Probe.storage and du = Probe.durable in
  let kind_mean kind =
    match Hashtbl.find_opt st.Probe.by_kind kind with
    | Some (calls, ns) -> ratio (fi !ns /. 1e3) (fi !calls)
    | None -> 0.0
  in
  let exec_ns = Hashtbl.fold (fun _ (_, ns) acc -> acc + !ns) st.Probe.by_kind 0 in
  let dropped =
    match d.W.recorder with
    | Some (r, _) -> fi (Conform.Recorder.dropped r)
    | None -> 0.0
  in
  let decided = c "x_committed" +. c "x_aborted" in
  [
    ("runtime.cpu_util", "fraction", ratio (c "cpu") off.secs);
    ("runtime.cpu_us_per_txn", "us", ratio (c "cpu" *. 1e6) cm);
    ("runtime.msgs_per_txn", "count", ratio (c "msgs") cm);
    ("runtime.bytes_per_txn", "B", ratio (c "bytes") cm);
    ("runtime.frames_per_write", "count", ratio (c "msgs") (c "writes"));
    ("runtime.backpressure", "count", c "backpressure");
    ("runtime.parked", "count", c "parked");
    ("gc.minor_words_per_txn", "words", ratio (c "minor") cm);
    ("gc.promoted_words_per_txn", "words", ratio (c "promoted") cm);
    ("gc.majors_per_ktxn", "count", ratio (c "majors" *. 1e3) cm);
    ( "codec.calls_per_txn",
      "count",
      ratio (fi (pc.Probe.enc_calls + pc.Probe.dec_calls)) cb );
    ("codec.enc_ns", "ns", ratio (fi pc.Probe.enc_ns) (fi pc.Probe.enc_calls));
    ("codec.dec_ns", "ns", ratio (fi pc.Probe.dec_ns) (fi pc.Probe.dec_calls));
    ( "codec.busy_frac",
      "fraction",
      ratio (fi (pc.Probe.enc_ns + pc.Probe.dec_ns) /. 1e9) on.secs );
    ("wire.svc_msgs_per_txn", "count", ratio (fi pc.Probe.svc_msgs) cb);
    ("wire.svc_bytes_per_txn", "B", ratio (fi pc.Probe.svc_bytes) cb);
    ("wire.note_msgs_per_txn", "count", ratio (fi pc.Probe.note_msgs) cb);
    ("wire.db_msgs_per_txn", "count", ratio (fi pc.Probe.db_msgs) cb);
    ( "storage.exec_per_txn",
      "count",
      ratio (fi (Stats.Sample.count st.Probe.exec_us)) cb );
    ("storage.exec_us_p50", "us", pct st.Probe.exec_us 50.0);
    ("storage.exec_us_p99", "us", pct st.Probe.exec_us 99.0);
    ("storage.busy_frac", "fraction", ratio (fi exec_ns /. 1e9) on.secs);
  ]
  @ List.map
      (fun k -> ("storage.exec_us_mean." ^ k, "us", kind_mean k))
      Probe.tpcc_kinds
  @ [
      ("durable.syncs_per_txn", "count", ratio (c "syncs") cm);
      ("durable.append_bytes_per_txn", "B", ratio (c "wal_bytes") cm);
      ("durable.sync_ms_p50", "ms", pct du.Probe.sync_ms 50.0);
      ("durable.sync_ms_p99", "ms", pct du.Probe.sync_ms 99.0);
      ("durable.busy_frac", "fraction", ratio (fi du.Probe.io_ns /. 1e9) on.secs);
      ("x2pc.decided_per_s", "1/s", ratio decided off.secs);
      ("x2pc.abort_frac", "fraction", ratio (c "x_aborted") decided);
      ("conform.events_per_txn", "count", ratio (c "events") cm);
      ("conform.dropped", "count", dropped);
      ("conform.replay_events_s", "1/s", replay_events_s);
      ("client.lat_p99_ms", "ms", pct off.lat_ms 99.0);
      ("client.lat_p999_ms", "ms", pct off.lat_ms 99.9);
      ("trace.overhead_frac", "fraction", 1.0 -. ratio (rate on) (rate off));
    ]

(* Offline conformance check of the recorded trace, in traced runs: it
   replays every recorded event through the spec semantics. *)
let offline_conform (d : W.deployed) =
  match d.W.recorder with
  | None -> ([], 0.0)
  | Some (r, meta) ->
      let events = Conform.Recorder.events r in
      let t0 = mono () in
      let ok = Conform.Record.conformant ~meta events in
      let secs = mono () -. t0 in
      ( [ ("offline check_trace conformant", if ok then Ok () else Error "no") ],
        float_of_int (List.length events) /. secs )

let metric_json (name, unit, v) =
  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])

(* One deployment, measured and checked; the result is one JSON line for
   the parent run. *)
let segment (a : run_args) ~part =
  let w = a.workload in
  let seed = (a.seed * 100) + part in
  (try Sys.mkdir data_root 0o755 with Sys_error _ -> ());
  let ready = Atomic.make 0 in
  let env =
    {
      W.seed;
      traced = a.trace;
      dir = Filename.concat data_root (string_of_int (Unix.getpid ()));
      on_ready =
        (fun () ->
          Atomic.incr ready;
          wake ());
    }
  in
  let t0 = mono () in
  let d = w.W.deploy env in
  Loop.start d.W.loop;
  if not (wait_until ~timeout:120.0 (fun () -> Atomic.get ready >= d.W.replicas))
  then failwith (w.W.name ^ ": cluster did not finish set-up in 120 s");
  let setup_s = mono () -. t0 in
  let rss_ready = proc_status_kb "VmRSS" in
  let off, on, waves = run_waves a ~seed d in
  let txns =
    List.concat_map
      (fun wv ->
        List.concat_map
          (fun client ->
            List.init wv.count (fun seq -> w.W.make_txn ~seed ~client ~seq))
          wv.ids)
      waves
  in
  let settled = Loop.await ~timeout:120.0 ~poll:0.05 d.W.loop (d.W.settle txns) in
  let rss_peak = proc_status_kb "VmHWM" in
  Loop.stop d.W.loop;
  (* Sent, minus committed, minus the aborts the workload's rules
     mandate: transactions that failed. *)
  let unanswered wvs =
    List.fold_left
      (fun acc wv -> acc + (wv.count * W.clients) - wv.committed - wv.mandated)
      0 wvs
  in
  let conform_checks, replay_events_s =
    if a.trace then offline_conform d else ([], 0.0)
  in
  let errors = Loop.errors d.W.loop in
  let checks =
    [
      ("replicas settled", if settled then Ok () else Error "timed out");
      ( "no commit the workload's rules forbid",
        let n = unanswered waves in
        if n >= 0 then Ok () else Error (Printf.sprintf "%d extra commits" (-n)) );
      ( "runtime reported no errors",
        if errors = [] then Ok () else Error (String.concat "; " errors) );
    ]
    @ d.W.checks txns @ conform_checks
  in
  d.W.close ();
  (try Sys.rmdir data_root with Sys_error _ -> ());
  let metrics =
    if a.trace then layer_metrics d off on ~replay_events_s
    else
      [
        ("txns_s", "txn/s", rate off);
        ("lat_p50_ms", "ms", pct off.lat_ms 50.0);
        ("lat_p95_ms", "ms", pct off.lat_ms 95.0);
        ("setup_s", "s", setup_s);
        ( "mem_kb_per_ktxn",
          "KB",
          ratio
            (float_of_int (rss_peak - rss_ready))
            (float_of_int (List.length txns) /. 1e3) );
      ]
  in
  Json.Obj
    [
      ("attempted", Json.Num (float_of_int (off.attempted + on.attempted)));
      ( "failed",
        Json.Num
          (float_of_int (unanswered (List.filter (fun wv -> wv.timed) waves))) );
      ("checks", Json.Num (float_of_int (List.length checks)));
      ( "failures",
        Json.Arr
          (List.filter_map
             (fun (name, r) ->
               match r with
               | Ok () -> None
               | Error e -> Some (Json.Str (name ^ ": " ^ e)))
             checks) );
      ("metrics", Json.Obj (List.map metric_json metrics));
    ]

(* ---- child processes -------------------------------------------------- *)

(* Run this program with [args] in a fresh process and parse its last
   stdout line; [None] when the child produced none. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED _, last :: _ -> (
      match Json.parse last with Ok j -> Some (j, lines) | Error _ -> None)
  | _ -> None

let num_field key j =
  Option.value ~default:nan (Option.bind (Json.field key j) Json.num)

(* name -> (value, unit) of a {name: {"value", "unit"}} object. *)
let metric_values key j =
  match Json.field key j with
  | Some (Json.Obj ms) ->
      List.filter_map
        (fun (k, v) ->
          match
            ( Option.bind (Json.field "value" v) Json.num,
              Option.bind (Json.field "unit" v) Json.str )
          with
          | Some x, Some u -> Some (k, (x, u))
          | _ -> None)
        ms
  | _ -> []

let common_args (a : run_args) =
  [
    "--workload"; a.workload.W.name; "--seed"; string_of_int a.seed;
    "--trace"; (if a.trace then "1" else "0");
  ]
  @ if a.smoke then [ "--smoke" ] else []

(* ---- one run: segments in child processes, medians over them --------- *)

let run (a : run_args) =
  let parts = if a.smoke then 1 else segments in
  let seg_seconds = Printf.sprintf "%.17g" (a.seconds /. float_of_int parts) in
  let results =
    List.init parts (fun part ->
        child
          (common_args a @ [ "--seconds"; seg_seconds; "--part"; string_of_int part ]))
  in
  if List.mem None results then begin
    prerr_endline "perf: a segment produced no result";
    2
  end
  else begin
    let segs = List.filter_map (Option.map fst) results in
    let failures =
      List.concat
        (List.mapi
           (fun part j ->
             match Json.field "failures" j with
             | Some (Json.Arr fs) ->
                 List.filter_map
                   (fun f ->
                     Option.map (Printf.sprintf "segment %d: %s" part) (Json.str f))
                   fs
             | _ -> [ Printf.sprintf "segment %d: no check results" part ])
           segs)
    in
    let sum key = List.fold_left (fun acc j -> acc +. num_field key j) 0.0 segs in
    let metrics =
      List.map
        (fun (name, (_, unit)) ->
          ( name,
            unit,
            Stat.median
              (List.filter_map
                 (fun j ->
                   Option.map fst (List.assoc_opt name (metric_values "metrics" j)))
                 segs) ))
        (metric_values "metrics" (List.hd segs))
    in
    List.iter (Printf.printf "check FAILED  %s\n") failures;
    let correct = failures = [] in
    Printf.printf "workload %s  seed %d  %s  %d segment(s)  %.0f checks %s\n"
      a.workload.W.name a.seed
      (if a.trace then "per-layer (traced)" else "end-to-end")
      parts (sum "checks")
      (if correct then "passed" else "FAILED");
    List.iter
      (fun (name, unit, v) -> Printf.printf "  %-32s %16.4f %s\n" name v unit)
      metrics;
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.Num (sum "attempted"));
              ("failed", Json.Num (sum "failed"));
              ("metrics", Json.Obj (List.map metric_json metrics));
            ]));
    if correct then 0 else 1
  end

(* ---- smoke and suite --------------------------------------------------- *)

let is_correct j = Json.field "correct" j = Some (Json.Bool true)

let smoke () =
  let failed =
    List.filter
      (fun (w : W.t) ->
        let a = { workload = w; seed = 1; seconds = 1.0; trace = true; smoke = true } in
        match child (common_args a) with
        | Some (j, _) when is_correct j -> false
        | Some (_, lines) ->
            List.iter prerr_endline lines;
            true
        | None ->
            Printf.eprintf "perf smoke: %s produced no result\n" w.W.name;
            true)
      W.all
  in
  if failed = [] then 0 else 1

let commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic ->
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      Option.value ~default:"unknown" line
  | exception Unix.Unix_error _ -> "unknown"

let suite ~trials ~seed ~seconds ~out =
  let runs = Hashtbl.create 16 in
  let ok = ref true in
  let go (w : W.t) ~trace ~seed =
    let a = { workload = w; seed; seconds; trace; smoke = false } in
    match child (common_args a @ [ "--seconds"; Printf.sprintf "%.17g" seconds ]) with
    | Some (j, _) ->
        if not (is_correct j) then ok := false;
        Printf.printf "%-13s seed %-4d %s  %s\n%!" w.W.name seed
          (if trace then "traced  " else "untraced")
          (String.concat "  "
             (List.filter_map
                (fun (k, (v, u)) ->
                  if trace && k <> "trace.overhead_frac" then None
                  else Some (Printf.sprintf "%s=%.4g %s" k v u))
                (metric_values "metrics" j)));
        Hashtbl.add runs (w.W.name, trace) j
    | None ->
        ok := false;
        Printf.printf "%-13s seed %-4d: no result\n%!" w.W.name seed
  in
  (* Round-robin: trial t of every workload before trial t+1 of any. *)
  for t = 0 to trials - 1 do
    List.iter (fun w -> go w ~trace:false ~seed:(seed + t)) W.all
  done;
  List.iter (fun w -> go w ~trace:true ~seed) W.all;
  let num x = Json.Num x in
  let values j = metric_values "metrics" j in
  (* Per workload: each end-to-end metric's unit and every run's value. *)
  let untraced (w : W.t) = List.rev (Hashtbl.find_all runs (w.W.name, false)) in
  let e2e (w : W.t) =
    match untraced w with
    | [] -> []
    | first :: _ as js ->
        List.map
          (fun (name, (_, unit)) ->
            ( name,
              unit,
              List.filter_map
                (fun j -> Option.map fst (List.assoc_opt name (values j)))
                js ))
          (values first)
  in
  let workload (w : W.t) =
    let untraced = untraced w in
    let e2e =
      List.map
        (fun (name, unit, xs) ->
          let q1, q3 = Stat.quartiles xs in
          ( name,
            Json.Obj
              [
                ("unit", Json.Str unit);
                ("median", num (Stat.median xs));
                ("min", num (List.fold_left Float.min infinity xs));
                ("q1", num q1);
                ("q3", num q3);
                ("max", num (List.fold_left Float.max neg_infinity xs));
                ("runs", Json.Arr (List.map num xs));
              ] ))
        (e2e w)
    in
    let layers =
      match Hashtbl.find_opt runs (w.W.name, true) with
      | Some j ->
          List.map (fun (k, (v, u)) -> metric_json (k, u, v)) (values j)
      | None -> []
    in
    let each key = Json.Arr (List.filter_map (Json.field key) untraced) in
    ( w.W.name,
      Json.Obj
        [
          ("correct", Json.Bool (List.for_all is_correct untraced));
          ("attempted", each "attempted");
          ("failed", each "failed");
          ("e2e", Json.Obj e2e);
          ("layers", Json.Obj layers);
        ] )
  in
  let per_workload = List.map workload W.all in
  let result =
    Json.Obj
      [
        ("suite", Json.Str "shadowdb-perfbench");
        ("commit", Json.Str (commit ()));
        ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("seed", num (float_of_int seed));
        ("trials", num (float_of_int trials));
        ("seconds", num seconds);
        ("workloads", Json.Obj per_workload);
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Json.to_string result);
      output_char oc '\n');
  Printf.printf "\n%-13s %-16s %14s %14s %14s\n" "workload" "metric" "median" "q1" "q3";
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (name, unit, xs) ->
          let q1, q3 = Stat.quartiles xs in
          Printf.printf "%-13s %-16s %14.4f %14.4f %14.4f %s\n" w.W.name name
            (Stat.median xs) q1 q3 unit)
        (e2e w))
    W.all;
  Printf.printf "wrote %s\n" out;
  if !ok then 0 else 1

(* ---- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let smoke_flag = ref false and trials = ref 5 and out = ref "perfbench-result.json" in
  let part = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one run of this workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S work per run: S times the workload's reference rate (default 15)" );
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
      ("--trials", Arg.Set_int trials, "N untraced runs per workload in the suite (default 5)");
      ("--out", Arg.Set_string out, "FILE suite result (default perfbench-result.json)");
      ("--smoke", Arg.Set smoke_flag, " one tiny traced segment per workload");
      ("--part", Arg.Set_int part, "K run segment K of a run (internal)");
    ]
    (fun x -> raise (Arg.Bad ("unexpected argument " ^ x)))
    "perf.exe [--workload NAME --seed N --seconds S --trace 0|1] [--trials N] \
     [--out FILE] [--smoke]";
  let code =
    if !workload = "" then
      if !smoke_flag then smoke ()
      else suite ~trials:!trials ~seed:!seed ~seconds:!seconds ~out:!out
    else
      match W.find !workload with
      | None ->
          Printf.eprintf "perf: unknown workload %s (known: %s)\n" !workload
            (String.concat ", " (List.map (fun w -> w.W.name) W.all));
          2
      | Some w ->
          let a =
            {
              workload = w;
              seed = !seed;
              seconds = !seconds;
              trace = !trace = 1;
              smoke = !smoke_flag;
            }
          in
          if !part >= 0 then begin
            print_endline (Json.to_string (segment a ~part:!part));
            0
          end
          else run a
  in
  exit code
