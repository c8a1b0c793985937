module Engine = Sim.Engine
module Store = Storage.Store
module Database = Storage.Database
module Value = Storage.Value
module S = Shadowdb.System

(* ---------------- (a) recovery timeline ---------------- *)

type timeline = {
  bins : (float * float) list;
  crash_at : float;
  detected_at : float;
  config_delivered_at : float;
  resumed_at : float;
}

let run_timeline ?(rows = 50_000) ?(crash_at = 15.0) ?(detect_timeout = 10.0)
    ?(duration = 60.0) ?(n_clients = 10) () =
  let world : S.wire Engine.t = Engine.create ~seed:23 () in
  let rworld = Runtime.Of_sim.of_engine world in
  let tun =
    {
      Shadowdb.System.default_tuning with
      detect_timeout;
      hb_interval = detect_timeout /. 5.0;
      (* Force the full-snapshot state-transfer path, as in the paper's
         experiment (the spare receives the whole 50,000-row database). *)
      cache_cap = 100;
    }
  in
  (* The paper's diversity deployment: H2 on the primary, HSQLDB on the
     backup, Derby on the spare. *)
  let cluster =
    S.spawn_pbr ~tun
      ~backends:[ Store.Hazel; Store.Hickory; Store.Dogwood ]
      ~world:rworld ~registry:Workload.Bank.registry
      ~setup:(fun db -> Workload.Bank.setup ~rows db)
      ~n_active:2 ~n_spare:1 ()
  in
  let series = Stats.Series.create ~bin:1.0 in
  let resumed_at = ref 0.0 in
  let _, _ =
    S.spawn_clients ~world:rworld ~target:(S.To_pbr cluster) ~n:n_clients
      ~count:max_int
      ~make_txn:(fun ~client ~seq ->
        let account = abs (Hashtbl.hash (client, seq)) mod rows in
        Workload.Bank.deposit ~account ~amount:1)
      ~retry_timeout:3.0
      ~on_commit:(fun now _lat ->
        Stats.Series.record series now;
        if now > crash_at && !resumed_at = 0.0 then resumed_at := now)
      ()
  in
  Engine.at world crash_at (fun () ->
      Engine.crash world cluster.S.pbr_initial_primary);
  (* Poll for the configuration change (the survivor's primary moves). *)
  let config_delivered_at = ref 0.0 in
  let survivor = List.nth cluster.S.pbr_replicas 1 in
  let rec poll t =
    if t < duration then
      Engine.at world t (fun () ->
          if
            !config_delivered_at = 0.0
            && cluster.S.pbr_primary_of survivor
               <> cluster.S.pbr_initial_primary
          then config_delivered_at := Engine.now world;
          poll (t +. 0.05))
  in
  poll (crash_at +. 0.1);
  Engine.run ~until:duration ~max_events:500_000_000 world;
  {
    bins = Stats.Series.bins series;
    crash_at;
    detected_at = crash_at +. detect_timeout;
    config_delivered_at = !config_delivered_at;
    resumed_at = !resumed_at;
  }

let print_timeline t =
  Stats.Table.print_series
    ~title:"Fig. 10(a) — ShadowDB-PBR execution with a primary crash"
    ~xlabel:"time (s)" ~ylabel:"committed txns/s" t.bins;
  Printf.printf
    "# crash at %.1f s; detection (configured) at %.1f s; new configuration \
     adopted at %.2f s; clients resumed at %.2f s (state transfer ≈ %.2f s)\n"
    t.crash_at t.detected_at t.config_delivered_at t.resumed_at
    (t.resumed_at -. t.config_delivered_at)

(* ---------------- (b) state transfer cost ---------------- *)

type transfer = { rows : int; row_bytes : int; columns : int; seconds : float }

let chunk_target_bytes = 50_000 (* the paper's ≈50 kB batches *)

(* Ship a snapshot of [src] into [dst] over the simulator, one chunk per
   activation (pipelining with the receiver), and return the virtual time
   at which the receiver finished installing the last chunk. *)
let measure_transfer src_db dst_db =
  let world : Shadowdb.Db_msg.t Engine.t = Engine.create ~seed:29 () in
  let finished = ref 0.0 in
  let receiver =
    Engine.spawn world ~name:"xfer-dst" (fun () ctx -> function
      | Engine.Recv { msg = Shadowdb.Db_msg.Snapshot { rows; last; _ }; _ } ->
          (match Database.load_rows dst_db rows with Ok () | Error _ -> ());
          Engine.charge ctx (Database.take_cost dst_db);
          if last then finished := Engine.time ctx
      | Engine.Recv _ | Engine.Init | Engine.Timer _ -> ())
  in
  let all_rows = Database.dump src_db in
  ignore (Database.take_cost src_db);
  let _sender =
    Engine.spawn world ~name:"xfer-src" (fun () ->
        let remaining = ref all_rows in
        (* The paper reports a fixed session-establishment overhead of a
           few hundred ms before rows flow. *)
        let setup_done = ref false in
        fun ctx -> function
          | Engine.Init ->
              Engine.charge ctx 0.35;
              setup_done := true;
              ignore (Engine.set_timer ctx 0.0 "chunk")
          | Engine.Timer _ ->
              if !setup_done && !remaining <> [] then begin
                let rec take bytes acc rest =
                  match rest with
                  | [] -> (List.rev acc, [])
                  | ((_, row) as item) :: tl ->
                      let b =
                        Array.fold_left
                          (fun a v -> a + Value.serialized_size v)
                          8 row
                      in
                      if bytes + b > chunk_target_bytes && acc <> [] then
                        (List.rev acc, rest)
                      else take (bytes + b) (item :: acc) tl
                in
                let chunk, rest = take 0 [] !remaining in
                remaining := rest;
                List.iter
                  (fun (_, row) ->
                    let bytes =
                      Array.fold_left
                        (fun a v -> a + Value.serialized_size v)
                        0 row
                    in
                    Engine.charge ctx
                      (Storage.Cost.serialize_row
                         ~columns:(Array.length row) ~bytes))
                  chunk;
                let msg =
                  Shadowdb.Db_msg.Snapshot
                    {
                      cfg = 0;
                      rows = chunk;
                      upto = 0;
                      last = rest = [];
                      clients = [];
                    }
                in
                Engine.send ctx ~size:(Shadowdb.Db_msg.size msg) receiver msg;
                if rest <> [] then ignore (Engine.set_timer ctx 0.0 "chunk")
              end
          | Engine.Recv _ -> ())
  in
  Engine.run ~until:100_000.0 ~max_events:500_000_000 world;
  !finished

let row_stats db table =
  match Database.scan db table ~pred:(fun _ -> true) with
  | Ok (row :: _) ->
      ( Array.length row,
        Array.fold_left (fun a v -> a + Value.serialized_size v) 0 row )
  | Ok [] | Error _ -> (0, 0)

let run_transfer ~rows ~wide =
  let src = Database.create Store.Hazel in
  Workload.Bank.setup ~rows ~wide src;
  let dst = Database.create Store.Hazel in
  (match Database.create_table dst (Workload.Bank.schema ~wide ()) with
  | Ok () -> ()
  | Error e -> invalid_arg e);
  let columns, row_bytes = row_stats src Workload.Bank.table in
  let seconds = measure_transfer src dst in
  { rows; row_bytes; columns; seconds }

let run_transfer_tpcc ?(scale = Workload.Tpcc.small_scale) () =
  let src = Database.create Store.Hazel in
  Workload.Tpcc.setup ~scale src;
  let dst = Database.create Store.Hazel in
  Workload.Tpcc.setup ~scale:{ scale with Workload.Tpcc.districts = 0; items = 0 } dst;
  Database.clear_data dst;
  let total_rows =
    List.fold_left (fun a (_, n) -> a + n) 0 (Workload.Tpcc.row_counts src)
  in
  let seconds = measure_transfer src dst in
  { rows = total_rows; row_bytes = 0; columns = 0; seconds }

let run_transfers ?(quick = true) () =
  let sizes =
    if quick then [ 500; 5_000; 50_000 ] else [ 500; 5_000; 50_000; 500_000 ]
  in
  List.concat_map
    (fun wide -> List.map (fun rows -> run_transfer ~rows ~wide) sizes)
    [ false; true ]
  @ [
      run_transfer_tpcc
        ~scale:
          (if quick then Workload.Tpcc.small_scale
           else
             {
               Workload.Tpcc.districts = 10;
               customers_per_district = 1000;
               items = 30_000;
               initial_orders_per_district = 1000;
             })
        ();
    ]

let print_transfers transfers =
  Stats.Table.print_table
    ~title:"Fig. 10(b) — state transfer time vs database size"
    ~header:[ "rows"; "row bytes"; "columns"; "transfer (s)" ]
    (List.map
       (fun t ->
         [
           string_of_int t.rows;
           (if t.row_bytes = 0 then "tpcc" else string_of_int t.row_bytes);
           (if t.columns = 0 then "-" else string_of_int t.columns);
           Stats.Table.fmt_f t.seconds;
         ])
       transfers)
