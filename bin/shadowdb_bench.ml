(* Command-line driver regenerating each table/figure of the paper's
   evaluation, the design-choice ablations and the sharding curve, all in
   virtual time. `shadowdb_bench all` runs everything in quick mode;
   `--full` uses paper-scale parameters (slower). The quick `all` output
   is deterministic and gated against test/paper/paper.expected by
   `dune build @paper`. *)

open Cmdliner

let full =
  let doc = "Run at paper-scale parameters (slower) instead of quick mode." in
  Arg.(value & flag & info [ "full" ] ~doc)

let run_table1 () = Harness.Table1.print (Harness.Table1.rows ())

let run_fig8 full = Harness.Fig8.print (Harness.Fig8.run ~quick:(not full) ())

let run_fig9a full =
  Harness.Fig9.print Harness.Fig9.Micro
    (Harness.Fig9.run ~quick:(not full) Harness.Fig9.Micro)

let run_fig9b full =
  Harness.Fig9.print Harness.Fig9.Tpcc
    (Harness.Fig9.run ~quick:(not full) Harness.Fig9.Tpcc)

let run_fig10a full =
  let rows = if full then 50_000 else 20_000 in
  Harness.Fig10.print_timeline (Harness.Fig10.run_timeline ~rows ())

let run_fig10b full =
  Harness.Fig10.print_transfers (Harness.Fig10.run_transfers ~quick:(not full) ())

let run_ablations () =
  List.iter
    (fun (title, pts) -> Harness.Ablations.print ~title pts)
    [
      ("ablation — broadcast batching", Harness.Ablations.batching ());
      ( "ablation — consensus pipelining window",
        Harness.Ablations.pipelining () );
      ( "ablation — consensus module under the TOB",
        Harness.Ablations.consensus_modules () );
      ( "ablation — lock granularity under contention",
        Harness.Ablations.lock_granularity () );
      ( "extension — replication styles over the same substrate",
        Harness.Ablations.replication_styles () );
    ]

let run_sharding full =
  Harness.Sharding.print (Harness.Sharding.curve ~quick:(not full) ())

let run_all full =
  run_table1 ();
  run_fig8 full;
  run_fig9a full;
  run_fig9b full;
  run_fig10a full;
  run_fig10b full;
  run_ablations ();
  run_sharding full

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ full)

let () =
  let doc = "Regenerate the evaluation of the DSN'14 ShadowDB paper." in
  let info = Cmd.info "shadowdb_bench" ~doc in
  let default = Term.(const run_all $ full) in
  let cmds =
    [
      cmd "table1" "Specification size statistics (Table I)." (fun _ ->
          run_table1 ());
      cmd "fig8" "Broadcast service latency/throughput (Fig. 8)." run_fig8;
      cmd "fig9a" "Micro-benchmark comparison (Fig. 9a)." run_fig9a;
      cmd "fig9b" "TPC-C comparison (Fig. 9b)." run_fig9b;
      cmd "fig10a" "Recovery timeline (Fig. 10a)." run_fig10a;
      cmd "fig10b" "State transfer cost (Fig. 10b)." run_fig10b;
      cmd "ablations" "Design-choice ablations (DESIGN.md)." (fun _ ->
          run_ablations ());
      cmd "sharding" "Sharded SMR weak scaling, 1/2/4 shards." run_sharding;
      cmd "all" "Everything." run_all;
    ]
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
