(* Spec-level static analysis over the EventML class terms and GPM
   machines.

   `shadowdb_lint` (or `shadowdb_lint lint --all`) runs every analysis
   pass — header coverage, single-valuedness, send-graph reachability,
   handler purity, the ShadowDB wire table, scenario determinism — over
   the registered specifications and exits nonzero if anything fires.
   `--sweep DIR` additionally scans source directories for anonymous
   failure patterns. `shadowdb_lint selftest` proves each pass can fire
   by running it over deliberately defective fixture specs. *)

open Cmdliner

let lint all target json sweep_dirs =
  let targets =
    if all || target = None then Analysis.Registry.all ()
    else
      match target with
      | Some name -> (
          match Analysis.Registry.find name with
          | Some t -> [ t ]
          | None ->
              Fmt.epr "unknown target %S; known: %s@." name
                (String.concat ", " (Analysis.Registry.names ()));
              exit 64)
      | None -> []
  in
  let reports = List.map Analysis.Lint.run_target targets in
  let reports =
    match sweep_dirs with
    | [] -> reports
    | dirs ->
        reports
        @ [
            {
              Analysis.Lint.target = "sources";
              kind = "sweep";
              findings = Analysis.Sweep.pass dirs;
            };
          ]
  in
  if json then print_endline (Analysis.Lint.to_json reports)
  else Fmt.pr "%a" Analysis.Lint.pp_human reports;
  if Analysis.Lint.total_findings reports = 0 then 0 else 1

let impl src_dirs json =
  let src_dirs = if src_dirs = [] then [ "lib" ] else src_dirs in
  let missing = List.filter (fun d -> not (Sys.file_exists d)) src_dirs in
  if missing <> [] then begin
    Fmt.epr
      "source director%s not found: %s — run from the repo root (the impl \
       passes read .ml sources)@."
      (if List.length missing = 1 then "y" else "ies")
      (String.concat ", " missing);
    exit 64
  end;
  let reports = Analysis.Impl.run ~src_dirs () in
  if json then print_endline (Analysis.Lint.to_json reports)
  else Fmt.pr "%a" Analysis.Lint.pp_human reports;
  if Analysis.Lint.total_findings reports = 0 then 0 else 1

let selftest json =
  let outcomes = Analysis.Lint.selftest () in
  if json then print_endline (Analysis.Lint.selftest_to_json outcomes)
  else
    List.iter
      (fun (o : Analysis.Lint.selftest_outcome) ->
        if o.Analysis.Lint.missing = [] then
          Fmt.pr "%-20s ok (fired: %s)@." o.Analysis.Lint.fixture
            (String.concat ", " o.Analysis.Lint.fired)
        else
          Fmt.pr "%-20s MISSING %s (fired: %s)@." o.Analysis.Lint.fixture
            (String.concat ", " o.Analysis.Lint.missing)
            (String.concat ", " o.Analysis.Lint.fired))
      outcomes;
  if Analysis.Lint.selftest_ok outcomes then 0 else 1

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let lint_term =
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Lint every registered target (the default when no \
                $(b,--target) is given).")
  in
  let target =
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"NAME"
          ~doc:"Lint a single target; see the target column of the \
                default run for names.")
  in
  let sweep =
    Arg.(
      value & opt_all string []
      & info [ "sweep" ] ~docv:"DIR"
          ~doc:
            "Also sweep this source directory (repeatable) for anonymous \
             failure patterns; requires running from the repo root.")
  in
  Term.(const lint $ all $ target $ json_flag $ sweep)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run all analysis passes over the registered specifications.")
    lint_term

let impl_cmd =
  let src =
    Arg.(
      value & opt_all string []
      & info [ "src" ] ~docv:"DIR"
          ~doc:
            "Source directory to analyse (repeatable; default $(b,lib)). \
             Requires running from the repo root — the impl passes parse \
             .ml sources with compiler-libs.")
  in
  Cmd.v
    (Cmd.info "impl"
       ~doc:
         "AST-based implementation lints: reactor-blocking reachability, \
          lock discipline, durability ordering, and the forbidden-pattern \
          sweep, over the repo's own OCaml sources.")
    Term.(const impl $ src $ json_flag)

let selftest_cmd =
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Prove every pass fires on its deliberately defective fixture \
          spec.")
    Term.(const selftest $ json_flag)

let () =
  let info =
    Cmd.info "shadowdb_lint"
      ~doc:
        "Static analysis / lint over the EventML specifications, GPM \
         machines, and check scenarios."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default:lint_term info [ lint_cmd; impl_cmd; selftest_cmd ]))
