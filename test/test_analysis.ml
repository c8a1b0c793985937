(* Tests for the spec-level static analysis (lib/analysis): every pass
   fires exactly its promised codes on the defective fixtures, stays
   silent on the real specifications, and the coverage pass's dead-header
   verdicts are sound under schedule exploration — a header it flags as
   unproducible is never delivered across a thousand random schedules. *)

module Message = Loe.Message
module Cls = Loe.Cls
module Engine = Sim.Engine

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n > 0 && go 0

(* ---------- fixtures: each pass fires, and fires exactly ---------- *)

let test_fixtures_fire () =
  List.iter
    (fun (f : Analysis.Fixtures.t) ->
      let fired =
        List.sort_uniq String.compare
          (List.map (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.code)
             (f.Analysis.Fixtures.run ()))
      in
      Alcotest.(check (list string))
        (f.Analysis.Fixtures.name ^ " fires exactly its promised codes")
        (List.sort_uniq String.compare f.Analysis.Fixtures.expect)
        fired)
    Analysis.Fixtures.all

(* ---------- real targets: zero findings ---------- *)

let test_real_targets_clean () =
  let reports = Analysis.Lint.run_all () in
  List.iter
    (fun (r : Analysis.Lint.report) ->
      Alcotest.(check int)
        (r.Analysis.Lint.target ^ " is clean")
        0
        (List.length r.Analysis.Lint.findings))
    reports

(* ---------- pass-level unit tests on synthetic inputs ---------- *)

let codes ds =
  List.sort_uniq String.compare
    (List.map (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.code) ds)

let test_coverage_directions () =
  let open Analysis.Coverage in
  let decls =
    [
      { hdr = "in"; dir = Client_in };
      { hdr = "handled-never-sent"; dir = Internal };
      { hdr = "sent-never-handled"; dir = Internal };
      { hdr = "tick"; dir = Timer };
      { hdr = "note"; dir = External_out };
    ]
  in
  let ds =
    pass ~target:"unit"
      ~recognized:[ "in"; "handled-never-sent"; "tick"; "stray" ]
      ~produced:[ "sent-never-handled" ]
      decls
  in
  Alcotest.(check (list string))
    "coverage verdicts"
    [ "dead-handler"; "dead-letter"; "never-emitted"; "undeclared-header" ]
    (codes ds)

let test_send_graph_reachability () =
  let r =
    {
      Analysis.Exec.produced = [ "x"; "y" ];
      edges = [ (0, "x", 1); (1, "y", 99) ];
      external_out = [ ("y", 99) ];
      steps = 2;
      quiesced = true;
    }
  in
  let ds =
    Analysis.Send_graph.pass ~target:"unit" ~inject_locs:[ 0 ]
      ~observations:[ 99; 100 ] r
  in
  Alcotest.(check (list string))
    "only the unfed observation point is flagged"
    [ "unreachable-observation" ] (codes ds);
  Alcotest.(check int) "one finding" 1 (List.length ds)

let test_shape_firing () =
  let h = Message.declare "h" and g = Message.declare "g" in
  let c =
    Cls.( ||| )
      (Cls.map (fun () -> 1) (Cls.base h))
      (Cls.map (fun () -> 2) (Cls.base g))
  in
  (match Analysis.Shape.firing c with
  | Analysis.Shape.On hs ->
      Alcotest.(check (list string)) "par fires on both" [ "g"; "h" ]
        (List.sort String.compare hs)
  | Analysis.Shape.Always -> Alcotest.fail "par of bases is not Always");
  match Analysis.Shape.firing (Cls.state "S" ~init:(fun _ -> 0) ~upd:(fun _ v _ -> v) (Cls.map (fun () -> 1) (Cls.base h))) with
  | Analysis.Shape.Always -> ()
  | Analysis.Shape.On _ -> Alcotest.fail "State is single-valued at every event"

(* ---------- Cls.pp (satellite) ---------- *)

let test_cls_pp () =
  let h = Message.declare "hx" in
  let st =
    Cls.state "S" ~init:(fun _ -> 0) ~upd:(fun _ () s -> s + 1) (Cls.base h)
  in
  let c = Cls.o2 (fun _ () s -> [ s ]) (Cls.base h) st in
  let s = Cls.to_string c in
  let expected_head =
    Printf.sprintf "%s [%d]" (Cls.name_of c) (Cls.size c)
  in
  Alcotest.(check bool)
    "root line carries the total size" true
    (contains ~sub:expected_head s);
  Alcotest.(check bool) "nested state printed" true (contains ~sub:"state:S" s);
  Alcotest.(check bool) "base printed" true (contains ~sub:"base:hx" s);
  Alcotest.(check string) "delegate child naming" "scout-child"
    (Cls.child_name "scout")

(* ---------- structured invariants (satellite) ---------- *)

let test_invariant_helpers () =
  (match Sim.Invariant.head ~layer:"t" ~what:"xs" [ 7 ] with
  | 7 -> ()
  | _ -> Alcotest.fail "head of non-empty");
  (match Sim.Invariant.head ~layer:"t" ~what:"xs" [] with
  | exception Sim.Invariant.Violation { layer = "t"; _ } -> ()
  | _ -> Alcotest.fail "head of empty must raise a structured violation");
  match Sim.Invariant.assoc ~layer:"t" ~what:"k" 1 [ (2, "b") ] with
  | exception Sim.Invariant.Violation { layer = "t"; detail } ->
      Alcotest.(check bool) "detail names the site" true
        (contains ~sub:"k" detail)
  | _ -> Alcotest.fail "assoc miss must raise a structured violation"

(* ---------- impl passes: call graph on an in-test source ---------- *)

(* Two tiny "files" in one directory: a module alias crossing between
   them, a nested module, an external blocking call, and a closure
   stored in a record field — the resolution features the impl passes
   lean on. *)
let cg_util_src = "let double x = x + x\n"

let cg_main_src =
  {|
module F = Util

let helper x = F.double x

module Inner = struct
  let deep y = helper y
end

let entry fd =
  let b = Inner.deep 1 in
  ignore (Unix.read fd (Bytes.create b) 0 b);
  { on_event = (fun e -> helper e) }
|}

let test_callgraph_small () =
  let parse path src =
    match Analysis.Ast_load.parse_string ~path src with
    | Ok s -> s
    | Error _ -> Alcotest.fail ("test source does not parse: " ^ path)
  in
  let g =
    Analysis.Callgraph.build
      [ parse "test/util.ml" cg_util_src; parse "test/cg_main.ml" cg_main_src ]
  in
  let has name = Analysis.Callgraph.find_def g name <> None in
  Alcotest.(check bool) "file-level def" true (has "Test.Cg_main.entry");
  Alcotest.(check bool) "nested-module def" true (has "Test.Cg_main.Inner.deep");
  Alcotest.(check bool)
    "record-closure pseudo-def" true
    (has "Test.Cg_main.entry.on_event");
  Alcotest.(check (list string))
    "field impls registered"
    [ "Test.Cg_main.entry.on_event" ]
    (Analysis.Callgraph.impls g "on_event");
  let reaches from target = Analysis.Callgraph.reaches g ~from target in
  Alcotest.(check bool)
    "entry reaches the external blocking call" true
    (reaches "Test.Cg_main.entry" "Unix.read");
  Alcotest.(check bool)
    "alias resolves across files: entry reaches Util.double" true
    (reaches "Test.Cg_main.entry" "Test.Util.double");
  Alcotest.(check bool)
    "closure body attributed to the pseudo-def" true
    (reaches "Test.Cg_main.entry.on_event" "Test.Util.double");
  Alcotest.(check bool)
    "helper does not reach Unix.read" false
    (reaches "Test.Cg_main.helper" "Unix.read");
  let r = Analysis.Callgraph.reach g ~roots:[ "Test.Cg_main.entry" ] in
  Alcotest.(check bool)
    "chain names the path" true
    (contains ~sub:"Test.Cg_main.entry" (Analysis.Callgraph.chain r "Unix.read"))

(* ---------- impl fixtures: each defective source is rejected ---------- *)

let test_impl_fixtures_fire () =
  List.iter
    (fun (f : Analysis.Fixtures.t) ->
      let fired =
        codes (f.Analysis.Fixtures.run ())
      in
      Alcotest.(check (list string))
        (f.Analysis.Fixtures.name ^ " fires exactly its promised codes")
        (List.sort_uniq String.compare f.Analysis.Fixtures.expect)
        fired)
    Analysis.Impl_fixtures.all

(* ---------- impl passes over the real sources: clean ---------- *)

(* The dune sandbox may or may not expose the repo sources; probe for
   them (tests execute under _build/default/test) and skip gracefully
   when absent — the CLI + CI `impl-lint` job cover the from-repo-root
   invocation. *)
let test_impl_real_clean () =
  let candidates =
    [ "lib"; "../lib"; "../../lib"; "../../../lib"; "../../../../lib" ]
  in
  match
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "runtime/loop.ml"))
      candidates
  with
  | None -> print_endline "impl-real-clean: sources not visible, skipping"
  | Some d ->
      let reports = Analysis.Impl.run ~src_dirs:[ d ] () in
      List.iter
        (fun (r : Analysis.Lint.report) ->
          List.iter
            (fun (diag : Analysis.Diag.t) ->
              print_endline (Format.asprintf "%a" Analysis.Diag.pp diag))
            r.Analysis.Lint.findings;
          Alcotest.(check int)
            (r.Analysis.Lint.target ^ " impl target is clean")
            0
            (List.length r.Analysis.Lint.findings))
        reports;
      Alcotest.(check bool)
        "all four impl targets ran" true
        (List.length reports >= 4)

(* ---------- sweep v2 precision property ---------- *)

(* For every banned pattern: occurrences confined to a comment and a
   string literal are never flagged, while the same pattern as real code
   fires exactly its one code — the two false classes of the textual v1. *)
let sweep_banned =
  [
    ("failwith", "failwith");
    ("invalid_arg", "invalid-arg");
    ("List.hd", "list-hd");
    ("List.assoc", "list-assoc");
    ("Option.get", "option-get");
    ("Obj.magic", "obj-magic");
  ]

let prop_sweep_precision =
  QCheck.Test.make ~count:200
    ~name:"sweep v2 flags code, never comments or string literals"
    QCheck.(
      make
        Gen.(
          pair
            (int_bound (List.length sweep_banned - 1))
            (map (Printf.sprintf "w%d") (int_bound 99999))))
    (fun (i, filler) ->
      let pat, code = List.nth sweep_banned i in
      let scan name src =
        match Analysis.Ast_load.parse_string ~path:(name ^ ".ml") src with
        | Ok s ->
            codes
              (Analysis.Sweep.scan_structure ~path:s.Analysis.Ast_load.src_path
                 s.Analysis.Ast_load.src_str)
        | Error _ -> [ "parse-error" ]
      in
      let quiet =
        Printf.sprintf "(* %s %s *)\nlet s = \"%s %s\"\nlet use () = s\n"
          filler pat pat filler
      in
      let loud = Printf.sprintf "let f x = %s x\n" pat in
      scan "quiet" quiet = [] && scan "loud" loud = [ code ])

(* ---------- soundness: flagged-dead headers never appear ---------- *)

(* The dead-handler fixture's [ghost] header is flagged by coverage as
   unproducible from bounded FIFO execution. Property: across 1000
   random schedules of the same spec under the engine's scheduler hook
   (arbitrary interleavings of concurrent client injections and member
   traffic), no member ever receives [ghost] — the static verdict has no
   false positives under reordering. *)
let prop_dead_header_sound =
  QCheck.Test.make ~count:1000
    ~name:"coverage dead-handler verdict sound across 1k random schedules"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let spec, go, ghost = Analysis.Fixtures.dead_handler_spec () in
      let ghost_hdr = Message.hdr_name ghost
      and go_hdr = Message.hdr_name go in
      let world : Message.t Engine.t = Engine.create ~seed () in
      Check.Sched.install (Check.Sched.random seed) world;
      let members = List.length spec.Loe.Spec.locs in
      let delivered = ref [] in
      let ids =
        List.map
          (fun l ->
            Engine.spawn world ~name:(Printf.sprintf "m%d" l) (fun () ->
                let machine = Gpm.Opt.compile l spec.Loe.Spec.main in
                fun ctx -> function
                  | Engine.Init -> ()
                  | Engine.Recv { msg; _ } ->
                      delivered := msg.Message.hdr :: !delivered;
                      List.iter
                        (fun (d : Message.directed) ->
                          if d.Message.delay <= 0.0 && d.Message.dst < members
                          then Engine.send ctx d.Message.dst d.Message.msg)
                        (Gpm.Opt.step machine msg)
                  | Engine.Timer _ -> ()))
          spec.Loe.Spec.locs
      in
      let member_arr = Array.of_list ids in
      let _client =
        Engine.spawn world ~name:"client" (fun () ->
            fun ctx -> function
              | Engine.Init ->
                  (* Concurrent injections at every member: real choice
                     points for the scheduler hook. *)
                  Array.iter
                    (fun m -> Engine.send ctx m (Message.make go ()))
                    member_arr
              | _ -> ())
      in
      Engine.run ~max_events:10_000 world;
      (not (List.mem ghost_hdr !delivered)) && List.mem go_hdr !delivered)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [
      ( "fixtures",
        [ Alcotest.test_case "each pass fires exactly" `Quick test_fixtures_fire ] );
      ( "real-targets",
        [ Alcotest.test_case "all clean" `Quick test_real_targets_clean ] );
      ( "passes",
        [
          Alcotest.test_case "coverage directions" `Quick
            test_coverage_directions;
          Alcotest.test_case "send-graph reachability" `Quick
            test_send_graph_reachability;
          Alcotest.test_case "shape firing" `Quick test_shape_firing;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "Cls.pp structure" `Quick test_cls_pp;
          Alcotest.test_case "invariant helpers" `Quick test_invariant_helpers;
        ] );
      ( "impl",
        [
          Alcotest.test_case "call graph on in-test sources" `Quick
            test_callgraph_small;
          Alcotest.test_case "defective impl fixtures rejected" `Quick
            test_impl_fixtures_fire;
          Alcotest.test_case "real sources clean" `Quick test_impl_real_clean;
        ] );
      ("soundness", [ qt prop_dead_header_sound; qt prop_sweep_precision ]);
    ]
