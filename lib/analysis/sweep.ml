(* Forbidden-pattern source sweep, v2: AST-accurate.

   The repo's failure-reporting convention (PR 2, extended since) is the
   structured [Sim.Invariant.Violation]: anonymous panics lose the layer
   and state needed to attribute a model-checking counterexample or a
   live-cluster crash. This sweep keeps the protocol layers honest by
   flagging the anonymous forms — [assert false], [failwith],
   [invalid_arg], partial stdlib accessors — plus unsafe [Obj.magic].

   v1 matched substrings per line, which had two false classes: comments
   and string literals fired ("a comment may say failwith"), and partial
   matches escaped ("List.hd(x)" has no trailing space). v2 parses each
   file (see {!Ast_load}) and matches actual expression nodes: an
   [assert false] construct, or an identifier whose flattened longident
   (modulo a [Stdlib.] prefix) is one of the banned names. Codes and the
   suffix-match allowlist semantics are unchanged from v1, so existing
   consumers (CI gate, fixtures) keep working.

   Still opt-in via the CLI (the build sandbox has no sources): run over
   source dirs by `shadowdb_lint impl --src lib`, which folds this pass
   into the impl report. *)

[@@@ocaml.warning "-4"]

open Parsetree

(* Banned identifiers (flattened path, [Stdlib.] stripped) -> code. *)
let banned_idents =
  [
    ([ "failwith" ], "failwith");
    ([ "invalid_arg" ], "invalid-arg");
    ([ "List"; "hd" ], "list-hd");
    ([ "List"; "assoc" ], "list-assoc");
    ([ "Option"; "get" ], "option-get");
    ([ "Obj"; "magic" ], "obj-magic");
  ]

(* Files whose flagged idioms are deliberate, with the reason on record.
   Suffix match, as in v1. *)
let allowlist =
  [
    (* internal-invariant asserts on unreachable branches of balanced
       trees / parser automata — structured failure would need plumbing a
       layer identity into pure container code *)
    "storage/avl.ml";
    "storage/btree.ml";
    "storage/sql_parser.ml";
    "storage/sql_exec.ml";
    (* workload generators validate caller-supplied parameters with
       invalid_arg / Option.get at API boundaries, before any replica
       state exists to attribute a Violation to *)
    "workload/bank.ml";
    "workload/tpcc.ml";
    "workload/zipf.ml";
    (* harness plotting helpers index known-non-empty series *)
    "harness/fig10.ml";
  ]

let allowlisted path =
  List.exists
    (fun suffix ->
      let lp = String.length path and ls = String.length suffix in
      lp >= ls && String.sub path (lp - ls) ls = suffix)
    allowlist

let rec flatten = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (l, s) -> Option.map (fun xs -> xs @ [ s ]) (flatten l)
  | Longident.Lapply _ -> None

let code_of_ident lid =
  match flatten lid with
  | None -> None
  | Some segs ->
      let segs =
        match segs with "Stdlib" :: rest when rest <> [] -> rest | _ -> segs
      in
      List.assoc_opt segs banned_idents

let is_false_construct e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) -> true
  | _ -> false

(* Scan a parsed structure; [path] is used only for sites. *)
let scan_structure ~path str =
  let diags = ref [] in
  let hit code name loc =
    diags :=
      Diag.v ~pass:"sweep" ~target:"sources" ~code
        ~site:(Ast_load.site ~path loc)
        "anonymous failure / unsafe pattern %S — use Sim.Invariant (or \
         justify in the sweep allowlist)"
        name
      :: !diags
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_assert inner when is_false_construct inner ->
              hit "assert-false" "assert false" e.pexp_loc
          | Pexp_ident { txt; loc } -> (
              match code_of_ident txt with
              | Some code ->
                  hit code
                    (String.concat "."
                       (Option.value ~default:[] (flatten txt)))
                    loc
              | None -> ())
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  List.iter (it.structure_item it) str;
  List.rev !diags

let scan_source (s : Ast_load.source) =
  if allowlisted s.Ast_load.src_path then []
  else scan_structure ~path:s.Ast_load.src_path s.Ast_load.src_str

(* v1-compatible entry point: sweep every .ml under [dirs]. Parse
   failures surface as parse-error diagnostics rather than silently
   shrinking coverage. *)
let pass dirs =
  let sources, load_diags = Ast_load.load dirs in
  load_diags @ List.concat_map scan_source sources
