(* Per-module call graph with qualified-name resolution.

   Nodes are fully-qualified definition names [Dir.Module.def] (the
   directory segment disambiguates e.g. gpm/runtime.ml from
   runtime/runtime.ml), plus two kinds of leaf:

   - external names ("Unix.read", "Mutex.lock", …) for references that
     resolve outside the parsed sources — these are exactly what the
     impl passes hunt for;
   - abstract field nodes ("field:log_sync") for record-field accesses,
     which approximate record-of-closures dispatch: the durable pass
     asks "does Manager.append reach field:log_sync" and separately
     "does every registered log_sync closure reach Unix.fsync".

   Record fields bound to function literals become pseudo-definitions
   named [Enclosing.def.fieldname] with a construction edge from the
   enclosing definition — so closures stored in a ctx/backend record are
   reachable from their construction site without guessing dynamic
   dispatch across modules.

   Resolution is syntactic (no typer): unqualified names walk the
   enclosing-module scope chain, qualified names try (in order) the
   scope chain, a same-directory module, an explicit directory prefix, a
   unique cross-directory module, and finally fall out as external.
   Unresolvable locals (function parameters, let-bound lambdas) are
   dropped — their bodies were already walked under the enclosing
   definition, so no blocking call hides behind them.

   Edges are kept in source order; the durability pass depends on that
   to check fsync-dominates-rename within a definition. Edges that occur
   inside the critical section passed to [Mutex.protect] are tagged
   ([e_locked]) — the lock-discipline pass seeds its under-lock
   reachability from those. *)

[@@@ocaml.warning "-4"]

open Parsetree

type edge = {
  e_callee : string;
  e_site : string;
  e_locked : bool; (* inside a Mutex.protect critical section *)
}

type def = {
  d_name : string;
  d_site : string;
  mutable d_edges : edge list; (* reverse source order while building *)
}

type t = {
  defs : (string, def) Hashtbl.t;
  mutable order : string list; (* def names, reverse declaration order *)
  field_impls : (string, string list ref) Hashtbl.t; (* field name -> impl defs / values *)
  mod_dirs : (string, string list) Hashtbl.t; (* file-module name -> dirs holding it *)
}

let find_def t name = Hashtbl.find_opt t.defs name
let defs t = List.rev_map (Hashtbl.find t.defs) t.order
let edges (d : def) = List.rev d.d_edges

let defs_with_prefix t prefix =
  List.filter (fun d -> String.starts_with ~prefix d.d_name) (defs t)

let module_present t m = defs_with_prefix t (m ^ ".") <> []

let impls t field =
  match Hashtbl.find_opt t.field_impls field with
  | Some l -> List.rev !l
  | None -> []

(* ------------------------------------------------------------------ *)
(* Construction *)

type env = {
  g : t;
  dir : string; (* "Runtime" *)
  path : string;
  mutable mods : string list; (* module path inside the file, outermost first *)
  mutable aliases : (string * string list) list; (* module X = Y.Z *)
  mutable opens : string list list;
  mutable cur : def option;
  mutable locked : bool;
}

let rec flatten = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (l, s) ->
      Option.map (fun xs -> xs @ [ s ]) (flatten l)
  | Longident.Lapply _ -> None

let key_of env name = String.concat "." ((env.dir :: env.mods) @ [ name ])

let rec pat_def_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> pat_def_name p
  | _ -> None

let declare env name loc =
  let key = key_of env name in
  match Hashtbl.find_opt env.g.defs key with
  | Some d -> d
  | None ->
      let d =
        { d_name = key; d_site = Ast_load.site ~path:env.path loc; d_edges = [] }
      in
      Hashtbl.replace env.g.defs key d;
      env.g.order <- key :: env.g.order;
      d

let register_impl env field impl =
  match Hashtbl.find_opt env.g.field_impls field with
  | Some l -> if not (List.mem impl !l) then l := impl :: !l
  | None -> Hashtbl.replace env.g.field_impls field (ref [ impl ])

let rec unwrap_mod me =
  match me.pmod_desc with
  | Pmod_structure items -> `Structure items
  | Pmod_functor (_, body) -> unwrap_mod body
  | Pmod_constraint (m, _) -> unwrap_mod m
  | Pmod_ident { txt; _ } -> `Alias (flatten txt)
  | _ -> `Other

(* Pass A: collect definition names (so pass B resolves forward refs). *)
let rec collect_items env items = List.iter (collect_item env) items

and collect_item env it =
  match it.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match pat_def_name vb.pvb_pat with
          | Some n -> ignore (declare env n vb.pvb_pat.ppat_loc)
          | None -> ())
        vbs
  | Pstr_eval (e, _) -> ignore (declare env "$toplevel" e.pexp_loc)
  | Pstr_module mb -> collect_module env mb
  | Pstr_recmodule mbs -> List.iter (collect_module env) mbs
  | _ -> ()

and collect_module env mb =
  match mb.pmb_name.txt with
  | None -> ()
  | Some name -> (
      match unwrap_mod mb.pmb_expr with
      | `Structure items ->
          let saved = env.mods in
          env.mods <- env.mods @ [ name ];
          collect_items env items;
          env.mods <- saved
      | `Alias _ | `Other -> ())

(* Name resolution, pass B. *)

let resolve_qualified env segs =
  (* [segs] = Mods… @ [name]; try scope chain, same-dir file module,
     explicit dir prefix, unique cross-dir module, else external. *)
  match List.rev segs with
  | [] -> None
  | name :: rev_mods ->
      let mods = List.rev rev_mods in
      let rec scope_chain prefix_rev =
        let key =
          String.concat "." ((env.dir :: List.rev prefix_rev) @ segs)
        in
        if Hashtbl.mem env.g.defs key then Some key
        else
          match prefix_rev with [] -> None | _ :: tl -> scope_chain tl
      in
      let scoped = scope_chain (List.rev env.mods) in
      if scoped <> None then scoped
      else
        let external_ () = Some (String.concat "." segs) in
        (match mods with
        | [] ->
            (* unqualified fell through scope chain: not a def we know *)
            None
        | m0 :: _ -> (
            let dirs =
              Option.value ~default:[]
                (Hashtbl.find_opt env.g.mod_dirs m0)
            in
            if List.mem env.dir dirs then
              Some (String.concat "." ((env.dir :: mods) @ [ name ]))
            else if
              (* first segment names a directory: Runtime.Frame.drain *)
              List.length mods >= 2
              && Hashtbl.fold
                   (fun _ ds acc -> acc || List.mem m0 ds)
                   env.g.mod_dirs false
            then Some (String.concat "." segs)
            else
              match dirs with
              | [ d ] -> Some (String.concat "." ((d :: mods) @ [ name ]))
              | _ -> external_ ()))

let apply_alias env segs =
  match segs with
  | m0 :: rest -> (
      match List.assoc_opt m0 env.aliases with
      | Some repl -> repl @ rest
      | None -> segs)
  | [] -> segs

let resolve env lid =
  match flatten lid with
  | None -> None
  | Some [ x ] -> (
      (* unqualified: scope chain first, then file-level opens *)
      match resolve_qualified env [ x ] with
      | Some _ as r -> r
      | None ->
          List.find_map
            (fun o ->
              match resolve_qualified env (apply_alias env (o @ [ x ])) with
              | Some k when Hashtbl.mem env.g.defs k -> Some k
              | _ -> None)
            env.opens)
  | Some segs -> (
      let segs =
        match segs with "Stdlib" :: rest when rest <> [] -> rest | _ -> segs
      in
      match resolve_qualified env (apply_alias env segs) with
      | Some _ as r -> r
      | None -> Some (String.concat "." segs))

let add_edge env callee loc =
  match env.cur with
  | None -> ()
  | Some d ->
      d.d_edges <-
        {
          e_callee = callee;
          e_site = Ast_load.site ~path:env.path loc;
          e_locked = env.locked;
        }
        :: d.d_edges

let last_seg lid =
  match flatten lid with
  | Some segs when segs <> [] -> Some (List.nth segs (List.length segs - 1))
  | _ -> None

let rec is_fun_literal e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_fun_literal e
  | _ -> false

(* Pass B: edges, via an Ast_iterator walk. *)
let iter_of env =
  let open Ast_iterator in
  let rec it =
    {
      default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } -> (
              match resolve env txt with
              | Some callee -> add_edge env callee loc
              | None -> ())
          | Pexp_record (fields, base) ->
              Option.iter (self.expr self) base;
              List.iter
                (fun (({ txt; _ } : Longident.t Location.loc), v) ->
                  match last_seg txt with
                  | None -> self.expr self v
                  | Some fname ->
                      if is_fun_literal v then (
                        match env.cur with
                        | Some enclosing ->
                            let pseudo = enclosing.d_name ^ "." ^ fname in
                            let d =
                              match Hashtbl.find_opt env.g.defs pseudo with
                              | Some d -> d
                              | None ->
                                  let d =
                                    {
                                      d_name = pseudo;
                                      d_site =
                                        Ast_load.site ~path:env.path
                                          v.pexp_loc;
                                      d_edges = [];
                                    }
                                  in
                                  Hashtbl.replace env.g.defs pseudo d;
                                  env.g.order <- pseudo :: env.g.order;
                                  d
                            in
                            register_impl env fname pseudo;
                            (* construction edge: the closure is born here *)
                            add_edge env pseudo v.pexp_loc;
                            let saved = env.cur in
                            env.cur <- Some d;
                            self.expr self v;
                            env.cur <- saved
                        | None -> self.expr self v)
                      else (
                        (match v.pexp_desc with
                        | Pexp_ident { txt = vi; _ } -> (
                            match resolve env vi with
                            | Some k when Hashtbl.mem env.g.defs k ->
                                register_impl env fname k
                            | _ -> ())
                        | _ -> ());
                        self.expr self v))
                fields
          | Pexp_field (inner, { txt; _ }) ->
              self.expr self inner;
              Option.iter
                (fun f -> add_edge env ("field:" ^ f) e.pexp_loc)
                (last_seg txt)
          | Pexp_setfield (inner, { txt; _ }, v) ->
              self.expr self inner;
              Option.iter
                (fun f -> add_edge env ("field:" ^ f) e.pexp_loc)
                (last_seg txt);
              self.expr self v
          | Pexp_apply
              (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), args) -> (
              let callee = resolve env txt in
              self.expr self f;
              match (callee, args) with
              | Some "Mutex.protect", [ (_, m); (_, body) ] ->
                  self.expr self m;
                  let saved = env.locked in
                  env.locked <- true;
                  self.expr self body;
                  env.locked <- saved
              | _ -> List.iter (fun (_, arg) -> self.expr self arg) args)
          | _ -> default_iterator.expr self e)
      ;
      structure_item =
        (fun self item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match pat_def_name vb.pvb_pat with
                  | Some n ->
                      let saved = env.cur in
                      env.cur <- Some (declare env n vb.pvb_pat.ppat_loc);
                      self.expr self vb.pvb_expr;
                      env.cur <- saved
                  | None ->
                      let saved = env.cur in
                      env.cur <-
                        Some (declare env "$toplevel" vb.pvb_pat.ppat_loc);
                      self.expr self vb.pvb_expr;
                      env.cur <- saved)
                vbs
          | Pstr_eval (e, _) ->
              let saved = env.cur in
              env.cur <- Some (declare env "$toplevel" e.pexp_loc);
              self.expr self e;
              env.cur <- saved
          | Pstr_module mb -> walk_module self mb
          | Pstr_recmodule mbs -> List.iter (walk_module self) mbs
          | Pstr_open od -> (
              match od.popen_expr.pmod_desc with
              | Pmod_ident { txt; _ } -> (
                  match flatten txt with
                  | Some segs -> env.opens <- segs :: env.opens
                  | None -> ())
              | _ -> ())
          | _ -> default_iterator.structure_item self item)
      ;
    }
  and walk_module self mb =
    match mb.pmb_name.txt with
    | None -> ()
    | Some name -> (
        match unwrap_mod mb.pmb_expr with
        | `Structure items ->
            let saved = env.mods in
            env.mods <- env.mods @ [ name ];
            List.iter (self.structure_item self) items;
            env.mods <- saved
        | `Alias (Some segs) ->
            env.aliases <- (name, apply_alias env segs) :: env.aliases
        | `Alias None | `Other -> ())
  in
  it

let build (sources : Ast_load.source list) =
  let g =
    {
      defs = Hashtbl.create 256;
      order = [];
      field_impls = Hashtbl.create 32;
      mod_dirs = Hashtbl.create 32;
    }
  in
  List.iter
    (fun (s : Ast_load.source) ->
      let dir, m = Ast_load.module_key s.Ast_load.src_path in
      let dirs = Option.value ~default:[] (Hashtbl.find_opt g.mod_dirs m) in
      if not (List.mem dir dirs) then
        Hashtbl.replace g.mod_dirs m (dir :: dirs))
    sources;
  let env_of (s : Ast_load.source) =
    let dir, m = Ast_load.module_key s.Ast_load.src_path in
    {
      g;
      dir;
      path = s.Ast_load.src_path;
      mods = [ m ];
      aliases = [];
      opens = [];
      cur = None;
      locked = false;
    }
  in
  (* Pass A: names. *)
  List.iter
    (fun s -> collect_items (env_of s) s.Ast_load.src_str)
    sources;
  (* Pass B: edges. *)
  List.iter
    (fun s ->
      let env = env_of s in
      let it = iter_of env in
      List.iter (it.Ast_iterator.structure_item it) s.Ast_load.src_str)
    sources;
  g

(* ------------------------------------------------------------------ *)
(* Reachability *)

(* node -> Some (parent node, site of the edge) | None for roots *)
type reach = (string, (string * string) option) Hashtbl.t

let reach t ~roots : reach =
  let seen : reach = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem seen r) then (
        Hashtbl.replace seen r None;
        Queue.add r q))
    roots;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    match find_def t n with
    | None -> ()
    | Some d ->
        List.iter
          (fun e ->
            if not (Hashtbl.mem seen e.e_callee) then (
              Hashtbl.replace seen e.e_callee (Some (n, e.e_site));
              Queue.add e.e_callee q))
          (edges d)
  done;
  seen

let reached (r : reach) node = Hashtbl.mem r node

let chain (r : reach) node =
  let rec up acc n =
    match Hashtbl.find_opt r n with
    | Some (Some (parent, _)) -> up (n :: acc) parent
    | _ -> n :: acc
  in
  String.concat " -> " (up [] node)

let reaches t ~from target =
  let r = reach t ~roots:[ from ] in
  reached r target
