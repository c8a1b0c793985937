(* Feeding a recorded trace to the lib/check invariant monitors.

   The model checker enforces its obligations against simulated
   schedules; this module gives event-loop executions the same
   obligations by reconstructing monitor observations from the trace.
   A sharded trace interleaves one total order per shard; its "groups"
   meta entry ("1,2,3;4,5,6") names each node's group, and without one
   every node is in group 0.

   - TOB total order — per group, from [Deliver] events; gap-freedom and
     no-duplication per node, and only for crash-free traces (a
     restarted replica legitimately re-delivers a group-commit-lost
     suffix, which re-observes (origin, id) pairs);
   - SMR agreement — every fingerprint checkpoint recorded at position s
     of a group's total order must carry the same hash, across the
     group's nodes and across incarnations of one node (deterministic
     re-execution);
   - durability no-loss — the set of positions a node applied, across
     all its incarnations, has no holes below its maximum;
   - cross-shard atomicity — from delivered 2PC decision records (a
     trace without any has nothing to observe). *)

module Monitor = Check.Monitor
module Tob = Broadcast.Tob

type report = {
  m_observations : int;
  m_monitors : string list;
  m_violations : (string * string) list;  (* monitor name, message *)
}

let ok r = r.m_violations = []

let pp_report ppf r =
  Format.fprintf ppf "%d observations through %d monitors (%s)" r.m_observations
    (List.length r.m_monitors)
    (String.concat ", " r.m_monitors);
  if ok r then Format.fprintf ppf "@.invariants hold"
  else
    List.iter
      (fun (n, m) -> Format.fprintf ppf "@.VIOLATION [%s]: %s" n m)
      r.m_violations

(* Checkpoint agreement, keyed on (group, seqno): the same position of
   one group's total order carries the same fingerprint. One table per
   group, indexed by the group number, so a checkpoint allocates no key.
   [check] runs it over a trace, and {!Online} feeds it live. *)
type agreement = { mutable by_group : (int, int * int) Hashtbl.t array }

let agreement () = { by_group = [||] }

let checkpoint a ~group ~node ~seqno ~hash =
  let n = Array.length a.by_group in
  if group >= n then
    a.by_group <-
      Array.append a.by_group
        (Array.init (group + 1 - n) (fun _ -> Hashtbl.create 1024));
  let seen = a.by_group.(group) in
  match Hashtbl.find_opt seen seqno with
  | None ->
      Hashtbl.replace seen seqno (node, hash);
      None
  | Some (_, h0) when h0 = hash -> None
  | Some (n0, h0) ->
      Some
        (Printf.sprintf
           "fingerprint disagreement at seqno %d: node %d has %x, node %d had \
            %x"
           seqno node hash n0 h0)

(* Durability no-loss: across every incarnation of a node, the applied
   positions are contiguous up to its maximum — a hole is an entry that
   was applied before a crash and never recovered. *)
let no_loss () : (int * int) Monitor.t =
  let by_node : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  Monitor.make ~name:"conform-no-loss"
    ~finish:(fun () ->
      Hashtbl.fold
        (fun node seqs acc ->
          match acc with
          | Some _ -> acc
          | None ->
              let lo = Hashtbl.fold (fun s () m -> min s m) seqs max_int in
              let hi = Hashtbl.fold (fun s () m -> max s m) seqs min_int in
              let missing = ref [] in
              for s = lo to hi do
                if not (Hashtbl.mem seqs s) then missing := s :: !missing
              done;
              if !missing = [] then None
              else
                Some
                  (Printf.sprintf
                     "node %d lost applied entries: missing seqnos %s below \
                      its maximum %d"
                     node
                     (String.concat ","
                        (List.map string_of_int (List.rev !missing)))
                     hi))
        by_node None)
    (fun _fail (node, seqno) ->
      let seqs =
        match Hashtbl.find_opt by_node node with
        | Some s -> s
        | None ->
            let s = Hashtbl.create 256 in
            Hashtbl.replace by_node node s;
            s
      in
      Hashtbl.replace seqs seqno ())

(* Node -> group, from the "groups" meta entry. *)
let node_group meta =
  let groups =
    match List.assoc_opt "groups" meta with
    | None -> []
    | Some s ->
        List.map
          (fun g -> List.filter_map int_of_string_opt (String.split_on_char ',' g))
          (String.split_on_char ';' s)
  in
  fun node -> Option.value ~default:0 (List.find_index (List.mem node) groups)

(* The "groups" meta entry of a deployment; none for a single group. *)
let groups_meta target =
  match Shadowdb.System.groups target with
  | [] | [ _ ] -> []
  | gs ->
      let nodes g =
        String.concat "," (List.map string_of_int g.Shadowdb.System.members)
      in
      [ ("groups", String.concat ";" (List.map nodes gs)) ]

(* [mk ()] once per group, under one name: the first group to violate
   latches it. For monitors without an end-of-run check. *)
let per_group (mk : unit -> 'o Monitor.t) : (int * 'o) Monitor.t =
  let by_group = Hashtbl.create 4 in
  Monitor.make ~name:(Monitor.name (mk ())) (fun fail (g, o) ->
      if not (Hashtbl.mem by_group g) then Hashtbl.replace by_group g (mk ());
      let m = Hashtbl.find by_group g in
      Monitor.observe m o;
      Option.iter fail (Monitor.violation m))

let check ?(meta = []) (events : Event.t list) : report =
  let group = node_group meta in
  let has_restart =
    List.exists
      (fun (e : Event.t) ->
        match e.Event.kind with Event.Restart -> true | _ -> false)
      events
  in
  let total_order = per_group Monitor.tob_total_order in
  let node_monitors =
    if has_restart then [] else [ Monitor.tob_gap_free (); Monitor.tob_no_dup () ]
  in
  let agree =
    let a = agreement () in
    Monitor.make ~name:"conform-agreement" (fun fail (node, seqno, hash) ->
        Option.iter fail
          (checkpoint a ~group:(group node) ~node ~seqno ~hash))
  in
  let noloss = no_loss () in
  let xatomic = Monitor.xshard_atomicity () in
  let observations = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      let node = e.Event.node in
      match e.Event.kind with
      | Event.Deliver { seqno; origin; id; payload } -> (
          incr observations;
          let d = { Tob.seqno; entry = { Tob.origin; id; payload } } in
          Monitor.observe total_order (group node, (node, d));
          List.iter (fun m -> Monitor.observe m (node, d)) node_monitors;
          Monitor.observe noloss (node, seqno);
          match Shadowdb.System.decode_payload payload with
          | Shadowdb.System.P_decision (shard, commit, dtxn) ->
              Monitor.observe xatomic
                {
                  Monitor.xnode = node;
                  xshard = shard;
                  xclient = dtxn.Shadowdb.Txn.client;
                  xseq = dtxn.Shadowdb.Txn.seq;
                  xcommit = commit;
                  xkeys = [];
                }
          | _ -> ())
      | Event.Checkpoint { seqno; hash; _ } ->
          incr observations;
          Monitor.observe agree (node, seqno, hash)
      | _ -> ())
    events;
  let close (type o) (m : o Monitor.t) =
    Monitor.finish m;
    (Monitor.name m, Monitor.violation m)
  in
  let results =
    (close total_order :: List.map close node_monitors)
    @ [ close agree; close noloss; close xatomic ]
  in
  {
    m_observations = !observations;
    m_monitors = List.map fst results;
    m_violations =
      List.filter_map
        (fun (n, v) -> match v with Some m -> Some (n, m) | None -> None)
        results;
  }
