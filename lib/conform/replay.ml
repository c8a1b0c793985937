(* Trace replay through the Logic of Events semantics.

   The replica's delivery discipline — apply totally-ordered entries in
   sequence, exactly once — is stated as an event class ({!verdict_cls})
   and evaluated, per recorded delivery, with the denotational semantics
   in lib/loe/sem.ml: [Sem.at] on the node's delivery trace is the
   authority for whether each observed delivery was legitimate. On top
   of the spec machine's order verdicts, the checker re-executes the
   delivered transactions on a shadow database seeded like the recorded
   deployment and compares, at every recorded checkpoint, the state
   fingerprint the spec execution predicts with the fingerprint the
   replica actually had — and every reply the replica sent with the
   reply the spec execution computes. A conformant trace produces an
   empty divergence list; any skipped, duplicated, reordered or
   wrongly-applied delivery pinpoints the diverging event.

   Crash/restart boundaries split a node's stream into incarnations.
   State prediction runs over the first incarnation only (a restarted
   node may legitimately re-execute a group-commit-lost suffix, which
   rewinds the observed order); later incarnations still get the spec
   machine's in-order discipline, plus a cross-incarnation check that
   recovery did not skip forward past anything the node had applied.

   [Sem.state_value] recomputes the state fold per query — O(n^2) in the
   deliveries of a node — so the spec leg is capped at [max_delivers]
   per incarnation (shadow execution and fingerprint comparison continue
   past the cap; the report counts what the spec machine skipped). *)

module Message = Loe.Message
module Cls = Loe.Cls
module Sem = Loe.Sem
module Database = Storage.Database
module Txn = Shadowdb.Txn

(* ------------------------- the specification -------------------------- *)

type dev = { d_seqno : int; d_origin : int; d_id : int }

let dev_hdr : dev Message.hdr = Message.declare "conform/deliver"

type order_state = {
  os_expected : int option;  (* what the latest event's seqno had to be *)
  os_next : int option;  (* what the next event's seqno must be *)
  os_applied : int;
  os_ok : bool;  (* latest event was in order *)
}

(* The paper-style [State] class: fold the delivery discipline over the
   node's delivery events. The first delivery fixes the base (a recovered
   replica resumes above its durable floor); each subsequent one must be
   the successor. *)
let order_cls : order_state Cls.t =
  Cls.state "ConformTotalOrder"
    ~init:(fun _ ->
      { os_expected = None; os_next = None; os_applied = 0; os_ok = true })
    ~upd:(fun _ (d : dev) st ->
      let ok = match st.os_next with None -> true | Some n -> d.d_seqno = n in
      {
        os_expected = st.os_next;
        os_next = Some (d.d_seqno + 1);
        os_applied = st.os_applied + 1;
        os_ok = ok;
      })
    (Cls.base dev_hdr)

type verdict = {
  v_applied : int;
  v_ok : bool;
  v_expected : int option;
  v_got : int;
}

(* Pair each delivery with the spec machine's post-state: the per-event
   verdict the checker compares the observation against. *)
let verdict_cls : verdict Cls.t =
  Cls.o2
    (fun _ (d : dev) (st : order_state) ->
      [
        {
          v_applied = st.os_applied;
          v_ok = st.os_ok;
          v_expected = st.os_expected;
          v_got = d.d_seqno;
        };
      ])
    (Cls.base dev_hdr) order_cls

(* ----------------------------- reporting ------------------------------ *)

type divergence = {
  dv_node : int;
  dv_index : int;  (* position in the node's recorded stream *)
  dv_step : int;  (* the node's logical step at the event *)
  dv_what : string;
}

type report = {
  r_nodes : int;
  r_events : int;
  r_delivers : int;
  r_checkpoints : int;
  r_replies : int;
  r_spec_skipped : int;  (* deliveries beyond the spec-replay cap *)
  r_divergences : divergence list;
}

let ok r = r.r_divergences = []

let pp_divergence ppf d =
  Format.fprintf ppf "node %d, event #%d (step %d): %s" d.dv_node d.dv_index
    d.dv_step d.dv_what

let pp_report ppf r =
  Format.fprintf ppf
    "replayed %d events (%d deliveries, %d checkpoints, %d replies) across \
     %d nodes"
    r.r_events r.r_delivers r.r_checkpoints r.r_replies r.r_nodes;
  if r.r_spec_skipped > 0 then
    Format.fprintf ppf "; %d deliveries beyond the spec-replay cap"
      r.r_spec_skipped;
  if ok r then Format.fprintf ppf "@.conformant: trace matches the LoE spec"
  else begin
    (* One divergence cascades (every later fingerprint disagrees too);
       the first few pinpoint it, the rest are echo. *)
    let n = List.length r.r_divergences in
    Format.fprintf ppf "@.DIVERGENT (%d):" n;
    List.iteri
      (fun i d ->
        if i < 10 then Format.fprintf ppf "@.  %a" pp_divergence d)
      r.r_divergences;
    if n > 10 then Format.fprintf ppf "@.  ... and %d more" (n - 10)
  end

(* ------------------------------ checking ------------------------------ *)

type spec_exec = unit -> Txn.registry * Database.t
(** Builds the shadow execution environment: the transaction registry and
    a database seeded exactly like the recorded deployment's replicas. *)

let spec_exec_of_meta meta : spec_exec option =
  match List.assoc_opt "workload" meta with
  | Some "bank" ->
      let rows =
        match List.assoc_opt "rows" meta with
        | Some r -> ( match int_of_string_opt r with Some n -> n | None -> 0)
        | None -> 0
      in
      if rows <= 0 then None
      else
        Some
          (fun () ->
            let db = Database.create Storage.Store.Hazel in
            Workload.Bank.setup ~rows db;
            (Workload.Bank.registry (), db))
  | _ -> None

(* One incarnation of one node. [hash_mode] enables shadow execution
   (registry + seeded database); it switches itself off at the first
   payload the plain-SMR spec does not cover (reconfigurations, sharded
   prepare/decision records) — order checking continues regardless. *)
let check_incarnation ~node ~spec ~max_delivers ~diverge ~count
    (events : (int * Event.t) list) =
  let delivers =
    List.filter_map
      (fun (_, (e : Event.t)) ->
        match e.Event.kind with
        | Event.Deliver { seqno; origin; id; _ } ->
            Some { d_seqno = seqno; d_origin = origin; d_id = id }
        | _ -> None)
      events
  in
  let msgs =
    Array.of_list (List.map (fun d -> Message.make dev_hdr d) delivers)
  in
  let ncap = min (Array.length msgs) max_delivers in
  let hash_mode = ref (spec <> None) in
  let exec_env = lazy (match spec with Some f -> Some (f ()) | None -> None) in
  let expected : (int * int, Txn.outcome) Hashtbl.t = Hashtbl.create 64 in
  let last_seqno = ref None in
  let applied = ref 0 in
  let gseq_offset = ref None in
  let di = ref 0 in
  let skipped = ref 0 in
  List.iter
    (fun (idx, (e : Event.t)) ->
      count e;
      match e.Event.kind with
      | Event.Deliver { seqno; payload; _ } ->
          (if !di < ncap then
             (* The LoE semantics is the authority for the order verdict. *)
             match Sem.at node verdict_cls msgs !di with
             | [ v ] ->
                 if not v.v_ok then
                   diverge idx e
                     (Printf.sprintf
                        "out-of-order delivery: spec machine expected seqno \
                         %s, observed %d"
                        (match v.v_expected with
                        | Some n -> string_of_int n
                        | None -> "?")
                        v.v_got)
             | vs ->
                 diverge idx e
                   (Printf.sprintf
                      "spec machine produced %d verdicts for one delivery"
                      (List.length vs))
           else incr skipped);
          incr di;
          last_seqno := Some seqno;
          incr applied;
          if !hash_mode then begin
            match Shadowdb.System.decode_payload payload with
            | Shadowdb.System.P_txn txn -> (
                match Lazy.force exec_env with
                | Some (reg, db) ->
                    let reply = Txn.execute reg db txn in
                    Hashtbl.replace expected
                      (txn.Txn.client, txn.Txn.seq)
                      reply.Txn.outcome
                | None -> hash_mode := false)
            | Shadowdb.System.P_reconfig _ | Shadowdb.System.P_prepare _
            | Shadowdb.System.P_decision _ | Shadowdb.System.P_bytes _ ->
                (* Beyond the plain-SMR spec: keep checking order, stop
                   predicting state. *)
                hash_mode := false
          end
      | Event.Checkpoint { gseq; seqno; hash } -> (
          (match !last_seqno with
          | None ->
              diverge idx e "state checkpoint before any recorded delivery"
          | Some s when s <> seqno ->
              diverge idx e
                (Printf.sprintf
                   "checkpoint claims entry %d was applied, but the last \
                    recorded delivery was %d"
                   seqno s)
          | Some _ -> ());
          (match !gseq_offset with
          | None -> gseq_offset := Some (gseq - !applied)
          | Some o ->
              if gseq - !applied <> o then
                diverge idx e
                  (Printf.sprintf
                     "executed-count discontinuity: gseq %d after %d recorded \
                      deliveries (expected offset %d)"
                     gseq !applied o));
          if !hash_mode then
            match Lazy.force exec_env with
            | Some (_, db) ->
                let expect = Database.content_hash db in
                if expect <> hash then
                  diverge idx e
                    (Printf.sprintf
                       "state fingerprint diverges from spec execution at \
                        seqno %d: replica %x, spec %x"
                       seqno hash expect)
            | None -> ())
      | Event.Send { bytes; _ } ->
          if !hash_mode then (
            match Shadowdb.System.wire_codec.Runtime.dec bytes with
            | Ok (Shadowdb.System.Db (Shadowdb.Db_msg.Reply r)) -> (
                match Hashtbl.find_opt expected (r.Txn.client, r.Txn.seq) with
                | Some outcome ->
                    if outcome <> r.Txn.outcome then
                      diverge idx e
                        (Printf.sprintf
                           "reply to client %d seq %d diverges from the spec \
                            execution's outcome"
                           r.Txn.client r.Txn.seq)
                | None ->
                    diverge idx e
                      (Printf.sprintf
                         "reply to client %d seq %d for a transaction the \
                          spec never executed"
                         r.Txn.client r.Txn.seq))
            | Ok _ | Error _ -> ())
      | Event.Init | Event.Recv _ | Event.Timer _ | Event.Crash
      | Event.Restart ->
          ())
    events;
  (!last_seqno, !skipped)

let default_max_delivers = 5_000

let check ?spec_exec ?(max_delivers = default_max_delivers)
    (events : Event.t list) : report =
  let nodes = ref [] in
  let by_node : (int, Event.t list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      match Hashtbl.find_opt by_node e.Event.node with
      | Some l -> l := e :: !l
      | None ->
          Hashtbl.replace by_node e.Event.node (ref [ e ]);
          nodes := e.Event.node :: !nodes)
    events;
  let nodes = List.rev !nodes in
  let divergences = ref [] in
  let n_events = ref 0
  and n_delivers = ref 0
  and n_checkpoints = ref 0
  and n_replies = ref 0
  and n_skipped = ref 0 in
  List.iter
    (fun node ->
      let stream =
        List.mapi (fun i e -> (i, e)) (List.rev !(Hashtbl.find by_node node))
      in
      (* Split at Restart events: each opens a new incarnation that the
         Restart event itself belongs to. *)
      let incarnations =
        List.fold_left
          (fun acc ((_, e) as ev) ->
            match (e.Event.kind, acc) with
            | Event.Restart, _ -> [ ev ] :: acc
            | _, cur :: rest -> (ev :: cur) :: rest
            | _, [] -> [ [ ev ] ])
          [ [] ] stream
        |> List.rev_map List.rev
        |> List.filter (fun l -> l <> [])
      in
      let diverge idx (e : Event.t) what =
        divergences :=
          { dv_node = node; dv_index = idx; dv_step = e.Event.step; dv_what = what }
          :: !divergences
      in
      let count (e : Event.t) =
        incr n_events;
        match e.Event.kind with
        | Event.Deliver _ -> incr n_delivers
        | Event.Checkpoint _ -> incr n_checkpoints
        | Event.Send { bytes; _ } -> (
            match Shadowdb.System.wire_codec.Runtime.dec bytes with
            | Ok (Shadowdb.System.Db (Shadowdb.Db_msg.Reply _)) ->
                incr n_replies
            | Ok _ | Error _ -> ())
        | _ -> ()
      in
      let prev_last = ref None in
      List.iteri
        (fun k inc ->
          (* State prediction only before the first crash: recovery may
             legitimately re-execute a group-commit-lost suffix. *)
          let spec = if k = 0 then spec_exec else None in
          (* A restarted node must resume at or below one past everything
             it had applied — a forward jump is lost state. *)
          (match (!prev_last, k) with
          | Some last, k when k > 0 -> (
              let first_deliver =
                List.find_map
                  (fun (i, (e : Event.t)) ->
                    match e.Event.kind with
                    | Event.Deliver { seqno; _ } -> Some (i, e, seqno)
                    | _ -> None)
                  inc
              in
              match first_deliver with
              | Some (i, e, seqno) when seqno > last + 1 ->
                  diverge i e
                    (Printf.sprintf
                       "post-restart delivery gap: resumed at seqno %d after \
                        applying up to %d"
                       seqno last)
              | _ -> ())
          | _ -> ());
          let last, skipped =
            check_incarnation ~node ~spec ~max_delivers ~diverge ~count inc
          in
          n_skipped := !n_skipped + skipped;
          match last with
          | Some l ->
              prev_last :=
                Some (match !prev_last with Some p -> max p l | None -> l)
          | None -> ())
        incarnations)
    nodes;
  {
    r_nodes = List.length nodes;
    r_events = !n_events;
    r_delivers = !n_delivers;
    r_checkpoints = !n_checkpoints;
    r_replies = !n_replies;
    r_spec_skipped = !n_skipped;
    r_divergences = List.rev !divergences;
  }
