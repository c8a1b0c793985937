(* Static checks over the sharding layer: the partition function, the
   router's decomposition invariants, and the 2PC wire artifacts (the
   prepare/decision payload codec and the stable TOB entry identity scheme the
   coordinator's re-broadcast dedup depends on).

   Unlike the spec passes these run concrete bounded-domain sweeps over
   the real implementation — small enough to be instant, wide enough
   that any representation change that breaks an invariant (a partition
   function that escapes its range, a codec that no longer round-trips,
   an entry-id collision between phases) turns the lint gate red. *)

module Shard = Shadowdb.Shard
module Txn = Shadowdb.Txn
module Codec = Shadowdb.Codec
module Value = Storage.Value

(* A synthetic router over a two-table domain: every [Value.Int id]
   parameter is a key; sub-transactions keep their shard's parameters in
   request order. Exercises the same [route] paths the bank router uses
   without depending on the workload library. *)
let probe_router ~shards =
  let key id = { Shard.table = (if id mod 3 = 0 then "EVENTS" else "T"); id } in
  let keys_of (t : Txn.t) =
    List.filter_map
      (function Value.Int id -> Some (key id) | _ -> None)
      t.Txn.params [@warning "-4"]
  in
  let split (t : Txn.t) =
    let by_shard = Hashtbl.create 8 in
    List.iter
      (fun p ->
        (match p with
        | Value.Int id ->
            let s = Shard.shard_of_key ~shards (key id) in
            let prev = Option.value (Hashtbl.find_opt by_shard s) ~default:[] in
            Hashtbl.replace by_shard s (p :: prev)
        | _ -> ())
        [@warning "-4"])
      t.Txn.params;
    Hashtbl.fold
      (fun s ps acc -> (s, { t with Txn.params = List.rev ps }) :: acc)
      by_shard []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  ({ Shard.shards; keys_of; split }, key)

let probe_txn ~client ~seq ids : Txn.t =
  {
    Txn.client;
    seq;
    kind = "probe";
    params = List.map (fun id -> Value.Int id) ids;
  }

(* ---- shard-router ------------------------------------------------- *)

let router_pass () =
  let diag = Diag.v ~pass:"shard" ~target:"shard-router" in
  let findings = ref [] in
  let report d = findings := d :: !findings in
  let key_domain =
    List.concat_map
      (fun table -> List.init 64 (fun id -> { Shard.table; id }))
      [ "T"; "EVENTS"; "ACCOUNTS" ]
  in
  (* Partition range and determinism over the key domain, for every
     shard count the CLI accepts. *)
  List.iter
    (fun shards ->
      List.iter
        (fun k ->
          let s = Shard.shard_of_key ~shards k in
          if s < 0 || s >= shards then
            report
              (diag ~code:"shard-out-of-range"
                 ~site:(Printf.sprintf "%s/%d" k.Shard.table k.Shard.id)
                 "shard_of_key ~shards:%d returned %d" shards s);
          if Shard.shard_of_key ~shards k <> s then
            report
              (diag ~code:"shard-unstable"
                 ~site:(Printf.sprintf "%s/%d" k.Shard.table k.Shard.id)
                 "shard_of_key is not a function of its argument"))
        key_domain)
    [ 1; 2; 3; 4; 8 ];
  let shards = 4 in
  let router, key = probe_router ~shards in
  let txns =
    List.concat_map
      (fun client ->
        List.init 12 (fun seq ->
            let ids =
              List.init
                (1 + ((client + seq) mod 4))
                (fun j -> (client * 17) + (seq * 5) + (j * 13))
            in
            probe_txn ~client ~seq ids))
      [ 1; 2; 3 ]
  in
  List.iter
    (fun (txn : Txn.t) ->
      let pp_txn () =
        Printf.sprintf "txn(client=%d,seq=%d)" txn.Txn.client txn.Txn.seq
      in
      (* Decomposition invariants: a Local route means every key lives on
         that shard; a Distributed route partitions the keys — each
         sub-transaction's keys map to its assigned shard and the parts
         jointly cover the parent's key set. Sub-transactions must keep
         the parent's (client, seq) — the 2PC xid. *)
      (match Shard.route router txn with
      | Shard.Local s ->
          List.iter
            (fun k ->
              if
                router.Shard.keys_of txn <> []
                && Shard.shard_of_key ~shards k <> s
              then
                report
                  (diag ~code:"route-key-escape" ~site:(pp_txn ())
                     "Local %d but key %s/%d lives on shard %d" s
                     k.Shard.table k.Shard.id
                     (Shard.shard_of_key ~shards k)))
            (router.Shard.keys_of txn)
      | Shard.Distributed parts ->
          if List.length parts < 2 then
            report
              (diag ~code:"route-trivial-split" ~site:(pp_txn ())
                 "Distributed route with %d part(s)" (List.length parts));
          let covered = Hashtbl.create 16 in
          List.iter
            (fun ((s : int), (sub : Txn.t)) ->
              if
                sub.Txn.client <> txn.Txn.client || sub.Txn.seq <> txn.Txn.seq
              then
                report
                  (diag ~code:"split-loses-xid" ~site:(pp_txn ())
                     "sub-transaction for shard %d does not carry the \
                      parent's (client, seq)"
                     s);
              List.iter
                (fun k ->
                  Hashtbl.replace covered (k.Shard.table, k.Shard.id) ();
                  if Shard.shard_of_key ~shards k <> s then
                    report
                      (diag ~code:"split-key-escape" ~site:(pp_txn ())
                         "shard %d's sub-transaction touches key %s/%d \
                          owned by shard %d"
                         s k.Shard.table k.Shard.id
                         (Shard.shard_of_key ~shards k)))
                (router.Shard.keys_of sub))
            parts;
          List.iter
            (fun k ->
              if not (Hashtbl.mem covered (k.Shard.table, k.Shard.id)) then
                report
                  (diag ~code:"split-drops-key" ~site:(pp_txn ())
                     "key %s/%d of the parent appears in no sub-transaction"
                     k.Shard.table k.Shard.id))
            (router.Shard.keys_of txn));
      (* Routing must survive the wire: a decoded re-encoding of the
         transaction routes identically (replicas and the coordinator
         route independently from their own copies). *)
      match Codec.decode_txn (Codec.encode_txn txn) with
      | Error e ->
          report
            (diag ~code:"txn-codec-broken" ~site:(pp_txn ())
               "encode/decode round-trip failed: %s" e)
      | Ok txn' ->
          if Shard.route router txn' <> Shard.route router txn then
            report
              (diag ~code:"route-unstable-across-wire" ~site:(pp_txn ())
                 "decoded copy routes differently from the original"))
    txns;
  ignore key;
  List.rev !findings

(* ---- 2pc-coordinator ---------------------------------------------- *)

let coord_pass () =
  let diag = Diag.v ~pass:"shard" ~target:"2pc-coordinator" in
  let findings = ref [] in
  let report d = findings := d :: !findings in
  (* Prepare / decision payloads round-trip through the TOB payload
     codec. *)
  let txn = probe_txn ~client:7 ~seq:3 [ 1; 2; 42 ] in
  let round_trip ~site p =
    if Codec.decode_payload (Codec.encode_payload p) <> p then
      report
        (diag ~code:"payload-codec-lossy" ~site
           "2pc payload did not round-trip")
  in
  List.iter
    (fun shard ->
      round_trip
        ~site:(Printf.sprintf "prepare shard=%d" shard)
        (Codec.P_prepare (9, shard, [ 0; shard ], txn)))
    [ 0; 1; 5 ];
  List.iter
    (fun commit ->
      round_trip
        ~site:(Printf.sprintf "decision commit=%b" commit)
        (Codec.P_decision (2, commit, txn)))
    [ true; false ];
  (* The coordinator's vote message round-trips through the db codec. *)
  let vote =
    Shadowdb.Db_msg.Vote
      {
        shard = 1;
        participants = [ 0; 1 ];
        vote = { Txn.client = 7; seq = 3; outcome = Ok [] };
        vtxn = txn;
      }
  in
  (match Codec.decode_db_msg (Codec.encode_db_msg vote) with
  | Ok v when v = vote -> ()
  | Ok _ ->
      report (diag ~code:"vote-codec-lossy" "vote message did not round-trip")
  | Error e ->
      report (diag ~code:"vote-codec-broken" "decode_db_msg failed: %s" e));
  (* Entry-id injectivity: re-broadcast dedup at the TOB layer is only
     sound if no two distinct (phase, client, seq, shard) tuples share
     an id. Sweep a bounded domain. *)
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun phase ->
      List.iter
        (fun client ->
          List.iter
            (fun seq ->
              List.iter
                (fun shard ->
                  let id = Shard.entry_id ~phase ~client ~seq ~shard in
                  let tup = (phase, client, seq, shard) in
                  match Hashtbl.find_opt seen id with
                  | Some prior when prior <> tup ->
                      report
                        (diag ~code:"entry-id-collision"
                           ~site:(Printf.sprintf "id=%d" id)
                           "two distinct 2PC records share a TOB entry id")
                  | _ -> Hashtbl.replace seen id tup)
                [ 0; 1; 2; 3 ])
            (List.init 24 (fun s -> s)))
        (List.init 6 (fun c -> c)))
    [ `Prepare; `Decision ];
  List.rev !findings
