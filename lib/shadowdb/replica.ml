(* The replica core shared by every replication protocol in {!System}.

   PBR, chain and SMR are built on one broadcast service (paper Sec. III)
   and reconfigure the same way: detect a silent member, propose the
   successor configuration through the TOB, and bring the newcomer up to
   date with a snapshot. Those mechanisms and the wire format live here
   once (the TOB payload tags are {!Codec}'s); the protocol modules ({!Pbr}, {!Smr},
   {!Sharded}) keep only what differs. *)

module R = Runtime
module Database = Storage.Database
module Tob = Broadcast.Tob

type loc = int

type decoded_payload = Codec.payload =
  | P_txn of Txn.t
  | P_reconfig of Config.t * int * loc
  | P_prepare of loc * int * int list * Txn.t
      (* coordinator, shard, participants, sub-transaction *)
  | P_decision of int * bool * Txn.t  (* shard, commit?, sub-transaction *)
  | P_bytes of string

let decode_payload = Codec.decode_payload

type tuning = {
  hb_interval : float;
  detect_timeout : float;
  cache_cap : int;
  chunk_rows : int;
  exec_overhead : float;  (* fixed CPU per transaction besides DB work *)
  fwd_overhead : float;  (* primary-side per-backup forward/ack handling *)
}

let default_tuning =
  {
    hb_interval = 1.0;
    detect_timeout = 10.0;
    cache_cap = 20_000;
    chunk_rows = 700;
    exec_overhead = 2.0e-5;
    fwd_overhead = 4.5e-5;
  }

(* Replica registries back the [*_of] observers of a cluster handle.
   Node handlers fill them in — on the event-loop runtime, from the
   reactor thread — while the spawning thread reads them, so access is
   serialized by a mutex. *)
module Registry = struct
  type 'a t = { mu : Mutex.t; tbl : (loc, 'a) Hashtbl.t }

  let create () = { mu = Mutex.create (); tbl = Hashtbl.create 8 }

  let set t l r = Mutex.protect t.mu (fun () -> Hashtbl.replace t.tbl l r)

  (* [f] is caller code: Mutex.protect releases the lock if it raises, so
     a raising observer cannot leave the registry mutex held. *)
  let view t l f ~default =
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.tbl l with Some r -> f r | None -> default)
end

(* Storage engine of the [i]-th replica: [backends] round-robin, default
   all "hazel". *)
let backend_of backends i =
  match backends with
  | None -> Storage.Store.Hazel
  | Some bs -> List.nth bs (i mod List.length bs)

(* The per-node state every protocol carries: the database, the current
   configuration and the failure detector. *)
type node = {
  self : loc;
  nodes : loc list;  (* every replica incl. spares, deployment order *)
  db : Database.t;
  reg : Txn.registry;
  tun : tuning;
  mutable cfg : Config.t;
  mutable gseq : int;  (* executed (PBR) or delivered (SMR) entries *)
  mutable installing : bool;  (* receiving snapshot chunks *)
  last_hb : (loc, float) Hashtbl.t;
  mutable proposed_at : float;  (* last reconfig proposal time *)
  mutable tob_seq : int;  (* ids for our TOB broadcasts *)
}

let reset_hb n ~now =
  List.iter (fun m -> Hashtbl.replace n.last_hb m now) n.cfg.Config.members

(* Build a node's state on its first event: load the initial data, drop
   the setup cost, and start every member of the initial configuration
   with a fresh heartbeat. *)
let create_node ~self ~now ~nodes ~members ~backend ~setup ~registry ~tun =
  let db = Database.create backend in
  setup db;
  ignore (Database.take_cost db);
  let n =
    {
      self;
      nodes;
      db;
      reg = registry ();
      tun;
      cfg = Config.initial members;
      gseq = 0;
      installing = false;
      last_hb = Hashtbl.create 8;
      proposed_at = -1.0e9;
      tob_seq = 0;
    }
  in
  reset_hb n ~now;
  n

let in_cfg n = Config.contains n.cfg n.self
let heard ctx n src = Hashtbl.replace n.last_hb src (R.time ctx)

let rearm_detect ctx n =
  ignore (R.set_timer ctx (n.tun.detect_timeout /. 4.0) "detect")

let start_timers ctx n =
  ignore (R.set_timer ctx n.tun.hb_interval "hb");
  rearm_detect ctx n

(* Paper Sec. III-A, recovery steps 1–2, shared by PBR and SMR: suspect
   the members silent for longer than the detection timeout and propose
   the successor configuration — suspects replaced by as many spares —
   through the broadcast service. [submit] hands the entry to the TOB. *)
let check_suspicion ctx n ~submit =
  let now = R.time ctx in
  let suspects =
    List.filter
      (fun m ->
        m <> n.self
        &&
        match Hashtbl.find_opt n.last_hb m with
        | Some t -> now -. t > n.tun.detect_timeout
        | None -> false)
      n.cfg.Config.members
  in
  (* Re-propose at most once per detection interval while the suspicion
     persists (the first delivered proposal wins). *)
  if suspects <> [] && now -. n.proposed_at > n.tun.detect_timeout /. 2.0
  then begin
    n.proposed_at <- now;
    let spares =
      List.filter (fun m -> not (Config.contains n.cfg m)) n.nodes
    in
    let add = List.filteri (fun i _ -> i < List.length suspects) spares in
    let proposal = Config.next n.cfg ~remove:suspects ~add in
    n.tob_seq <- n.tob_seq + 1;
    submit
      {
        Tob.origin = n.self;
        id = n.tob_seq;
        payload =
          Codec.encode_payload (P_reconfig (proposal, n.gseq, n.self));
      }
  end

(* State transfer: [rows] cut into [chunk_rows]-row Snapshot messages in
   one pass. The sequence always ends with exactly one [last] chunk — an
   empty database is one empty last chunk — since the receiver resumes
   only when the last chunk lands. [clients] rides on the last chunk. *)
let snapshot_chunks n ~cfg ~upto ~clients rows =
  let chunk rows last =
    let clients = if last then clients else [] in
    Db_msg.Snapshot { cfg; rows = List.rev rows; upto; last; clients }
  in
  let rec go acc cur k = function
    | [] -> List.rev (chunk cur true :: acc)
    | row :: rest when k = n.tun.chunk_rows ->
        go (chunk cur false :: acc) [ row ] 1 rest
    | row :: rest -> go acc (row :: cur) (k + 1) rest
  in
  go [] [] 0 rows

(* Install one received chunk: the first chunk of a transfer clears the
   database. Rows the schema rejects mean the sender's state cannot be
   reproduced here, so carrying on would leave a silently divergent
   replica: [halt] marks the node not serving and the install fails
   loudly instead. *)
let install_chunk ctx n ~layer ~halt rows ~last =
  if not n.installing then begin
    n.installing <- true;
    Database.clear_data n.db
  end;
  (match Database.load_rows n.db rows with
  | Ok () -> ()
  | Error e ->
      halt ();
      Sim.Invariant.fail layer "replica %d: snapshot chunk rejected: %s"
        n.self e);
  R.charge ctx (Database.take_cost n.db);
  if last then n.installing <- false

module Shell = Broadcast.Shell.Make (Consensus.Paxos)
module TM = Shell.T

type wire = Svc of TM.msg | Note of Tob.deliver | Db of Db_msg.t

let send_db ctx dst m = R.send ctx ~size:(Db_msg.size m) dst (Db m)

(* Wire format for the whole system: broadcast-service traffic, delivery
   notifications and database replication messages share one socket per
   link on the socket runtime. Every body is decoded in place from byte
   1, behind the one-byte tag. *)
let wire_codec : wire R.codec =
  let enc = function
    | Svc (TM.Broadcast e) -> "B" ^ Codec.encode_entry e
    | Svc (TM.Core m) -> "C" ^ Codec.encode_core_paxos m
    | Note d -> "N" ^ Codec.encode_deliver d
    | Db m -> "D" ^ Codec.encode_db_msg m
  in
  let dec s =
    if s = "" then Error "empty wire message"
    else
      match s.[0] with
      | 'B' -> (
          match Codec.decode_entry ~pos:1 s with
          | Ok (e, "") -> Ok (Svc (TM.Broadcast e))
          | Ok _ -> Error "trailing bytes after entry"
          | Error e -> Error e)
      | 'C' ->
          Result.map
            (fun m -> Svc (TM.Core m))
            (Codec.decode_core_paxos ~pos:1 s)
      | 'N' -> Result.map (fun d -> Note d) (Codec.decode_deliver ~pos:1 s)
      | 'D' -> Result.map (fun m -> Db m) (Codec.decode_db_msg ~pos:1 s)
      | c -> Error (Printf.sprintf "bad wire tag %C" c)
  in
  { R.enc; dec }

(* The "hb" timer: heartbeat the other members while [live], re-arm. *)
let heartbeat ctx n ~live =
  if live then begin
    let hb = Db_msg.Heartbeat { cfg = n.cfg.Config.seq } in
    List.iter
      (fun m -> if m <> n.self then send_db ctx m hb)
      n.cfg.Config.members
  end;
  ignore (R.set_timer ctx n.tun.hb_interval "hb")
