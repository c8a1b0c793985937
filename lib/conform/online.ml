(* The lightweight online conformance monitor.

   An in-process tap for event-loop clusters that checks, while the
   system runs, the two properties cheap enough to verify inline:

   - per-link FIFO: message digests are queued at [Ob_send] and checked
     off in order at the matching [Recv] dispatch — the channel
     assumption every protocol here makes, verified end-to-end through
     whatever transport the runtime uses;
   - fingerprint agreement: {!Monitors.checkpoint}'s table, fed live and
     keyed on the checkpoint's (group, seqno) — the group is the shard.

   Digests are [Hashtbl.hash] of the decoded message — collisions can
   mask a violation, never invent one. Messages to a crashed node are
   legitimately lost: those in flight at [Ob_crash], and those sent while
   it is down ([Ob_send] is observed before the runtime drops a send to a
   dead node). So the node's inbound digest queues are forgotten on both
   [Ob_crash] and [Ob_restart]; its outbound queues stay, since frames it
   sent before dying are still delivered. *)

type t = {
  mu : Mutex.t;
  links : (int * int, int Queue.t) Hashtbl.t;  (* (src, dst) -> digests *)
  agree : Monitors.agreement;
  mutable checked : int;
  mutable fifo_violations : int;
  mutable agreement_violations : int;
  mutable messages : string list;  (* newest first, capped *)
}

let max_messages = 20

let create () =
  {
    mu = Mutex.create ();
    links = Hashtbl.create 64;
    agree = Monitors.agreement ();
    checked = 0;
    fifo_violations = 0;
    agreement_violations = 0;
    messages = [];
  }

let note t msg =
  if List.length t.messages < max_messages then t.messages <- msg :: t.messages

let link_q t key =
  match Hashtbl.find_opt t.links key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.links key q;
      q

let tap (t : t) : 'm Runtime.tap =
 fun ~self ~now:_ ob ->
  match ob with
  | Runtime.Ob_send { dst; msg } ->
      let h = Hashtbl.hash msg in
      Mutex.protect t.mu (fun () -> Queue.push h (link_q t (self, dst)))
  | Runtime.Ob_input (Runtime.Recv { src; msg }) ->
      let h = Hashtbl.hash msg in
      Mutex.protect t.mu (fun () ->
          t.checked <- t.checked + 1;
          let ok =
            match Queue.take_opt (link_q t (src, self)) with
            | Some h0 -> h0 = h
            | None -> false
          in
          if not ok then begin
            t.fifo_violations <- t.fifo_violations + 1;
            note t
              (Printf.sprintf "per-link FIFO violation on %d->%d" src self)
          end)
  | Runtime.Ob_checkpoint { group; seqno; hash; _ } ->
      Mutex.protect t.mu (fun () ->
          t.checked <- t.checked + 1;
          match Monitors.checkpoint t.agree ~group ~node:self ~seqno ~hash with
          | None -> ()
          | Some msg ->
              t.agreement_violations <- t.agreement_violations + 1;
              note t msg)
  | Runtime.Ob_crash | Runtime.Ob_restart ->
      Mutex.protect t.mu (fun () ->
          Hashtbl.iter (fun (_, d) q -> if d = self then Queue.clear q) t.links)
  | Runtime.Ob_input (Runtime.Init | Runtime.Timer _) | Runtime.Ob_deliver _ ->
      ()

let checked t = Mutex.protect t.mu (fun () -> t.checked)

let violations t =
  Mutex.protect t.mu (fun () -> t.fifo_violations + t.agreement_violations)

let messages t = Mutex.protect t.mu (fun () -> List.rev t.messages)

let summary t =
  Mutex.protect t.mu (fun () ->
      Printf.sprintf
        "online monitor: %d checks, %d FIFO violations, %d agreement \
         violations"
        t.checked t.fifo_violations t.agreement_violations)
