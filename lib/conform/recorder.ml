(* The always-on trace recorder.

   A bounded ring buffer of {!Event.t} behind a mutex, fed by a runtime
   tap ({!Runtime.tap}): attach it at runtime construction and every
   dispatch, send, delivery, checkpoint and fault of every node lands
   here, stamped with the node's logical step (its dispatch count). When
   the buffer fills, the oldest events are dropped and counted — the
   recorder never stalls the system it observes. Message encoding (the
   trace stores wire bytes, so sim traces are byte-comparable with
   socket traces) happens outside the lock. *)

type t = {
  mu : Mutex.t;
  cap : int;
  buf : Event.t array;
  mutable start : int;  (* index of the oldest event *)
  mutable len : int;
  mutable dropped : int;
  steps : (int, int) Hashtbl.t;  (* node -> dispatches so far *)
  mutable meta : (string * string) list;
}

let dummy = { Event.node = -1; step = 0; at = 0.0; kind = Event.Init }
let default_cap = 1 lsl 18

let create ?(cap = default_cap) ?(meta = []) () =
  let cap = max 1 cap in
  {
    mu = Mutex.create ();
    cap;
    buf = Array.make cap dummy;
    start = 0;
    len = 0;
    dropped = 0;
    steps = Hashtbl.create 16;
    meta;
  }

let push t ev =
  if t.len = t.cap then begin
    (* Full: overwrite the oldest slot. *)
    t.buf.(t.start) <- ev;
    t.start <- (t.start + 1) mod t.cap;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.buf.((t.start + t.len) mod t.cap) <- ev;
    t.len <- t.len + 1
  end

let tap (t : t) ~(enc : 'm -> string) : 'm Runtime.tap =
 fun ~self ~now ob ->
  (* Encode outside the lock; [enc] is the expensive part of recording. *)
  let kind =
    match ob with
    | Runtime.Ob_input Runtime.Init -> Event.Init
    | Runtime.Ob_input (Runtime.Recv { src; msg }) ->
        Event.Recv { src; bytes = enc msg }
    | Runtime.Ob_input (Runtime.Timer { id; tag }) -> Event.Timer { id; tag }
    | Runtime.Ob_send { dst; msg } -> Event.Send { dst; bytes = enc msg }
    | Runtime.Ob_deliver { seqno; origin; id; payload } ->
        Event.Deliver { seqno; origin; id; payload }
    | Runtime.Ob_checkpoint { gseq; seqno; hash; _ } ->
        Event.Checkpoint { gseq; seqno; hash }
    | Runtime.Ob_crash -> Event.Crash
    | Runtime.Ob_restart -> Event.Restart
  in
  let is_input = match ob with Runtime.Ob_input _ -> true | _ -> false in
  Mutex.protect t.mu (fun () ->
      let step =
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.steps self) in
        if is_input then begin
          Hashtbl.replace t.steps self (prev + 1);
          prev + 1
        end
        else prev
      in
      push t { Event.node = self; step; at = now; kind })

let events t =
  Mutex.protect t.mu (fun () ->
      List.init t.len (fun i -> t.buf.((t.start + i) mod t.cap)))

let dropped t = Mutex.protect t.mu (fun () -> t.dropped)
let recorded t = Mutex.protect t.mu (fun () -> t.len + t.dropped)
let meta t = Mutex.protect t.mu (fun () -> t.meta)
let add_meta t kvs = Mutex.protect t.mu (fun () -> t.meta <- t.meta @ kvs)
let save t path = Trace_file.save ~path ~meta:(meta t) (events t)
