(* Bounded per-peer send queues with watermark backpressure.

   An outbox accumulates already-encoded frames ({!Frame.append}) for one
   destination connection and flushes the whole pending region with a
   single coalesced [Unix.write] per readiness event — many frames, one
   syscall, no per-frame allocation.

   Boundedness is cooperative: crossing [high] pending bytes *engages*
   the outbox — the hosting runtime parks the producers feeding it
   (defers their timers, pauses their inbound reads) until a flush drains
   the queue below [low], at which point {!release} disengages and the
   runtime wakes them. A producer can overshoot [high] only by what a
   single handler dispatch emits, so memory stays bounded without ever
   dropping or reordering frames: the queue is strictly FIFO per
   destination, and per-(src,dst) order is the append order. *)

type t = {
  fb : Frame.buf;
  high : int;
  low : int;
  mutable engaged : bool;
  mutable writes : int;  (* flush syscalls that moved bytes *)
}

let default_high = 1 lsl 20
let default_low = 1 lsl 18

let create ?(high = default_high) ?(low = default_low) () =
  if low < 0 || high <= low then
    Sim.Invariant.fail "outbox" "watermarks must satisfy 0 <= low < high";
  {
    fb = Frame.create 65536;
    high;
    low;
    engaged = false;
    writes = 0;
  }

let pending t = Frame.length t.fb
let engaged t = t.engaged

(* Append one frame; [`Engaged] on the transition across the high
   watermark (the caller parks producers and surfaces the signal). *)
let append t ~src ~payload =
  Frame.append t.fb ~src ~payload;
  if (not t.engaged) && pending t >= t.high then begin
    t.engaged <- true;
    `Engaged
  end
  else `Ok

(* One coalesced write of everything pending. [`Partial] covers both a
   short write and a would-block on a non-blocking socket — the caller
   keeps the fd in its write-readiness set. *)
let flush t fd =
  if Frame.is_empty t.fb then `Drained
  else
    match Unix.write fd t.fb.Frame.b t.fb.Frame.head t.fb.Frame.len with
    | n ->
        t.writes <- t.writes + 1;
        t.fb.Frame.head <- t.fb.Frame.head + n;
        t.fb.Frame.len <- t.fb.Frame.len - n;
        if t.fb.Frame.len = 0 then begin
          t.fb.Frame.head <- 0;
          `Drained
        end
        else `Partial
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Partial
    | exception Unix.Unix_error _ -> `Closed

(* In-process flush: drain pending frames straight into [frame] — one
   coalesced delivery batch, zero kernel copies — with the same
   accounting as a socket flush (a non-empty drain counts as one write).
   [stop] is polled between frames so a parked destination suspends the
   drain with the rest buffered. Returns the bytes delivered; handlers
   invoked by [frame] may append to this same outbox mid-drain, and
   those frames are drained (and counted) in the same pass. *)
let flush_local t ~stop ~frame ~bad =
  let drained = ref 0 in
  Frame.drain ~stop t.fb
    ~frame:(fun ~src payload ->
      drained := !drained + Frame.header + String.length payload;
      frame ~src payload)
    ~bad;
  if !drained > 0 then t.writes <- t.writes + 1;
  !drained

(* Disengage once drained below the low watermark; true iff the caller
   should unpark this outbox's waiters. *)
let release t =
  if t.engaged && pending t <= t.low then begin
    t.engaged <- false;
    true
  end
  else false
