(** Runtime-polymorphic process layer.

    One protocol implementation, two execution substrates: handlers
    written against this module's capability records run unchanged on the
    deterministic simulator ({!Of_sim}, preserving byte-identical
    same-seed traces and the model checker's scheduler hook) and on a
    real socket deployment, {!Loop} (the whole deployment multiplexed
    over a single event-loop reactor with batched zero-copy sends and
    watermark backpressure). {!Frame} and {!Outbox} are its wire framing
    and bounded send-queue building blocks. {!Proc} is the generic
    process shell that adapts pure [state × input → state × actions]
    machines — and imperative processes — to any runtime instance. *)

include Core
module Proc = Proc
module Of_sim = Of_sim
module Frame = Frame
module Outbox = Outbox
module Loop = Loop
