(** Fig. 8: performance of the broadcast service with Paxos (f = 1).

    Closed-loop clients broadcast 140-byte messages; for each execution
    engine (interpreted, interpreted over the optimizer's output, and
    compiled) the harness sweeps the client count and reports delivered
    messages per second against mean delivery latency. *)

type point = {
  clients : int;
  throughput : float;  (** Delivered messages per second. *)
  latency_ms : float;  (** Mean broadcast→delivery latency. *)
}

(** The closed-loop broadcast client behind Fig. 8 and the broadcast
    ablations, over any consensus core. *)
module Load (C : Consensus.Consensus_intf.S) : sig
  val run :
    seed:int ->
    payload:string ->
    ?profile:Gpm.Engine_profile.t ->
    ?batch_cap:int ->
    ?window:int ->
    n_members:int ->
    n_clients:int ->
    msgs_per_client:int ->
    unit ->
    float * float
  (** [n_clients] clients each broadcast [msgs_per_client] entries of
      [payload] to the first of [n_members] service members, one at a
      time: the next is sent when the previous one is delivered back.
      Returns delivered entries per virtual second and the mean
      broadcast→delivery latency in ms. [profile], [batch_cap] and
      [window] default as in {!Broadcast.Shell.Make.spawn}. *)
end

val run_engine :
  ?msgs_per_client:int ->
  ?clients:int list ->
  Gpm.Engine_profile.t ->
  point list
(** One engine's sweep over [clients] (default 1 to 43) with
    [msgs_per_client] (default 60) 140-byte broadcasts each. *)

val run : ?quick:bool -> unit -> (Gpm.Engine_profile.t * point list) list
(** All three engines. [quick] (default true) uses fewer messages per
    client than the paper's 500/10,000. *)

val print : (Gpm.Engine_profile.t * point list) list -> unit
