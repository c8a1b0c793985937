(** Runtime shell for the total-order broadcast service.

    Hosts {!Tob.Make} members as nodes of any {!Runtime.t} — the
    deterministic simulator or the live socket runtime. The shell is
    polymorphic in the world's wire type via injection/projection
    functions, so the service can be embedded in larger systems (ShadowDB
    worlds carry both database traffic and broadcast traffic). *)

type costs = {
  client_msg : float;
      (** CPU seconds to ingest one client broadcast (fixed). *)
  core_msg : float;
      (** CPU seconds per consensus protocol message (fixed; scaled by the
          engine's latency factor). *)
  per_entry : float;
      (** CPU seconds per payload entry delivered (scaled by the engine's
          data factor). *)
}

val default_costs : costs
(** Calibration that reproduces Fig. 8 under {!Gpm.Engine_profile}:
    [core_msg = 1.92 ms], [per_entry = 0.39 ms], [client_msg = 0.05 ms]. *)

module Make (C : Consensus.Consensus_intf.S) : sig
  module T : module type of Tob.Make (C)

  val spawn :
    ?profile:Gpm.Engine_profile.t ->
    ?batch_cap:int ->
    ?window:int ->
    world:'w Runtime.t ->
    inj:(T.msg -> 'w) ->
    prj:('w -> T.msg option) ->
    inj_notify:(Tob.deliver -> 'w) ->
    n:int ->
    subscribers:(unit -> Tob.loc list) ->
    unit ->
    Tob.loc list
  (** Spawn [n] service members. [subscribers] is read lazily at node
      start-up, so clients may be spawned after the service. Returns the
      member node ids (send client broadcasts to any of them, injected via
      [inj (T.Broadcast entry)]). *)
end
