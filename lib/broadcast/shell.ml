module R = Runtime

type costs = { client_msg : float; core_msg : float; per_entry : float }

(* Calibrated against Fig. 8 (see EXPERIMENTS.md): with the engine factors
   in {!Gpm.Engine_profile}, these constants put the compiled service at
   ≈8.8 ms one-client latency and ≈900 delivered msgs/s at 43 clients. *)
let default_costs =
  { client_msg = 5.0e-5; core_msg = 1.92e-3; per_entry = 3.9e-4 }

module Make (C : Consensus.Consensus_intf.S) = struct
  module T = Tob.Make (C)

  let entry_size (e : Tob.entry) = String.length e.Tob.payload + 24

  let msg_size = function
    | T.Broadcast e -> entry_size e
    | T.Core _ -> 256 (* consensus messages carry batches; flat estimate *)

  let spawn ?(profile = Gpm.Engine_profile.Compiled) ?batch_cap ?window
      ~world ~inj ~prj ~inj_notify ~n ~subscribers () =
    let lat_f = Gpm.Engine_profile.cpu_factor profile in
    let data_f = Gpm.Engine_profile.data_factor profile in
    let members = ref [] in
    let machine =
      {
        R.Proc.init =
          (fun ~self ~now:_ ->
            T.create ?batch_cap ?window ~self
              ~members:!members ~subscribers:(subscribers ()) ());
        start = T.start;
        recv = T.recv;
        tick = (fun t ~now ~tag:_ -> T.tick t ~now);
      }
    in
    let charge_recv ctx = function
      | T.Broadcast _ -> R.charge ctx default_costs.client_msg
      | T.Core _ -> R.charge ctx (default_costs.core_msg *. lat_f)
    in
    let on_step ctx ~before ~after =
      R.charge ctx
        (float_of_int (T.delivered after - T.delivered before)
        *. default_costs.per_entry *. data_f)
    in
    let interp ctx = function
      | T.Send (dst, m) -> R.send ctx ~size:(msg_size m) dst (inj m)
      | T.Notify (dst, d) ->
          R.send ctx ~size:(entry_size d.Tob.entry + 8) dst (inj_notify d)
      | T.Set_timer delay -> ignore (R.set_timer ctx delay "tob")
    in
    let ids =
      R.Proc.spawn_group ~world ~n
        ~name:(Printf.sprintf "tob%d")
        (fun _i ->
          R.Proc.node_handler ~machine ~prj ~charge_recv ~on_step ~interp)
    in
    members := ids;
    ids
end
