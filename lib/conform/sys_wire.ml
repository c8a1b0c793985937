(* [Shadowdb.System] and its wire codec under the names the performance
   harness uses; everything else refers to [Shadowdb.System] directly. *)

module S = Shadowdb.System

let codec = S.wire_codec
