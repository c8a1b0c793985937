(** The one JSON writer (drill artifact, lint reports). *)

type t =
  | Bool of bool
  | Int of int  (** printed exactly, never rounded through a float *)
  | Float of float  (** [%.6g]; non-finite values print as [null] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Members of non-empty arrays and objects one per line, indented two
    spaces per level; no trailing newline. *)
